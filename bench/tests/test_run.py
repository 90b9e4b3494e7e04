"""The command line: result line, percentiles, compare mode and the missing-sources exit."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from bench import compare, run

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def test_percentile_interpolates_between_ranks():
    values = list(range(1, 41))
    assert run.percentile(values, 50) == 20.5
    assert run.percentile(values, 75) == 30.25
    assert run.percentile([4.0], 99) == 4.0


def test_exits_without_a_result_when_the_sources_are_missing(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "sign", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def record(workload, value, raw):
    return {"workload": workload, "trace": 0,
            "metrics": {"ops_s": {"value": value, "unit": "1/s"},
                        "latency_p50_ms": {"value": 1000 / value, "unit": "ms"}},
            "raw": {"ops_s": raw, "latency_p50_ms": 1000 / raw}}


def write_set(path, values):
    path.mkdir()
    for i, v in enumerate(values):
        (path / f"r{i}.json").write_text(json.dumps(record("sign", v, v * (1 + i % 3 / 10))))


def test_compare_accepts_agreeing_sets_and_flags_a_regression(tmp_path, capsys):
    write_set(tmp_path / "a", [100, 101, 99, 100, 102])
    write_set(tmp_path / "b", [100, 99, 101, 100, 98])
    write_set(tmp_path / "c", [70, 71, 69, 70, 72])
    assert compare.main(str(tmp_path / "a"), str(tmp_path / "b"), ROOT) == 0
    out = capsys.readouterr().out
    assert "sign/ops_s" in out and "ok" in out
    assert compare.main(str(tmp_path / "a"), str(tmp_path / "c"), ROOT) == 1
    assert "WORSE" in capsys.readouterr().out


@pytest.mark.parametrize("values, expected", [([1.0, 2.0, 3.0, 4.0], 1.0), ([5.0], 0.0)])
def test_spread_is_interquartile_distance_over_median(values, expected):
    assert compare.spread(values) == pytest.approx(expected)
