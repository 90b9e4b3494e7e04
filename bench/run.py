"""Benchmark of pkcswb: run one workload, or compare two sets of result files.

    python3 bench/run.py --workload enroll|sign|verify [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --compare SET_A SET_B

A timed run (``--trace 0``) sets up three times, then makes whole passes
over the workload's fixed operation list until ``--seconds`` have passed,
checks every output, and prints the end-to-end metrics.  A traced run
(``--trace 1``) sets up once and makes a fixed number of passes with every
layer wrapped, and prints the per-layer metrics.  Every time is corrected
for machine speed (see bench/speed.py); the raw figures are printed beside.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Each run also writes
its full result to ``bench/results/`` (or ``--out``).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, ROOT)

from bench import compare, speed  # noqa: E402
from bench.oracles import CheckFailed  # noqa: E402
from bench.tracer import Tracer  # noqa: E402
from bench.workloads import SHAPES, WORKLOADS, shape_name  # noqa: E402

SETUP_REPS = 3
BLOCK_NS = 500_000_000  # a correction block closes after this much timed work
DEFAULT_SEED = 1

UNITS = {"ops_s": "1/s", "latency_p50_ms": "ms", "latency_tail_ms": "ms",
         "setup_s": "s", "peak_rss_mib": "MiB"}
PER_LAYER = (
    ("asn1.encode_calls", "calls/op"), ("asn1.decode_calls", "calls/op"),
    ("asn1.decode_octets", "octets/op"), ("asn1.self_ms", "ms/op"),
    ("primitives.cbc_octets", "octets/op"), ("primitives.hmac_calls", "calls/op"),
    ("primitives.self_ms", "ms/op"),
    ("pkcs5.pbkdf2_calls", "calls/op"), ("pkcs5.pbkdf2_iterations", "iter/op"),
    ("pkcs5.self_ms", "ms/op"),
    ("rsa.keygen_calls", "calls/op"), ("rsa.keygen_ms", "ms/op"),
    ("rsa.private_ops", "ops/op"), ("rsa.private_ms", "ms/op"),
    *((f"rsa.private_ms.{shape_name(*s)}", "ms/op") for s in SHAPES),
    ("rsa.public_ops", "ops/op"), ("rsa.public_ms", "ms/op"),
    ("pkcs1.calls", "calls/op"), ("pkcs1.self_ms", "ms/op"),
    ("keystore.calls", "calls/op"), ("keystore.self_ms", "ms/op"),
    ("csr.calls", "calls/op"), ("csr.self_ms", "ms/op"),
    ("pfx.calls", "calls/op"), ("pfx.self_ms", "ms/op"),
    ("token.calls", "calls/op"), ("token.self_ms", "ms/op"),
    ("cli.self_ms", "ms/op"),
    ("cms.calls", "calls/op"), ("cms.self_ms", "ms/op"),
)


def fresh_import():
    """Import pkcswb from this checkout's src/, discarding any earlier import."""
    for name in [m for m in sys.modules if m == "pkcswb" or m.startswith("pkcswb.")]:
        del sys.modules[name]
    pk = importlib.import_module("pkcswb")
    importlib.import_module("pkcswb.cli")  # not imported by the package itself
    if not os.path.abspath(pk.__file__).startswith(os.path.join(SRC, "")):
        raise ImportError(f"pkcswb was imported from {pk.__file__}, not from {SRC}")
    return pk


def percentile(values, pct: float) -> float:
    """Linear interpolation between closest ranks."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


class Run:
    """Counts operations; keeps failed operations apart from wrong outputs."""

    def __init__(self, workload, clock, tracer: Tracer | None = None):
        self.workload = workload
        self.clock = clock
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []  # operations that failed
        self.wrong: list[str] = []     # outputs that are wrong

    def op(self, i: int, first_pass: bool) -> int:
        """Run operation i and check it; returns its raw time in ns (timed code only)."""
        self.attempted += 1
        start = self.clock()
        try:
            output = self.workload.run(i)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failures.append(f"operation {i} raised {type(exc).__name__}: {exc}")
            return self.clock() - start
        elapsed = self.clock() - start
        self._untraced(self._check, i, output, first_pass)
        return elapsed

    def _check(self, i: int, output, first_pass: bool) -> None:
        try:
            if not self.workload.check(i, output, first_pass):
                self.failures.append(f"operation {i} failed")
        except CheckFailed as exc:
            self.wrong.append(f"operation {i}: {exc}")

    def prepare(self) -> None:
        try:
            self.workload.prepare()
        except CheckFailed as exc:
            self.wrong.append(f"inputs: {exc}")

    def final(self) -> None:
        self._untraced(self._final)

    def _final(self) -> None:
        try:
            self.workload.final_checks()
        except CheckFailed as exc:
            self.wrong.append(f"final checks: {exc}")

    def _untraced(self, fn, *args) -> None:
        """Checks call pkcswb too; keep them out of the per-layer figures."""
        if self.tracer is None:
            fn(*args)
            return
        self.tracer.off = True
        try:
            fn(*args)
        finally:
            self.tracer.off = False


def timed_setup(workload, seed: int):
    """Set up SETUP_REPS times; returns (corrected, raw) times in seconds."""
    corrected, raw = [], []
    with speed.Meter() as meter:
        for _ in range(SETUP_REPS):
            start = meter.clock()
            workload.build(fresh_import(), seed)
            elapsed = (meter.clock() - start) / 1e9
            raw.append(elapsed)
            corrected.append(elapsed * meter.close())
    return corrected, raw


def timed_run(workload, seed: int, seconds: float) -> dict:
    setup, setup_raw = timed_setup(workload, seed)
    n = len(workload.items)
    raw, corrected, block, block_ns, passes = [], [], [], 0, 0
    with speed.Meter() as meter:
        run = Run(workload, meter.clock)
        run.prepare()
        gc.collect()

        def close_block():
            f = meter.close()
            raw.extend(block)
            corrected.extend(ns * f for ns in block)
            block.clear()

        began = time.perf_counter()
        while True:
            for i in range(n):
                elapsed = run.op(i, passes == 0)
                block.append(elapsed)
                block_ns += elapsed
                if block_ns >= BLOCK_NS:
                    close_block()
                    block_ns = 0
            passes += 1
            if (time.perf_counter() - began >= seconds
                    and len(raw) + len(block) >= workload.min_ops):
                break
        if block:
            close_block()
        wall = time.perf_counter() - began
        run.final()
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def figures(ns_values, setup_values):
        ms = [v / 1e6 for v in ns_values]
        return {
            "ops_s": len(ms) / (sum(ms) / 1e3),
            "latency_p50_ms": percentile(ms, 50),
            "latency_tail_ms": percentile(ms, workload.tail_pct),
            "setup_s": statistics.median(setup_values),
            "peak_rss_mib": rss,
        }

    return {
        "run": run, "metrics": figures(corrected, setup), "raw": figures(raw, setup_raw),
        "detail": {"passes": passes, "ops_per_pass": n, "wall_s": wall,
                   "tail_pct": workload.tail_pct, "setup_s": setup, "setup_raw_s": setup_raw,
                   "first_pass_ms": [ns / 1e6 for ns in corrected[:n]],
                   "percentiles_ms": {pct: percentile(corrected, pct) / 1e6
                                      for pct in (75, 90, 95, 97.5, 99, 99.5)},
                   "kernel_s": meter.kernel_times},
    }


def traced_run(workload, seed: int, spans_path: str | None) -> dict:
    pk = fresh_import()
    workload.build(pk, seed)
    n = len(workload.items)
    ops = n * workload.trace_passes
    op_ms, block_ns = 0.0, 0
    with speed.Meter() as meter:
        tracer = Tracer(clock=meter.clock)
        run = Run(workload, meter.clock, tracer)
        run.prepare()
        tracer.install(pk)
        gc.collect()
        for p in range(workload.trace_passes):
            for i in range(n):
                block_ns += run.op(i, p == 0)
                if block_ns >= BLOCK_NS or (p, i) == (workload.trace_passes - 1, n - 1):
                    f = meter.close()
                    tracer.flush(f)
                    op_ms += block_ns * f / 1e6
                    block_ns = 0
        run.final()
    metrics = tracer.per_op([name for name, _ in PER_LAYER], ops)
    if spans_path:
        with open(spans_path, "w") as out:
            for span in tracer.spans:
                out.write(json.dumps(span) + "\n")
    return {
        "run": run, "metrics": metrics, "raw": {},
        "detail": {"passes": workload.trace_passes, "ops_per_pass": n,
                   "traced_ms_per_op": op_ms / ops, "spans": tracer.span_count,
                   "spans_written": len(tracer.spans), "wrapped": tracer.wrapped,
                   "kernel_s": meter.kernel_times},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=os.path.join(HERE, "results"),
                        help="directory for the result file (and the spans of a traced run)")
    parser.add_argument("--compare", nargs=2, metavar=("SET_A", "SET_B"),
                        help="two directories (or files) of result files")
    args = parser.parse_args(argv)
    if args.compare:
        return compare.main(args.compare[0], args.compare[1], ROOT)
    if args.workload is None:
        parser.error("--workload is required")
    if not os.path.isfile(os.path.join(SRC, "pkcswb", "__init__.py")):
        print(f"error: no pkcswb sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    workload = WORKLOADS[args.workload]()
    os.makedirs(args.out, exist_ok=True)
    stem = os.path.join(args.out, f"{args.workload}-seed{args.seed}-trace{args.trace}"
                                  f"-{time.time_ns()}")
    if args.trace:
        result = traced_run(workload, args.seed, stem + ".spans.jsonl")
        units = dict(PER_LAYER)
    else:
        result = timed_run(workload, args.seed, args.seconds)
        units = UNITS
    run = result["run"]
    for problem in run.wrong + run.failures[:3]:
        print(f"check: {problem}", file=sys.stderr)
    line = {
        "correct": not run.wrong,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, **line, "raw": result["raw"], "detail": result["detail"],
              "wrong": run.wrong, "failures": run.failures[:20], "python": sys.version.split()[0],
              "nominal_kernel_s": speed.NOMINAL_KERNEL_S}
    with open(stem + ".json", "w") as out:
        json.dump(record, out, indent=1)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={run.attempted} failed={len(run.failures)} detail="
          + json.dumps({k: v for k, v in result["detail"].items()
                        if not isinstance(v, (list, dict))}))
    for name, value in result["metrics"].items():
        raw = result["raw"].get(name)
        beside = f"   raw {raw:.6g}" if raw is not None else ""
        print(f"  {name:<28} {value:>14.6g} {units[name]:<9}{beside}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
