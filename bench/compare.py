"""Compare two sets of result files, workload by workload and metric by metric.

For each side it prints the median and quartiles of the corrected figures,
the spread (interquartile distance over the median) of the corrected and of
the raw figures, and whether side B's median stays within the metric's bound
of side A's, in the metric's worse direction.  Bounds and directions come
from BENCHMARK.json; per-layer metrics have no bound and are only listed.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
from collections import defaultdict


def load(path: str) -> list[dict]:
    files = sorted(glob.glob(os.path.join(path, "*.json"))) if os.path.isdir(path) else [path]
    return [json.load(open(name)) for name in files]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("nan")


def group(records: list[dict]) -> dict:
    """(workload, trace) -> metric -> {"value": [...], "raw": [...]}."""
    out: dict = defaultdict(lambda: defaultdict(lambda: {"value": [], "raw": []}))
    for rec in records:
        for name, metric in rec["metrics"].items():
            slot = out[rec["workload"], rec["trace"]][name]
            slot["value"].append(metric["value"])
            if name in rec.get("raw", {}):
                slot["raw"].append(rec["raw"][name])
    return out


def verdict(a: float, b: float, better: str, bound: float | None) -> str:
    if bound is None or not a:
        return ""
    worse = (a - b) / a if better == "higher" else (b - a) / a
    return "ok" if worse <= bound else f"WORSE by {worse:.1%} > {bound:.0%}"


def main(path_a: str, path_b: str, root: str) -> int:
    spec = json.load(open(os.path.join(root, "BENCHMARK.json")))
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    a, b = group(load(path_a)), group(load(path_b))
    failures = 0
    print(f"A = {path_a}\nB = {path_b}")
    print(f"{'workload/metric':<38}{'side':>5}{'n':>4}{'q1':>12}{'median':>12}{'q3':>12}"
          f"{'spread':>9}{'raw spread':>11}  verdict")
    for key in sorted(set(a) | set(b)):
        workload, trace = key
        for name in metrics:
            rows = [(label, side[key][name]) for label, side in (("A", a), ("B", b))
                    if key in side and name in side[key]]
            if not rows:
                continue
            medians = {}
            for label, slot in rows:
                q1, q2, q3 = quartiles(slot["value"])
                medians[label] = q2
                raw = f"{spread(slot['raw']):>10.1%}" if slot["raw"] else f"{'':>10}"
                line = (f"{workload + '/' + name:<38}{label:>5}{len(slot['value']):>4}"
                        f"{q1:>12.5g}{q2:>12.5g}{q3:>12.5g}{spread(slot['value']):>9.1%} {raw}")
                if label == "B" and "A" in medians:
                    result = verdict(medians["A"], q2, metrics[name]["better"],
                                     metrics[name].get("bound"))
                    failures += result.startswith("WORSE")
                    line += f"  {result}"
                print(line)
    print(f"{failures} metric(s) worse than their bound")
    return 1 if failures else 0
