"""Benchmark of pkcswb: three workloads timed end to end, one traced run per layer.

Run ``python3 bench/run.py --help``; see bench/README.md.
"""
