"""Regenerate the reference figures of README.md.

    python3 bench/figures.py [--seeds 1..10] [--seconds S]

Runs bench/run.py on every workload once per seed with tracing off, then once
with tracing on and once more with tracing off on the last seed, one run at a
time.  Prints Markdown tables: per end-to-end metric the median and quartiles
over the seeds with their spread (quartile distance over median), then the
tracing overhead and the traced figures.  The header names the Python
version, the CPU count and the rational backend, read from the type of a
field coefficient, so that figures from different backends are never
compared.  S defaults to the run length in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import inputs
import run

WORKLOADS = ("tree-check", "large-r", "big-tree")


def _run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=run.ROOT, capture_output=True, text=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode or not result["correct"]:
        sys.exit(f"{workload} seed {seed}: run failed\n{proc.stderr}")
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if not trace:
        print(workload, seed, json.dumps(values), file=sys.stderr, flush=True)
    return values


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1..10")
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args()
    lo, _, hi = args.seeds.partition("..")
    seeds = list(range(int(lo), int(hi or lo) + 1))

    _, backend, _ = run.setup_probe("tree-check")
    print(f"Python {platform.python_version()}, {os.cpu_count()} CPUs, backend `{backend}`, "
          f"seeds {seeds[0]}..{seeds[-1]}, {args.seconds:g} s per run.\n")
    # The machine's speed drifts, so each traced run sits between two untraced
    # runs of the last seed, and the overhead compares it with their mean.
    untraced, traced, untraced_round = {}, {}, {}
    for wl in WORKLOADS:
        untraced[wl] = [_run(wl, s, args.seconds, 0) for s in seeds]
        traced[wl] = _run(wl, seeds[-1], args.seconds, 1)
        after = _run(wl, seeds[-1], args.seconds, 0)
        rate = statistics.mean([untraced[wl][-1]["instances_per_s"], after["instances_per_s"]])
        untraced_round[wl] = sum(_instances(wl, seeds[-1])) / rate

    print("| workload | metric | median | Q1 | Q3 | spread |")
    print("| --- | --- | --- | --- | --- | --- |")
    for wl, runs in untraced.items():
        for metric in runs[0]:
            vals = [r[metric] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            print(f"| {wl} | {metric} | {med:.4g} | {q1:.4g} | {q3:.4g} | {(q3 - q1) / med:.3f} |")

    print("\n| workload | traced round wall s | untraced round wall s | overhead |")
    print("| --- | --- | --- | --- |")
    for wl, per_round in untraced_round.items():
        wall = traced[wl]["trace.wall_s"]
        print(f"| {wl} | {wall:.3f} | {per_round:.3f} | {wall / per_round - 1:+.1%} |")

    print("\n| metric | " + " | ".join(WORKLOADS) + " |")
    print("| --- |" + " --- |" * len(WORKLOADS))
    for metric in traced[WORKLOADS[0]]:
        print(f"| {metric} | " + " | ".join(f"{traced[wl][metric]:.4g}" for wl in WORKLOADS) + " |")


def _instances(workload: str, seed: int) -> list:
    if workload == "big-tree":
        return [1] * len(inputs.BIG_TREES)
    make = inputs.tree_check if workload == "tree-check" else inputs.large_r
    return [call.instances for call in make(seed, "d")]


if __name__ == "__main__":
    main()
