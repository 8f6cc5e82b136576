"""Benchmark of qplumb: checked identity instances per second.

    python3 bench/run.py --workload tree-check|large-r|big-tree \\
        --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the program is imported from ./src.
A run writes the workload's inputs from the seed, then repeats one round of
program calls, as many whole rounds as fill S seconds most nearly, one program
process at a time.  The first round's outputs are checked against the benchmark's own
reference values, and every later round must reproduce them byte for byte.
A program process that exits with another code than 0 makes the run incorrect;
the records of a `check-theorem` that exits 3 (identity failed) are still
checked.

With --trace 0 the program runs as users run it (the `qplumb` CLI in a fresh
process per invocation, or the library in one worker process) and the result
holds the end-to-end metrics.  With --trace 1 the same calls run with the
tracing wrappers of spans.py and the result holds the per-layer metrics.
Every program process is started through launch.py.  The last line of
standard output is the result as one JSON object.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import checks
import inputs
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

LAUNCH = [sys.executable, str(BENCH / "launch.py")]


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("QP_PRECISION_BITS", None)  # the CLI's default precision
    return env


def _spawn(argv) -> tuple:
    """Run one program process through launch.py to its end: its exit code,
    stdout, wall time and peak resident set in kB."""
    t0 = time.perf_counter()
    proc = subprocess.run(LAUNCH + argv, cwd=ROOT, env=program_env(), capture_output=True)
    wall = time.perf_counter() - t0
    err = proc.stderr.decode(errors="replace").rstrip()
    if proc.returncode != 0:
        sys.stderr.write(err[-2000:] + "\n")
    last = err.rsplit("\n", 1)[-1]
    peak_kb = int(last.split()[1]) if last.startswith("VmHWM:") else 0
    return proc.returncode, proc.stdout, wall, peak_kb


def _trace_args(traced: bool, prefix: str) -> list:
    return ["--trace", prefix] if traced else []


class Round:
    """Outputs and wall times of one round, one entry per slot."""

    def __init__(self):
        self.walls, self.outputs, self.failed, self.output_bytes = [], [], 0, 0
        self.codes = []
        self.trace_prefixes = []
        self.peak_kb = 0


class CliWorkload:
    """check-theorem invocations, one fresh CLI process each."""

    def __init__(self, calls, run_dir: Path):
        self.calls = calls
        for call in calls:
            (ROOT / call.path).write_text(call.graph.to_json(), encoding="utf-8")
        self.run_dir = run_dir

    @property
    def instances(self) -> int:
        return sum(call.instances for call in self.calls)

    def expected_counts(self) -> dict:
        return {
            "sign_terms": sum(call.sign_terms for call in self.calls),
            "records": self.instances,
            "graphs": len(self.calls),
        }

    def run_round(self, traced: bool) -> Round:
        rnd = Round()
        for i, call in enumerate(self.calls):
            prefix = str(self.run_dir / f"trace{i}")
            code, out, wall, peak_kb = _spawn(_trace_args(traced, prefix) + ["cli"] + call.argv)
            if traced and code == 0:
                rnd.trace_prefixes.append(prefix)
            rnd.peak_kb = max(rnd.peak_kb, peak_kb)
            rnd.walls.append(wall)
            rnd.output_bytes += len(out)
            rnd.outputs.append(out)
            rnd.codes.append(code)
            rnd.failed += 0 if code == 0 else call.instances
        return rnd

    def check(self, rnd: Round) -> list:
        problems = []
        for call, out in zip(self.calls, rnd.outputs):
            try:
                doc = json.loads(out)
            except json.JSONDecodeError as exc:
                problems.append(f"{call.path}: output is not JSON ({exc})")
                continue
            found = checks.check_cli_output(doc, call)
            problems += found
            if not found and not checks.record_is_rejected(doc, call):
                problems.append(f"{call.path}: negative control was accepted")
        return problems


class LibWorkload:
    """Large graphs through the library, in one worker process per round."""

    def __init__(self, graphs, run_dir: Path):
        self.graphs = graphs
        self.run_dir = run_dir
        self.job = run_dir / "job.json"
        self.job.write_text(json.dumps([g.job() for g in graphs]), encoding="utf-8")

    @property
    def instances(self) -> int:
        return len(self.graphs)

    def expected_counts(self) -> dict:
        return {"sign_terms": 0, "records": 0, "graphs": len(self.graphs)}

    def run_round(self, traced: bool) -> Round:
        rnd = Round()
        prefix = str(self.run_dir / "trace0")
        code, out, _, rnd.peak_kb = _spawn(_trace_args(traced, prefix) + ["bigtree", str(self.job)])
        rnd.codes.append(code)
        if traced and code == 0:
            rnd.trace_prefixes.append(prefix)
        results = json.loads(out) if code == 0 else [None] * len(self.graphs)
        for res in results:
            rnd.walls.append(res.pop("wall_s") if res else 0.0)
            rnd.outputs.append(json.dumps(res, sort_keys=True).encode() if res else None)
        rnd.failed = 0 if code == 0 else len(self.graphs)
        return rnd

    def check(self, rnd: Round) -> list:
        problems = []
        for lib, out in zip(self.graphs, rnd.outputs):
            if out is None:
                problems.append(f"{lib.name}: no result")
                continue
            res = json.loads(out)
            found = checks.check_lib_result(res, lib)
            problems += found
            if not found and not checks.lib_result_is_rejected(res, lib):
                problems.append(f"{lib.name}: negative control was accepted")
        return problems


def make_workload(name: str, seed: int, run_dir: Path):
    rel = run_dir.relative_to(ROOT).as_posix()
    if name == "tree-check":
        return CliWorkload(inputs.tree_check(seed, rel), run_dir)
    if name == "large-r":
        return CliWorkload(inputs.large_r(seed, rel), run_dir)
    return LibWorkload(inputs.big_tree(seed), run_dir)


SETUP_PROBES = 15
SETUP_TRIM = 2


def setup_probe(workload: str) -> tuple:
    """One cold set-up: fresh interpreter, import qplumb, the workload's
    contexts.  Its time, the rational backend and its peak resident set."""
    t0 = time.monotonic()
    code, out, _, peak_kb = _spawn(["probe", ",".join(map(str, inputs.SETUP_R[workload]))])
    if code != 0:
        raise RuntimeError("the set-up probe failed")
    report = json.loads(out)
    return report["ready"] - t0, report["backend"], peak_kb


def setup_seconds(times) -> float:
    """The mean of the set-up times without the SETUP_TRIM highest and lowest.

    This machine's speed switches between regimes that last seconds, so the
    times of cold set-ups fall into two groups about 40% apart.  A median
    jumps between the groups from run to run; a mean moves only with their
    shares, and the trim drops the odd start that stalls."""
    kept = sorted(times)[SETUP_TRIM:-SETUP_TRIM]
    return sum(kept) / len(kept)


def layer_metrics(stats: dict, rounds) -> dict:
    """Per-layer metrics per round, from span figures summed over the rounds."""
    n_rounds = len(rounds)
    calls = {k: v / n_rounds for k, v in stats["calls"].items()}
    times = {k: v / n_rounds for k, v in stats["time"].items()}
    layer_self = {k: v / n_rounds for k, v in stats["layer_self"].items()}
    yields = {k: v / n_rounds for k, v in stats["yields"].items()}

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for op in ("mul", "inv", "add", "to_complex"):
        m[f"cyclotomic.{op}_calls"] = (calls.get(f"cyclotomic.{op}", 0), "count")
        m[f"cyclotomic.{op}_s"] = (times.get(f"cyclotomic.{op}", 0.0), "s")
    m["cyclotomic.inv_distinct_ratio"] = (
        ratio(stats["inv_distinct"] / n_rounds, calls.get("cyclotomic.inv", 0)),
        "distinct/call",
    )
    m["plumbing.parse_graph_s"] = (times.get("plumbing.parse_graph", 0.0), "s")
    m["plumbing.build_calls"] = (calls.get("plumbing.build", 0), "count")
    m["plumbing.build_s"] = (times.get("plumbing.build", 0.0), "s")
    m["plumbing.sign_assignments"] = (yields.get("plumbing.enumerate_signs", 0), "count")
    m["plumbing.enumerate_signs_s"] = (times.get("plumbing.enumerate_signs", 0.0), "s")
    m["plumbing.apply_signs_s"] = (times.get("plumbing.apply_signs", 0.0), "s")
    for fn in ("theorem_check", "rn_regularized"):
        m[f"invariants.{fn}_calls"] = (calls.get(f"invariants.{fn}", 0), "count")
    for fn in (
        "theorem_check", "theorem_rhs", "theorem_prefactor", "rt_plumbed", "rn_regularized",
        "rt_plumbed_recursive", "rn_plumbed_numeric", "rn_plumbed_recursive",
    ):
        m[f"invariants.{fn}_s"] = (times.get(f"invariants.{fn}", 0.0), "s")
    m["invariants.terms_per_check"] = (
        ratio(calls.get("invariants.rn_regularized", 0), calls.get("invariants.theorem_rhs", 0)),
        "terms/check",
    )
    for fn in ("mod_dim", "q_pow"):
        m[f"numeric.{fn}_calls"] = (calls.get(f"numeric.{fn}", 0), "count")
        m[f"numeric.{fn}_s"] = (times.get(f"numeric.{fn}", 0.0), "s")
    m["quantumrep.qdim_simple_calls"] = (calls.get("quantumrep.qdim_simple", 0), "count")
    m["quantumrep.qdim_simple_s"] = (times.get("quantumrep.qdim_simple", 0.0), "s")
    m["cli.main_s"] = (times.get("cli.main", 0.0), "s")
    m["cli.output_bytes"] = (statistics.mean(r.output_bytes for r in rounds), "bytes")
    for layer in ("cyclotomic", "plumbing", "invariants", "numeric", "cli"):
        m[f"{layer}.self_s"] = (layer_self.get(layer, 0.0), "s")
    m["trace.wall_s"] = (statistics.mean(sum(r.walls) for r in rounds), "s")
    return m


def trace_problems(stats_per_round, expected: dict) -> list:
    """Counts from the spans against counts derived from the inputs."""
    problems = []
    first = stats_per_round[0]
    for i, stats in enumerate(stats_per_round[1:], 2):
        if stats["calls"] != first["calls"]:
            problems.append(f"trace: round {i} made other calls than round 1")
    found = {
        "invariants.rn_regularized calls": (first["calls"].get("invariants.rn_regularized", 0), expected["sign_terms"]),
        "plumbing.enumerate_signs items": (first["yields"].get("plumbing.enumerate_signs", 0), expected["sign_terms"]),
        "invariants.theorem_check calls": (first["calls"].get("invariants.theorem_check", 0), expected["records"]),
        "plumbing.parse_graph spans": (first["calls"].get("plumbing.parse_graph", 0), expected["graphs"]),
    }
    for what, (got, want) in found.items():
        if got != want:
            problems.append(f"trace: {what} = {got}, the inputs give {want}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.SETUP_R))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that subprocess.run kills and waits for its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "qplumb" / "cli.py").is_file():
        print(f"error: no qplumb sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    traced = bool(args.trace)
    run_dir = OUT / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    wl = make_workload(args.workload, args.seed, run_dir)

    rounds, stats_per_round, probes = [], [], []
    start = time.perf_counter()
    elapsed = 0.0
    # whole rounds, as many as end nearest to the requested length
    while not rounds or elapsed + elapsed / len(rounds) / 2 < args.seconds:
        rnd = wl.run_round(traced)
        rounds.append(rnd)
        if traced:
            stats_per_round.append(spans.aggregate(rnd.trace_prefixes))
        else:
            # SETUP_PROBES cold set-ups, spread between the rounds of the run
            per_round = max(1, round(SETUP_PROBES * (time.perf_counter() - start) / len(rounds) / args.seconds))
            for _ in range(min(per_round, SETUP_PROBES - len(probes))):
                probes.append(setup_probe(args.workload))
        elapsed = time.perf_counter() - start

    problems = [
        f"round {i}, program process {j + 1}: exit code {code}"
        for i, rnd in enumerate(rounds, 1)
        for j, code in enumerate(rnd.codes)
        if code != 0
    ]
    problems += wl.check(rounds[0])
    digests = [[hashlib.sha256(o).hexdigest() if o else None for o in r.outputs] for r in rounds]
    for i, d in enumerate(digests[1:], 2):
        if d != digests[0]:
            problems.append(f"round {i} output differs from round 1")
    failed = sum(r.failed for r in rounds)
    attempted = wl.instances * len(rounds)

    if traced:
        problems += trace_problems(stats_per_round, wl.expected_counts())
        total = {key: sum((s[key] for s in stats_per_round), Counter())
                 for key in ("calls", "time", "layer_self", "yields")}
        total["inv_distinct"] = sum(s["inv_distinct"] for s in stats_per_round)
        metrics = layer_metrics(total, rounds)
    else:
        wall = sum(sum(r.walls) for r in rounds)
        rate = (attempted - failed) / wall if wall else 0.0
        while len(probes) < SETUP_PROBES:
            probes.append(setup_probe(args.workload))
        backend = probes[0][1]
        peak = max([p[2] for p in probes] + [r.peak_kb for r in rounds]) / 1024
        metrics = {
            "instances_per_s": (rate, "1/s"),
            "setup_s": (setup_seconds([p[0] for p in probes]), "s"),
            "peak_rss_mb": (peak, "MB"),
        }
        print(
            f"python {sys.version.split()[0]}, {os.cpu_count()} CPUs, backend {backend}, "
            f"{len(rounds)} rounds",
            file=sys.stderr,
        )

    for p in problems:
        print(f"FAIL: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
