"""Launcher of every program process the benchmark starts.

    python3 bench/launch.py cli ARGS...            # as `qplumb ARGS...`
    python3 bench/launch.py bigtree JOB.json       # the big-tree worker
    python3 bench/launch.py probe R[,R...]         # one cold set-up
    python3 bench/launch.py --trace PREFIX cli|bigtree ...

`cli` calls ``qplumb.cli.main(ARGS)``, as the `qplumb` console script does.
`bigtree` runs bigtree_worker.py on a job file and prints its results.
`probe` imports qplumb, creates a RootContext for each r and does its first
field operation (a product), then prints the CLOCK_MONOTONIC time at which
that finished, so the parent can time the set-up from before it started this
process; it also prints the type of a field coefficient, the rational backend.
With --trace, the wrappers of spans.py are installed first and the spans are
written to PREFIX.json and PREFIX.bin at the end.

Every mode ends by writing the process's peak resident set (VmHWM) as the last
line of standard error.  The kernel's ru_maxrss cannot serve: it includes the
parent's peak, which a spawned child inherits.  Needs qplumb on PYTHONPATH.
"""

from __future__ import annotations

import json
import sys
import time


def _probe(rs) -> dict:
    import qplumb

    for r in rs:
        ctx = qplumb.make_context(r)
        x = qplumb.zeta_pow(ctx, 1) * qplumb.zeta_pow(ctx, 1)
    ready = time.monotonic()
    coeff = type(x.coeffs[0])
    return {"ready": ready, "backend": f"{coeff.__module__}.{coeff.__qualname__}"}


def main(argv) -> int:
    tracer = None
    if argv[0] == "--trace":
        import spans

        prefix, argv = argv[1], argv[2:]
        tracer = spans.Tracer()
        spans.install(tracer)
    mode, rest = argv[0], argv[1:]
    code = 0
    if mode == "cli":
        import qplumb.cli

        code = qplumb.cli.main(rest)
    elif mode == "bigtree":
        import bigtree_worker

        json.dump(bigtree_worker.run(rest[0]), sys.stdout)
    else:
        print(json.dumps(_probe([int(r) for r in rest[0].split(",")])))
    if tracer is not None:
        tracer.dump(prefix)
    sys.stdout.flush()
    with open("/proc/self/status", encoding="ascii") as fh:
        peak = next(line for line in fh if line.startswith("VmHWM:"))
    sys.stderr.write("\n" + peak)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
