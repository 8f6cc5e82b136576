"""Library side of the big-tree workload, run by `launch.py bigtree JOB.json`
in a program process of its own.

For each graph of the job that run.py wrote, `run` times parse_graph on the
graph's JSON text followed by the four evaluators (the two exact RT routes and
the two numeric re-normalized routes), and returns each graph's wall time and
results for run.py to check.  The qplumb functions are looked up on the
package at call time, so the tracing wrappers see every call.
"""

from __future__ import annotations

import json
import time

import mpmath

import qplumb


def _coeffs(x) -> list:
    return [[int(c.numerator), int(c.denominator)] for c in x.coeffs]


def _complex(z) -> list:
    return [mpmath.nstr(z.real, 20), mpmath.nstr(z.imag, 20)]


def run(job_path: str) -> list:
    with open(job_path, encoding="utf-8") as fh:
        jobs = json.load(fh)
    results = []
    for job in jobs:
        r, text, rt_colors = job["r"], job["text"], job["rt_colors"]
        alphas = {v: complex(re, im) for v, (re, im) in job["rn_colors"].items()}
        t0 = time.perf_counter()
        graph = qplumb.parse_graph(text)
        ctx = qplumb.make_context(r)
        rt = qplumb.rt_plumbed(ctx, graph, rt_colors)
        rt_rec = qplumb.rt_plumbed_recursive(ctx, graph, rt_colors)
        nctx = qplumb.NumericContext(r)
        rn = qplumb.rn_plumbed_numeric(nctx, graph, alphas)
        rn_rec = qplumb.rn_plumbed_recursive(nctx, graph, alphas)
        wall = time.perf_counter() - t0
        results.append(
            {
                "name": job["name"],
                "wall_s": wall,
                "rt": _coeffs(rt),
                "rt_recursive": _coeffs(rt_rec),
                "rn": _complex(rn),
                "rn_recursive": _complex(rn_rec),
            }
        )
    return results
