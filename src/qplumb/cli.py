"""Command-line front end.

Subcommands::

    compute-rt       exact RT value of a graph at given S-module colors
    compute-ado      ADO / re-normalized value (numeric, or exact with
                     --regularized at signed integer colors)
    check-theorem    verify the RT = signed-limit-sum identity, exactly
    sweep            check-theorem over a seeded (r, framings, colors) grid
    check-relations  verify the defining relations of the module actions

Output is a single JSON document (or CSV with --format csv), byte-identical
across runs for a fixed invocation and seed.  Exit codes: 0 success,
1 usage error, 2 input/validation error, 3 at least one check failed.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import os
import random
import sys

from .cyclotomic import CycNumber, make_context, to_complex
from .errors import CapacityError, GraphFormatError, PoleError
from .invariants import (
    rn_plumbed_numeric,
    rn_regularized,
    rt_plumbed,
    theorem_check,
)
from .numeric import NumericContext
from .plumbing import PlumbedGraph, load_graph
from .quantumrep import check_relations, simple_module, verma_module

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_CHECK_FAILED = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we want exit 1
        raise UsageError(message)


def _fmt_complex(z) -> str:
    z = complex(z)
    return f"{z.real:.12g}{z.imag:+.12g}i"


def _cyc_json(x: CycNumber, bits: int, approx53: complex | None = None) -> dict:
    """JSON form of an exact value; ``approx53``, when given, is its 53-bit
    embedding, reused at 53 bits instead of embedding again."""
    if approx53 is None or bits > 53:
        approx53 = to_complex(x, bits=max(53, bits))
    return {
        "conductor": x.ctx.conductor,
        "coeffs": [[int(c.numerator), int(c.denominator)] for c in x.coeffs],
        "approx": _fmt_complex(approx53),
    }


def _parse_r_spec(spec: str) -> list[int]:
    """'3' | '2,3,5' | '2..6' -> list of ints."""
    out = []
    for part in spec.split(","):
        part = part.strip()
        if ".." in part:
            lo, hi = part.split("..")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    if not out or any(r < 2 for r in out):
        raise ValueError(f"invalid r specification {spec!r}; need integers >= 2")
    return out


def _parse_int_list(spec: str, graph: PlumbedGraph, what: str) -> dict:
    parts = [p.strip() for p in spec.split(",")]
    if len(parts) != len(graph.vertices):
        raise ValueError(
            f"{what} list has {len(parts)} entries for {len(graph.vertices)} vertices"
        )
    return {v: int(p) for v, p in zip(graph.vertices, parts)}


def _parse_complex_list(spec: str, graph: PlumbedGraph) -> dict:
    parts = [p.strip() for p in spec.split(",")]
    if len(parts) != len(graph.vertices):
        raise ValueError(
            f"color list has {len(parts)} entries for {len(graph.vertices)} vertices"
        )
    return {v: complex(p) for v, p in zip(graph.vertices, parts)}


def _color_grid(graph: PlumbedGraph, r: int, rng: random.Random, cap: int = 10000):
    """All colors in {1..r-1}^V when that stays small, else seeded samples."""
    total = (r - 1) ** len(graph.vertices)
    if len(graph.vertices) <= 4 and total <= cap:
        for combo in itertools.product(range(1, r), repeat=len(graph.vertices)):
            yield dict(zip(graph.vertices, combo))
    else:
        for _ in range(50):
            yield {v: rng.randint(1, r - 1) for v in graph.vertices}


def _apply_framings(graph: PlumbedGraph, framings: dict) -> PlumbedGraph:
    return PlumbedGraph.build(
        {v: framings.get(v, graph.framing[v]) for v in graph.vertices},
        list(graph.edges),
        graph.base,
    )


def _load_graph_arg(args) -> PlumbedGraph:
    if not args.graph:
        raise ValueError("--graph is required for this command")
    graph = load_graph(args.graph)
    if args.base:
        graph = graph.with_base(args.base)
    if getattr(args, "framings", None):
        graph = _apply_framings(graph, _parse_int_list(args.framings, graph, "framing"))
    return graph


def _theorem_record(ctx, graph, graph_name, x, bits, negate):
    rep = theorem_check(ctx, graph, x)
    rhs, rhs_numeric = rep.rhs, rep.rhs_numeric
    if negate:
        # the embedding is odd; + 0j turns the -0.0 of a negated zero part
        # into the 0.0 that embedding -rhs gives
        rhs, rhs_numeric = -rhs, -rhs_numeric + 0j
    equal = rep.lhs == rhs
    return {
        "graph": graph_name,
        "r": ctx.r,
        "base": graph.base,
        "x": {v: x[v] for v in graph.vertices},
        "equal": equal,
        "lhs": _cyc_json(rep.lhs, bits, rep.lhs_numeric),
        "rhs": _cyc_json(rhs, bits, rhs_numeric),
        "lhs_numeric": _fmt_complex(rep.lhs_numeric),
        "rhs_numeric": _fmt_complex((-1 if negate else 1) * rep.rhs_numeric),
    }


# -- subcommand runners; each returns (records, any_check_failed) -------------


def _run_compute_rt(args):
    graph = _load_graph_arg(args)
    ctx = make_context(args.r)
    if not args.colors:
        raise ValueError("--colors is required: one integer in 0..r-1 per vertex")
    colors = _parse_int_list(args.colors, graph, "color")
    value = rt_plumbed(ctx, graph, colors)
    record = {
        "graph": args.graph,
        "r": args.r,
        "colors": colors,
        "invariant": "rt",
        "mode": "exact",
        "value": _cyc_json(value, args.precision),
    }
    return [record], False


def _run_compute_ado(args):
    graph = _load_graph_arg(args)
    if not args.colors:
        raise ValueError("--colors is required: one color per vertex")
    if args.regularized or args.mode == "exact":
        ctx = make_context(args.r)
        colors = _parse_int_list(args.colors, graph, "color")
        value = rn_regularized(ctx, graph, colors)
        record = {
            "graph": args.graph,
            "r": args.r,
            "colors": colors,
            "invariant": "ado",
            "mode": "exact-regularized",
            "value": _cyc_json(value, args.precision),
        }
    else:
        nctx = NumericContext(args.r, precision_bits=args.precision)
        colors = _parse_complex_list(args.colors, graph)
        value = rn_plumbed_numeric(nctx, graph, colors)
        record = {
            "graph": args.graph,
            "r": args.r,
            "colors": {v: _fmt_complex(c) for v, c in colors.items()},
            "invariant": "ado",
            "mode": "numeric",
            "precision_bits": args.precision,
            "value": _fmt_complex(value),
        }
    return [record], False


def _run_check_theorem(args):
    graph = _load_graph_arg(args)
    rng = random.Random(args.seed)
    records = []
    for r in _parse_r_spec(args.r):
        ctx = make_context(r)
        if args.colors and args.colors != "all":
            grid = [_parse_int_list(args.colors, graph, "color")]
        else:
            grid = _color_grid(graph, r, rng)
        for x in grid:
            records.append(
                _theorem_record(ctx, graph, args.graph, x, args.precision, args.negate_prefactor)
            )
    failed = any(not rec["equal"] for rec in records)
    return records, failed


def _run_sweep(args):
    graph = _load_graph_arg(args)
    rng = random.Random(args.seed)
    lo, hi = args.framing_min, args.framing_max
    if lo > hi:
        raise ValueError("framing range is empty")
    records = []
    n_verts = len(graph.vertices)
    for r in _parse_r_spec(args.r):
        ctx = make_context(r)
        span = hi - lo + 1
        if span**n_verts <= 64:
            framing_grid = [
                dict(zip(graph.vertices, combo))
                for combo in itertools.product(range(lo, hi + 1), repeat=n_verts)
            ]
        else:
            framing_grid = [
                {v: rng.randint(lo, hi) for v in graph.vertices}
                for _ in range(args.framing_samples)
            ]
        for framings in framing_grid:
            g = _apply_framings(graph, framings)
            for x in _color_grid(g, r, rng):
                records.append(
                    _theorem_record(ctx, g, args.graph, x, args.precision, args.negate_prefactor)
                )
    failed = any(not rec["equal"] for rec in records)
    return records, failed


def _run_check_relations(args):
    records = []
    failed = False
    for r in _parse_r_spec(args.r):
        ctx = make_context(r)
        nctx = NumericContext(r, precision_bits=args.precision)
        rng = random.Random(args.seed + 97 * r)
        for n in range(r):
            report = check_relations(simple_module(ctx, n))
            records.append(
                {
                    "r": r,
                    "kind": "simple",
                    "param": n,
                    "ok": report.all_ok,
                    "failures": report.failures,
                    "max_deviation": f"{report.max_deviation:.3e}",
                }
            )
            failed = failed or not report.all_ok
        for _ in range(args.samples):
            alpha = complex(rng.uniform(-4, 4), rng.uniform(-2, 2))
            report = check_relations(verma_module(nctx, alpha), tol=1e-10)
            records.append(
                {
                    "r": r,
                    "kind": "verma",
                    "param": _fmt_complex(alpha),
                    "ok": report.all_ok,
                    "failures": report.failures,
                    "max_deviation": f"{report.max_deviation:.3e}",
                }
            )
            failed = failed or not report.all_ok
    return records, failed


# -- output ------------------------------------------------------------------


def _emit(args, records) -> str:
    if args.format == "json":
        doc = {"command": args.command, "seed": getattr(args, "seed", None), "records": records}
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    buf = io.StringIO()
    if records:
        fieldnames = _csv_fields(records)
        writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
        writer.writeheader()
        for rec in records:
            writer.writerow({k: _csv_cell(rec.get(k)) for k in fieldnames})
    return buf.getvalue()


def _csv_fields(records):
    fields = []
    for rec in records:
        for k in rec:
            if k not in fields:
                fields.append(k)
    return fields


def _csv_cell(value):
    if isinstance(value, dict):
        if "coeffs" in value:  # exact number: show the readable embedding
            return value["approx"]
        return ";".join(f"{k}={v}" for k, v in value.items())
    if isinstance(value, list):
        return ";".join(str(v) for v in value)
    return value


def build_parser() -> _Parser:
    parser = _Parser(prog="qplumb", description="Quantum invariants of plumbed links")
    sub = parser.add_subparsers(dest="command", required=True)

    default_bits = int(os.environ.get("QP_PRECISION_BITS", "53"))

    def common(p, r_spec=False):
        p.add_argument("--r", required=True, help="order parameter (>= 2)" + (", list or range like 2..4" if r_spec else ""))
        p.add_argument("--graph", help="path to a graph JSON file")
        p.add_argument("--colors", help="comma list in vertex order, or 'all'")
        p.add_argument("--framings", help="comma list overriding the file's framings")
        p.add_argument("--mode", choices=("exact", "numeric"), default=None)
        p.add_argument("--precision", type=int, default=default_bits, help="working precision bits (env QP_PRECISION_BITS)")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--base", help="override the base vertex")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", help="write output here instead of stdout")

    p_rt = sub.add_parser("compute-rt", help="exact RT invariant")
    common(p_rt)

    p_ado = sub.add_parser("compute-ado", help="ADO / re-normalized invariant")
    common(p_ado)
    p_ado.add_argument(
        "--regularized",
        action="store_true",
        help="exact regularized value at signed integer colors",
    )

    p_check = sub.add_parser("check-theorem", help="verify the main identity exactly")
    common(p_check, r_spec=True)
    p_check.add_argument("--negate-prefactor", action="store_true", help=argparse.SUPPRESS)

    p_sweep = sub.add_parser("sweep", help="check-theorem over a parameter grid")
    common(p_sweep, r_spec=True)
    p_sweep.add_argument("--framing-min", type=int, default=-2)
    p_sweep.add_argument("--framing-max", type=int, default=2)
    p_sweep.add_argument("--framing-samples", type=int, default=20)
    p_sweep.add_argument("--negate-prefactor", action="store_true", help=argparse.SUPPRESS)

    p_rel = sub.add_parser("check-relations", help="verify module-action relations")
    common(p_rel, r_spec=True)
    p_rel.add_argument("--samples", type=int, default=50, help="random weights per r")

    return parser


_RUNNERS = {
    "compute-rt": _run_compute_rt,
    "compute-ado": _run_compute_ado,
    "check-theorem": _run_check_theorem,
    "sweep": _run_sweep,
    "check-relations": _run_check_relations,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        if args.command in ("compute-rt", "compute-ado"):
            rs = _parse_r_spec(args.r)
            if len(rs) != 1:
                raise ValueError(f"{args.command} takes a single r, got {args.r!r}")
            args.r = rs[0]
        if args.precision < 53:
            raise ValueError("--precision must be at least 53")
        records, failed = _RUNNERS[args.command](args)
        text = _emit(args, records)
    except (GraphFormatError, CapacityError, PoleError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT
    else:
        sys.stdout.write(text)
    return EXIT_CHECK_FAILED if failed else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
