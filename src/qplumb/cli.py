"""Command-line front end.

Subcommands::

    compute-rt       exact RT value of a graph at given S-module colors
    compute-ado      ADO / re-normalized value (numeric, or exact with
                     --regularized at signed integer colors)
    check-theorem    verify the RT = signed-limit-sum identity, exactly
    sweep            check-theorem over a seeded (r, framings, colors) grid
    check-relations  verify the defining relations of the module actions

Output is a single JSON document (or CSV with --format csv), byte-identical
across runs for a fixed invocation and seed.  It is streamed to stdout or the
--out file once every record has been computed.  check-theorem and sweep take
--stats, which then writes one JSON line of run statistics to stderr.  Exit
codes: 0 success, 1 usage error, 2 input/validation error, 3 at least one
check failed.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import os
import random
import re
import sys
import time

from .cyclotomic import CycNumber, make_context, to_complex
from .errors import CapacityError, GraphFormatError, PoleError
from .invariants import (
    _normal_form_value,
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


class _SharedValue(dict):
    """A JSON object that several records hold; :func:`_write_json` renders
    it once per indentation and repeats the text."""

    __slots__ = ()


def _cyc_json(x: CycNumber, bits: int, approx53: complex | None = None) -> dict:
    """JSON form of an exact value; ``approx53``, when given, is its 53-bit
    embedding, reused at 53 bits instead of embedding again."""
    if approx53 is None or bits > 53:
        approx53 = to_complex(x, bits=max(53, bits))
    return {
        "conductor": x.ctx.conductor,
        "coeffs": [list(pair) for pair in x.pairs()],
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
    """Every coloring in {1..r-1}^V, in product order, when there are at most
    ``cap`` of them, whatever the vertex count; else 50 seeded samples."""
    if (r - 1) ** len(graph.vertices) <= cap:
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
    graph = load_graph(args.graph)
    if args.base:
        graph = graph.with_base(args.base)
    if getattr(args, "framings", None):
        graph = _apply_framings(graph, _parse_int_list(args.framings, graph, "framing"))
    return graph


def _value_block(blocks: dict, x: CycNumber, bits: int, approx53: complex) -> _SharedValue:
    """The JSON form of ``x``, one shared object per (value, bits, approx)
    in ``blocks``, a dict that lives for one run.  r leads the key, so values
    of different r are never compared, which ``CycNumber ==`` refuses."""
    key = (x.ctx.r, x, bits, _fmt_complex(approx53))
    block = blocks.get(key)
    if block is None:
        block = blocks[key] = _SharedValue(_cyc_json(x, bits, approx53))
    return block


def _theorem_record(ctx, graph, graph_name, x, bits, blocks, negate=False):
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
        "lhs": _value_block(blocks, rep.lhs, bits, rep.lhs_numeric),
        "rhs": _value_block(blocks, rhs, bits, rhs_numeric),
        "lhs_numeric": _fmt_complex(rep.lhs_numeric),
        "rhs_numeric": _fmt_complex((-1 if negate else 1) * rep.rhs_numeric),
    }


# -- subcommand runners; each returns (records, any_check_failed) -------------


def _run_compute_rt(args):
    graph = _load_graph_arg(args)
    ctx = make_context(args.r)
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
    if args.regularized:
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
    records, blocks = [], {}
    for r in _parse_r_spec(args.r):
        ctx = make_context(r)
        if args.colors and args.colors != "all":
            grid = [_parse_int_list(args.colors, graph, "color")]
        else:
            grid = _color_grid(graph, r, rng)
        for x in grid:
            records.append(
                _theorem_record(
                    ctx, graph, args.graph, x, args.precision, blocks, args.negate_prefactor
                )
            )
    failed = any(not rec["equal"] for rec in records)
    return records, failed


def _run_sweep(args):
    graph = _load_graph_arg(args)
    rng = random.Random(args.seed)
    lo, hi = args.framing_min, args.framing_max
    if lo > hi:
        raise ValueError("framing range is empty")
    records, blocks = [], {}
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
                rec = _theorem_record(ctx, g, args.graph, x, args.precision, blocks)
                rec["framings"] = framings
                records.append(rec)
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


def _emit(args, records, out) -> None:
    """Write the records to the text file ``out`` as JSON or CSV."""
    if args.format == "json":
        # compute-rt and compute-ado take no --seed and report seed 0
        doc = {"command": args.command, "seed": getattr(args, "seed", 0), "records": records}
        _write_json(doc, out.write)
    elif records:
        fieldnames = _csv_fields(records)
        writer = csv.DictWriter(out, fieldnames=fieldnames, lineterminator="\n")
        writer.writeheader()
        for rec in records:
            writer.writerow({k: _csv_cell(rec.get(k)) for k in fieldnames})


_FLUSH_PIECES = 4096


def _write_json(doc, write) -> None:
    """Write ``json.dumps(doc, indent=2, sort_keys=True) + "\n"`` through
    ``write``, in chunks of about ``_FLUSH_PIECES`` pieces, so the whole text
    is never held at once.

    Strings, ints and non-empty dicts and lists are laid out here; any other
    value (bool, None, an empty container) is one line from json.dumps.  A
    :class:`_SharedValue` is laid out once per indentation; later occurrences
    at that indentation repeat its text.
    """
    pieces = []
    encode = json.encoder.encode_basestring_ascii
    shared = {}  # (id, newline) -> text; the document keeps every id alive
    holding = 0  # shared values being laid out, whose pieces must stay in place

    def walk(o, newline):
        nonlocal holding
        kind = type(o)
        if kind is str:
            pieces.append(encode(o))
        elif kind is int:
            pieces.append(int.__repr__(o))
        elif kind is _SharedValue and o:
            key = (id(o), newline)
            text = shared.get(key)
            if text is None:
                start = len(pieces)
                holding += 1
                walk(dict(o), newline)
                holding -= 1
                text = shared[key] = "".join(pieces[start:])
                del pieces[start:]
            pieces.append(text)
        elif kind is dict and o:
            inner = newline + "  "
            sep = "{" + inner
            for key in sorted(o):
                pieces.append(sep)
                pieces.append(encode(key))
                pieces.append(": ")
                walk(o[key], inner)
                sep = "," + inner
            pieces.append(newline + "}")
        elif kind is list and o:
            inner = newline + "  "
            sep = "[" + inner
            for item in o:
                pieces.append(sep)
                walk(item, inner)
                sep = "," + inner
            pieces.append(newline + "]")
        else:
            pieces.append(json.dumps(o))
        if len(pieces) >= _FLUSH_PIECES and not holding:
            write("".join(pieces))
            pieces.clear()

    walk(doc, "\n")
    pieces.append("\n")
    write("".join(pieces))


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


def _count(text: str) -> int:
    """A sample count: an integer >= 0; anything else is a usage error."""
    try:
        n = int(text)
    except ValueError:
        n = -1
    if n < 0:
        raise argparse.ArgumentTypeError(f"need an integer >= 0, got {text!r}")
    return n


def build_parser() -> _Parser:
    parser = _Parser(prog="qplumb", description="Quantum invariants of plumbed links")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, r_help, graph=True, seed=True):
        p = sub.add_parser(name, help=help)
        p.add_argument("--r", required=True, help=r_help)
        if graph:
            p.add_argument("--graph", required=True, help="path to a graph JSON file")
            p.add_argument("--base", help="override the base vertex")
        # a string default goes through type=int, so a bad value is a usage error
        p.add_argument(
            "--precision",
            type=int,
            default=os.environ.get("QP_PRECISION_BITS", "53"),
            help="working precision bits (env QP_PRECISION_BITS)",
        )
        p.add_argument("--format", choices=("json", "csv"), default="json")
        if seed:
            p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", help="write output here instead of stdout")
        return p

    def colors(p, help, required=True):
        p.add_argument("--colors", required=required, help=help)
        p.add_argument("--framings", help="comma list overriding the file's framings")

    one_r = "order parameter (>= 2)"
    r_spec = one_r + ", list or range like 2..4"

    p_rt = command("compute-rt", "exact RT invariant", one_r, seed=False)
    colors(p_rt, "comma list, one integer in 0..r-1 per vertex")

    p_ado = command("compute-ado", "ADO / re-normalized invariant", one_r, seed=False)
    colors(p_ado, "comma list, one color per vertex")
    p_ado.add_argument(
        "--regularized",
        action="store_true",
        help="exact regularized value at signed integer colors",
    )

    p_check = command("check-theorem", "verify the main identity exactly", r_spec)
    colors(p_check, "comma list in vertex order, or 'all' (the default)", required=False)
    p_check.add_argument("--negate-prefactor", action="store_true", help=argparse.SUPPRESS)

    p_sweep = command("sweep", "check-theorem over a parameter grid", r_spec)
    p_sweep.add_argument("--framing-min", type=int, default=-2)
    p_sweep.add_argument("--framing-max", type=int, default=2)
    p_sweep.add_argument("--framing-samples", type=_count, default=20)

    for p in (p_check, p_sweep):
        p.add_argument(
            "--stats", action="store_true", help="write run statistics as JSON to stderr"
        )

    p_rel = command("check-relations", "verify module-action relations", r_spec, graph=False)
    p_rel.add_argument("--samples", type=_count, default=50, help="random weights per r")

    return parser


_RUNNERS = {
    "compute-rt": _run_compute_rt,
    "compute-ado": _run_compute_ado,
    "check-theorem": _run_check_theorem,
    "sweep": _run_sweep,
    "check-relations": _run_check_relations,
}


_LIST_FLAGS = ("--colors", "--framings")
_NEGATIVE_NUMBER = re.compile(r"-[0-9.]")


def _join_negative_lists(argv: list) -> list:
    """Join a list flag to a following value that starts with a negative
    number (``--framings -1,0`` -> ``--framings=-1,0``): argparse would read
    the value as an option and leave the flag without its argument."""
    out = []
    for tok in argv:
        if out and out[-1] in _LIST_FLAGS and _NEGATIVE_NUMBER.match(tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = parser.parse_args(_join_negative_lists(argv))
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
        stats = getattr(args, "stats", False)
        memos = _memo_counts() if stats else None
        t0 = time.perf_counter()
        records, failed = _RUNNERS[args.command](args)
        t1 = time.perf_counter()
        # every record is computed before the first byte is written
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                _emit(args, records, fh)
        else:
            _emit(args, records, sys.stdout)
        if stats:
            sys.stdout.flush()
            _write_stats(args, records, t1 - t0, time.perf_counter() - t1, memos)
    except (GraphFormatError, CapacityError, PoleError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def _memo_counts() -> dict:
    """``cache_info()`` so far of the normal-form memo and of ``to_complex``."""
    return {
        "normal_form_memo": _normal_form_value.cache_info(),
        "to_complex": to_complex.cache_info(),
    }


def _write_stats(args, records, compute_s, emit_s, memos_before) -> None:
    """One JSON line on stderr: the rational backend, the precision, the wall
    seconds of computing and of emitting the records, and the hits and misses
    in this run of the normal-form memo, the shared JSON values and
    ``to_complex``."""
    coeff = type(make_context(2).one.coeffs[0])
    blocks = 2 * len(records)
    distinct = len({id(rec[side]) for rec in records for side in ("lhs", "rhs")})
    stats = {
        "backend": f"{coeff.__module__}.{coeff.__qualname__}",
        "precision_bits": args.precision,
        "compute_s": round(compute_s, 6),
        "emit_s": round(emit_s, 6),
        "shared_values": {"hits": blocks - distinct, "misses": distinct},
    }
    for name, info in _memo_counts().items():
        before = memos_before[name]
        stats[name] = {"hits": info.hits - before.hits, "misses": info.misses - before.misses}
    print(json.dumps(stats, sort_keys=True), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
