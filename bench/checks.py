"""Correctness checks of the program's outputs against the benchmark's own
inputs and reference values.  Each check returns a list of problems; an
empty list means the output is correct.
"""

from __future__ import annotations

import copy
import itertools

import mpmath

from refeval import REF_BITS, embed, identity_lhs, is_canonical, rel_err, rn_value, rt_value, totient

TOL = 1e-9


def _field_problems(value, r: int, what: str) -> list:
    coeffs = value["coeffs"]
    if value.get("conductor") != 4 * r:
        return [f"{what}: conductor {value.get('conductor')} is not 4r = {4 * r}"]
    if len(coeffs) != totient(4 * r):
        return [f"{what}: {len(coeffs)} coefficients, the field has degree {totient(4 * r)}"]
    if not all(is_canonical(c) for c in coeffs):
        return [f"{what}: a coefficient is not a reduced fraction"]
    return []


def check_record(rec: dict, call) -> list:
    """One check-theorem record: lhs and rhs equal as coefficient lists, and the
    lhs equal to the reference RT value at colors r-1-x."""
    g = call.graph
    try:
        r, x = rec["r"], rec["x"]
        where = f"{call.path} r={r} x={x}"
        if rec["graph"] != call.path or rec["base"] != g.base:
            return [f"{where}: record names graph {rec['graph']!r} base {rec['base']!r}"]
        if set(x) != set(g.framing) or not all(
            isinstance(xv, int) and 1 <= xv <= r - 1 for xv in x.values()
        ):
            return [f"{where}: colors are not one integer in 1..r-1 per vertex"]
        problems = _field_problems(rec["lhs"], r, f"{where} lhs")
        problems += _field_problems(rec["rhs"], r, f"{where} rhs")
        if problems:
            return problems
        lhs = rec["lhs"]["coeffs"]
        if lhs != rec["rhs"]["coeffs"]:
            problems.append(f"{where}: lhs and rhs coefficient lists differ")
        if rec["equal"] is not True:
            problems.append(f"{where}: record reports equal={rec['equal']!r}")
        err = rel_err(embed(lhs, r), identity_lhs(r, g.framing, g.edges, x), floor=1.0)
        if not err <= TOL:
            problems.append(f"{where}: lhs is off the reference RT value by {err:.3g}")
        return problems
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        return [f"{call.path}: malformed record ({type(exc).__name__}: {exc})"]


def check_cli_output(doc: dict, call) -> list:
    """A whole check-theorem document: the records asked for, each correct."""
    records = doc.get("records") if isinstance(doc, dict) else None
    if not isinstance(records, list) or not all(isinstance(rec, dict) for rec in records):
        return [f"{call.path}: output has no record list"]
    problems = []
    if len(records) != call.instances:
        problems.append(f"{call.path}: {len(records)} records, {call.instances} requested")
    verts = tuple(call.graph.framing)
    for r in call.rs:
        xs = [
            tuple(rec["x"].get(v) for v in verts)
            for rec in records
            if rec.get("r") == r and isinstance(rec.get("x"), dict)
        ]
        if len(xs) != call.expected_per_r(r):
            problems.append(f"{call.path}: {len(xs)} records at r={r}, {call.expected_per_r(r)} requested")
        elif call.mode == "explicit" and xs != [tuple(call.colors[v] for v in verts)]:
            problems.append(f"{call.path}: r={r} record has other colors than requested")
        elif call.mode == "all" and sorted(xs) != list(itertools.product(range(1, r), repeat=len(verts))):
            problems.append(f"{call.path}: r={r} records do not cover every color")
    for rec in records:
        problems += check_record(rec, call)
    return problems


def _raise_largest(coeffs) -> None:
    """Add M to the largest coefficient n/d, M the next integer above |n/d|.
    [n + M d, d] stays a reduced fraction, and the value moves by at least the
    largest coefficient, so the reference tolerance cannot absorb the change
    however large the value is."""
    k = max(range(len(coeffs)), key=lambda i: abs(coeffs[i][0]) / coeffs[i][1])
    n, d = coeffs[k]
    coeffs[k][0] = n + (abs(n) // d + 1) * d


def record_is_rejected(doc: dict, call) -> bool:
    """Negative control: the same coefficient of a correct record's lhs and rhs
    raised alike.  The two sides still agree, so only the comparison with the
    reference RT value can reject it, and the rejection must come from there."""
    rec = copy.deepcopy(doc["records"][0])
    for side in ("lhs", "rhs"):
        _raise_largest(rec[side]["coeffs"])
    return any("reference" in p for p in check_record(rec, call))


def _mpc(pair):
    with mpmath.workprec(REF_BITS):
        return mpmath.mpc(mpmath.mpf(pair[0]), mpmath.mpf(pair[1]))


def check_lib_result(res: dict, lib) -> list:
    """One big-tree graph: the two RT routes equal exactly, nonzero and equal to
    the reference; the two numeric routes and the reference agree."""
    g, r = lib.graph, lib.r
    where = f"{lib.name} r={r}"
    try:
        rt = res["rt"]
        problems = _field_problems({"conductor": 4 * r, "coeffs": rt}, r, f"{where} rt_plumbed")
        if problems:
            return problems
        if rt != res["rt_recursive"]:
            problems.append(f"{where}: rt_plumbed and rt_plumbed_recursive differ")
        if not any(n for n, _ in rt):
            problems.append(f"{where}: rt_plumbed is zero")
        ref = rt_value(r, g.framing, g.edges, lib.rt_colors)
        err = rel_err(embed(rt, r), ref, floor=1.0)
        if not err <= TOL:
            problems.append(f"{where}: rt_plumbed is off the reference by {err:.3g}")
        ref_rn = rn_value(r, g.framing, g.edges, {v: complex(*a) for v, a in lib.rn_colors.items()})
        rn, rn_rec = _mpc(res["rn"]), _mpc(res["rn_recursive"])
        for name, val in (("rn_plumbed_numeric", rn), ("rn_plumbed_recursive", rn_rec)):
            err = rel_err(val, ref_rn)
            if not err <= TOL:
                problems.append(f"{where}: {name} is off the reference by {err:.3g}")
        err = rel_err(rn_rec, rn)
        if not err <= TOL:
            problems.append(f"{where}: the two numeric routes differ by {err:.3g}")
        return problems
    except (KeyError, TypeError, ValueError) as exc:
        return [f"{where}: malformed result ({type(exc).__name__}: {exc})"]


def lib_result_is_rejected(res: dict, lib) -> bool:
    """Negative control: the same coefficient of both exact RT routes raised
    alike.  The routes still agree, so only the comparison with the reference
    can reject it, and the rejection must come from there."""
    res = copy.deepcopy(res)
    for key in ("rt", "rt_recursive"):
        _raise_largest(res[key])
    return any("rt_plumbed is off the reference" in p for p in check_lib_result(res, lib))
