"""Explicit matrix models of the highest-weight modules S_n and V_alpha.

S_n (n = 0..r-1) is the (n+1)-dimensional irreducible module of the small
quantum sl2 at q = exp(pi*i/r), realized with exact cyclotomic entries.
V_alpha is the r-dimensional weight module of the unrolled quantum group,
realized numerically for an arbitrary complex weight alpha.  Operators act on
column vectors; basis order is s_0..s_n and v_0..v_{r-1}.

``check_relations`` evaluates every defining relation as a literal matrix
identity and reports each one separately, so a corrupted action is pinned to
the relation it violates.
"""

from __future__ import annotations

import mpmath

from ._record import Record
from .cyclotomic import RootContext, qint, zeta_pow
from .numeric import NumericContext, q_pow, qint_c


# -- tiny dense-matrix helpers (entries: CycNumber or mpmath.mpc) -----------


def mat_zero(n, zero):
    return [[zero for _ in range(n)] for _ in range(n)]


def mat_eye(n, zero, one):
    m = mat_zero(n, zero)
    for i in range(n):
        m[i][i] = one
    return m


def mat_mul(a, b, zero):
    n = len(a)
    out = mat_zero(n, zero)
    for i in range(n):
        for k in range(n):
            aik = a[i][k]
            if _is_zero(aik):
                continue
            row = b[k]
            for j in range(n):
                if not _is_zero(row[j]):
                    out[i][j] = out[i][j] + aik * row[j]
    return out


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(c, a):
    return [[c * x for x in row] for row in a]


def mat_pow(a, k, zero, one):
    out = mat_eye(len(a), zero, one)
    for _ in range(k):
        out = mat_mul(out, a, zero)
    return out


def _is_zero(x):
    if hasattr(x, "is_zero"):
        return x.is_zero
    return x == 0


def _max_abs(m):
    return max((abs(complex(x)) for row in m for x in row), default=0.0)


class ModuleAction(Record):
    """Matrices of the generators acting on one highest-weight module.

    ``kind`` is "simple" or "verma", ``param`` is n for simple and alpha for
    verma, and ``ctx`` is a RootContext (simple) or a NumericContext (verma).
    """

    _fields = ("kind", "param", "dim", "E", "F", "K", "Kinv", "H", "ctx")

    def __init__(
        self,
        kind: str,
        param: object,
        dim: int,
        E: list,
        F: list,
        K: list,
        Kinv: list,
        H: list | None = None,
        ctx: object = None,
    ):
        self.kind, self.param, self.dim = kind, param, dim
        self.E, self.F, self.K, self.Kinv, self.H, self.ctx = E, F, K, Kinv, H, ctx

    @property
    def is_exact(self) -> bool:
        return self.kind == "simple"


def simple_module(ctx: RootContext, n: int) -> ModuleAction:
    """The (n+1)-dimensional module S_n with exact cyclotomic matrices.

    Actions on the basis s_0..s_n:
        E s_i = [i][n-i+1] s_{i-1},   F s_i = s_{i+1},   K s_i = q^{n-2i} s_i.
    """
    if not 0 <= n <= ctx.r - 1:
        raise ValueError(f"simple module index must lie in 0..{ctx.r - 1}, got {n}")
    dim = n + 1
    zero, one = ctx.zero, ctx.one
    E = mat_zero(dim, zero)
    F = mat_zero(dim, zero)
    K = mat_zero(dim, zero)
    Kinv = mat_zero(dim, zero)
    for i in range(dim):
        if i >= 1:
            E[i - 1][i] = qint(ctx, i) * qint(ctx, n - i + 1)
        if i + 1 < dim:
            F[i + 1][i] = one
        K[i][i] = zeta_pow(ctx, 2 * (n - 2 * i))
        Kinv[i][i] = zeta_pow(ctx, -2 * (n - 2 * i))
    return ModuleAction("simple", n, dim, E, F, K, Kinv, H=None, ctx=ctx)


def verma_module(nctx: NumericContext, alpha) -> ModuleAction:
    """The r-dimensional weight module V_alpha with complex matrices.

    Actions on the basis v_0..v_{r-1}:
        E v_i = [i][i-alpha] v_{i-1},  F v_i = v_{i+1},
        H v_i = (alpha + r - 1 - 2i) v_i,  K = q^H.
    """
    r = nctx.r
    with nctx.workprec():
        a = mpmath.mpmathify(alpha)
        zero = mpmath.mpc(0)
        one = mpmath.mpc(1)
        E = mat_zero(r, zero)
        F = mat_zero(r, zero)
        K = mat_zero(r, zero)
        Kinv = mat_zero(r, zero)
        H = mat_zero(r, zero)
        for i in range(r):
            if i >= 1:
                E[i - 1][i] = qint_c(nctx, i) * qint_c(nctx, i - a)
            if i + 1 < r:
                F[i + 1][i] = one
            w = a + r - 1 - 2 * i
            H[i][i] = mpmath.mpc(w)
            K[i][i] = q_pow(nctx, w)
            Kinv[i][i] = q_pow(nctx, -w)
    return ModuleAction("verma", alpha, r, E, F, K, Kinv, H=H, ctx=nctx)


class RelationCheck(Record):
    _fields = ("name", "ok", "deviation")

    def __init__(self, name: str, ok: bool, deviation: float):
        # deviation: max |entry| of the defect matrix (0.0 for exact passes)
        self.name, self.ok, self.deviation = name, ok, deviation


class RelationReport(Record):
    _fields = ("kind", "param", "checks")

    def __init__(self, kind: str, param: object, checks: list[RelationCheck] | None = None):
        self.kind, self.param = kind, param
        self.checks = [] if checks is None else checks

    @property
    def all_ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def failures(self) -> list[str]:
        return [c.name for c in self.checks if not c.ok]

    @property
    def max_deviation(self) -> float:
        return max((c.deviation for c in self.checks), default=0.0)


def check_relations(m: ModuleAction, tol: float | None = None) -> RelationReport:
    """Evaluate every defining relation of the acting quantum group.

    Exact modules must satisfy each identity on the nose; numeric modules
    pass when the defect matrix is below ``tol`` (default: the context's
    tolerance) in max-entry absolute value.
    """
    report = RelationReport(m.kind, m.param)
    if m.is_exact:
        ctx: RootContext = m.ctx
        zero, one = ctx.zero, ctx.one
        q2 = zeta_pow(ctx, 4)
        q2inv = zeta_pow(ctx, -4)
        brace1_inv = (zeta_pow(ctx, 2) - zeta_pow(ctx, -2)).inv()
        r = ctx.r
    else:
        nctx: NumericContext = m.ctx
        zero, one = mpmath.mpc(0), mpmath.mpc(1)
        q2 = q_pow(nctx, 2)
        q2inv = q_pow(nctx, -2)
        brace1_inv = 1 / (q_pow(nctx, 1) - q_pow(nctx, -1))
        r = nctx.r
        if tol is None:
            tol = nctx.tolerance

    eye = mat_eye(m.dim, zero, one)

    def record(name, defect):
        if m.is_exact:
            ok = all(_is_zero(x) for row in defect for x in row)
            report.checks.append(RelationCheck(name, ok, 0.0 if ok else _max_abs(defect)))
        else:
            dev = _max_abs(defect)
            report.checks.append(RelationCheck(name, dev <= tol, dev))

    mm = lambda a, b: mat_mul(a, b, zero)

    record("K*Kinv = 1", mat_sub(mm(m.K, m.Kinv), eye))
    record("K*E*Kinv = q^2*E", mat_sub(mm(mm(m.K, m.E), m.Kinv), mat_scale(q2, m.E)))
    record("K*F*Kinv = q^-2*F", mat_sub(mm(mm(m.K, m.F), m.Kinv), mat_scale(q2inv, m.F)))
    commutator = mat_sub(mm(m.E, m.F), mm(m.F, m.E))
    cartan = mat_scale(brace1_inv, mat_sub(m.K, m.Kinv))
    record("[E,F] = (K-Kinv)/(q-1/q)", mat_sub(commutator, cartan))
    record("E^r = 0", mat_pow(m.E, r, zero, one))
    record("F^r = 0", mat_pow(m.F, r, zero, one))
    if m.is_exact:
        record("K^2r = 1", mat_sub(mat_pow(m.K, 2 * r, zero, one), eye))
    else:
        record("[H,K] = 0", mat_sub(mm(m.H, m.K), mm(m.K, m.H)))
        record("[H,E] = 2E", mat_sub(mat_sub(mm(m.H, m.E), mm(m.E, m.H)), mat_scale(2, m.E)))
        record("[H,F] = -2F", mat_sub(mat_sub(mm(m.H, m.F), mm(m.F, m.H)), mat_scale(-2, m.F)))
        # weight-module condition: K acts as q^H
        qh = mat_zero(m.dim, zero)
        for i in range(m.dim):
            qh[i][i] = q_pow(m.ctx, m.H[i][i])
        record("K = q^H", mat_sub(m.K, qh))
    return report


def qdim_simple(ctx: RootContext, n: int):
    """Quantum dimension of S_n: (-1)^n [n+1] (vanishes exactly at n = r-1)."""
    if not 0 <= n <= ctx.r - 1:
        raise ValueError(f"simple module index must lie in 0..{ctx.r - 1}, got {n}")
    val = qint(ctx, n + 1)
    return -val if n % 2 else val


def pivotal_trace_simple(ctx: RootContext, n: int):
    """Trace of K^(r-1) on S_n; an independent route to the quantum dimension."""
    total = ctx.zero
    for i in range(n + 1):
        total = total + zeta_pow(ctx, 2 * (ctx.r - 1) * (n - 2 * i))
    return total
