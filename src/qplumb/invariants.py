"""Link-invariant evaluators for plumbed trees and the main identity checker.

Two lanes compute the same family of links:

* the exact lane evaluates the Reshetikhin-Turaev invariant of a plumbed
  link whose components carry the simple modules S_n, as an element of
  Q(zeta_{4r});
* the numeric lane evaluates the re-normalized invariant (equivalently the
  ADO invariant) at arbitrary complex colors, where the modified quantum
  dimension replaces the vanishing quantum dimension.

Every evaluator exists in closed form (a product over vertices and edges)
and as a recursive construction that grows the tree one Hopf-link connected
sum at a time; the two routes are independent and are cross-checked in the
test suite.

``theorem_check`` verifies, exactly in the cyclotomic field, that the RT
value at colors r-1-x equals a normalized signed sum over all edge-sign
assignments of regularized limits of the re-normalized invariant.  Each
term's weight is the product of the edge signs times, for every vertex of
degree >= 2, the accumulated base-to-vertex sign raised to (degree - 1);
the extra factor compensates the sign that the brace denominators pick up
at sign-flipped limit points and makes every edge's contribution local to
that edge, hence independent of the base vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .cyclotomic import CycNumber, RootContext, brace, brace_inv, to_complex, zeta_pow
from .errors import PoleError
from .numeric import NumericContext, brace_c, is_pole, mod_dim, q_pow
from .plumbing import ColorVector, PlumbedGraph, apply_signs, enumerate_signs
from .quantumrep import qdim_simple


def _color_map(colors) -> dict:
    if isinstance(colors, ColorVector):
        return dict(colors.values)
    return dict(colors)


def _is_int(n) -> bool:
    return isinstance(n, int) and not isinstance(n, bool)


def _check_rt_color(ctx: RootContext, n: int) -> int:
    if not _is_int(n) or not 0 <= n <= ctx.r - 1:
        raise ValueError(f"RT colors must be integers in 0..{ctx.r - 1}, got {n}")
    return n


# -- elementary links --------------------------------------------------------


def rt_hopf(ctx: RootContext, m: int, n: int) -> CycNumber:
    """RT invariant of the Hopf link colored (S_m, S_n):
    (-1)^(m+n) {(m+1)(n+1)} / {1}."""
    _check_rt_color(ctx, m)
    _check_rt_color(ctx, n)
    val = brace(ctx, (m + 1) * (n + 1)) * brace_inv(ctx, 1)
    return -val if (m + n) % 2 else val


def rn_hopf(ctx, a, b):
    """Re-normalized invariant of the zero-framed Hopf link: (-1)^(r-1) r q^(a*b).

    Exact (integer colors) when given a RootContext, complex when given a
    NumericContext; the formula is entire in the colors.
    """
    if isinstance(ctx, RootContext):
        if not isinstance(a, int) or not isinstance(b, int):
            raise ValueError("exact Hopf values need integer colors")
        sign = -1 if (ctx.r - 1) % 2 else 1
        return ctx.scalar(sign * ctx.r) * zeta_pow(ctx, 2 * a * b)
    with ctx.workprec():
        sign = -1 if (ctx.r - 1) % 2 else 1
        return +(sign * ctx.r * q_pow(ctx, mpmath.mpmathify(a) * mpmath.mpmathify(b)))


def rt_twist(ctx: RootContext, n: int, f: int) -> CycNumber:
    """Framing contribution of an S_n-colored component: the +1-framing
    scalar (-1)^n q^((n^2+2n)/2) raised to the framing f."""
    _check_rt_color(ctx, n)
    val = zeta_pow(ctx, f * (n * n + 2 * n))
    return -val if (n * f) % 2 else val


def rn_twist(ctx, color, f: int):
    """Framing contribution of a generic-color component: q^(f(a^2-(r-1)^2)/2).

    Exact for integer colors with a RootContext (the half-power lives in
    Q(zeta)), complex with a NumericContext.
    """
    if isinstance(ctx, RootContext):
        if not isinstance(color, int):
            raise ValueError("exact twists need integer colors")
        return zeta_pow(ctx, f * (color * color - (ctx.r - 1) ** 2))
    with ctx.workprec():
        a = mpmath.mpmathify(color)
        return +q_pow(ctx, f * (a * a - (ctx.r - 1) ** 2) / 2)


# -- exact closed forms in normal form -----------------------------------------


class _BraceMonomial:
    """The value +-c * zeta^K * prod_a {a}^(e_a), kept as integers and one rational.

    Factors are added with integer bookkeeping only; :meth:`value` then does
    one ``zeta_pow``, one power per distinct brace and one rational scaling.
    Brace arguments are normalized with {a + r} = -{a} and {r - a} = {a}, so
    at most r/2 + 1 distinct braces remain.
    """

    __slots__ = ("ctx", "negative", "zeta_exp", "scalar", "exps")

    def __init__(self, ctx: RootContext):
        self.ctx = ctx
        self.negative = False
        self.zeta_exp = 0
        self.scalar = 1
        self.exps = {}

    def flip(self, odd) -> None:
        """Multiply by -1 when ``odd`` is odd."""
        if odd % 2:
            self.negative = not self.negative

    def mul_brace(self, a: int, e: int) -> None:
        """Multiply by {a}^e."""
        r = self.ctx.r
        a %= 2 * r
        if a >= r:
            a -= r
            self.flip(e)
        a = min(a, r - a)
        self.exps[a] = self.exps.get(a, 0) + e

    def value(self) -> CycNumber:
        ctx = self.ctx
        if self.exps.get(0, 0) > 0:  # {0} = 0; callers raise on negative powers first
            return ctx.zero
        val = zeta_pow(ctx, self.zeta_exp)
        for a, e in self.exps.items():
            if e > 0:
                val = val * brace(ctx, a) ** e
            elif e < 0:
                val = val * brace_inv(ctx, a) ** -e
        return val.scale(-self.scalar if self.negative else self.scalar)


def rt_plumbed(ctx: RootContext, graph: PlumbedGraph, colors) -> CycNumber:
    """Closed-form RT invariant: the product of all framing twists, one Hopf
    value per edge, and qdim(S_n)^(1-degree) per vertex.

    With qdim(S_n) = (-1)^n {n+1}/{1} and the Hopf value
    (-1)^(m+n) {(m+1)(n+1)}/{1}, the product is +-zeta^K * prod_a {a}^(e_a).
    The vertex and edge loop only sums K, the sign and the exponents e_a;
    the value then costs O(r) field operations however large the tree: one
    power per distinct brace (O(log |V|) multiplications each), with every
    inverse brace taken from the table of :func:`brace_inv`.

    A vertex of degree >= 2 whose color has vanishing quantum dimension
    (n = r-1) is a pole of the formula and raises :class:`PoleError`.
    """
    n = _color_map(colors)
    acc = _BraceMonomial(ctx)
    for v in graph.vertices:
        nv = _check_rt_color(ctx, n[v])
        f = graph.framing[v]
        acc.zeta_exp += f * (nv * nv + 2 * nv)
        acc.flip(nv * f)
        d = graph.degree(v)
        if d != 1:
            if d >= 2 and nv == ctx.r - 1:
                raise PoleError(
                    f"vertex {v!r} has degree {d} and color {nv} with zero "
                    "quantum dimension; the invariant has a pole there"
                )
            acc.flip(nv * (1 - d))
            acc.mul_brace(nv + 1, 1 - d)
            acc.mul_brace(1, d - 1)
    for u, w in graph.edges:
        acc.flip(n[u] + n[w])
        acc.mul_brace((n[u] + 1) * (n[w] + 1), 1)
        acc.mul_brace(1, -1)
    return acc.value()


def rt_plumbed_recursive(ctx: RootContext, graph: PlumbedGraph, colors) -> CycNumber:
    """RT invariant built edge-by-edge by Hopf-link connected sums.

    Independent of :func:`rt_plumbed`: starts from the first edge as a bare
    Hopf link and, for each further edge, multiplies in a zero-framed Hopf
    link at the attachment vertex and divides by that vertex's quantum
    dimension.  Must agree with the closed form exactly.
    """
    n = _color_map(colors)
    for v in graph.vertices:
        _check_rt_color(ctx, n[v])
    if not graph.edges:
        v = graph.vertices[0]
        return rt_twist(ctx, n[v], graph.framing[v]) * qdim_simple(ctx, n[v])
    order = graph.edge_order()
    u0, w0 = order[0]
    val = (
        rt_twist(ctx, n[u0], graph.framing[u0])
        * rt_twist(ctx, n[w0], graph.framing[w0])
        * rt_hopf(ctx, n[u0], n[w0])
    )
    for u, w in order[1:]:
        qd = qdim_simple(ctx, n[u])
        if qd.is_zero:
            raise PoleError(
                f"cannot form a connected sum at vertex {u!r}: its color {n[u]} "
                "has zero quantum dimension"
            )
        hop = rt_twist(ctx, n[w], graph.framing[w]) * rt_hopf(ctx, n[u], n[w])
        val = qd.inv() * val * hop
    return val


# -- numeric re-normalized invariant ------------------------------------------


def rn_plumbed_numeric(nctx: NumericContext, graph: PlumbedGraph, colors, strict: bool = False):
    """Closed-form re-normalized invariant at complex colors.

    Vertices of degree != 1 contribute mod_dim(alpha)^(1-degree), so an
    integer color there sits on the singular set and raises
    :class:`PoleError`.  With ``strict=True`` every color must stay off the
    integers, matching the typicality hypothesis of the construction.
    """
    a = _color_map(colors)
    if strict:
        for v in graph.vertices:
            if is_pole(nctx, a[v]):
                raise PoleError(f"strict mode: color at vertex {v!r} is an integer")
    with nctx.workprec():
        sign = -1 if (nctx.r - 1) % 2 else 1
        val = mpmath.mpc(1)
        for v in graph.vertices:
            val = val * rn_twist(nctx, a[v], graph.framing[v])
            d = graph.degree(v)
            if d == 0:
                val = val * mod_dim(nctx, a[v])
            elif d >= 2:
                val = val / mod_dim(nctx, a[v]) ** (d - 1)
        for u, w in graph.edges:
            val = val * sign * nctx.r * q_pow(nctx, mpmath.mpmathify(a[u]) * mpmath.mpmathify(a[w]))
        return +val


def rn_plumbed_recursive(nctx: NumericContext, graph: PlumbedGraph, colors):
    """Re-normalized invariant via connected sums; numeric oracle for the
    closed form."""
    a = _color_map(colors)
    with nctx.workprec():
        if not graph.edges:
            v = graph.vertices[0]
            return +(rn_twist(nctx, a[v], graph.framing[v]) * mod_dim(nctx, a[v]))
        order = graph.edge_order()
        u0, w0 = order[0]
        val = (
            rn_twist(nctx, a[u0], graph.framing[u0])
            * rn_twist(nctx, a[w0], graph.framing[w0])
            * rn_hopf(nctx, a[u0], a[w0])
        )
        for u, w in order[1:]:
            hop = rn_twist(nctx, a[w], graph.framing[w]) * rn_hopf(nctx, a[u], a[w])
            val = val * hop / mod_dim(nctx, a[u])
        return +val


def rn_quotient_numeric(nctx: NumericContext, graph: PlumbedGraph, colors):
    """The re-normalized invariant divided by prod_{deg(v)>=2} {r*alpha_v}^(deg-1).

    This is the quantity whose limit at integer colors the regularized
    evaluator computes in closed form; away from the limit points it is an
    ordinary function of the colors.
    """
    a = _color_map(colors)
    with nctx.workprec():
        val = rn_plumbed_numeric(nctx, graph, a)
        for v in graph.vertices_of_degree_at_least(2):
            val = val / brace_c(nctx, nctx.r * mpmath.mpmathify(a[v])) ** (graph.degree(v) - 1)
        return +val


# -- exact regularized limit ---------------------------------------------------


def rn_regularized(ctx: RootContext, graph: PlumbedGraph, colors) -> CycNumber:
    """Exact value of the regularized limit of the re-normalized invariant at
    signed integer colors x in +-{1..r-1}.

    The brace factors {r*alpha_v} that vanish at the limit point cancel
    against the modified dimensions, leaving the pole-free closed form::

        prod_v q^(f_v (x_v^2-(r-1)^2)/2)
        * prod_edges (-1)^(r-1) r q^(x_u x_v)
        * prod_{deg(v)>=2} ((-1)^(r-1) r {x_v})^(1-deg(v))

    It is evaluated as ((-1)^(r-1) r)^p * zeta^K * prod_a {a}^(e_a): the
    vertex and edge loop only sums p, K and the exponents e_a, and the value
    then costs O(r) field operations: one power per distinct brace
    (O(log |V|) multiplications each), with every inverse brace taken from
    the table of :func:`brace_inv`.

    Colors divisible by r make {x_v} vanish and raise :class:`PoleError`.
    """
    x = _color_map(colors)
    r = ctx.r
    for v, xv in x.items():
        if not _is_int(xv):
            raise ValueError(f"regularized colors must be integers, got {xv!r} at {v!r}")
        if xv % r == 0:
            raise PoleError(
                f"color {xv} at vertex {v!r} is divisible by r = {r}; "
                "the regularized value has a pole there"
            )
        if not 1 <= abs(xv) <= r - 1:
            raise ValueError(
                f"color {xv} at vertex {v!r} lies outside the canonical window "
                f"+-{{1..{r - 1}}}"
            )
    sign_r_exp = len(graph.edges)
    acc = _BraceMonomial(ctx)
    for v in graph.vertices:
        xv = x[v]
        acc.zeta_exp += graph.framing[v] * (xv * xv - (r - 1) ** 2)
        d = graph.degree(v)
        if d >= 2:
            sign_r_exp -= d - 1
            acc.mul_brace(xv, 1 - d)
    for u, w in graph.edges:
        acc.zeta_exp += 2 * x[u] * x[w]
    acc.scalar = Fraction(r) ** sign_r_exp
    acc.flip((r - 1) * sign_r_exp)
    return acc.value()


# -- the main identity ---------------------------------------------------------


def theorem_prefactor(ctx: RootContext, graph: PlumbedGraph, colors) -> CycNumber:
    """The normalization (-1)^(|E| + sum_{deg(v)>=2} (deg(v)-1) x_v) / (r {1})."""
    x = _color_map(colors)
    exponent = len(graph.edges)
    for v in graph.vertices_of_degree_at_least(2):
        exponent += (graph.degree(v) - 1) * x[v]
    acc = _BraceMonomial(ctx)
    acc.scalar = Fraction(1, ctx.r)
    acc.flip(exponent)
    acc.mul_brace(1, -1)
    return acc.value()


def _term_weight(graph: PlumbedGraph, eps) -> int:
    """Sign weight of one term of the identity's right-hand side: the product
    of the edge signs times the accumulated path sign at each vertex of
    degree >= 2 raised to (degree - 1).  The second factor undoes the sign
    the brace denominators acquire at the flipped limit point."""
    w = eps.sign_product
    for v in graph.vertices_of_degree_at_least(2):
        if (graph.degree(v) - 1) % 2:
            w *= eps.path_sign(graph, v)
    return w


def theorem_rhs(ctx: RootContext, graph: PlumbedGraph, colors) -> CycNumber:
    """Right-hand side of the main identity: the prefactor times the weighted
    sum of regularized values over all 2^|E| edge-sign assignments.

    Exact arithmetic makes the sum order-independent; the enumeration order
    is fixed for determinism only.
    """
    x = _color_map(colors)
    for v, xv in x.items():
        if not _is_int(xv) or not 1 <= xv <= ctx.r - 1:
            raise ValueError(
                f"identity colors must be integers in 1..{ctx.r - 1}, got {xv!r} at {v!r}"
            )
    base_colors = ColorVector.exact(x)
    total = ctx.zero
    for eps in enumerate_signs(graph):
        twisted = apply_signs(graph, base_colors, eps)
        term = rn_regularized(ctx, graph, twisted)
        w = _term_weight(graph, eps)
        total = total + (-term if w < 0 else term)
    return theorem_prefactor(ctx, graph, x) * total


@dataclass
class TheoremReport:
    """Outcome of one exact identity check."""

    r: int
    x: dict
    lhs: CycNumber
    rhs: CycNumber
    equal: bool
    lhs_numeric: complex
    rhs_numeric: complex


def theorem_check(ctx: RootContext, graph: PlumbedGraph, colors) -> TheoremReport:
    """Exact check of the main identity on one (graph, r, x) instance.

    LHS: RT invariant at colors n = r-1-x.  RHS: :func:`theorem_rhs`.
    Needs at least one edge (the identity is stated for actual links, whose
    base case is the Hopf link).
    """
    if not graph.edges:
        raise ValueError("the identity check needs a graph with at least one edge")
    x = _color_map(colors)
    rt_colors = {v: ctx.r - 1 - x[v] for v in graph.vertices}
    lhs = rt_plumbed(ctx, graph, rt_colors)
    rhs = theorem_rhs(ctx, graph, x)
    return TheoremReport(
        r=ctx.r,
        x=dict(x),
        lhs=lhs,
        rhs=rhs,
        equal=lhs == rhs,
        lhs_numeric=complex(to_complex(lhs)),
        rhs_numeric=complex(to_complex(rhs)),
    )


# -- naming layer --------------------------------------------------------------


def colored_jones(ctx: RootContext, graph: PlumbedGraph, colors) -> CycNumber:
    """Colored Jones polynomial of the plumbed link evaluated at
    q = exp(pi*i/r); identical to the RT value."""
    return rt_plumbed(ctx, graph, colors)


def ado_invariant(nctx: NumericContext, graph: PlumbedGraph, colors, strict: bool = False):
    """ADO invariant at level r; identical to the re-normalized value."""
    return rn_plumbed_numeric(nctx, graph, colors, strict=strict)


def ado_regularized(ctx: RootContext, graph: PlumbedGraph, colors) -> CycNumber:
    """Exact regularized ADO value at signed integer colors."""
    return rn_regularized(ctx, graph, colors)


@dataclass(frozen=True)
class InvariantResult:
    """Tagged invariant value for serialization at the tool boundary."""

    value: object
    mode: str  # "exact" | "numeric"
    provenance: str  # "closed-form" | "recursive"
    precision_bits: int | None = None

    def __post_init__(self):
        if self.mode not in ("exact", "numeric"):
            raise ValueError(f"mode must be 'exact' or 'numeric', got {self.mode!r}")
        if self.provenance not in ("closed-form", "recursive"):
            raise ValueError(f"unknown provenance {self.provenance!r}")
        if self.mode == "numeric" and self.precision_bits is None:
            raise ValueError("numeric results must record their precision")
