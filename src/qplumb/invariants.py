"""Link-invariant evaluators for plumbed trees and the main identity checker.

The exact lane evaluates the Reshetikhin-Turaev invariant of a plumbed link
colored by the simple modules S_n, in Q(zeta_{4r}).  The numeric lane
evaluates the re-normalized (equivalently ADO) invariant at arbitrary complex
colors, where the modified quantum dimension replaces the vanishing quantum
dimension.  Every evaluator exists in closed form (a product over vertices
and edges) and as a recursive construction by Hopf-link connected sums; the
two routes are independent and are cross-checked in the test suite.

``theorem_check`` verifies, exactly in the cyclotomic field, that the RT
value at colors r-1-x equals a normalized signed sum over all edge-sign
assignments of regularized limits of the re-normalized invariant, each term
weighted as :func:`_term_weight` describes.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import mpmath

from ._record import Record
from .cyclotomic import CycNumber, RootContext, brace, brace_inv, inv_brace_one, to_complex, zeta_pow
from .errors import PoleError
from .numeric import DyadicPhase, NumericContext, _consts, _q_pow_at, _sin_pi_at, mod_dim, r_sign
from .plumbing import ColorVector, PlumbedGraph, apply_signs, enumerate_signs
from .quantumrep import qdim_simple


def _color_map(colors) -> dict:
    return dict(colors.values if isinstance(colors, ColorVector) else colors)


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
    val = brace(ctx, (m + 1) * (n + 1)) * inv_brace_one(ctx)
    return -val if (m + n) % 2 else val


def rn_hopf(ctx, a, b):
    """Re-normalized invariant of the zero-framed Hopf link: (-1)^(r-1) r q^(a*b).

    Exact (integer colors) when given a RootContext, complex when given a
    NumericContext; the formula is entire in the colors.
    """
    if isinstance(ctx, RootContext):
        if not isinstance(a, int) or not isinstance(b, int):
            raise ValueError("exact Hopf values need integer colors")
        return ctx.scalar(r_sign(ctx.r) * ctx.r) * zeta_pow(ctx, 2 * a * b)
    with ctx.workprec():
        return _rn_hopf_at(_consts(ctx.precision_bits), ctx.r, a, b)


def _rn_hopf_at(c, r: int, a, b):
    return r_sign(r) * r * _q_pow_at(c, r, mpmath.mpmathify(a) * mpmath.mpmathify(b))


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
        return _rn_twist_at(_consts(ctx.precision_bits), ctx.r, color, f)


def _rn_twist_at(c, r: int, color, f: int):
    a = mpmath.mpmathify(color)
    return _q_pow_at(c, r, f * (a * a - (r - 1) ** 2) / 2)


# -- exact closed forms in normal form -----------------------------------------


class _BraceMonomial:
    """The value +-c * zeta^K * prod_a {a}^(e_a), kept as integers and one rational.

    Factors are added with integer bookkeeping only; :meth:`value` then does
    one ``zeta_pow``, one power per distinct brace and one rational scaling,
    or finds the same normal form in :func:`_normal_form_value`'s memo.
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
        return _normal_form_value(
            ctx,
            self.zeta_exp % ctx.conductor,
            -self.scalar if self.negative else self.scalar,
            tuple(sorted(item for item in self.exps.items() if item[1])),
        )


@lru_cache(maxsize=4096)
def _normal_form_value(ctx: RootContext, zeta_exp: int, scalar, exps: tuple) -> CycNumber:
    """c * zeta^K * prod_a {a}^(e_a) for K = ``zeta_exp`` and the sorted nonzero
    (a, e_a) pairs ``exps``.  The last 4096 normal forms are kept, so the
    values that the sign terms and records of one run repeat are computed once."""
    val = zeta_pow(ctx, zeta_exp)
    for a, e in exps:
        if e > 0:
            val = val * brace(ctx, a) ** e
        else:
            val = val * brace_inv(ctx, a) ** -e
    return val.scale(scalar)


def rt_plumbed(ctx: RootContext, graph: PlumbedGraph, colors) -> CycNumber:
    """Closed-form RT invariant: the product of all framing twists, one Hopf
    value per edge, and qdim(S_n)^(1-degree) per vertex.

    With qdim(S_n) = (-1)^n {n+1}/{1} and the Hopf value
    (-1)^(m+n) {(m+1)(n+1)}/{1}, the product is +-zeta^K * prod_a {a}^(e_a).
    The loops only sum K, the sign and the exponents e_a; the value then
    costs O(r) field operations (:class:`_BraceMonomial`) however large the tree.

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
    dimension, inverted once per color.  Must agree with the closed form
    exactly; it reads no inverse from the :func:`brace_inv` table.
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
    qd_invs = {}
    for u, w in order[1:]:
        qd_inv = qd_invs.get(n[u])
        if qd_inv is None:
            qd = qdim_simple(ctx, n[u])
            if qd.is_zero:
                raise PoleError(
                    f"cannot form a connected sum at vertex {u!r}: its color {n[u]} "
                    "has zero quantum dimension"
                )
            qd_inv = qd_invs[n[u]] = qd.inv()
        hop = rt_twist(ctx, n[w], graph.framing[w]) * rt_hopf(ctx, n[u], n[w])
        val = qd_inv * val * hop
    return val


# -- numeric re-normalized invariant ------------------------------------------


def _rn_normal_form(nctx: NumericContext, graph: PlumbedGraph, colors, strict, quotient):
    """:func:`rn_plumbed_numeric`, or with ``quotient`` :func:`rn_quotient_numeric`."""
    a = _color_map(colors)
    r = nctx.r
    with nctx.workprec():
        c = _consts(nctx.precision_bits)
        phase = DyadicPhase()
        parts = phase.parts
        framing_sum = two_i_exp = 0
        num = den = 1
        for v, f in zip(graph.vertices, graph.framings):
            x = mpmath.mpmathify(a[v])
            xp = parts(x)
            if f:
                phase.add_product(xp, xp, f, -1)
                framing_sum += f
            d = graph.degree(v)
            if d == 1 and not strict:
                continue
            sin_pi, pole = _sin_pi_at(c, x)
            if pole and strict:
                raise PoleError(f"strict mode: color at vertex {v!r} is an integer")
            if pole:
                raise PoleError(f"modified dimension has a pole at integer color {a[v]}")
            if d == 0:
                num, den = num * mpmath.sin(c.pi * x / r), den * sin_pi
            elif d >= 2:
                den *= mpmath.sin(c.pi * x / r) ** (d - 1)
                if quotient:
                    two_i_exp += d - 1
                else:
                    num *= sin_pi ** (d - 1)
        phase.add_real(-framing_sum * (r - 1) ** 2, -1)
        for u, w in graph.edges:
            phase.add_product(parts(a[u]), parts(a[w]))
        den *= c.two_i**two_i_exp
        # ((-1)^(r-1) r)^(|E| + sum_{deg(v)!=1} (1-deg(v))); on a tree that is |V|-|E| = 1
        return phase.value(nctx) * (r_sign(r) * r) * num / den


def rn_plumbed_numeric(nctx: NumericContext, graph: PlumbedGraph, colors, strict: bool = False):
    """Closed-form re-normalized invariant at complex colors, in normal form::

        ((-1)^(r-1) r)^|E| * q^Phi * prod_{deg(v)!=1} mod_dim(alpha_v)^(1-deg(v)),
        Phi = sum_v f_v (alpha_v^2 - (r-1)^2)/2 + sum_edges alpha_u alpha_w

    Phi is summed exactly in integers (:class:`~qplumb.numeric.DyadicPhase`)
    and reduced mod 2r before the one exponential, so large framings cost no
    accuracy.  In mod_dim(alpha) = (-1)^(r-1) r sin(pi alpha/r) / sin(pi alpha)
    the 2i of {alpha} and {r*alpha} cancel: each modified dimension takes two
    sines, one of them the pole check's, the (-1)^(r-1) r factors fold into
    one integer, and the product takes one division at the end.

    An integer color at a vertex of degree != 1 is a pole and raises
    :class:`PoleError`.  With ``strict=True`` every color must stay off the
    integers (the typicality hypothesis); leaves then take one sine each.
    """
    return _rn_normal_form(nctx, graph, colors, strict, False)


def rn_plumbed_recursive(nctx: NumericContext, graph: PlumbedGraph, colors):
    """Re-normalized invariant via connected sums; numeric oracle for the
    closed form.  It multiplies the factors one by one, with unreduced
    phases, independently of the closed form's exact phase sum."""
    a = _color_map(colors)
    r, fr = nctx.r, graph.framing
    with nctx.workprec():
        c = _consts(nctx.precision_bits)
        if not graph.edges:
            v = graph.vertices[0]
            return _rn_twist_at(c, r, a[v], fr[v]) * mod_dim(nctx, a[v])
        order = graph.edge_order()
        u0, w0 = order[0]
        val = (
            _rn_twist_at(c, r, a[u0], fr[u0])
            * _rn_twist_at(c, r, a[w0], fr[w0])
            * _rn_hopf_at(c, r, a[u0], a[w0])
        )
        # the order is breadth-first, so the edges leaving one vertex are
        # contiguous and each attachment vertex needs one modified dimension
        last_u, dim_u = object(), None
        for u, w in order[1:]:
            hop = _rn_twist_at(c, r, a[w], fr[w]) * _rn_hopf_at(c, r, a[u], a[w])
            if u != last_u:
                last_u, dim_u = u, mod_dim(nctx, a[u])
            val = val * hop / dim_u
        return val


def rn_quotient_numeric(nctx: NumericContext, graph: PlumbedGraph, colors):
    """The re-normalized invariant divided by prod_{deg(v)>=2} {r*alpha_v}^(deg-1).

    Its limit at integer colors is what :func:`rn_regularized` computes
    exactly.  It is formed without dividing by the {r*alpha} = 2i sin(pi alpha)
    that the product contains: their sines are left out of the product and
    (2i)^(1-deg(v)) is taken instead, so no cancelling bits are relied on.
    """
    return _rn_normal_form(nctx, graph, colors, False, True)


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
    loops only sum p, K and the exponents e_a, and :class:`_BraceMonomial`
    takes O(r) field operations for the value.

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
    the brace denominators acquire at the flipped limit point; it makes every
    edge's contribution local to that edge, hence independent of the base."""
    w = eps.sign_product
    path_signs = eps.path_signs(graph)
    for v in graph.vertices_of_degree_at_least(2):
        if (graph.degree(v) - 1) % 2:
            w *= path_signs[v]
    return w


def _check_identity_colors(ctx: RootContext, colors) -> dict:
    x = _color_map(colors)
    for v, xv in x.items():
        if not _is_int(xv) or not 1 <= xv <= ctx.r - 1:
            raise ValueError(
                f"identity colors must be integers in 1..{ctx.r - 1}, got {xv!r} at {v!r}"
            )
    return x


def theorem_rhs(ctx: RootContext, graph: PlumbedGraph, colors) -> CycNumber:
    """Right-hand side of the main identity: the prefactor times the weighted
    sum of regularized values over all 2^|E| edge-sign assignments.

    Exact arithmetic makes the sum order-independent; the enumeration order
    is fixed for determinism only.
    """
    x = _check_identity_colors(ctx, colors)
    base_colors = ColorVector.exact(x)
    total = ctx.zero
    for eps in enumerate_signs(graph):
        twisted = apply_signs(graph, base_colors, eps)
        term = rn_regularized(ctx, graph, twisted)
        w = _term_weight(graph, eps)
        total = total + (-term if w < 0 else term)
    return theorem_prefactor(ctx, graph, x) * total


class TheoremReport(Record):
    """Outcome of one exact identity check."""

    _fields = ("r", "x", "lhs", "rhs", "equal", "lhs_numeric", "rhs_numeric")

    def __init__(
        self,
        r: int,
        x: dict,
        lhs: CycNumber,
        rhs: CycNumber,
        equal: bool,
        lhs_numeric: complex,
        rhs_numeric: complex,
    ):
        self.r, self.x, self.lhs, self.rhs = r, x, lhs, rhs
        self.equal, self.lhs_numeric, self.rhs_numeric = equal, lhs_numeric, rhs_numeric


def theorem_check(ctx: RootContext, graph: PlumbedGraph, colors) -> TheoremReport:
    """Exact check of the main identity on one (graph, r, x) instance.

    LHS: RT invariant at colors n = r-1-x.  RHS: :func:`theorem_rhs`.
    Needs at least one edge (the identity is stated for actual links, whose
    base case is the Hopf link).
    """
    if not graph.edges:
        raise ValueError("the identity check needs a graph with at least one edge")
    x = _check_identity_colors(ctx, colors)
    rt_colors = {v: ctx.r - 1 - x[v] for v in graph.vertices}
    lhs = rt_plumbed(ctx, graph, rt_colors)
    rhs = theorem_rhs(ctx, graph, x)
    equal = lhs == rhs
    lhs_numeric = complex(to_complex(lhs))
    # equal values have equal coefficients, so their embeddings agree bit for bit
    rhs_numeric = lhs_numeric if equal else complex(to_complex(rhs))
    return TheoremReport(ctx.r, dict(x), lhs, rhs, equal, lhs_numeric, rhs_numeric)
