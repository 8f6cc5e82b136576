"""Evaluator tests.  All derived expectations come from direct cmath oracles
(independent of the mpmath/cyclotomic code paths under test)."""

import cmath
import itertools
import math
import pathlib
import random
from fractions import Fraction

import pytest

from qplumb.cyclotomic import brace, brace_inv, make_context, to_complex, zeta_pow
from qplumb.errors import PoleError
from qplumb.invariants import (
    rn_hopf,
    rn_plumbed_numeric,
    rn_plumbed_recursive,
    rn_quotient_numeric,
    rn_regularized,
    rn_twist,
    rt_hopf,
    rt_plumbed,
    rt_plumbed_recursive,
    rt_twist,
    theorem_check,
    theorem_prefactor,
    theorem_rhs,
)
from qplumb.numeric import NumericContext
from qplumb.plumbing import ColorVector, PlumbedGraph, apply_signs, enumerate_signs, load_graph

from conftest import (
    catalog_trees,
    hopf_graph,
    path_graph,
    random_exact_colors,
    random_tree,
    star_graph,
)


# -- oracles -----------------------------------------------------------------


def o_q(r, z):
    return cmath.exp(1j * math.pi * z / r)


def o_br(r, z):
    return o_q(r, z) - o_q(r, -z)


def o_rt_plumbed(r, graph, n):
    """Closed-form RT value in plain complex arithmetic."""
    val = 1
    for v in graph.vertices:
        val *= ((-1) ** n[v] * o_q(r, (n[v] ** 2 + 2 * n[v]) / 2)) ** graph.framing[v]
        qd = (-1) ** n[v] * o_br(r, n[v] + 1) / o_br(r, 1)
        val *= qd ** (1 - graph.degree(v))
    for u, w in graph.edges:
        val *= (-1) ** (n[u] + n[w]) * o_br(r, (n[u] + 1) * (n[w] + 1)) / o_br(r, 1)
    return val


def embed(x):
    return complex(to_complex(x))


class TestHopfValues:
    def test_rt_trivial_colors(self):
        assert rt_hopf(make_context(4), 0, 0) == make_context(4).one

    def test_rt_vanishing_cases(self):
        assert rt_hopf(make_context(3), 2, 0).is_zero  # {3} = 0
        assert rt_hopf(make_context(2), 1, 1).is_zero  # {4} = {2r} = 0

    def test_rt_matches_oracle(self):
        for r in range(2, 7):
            ctx = make_context(r)
            for m in range(r):
                for n in range(r):
                    expect = (-1) ** (m + n) * o_br(r, (m + 1) * (n + 1)) / o_br(r, 1)
                    assert abs(embed(rt_hopf(ctx, m, n)) - expect) < 1e-10

    def test_rt_range_check(self):
        with pytest.raises(ValueError):
            rt_hopf(make_context(3), 3, 0)

    def test_rn_zero_color(self):
        for r in (2, 3, 4):
            val = rn_hopf(make_context(r), 0, 5)
            assert val == make_context(r).scalar((-1) ** (r - 1) * r)

    def test_rn_r2_unit_colors(self):
        assert abs(embed(rn_hopf(make_context(2), 1, 1)) - (-2j)) < 1e-12

    def test_rn_sign_flip_symmetry(self):
        # the computational content of flipping both limit targets
        ctx = make_context(5)
        nctx = NumericContext(5)
        for a, b in [(1, 2), (3, 4), (2, 2)]:
            assert rn_hopf(ctx, a, b) == rn_hopf(ctx, -a, -b)
        z = 1.3 - 0.2j
        w = 0.7 + 0.9j
        assert abs(complex(rn_hopf(nctx, z, w)) - complex(rn_hopf(nctx, -z, -w))) < 1e-12

    def test_rn_exact_matches_numeric(self):
        for r in (2, 3, 5):
            ctx, nctx = make_context(r), NumericContext(r)
            for a in range(-3, 4):
                for b in range(-3, 4):
                    assert abs(embed(rn_hopf(ctx, a, b)) - complex(rn_hopf(nctx, a, b))) < 1e-10


class TestTwists:
    def test_zero_framing(self):
        ctx = make_context(4)
        assert rt_twist(ctx, 2, 0) == ctx.one
        assert rn_twist(ctx, 2, 0) == ctx.one

    def test_r2_n1_f1(self):
        # (-1) q^(3/2) = -zeta^3
        ctx = make_context(2)
        val = rt_twist(ctx, 1, 1)
        assert val == -zeta_pow(ctx, 3)
        assert abs(embed(val) - (-cmath.exp(3j * math.pi / 4))) < 1e-12

    def test_rt_matches_oracle(self):
        for r in (2, 3, 5):
            ctx = make_context(r)
            for n in range(r):
                for f in range(-3, 4):
                    expect = ((-1) ** n * o_q(r, (n * n + 2 * n) / 2)) ** f
                    assert abs(embed(rt_twist(ctx, n, f)) - expect) < 1e-10

    def test_rn_numeric_matches_oracle(self):
        nctx = NumericContext(3)
        alpha = 0.4 + 1.1j
        expect = cmath.exp(1j * math.pi * (alpha**2 - 4) / (2 * 3))
        assert abs(complex(rn_twist(nctx, alpha, 1)) - expect) < 1e-12

    @pytest.mark.parametrize("r", range(2, 7))
    def test_twist_identity_under_color_swap(self, r):
        # the RT twist at color r-1-x equals the generic twist at color x,
        # exactly, for every framing
        ctx = make_context(r)
        for x in range(1, r):
            for f in range(-3, 4):
                assert rt_twist(ctx, r - 1 - x, f) == rn_twist(ctx, x, f)


class TestRTPlumbed:
    def test_hopf_is_product(self):
        ctx = make_context(4)
        g = hopf_graph(2, -1)
        n = {"v1": 1, "v2": 2}
        expect = rt_twist(ctx, 1, 2) * rt_twist(ctx, 2, -1) * rt_hopf(ctx, 1, 2)
        assert rt_plumbed(ctx, g, n) == expect

    def test_single_vertex_unknot(self):
        from qplumb.quantumrep import qdim_simple

        ctx = make_context(4)
        g = PlumbedGraph.build({"u": 0}, [])
        for n in range(4):
            assert rt_plumbed(ctx, g, {"u": n}) == qdim_simple(ctx, n)
        g3 = PlumbedGraph.build({"u": 3}, [])
        assert rt_plumbed(ctx, g3, {"u": 1}) == rt_twist(ctx, 1, 3) * qdim_simple(ctx, 1)

    def test_internal_zero_qdim_is_pole(self):
        ctx = make_context(3)
        g = path_graph(3)
        with pytest.raises(PoleError):
            rt_plumbed(ctx, g, {"p0": 0, "p1": 2, "p2": 0})
        with pytest.raises(PoleError):
            rt_plumbed_recursive(ctx, g, {"p0": 0, "p1": 2, "p2": 0})

    def test_matches_cmath_oracle(self):
        rng = random.Random(5150)
        for r in (2, 3, 4):
            ctx = make_context(r)
            for _ in range(15):
                g = random_tree(rng, rng.randint(1, 6))
                n = {v: rng.randint(0, r - 2) if g.degree(v) >= 2 else rng.randint(0, r - 1) for v in g.vertices}
                expect = o_rt_plumbed(r, g, n)
                assert abs(embed(rt_plumbed(ctx, g, n)) - expect) < 1e-8 * max(1, abs(expect))

    def test_closed_equals_recursive_on_catalog(self):
        rng = random.Random(88)
        for name, g in catalog_trees().items():
            for r in (2, 3, 4):
                ctx = make_context(r)
                for _ in range(5):
                    n = {v: rng.randint(0, r - 2) if g.degree(v) >= 2 else rng.randint(0, r - 1) for v in g.vertices}
                    assert rt_plumbed(ctx, g, n) == rt_plumbed_recursive(ctx, g, n), (name, r, n)

    def test_accepts_color_vector(self):
        ctx = make_context(3)
        g = hopf_graph()
        cv = ColorVector.exact({"v1": 1, "v2": 0})
        assert rt_plumbed(ctx, g, cv) == rt_plumbed(ctx, g, {"v1": 1, "v2": 0})


class TestRNPlumbedNumeric:
    def test_hopf_zero_framings(self):
        for r in (2, 3, 5):
            nctx = NumericContext(r)
            g = hopf_graph(0, 0)
            a, b = 0.3 + 0.2j, 1.7 - 0.5j
            got = complex(rn_plumbed_numeric(nctx, g, {"v1": a, "v2": b}))
            expect = (-1) ** (r - 1) * r * o_q(r, a * b)
            assert abs(got - expect) < 1e-10

    def test_path_closed_form(self):
        r = 3
        nctx = NumericContext(r)
        g = path_graph(3)
        a = {"p0": 0.4, "p1": 1.6 + 0.3j, "p2": -0.8}
        got = complex(rn_plumbed_numeric(nctx, g, a))
        md = (-1) ** (r - 1) * r * o_br(r, a["p1"]) / o_br(r, r * a["p1"])
        expect = ((-1) ** (r - 1) * r) ** 2 * o_q(r, a["p0"] * a["p1"] + a["p1"] * a["p2"]) / md
        assert abs(got - expect) < 1e-10

    def test_integer_internal_color_is_pole(self):
        nctx = NumericContext(3)
        g = path_graph(3)
        with pytest.raises(PoleError):
            rn_plumbed_numeric(nctx, g, {"p0": 0.5, "p1": 1, "p2": 0.5})

    def test_integer_leaf_color_allowed_unless_strict(self):
        nctx = NumericContext(3)
        g = path_graph(3)
        colors = {"p0": 1, "p1": 0.5, "p2": 0.25}
        rn_plumbed_numeric(nctx, g, colors)  # fine: the pole set only involves branching vertices
        with pytest.raises(PoleError):
            rn_plumbed_numeric(nctx, g, colors, strict=True)

    def test_closed_equals_recursive(self):
        rng = random.Random(31337)
        for r in (2, 3, 4, 5):
            nctx = NumericContext(r)
            for _ in range(10):
                g = random_tree(rng, rng.randint(2, 7))
                a = {
                    v: complex(rng.uniform(-3, 3) + 0.013, rng.uniform(0.05, 1.5))
                    for v in g.vertices
                }
                closed = complex(rn_plumbed_numeric(nctx, g, a))
                recur = complex(rn_plumbed_recursive(nctx, g, a))
                assert abs(closed - recur) < 1e-9 * max(1.0, abs(closed))


class TestRegularized:
    def test_hopf_value(self):
        ctx = make_context(3)
        g = hopf_graph(1, -2)
        x = {"v1": 1, "v2": 2}
        expect = (
            rn_twist(ctx, 1, 1)
            * rn_twist(ctx, 2, -2)
            * rn_hopf(ctx, 1, 2)
        )
        assert rn_regularized(ctx, g, x) == expect

    def test_rejects_colors_divisible_by_r(self):
        ctx = make_context(3)
        g = path_graph(3)
        with pytest.raises(PoleError):
            rn_regularized(ctx, g, {"p0": 1, "p1": 3, "p2": 1})
        with pytest.raises(ValueError):
            rn_regularized(ctx, g, {"p0": 1, "p1": 4, "p2": 1})

    def test_global_flip_parity(self):
        rng = random.Random(606)
        for r in (2, 3, 4):
            ctx = make_context(r)
            for _ in range(12):
                g = random_tree(rng, rng.randint(2, 7))
                x = random_exact_colors(rng, g, r)
                flipped = {v: -c for v, c in x.items()}
                parity = sum(g.degree(v) - 1 for v in g.vertices_of_degree_at_least(2))
                lhs = rn_regularized(ctx, g, flipped)
                rhs = rn_regularized(ctx, g, x)
                assert lhs == (-rhs if parity % 2 else rhs)

    def test_connected_sum_recursion(self):
        # attaching a zero/f'-framed Hopf link at v1 multiplies the
        # regularized value by q^(f'(x'^2-(r-1)^2)/2) * q^(x1 x') / {x1}
        rng = random.Random(77)
        for r in (2, 3, 5):
            ctx = make_context(r)
            for _ in range(10):
                g = random_tree(rng, rng.randint(2, 6))
                v1 = rng.choice(g.vertices)
                fp = rng.randint(-2, 2)
                framings = dict(g.framing)
                framings["new"] = fp
                g2 = PlumbedGraph.build(framings, list(g.edges) + [(v1, "new")], g.base)
                x = random_exact_colors(rng, g, r)
                x2 = dict(x)
                x2["new"] = rng.randint(1, r - 1)
                lhs = rn_regularized(ctx, g2, x2)
                factor = (
                    rn_twist(ctx, x2["new"], fp)
                    * zeta_pow(ctx, 2 * x[v1] * x2["new"])
                    * brace(ctx, x[v1]).inv()
                )
                assert lhs == factor * rn_regularized(ctx, g, x)

    def test_numeric_limit_convergence(self):
        # the closed form is the limit of the numeric quotient
        rng = random.Random(11)
        r = 3
        ctx, nctx = make_context(r), NumericContext(r)
        g = path_graph(3)
        x = {"p0": 1, "p1": 2, "p2": 1}
        for eps in enumerate_signs(g):
            y = apply_signs(g, ColorVector.exact(x), eps)
            target = embed(rn_regularized(ctx, g, y))
            u = {v: complex(rng.gauss(0, 1), rng.gauss(0, 1)) for v in g.vertices}
            errs = []
            for t in (1e-2, 1e-3, 1e-4):
                a = {v: y[v] + t * u[v] for v in g.vertices}
                errs.append(abs(complex(rn_quotient_numeric(nctx, g, a)) - target))
            assert errs[0] > errs[1] > errs[2]
            assert errs[2] < 1e-2


class TestTheorem:
    def test_hopf_small_sweep(self):
        for r in (2, 3, 4):
            ctx = make_context(r)
            for f1 in (-1, 0, 2):
                for f2 in (-2, 0, 1):
                    g = hopf_graph(f1, f2)
                    for x1 in range(1, r):
                        for x2 in range(1, r):
                            rep = theorem_check(ctx, g, {"v1": x1, "v2": x2})
                            assert rep.equal, (r, f1, f2, x1, x2)

    def test_hopf_rhs_is_two_term_difference(self):
        ctx = make_context(3)
        g = hopf_graph(0, 0)
        x = {"v1": 1, "v2": 2}
        plus = rn_regularized(ctx, g, {"v1": 1, "v2": 2})
        minus = rn_regularized(ctx, g, {"v1": 1, "v2": -2})
        expect = theorem_prefactor(ctx, g, x) * (plus - minus)
        assert theorem_rhs(ctx, g, x) == expect

    def test_small_trees(self, catalog):
        rng = random.Random(2718)
        for name in ("path3", "path4", "star3", "caterpillar5"):
            g = catalog[name]
            for r in (2, 3):
                ctx = make_context(r)
                for _ in range(6):
                    framings = {v: rng.randint(-2, 2) for v in g.vertices}
                    g2 = PlumbedGraph.build(framings, list(g.edges), g.base)
                    x = random_exact_colors(rng, g2, r)
                    rep = theorem_check(ctx, g2, x)
                    assert rep.equal, (name, r, framings, x)
                    assert abs(rep.lhs_numeric - rep.rhs_numeric) < 1e-9

    def test_base_independence(self, catalog):
        rng = random.Random(1618)
        for name in ("path4", "star3"):
            g = catalog[name]
            ctx = make_context(3)
            x = random_exact_colors(rng, g, 3)
            values = {b: theorem_rhs(ctx, g.with_base(b), x) for b in g.vertices}
            first = next(iter(values.values()))
            assert all(v == first for v in values.values())

    def test_epsilon_sum_order_independent(self):
        from qplumb.invariants import _term_weight

        ctx = make_context(4)
        g = star_graph(3)
        x = {v: 1 if v == "c" else 2 for v in g.vertices}
        cv = ColorVector.exact(x)
        terms = []
        for eps in enumerate_signs(g):
            term = rn_regularized(ctx, g, apply_signs(g, cv, eps))
            w = _term_weight(g, eps)
            terms.append(-term if w < 0 else term)
        forward = ctx.zero
        for t in terms:
            forward = forward + t
        backward = ctx.zero
        for t in reversed(terms):
            backward = backward + t
        assert forward.coeffs == backward.coeffs
        assert theorem_prefactor(ctx, g, x) * forward == theorem_rhs(ctx, g, x)

    def test_negated_prefactor_detected(self):
        # negative control: a wrong sign must not sneak through
        ctx = make_context(3)
        g = hopf_graph(1, 0)
        x = {"v1": 1, "v2": 1}
        lhs = rt_plumbed(ctx, g, {"v1": 1, "v2": 1})
        assert lhs == theorem_rhs(ctx, g, x)
        assert lhs != -theorem_rhs(ctx, g, x)

    def test_single_vertex_rejected(self):
        ctx = make_context(3)
        g = PlumbedGraph.build({"u": 0}, [])
        with pytest.raises(ValueError):
            theorem_check(ctx, g, {"u": 1})


# -- factor-by-factor oracles for the normal-form evaluators --------------------
#
# rt_plumbed, rn_regularized and theorem_prefactor sum exponents and evaluate
# +-c * zeta^K * prod {a}^e once.  These oracles multiply the factors out one
# by one, as the formulas are written, with a fresh Euclidean inverse for
# every denominator and no brace-inverse table or rational scaling.

GRAPHS = pathlib.Path(__file__).resolve().parent.parent / "graphs"


def _oracle_pow(x, k):
    val = x.ctx.one
    for _ in range(k):
        val = val * x
    return val


def oracle_rt_plumbed(ctx, graph, n):
    inv_brace_one = brace(ctx, 1).inv()
    val = ctx.one
    for v in graph.vertices:
        nv = n[v]
        val = val * rt_twist(ctx, nv, graph.framing[v])
        d = graph.degree(v)
        if d != 1:
            qd = brace(ctx, nv + 1) * inv_brace_one
            qd = -qd if nv % 2 else qd
            if d == 0:
                val = val * qd
            else:
                if qd.is_zero:
                    raise PoleError(f"vertex {v!r}")
                val = val * _oracle_pow(qd.inv(), d - 1)
    for u, w in graph.edges:
        m, k = n[u], n[w]
        hopf = brace(ctx, (m + 1) * (k + 1)) * brace(ctx, 1).inv()
        val = val * (-hopf if (m + k) % 2 else hopf)
    return val


def oracle_rn_regularized(ctx, graph, x):
    r = ctx.r
    sign_r = ctx.scalar((-1 if (r - 1) % 2 else 1) * r)
    val = ctx.one
    for v in graph.vertices:
        val = val * zeta_pow(ctx, graph.framing[v] * (x[v] * x[v] - (r - 1) ** 2))
        d = graph.degree(v)
        if d >= 2:
            if x[v] % r == 0:
                raise PoleError(f"vertex {v!r}")
            val = val * _oracle_pow((sign_r * brace(ctx, x[v])).inv(), d - 1)
    for u, w in graph.edges:
        val = val * sign_r * zeta_pow(ctx, 2 * x[u] * x[w])
    return val


def oracle_theorem_prefactor(ctx, graph, x):
    exponent = len(graph.edges)
    for v in graph.vertices_of_degree_at_least(2):
        exponent += (graph.degree(v) - 1) * x[v]
    val = (ctx.scalar(ctx.r) * brace(ctx, 1)).inv()
    return -val if exponent % 2 else val


def _assert_matches_oracles(ctx, graph, rng):
    r = ctx.r
    n = {v: rng.randint(0, r - 1) for v in graph.vertices}
    try:
        expect = oracle_rt_plumbed(ctx, graph, n)
    except PoleError:
        with pytest.raises(PoleError):
            rt_plumbed(ctx, graph, n)
    else:
        assert rt_plumbed(ctx, graph, n) == expect
    x = {v: rng.choice((-1, 1)) * rng.randint(1, r - 1) for v in graph.vertices}
    assert rn_regularized(ctx, graph, x) == oracle_rn_regularized(ctx, graph, x)
    xp = {v: rng.randint(1, r - 1) for v in graph.vertices}
    assert theorem_prefactor(ctx, graph, xp) == oracle_theorem_prefactor(ctx, graph, xp)


class TestNormalFormOracles:
    @pytest.mark.parametrize("name", ["hopf", "path3", "star3", "caterpillar6"])
    def test_bundled_graphs(self, name):
        graph = load_graph(str(GRAPHS / f"{name}.json"))
        rng = random.Random(name)
        for r in range(2, 8):
            ctx = make_context(r)
            for _ in range(15):
                _assert_matches_oracles(ctx, graph, rng)
            # every RT color vector, poles included, where the grid is small
            if r ** len(graph.vertices) <= 256:
                for combo in itertools.product(range(r), repeat=len(graph.vertices)):
                    n = dict(zip(graph.vertices, combo))
                    try:
                        expect = oracle_rt_plumbed(ctx, graph, n)
                    except PoleError:
                        with pytest.raises(PoleError):
                            rt_plumbed(ctx, graph, n)
                    else:
                        assert rt_plumbed(ctx, graph, n) == expect

    def test_random_trees(self):
        rng = random.Random(20240903)
        for i in range(242):
            r = 2 + i % 11
            graph = random_tree(rng, rng.randint(1, 8), framing_span=3)
            _assert_matches_oracles(make_context(r), graph, rng)

    def test_degree_zero_graph(self):
        rng = random.Random(5)
        for r in range(2, 13):
            ctx = make_context(r)
            for f in range(-3, 4):
                graph = PlumbedGraph.build({"u": f}, [])
                for n in range(r):
                    assert rt_plumbed(ctx, graph, {"u": n}) == oracle_rt_plumbed(ctx, graph, {"u": n})
                _assert_matches_oracles(ctx, graph, rng)

    def test_brace_inverse_table(self):
        for r in range(2, 21):
            ctx = make_context(r)
            for two_z in range(1, 4 * r):
                if two_z % (2 * r) == 0:
                    continue
                z = Fraction(two_z, 2)
                assert brace(ctx, z) * brace_inv(ctx, z) == ctx.one
        # the closed-form table against inversion by the Euclidean algorithm
        for r in range(2, 41):
            ctx = make_context(r)
            for two_z in range(1, 2 * r):
                z = Fraction(two_z, 2)
                assert brace_inv(ctx, z) == brace(ctx, z).inv()

    def test_zero_brace_has_no_inverse(self):
        for r in (2, 3, 7):
            ctx = make_context(r)
            for z in (0, r, -r, 2 * r, 3 * r):
                with pytest.raises(PoleError):
                    brace_inv(ctx, z)

    def test_rt_pole_names_vertex(self):
        ctx = make_context(5)
        g = star_graph(3)
        n = {v: 1 for v in g.vertices}
        n["c"] = 4
        with pytest.raises(PoleError, match="'c'"):
            rt_plumbed(ctx, g, n)
        with pytest.raises(PoleError):
            oracle_rt_plumbed(ctx, g, n)

    def test_regularized_pole_names_vertex(self):
        ctx = make_context(4)
        g = path_graph(3)
        for bad in (4, -4, 0):
            x = {"p0": 1, "p1": bad, "p2": -3}
            with pytest.raises(PoleError, match="'p1'"):
                rn_regularized(ctx, g, x)
            with pytest.raises(PoleError):
                oracle_rn_regularized(ctx, g, x)


class TestBoolColorsRejected:
    def test_rt_color(self):
        ctx = make_context(3)
        with pytest.raises(ValueError):
            rt_plumbed(ctx, hopf_graph(), {"v1": True, "v2": 1})

    def test_regularized_color(self):
        ctx = make_context(3)
        with pytest.raises(ValueError):
            rn_regularized(ctx, hopf_graph(), {"v1": True, "v2": 1})

    def test_identity_color(self):
        ctx = make_context(3)
        with pytest.raises(ValueError):
            theorem_rhs(ctx, hopf_graph(), {"v1": 1, "v2": True})
