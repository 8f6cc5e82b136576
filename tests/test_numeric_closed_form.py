"""The numeric closed form in normal form against the recursive oracle.

`rn_plumbed_numeric` sums the q-exponent exactly in integers and reduces its
real part mod 2r before one exponential, so its accuracy at 53 bits does not
depend on the framings.  `rn_plumbed_recursive` multiplies unreduced factors
one by one; at 200 or 300 bits it is the reference here.
"""

import random

import mpmath
import pytest

from qplumb.errors import PoleError
from qplumb.invariants import rn_plumbed_numeric, rn_plumbed_recursive
from qplumb.numeric import DyadicPhase, NumericContext

from conftest import hopf_graph, path_graph, random_tree


def _rel(x, ref):
    with mpmath.workprec(300):
        return abs(mpmath.mpc(x) - ref) / abs(ref)


def _reference(r, graph, colors, bits):
    return rn_plumbed_recursive(NumericContext(r, precision_bits=bits), graph, colors)


FRAMINGS = (10**3, 10**6, 1000000007, 10**12)


@pytest.mark.parametrize("f", FRAMINGS)
def test_large_framings_keep_double_accuracy(f):
    cases = [
        (hopf_graph(f, f), {"v1": 0.3, "v2": 1.7}),
        (path_graph(3, [f, -f, 3]), {"p0": 0.3 + 0.2j, "p1": -1.6 + 0.3j, "p2": 2.25 - 0.4j}),
    ]
    for graph, colors in cases:
        got = rn_plumbed_numeric(NumericContext(3), graph, colors)
        assert _rel(got, _reference(3, graph, colors, 300)) < 1e-14, (f, colors)


def _random_color(rng, leaf):
    """A color of a random type; integers only at leaves, off the pole set."""
    re = rng.uniform(-3, 3)
    im = rng.choice([-1, 1]) * rng.uniform(0.05, 0.8)
    kind = rng.choice((["int"] if leaf else []) + ["float", "complex", "mpf", "mpc"])
    if kind == "int":
        return rng.randint(-3, 3)
    if kind == "float":
        return re
    if kind == "mpf":
        with mpmath.workprec(rng.choice([53, 120])):
            return mpmath.mpf(re) / 7
    if kind == "complex":
        return complex(re, im)
    return mpmath.mpc(re, im) / 3


def test_random_trees_against_the_oracle():
    rng = random.Random(4711)
    kinds = set()
    for _ in range(100):
        r = rng.randint(2, 7)
        graph = random_tree(rng, rng.randint(1, 12), framing_span=3)
        colors = {v: _random_color(rng, graph.degree(v) == 1) for v in graph.vertices}
        kinds.update(type(c).__name__ for c in colors.values())
        ref = _reference(r, graph, colors, 200)
        for bits, tol in ((53, 1e-12), (120, 1e-30)):
            got = rn_plumbed_numeric(NumericContext(r, precision_bits=bits), graph, colors)
            assert _rel(got, ref) < tol, (r, bits, graph, colors)
    assert kinds == {"int", "float", "complex", "mpf", "mpc"}


def test_degree_zero_graph():
    graph = random_tree(random.Random(1), 1)
    (v,) = graph.vertices
    for color in (0.3, -1.25 + 0.5j, mpmath.mpf("0.7")):
        colors = {v: color}
        got = rn_plumbed_numeric(NumericContext(5), graph, colors)
        assert _rel(got, _reference(5, graph, colors, 200)) < 1e-14


def test_poles_and_strict_mode_unchanged():
    nctx = NumericContext(3)
    graph = path_graph(3)
    with pytest.raises(PoleError, match="pole at integer color 2"):
        rn_plumbed_numeric(nctx, graph, {"p0": 0.5, "p1": 2, "p2": 0.5})
    with pytest.raises(PoleError, match="pole at integer color"):
        rn_plumbed_numeric(nctx, random_tree(random.Random(1), 1), {"t0": -1})
    colors = {"p0": 0.5, "p1": 0.5, "p2": -2}
    rn_plumbed_numeric(nctx, graph, colors)
    with pytest.raises(PoleError, match="strict mode: color at vertex 'p2'"):
        rn_plumbed_numeric(nctx, graph, colors, strict=True)


@pytest.mark.parametrize("bad", [float("nan"), complex(0.5, float("inf")), mpmath.mpf("-inf")])
def test_non_finite_colors_are_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        rn_plumbed_numeric(NumericContext(3), hopf_graph(), {"v1": 0.5, "v2": bad})


def test_dyadic_parts_are_exact_and_signed():
    with mpmath.workprec(53):
        assert DyadicPhase.parts(-0.75) == (-3, -2, 0, 0)
        assert DyadicPhase.parts(complex(0.5, -6)) == (1, -1, -3, 1)
        assert DyadicPhase.parts(0) == (0, 0, 0, 0)
        re_man, re_exp, _, _ = DyadicPhase.parts(0.1)
        assert mpmath.ldexp(re_man, re_exp) == mpmath.mpf(0.1)
