"""What the numeric lane spends and what it leaves behind.

The closed form takes two sines per modified dimension, sin(pi*alpha) for the
pole check and sin(pi*alpha/r), and never calls `mod_dim`; in strict mode each
leaf takes one more for its own check.  Every numeric evaluator runs under one
`workprec` and restores mpmath's precision when it returns or raises.
"""

import random

import mpmath
import pytest

from qplumb import invariants, numeric
from qplumb.errors import PoleError
from qplumb.invariants import (
    rn_hopf,
    rn_plumbed_numeric,
    rn_plumbed_recursive,
    rn_quotient_numeric,
    rn_twist,
)
from qplumb.numeric import (
    NumericContext,
    brace_c,
    is_pole,
    mod_dim,
    q_pow,
    qdim_typical_check,
    qint_c,
)

from conftest import path_graph, random_tree, star_graph


def _tree_case(seed, n):
    rng = random.Random(seed)
    graph = random_tree(rng, n)
    colors = {v: complex(rng.uniform(-3, 3), rng.uniform(0.1, 0.5)) for v in graph.vertices}
    return graph, colors


def _count_sines(monkeypatch):
    calls = []
    real_sin = mpmath.sin

    def counting(x):
        calls.append(x)
        return real_sin(x)

    monkeypatch.setattr(mpmath, "sin", counting)
    return calls


def _forbid_mod_dim(monkeypatch):
    def forbidden(ctx, alpha):
        raise AssertionError("the closed form called mod_dim")

    monkeypatch.setattr(invariants, "mod_dim", forbidden)
    monkeypatch.setattr(numeric, "mod_dim", forbidden)


@pytest.mark.parametrize(
    "evaluate, leaf_sines",
    [
        (rn_plumbed_numeric, 0),
        (lambda n, g, c: rn_plumbed_numeric(n, g, c, strict=True), 1),
        (rn_quotient_numeric, 0),
    ],
    ids=["product", "strict", "quotient"],
)
def test_two_sines_per_modified_dimension(monkeypatch, evaluate, leaf_sines):
    graph, colors = _tree_case(300, 300)
    nctx = NumericContext(5)
    expected = evaluate(nctx, graph, colors)
    leaves = sum(1 for v in graph.vertices if graph.degree(v) == 1)
    branching = len(graph.vertices) - leaves
    assert branching > 50
    sines = _count_sines(monkeypatch)
    _forbid_mod_dim(monkeypatch)
    assert evaluate(nctx, graph, colors) == expected
    assert len(sines) == 2 * branching + leaf_sines * leaves


PRIMITIVES = [
    lambda n: q_pow(n, 0.3 - 0.2j),
    lambda n: brace_c(n, 1.7),
    lambda n: qint_c(n, 2.5 + 0.1j),
    lambda n: is_pole(n, 3),
    lambda n: mod_dim(n, 0.4 + 0.3j),
    lambda n: rn_twist(n, 0.6 - 1.2j, 3),
    lambda n: rn_hopf(n, 0.6, -1.4 + 0.5j),
    lambda n: qdim_typical_check(n, 0.35),
    lambda n: rn_plumbed_numeric(n, *_tree_case(1, 30)),
    lambda n: rn_plumbed_recursive(n, *_tree_case(1, 30)),
    lambda n: rn_quotient_numeric(n, *_tree_case(1, 30)),
]

_HALF = {"p0": 0.5, "p2": 0.5}
RAISING = {
    "mod_dim at an integer color": (PoleError, "pole at integer color 2", lambda n: mod_dim(n, 2)),
    "closed form, pole at a branching vertex": (
        PoleError,
        "pole at integer color -1",
        lambda n: rn_plumbed_numeric(n, star_graph(3), {"c": -1, "l0": 0.5, "l1": 0.2, "l2": 0.7}),
    ),
    "strict mode": (
        PoleError,
        "strict mode: color at vertex 'p2'",
        lambda n: rn_plumbed_numeric(n, path_graph(3), {**_HALF, "p1": 0.5, "p2": -2}, strict=True),
    ),
    "NaN color": (
        ValueError,
        "finite",
        lambda n: rn_plumbed_numeric(n, path_graph(3), {**_HALF, "p1": float("nan")}),
    ),
    "oracle through a pole": (
        PoleError,
        "pole at integer color 2",
        lambda n: rn_plumbed_recursive(n, path_graph(3), {**_HALF, "p1": 2}),
    ),
    "quotient at a pole": (
        PoleError,
        "pole at integer color 3",
        lambda n: rn_quotient_numeric(n, path_graph(3), {**_HALF, "p1": 3}),
    ),
}


@pytest.mark.parametrize("bits", [53, 120])
@pytest.mark.parametrize("evaluate", PRIMITIVES)
def test_precision_unwinds_on_return(bits, evaluate):
    with mpmath.workprec(77):
        evaluate(NumericContext(3, precision_bits=bits))
        assert mpmath.mp.prec == 77


@pytest.mark.parametrize("bits", [53, 120])
@pytest.mark.parametrize("case", sorted(RAISING))
def test_precision_unwinds_on_raise(bits, case):
    error, message, evaluate = RAISING[case]
    with mpmath.workprec(77):
        with pytest.raises(error, match=message):
            evaluate(NumericContext(3, precision_bits=bits))
        assert mpmath.mp.prec == 77
