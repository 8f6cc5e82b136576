"""The recursive re-normalized route stays an oracle of the closed form.

`rn_plumbed_recursive` must take one modified dimension per attachment vertex,
not one per edge, and must return the very bits it returned before it did so.
The pinned (mantissa, exponent) pairs below were recorded from the code at
commit 6f477b1, before that change, on the same seeded trees and colors.
"""

import random

import pytest

from qplumb import invariants
from qplumb.invariants import rn_plumbed_recursive
from qplumb.numeric import NumericContext

from conftest import random_tree


def _case(seed, n):
    rng = random.Random(seed)
    graph = random_tree(rng, n)
    colors = {v: complex(rng.uniform(-2.5, 2.5), rng.uniform(-0.6, 0.6)) for v in graph.vertices}
    return graph, colors


def _signed(x):
    man, exp = x.man_exp
    return (-man if x < 0 else man, exp)


PINNED = [
    (7001, 60, 5, 53, (-4533450398112207, 14), (4905178340053609, 13)),
    (
        7001, 60, 5, 120,
        (-669019194118664087403503645316994705, -53),
        (723876555798966297690517274095672447, -54),
    ),
    (7002, 300, 7, 53, (6344485034708381, 370), (5306970327677837, 366)),
    (
        7002, 300, 7, 120,
        (117035091714745121622309668003680453, 306),
        (783170587531833395112459967859139857, 299),
    ),
]


@pytest.mark.parametrize("seed, n, r, bits, re, im", PINNED)
def test_bits_match_the_recorded_values(seed, n, r, bits, re, im):
    graph, colors = _case(seed, n)
    value = rn_plumbed_recursive(NumericContext(r, precision_bits=bits), graph, colors)
    assert (_signed(value.real), _signed(value.imag)) == (re, im)


def test_one_modified_dimension_per_attachment_vertex(monkeypatch):
    graph, colors = _case(7002, 300)
    nctx = NumericContext(7)
    expected = rn_plumbed_recursive(nctx, graph, colors)
    calls = []
    real_mod_dim = invariants.mod_dim

    def counting(ctx, alpha):
        calls.append(alpha)
        return real_mod_dim(ctx, alpha)

    monkeypatch.setattr(invariants, "mod_dim", counting)
    value = rn_plumbed_recursive(nctx, graph, colors)
    attachments = {u for u, _ in graph.edge_order()[1:]}
    assert len(calls) <= len(attachments) < len(graph.edges) - 1
    assert value == expected
