"""The recursive RT route stays an oracle of the closed form.

`rt_plumbed` takes its inverse braces from the `brace_inv` table;
`rt_plumbed_recursive` must reach the same values without reading that table,
and must invert each quantum dimension once per color, not once per edge.
"""

import pathlib
import random

from qplumb import cyclotomic, invariants
from qplumb.cyclotomic import CycNumber, make_context
from qplumb.invariants import rt_hopf, rt_plumbed, rt_plumbed_recursive
from qplumb.plumbing import load_graph

from conftest import random_tree

GRAPHS = pathlib.Path(__file__).resolve().parent.parent / "graphs"


def test_recursive_route_reads_no_brace_inverse(monkeypatch):
    rng = random.Random(31)
    cases = []
    for path in sorted(GRAPHS.glob("*.json")):
        graph = load_graph(str(path))
        for r in range(3, 8):
            ctx = make_context(r)
            for _ in range(6):
                colors = {v: rng.randint(0, r - 2) for v in graph.vertices}
                cases.append((ctx, graph, colors, rt_plumbed(ctx, graph, colors)))

    def refuse(*args, **kwargs):
        raise AssertionError("the recursive route read the brace_inv table")

    monkeypatch.setattr(cyclotomic, "brace_inv", refuse)
    monkeypatch.setattr(invariants, "brace_inv", refuse)
    # the recursive route must rebuild its own inverses with the table refused
    cyclotomic._qint_cached.cache_clear()
    cyclotomic.inv_brace_one.cache_clear()
    for ctx, graph, colors, closed_form in cases:
        assert rt_plumbed_recursive(ctx, graph, colors) == closed_form


def test_one_inverse_per_color(monkeypatch):
    rng = random.Random(2024)
    graph = random_tree(rng, 200)
    ctx = make_context(7)
    colors = {v: rng.randint(0, 5) for v in graph.vertices}
    rt_hopf(ctx, 0, 0)  # fills 1/{1}, which every Hopf value shares
    calls = []
    real_inv = CycNumber.inv

    def counting(self):
        calls.append(self)
        return real_inv(self)

    monkeypatch.setattr(CycNumber, "inv", counting)
    value = rt_plumbed_recursive(ctx, graph, colors)
    monkeypatch.undo()
    assert 1 <= len(calls) <= len(set(colors.values()))
    assert value == rt_plumbed(ctx, graph, colors)
