"""Graph model, parser, and sign-combinatorics tests."""

import json
import random

import pytest

from qplumb.errors import CapacityError, GraphFormatError
from qplumb.plumbing import (
    ColorVector,
    PlumbedGraph,
    SignAssignment,
    apply_signs,
    enumerate_signs,
    parse_graph,
    serialize_graph,
)

from conftest import path_graph, random_tree, star_graph

HOPF_TEXT = """
{
  "vertices": [{"id": "v1", "framing": 0}, {"id": "v2", "framing": -1}],
  "edges": [["v1", "v2"]]
}
"""


class TestParser:
    def test_hopf(self):
        g = parse_graph(HOPF_TEXT)
        assert g.vertices == ("v1", "v2")
        assert g.framing == {"v1": 0, "v2": -1}
        assert g.edges == (("v1", "v2"),)
        assert g.base == "v1"  # defaults to the first declared vertex

    def test_single_vertex(self):
        g = parse_graph('{"vertices": [{"id": "u", "framing": 3}]}')
        assert g.vertices == ("u",)
        assert g.edges == ()
        assert g.degree("u") == 0

    def test_cycle_rejected(self):
        text = json.dumps(
            {
                "vertices": [{"id": v, "framing": 0} for v in "abc"],
                "edges": [["a", "b"], ["b", "c"], ["a", "c"]],
            }
        )
        with pytest.raises(GraphFormatError, match="not a tree"):
            parse_graph(text)

    def test_disconnected_rejected(self):
        text = json.dumps(
            {
                "vertices": [{"id": v, "framing": 0} for v in "abcd"],
                "edges": [["a", "b"], ["a", "c"], ["a", "b"]],
            }
        )
        with pytest.raises(GraphFormatError, match="duplicate edge"):
            parse_graph(text)
        text = json.dumps(
            {
                "vertices": [{"id": v, "framing": 0} for v in "abcd"],
                "edges": [["a", "b"], ["c", "d"], ["a", "c"], ["b", "d"]],
            }
        )
        with pytest.raises(GraphFormatError, match="not a tree"):
            parse_graph(text)

    def test_unknown_endpoint(self):
        text = json.dumps(
            {
                "vertices": [{"id": "a", "framing": 0}, {"id": "b", "framing": 0}],
                "edges": [["a", "x"]],
            }
        )
        with pytest.raises(GraphFormatError, match=r"edges\[0\].*'x'"):
            parse_graph(text)

    def test_duplicate_vertex(self):
        text = json.dumps(
            {"vertices": [{"id": "a", "framing": 0}, {"id": "a", "framing": 1}]}
        )
        with pytest.raises(GraphFormatError, match=r"vertices\[1\]"):
            parse_graph(text)

    def test_malformed_json(self):
        with pytest.raises(GraphFormatError, match="malformed JSON"):
            parse_graph("{nope")

    def test_framing_must_be_int(self):
        text = '{"vertices": [{"id": "a", "framing": 1.5}]}'
        with pytest.raises(GraphFormatError, match="framing"):
            parse_graph(text)

    def test_bad_base(self):
        text = json.dumps(
            {"vertices": [{"id": "a", "framing": 0}], "base": "zz"}
        )
        with pytest.raises(GraphFormatError, match="base"):
            parse_graph(text)

    def test_round_trip(self):
        rng = random.Random(11)
        for _ in range(25):
            g = random_tree(rng, rng.randint(1, 8))
            assert parse_graph(serialize_graph(g)) == g

    def test_serialize_stable(self):
        g = parse_graph(HOPF_TEXT)
        assert serialize_graph(g) == serialize_graph(parse_graph(serialize_graph(g)))


class TestDegreeAndPaths:
    def test_star_center(self):
        g = star_graph(3)
        assert g.degree("c") == 3
        assert g.vertices_of_degree_at_least(2) == ("c",)

    def test_hopf_has_no_branching(self):
        g = parse_graph(HOPF_TEXT)
        assert g.vertices_of_degree_at_least(2) == ()

    def test_path_middle(self):
        g = path_graph(3)
        assert g.vertices_of_degree_at_least(2) == ("p1",)

    def test_unknown_vertex(self):
        g = path_graph(3)
        with pytest.raises(GraphFormatError):
            g.degree("nope")
        with pytest.raises(GraphFormatError):
            g.path_edges("nope")

    def test_path_edges(self):
        g = path_graph(3)
        assert g.path_edges("p0") == ()
        assert g.path_edges("p2") == (("p0", "p1"), ("p1", "p2"))

    def test_path_edges_star_from_leaf(self):
        g = star_graph(3).with_base("l0")
        assert g.path_edges("l1") == (("c", "l0"), ("c", "l1"))


class TestSigns:
    def test_identity_assignment(self):
        g = path_graph(3)
        x = ColorVector.exact({"p0": 1, "p1": 2, "p2": 1})
        eps = SignAssignment({e: 1 for e in g.edges})
        assert apply_signs(g, x, eps).values == x.values

    def test_path_accumulates(self):
        g = path_graph(3)
        x = ColorVector.exact({"p0": 1, "p1": 2, "p2": 3})
        eps = SignAssignment({("p0", "p1"): 1, ("p1", "p2"): -1})
        assert apply_signs(g, x, eps).values == {"p0": 1, "p1": 2, "p2": -3}

    def test_hopf_flip(self):
        g = PlumbedGraph.build({"v1": 0, "v2": 0}, [("v1", "v2")], base="v1")
        x = ColorVector.exact({"v1": 2, "v2": 1})
        eps = SignAssignment({("v1", "v2"): -1})
        assert apply_signs(g, x, eps).values == {"v1": 2, "v2": -1}

    def test_numeric_mode_rejected(self):
        g = path_graph(2)
        x = ColorVector.numeric({"p0": 0.5, "p1": 0.5})
        eps = SignAssignment({e: 1 for e in g.edges})
        with pytest.raises(ValueError):
            apply_signs(g, x, eps)

    def test_enumeration_counts(self):
        assert len(list(enumerate_signs(path_graph(2)))) == 2
        assert len(list(enumerate_signs(star_graph(3)))) == 8
        assert len(list(enumerate_signs(path_graph(1)))) == 1

    def test_sign_products_balance(self):
        total = sum(eps.sign_product for eps in enumerate_signs(star_graph(3)))
        assert total == 0

    def test_deterministic_order(self):
        g = star_graph(3)
        first = [tuple(e.signs.values()) for e in enumerate_signs(g)]
        second = [tuple(e.signs.values()) for e in enumerate_signs(g)]
        assert first == second
        assert first[0] == (1, 1, 1)

    def test_capacity_guard(self):
        g = path_graph(32)
        with pytest.raises(CapacityError):
            list(enumerate_signs(g))

    def test_single_edge_flip_flips_far_side(self):
        rng = random.Random(303)
        for _ in range(30):
            g = random_tree(rng, rng.randint(2, 9))
            x = ColorVector.exact({v: rng.randint(1, 5) for v in g.vertices})
            signs = {e: rng.choice((1, -1)) for e in g.edges}
            flip_edge = rng.choice(g.edges)
            flipped = dict(signs)
            flipped[flip_edge] *= -1
            before = apply_signs(g, x, SignAssignment(signs)).values
            after = apply_signs(g, x, SignAssignment(flipped)).values
            for v in g.vertices:
                far = flip_edge in g.path_edges(v)
                assert after[v] == (-before[v] if far else before[v])

    def test_base_change_is_global_sign(self):
        rng = random.Random(14)
        for _ in range(30):
            g = random_tree(rng, rng.randint(2, 9))
            other = rng.choice(g.vertices)
            g2 = g.with_base(other)
            x = ColorVector.exact({v: rng.randint(1, 5) for v in g.vertices})
            for eps in enumerate_signs(g):
                s = eps.path_sign(g, other)
                a = apply_signs(g, x, eps).values
                b = apply_signs(g2, x, eps).values
                assert all(b[v] == s * a[v] for v in g.vertices)


# -- tree walks against brute force ---------------------------------------------


def brute_parents(g):
    """Parent pointers toward the base, found by rescanning the edge list until
    nothing changes; shares no code with the graph's own search."""
    parent = {g.base: None}
    changed = True
    while changed:
        changed = False
        for a, b in g.edges:
            for u, w in ((a, b), (b, a)):
                if u in parent and w not in parent:
                    parent[w] = u
                    changed = True
    return parent


def brute_path(g, v):
    parent = brute_parents(g)
    path = []
    while parent[v] is not None:
        path.append(tuple(sorted((parent[v], v))))
        v = parent[v]
    return tuple(reversed(path))


def list_bfs_order(g):
    """Breadth-first edge order with a list queue, as the walk was first written."""
    adj = {v: [] for v in g.vertices}
    for u, w in g.edges:
        adj[u].append(w)
        adj[w].append(u)
    ordered, seen, frontier = [], {g.base}, [g.base]
    while frontier:
        u = frontier.pop(0)
        for w in adj[u]:
            if w not in seen:
                ordered.append((u, w))
                seen.add(w)
                frontier.append(w)
    return tuple(ordered)


def seeded_trees(seed, count=40):
    rng = random.Random(seed)
    for _ in range(count):
        g = random_tree(rng, rng.randint(1, 12))
        yield rng, g
        yield rng, g.with_base(rng.choice(g.vertices))


class TestTreeWalks:
    def test_edge_order_matches_list_bfs(self):
        for _, g in seeded_trees(71):
            order = g.edge_order()
            assert order == list_bfs_order(g)
            parent = brute_parents(g)
            # each edge attaches its child to a vertex already reached
            assert sorted(w for _, w in order) == sorted(set(g.vertices) - {g.base})
            assert all(parent[w] == u for u, w in order)

    def test_path_edges_match_parent_walk(self):
        for _, g in seeded_trees(72):
            for v in g.vertices:
                assert g.path_edges(v) == brute_path(g, v)

    def test_path_signs_match_parent_walk(self):
        for rng, g in seeded_trees(73):
            eps = SignAssignment({e: rng.choice((1, -1)) for e in g.edges})
            x = ColorVector.exact({v: rng.randint(1, 7) for v in g.vertices})
            expected = {}
            for v in g.vertices:
                s = 1
                for e in brute_path(g, v):
                    s *= eps.signs[e]
                expected[v] = s
            assert {v: eps.path_sign(g, v) for v in g.vertices} == expected
            assert eps.path_signs(g) == expected
            assert apply_signs(g, x, eps).values == {v: expected[v] * x[v] for v in g.vertices}

    def test_disconnected_vertices_named(self):
        # |E| = |V| - 1 passes the edge count; the cycle a-b-c leaves d unreached
        text = json.dumps(
            {
                "vertices": [{"id": v, "framing": 0} for v in "abcd"],
                "edges": [["a", "b"], ["b", "c"], ["a", "c"]],
            }
        )
        with pytest.raises(GraphFormatError, match=r"^not a tree: disconnected vertices \['d'\]$"):
            parse_graph(text)
