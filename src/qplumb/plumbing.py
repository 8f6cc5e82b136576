"""Plumbed-graph data model: weighted trees, their JSON format, sign vectors.

A plumbing graph is a tree whose vertices carry integer framings; it encodes
a framed link (vertices are unknots, edges are Hopf clasps).  A distinguished
base vertex anchors the unique tree paths used by the sign-twisting map
``apply_signs``: flipping the sign of an edge flips the colors of every
vertex on the far side of that edge from the base.

File format (JSON)::

    {"vertices": [{"id": "a", "framing": 0}, {"id": "b", "framing": -1}],
     "edges": [["a", "b"]],
     "base": "a"}            # optional; defaults to the first vertex
"""

from __future__ import annotations

import itertools
import json
from collections import deque
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterator, Mapping

from .errors import CapacityError, GraphFormatError

MAX_EDGES_ENUMERATED = 30


def _edge_key(u: str, v: str) -> tuple[str, str]:
    return (u, v) if u <= v else (v, u)


@dataclass(frozen=True)
class PlumbedGraph:
    """Weighted tree with a base vertex.  Immutable after construction."""

    vertices: tuple[str, ...]
    framings: tuple[int, ...]
    edges: tuple[tuple[str, str], ...]
    base: str

    def __post_init__(self):
        verts = self.vertices
        if len(set(verts)) != len(verts):
            dupes = sorted({v for v in verts if verts.count(v) > 1})
            raise GraphFormatError(f"duplicate vertex ids: {dupes}")
        if len(self.framings) != len(verts):
            raise GraphFormatError("framings and vertices differ in length")
        vset = set(verts)
        seen = set()
        for i, (u, v) in enumerate(self.edges):
            if u == v:
                raise GraphFormatError(f"edges[{i}]: self-loop at {u!r}")
            for w in (u, v):
                if w not in vset:
                    raise GraphFormatError(f"edges[{i}]: unknown endpoint {w!r}")
            key = _edge_key(u, v)
            if key != (u, v):
                raise GraphFormatError(f"edges[{i}]: endpoints must be stored sorted")
            if key in seen:
                raise GraphFormatError(f"edges[{i}]: duplicate edge {key}")
            seen.add(key)
        if self.base not in vset:
            raise GraphFormatError(f"base vertex {self.base!r} is not declared")
        if len(self.edges) != len(verts) - 1:
            raise GraphFormatError(
                f"not a tree: {len(verts)} vertices need {len(verts) - 1} edges, "
                f"got {len(self.edges)}"
            )
        # |E| = |V| - 1 plus connectivity makes it a tree
        if len(self._parent) != len(verts):
            missing = sorted(vset.difference(self._parent))
            raise GraphFormatError(f"not a tree: disconnected vertices {missing}")

    @classmethod
    def build(cls, framings: Mapping[str, int], edges, base: str | None = None) -> "PlumbedGraph":
        """Construct from a framing map and edge pairs, in the given order."""
        verts = tuple(framings)
        return cls(
            vertices=verts,
            framings=tuple(int(framings[v]) for v in verts),
            edges=tuple(_edge_key(u, v) for u, v in edges),
            base=base if base is not None else verts[0],
        )

    @cached_property
    def framing(self) -> dict[str, int]:
        return dict(zip(self.vertices, self.framings))

    @cached_property
    def neighbors(self) -> dict[str, tuple[str, ...]]:
        adj: dict[str, list[str]] = {v: [] for v in self.vertices}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return {v: tuple(ws) for v, ws in adj.items()}

    def degree(self, v: str) -> int:
        if v not in self.framing:
            raise GraphFormatError(f"unknown vertex {v!r}")
        return len(self.neighbors[v])

    def vertices_of_degree_at_least(self, n: int) -> tuple[str, ...]:
        return tuple(v for v in self.vertices if len(self.neighbors[v]) >= n)

    @cached_property
    def _parent(self) -> dict[str, str | None]:
        """Parent of each vertex reached by a breadth-first search from the
        base, in the order the search reaches them."""
        parent: dict[str, str | None] = {self.base: None}
        queue = deque(parent)
        while queue:
            u = queue.popleft()
            for w in self.neighbors[u]:
                if w not in parent:
                    parent[w] = u
                    queue.append(w)
        return parent

    def path_edges(self, v: str) -> tuple[tuple[str, str], ...]:
        """Edges of the unique path from the base to v (empty for the base)."""
        if v not in self.framing:
            raise GraphFormatError(f"unknown vertex {v!r}")
        path = []
        while v != self.base:
            p = self._parent[v]
            path.append(_edge_key(p, v))
            v = p
        return tuple(reversed(path))

    def with_base(self, base: str) -> "PlumbedGraph":
        if base not in self.framing:
            raise GraphFormatError(f"unknown vertex {base!r}")
        return replace(self, base=base)

    def edge_order(self) -> tuple[tuple[str, str], ...]:
        """Edges in breadth-first order from the base; each new edge attaches
        one fresh vertex, which is the order the recursive evaluators use."""
        return tuple((p, v) for v, p in itertools.islice(self._parent.items(), 1, None))


@dataclass(frozen=True)
class ColorVector:
    """Per-vertex colors: integers (exact lane) or complex numbers (numeric)."""

    mode: str
    values: Mapping[str, object]

    def __post_init__(self):
        if self.mode not in ("exact", "numeric"):
            raise ValueError(f"mode must be 'exact' or 'numeric', got {self.mode!r}")

    @classmethod
    def exact(cls, values: Mapping[str, int]) -> "ColorVector":
        return cls("exact", {v: int(x) for v, x in values.items()})

    @classmethod
    def numeric(cls, values: Mapping[str, object]) -> "ColorVector":
        return cls("numeric", dict(values))

    def __getitem__(self, v: str):
        return self.values[v]


@dataclass(frozen=True)
class SignAssignment:
    """A choice of +-1 per edge of a fixed graph."""

    signs: Mapping[tuple[str, str], int]

    def __getitem__(self, edge: tuple[str, str]) -> int:
        return self.signs[_edge_key(*edge)]

    @property
    def sign_product(self) -> int:
        out = 1
        for s in self.signs.values():
            out *= s
        return out

    def path_sign(self, graph: PlumbedGraph, v: str) -> int:
        """Product of this assignment's signs along the base-to-v path."""
        out = 1
        for e in graph.path_edges(v):
            out *= self.signs[e]
        return out

    def path_signs(self, graph: PlumbedGraph) -> dict[str, int]:
        """:meth:`path_sign` of every vertex, in one pass down the edge order."""
        out = {graph.base: 1}
        for u, w in graph.edge_order():
            out[w] = out[u] * self[u, w]
        return out


def enumerate_signs(graph: PlumbedGraph) -> Iterator[SignAssignment]:
    """All 2^|E| sign assignments, in a fixed order (last edge varies fastest)."""
    edges = graph.edges
    if len(edges) > MAX_EDGES_ENUMERATED:
        raise CapacityError(
            f"refusing to enumerate 2^{len(edges)} sign assignments "
            f"(limit {MAX_EDGES_ENUMERATED} edges)"
        )
    for combo in itertools.product((1, -1), repeat=len(edges)):
        yield SignAssignment(dict(zip(edges, combo)))


def apply_signs(graph: PlumbedGraph, colors: ColorVector, signs: SignAssignment) -> ColorVector:
    """Twist an exact color vector: each color is multiplied by the product of
    the signs along the path from the base vertex."""
    if colors.mode != "exact":
        raise ValueError("apply_signs acts on exact color vectors")
    path_signs = signs.path_signs(graph)
    return ColorVector.exact({v: path_signs[v] * colors[v] for v in graph.vertices})


# -- file format -----------------------------------------------------------


def parse_graph(text: str) -> PlumbedGraph:
    """Parse the JSON graph format, with location-bearing error messages."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"malformed JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise GraphFormatError("top level must be a JSON object")
    try:
        raw_vertices = data["vertices"]
    except KeyError:
        raise GraphFormatError("missing 'vertices'") from None
    if not isinstance(raw_vertices, list) or not raw_vertices:
        raise GraphFormatError("'vertices' must be a non-empty list")
    framings: dict[str, int] = {}
    order: list[str] = []
    for i, entry in enumerate(raw_vertices):
        if not isinstance(entry, dict) or "id" not in entry or "framing" not in entry:
            raise GraphFormatError(f"vertices[{i}]: need an object with 'id' and 'framing'")
        vid = entry["id"]
        if not isinstance(vid, str):
            raise GraphFormatError(f"vertices[{i}]: id must be a string")
        if not isinstance(entry["framing"], int) or isinstance(entry["framing"], bool):
            raise GraphFormatError(f"vertices[{i}]: framing must be an integer")
        if vid in framings:
            raise GraphFormatError(f"vertices[{i}]: duplicate vertex id {vid!r}")
        framings[vid] = entry["framing"]
        order.append(vid)
    raw_edges = data.get("edges", [])
    if not isinstance(raw_edges, list):
        raise GraphFormatError("'edges' must be a list")
    edges = []
    for i, pair in enumerate(raw_edges):
        if not (isinstance(pair, list) and len(pair) == 2 and all(isinstance(x, str) for x in pair)):
            raise GraphFormatError(f"edges[{i}]: must be a pair of vertex ids")
        edges.append((pair[0], pair[1]))
    base = data.get("base", order[0])
    if not isinstance(base, str):
        raise GraphFormatError("'base' must be a vertex id string")
    return PlumbedGraph.build(framings, edges, base)


def serialize_graph(graph: PlumbedGraph) -> str:
    """Stable JSON rendering; parse(serialize(g)) reproduces g byte-for-byte."""
    doc = {
        "vertices": [
            {"id": v, "framing": graph.framing[v]} for v in graph.vertices
        ],
        "edges": [[u, v] for u, v in graph.edges],
        "base": graph.base,
    }
    return json.dumps(doc, indent=2) + "\n"


def load_graph(path) -> PlumbedGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())
