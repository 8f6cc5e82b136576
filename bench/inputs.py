"""Seeded inputs of the three workloads.

Each workload is one *round* of program calls, repeated unchanged for the
length of a run.  The seed chooses the graphs' shapes, framings, colors and
vertex labels; what sets the cost of a round is fixed per workload, so that
throughput does not depend on the seed:

* tree-check: two trees of each size 5..8, each with a fixed degree sequence
  (so a fixed number of branching vertices and 2^|E| terms per instance);
* large-r: a Hopf link at r = 32 with every color, and a 3-vertex path at
  r = 23 and 29, where the CLI samples 50 colors per r;
* big-tree: a random-attachment tree of 1000 vertices at r = 7 and a
  caterpillar of 4000 vertices at r = 5.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

# check-theorem samples this many colors per r when the full grid is too big
# (more than 4 vertices, or more than 10000 color vectors).
CLI_SAMPLES_PER_R = 50

# Pruefer multiplicities (degree - 1 of the non-leaf vertices) per tree size.
TREE_SHAPES = {5: (2, 1), 6: (2, 1, 1), 7: (2, 2, 1), 8: (3, 1, 1, 1)}
TREES_PER_SIZE = 2
TREE_R = (3, 4, 5)

HOPF_R = 32
PATH_R = (23, 29)

BIG_TREES = (("random", 1000, 7), ("caterpillar", 4000, 5))

# r values whose contexts each workload creates; the set-up probe builds these
SETUP_R = {
    "tree-check": TREE_R,
    "large-r": (HOPF_R,) + PATH_R,
    "big-tree": tuple(sorted({r for _, _, r in BIG_TREES})),
}


@dataclass
class Graph:
    framing: dict  # vertex id -> framing, in file order
    edges: list  # [(u, w), ...]
    base: str

    def to_json(self) -> str:
        doc = {
            "vertices": [{"id": v, "framing": f} for v, f in self.framing.items()],
            "edges": [[u, w] for u, w in self.edges],
            "base": self.base,
        }
        return json.dumps(doc)


@dataclass
class CliCall:
    """One `qplumb check-theorem` invocation and what it must return."""

    graph: Graph
    path: str  # graph file, relative to the checkout root
    rs: tuple
    mode: str  # "explicit" (colors given), "all" (every color) or "sampled"
    colors: dict | None = None
    seed: int = 0

    @property
    def argv(self) -> list:
        argv = ["check-theorem", "--r", ",".join(map(str, self.rs)), "--graph", self.path]
        if self.mode == "explicit":
            argv += ["--colors", ",".join(str(self.colors[v]) for v in self.graph.framing)]
        elif self.mode == "all":
            argv += ["--colors", "all"]
        return argv + ["--seed", str(self.seed)]

    def expected_per_r(self, r: int) -> int:
        if self.mode == "explicit":
            return 1
        if self.mode == "all":
            return (r - 1) ** len(self.graph.framing)
        return CLI_SAMPLES_PER_R

    @property
    def instances(self) -> int:
        return sum(self.expected_per_r(r) for r in self.rs)

    @property
    def sign_terms(self) -> int:
        """Sum of 2^|E| over the instances: regularized terms the check sums."""
        return self.instances * 2 ** len(self.graph.edges)


@dataclass
class LibGraph:
    """One large graph carried through parsing and the four evaluators."""

    name: str
    graph: Graph
    r: int
    rt_colors: dict  # S-module colors in 0..r-2
    rn_colors: dict = field(default_factory=dict)  # vertex -> (re, im), off the integers

    def job(self) -> dict:
        return {
            "name": self.name,
            "r": self.r,
            "text": self.graph.to_json(),
            "rt_colors": self.rt_colors,
            "rn_colors": self.rn_colors,
        }


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _pruefer_tree(rng: random.Random, n: int, mults) -> list:
    """Random labelled tree on 0..n-1 whose branching vertices have the given
    Pruefer multiplicities (degree - 1), decoded from a shuffled sequence."""
    hubs = rng.sample(range(n), len(mults))
    seq = [h for h, m in zip(hubs, mults) for _ in range(m)]
    rng.shuffle(seq)
    degree = [1] * n
    for h in seq:
        degree[h] += 1
    edges = []
    for h in seq:
        leaf = min(v for v in range(n) if degree[v] == 1)
        edges.append((leaf, h))
        degree[leaf] -= 1
        degree[h] -= 1
    u, w = (v for v in range(n) if degree[v] == 1)
    edges.append((u, w))
    return edges


def _labelled(rng, n, edges, framings) -> Graph:
    """Give the tree's nodes shuffled ids; the file lists them sorted, and its
    first vertex is the base."""
    ids = [f"v{i}" for i in range(n)]
    rng.shuffle(ids)
    framing = dict(sorted(zip(ids, framings)))
    return Graph(framing, [(ids[u], ids[w]) for u, w in edges], min(ids))


def tree_check(seed: int, out_dir: str) -> list:
    rng = _rng("tree-check", seed)
    calls = []
    for n, mults in TREE_SHAPES.items():
        for k in range(TREES_PER_SIZE):
            edges = _pruefer_tree(rng, n, mults)
            g = _labelled(rng, n, edges, [rng.randint(-2, 2) for _ in range(n)])
            # colors valid for every r in 3..5
            x = {v: rng.randint(1, min(TREE_R) - 1) for v in g.framing}
            path = f"{out_dir}/tree{n}_{k}.json"
            calls.append(CliCall(g, path, TREE_R, "explicit", x, seed))
    return calls


def large_r(seed: int, out_dir: str) -> list:
    rng = _rng("large-r", seed)
    hopf = Graph({"v1": rng.randint(-3, 3), "v2": rng.randint(-3, 3)}, [("v1", "v2")], "v1")
    path3 = Graph(
        {v: rng.randint(-2, 2) for v in ("a", "b", "c")}, [("a", "b"), ("b", "c")], "a"
    )
    return [
        CliCall(hopf, f"{out_dir}/hopf.json", (HOPF_R,), "all", None, seed),
        CliCall(path3, f"{out_dir}/path3.json", PATH_R, "sampled", None, seed),
    ]


def _random_attachment(rng, n) -> list:
    return [(rng.randrange(i), i) for i in range(1, n)]


def _caterpillar(rng, n) -> list:
    spine = (2 * n) // 5
    edges = [(i - 1, i) for i in range(1, spine)]
    edges += [(rng.randrange(spine), i) for i in range(spine, n)]
    return edges


def big_tree(seed: int) -> list:
    rng = _rng("big-tree", seed)
    out = []
    for kind, n, r in BIG_TREES:
        edges = _random_attachment(rng, n) if kind == "random" else _caterpillar(rng, n)
        ids = [f"n{i}" for i in range(n)]
        g = Graph(
            {ids[i]: rng.randint(-2, 2) for i in range(n)},
            [(ids[u], ids[w]) for u, w in edges],
            ids[0],
        )
        rt_colors = {v: rng.randint(0, r - 2) for v in g.framing}
        rn_colors = {
            v: (rng.randint(-r, r - 1) + rng.uniform(0.15, 0.85), rng.uniform(-0.25, 0.25))
            for v in g.framing
        }
        out.append(LibGraph(f"{kind}{n}", g, r, rt_colors, rn_colors))
    return out
