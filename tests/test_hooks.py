"""The names the benchmark under bench/ hooks into, and the public surface.

bench/spans.py wraps these functions and methods by name and bench/run.py
cross-checks its span counts against counts derived from the inputs, so a
rename or a change from generator to list would break the traced run.
"""

import inspect
import pathlib

import qplumb
import qplumb.cli
from qplumb import invariants, plumbing
from qplumb.cyclotomic import make_context
from qplumb.plumbing import PlumbedGraph, SignAssignment

GRAPHS = pathlib.Path(__file__).resolve().parent.parent / "graphs"


def test_hooked_names_exist():
    assert isinstance(vars(PlumbedGraph)["build"], classmethod)
    assert callable(PlumbedGraph.edge_order)
    assert list(inspect.signature(SignAssignment.path_sign).parameters) == ["self", "graph", "v"]
    assert callable(plumbing.parse_graph)
    assert qplumb.cli.theorem_check is invariants.theorem_check
    assert callable(invariants.rn_regularized)
    for name in (
        "parse_graph", "make_context", "zeta_pow", "NumericContext", "rt_plumbed",
        "rt_plumbed_recursive", "rn_plumbed_numeric", "rn_plumbed_recursive",
    ):
        assert callable(getattr(qplumb, name)), name


def test_enumerate_signs_is_a_generator():
    assert inspect.isgeneratorfunction(plumbing.enumerate_signs)


def test_theorem_check_calls_rn_regularized_once_per_assignment(monkeypatch):
    calls = []
    real = invariants.rn_regularized

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(invariants, "rn_regularized", counting)
    graph = plumbing.load_graph(GRAPHS / "star3.json")
    x = {v: 1 + i % 3 for i, v in enumerate(graph.vertices)}
    report = qplumb.cli.theorem_check(make_context(4), graph, x)
    assert report.equal
    assert len(calls) == 2 ** len(graph.edges)


def test_negate_prefactor_is_accepted(capsys):
    argv = ["check-theorem", "--r", "2", "--graph", str(GRAPHS / "hopf.json"), "--negate-prefactor"]
    assert qplumb.cli.main(argv) == qplumb.cli.EXIT_CHECK_FAILED
    assert capsys.readouterr().out


def test_all_names_resolve():
    assert len(set(qplumb.__all__)) == len(qplumb.__all__)
    for name in qplumb.__all__:
        assert hasattr(qplumb, name), name
