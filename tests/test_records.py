"""The value classes without dataclasses: constructors, ==, hash, repr and
frozen attributes, and an import of the CLI that leaves dataclasses out."""

import os
import pathlib
import subprocess
import sys

import pytest

import qplumb
from qplumb.cyclotomic import RootContext, make_context
from qplumb.invariants import TheoremReport
from qplumb.numeric import NumericContext
from qplumb.plumbing import ColorVector, PlumbedGraph, SignAssignment
from qplumb.quantumrep import ModuleAction, RelationCheck, RelationReport

from conftest import path_graph


def test_cli_import_leaves_out_dataclasses():
    src = str(pathlib.Path(qplumb.__file__).resolve().parent.parent)
    code = "import sys, qplumb.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout == "[]\n"


GRAPH = path_graph(2)

FROZEN = [
    (RootContext(3), RootContext(r=3), RootContext(4), "RootContext(r=3)"),
    (
        NumericContext(3),
        NumericContext(r=3, precision_bits=53, tolerance=1e-9),
        NumericContext(3, 80),
        "NumericContext(r=3, precision_bits=53, tolerance=1e-09)",
    ),
    (
        GRAPH,
        PlumbedGraph(vertices=("p0", "p1"), framings=(0, 0), edges=(("p0", "p1"),), base="p0"),
        GRAPH.with_base("p1"),
        "PlumbedGraph(vertices=('p0', 'p1'), framings=(0, 0), edges=(('p0', 'p1'),), base='p0')",
    ),
    (
        ColorVector("exact", {"p0": 1}),
        ColorVector.exact({"p0": 1}),
        ColorVector("numeric", {"p0": 1}),
        "ColorVector(mode='exact', values={'p0': 1})",
    ),
    (
        SignAssignment({("p0", "p1"): 1}),
        SignAssignment(signs={("p0", "p1"): 1}),
        SignAssignment({("p0", "p1"): -1}),
        "SignAssignment(signs={('p0', 'p1'): 1})",
    ),
]


@pytest.mark.parametrize("obj, same, other, text", FROZEN, ids=lambda o: type(o).__name__)
def test_frozen_record(obj, same, other, text):
    assert obj == same and obj != other and obj != text
    assert repr(obj) == text
    for name in obj._fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
    with pytest.raises(AttributeError):
        del obj._fields
    try:
        hash(obj)
    except TypeError:  # a dict field, as with a frozen dataclass
        assert isinstance(obj, (ColorVector, SignAssignment))
    else:
        assert hash(obj) == hash(same)


def test_root_context_is_an_lru_cache_key():
    assert {make_context(5): 1}[RootContext(5)] == 1
    with pytest.raises(ValueError, match="r must be an integer >= 2"):
        RootContext(1)


def test_plumbed_graph_validates_and_caches():
    with pytest.raises(Exception, match="base vertex 'x' is not declared"):
        PlumbedGraph(("a", "b"), (0, 0), (("a", "b"),), "x")
    assert GRAPH.framing == {"p0": 0, "p1": 0}  # a cached_property is still stored
    assert GRAPH.with_base("p1").base == "p1"


def test_mutable_records():
    rep = TheoremReport(3, {"a": 1}, 1, 1, True, 1j, 1j)
    assert rep == TheoremReport(r=3, x={"a": 1}, lhs=1, rhs=1, equal=True, lhs_numeric=1j, rhs_numeric=1j)
    assert repr(rep) == (
        "TheoremReport(r=3, x={'a': 1}, lhs=1, rhs=1, equal=True, lhs_numeric=1j, rhs_numeric=1j)"
    )
    rep.equal = False
    assert rep != TheoremReport(3, {"a": 1}, 1, 1, True, 1j, 1j)

    check = RelationCheck("KE", True, 0.0)
    assert repr(check) == "RelationCheck(name='KE', ok=True, deviation=0.0)"
    report = RelationReport("simple", 2)
    assert report.checks == [] and report.checks is not RelationReport("simple", 2).checks
    assert repr(report) == "RelationReport(kind='simple', param=2, checks=[])"
    action = ModuleAction("simple", 0, 1, [], [], [], [])
    assert (action.H, action.ctx) == (None, None)
    assert action == ModuleAction("simple", 0, 1, [], [], [], [], H=None, ctx=None)
    for obj in (rep, check, report, action):
        with pytest.raises(TypeError):
            hash(obj)
