"""Span tracing of qplumb from outside the program, for the traced run.

`install` replaces every public function of each qplumb module, under every
name that the package or one of its modules holds it by, with a wrapper that
records a span; so a caller that looks the function up in its own module's
globals (``qplumb.cli.theorem_check``, ``qplumb.invariants.rn_regularized``)
reaches the wrapper.  The CycNumber operators are wrapped on the class,
``__rmul__`` and ``__radd__`` included, as are the PlumbedGraph and
SignAssignment methods that the evaluators call per vertex or per term.

A span is (name, parent span, start, end).  Spans are kept in memory in flat
arrays, in the order they were entered, and written out by `Tracer.dump` when
the process ends; `aggregate` turns the files into per-name and per-layer
figures.  A layer's self time is the time of its spans minus the time of
their child spans.
"""

from __future__ import annotations

import array
import functools
import inspect
import json
import sys
import time
from collections import Counter

LAYERS = ("cyclotomic", "numeric", "plumbing", "quantumrep", "invariants", "cli")

CYC_OPERATORS = {
    "__add__": "add",
    "__radd__": "add",
    "__sub__": "sub",
    "__rsub__": "sub",
    "__neg__": "neg",
    "__mul__": "mul",
    "__rmul__": "mul",
    "__truediv__": "div",
    "__rtruediv__": "div",
    "__pow__": "pow",
    "__eq__": "eq",
    "inv": "inv",
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array.array("i")
        self.parents = array.array("i")
        self.starts = array.array("d")
        self.ends = array.array("d")
        self._stack = [-1]
        self.yields: Counter = Counter()  # items produced by wrapped generators
        self.inv_operands: set = set()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return functools.update_wrapper(traced, fn)

    def wrap_generator(self, name: str, fn):
        """A generator function: one span per item produced, and a count of items."""
        yields = self.yields

        def traced(*args, **kwargs):
            step = self.wrap(name, fn(*args, **kwargs).__next__)
            while True:
                try:
                    item = step()
                except StopIteration:
                    return
                yields[name] += 1
                yield item

        return functools.update_wrapper(traced, fn)

    def dump(self, prefix: str) -> None:
        header = {
            "names": self.names,
            "spans": len(self.starts),
            "yields": dict(self.yields),
            "inv_distinct": len(self.inv_operands),
        }
        with open(prefix + ".json", "w", encoding="utf-8") as fh:
            json.dump(header, fh)
        with open(prefix + ".bin", "wb") as fh:
            for arr in (self.name_ids, self.parents, self.starts, self.ends):
                arr.tofile(fh)


def _wrappable(obj, module_name: str) -> bool:
    return (
        callable(obj)
        and not isinstance(obj, type)
        and getattr(obj, "__module__", None) == module_name
    )


def install(tracer: Tracer) -> None:
    """Wrap qplumb's public functions and the per-operation methods."""
    import qplumb.cli  # noqa: F401  (imports every layer module)

    modules = [sys.modules[f"qplumb.{layer}"] for layer in LAYERS]
    wrapped = {}
    for mod in modules:
        layer = mod.__name__.rsplit(".", 1)[1]
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not _wrappable(obj, mod.__name__):
                continue
            wrap = tracer.wrap_generator if inspect.isgeneratorfunction(obj) else tracer.wrap
            wrapped[id(obj)] = (obj, wrap(f"{layer}.{attr}", obj))
    for holder in [sys.modules["qplumb"]] + modules:
        for attr, obj in list(vars(holder).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(holder, attr, hit[1])

    from qplumb.cyclotomic import CycNumber
    from qplumb.plumbing import PlumbedGraph, SignAssignment

    for attr, op in CYC_OPERATORS.items():
        setattr(CycNumber, attr, tracer.wrap(f"cyclotomic.{op}", vars(CycNumber)[attr]))
    traced_inv = CycNumber.inv

    def inv(x):
        tracer.inv_operands.add((x.ctx.r, x.coeffs))
        return traced_inv(x)

    CycNumber.inv = inv
    PlumbedGraph.build = classmethod(tracer.wrap("plumbing.build", vars(PlumbedGraph)["build"].__func__))
    PlumbedGraph.edge_order = tracer.wrap("plumbing.edge_order", PlumbedGraph.edge_order)
    SignAssignment.path_sign = tracer.wrap("plumbing.path_sign", SignAssignment.path_sign)


# -- reading traces back -------------------------------------------------------


def _load(prefix: str):
    with open(prefix + ".json", encoding="utf-8") as fh:
        header = json.load(fh)
    n = header["spans"]
    arrays = [array.array("i"), array.array("i"), array.array("d"), array.array("d")]
    with open(prefix + ".bin", "rb") as fh:
        for arr in arrays:
            arr.fromfile(fh, n)
    return header, arrays


def aggregate(prefixes) -> dict:
    """Per span name: calls, time of the outermost spans of that name, and self
    time; per layer: self time.  Also the generator item counts and the
    distinct operands of `inv`, summed over the processes."""
    calls, incl, self_s = Counter(), Counter(), Counter()
    yields, inv_distinct = Counter(), 0
    for prefix in prefixes:
        header, (name_ids, parents, starts, ends) = _load(prefix)
        names = header["names"]
        yields.update(header["yields"])
        inv_distinct += header["inv_distinct"]
        n = len(starts)
        child = [0.0] * n
        for i in range(n):
            if parents[i] >= 0:
                child[parents[i]] += ends[i] - starts[i]
        open_spans, open_names = [], Counter()
        for i in range(n):
            while open_spans and open_spans[-1] != parents[i]:
                open_names[name_ids[open_spans.pop()]] -= 1
            nid = name_ids[i]
            dur = ends[i] - starts[i]
            name = names[nid]
            calls[name] += 1
            self_s[name] += dur - child[i]
            if not open_names[nid]:
                incl[name] += dur
            open_names[nid] += 1
            open_spans.append(i)
    layer_self = Counter()
    for name, t in self_s.items():
        layer_self[name.split(".", 1)[0]] += t
    return {
        "calls": calls,
        "time": incl,
        "layer_self": layer_self,
        "yields": yields,
        "inv_distinct": inv_distinct,
    }
