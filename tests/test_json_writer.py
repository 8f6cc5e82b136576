"""The CLI's streaming JSON writer against json.dumps(indent=2, sort_keys=True)."""

import argparse
import io
import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from qplumb.cli import _emit, _SharedValue, _write_json

# quotes, backslashes, control and non-ASCII characters, besides the defaults
TEXT = st.text(
    alphabet=st.one_of(st.sampled_from('"\\/\n\t\x00\x1f\x7fé \U0001f600'), st.characters())
)
SCALARS = st.one_of(
    st.integers(min_value=-(2**80), max_value=2**80),
    TEXT,
    st.booleans(),
    st.none(),
)
DOCS = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.dictionaries(TEXT, inner, max_size=5),
    ),
    max_leaves=40,
)


@given(DOCS)
@example({"b": [], "a": {}, "c": [[], {}, [None, True, False, -(2**70)]], "d": {"z": {}, "": []}})
@settings(max_examples=300, deadline=None)
def test_writer_matches_json_dumps(doc):
    chunks = []
    _write_json(doc, chunks.append)
    assert "".join(chunks) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


@st.composite
def docs_with_shared_values(draw):
    """A document whose leaves may be shared objects, each of which may hold
    earlier ones, so one object appears at several positions and depths."""
    pool = []
    for _ in range(draw(st.integers(1, 3))):
        inner = st.one_of(DOCS, st.sampled_from(pool)) if pool else DOCS
        pool.append(_SharedValue(draw(st.dictionaries(TEXT, inner, max_size=4))))
    leaves = st.one_of(SCALARS, st.sampled_from(pool))
    return draw(
        st.recursive(
            leaves,
            lambda inner: st.one_of(
                st.lists(inner, max_size=5), st.dictionaries(TEXT, inner, max_size=5)
            ),
            max_leaves=30,
        )
    )


SHARED = _SharedValue({"coeffs": [[1, 2], [-3, 4]], "approx": "0.5+0i", "empty": {}})


@given(docs_with_shared_values())
@example([SHARED, {"a": SHARED, "b": [SHARED, {"c": SHARED}]}, _SharedValue(), SHARED])
@example({"x": _SharedValue({"inner": SHARED}), "y": SHARED, "z": [[_SharedValue({"i": SHARED})]]})
@settings(max_examples=300, deadline=None)
def test_writer_matches_json_dumps_with_shared_values(doc):
    chunks = []
    _write_json(doc, chunks.append)
    assert "".join(chunks) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


class CountingFile(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, s):
        self.writes += 1
        return super().write(s)


def test_large_document_reaches_the_file_in_several_writes():
    # about 15 pieces per record, 30000 in all
    records = [{"r": i, "x": {"v": -i}, "approx": f"{i}+0i"} for i in range(2000)]
    args = argparse.Namespace(format="json", command="check-theorem", seed=3)
    out = CountingFile()
    _emit(args, records, out)
    doc = {"command": "check-theorem", "seed": 3, "records": records}
    assert out.getvalue() == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert out.writes > 1


def test_shared_value_larger_than_a_chunk_is_written_whole():
    # a shared value of about 7500 pieces, at two depths, among 2000 records
    block = _SharedValue({"coeffs": [[i, i + 1] for i in range(1500)], "approx": "1+0i"})
    records = [{"r": i, "x": {"v": -i}} for i in range(2000)]
    for rec in records[::500]:
        rec.update(lhs=block, rhs=block, nested={"v": [block]})
    args = argparse.Namespace(format="json", command="check-theorem", seed=0)
    out = CountingFile()
    _emit(args, records, out)
    doc = {"command": "check-theorem", "seed": 0, "records": records}
    assert out.getvalue() == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert out.writes > 1
