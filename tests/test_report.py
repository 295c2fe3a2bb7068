"""bellbench.report.render_json against a reference renderer: the recursive
isinstance chain it replaced, kept here as the oracle. render_json dispatches
on exact builtin types only, the ones a report is built from; on generated
nested values of those types the two must give the same bytes. A subclass
(np.float64, OrderedDict, IntEnum), np.bool_ or a non-str key, which the
reference renders as its base type or through str(), raises TypeError.
Needs the optional `hypothesis` test dependency; examples are derandomized
so the suite stays deterministic.
"""

import collections
import enum
import json
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from bellbench.report import render_json  # noqa: E402


def reference_render(obj) -> str:
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format(float(obj), ".12g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    if isinstance(obj, dict):
        items = ", ".join(
            f"{json.dumps(str(k))}: {reference_render(v)}" for k, v in sorted(obj.items())
        )
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(reference_render(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


EDGE_FLOATS = [-0.0, 5e-324, 1e16, 0.1, 1 / 3, -1e-300, math.inf, -math.inf, math.nan]
EDGE_TEXT = ['"', "\\", 'a"b\\c', "é", "ß ", "\x00\n\t", "\ud800", "日本", "\U0001f600"]

FLOATS = st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS))
TEXT = st.one_of(st.text(max_size=8), st.sampled_from(EDGE_TEXT))
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-(2**80), 2**80), FLOATS, TEXT,
)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(TEXT, children, max_size=5),
        # Every value a float, or nearly, as in a witness or its coefficients.
        st.dictionaries(TEXT, FLOATS, max_size=8),
        st.dictionaries(TEXT, st.one_of(FLOATS, st.integers()), max_size=8),
    )


NESTED = st.recursive(SCALARS, _containers, max_leaves=40)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(NESTED)
@example({"XX": -0.0, "XY": 5e-324, "YX": 1e16, "YY": 0.1})
@example({"a": 0.1, "b": 1 / 3, "c": True, "d": 1, "e": None, "f": (1, False)})
@example({'q"uote': "back\\slash", "é": ["ü", (" ",)], "": {}})
@example([True, 1, 1.0, -0.0, None, (), []])
def test_render_json_matches_reference_renderer(value):
    assert render_json(value) == reference_render(value) + "\n"


@pytest.mark.parametrize("value", [{1, 2}, {"a": complex(1, 2)}, [b"bytes"], np.int64(3)],
                         ids=["set", "complex-value", "bytes-item", "np-int64"])
def test_unserializable_values_raise_as_the_reference_does(value):
    with pytest.raises(TypeError) as ours:
        render_json(value)
    with pytest.raises(TypeError) as reference:
        reference_render(value)
    assert str(ours.value) == str(reference.value)


class Level(enum.IntEnum):
    ONE = 1


@pytest.mark.parametrize("value", [
    np.float64(0.1), np.bool_(True), collections.OrderedDict(a=0.5), {1: 0.5}, Level.ONE,
], ids=["np-float64", "np-bool", "ordered-dict", "int-key", "int-enum"])
def test_values_beyond_exact_builtins_raise(value):
    with pytest.raises(TypeError) as ours:
        render_json({"results": [value]})
    assert str(ours.value) == f"cannot serialize {type(value).__name__}"
