"""Run reports and their byte-deterministic serialization.

Reports serialize to a single JSON object with sorted keys; every float is
rendered with 12 significant digits via the same formatter, so identical
inputs produce identical bytes regardless of platform or dict build order.

render_json is one pass that dispatches on the exact type of each value;
strings and keys are quoted by the encoder json.dumps itself calls, and a
dict of str keys and float values (a witness, its coefficients, the
tolerances) renders in one comprehension. Subclasses (np.float64, a str or
dict subclass) and non-str keys take the isinstance chain, which renders
them as their base type.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _quote

from . import __version__ as TOOL_VERSION
from .mermin import BOUND_SLACK, COMPARISON_TOL, COMPLETE_SET_SLACK

REPORT_TOLERANCES = {
    "comparison": COMPARISON_TOL,
    "bound_slack": BOUND_SLACK,
    "complete_set_slack": COMPLETE_SET_SLACK,
}

_STR, _FLOAT = {str}, {float}


def format_float(x: float) -> str:
    return format(float(x), ".12g")


def render_json(obj) -> str:
    """Deterministic JSON: sorted keys, 12-significant-digit floats."""
    return _render(obj) + "\n"


def _render(obj) -> str:
    kind = type(obj)
    if kind is float:
        return f"{obj:.12g}"
    if kind is dict and set(map(type, obj)) <= _STR:
        items = sorted(obj.items())
        if set(map(type, obj.values())) == _FLOAT:
            return "{" + ", ".join([f"{_quote(k)}: {v:.12g}" for k, v in items]) + "}"
        return "{" + ", ".join([f"{_quote(k)}: {_render(v)}" for k, v in items]) + "}"
    if kind is str:
        return _quote(obj)
    if kind is bool:
        return "true" if obj else "false"
    if kind is int:
        return str(obj)
    if kind is list or kind is tuple:
        return "[" + ", ".join([_render(v) for v in obj]) + "]"
    if obj is None:
        return "null"
    return _render_instance(obj)


def _render_instance(obj) -> str:
    """Subclasses, rendered as their base type, and dicts with a key that is
    not an exact str, each key through str(). bool and None, which cannot be
    subclassed, never get here."""
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, str):
        return _quote(obj)
    if isinstance(obj, dict):
        items = ", ".join([f"{_quote(str(k))}: {_render(v)}" for k, v in sorted(obj.items())])
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join([_render(v) for v in obj]) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def envelope(command: str, parameters: dict, results: dict, verdicts: dict) -> dict:
    """The object every JSON report renders: the subcommand's parameters,
    results and verdicts next to the tool version and the tolerances."""
    return {
        "command": command,
        "parameters": parameters,
        "results": results,
        "verdicts": verdicts,
        "tool_version": TOOL_VERSION,
        "tolerances": REPORT_TOLERANCES,
    }
