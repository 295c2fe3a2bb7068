"""Run reports and their byte-deterministic serialization.

Reports serialize to a single JSON object with sorted keys; every float is
rendered with 12 significant digits via the same formatter, so identical
inputs produce identical bytes regardless of platform or dict build order.

render_json is one pass that dispatches on the exact type of each value:
float, int, bool, str, None, list, tuple, and dict with str keys, quoted by
the encoder json.dumps itself calls. Anything else, a subclass such as
np.float64 or a dict with a non-str key included, raises TypeError.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _quote

from . import __version__ as TOOL_VERSION
from .mermin import BOUND_SLACK, COMPARISON_TOL, COMPLETE_SET_SLACK, WITNESS_TOL

REPORT_TOLERANCES = {
    "comparison": COMPARISON_TOL,
    "bound_slack": BOUND_SLACK,
    "complete_set_slack": COMPLETE_SET_SLACK,
    "witness": WITNESS_TOL,
}

_STR = {str}


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
        items = [f"{_quote(k)}: {_render(v)}" for k, v in sorted(obj.items())]
        return "{" + ", ".join(items) + "}"
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
    raise TypeError(f"cannot serialize {kind.__name__}")


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
