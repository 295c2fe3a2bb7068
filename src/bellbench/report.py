"""Run reports and their byte-deterministic serialization.

Reports serialize to a single JSON object with sorted keys; every float is
rendered with 12 significant digits via the same formatter, so identical
inputs produce identical bytes regardless of platform or dict build order.
"""

from __future__ import annotations

import json

from . import __version__ as TOOL_VERSION
from .mermin import BOUND_SLACK, COMPARISON_TOL, COMPLETE_SET_SLACK

REPORT_TOLERANCES = {
    "comparison": COMPARISON_TOL,
    "bound_slack": BOUND_SLACK,
    "complete_set_slack": COMPLETE_SET_SLACK,
}


def format_float(x: float) -> str:
    return format(float(x), ".12g")


def render_json(obj) -> str:
    """Deterministic JSON: sorted keys, 12-significant-digit floats."""
    return _render(obj) + "\n"


def _render(obj) -> str:
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    if isinstance(obj, dict):
        items = ", ".join(
            f"{json.dumps(str(k))}: {_render(v)}" for k, v in sorted(obj.items())
        )
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_render(v) for v in obj) + "]"
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
