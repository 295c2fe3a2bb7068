"""Run reports and their byte-deterministic serialization.

Reports serialize to a single JSON object with sorted keys; every float is
rendered with 12 significant digits via the same formatter, so identical
inputs produce identical bytes regardless of platform or dict build order.
"""

from __future__ import annotations

from .mermin import BOUND_SLACK, COMPARISON_TOL, COMPLETE_SET_SLACK

TOOL_VERSION = "0.1.0"

REPORT_TOLERANCES = {
    "comparison": COMPARISON_TOL,
    "bound_slack": BOUND_SLACK,
    "complete_set_slack": COMPLETE_SET_SLACK,
    # The program reads none of these three; the keys keep report bytes
    # stable. lp_residual is the residual tolerance of the test suite's LP.
    "hermiticity": 1e-12,
    "psd_floor": -1e-10,
    "lp_residual": 1e-9,
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
        return _render_string(obj)
    if obj is None:
        return "null"
    if isinstance(obj, dict):
        items = ", ".join(
            f"{_render_string(str(k))}: {_render(v)}" for k, v in sorted(obj.items())
        )
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_render(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _render_string(s: str) -> str:
    out = ['"']
    for ch in s:
        if ch in ('"', "\\"):
            out.append("\\" + ch)
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    out.append('"')
    return "".join(out)


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
