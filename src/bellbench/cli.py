"""bellctl: command-line front end for the workbench.

One subcommand per claim cluster: `correlators` (the shared pair's
two-party table and its CHSH quadruples), `analyze` (Bell-Mermin /
Bell-Zukowski pipeline for N shared copies), `sweep` (visibility grid as
CSV), `verify-appendix` (quadrature exactness, GHZ diagonality,
step-function bounds), and `lhv` (local-model feasibility of a correlation
table from file or stdin).

Exit codes: 0 success (verdicts are data, not errors), 2 usage or parse
errors and unwritable output (a closed standard output included), 3 internal
numerical failure.

`lhv` reads at most MAX_LHV_INPUT_CHARS characters, rejects a repeated JSON
key, builds its table (lhv.CorrelationTable, the only check of a table),
decides it (lhv.lhv_feasible) and checks the verdict's certificate
(lhv.certify); `correlators` reads its quadruples and their verdict from the
same sign transform (lhv.quadruple_values, lhv.lhv_feasible).
`analyze`, `sweep` and usage errors import none of numpy, dataclasses,
bellbench.lhv and the appendix layer, bellbench.zukowski; `correlators` and an
infeasible `lhv` table import bellbench.lhv but none of the other three. numpy
is loaded only by two functions, on their first call: the witness rebuild of a
feasible `lhv` verdict, one matrix product over the two halves of the parties
(lhv.witness_reconstruction_error), and the step-function draw of
`verify-appendix` (zukowski.sampled_maxima).
`correlators` and `analyze` read the pair's table from its two amplitudes
(mermin.pair_table), `analyze` as the one input of its N-copy contraction; no
subcommand builds a density matrix or a dense operator: `verify-appendix`
checks the Bell-Zukowski quadrature and its GHZ diagonality on the operator's
n + 1 distinct entries. `sweep` fills one row template per copy count and
writes each count's block as soon as it is formatted, at most MAX_SWEEP_ROWS
rows, counted by bisection before the grid is built. Each input limit is one
rule: the parser types take a visibility in [0, 1], a finite positive step
and copy counts in [1, MAX_COPIES]. Each subparser binds its handler.
"""

from __future__ import annotations

import argparse
import bisect
import functools
import itertools
import json
import math
import os
import sys
from collections.abc import Iterable, Iterator

from .mermin import (
    BOUND_SLACK,
    COMPARISON_TOL,
    bell_relation_scale,
    local_bound_check,
    mermin_expectation,
    modified_mermin_bound,
    pair_table,
    threshold_visibility,
    zukowski_from_mermin,
)
from .report import envelope, format_float, render_json

USAGE_ERROR = 2
NUMERICAL_ERROR = 3

# Copy counts analyze and sweep take: every reported number stays finite.
# The closed forms overflow past about N = 3300, and format_float(inf) would
# render non-JSON `inf`.
MAX_COPIES = 512
# Rows a sweep may write, over all its copy counts: 6 counts x 100001 points.
MAX_SWEEP_ROWS = 600_006
# Trials x grid cells a verify-appendix request may ask for; the default
# 10000 x 64 is 640000. Each trial is a triple of step functions, so the
# draw takes three times this many signs.
MAX_APPENDIX_CELLS = 2**22
# Step-function cells: the draw's byte table (zukowski.sampled_maxima) holds
# 256 complex values per byte of a function, 256 x ceil(cells / 8), 2 MiB at
# the cap.
MAX_APPENDIX_GRID = 2**12
# Characters `lhv` reads; a 12-party table at full precision is about 152 KiB.
MAX_LHV_INPUT_CHARS = 2**24


class CliError(Exception):
    """A usage, input or output error: exit code USAGE_ERROR."""


def _visibility(text: str) -> float:
    try:
        v = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not 0.0 <= v <= 1.0:
        raise argparse.ArgumentTypeError(f"visibility must lie in [0, 1], got {v}")
    return v + 0.0  # -0.0 reads as 0.0, as the sweep grid does


def _v_step(text: str) -> float:
    try:
        step = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not 0.0 < step < math.inf:
        raise argparse.ArgumentTypeError(f"step must be finite and positive, got {step}")
    return step


def _copies(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if not 1 <= n <= MAX_COPIES:
        raise argparse.ArgumentTypeError(f"copy count must lie in [1, {MAX_COPIES}], got {n}")
    return n


def _copies_list(text: str) -> list[int]:
    return [_copies(part) for part in text.split(",")]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The bellctl parser, built once per process and shared by every call."""
    parser = argparse.ArgumentParser(
        prog="bellctl",
        description="Bell-Mermin / Bell-Zukowski numerical workbench",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p, handler):
        """--output, and the handler that returns the text blocks to write;
        it names its cmd_* in its body, so that is looked up at call time."""
        p.add_argument("--output", metavar="PATH", default=None,
                       help="write to PATH instead of standard output")
        p.set_defaults(handler=handler)

    p = sub.add_parser("correlators", help="two-party correlators and CHSH-type checks")
    p.add_argument("--visibility", type=_visibility, required=True)
    add_output(p, lambda a: [render_json(cmd_correlators(a.visibility))])

    p = sub.add_parser("analyze", help="Bell operator pipeline for N shared copies")
    p.add_argument("--visibility", type=_visibility, required=True)
    p.add_argument("--copies", type=_copies, required=True, metavar="N")
    add_output(p, lambda a: [render_json(cmd_analyze(a.visibility, a.copies))])

    p = sub.add_parser("sweep", help="visibility/copies grid as CSV")
    p.add_argument("--v-min", type=_visibility, required=True)
    p.add_argument("--v-max", type=_visibility, required=True)
    p.add_argument("--v-step", type=_v_step, required=True)
    p.add_argument("--copies", type=_copies_list, required=True,
                   metavar="N1,N2,...")
    add_output(p, lambda a: cmd_sweep(a.v_min, a.v_max, a.v_step, a.copies))

    p = sub.add_parser("verify-appendix", help="quadrature, diagonality and bound checks")
    p.add_argument("--grid", type=int, default=64, metavar="G",
                   help="step-function cells (even, default 64)")
    p.add_argument("--trials", type=int, default=10000, metavar="T")
    p.add_argument("--seed", type=int, default=42)
    add_output(p, lambda a: [render_json(cmd_verify_appendix(a.grid, a.trials, a.seed))])

    p = sub.add_parser("lhv", help="local-model feasibility of a correlation table")
    p.add_argument("--input", metavar="PATH", default=None,
                   help="correlation-table JSON (default: standard input)")
    add_output(p, lambda a: [render_json(cmd_lhv(_read_input(a.input)))])

    return parser


def cmd_correlators(visibility: float) -> dict:
    from .lhv import CorrelationTable, lhv_feasible, quadruple_values

    table = CorrelationTable(pair_table(visibility))
    return envelope(
        command="correlators",
        parameters={"visibility": visibility},
        results={"quadruples": quadruple_values(table), "table": table.values},
        verdicts={"lhv_feasible": lhv_feasible(table).feasible},
    )


def cmd_analyze(visibility: float, n_copies: int) -> dict:
    mermin_value = mermin_expectation(pair_table(visibility), visibility, n_copies)
    zukowski_value = zukowski_from_mermin(mermin_value, n_copies)
    mermin_ok = local_bound_check(mermin_value)
    zukowski_ok = local_bound_check(zukowski_value)
    results = {
        "mermin_value": mermin_value,
        "zukowski_value": zukowski_value,
        "modified_bound": modified_mermin_bound(n_copies),
    }
    if n_copies >= 2:
        results["threshold_visibility"] = threshold_visibility(n_copies)
    return envelope(
        command="analyze",
        parameters={"visibility": visibility, "copies": n_copies},
        results=results,
        verdicts={
            "mermin_satisfied": mermin_ok,
            "zukowski_satisfied": zukowski_ok,
            "conflict_revealed": mermin_ok and not zukowski_ok,
        },
    )


def sweep_grid(v_min: float, v_max: float, v_step: float, max_points: int) -> list[float]:
    """v_min + k v_step up to v_max; CliError if empty or over max_points.

    With v_step > 0 the point v_min + k v_step never decreases in k, so one
    bisection counts the points up to v_max + 1e-12, where the grid stops,
    before any list is built. Counting (v_max - v_min) / v_step would miss
    some: a tiny step fits many points in the slack alone (1e-12 / 1e-300),
    and rounding adds more (0.5 + 1e-17 is 0.5)."""
    points = bisect.bisect_right(range(max_points + 1), v_max + 1e-12,
                                 key=lambda k: v_min + k * v_step)
    if points > max_points:
        raise CliError(f"sweep exceeds the {MAX_SWEEP_ROWS}-row cap (more than {max_points} "
                       "grid points per copy count); use a larger step")
    if not points:
        raise CliError("empty visibility grid")
    return [min(v_min + k * v_step, 1.0) for k in range(points)]


def cmd_sweep(v_min: float, v_max: float, v_step: float, copies_list: list[int]) -> Iterator[str]:
    """CSV over the grid, copy count outer, visibility inner: the header, then
    one block per copy count, made as it is written. The grid is checked on
    the call, before any block is made.

    Values use the closed forms <B> = V^N and <Z_2N> = scale(N) <B>, the
    numbers zukowski_from_mermin gives; the agreement of V^N with the
    per-pair contraction is enforced by the mermin_expectation contract and
    does not need to be recomputed per row. On V >= 0, which _visibility
    guarantees, <Z> never decreases along the grid, so local_bound_check's
    verdict is a run of "false" rows, then one of "true" rows, split by one
    bisection. Each copy count's block is one %-format of those two runs of
    a row template holding N and the rendered bound, over the flat (V, <B>,
    <Z>) fields of all rows; "%.12g" renders a float as format_float does.
    """
    grid = sweep_grid(v_min, v_max, v_step, MAX_SWEEP_ROWS // len(copies_list))
    fields = [None] * (3 * len(grid))
    fields[0::3] = [format_float(v) for v in grid]

    def block(n: int) -> str:
        scale = bell_relation_scale(n)
        row = f"%s,{n},%.12g,%.12g,{format_float(modified_mermin_bound(n))},"
        fields[1::3] = mermin = [v**n for v in grid]
        fields[2::3] = zukowski = [scale * m for m in mermin]
        k = bisect.bisect_right(zukowski, 1.0 + BOUND_SLACK)
        return ((row + "false\n") * k + (row + "true\n") * (len(grid) - k)) % tuple(fields)

    return itertools.chain(["V,N,mermin,zukowski,modified_bound,violated\n"],
                           map(block, copies_list))


def cmd_verify_appendix(grid_cells: int, trials: int, seed: int) -> dict:
    if grid_cells < 2 or grid_cells % 2 != 0:
        raise CliError(f"grid cells must be even and >= 2, got {grid_cells}")
    if trials < 1:
        raise CliError(f"trials must be >= 1, got {trials}")
    if grid_cells > MAX_APPENDIX_GRID:
        raise CliError(f"grid cells must not exceed {MAX_APPENDIX_GRID}, got {grid_cells}")
    if trials * grid_cells > MAX_APPENDIX_CELLS:
        raise CliError(f"trials x grid cells must not exceed {MAX_APPENDIX_CELLS}, "
                       f"got {trials} x {grid_cells}")

    from . import zukowski as zk

    quad_error = max(zk.closed_vs_quadrature_error(n) for n in (2, 3, 4))
    # diagonality is checked on the quadrature operator (the integral route)
    offdiag = max(zk.ghz_offdiagonal_max(n) for n in (2, 3, 4))

    extremal = zk.z_prime_functional(zk.sign_cos_step(grid_cells))
    extremal_error = abs(extremal - 2.0)
    max_z, max_s_n2, max_s_n3 = zk.sampled_maxima(grid_cells, trials, seed)

    return envelope(
        command="verify-appendix",
        parameters={
            "grid_cells": grid_cells,
            "trials": trials,
            "seed": seed,
            "quadrature_nodes": zk.NODES_PER_AXIS,
        },
        results={
            "quadrature_max_error": quad_error,
            "ghz_offdiagonal_max": offdiag,
            "extremal_z_prime_real": extremal.real,
            "extremal_z_prime_error": extremal_error,
            "max_abs_z_prime": max_z,
            "max_abs_s_n2": max_s_n2,
            "max_abs_s_n3": max_s_n3,
        },
        verdicts={
            "quadrature_exact": quad_error < COMPARISON_TOL,
            "ghz_diagonal": offdiag < BOUND_SLACK,
            "extremal_achieved": extremal_error <= BOUND_SLACK,
            "z_prime_bounded": max_z <= 2 + BOUND_SLACK,
            "s_bounded_n2": max_s_n2 <= 2**2 + BOUND_SLACK,
            "s_bounded_n3": max_s_n3 <= 2**3 + BOUND_SLACK,
        },
    )


def _unique_keys(pairs: list) -> dict:
    """JSON object hook: the object, or CliError naming its first repeated key."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise CliError(f"invalid correlation table: repeated key {key!r}")
        obj[key] = value
    return obj


def load_table(text: str):
    """The CorrelationTable in `text`: a bare table, or a correlators report."""
    from .lhv import CorrelationTable

    # json.loads raises ValueError on malformed text, a leading byte order
    # mark and integer literals over Python's digit limit, RecursionError on
    # too deep a nesting; float() raises OverflowError on an integer too large
    # for a float.
    try:
        obj = json.loads(text, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:
        raise CliError(f"invalid JSON: {exc}")
    if isinstance(obj, dict) and isinstance(obj.get("results"), dict) \
            and isinstance(obj["results"].get("table"), dict):
        obj = obj["results"]["table"]
    try:
        return CorrelationTable(obj)
    except (ValueError, TypeError, OverflowError) as exc:
        raise CliError(f"invalid correlation table: {exc}")


def cmd_lhv(text: str) -> dict:
    from .lhv import certify, lhv_feasible

    table = load_table(text)
    verdict = lhv_feasible(table)
    certificate, certified = certify(table, verdict)
    return envelope(
        command="lhv",
        parameters={},
        results={"parties": table.n_parties, "complete_set_sum": verdict.sign_sum, **certificate},
        verdicts={"lhv_feasible": verdict.feasible, "oracles_agree": certified},
    )


def _read_input(path: str | None) -> str:
    """Table text from PATH, or from standard input when PATH is None, of at
    most MAX_LHV_INPUT_CHARS characters."""
    source = "standard input" if path is None else path
    try:
        if path is None:
            text = sys.stdin.read(MAX_LHV_INPUT_CHARS + 1)
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read(MAX_LHV_INPUT_CHARS + 1)
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {source}: {exc}")
    if len(text) > MAX_LHV_INPUT_CHARS:
        raise CliError(f"{source} exceeds the {MAX_LHV_INPUT_CHARS}-character input cap")
    return text


def _write_output(path: str | None, blocks: Iterable[str]) -> None:
    """Write the text `blocks`, each as it is made, to PATH, or to standard
    output when PATH is None.

    Standard output is flushed here, so a closed pipe is reported as a
    write error instead of surfacing at interpreter exit.
    """
    try:
        if path is None:
            sys.stdout.writelines(blocks)
            sys.stdout.flush()
            return
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(blocks)
    except OSError as exc:
        raise CliError(f"cannot write {'standard output' if path is None else path}: {exc}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _write_output(args.output, args.handler(args))
    except CliError as exc:
        print(f"bellctl: error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except ArithmeticError as exc:
        print(f"bellctl: numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR
    return 0


def run() -> None:
    """Console entry point: exit with main's code."""
    try:
        sys.exit(main())
    finally:
        try:
            sys.stdout.flush()
        except OSError:
            # Standard output is gone (main reports that for its reports);
            # what is still buffered goes to the null device, so the
            # interpreter's final flush prints no second error.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
