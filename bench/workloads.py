"""Seeded request scripts for the two bellctl benchmark workloads.

A workload is a fixed recipe for one session: the requests a user makes to
reproduce one set of the paper's claims. Session i of a run draws its inputs
from Random("<workload>:<seed>:<i>"), so the same seed gives the same requests
on every machine. The program sees only the generated argv and table JSON; the
ground truth each request is checked against is built here, with the harness's
own arithmetic (see checks.py).
"""

from __future__ import annotations

import functools
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

import checks


@dataclass(frozen=True)
class Request:
    argv: tuple[str, ...]
    stdin: str | None
    check: Callable[[str], None]  # raises checks.CheckError on a wrong report


@dataclass(frozen=True)
class Workload:
    why: str
    session: Callable[[random.Random], list[Request]]
    warmup: Callable[[random.Random], Request]


def _num(x: float) -> str:
    return repr(float(x))  # shortest text that parses back to the same double


# --- requests ----------------------------------------------------------------

def analyze(visibility: float, copies: int) -> Request:
    return Request(("analyze", "--visibility", _num(visibility), "--copies", str(copies)),
                   None, functools.partial(checks.analyze, visibility=visibility, copies=copies))


def sweep(first: int, points: int, step_exp: int, copies: list[int]) -> Request:
    """Visibility grid (first + k) * 2^-step_exp, k < points.

    Dyadic grid points are exact doubles, so the expected row count does not
    depend on how the program accumulates the step.
    """
    step = 2.0**-step_exp
    grid = [(first + k) * step for k in range(points)]
    argv = ("sweep", "--v-min", _num(grid[0]), "--v-max", _num(grid[-1]),
            "--v-step", _num(step), "--copies", ",".join(map(str, copies)))
    return Request(argv, None, functools.partial(checks.sweep, grid=grid, copies=copies))


def verify_appendix(grid: int, trials: int, seed: int) -> Request:
    argv = ("verify-appendix", "--grid", str(grid), "--trials", str(trials), "--seed", str(seed))
    return Request(argv, None, functools.partial(
        checks.verify_appendix, grid=grid, trials=trials, seed=seed))


def lhv(table: dict[str, float], feasible: bool) -> Request:
    return Request(("lhv",), json.dumps(table),
                   functools.partial(checks.lhv, table=table, feasible=feasible))


# --- correlation tables -------------------------------------------------------

def feasible_table(rng: random.Random, n: int) -> dict[str, float]:
    """Random convex mixture of 2..2n+2 deterministic strategies: local by construction."""
    count = rng.randint(2, 2 * n + 2)
    strategies = [[(rng.choice((1, -1)), rng.choice((1, -1))) for _ in range(n)]
                  for _ in range(count)]
    raw = [rng.random() + 0.05 for _ in range(count)]
    weights = [w / sum(raw) for w in raw]
    return checks.strategy_mixture(strategies, weights, n)


# Infeasible tables sit at least this far (relative) above the 2^n bound.
VIOLATION_MARGIN = 0.05


def _ghz_unit(n: int, phase: float, flips, swaps) -> dict[str, float]:
    """Noiseless GHZ-type correlators cos(phase + (#Y) pi/2), locally relabelled.

    Per party, swapping X and Y and flipping the sign of an outcome are local
    relabellings, so they keep a table's distance from the local polytope.
    """
    table = {}
    for key in checks.settings(n):
        y_count, sign = 0, 1
        for k, setting in enumerate(key):
            y_count += (setting == "Y") != swaps[k]
            sign *= flips[k][setting == "Y"]
        table[key] = sign * math.cos(phase + y_count * math.pi / 2)
    return table


@functools.cache
def _best_phase(n: int) -> float:
    """Phase in [0, pi/2) with the largest sign sum for the plain GHZ table."""
    plain = ([(1, 1)] * n, [False] * n)
    return max((k * math.pi / 128 for k in range(64)),
               key=lambda phase: checks.sign_sum(_ghz_unit(n, phase, *plain), n))


def infeasible_table(rng: random.Random, n: int) -> dict[str, float]:
    """Scaled GHZ-type table with sum|E_hat| >= (1 + VIOLATION_MARGIN) 2^n."""
    phase = _best_phase(n) + rng.uniform(-0.05, 0.05)
    flips = [(rng.choice((1, -1)), rng.choice((1, -1))) for _ in range(n)]
    swaps = [rng.random() < 0.5 for _ in range(n)]
    unit = _ghz_unit(n, phase, flips, swaps)
    lowest = (1 + VIOLATION_MARGIN) * 2**n / checks.sign_sum(unit, n)
    if lowest >= 1:
        raise ValueError(f"no {n}-party GHZ-type table violates by {VIOLATION_MARGIN}")
    scale = rng.uniform(lowest, 1.0)
    return {key: scale * value for key, value in unit.items()}


def lhv_pair(rng: random.Random, n: int) -> list[Request]:
    return [lhv(feasible_table(rng, n), True), lhv(infeasible_table(rng, n), False)]


# --- workloads ----------------------------------------------------------------

def _analyze_ladder(rng: random.Random) -> list[Request]:
    requests = [analyze(rng.uniform(0.8, 1.0), n) for n in range(1, 7)]
    # 1000 points of step 2^-11 ending between V = 0.968 and 1, so the grid
    # crosses every copy count's threshold visibility (the highest, N = 2, is 0.964).
    requests.append(sweep(rng.randint(984, 1049), 1000, 11, [1, 2, 3, 4, 5, 6]))
    # The appendix checks at their defaults: the session's only rng and
    # quadrature work, a few percent of it.
    requests.append(verify_appendix(64, 10_000, rng.randrange(2**31)))
    return requests


def _lhv_tables(rng: random.Random) -> list[Request]:
    requests = [r for n in range(2, 7) for r in lhv_pair(rng, n)]
    rng.shuffle(requests)
    return requests


WORKLOADS = {
    "analyze-ladder": Workload(
        why="dense Mermin recursion and 2N-qubit trace up to --copies 6 dominate; a default verify-appendix adds rng; lhv and simplex idle",
        session=_analyze_ladder,
        warmup=lambda rng: analyze(rng.uniform(0.8, 1.0), 2),
    ),
    "lhv-tables": Workload(
        why="4^n-column strategy LP on 2..6-party tables, half local by construction and half GHZ-type violations",
        session=_lhv_tables,
        warmup=lambda rng: lhv(feasible_table(rng, 3), True),
    ),
}


def session(workload: str, seed: int, index: int) -> tuple[list[Request], int]:
    """Requests of session `index`, and which of them is re-run for byte identity."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    requests = WORKLOADS[workload].session(rng)
    return requests, rng.randrange(len(requests))


def warmup(workload: str, seed: int) -> Request:
    return WORKLOADS[workload].warmup(random.Random(f"{workload}:{seed}:warmup"))


def defect_probe(seed: int) -> list[Request]:
    """7-party lhv requests: one feasible and one infeasible table.

    bellctl caps its LP at 6 parties and, at the commit that defined this
    benchmark, raises instead of answering or refusing. The timed workloads
    must not contain failing requests, so these run apart, once per run, and
    their failures are reported on their own.
    """
    return lhv_pair(random.Random(f"defect-probe:{seed}"), 7)
