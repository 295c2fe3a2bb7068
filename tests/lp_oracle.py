"""Independent linear-programming reference for the LHV oracle.

bellbench decides local-model feasibility in closed form, on the
cross-polytope sum_s |E_hat(s)| <= 2^n. This module keeps the direct route
for the tests: membership of the correlator vector in the convex hull of all
4^n deterministic strategies, solved by a self-contained dense phase-1
simplex. It is exponential in memory and time, so it stays out of the
package and is only run at small party counts.

The simplex solves: does A x = b admit x >= 0? The tableau starts from an
artificial basis and minimizes the sum of artificials; the optimum is the
feasibility residual (zero, up to tolerance, iff the system is feasible).
Sizes here are tiny (at most 65 rows by ~4100 columns), so a dense tableau
with vectorized row operations is the simplest reliable choice.

Pivoting uses Bland's rule: the entering column is the first one with a
negative reduced cost, and the ratio test breaks ties by the lowest-indexed
basic variable. The rule cannot cycle, so the loop needs no iteration cap,
and it is deterministic, so identical inputs give identical solutions.

Tables here are plain dicts keyed by setting strings over {X, Y}, and this
module imports nothing from bellbench, so it shares no code with the oracle
it checks: the vector order, the strategy correlators and the witness
rebuild (witness_table) are all derived below.
"""

from __future__ import annotations

import itertools

import numpy as np

# Largest phase-1 residual the LP still calls feasible.
LP_RESIDUAL_TOL = 1e-9

PIVOT_EPS = 1e-11


class SimplexError(RuntimeError):
    """Numerical failure inside the solver (not infeasibility)."""


def phase1_feasibility(a, b):
    """Minimize sum of artificials for A x = b, x >= 0.

    Returns (x, residual): the candidate solution over the original columns
    and the optimal artificial mass. residual <= tol means "feasible" for the
    caller's choice of tol.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    m, n = a.shape

    # Standard-form tableau [A | I | b] with b >= 0; artificial basis.
    flip = b < 0
    tableau = np.hstack([np.where(flip[:, None], -a, a),
                         np.eye(m),
                         np.where(flip, -b, b)[:, None]])
    basis = np.arange(n, n + m)

    # Phase-1 reduced costs over original columns: c_j = -sum_i T[i, j].
    cost = -tableau.sum(axis=0)
    cost[n:] = 0.0  # artificials never re-enter

    while True:
        negative = np.nonzero(cost[:n] < -PIVOT_EPS)[0]
        if negative.size == 0:
            break
        col = int(negative[0])

        column = tableau[:, col]
        rows = np.nonzero(column > PIVOT_EPS)[0]
        if rows.size == 0:
            # Phase-1 objective is bounded below by zero; this is numerics.
            raise SimplexError("no admissible pivot row")
        ratios = tableau[rows, -1] / column[rows]
        ties = rows[ratios == ratios.min()]
        row = int(ties[np.argmin(basis[ties])])

        pivot = tableau[row, col]
        tableau[row] /= pivot
        reduction = tableau[:, col].copy()
        reduction[row] = 0.0
        tableau -= np.outer(reduction, tableau[row])
        cost -= cost[col] * tableau[row]
        basis[row] = col

    x = np.zeros(n)
    in_original = basis < n
    x[basis[in_original]] = tableau[in_original, -1]
    residual = float(tableau[~in_original, -1].sum())
    return x, residual


def settings(n: int) -> list[str]:
    """The 2^n setting strings, X before Y, leftmost party most significant."""
    return ["".join(combo) for combo in itertools.product("XY", repeat=n)]


def correlators(strategies) -> np.ndarray:
    """Correlators of deterministic strategies, given as an (S, n, 2) array
    of each party's predetermined outcomes (at X, at Y): row r holds, for
    each strategy, the product over parties of the outcome at setting string
    settings(n)[r]."""
    strategies = np.asarray(strategies, dtype=float)
    parties = np.arange(strategies.shape[1])
    # ints, not bools, which numpy would read as a mask
    return np.array([strategies[:, parties, [int(c == "Y") for c in key]].prod(axis=1)
                     for key in settings(len(parties))])


def strategy_matrix(n: int) -> np.ndarray:
    """Correlators of all 4^n deterministic strategies: rows in settings(n)
    order, columns in the order of itertools.product over each party's
    outcome pairs (at X, at Y), +1 before -1."""
    pairs = ((1, 1), (1, -1), (-1, 1), (-1, -1))
    return correlators(list(itertools.product(pairs, repeat=n)))


_SIGNS = {"+": 1, "-": -1}


def witness_table(witness: dict[str, float], n: int) -> dict[str, float]:
    """The table a witness distribution reproduces, mixed strategy by strategy.

    Each label lists, per party and comma-separated, the outcome at X and
    then at Y, e.g. '+-,++'.
    """
    strategies = []
    for label in witness:
        parties = label.split(",")
        if len(parties) != n or any(len(p) != 2 or set(p) - _SIGNS.keys() for p in parties):
            raise ValueError(f"witness label {label!r} is not an {n}-party strategy")
        strategies.append([(_SIGNS[p[0]], _SIGNS[p[1]]) for p in parties])
    return dict(zip(settings(n), correlators(strategies) @ list(witness.values())))


# The four two-party CHSH quadruples, as explicit sign patterns over
# (E_xx, E_yy, E_xy, E_yx); a local table keeps each |combination| <= 2.
QUADRUPLE_SIGNS = (
    (1, -1, 1, 1),
    (1, 1, -1, 1),
    (1, 1, 1, -1),
    (1, -1, -1, -1),
)


def chsh_quadruples(values: dict[str, float]) -> list[float]:
    """|sxx E_xx + syy E_yy + sxy E_xy + syx E_yx| for each QUADRUPLE_SIGNS
    pattern, in that order, summed term by term from left to right."""
    e = [values[key] for key in ("XX", "YY", "XY", "YX")]
    return [abs(sum(s * x for s, x in zip(signs, e))) for signs in QUADRUPLE_SIGNS]


def lp_feasible(values: dict[str, float]) -> bool:
    """LP membership of a table, keyed by setting string, in the hull of the
    4^n strategies."""
    n = len(next(iter(values)))
    a = np.vstack([strategy_matrix(n), np.ones(4**n)])
    b = [values[key] for key in settings(n)] + [1.0]
    _, residual = phase1_feasibility(a, b)
    return residual <= LP_RESIDUAL_TOL
