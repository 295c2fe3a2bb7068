"""Ground-truth arithmetic and per-request correctness checks.

Nothing here imports bellbench: every expected value is recomputed from the
paper's closed forms or from the harness's own construction of the input, so
a check cannot pass merely because the code under test agrees with itself.
Checks are semantic (values within the 12-significant-digit rendering, verdict
flags, witnesses that rebuild the table), never golden report bytes.
"""

from __future__ import annotations

import itertools
import json
import math


class CheckError(Exception):
    """A report that contradicts the harness's ground truth."""


# Reports render floats at 12 significant digits, so a correct value lies
# within about 5e-12 relative of the exact one.
REL_TOL = 1e-10
# Witness weights are rendered at 12 digits too; 1e-8 is the reconstruction
# limit the project holds its own witnesses to.
WITNESS_TOL = 1e-8
# Points this close to a bound are skipped when comparing a verdict flag:
# either answer is correct within rounding.
BOUNDARY_GAP = 1e-9


# --- ground truth -----------------------------------------------------------

def settings(n: int) -> list[str]:
    """All n-party setting keys over {X, Y}, lexicographic (X before Y)."""
    return ["".join(c) for c in itertools.product("XY", repeat=n)]


def strategy_mixture(strategies, weights, n: int) -> dict[str, float]:
    """Correlators of a convex mixture of deterministic strategies.

    A strategy lists per party the outcomes (at X, at Y); its correlator for a
    setting key is the product of the selected outcomes.
    """
    table = {}
    for key in settings(n):
        e = 0.0
        for strategy, w in zip(strategies, weights):
            p = 1
            for (x_out, y_out), setting in zip(strategy, key):
                p *= x_out if setting == "X" else y_out
            e += w * p
        table[key] = e
    return table


def sign_sum(table: dict[str, float], n: int) -> float:
    """sum_s |E_hat(s)| with E_hat(s) = sum_r prod_k s_k^{r_k} E(r).

    Local models keep this at or below 2^n (the complete set of two-setting
    correlation inequalities). Butterfly over the hypercube in plain Python.
    """
    vec = [table[k] for k in settings(n)]
    h = 1
    while h < len(vec):
        for start in range(0, len(vec), 2 * h):
            for i in range(start, start + h):
                a, b = vec[i], vec[i + h]
                vec[i], vec[i + h] = a + b, a - b
        h *= 2
    return sum(abs(v) for v in vec)


def bell_relation_scale(n_copies: int) -> float:
    """(1/2)(pi/2)^{2N} 2^{-(2N-1)/2}: <Z_2N> over <B> for N shared pairs."""
    n = 2 * n_copies
    return 0.5 * (math.pi / 2) ** n / 2 ** ((n - 1) / 2)


def modified_bound(n_copies: int) -> float:
    """2 (2/pi)^{2N} 2^{(2N-1)/2}: the |<B>| bound implied by |<Z_2N>| <= 1."""
    n = 2 * n_copies
    return 2 * (2 / math.pi) ** n * 2 ** ((n - 1) / 2)


# --- helpers ----------------------------------------------------------------

def _close(name: str, got, want: float) -> None:
    if not isinstance(got, (int, float)) or isinstance(got, bool):
        raise CheckError(f"{name}: expected a number, got {got!r}")
    if abs(got - want) > REL_TOL * max(1.0, abs(want)):
        raise CheckError(f"{name}: got {got!r}, expected {want!r}")


def _equal(name: str, got, want) -> None:
    if got != want:
        raise CheckError(f"{name}: got {got!r}, expected {want!r}")


def _report(text: str, command: str) -> tuple[dict, dict]:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckError(f"{command}: output is not JSON: {exc}")
    _equal("command", obj.get("command"), command)
    return obj["results"], obj["verdicts"]


def _flag_matches(name: str, got, value: float, bound: float) -> None:
    """got must equal (value > bound), except within BOUNDARY_GAP of the bound."""
    if abs(value - bound) <= BOUNDARY_GAP:
        return
    _equal(name, got, value > bound)


# --- checks, one per subcommand ----------------------------------------------

def analyze(text: str, visibility: float, copies: int) -> None:
    results, verdicts = _report(text, "analyze")
    mermin = visibility**copies
    zukowski = bell_relation_scale(copies) * mermin
    bound = modified_bound(copies)
    _close("mermin_value", results["mermin_value"], mermin)
    _close("zukowski_value", results["zukowski_value"], zukowski)
    _close("modified_bound", results["modified_bound"], bound)
    _equal("mermin_satisfied", verdicts["mermin_satisfied"], True)
    if copies >= 2:
        threshold = bound ** (1 / copies)
        _close("threshold_visibility", results["threshold_visibility"], threshold)
        _flag_matches("conflict_revealed", verdicts["conflict_revealed"], visibility, threshold)
    else:
        # At N = 1 the modified bound exceeds 1: no visibility reveals a conflict.
        _equal("conflict_revealed", verdicts["conflict_revealed"], False)


def sweep(text: str, grid: list[float], copies: list[int]) -> None:
    lines = text.splitlines()
    _equal("sweep header", lines[0] if lines else None,
           "V,N,mermin,zukowski,modified_bound,violated")
    _equal("sweep row count", len(lines) - 1, len(grid) * len(copies))
    rows = iter(lines[1:])
    for n in copies:
        scale, bound = bell_relation_scale(n), modified_bound(n)
        for v in grid:
            fields = next(rows).split(",")
            _equal("sweep field count", len(fields), 6)
            _close("sweep V", float(fields[0]), v)
            _equal("sweep N", fields[1], str(n))
            _close("sweep mermin", float(fields[2]), v**n)
            _close("sweep zukowski", float(fields[3]), scale * v**n)
            _close("sweep modified_bound", float(fields[4]), bound)
            if fields[5] not in ("true", "false"):
                raise CheckError(f"sweep violated flag {fields[5]!r}")
            _flag_matches(f"sweep violated at V={v} N={n}", fields[5] == "true",
                          abs(scale * v**n), 1.0)


def lhv(text: str, table: dict[str, float], feasible: bool) -> None:
    results, verdicts = _report(text, "lhv")
    n = len(next(iter(table)))
    _equal("parties", results["parties"], n)
    _equal("lhv_feasible", verdicts["lhv_feasible"], feasible)
    _equal("oracles_agree", verdicts["oracles_agree"], True)
    _close("complete_set_sum", results["complete_set_sum"], sign_sum(table, n))
    if feasible:
        witness = results["witness_distribution"]
        strategies, weights = [], []
        for label, weight in witness.items():
            parties = label.split(",")
            if len(parties) != n or any(len(p) != 2 or set(p) - {"+", "-"} for p in parties):
                raise CheckError(f"witness label {label!r} is not an {n}-party strategy")
            strategies.append([tuple(1 if c == "+" else -1 for c in p) for p in parties])
            weights.append(weight)
        if any(w < 0 for w in weights) or abs(sum(weights) - 1) > WITNESS_TOL:
            raise CheckError(f"witness weights are not a distribution: {weights}")
        rebuilt = strategy_mixture(strategies, weights, n)
        gap = max(abs(rebuilt[k] - table[k]) for k in table)
        if gap > WITNESS_TOL:
            raise CheckError(f"witness rebuilds the table only to {gap:.3e}")
    else:
        inequality = results["witness_inequality"]
        coefficients = inequality["coefficients"]
        _equal("inequality keys", sorted(coefficients), settings(n))
        value = sum(coefficients[k] * table[k] for k in table)
        _close("inequality value", inequality["value"], value)
        _close("inequality bound", inequality["bound"], 2.0**n)
        if not value > 2.0**n:
            raise CheckError(f"witness inequality {value} does not exceed 2^{n}")


def verify_appendix(text: str, grid: int, trials: int, seed: int) -> None:
    results, verdicts = _report(text, "verify-appendix")
    params = json.loads(text)["parameters"]
    _equal("parameters", (params["grid_cells"], params["trials"], params["seed"]),
           (grid, trials, seed))
    failed = sorted(k for k, v in verdicts.items() if v is not True)
    if failed or not verdicts:
        raise CheckError(f"verify-appendix verdicts not all true: {failed}")
    # The appendix's own bounds: sign(cos) attains |z'| = 2, no +-1 step
    # function exceeds it, and |S| <= 2^n for products of n of them.
    _close("extremal_z_prime_real", results["extremal_z_prime_real"], 2.0)
    for name, bound in (("max_abs_z_prime", 2.0), ("max_abs_s_n2", 4.0), ("max_abs_s_n3", 8.0)):
        if not 0 < results[name] <= bound * (1 + REL_TOL):
            raise CheckError(f"{name} = {results[name]!r} outside (0, {bound}]")
