"""Local-hidden-variable oracle for full-correlation data, and the
CorrelationTable it reads: the 2^n two-setting correlators of n parties.

A deterministic strategy with outcomes (a_k, b_k) at (X, Y) has correlators
E(r) = prod_k a_k * prod_k (a_k b_k)^{r_k}, with r_k = 1 when party k measures
Y: the vector sigma * h_t, h_t the Hadamard column of signs s_k = a_k b_k. So
the 4^n strategies give only 2^(n+1) vectors, and the local polytope is the
cross-polytope sum_s |E_hat(s)| <= 2^n, the complete set of two-setting
correlation inequalities (Werner & Wolf, PRA 64, 032112 (2001); Zukowski &
Brukner, PRL 88, 210401 (2002)), at two parties the CHSH quadruples
(quadruple_values). lhv_feasible decides it in closed form and certify checks
the certificate without the sign transform or the settings() order: a witness
is rebuilt from its strategy labels, an inequality is evaluated on the table
and maximised over every deterministic strategy.

The decision is plain Python, its sums correctly rounded by math.fsum, so
they do not depend on summation order. Only the witness rebuild, one matrix
product of the Kronecker products over the two halves of the parties, imports
numpy, on its first call.

A table is checked once, by the CorrelationTable constructor, which reads n
from the first key and holds the party cap. One loop makes every value a
float and names the first entry that is not a number. Keys and ranges are
then checked in one whole-table pass over builtins: the set of key lengths,
one translate of the joined keys, isfinite and the largest |E| over all
values. Only a table that fails the pass is read entry by entry, so the error
names its first offending entry in input order. Witness labels are parsed by
one split of their join; a witness that fails is rejected.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
from operator import add, mul, sub

from .mermin import COMPARISON_TOL, COMPLETE_SET_SLACK, WITNESS_TOL

MAX_TRANSFORM_PARTIES = 12

# Deletes the setting letters: a key string is valid iff nothing is left.
_NOT_XY = str.maketrans("", "", "XY")


class CorrelationTable:
    """All 2^n two-setting correlators of an n-party experiment.

    Keys are strings over {X, Y}, one character per party; values are the
    real correlation functions E in [-1, 1].
    """

    __slots__ = ("n_parties", "values")

    def __init__(self, values: dict[str, float]):
        if not values or not isinstance(values, dict):
            raise ValueError("correlation table must be a non-empty JSON object")
        numbers = {}
        for key, val in values.items():
            if not isinstance(val, (int, float)) or isinstance(val, bool):
                raise ValueError(f"correlator {key!r} is not a number")
            numbers[str(key)] = float(val)
        values = numbers
        self.n_parties = n = len(next(iter(values)))
        self.values = values
        if n < 1:
            raise ValueError(f"need at least one party, got {n}")
        if n > MAX_TRANSFORM_PARTIES:  # before 2**n, which may have too many digits to print
            raise ValueError(f"key length {n} exceeds the {MAX_TRANSFORM_PARTIES}-party cap")
        if len(values) != 2**n:
            raise ValueError(f"expected {2**n} entries, got {len(values)}")
        if set(map(len, values)) == {n} and not "".join(values).translate(_NOT_XY) \
                and all(map(math.isfinite, values.values())) \
                and max(map(abs, values.values())) <= 1 + COMPARISON_TOL:
            return
        # Name the first offending entry in input order.
        for key, val in values.items():
            if len(key) != n or set(key) - {"X", "Y"}:
                raise ValueError(f"bad setting key {key!r}")
            if not math.isfinite(val) or abs(val) > 1 + COMPARISON_TOL:
                raise ValueError(f"correlator {key} = {val} outside [-1, 1]")

    def settings(self) -> list[str]:
        """Setting keys in lexicographic order (X before Y)."""
        return sorted(self.values)

    def vector(self) -> list[float]:
        """Values in setting order; index is the key read as binary, Y = 1."""
        return [self.values[k] for k in self.settings()]


def sign_transform(vector) -> list[float]:
    """Fast transform E_hat(s) = sum_r prod_k s_k^{r_k} E(r) over the hypercube.

    Each level maps (2j, 2j + 1) to their sum at j and difference at
    j + size/2: bit for bit the in-place (i, i + h) butterfly, h = 1, 2, 4, ...
    """
    out = list(map(float, vector))
    for _ in range(len(out).bit_length() - 1):
        even, odd = out[0::2], out[1::2]
        out = [*map(add, even, odd), *map(sub, even, odd)]
    return out


def _quadruple_order(hat: list[float]) -> list[float]:
    """Two-party E_hat in CHSH-quadruple order: quadruple i reads E_hat(3 - i)."""
    return hat[::-1]


def quadruple_values(table: CorrelationTable) -> list[float]:
    """The four CHSH quadruples of a two-party table, in report order, read
    from its sign transform: |sum E_hat / 2 - E_hat(t)| for t = 3, 2, 1, 0."""
    hat = sign_transform(table.vector())
    half = math.fsum(hat) / 2
    return [abs(half - x) for x in _quadruple_order(hat)]


# witness: strategy label -> weight, or the violated inequality's report dict;
# sign_sum: sum_s |E_hat(s)|, the left-hand side of the bound 2^n.
FeasibilityVerdict = collections.namedtuple(
    "FeasibilityVerdict", ("feasible", "witness", "sign_sum"))


def _violated_inequality(table: CorrelationTable, hat: list[float]) -> dict:
    """A violated member of the complete set, in correlator coefficients.

    The inequality reads sum_key coefficients[key] * E[key] <= bound; value is
    the left-hand side at the table, evaluated key by key. For two parties it
    is the CHSH quadruple whose sign pattern has its odd sign where the signs
    of E_hat do (quadruple_index; None when no sign is the odd one out).
    """
    coeffs = sign_transform([1.0 if x >= 0 else -1.0 for x in hat])
    coefficients = dict(zip(table.settings(), coeffs))
    quadruple_index = None
    if table.n_parties == 2:
        negative = [x < 0 for x in _quadruple_order(hat)]
        if negative.count(True) in (1, 3):  # one sign is the odd one out
            quadruple_index = negative.index(negative.count(True) == 1)
    return {
        "coefficients": coefficients,
        "value": math.fsum(map(mul, coefficients.values(),
                               map(table.values.__getitem__, coefficients))),
        "bound": float(2**table.n_parties),
        "quadruple_index": quadruple_index,
    }


# A party after the first plays "++" (s_k = 1, bit clear) or "+-" (bit set).
_OTHER_PARTIES = str.maketrans({"0": ",++", "1": ",+-"})


def _vertex_label(n: int, sigma: float, t: int) -> str:
    """Canonical strategy for the vertex sigma * h_t.

    Party 1 plays (sigma, sigma s_1), every other party (+1, s_k), where
    s_k = -1 iff bit n-1-k of t is set (party 1 is the most significant).
    """
    bits = format(t, f"0{n}b")
    first = ("++", "+-") if sigma > 0 else ("--", "-+")
    return first[bits[0] == "1"] + bits[1:].translate(_OTHER_PARTIES)


def lhv_feasible(table: CorrelationTable) -> FeasibilityVerdict:
    """Membership of the correlator vector in the local polytope.

    Feasible: the witness puts weight |E_hat(t)|/2^n on the strategy of
    sign(E_hat(t)) h_t, since E = 2^-n sum_t E_hat(t) h_t; the leftover mass
    is split evenly between +h_0 and -h_0, which cancel. Weights at or below
    1e-12 are dropped. Infeasible: the witness is a violated complete-set
    inequality.
    """
    n = table.n_parties
    hat = sign_transform(table.vector())
    scale = float(2**n)
    total = math.fsum(map(abs, hat))
    if total > scale + COMPLETE_SET_SLACK:
        return FeasibilityVerdict(False, _violated_inequality(table, hat), total)

    half_leftover = max(0.0, 1.0 - total / scale) / 2
    weights = {(1.0, 0): half_leftover, (-1.0, 0): half_leftover}
    for t, value in enumerate(hat):
        vertex = (1.0 if value >= 0 else -1.0, t)
        weights[vertex] = weights.get(vertex, 0.0) + abs(value) / scale
    witness = {
        _vertex_label(n, sigma, t): weight
        for (sigma, t), weight in weights.items()
        if weight > 1e-12
    }
    return FeasibilityVerdict(True, witness, total)


@functools.cache
def _kronecker_keys(n: int) -> list[str]:
    """Setting key of each Kronecker-product index i: party k (from 0) reads
    bit n - 1 - k of i, and a set bit is Y."""
    return list(map("".join, itertools.product("XY", repeat=n)))


def witness_reconstruction_error(table: CorrelationTable, witness: dict[str, float]) -> float:
    """How far the witness is from a distribution reproducing the table.

    A strategy's correlators are the Kronecker product, in party order, of
    the outcome pairs (x_k, y_k) parsed from its label. With the parties split
    at h = n // 2, the weighted table is left.T @ right: row s of left is
    strategy s's weight times the product over parties 1..h, row s of right
    the product over parties h+1..n, so memory grows as S 2^ceil(n/2) for S
    strategies. Flattened in row order, entry i is compared with the table's
    value at the key spelt by the bits of i, not through
    CorrelationTable.settings(), whose order the sign transform reads.
    Returns the largest of the max correlator deviation, |total weight - 1|
    and the most negative weight. Raises ValueError unless every label is an
    n-party strategy as lhv_feasible spells it.
    """
    import numpy as np

    n, h = table.n_parties, table.n_parties // 2
    pairs = ",".join(witness).split(",")
    if set(map(len, witness)) != {3 * n - 1} or not set(pairs) <= {"++", "+-", "-+", "--"}:
        raise ValueError(f"witness labels are not all {n}-party strategies")
    weights = np.fromiter(witness.values(), float, len(witness))
    # "+" and "-" are the bytes 43 and 45, either side of 44.
    outcomes = (44.0 - np.frombuffer("".join(pairs).encode(), np.uint8)).reshape(-1, n, 2)

    def products(rows, parties):
        for k in parties:
            rows = (rows[:, :, None] * outcomes[:, k, None, :]).reshape(len(rows), -1)
        return rows

    left = products(weights[:, None], range(h))
    right = products(outcomes[:, h], range(h + 1, n))
    rebuilt = (left.T @ right).ravel()
    expected = [table.values[key] for key in _kronecker_keys(n)]
    deviation = float(np.abs(rebuilt - expected).max())
    return max(deviation, abs(float(weights.sum()) - 1.0), -float(weights.min(initial=0.0)))


def _local_maximum(coefficients: dict[str, float], n: int) -> float:
    """max over deterministic strategies of sum_r c(r) E(r), that is
    max_s |sum_r c(r) prod_k s_k^{r_k}|: an in-place (i, i + h) butterfly
    over the coefficients read at the keys spelt by the bits of i."""
    c = [coefficients[key] for key in _kronecker_keys(n)]
    for h in (2**k for k in range(n)):
        for start in range(0, len(c), 2 * h):
            for i in range(start, start + h):
                c[i], c[i + h] = c[i] + c[i + h], c[i] - c[i + h]
    return max(map(abs, c))


def certify(table: CorrelationTable, verdict: FeasibilityVerdict) -> tuple[dict, bool]:
    """Report fields of the verdict's certificate, and whether it holds: a
    witness rebuilds the table within WITNESS_TOL; an inequality's value
    exceeds its bound, which no deterministic strategy exceeds by more than
    COMPLETE_SET_SLACK. Neither check reads sign_transform or settings().
    """
    if verdict.feasible:
        error = witness_reconstruction_error(table, verdict.witness)
        return {"witness_distribution": verdict.witness, "witness_error": error}, \
            error <= WITNESS_TOL
    inequality, n = verdict.witness, table.n_parties
    bound = inequality["bound"]
    return {"witness_inequality": inequality}, inequality["value"] > bound and \
        _local_maximum(inequality["coefficients"], n) <= bound + COMPLETE_SET_SLACK


__all__ = [
    "CorrelationTable",
    "FeasibilityVerdict",
    "certify",
    "lhv_feasible",
    "quadruple_values",
    "sign_transform",
    "witness_reconstruction_error",
]
