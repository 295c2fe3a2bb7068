"""Observables and correlation tables for the two-setting Bell experiment.

Conventions, fixed once for the whole package:

* Computational basis index 0 is the sigma_z eigenvector with eigenvalue +1.
* Party k occupies tensor slot k, leftmost slot is party 1.
* The in-plane observable at phase phi is cos(phi) sigma_x + sin(phi) sigma_y,
  so phi = 0 is X and phi = pi/2 is Y; allowed phases are 0 <= phi < pi.

The shared pair and its two-party table are defined in bellbench.mermin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)

MAX_QUBITS = 12


def phase_observable(phi: float) -> np.ndarray:
    """Dichotomic (+1/-1) observable in the xy plane at phase phi.

    cos(phi) sigma_x + sin(phi) sigma_y; eigenvectors are
    (|0> +- e^{i phi} |1>)/sqrt(2) with eigenvalues +-1.
    """
    if not 0.0 <= phi < math.pi:
        raise ValueError(f"phase must lie in [0, pi), got {phi}")
    return math.cos(phi) * SIGMA_X + math.sin(phi) * SIGMA_Y


def ghz_basis(n: int) -> list[np.ndarray]:
    """Orthonormal GHZ basis of the n-qubit space, no extra phases.

    Basis kets pair an (n-1)-bit string j (followed by 0) with its bitwise
    complement (followed by 1): (|j,0> +- |~j,1>)/sqrt(2). Order is
    (j, +), (j, -) with j ascending.
    """
    if not 2 <= n <= MAX_QUBITS:
        raise ValueError(f"party count must lie in [2, {MAX_QUBITS}], got {n}")
    dim = 2**n
    half = dim // 2
    basis = []
    for j in range(half):
        hi = 2 * j                      # binary j followed by 0
        lo = dim - 1 - hi               # bitwise complement
        for sign in (+1.0, -1.0):
            ket = np.zeros(dim, dtype=complex)
            ket[hi] = 1 / math.sqrt(2)
            ket[lo] = sign / math.sqrt(2)
            basis.append(ket)
    return basis


@dataclass(frozen=True)
class CorrelationTable:
    """All 2^n two-setting correlators of an n-party experiment.

    Keys are strings over {X, Y}, one character per party; values are the
    real correlation functions E in [-1, 1].
    """

    n_parties: int
    values: dict[str, float]

    def __post_init__(self):
        n = self.n_parties
        if n < 1:
            raise ValueError(f"need at least one party, got {n}")
        if len(self.values) != 2**n:
            raise ValueError(f"expected {2**n} entries, got {len(self.values)}")
        for key, val in self.values.items():
            if len(key) != n or set(key) - {"X", "Y"}:
                raise ValueError(f"bad setting key {key!r}")
            if not math.isfinite(val) or abs(val) > 1 + 1e-10:
                raise ValueError(f"correlator {key} = {val} outside [-1, 1]")

    def settings(self) -> list[str]:
        """Setting keys in lexicographic order (X before Y)."""
        return sorted(self.values)

    def vector(self) -> np.ndarray:
        """Values in setting order; index is the key read as binary, Y = 1."""
        return np.array([self.values[k] for k in self.settings()], dtype=float)

    def to_json_obj(self) -> dict[str, float]:
        return {k: float(self.values[k]) for k in self.settings()}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "CorrelationTable":
        if not obj or not isinstance(obj, dict):
            raise ValueError("correlation table must be a non-empty JSON object")
        n = len(next(iter(obj)))
        values = {}
        for key, val in obj.items():
            if not isinstance(val, (int, float)) or isinstance(val, bool):
                raise ValueError(f"correlator {key!r} is not a number")
            values[str(key)] = float(val)
        return cls(n, values)

