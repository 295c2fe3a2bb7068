"""Dense reference routes for the Bell-Mermin and Bell-Zukowski claims.

None of this is on a `bellctl` path: `analyze` and `sweep` use the closed
forms and the per-pair contraction of bellbench.mermin. These are the
independent routes the tests compare them with:

* the Bell-Mermin pair built by the bilinear recursion over single sites as
  dense 2^n x 2^n matrices, and its rank-2 GHZ closed form, which match after
  a corner-phase alignment;
* N independent noisy pairs as one dense 2N-qubit density matrix, and the
  pair contraction as a dense 4x4 trace;
* the Bell-Zukowski operator in the phase convention of the recursion,
  equal to the Bell-relation rescaling of the recursive B as operators.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from bellbench.mermin import F_PHASE, bell_relation_scale
from bellbench.operators import as_square_matrix, projector, tensor_all
from bellbench.states import MAX_QUBITS, SIGMA_X, SIGMA_Y, ghz_basis, noisy_pair
from bellbench.zukowski import zukowski_closed


def hermitian_split(f) -> tuple[np.ndarray, np.ndarray]:
    """Split F into Hermitian parts (re, im) with F = re + 1j*im.

    re = (F + F^dag)/2 and im = (F - F^dag)/(2i); both outputs are Hermitian
    to the last bit, and the reconstruction is exact up to rounding.
    """
    a = as_square_matrix(f)
    ad = a.conj().T
    return (a + ad) / 2, (a - ad) / 2j


def copies(v: float, n_copies: int) -> np.ndarray:
    """n_copies independent noisy pairs; party 2i-1 and 2i share copy i."""
    if n_copies < 1:
        raise ValueError("need at least one copy")
    if 2 * n_copies > MAX_QUBITS:
        raise ValueError(f"{2 * n_copies} qubits exceeds the {MAX_QUBITS}-qubit cap")
    return tensor_all([noisy_pair(v)] * n_copies)


def local_f(a, a_prime) -> np.ndarray:
    """Complex combination e^{-i pi/4}(a + i a')/sqrt(2) of two observables."""
    x = as_square_matrix(a)
    y = as_square_matrix(a_prime)
    if x.shape != y.shape:
        raise ValueError("observables must share a dimension")
    return F_PHASE * (x + 1j * y)


def dense_pair_contraction(v: float) -> complex:
    """t = tr[rho_pair (f (x) f)] as a dense 4x4 matrix product and trace."""
    f = local_f(SIGMA_X, SIGMA_Y)
    return complex(np.trace(noisy_pair(v) @ np.kron(f, f)))


@dataclass(frozen=True, eq=False)
class MerminPair:
    """Bell-Mermin operator pair acting on the listed sites (in slot order)."""

    b: np.ndarray
    b_prime: np.ndarray
    parties: tuple[int, ...]


def site_pair(site: int) -> MerminPair:
    """Single-site pair: B = X, B' = Y."""
    return MerminPair(SIGMA_X.copy(), SIGMA_Y.copy(), (site,))


def compose(alpha: MerminPair, beta: MerminPair) -> MerminPair:
    """Combine pairs on disjoint site sets.

    B_{ab} = (B_a (x) (B_b + B'_b) + B'_a (x) (B_b - B'_b)) / 2 and the
    primed analogue; equivalent to multiplying the f-transforms.
    """
    if set(alpha.parties) & set(beta.parties):
        raise ValueError(f"site sets overlap: {alpha.parties} and {beta.parties}")
    s = beta.b + beta.b_prime
    d = beta.b - beta.b_prime
    b = 0.5 * (np.kron(alpha.b, s) + np.kron(alpha.b_prime, d))
    b_prime = 0.5 * (np.kron(alpha.b_prime, s) - np.kron(alpha.b, d))
    return MerminPair(b, b_prime, alpha.parties + beta.parties)


def mermin_operators(n_parties: int) -> MerminPair:
    """Full pair on sites 1..n, built by folding compose over singletons."""
    _check_party_count(n_parties)
    pair = site_pair(1)
    for site in range(2, n_parties + 1):
        pair = compose(pair, site_pair(site))
    return pair


def mermin_closed_form(n_parties: int) -> np.ndarray:
    """Rank-2 corner form 2^{(n-1)/2} (P+ - P-) on the extreme GHZ doublet.

    Built in the computational basis without extra phases; it matches the
    recursive construction only after the corner-phase alignment below.
    """
    _check_party_count(n_parties)
    plus, minus = ghz_basis(n_parties)[:2]
    return 2 ** ((n_parties - 1) / 2) * (projector(plus) - projector(minus))


def corner_phase(op) -> complex:
    """Unimodular phase of the |0..0><1..1| corner of a corner-form operator."""
    a = as_square_matrix(op)
    c = complex(a[0, -1])
    if abs(c) == 0.0:
        raise ValueError("operator has no upper corner entry")
    return c / abs(c)


def align_corner_phase(op, phase: complex) -> np.ndarray:
    """Multiply the |0..0><1..1| corner by phase (adjoint corner by its conjugate)."""
    a = as_square_matrix(op).copy()
    a[0, -1] *= phase
    a[-1, 0] *= phase.conjugate()
    return a


def expected_alignment_phase(n_parties: int) -> complex:
    """Phase e^{-i (n-1) pi / 4} relating closed form and recursion corners."""
    return cmath.exp(-1j * (n_parties - 1) * math.pi / 4)


def zukowski_aligned(n_copies: int) -> np.ndarray:
    """Bell-Zukowski operator in the phase convention of the recursion.

    Equal to the closed form with its GHZ corner rotated by
    e^{-i(2N-1)pi/4}, and identically equal to the Bell-relation rescaling
    of the recursive Bell-Mermin operator; this is the operator whose trace
    against shared noisy pairs reproduces the experiment's computed average.
    """
    n = 2 * n_copies
    return align_corner_phase(zukowski_closed(n), expected_alignment_phase(n))


def bell_relation_operator_gap(n_copies: int) -> float:
    """Max-entry gap between zukowski_aligned and the rescaled recursive B.

    Zero (to rounding) by the operator identity behind the Bell relation.
    """
    scaled = bell_relation_scale(n_copies) * mermin_operators(2 * n_copies).b
    return float(np.abs(zukowski_aligned(n_copies) - scaled).max())


def _check_party_count(n_parties: int) -> None:
    if n_parties % 2 != 0:
        raise ValueError(f"party count must be even, got {n_parties}")
    if not 2 <= n_parties <= MAX_QUBITS:
        raise ValueError(f"party count must lie in [2, {MAX_QUBITS}], got {n_parties}")
