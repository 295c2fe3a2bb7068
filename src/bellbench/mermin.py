"""Recursive construction of Bell-Mermin operator pairs and their bound.

The pair (B, B') on a set of sites is defined through the complex combination
f(x, y) = e^{-i pi/4} (x + i y) / sqrt(2): the f-transform of the pair equals
the tensor product of the per-site f-transforms of the local observables
(X and Y at every site). Disjoint pairs combine through a bilinear recursion,
and the full operator is a rank-2 corner matrix whose local-realistic bound
is |<B>| <= 1.

The same product gives <B> on N independent noisy pairs without any 2N-qubit
matrix: B + i B' = F_PHASE^{-1} (f (x) ... (x) f) with f = f(X, Y), and the
state is a tensor power of one pair, so <B> + i <B'> = t^N / F_PHASE with
t = tr[rho_pair (f (x) f)], a single 4x4 trace. mermin_expectation checks the
closed form V^N against this contraction; the dense recursion and its trace
stay available (mermin_operators, states.copies) as the reference the tests
compare both against.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .operators import BOUND_SLACK, COMPARISON_TOL, as_square_matrix, projector, tensor
from .states import MAX_QUBITS, SIGMA_X, SIGMA_Y, ghz_basis, noisy_pair

F_PHASE = cmath.exp(-1j * math.pi / 4) / math.sqrt(2)


def local_f(a, a_prime) -> np.ndarray:
    """Complex combination e^{-i pi/4}(a + i a')/sqrt(2) of two observables."""
    x = as_square_matrix(a)
    y = as_square_matrix(a_prime)
    if x.shape != y.shape:
        raise ValueError("observables must share a dimension")
    return F_PHASE * (x + 1j * y)


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


class MerminExpectation(NamedTuple):
    analytic: float
    traced: float


def contracted_expectation(v: float, n_copies: int) -> complex:
    """<B> + i<B'> on n_copies noisy pairs, from one pair's 4x4 contraction.

    t = tr[rho_pair (f (x) f)] with f the site f-transform of (X, Y); the
    f-transform of (B, B') is the product of the per-site ones, so
    F_PHASE (<B> + i<B'>) = t^N.
    """
    if n_copies < 1:
        raise ValueError("need at least one copy")
    f = local_f(SIGMA_X, SIGMA_Y)
    t = complex(np.trace(noisy_pair(v) @ tensor(f, f)))
    return t**n_copies / F_PHASE


def mermin_expectation(v: float, n_copies: int) -> MerminExpectation:
    """<B> on n_copies noisy pairs: analytic V^N next to the pair contraction.

    Both <B> (the real part of contracted_expectation) and <B'> (its
    imaginary part) equal V^N and are required to agree with it within the
    comparison tolerance; a mismatch means a construction bug, not a
    physical effect.
    """
    analytic = v**n_copies
    z = contracted_expectation(v, n_copies)
    traced = z.real
    for name, value in (("B", traced), ("B'", z.imag)):
        if abs(analytic - value) > COMPARISON_TOL:
            raise ArithmeticError(
                f"analytic {analytic} and contracted <{name}> {value} Mermin values disagree")
    return MerminExpectation(analytic, traced)


def mermin_bound_check(value: float) -> bool:
    """Local-realistic bound |<B>| <= 1."""
    return abs(value) <= 1.0 + BOUND_SLACK


def _check_party_count(n_parties: int) -> None:
    if n_parties % 2 != 0:
        raise ValueError(f"party count must be even, got {n_parties}")
    if not 2 <= n_parties <= MAX_QUBITS:
        raise ValueError(f"party count must lie in [2, {MAX_QUBITS}], got {n_parties}")
