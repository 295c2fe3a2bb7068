"""Dense reference routes for the Bell-Mermin and Bell-Zukowski claims.

None of this is on a `bellctl` path: `correlators`, `analyze` and `sweep` use
the pair amplitudes, closed forms and per-pair contraction of
bellbench.mermin. These are the independent routes the tests compare them
with:

* the shared pair as a dense 4x4 density matrix, and its correlators as
  dense traces against tensored phase observables;
* the Bell-Mermin pair built by the bilinear recursion over single sites as
  dense 2^n x 2^n matrices, and its rank-2 GHZ closed form, which match after
  a corner-phase alignment;
* N independent noisy pairs as one dense 2N-qubit density matrix, and the
  pair contraction as a dense 4x4 trace;
* the Bell-Zukowski operator as dense 2^n x 2^n matrices: its closed corner
  form, its midpoint quadrature as a Kronecker power of per-site moments, and
  its GHZ-basis off-diagonal mass, which bellbench.zukowski reads from the
  n + 1 antidiagonal entries instead; and the operator in the phase convention
  of the recursion, equal to the Bell-relation rescaling of the recursive B as
  operators.

It imports nothing from bellbench: the constants it shares with the package
are restated here from their definitions, and a route that needs a package
function takes it as an argument, so a defect in the package cannot enter
both sides of a comparison.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Iterable, Sequence

import numpy as np

IDENTITY_2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

MAX_QUBITS = 12

X_PHASE = 0.0
Y_PHASE = math.pi / 2

SETTING_PHASES = {"X": X_PHASE, "Y": Y_PHASE}

# Phase of the site f-transform f(x, y) = e^{-i pi/4} (x + i y) / sqrt(2).
F_PHASE = cmath.exp(-1j * math.pi / 4) / math.sqrt(2)

# Largest imaginary residue an expectation value may carry.
REALNESS_TOL = 1e-10


# --- dense linear algebra --------------------------------------------------


def as_square_matrix(m) -> np.ndarray:
    """Coerce to a square complex matrix, rejecting anything else."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def tensor(a, b) -> np.ndarray:
    """Tensor (Kronecker) product; entry ((i*db+k),(j*db+l)) = a[i,j]*b[k,l]."""
    return np.kron(as_square_matrix(a), as_square_matrix(b))


def tensor_all(mats: Iterable[np.ndarray]) -> np.ndarray:
    ms = [as_square_matrix(m) for m in mats]
    if not ms:
        raise ValueError("tensor_all needs at least one factor")
    return reduce(np.kron, ms)


def expectation(rho, o) -> float:
    """Real expectation value tr[rho @ o].

    Raises on dimension mismatch, and if the imaginary residue of the trace
    exceeds the comparison tolerance (diagnostic for non-Hermitian input).
    """
    r = as_square_matrix(rho)
    a = as_square_matrix(o)
    if r.shape != a.shape:
        raise ValueError(f"dimension mismatch: state {r.shape} vs observable {a.shape}")
    # tr[R O] without forming the product matrix
    val = complex(np.sum(r * a.T))
    if abs(val.imag) >= REALNESS_TOL:
        raise ValueError(f"expectation has imaginary residue {val.imag:.3e}")
    return float(val.real)


def projector(ket: Sequence[complex]) -> np.ndarray:
    v = np.asarray(ket, dtype=complex).reshape(-1)
    return np.outer(v, v.conj())


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


# --- the shared pair as a density matrix -------------------------------------


def bell_pair() -> np.ndarray:
    """The shared two-qubit state (|00> + i|11>)/sqrt(2)."""
    ket = np.zeros(4, dtype=complex)
    ket[0] = 1 / math.sqrt(2)
    ket[3] = 1j / math.sqrt(2)
    return ket


def noisy_pair(v: float) -> np.ndarray:
    """Bell pair mixed with white noise: V |psi><psi| + (1-V) I/4."""
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"visibility must lie in [0, 1], got {v}")
    return v * projector(bell_pair()) + (1.0 - v) * np.eye(4, dtype=complex) / 4


def correlation(rho, phases) -> float:
    """Full correlation function tr[rho (sigma_phi_1 x ... x sigma_phi_n)]."""
    r = as_square_matrix(rho)
    n = len(phases)
    if r.shape[0] != 2**n:
        raise ValueError(f"state dimension {r.shape[0]} does not match {n} settings")
    obs = tensor_all([phase_observable(p) for p in phases])
    return expectation(r, obs)


def full_correlation_table(rho, n: int) -> dict[str, float]:
    """Correlators for every X/Y setting string of an n-party state."""
    return {"".join(combo): correlation(rho, [SETTING_PHASES[c] for c in combo])
            for combo in itertools.product("XY", repeat=n)}


# --- the Bell-Zukowski operator as a dense matrix ----------------------------


def _check_sites(n: int) -> None:
    if not 2 <= n <= MAX_QUBITS:
        raise ValueError(f"site count must lie in [2, {MAX_QUBITS}], got {n}")


def zukowski_closed(n: int) -> np.ndarray:
    """Closed corner form (1/2)(pi/2)^n (P+ - P-), eigenvalues +-(1/2)(pi/2)^n."""
    _check_sites(n)
    plus, minus = ghz_basis(n)[:2]
    return 0.5 * (math.pi / 2) ** n * (np.outer(plus, plus.conj()) - np.outer(minus, minus.conj()))


def zukowski_quadrature(n: int, nodes_per_axis: int = 8) -> np.ndarray:
    """Midpoint-rule evaluation of the defining integral, exact for M >= 2.

    The kernel splits as cos(sum phi) = (prod e^{i phi_k} + prod e^{-i phi_k})/2,
    so the full tensor-grid sum equals a tensor product of per-axis 2x2 moment
    matrices; cost is O(n * M) plus one 2^n-dimensional tensor assembly.
    """
    _check_sites(n)
    if nodes_per_axis < 2:
        raise ValueError("midpoint rule needs at least 2 nodes per axis")
    nodes = (np.arange(nodes_per_axis) + 0.5) * math.pi / nodes_per_axis
    weight = math.pi / nodes_per_axis
    plus_moment = np.zeros((2, 2), dtype=complex)
    minus_moment = np.zeros((2, 2), dtype=complex)
    for phi in nodes:
        obs = phase_observable(phi)
        plus_moment += weight * np.exp(1j * phi) * obs
        minus_moment += weight * np.exp(-1j * phi) * obs
    return moment_power(n, plus_moment, minus_moment)


def moment_power(n: int, plus_moment, minus_moment) -> np.ndarray:
    """2^{-(n+1)} (plus^{x n} + minus^{x n}) for 2x2 per-site moments."""
    stacked = reduce(np.kron, [plus_moment] * n) + reduce(np.kron, [minus_moment] * n)
    return stacked / 2 ** (n + 1)


def in_ghz_basis(n: int, op: np.ndarray) -> np.ndarray:
    """The matrix of op in the GHZ basis of ghz_basis(n)."""
    basis = np.column_stack(ghz_basis(n))
    return basis.conj().T @ op @ basis


def ghz_diagonal(n: int, op: np.ndarray) -> np.ndarray:
    """Real part of the diagonal of op in the GHZ basis."""
    return np.real(np.diag(in_ghz_basis(n, op)))


def dense_ghz_offdiagonal_max(n: int, op: np.ndarray | None = None) -> float:
    """Largest off-diagonal magnitude of op in the GHZ basis.

    op defaults to the closed form; pass the quadrature-built matrix to check
    the integral route.
    """
    in_basis = in_ghz_basis(n, zukowski_closed(n) if op is None else op)
    off = in_basis - np.diag(np.diag(in_basis))
    return float(np.abs(off).max())


# --- the Bell-Mermin recursion and the Bell-Zukowski identity ----------------


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


def bell_relation_operator_gap(n_copies: int, scale: Callable[[int], float]) -> float:
    """Max-entry gap between zukowski_aligned and the recursive B rescaled by
    scale(n_copies), the Bell-relation factor under test.

    Zero (to rounding) by the operator identity behind the Bell relation.
    """
    scaled = scale(n_copies) * mermin_operators(2 * n_copies).b
    return float(np.abs(zukowski_aligned(n_copies) - scaled).max())


def _check_party_count(n_parties: int) -> None:
    if n_parties % 2 != 0:
        raise ValueError(f"party count must be even, got {n_parties}")
    if not 2 <= n_parties <= MAX_QUBITS:
        raise ValueError(f"party count must lie in [2, {MAX_QUBITS}], got {n_parties}")
