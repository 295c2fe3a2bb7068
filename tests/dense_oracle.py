"""Dense reference routes for the Bell-Mermin and Bell-Zukowski claims.

None of this is on a `bellctl` path: `correlators`, `analyze` and `sweep` use
the pair amplitudes, the pair's coefficients (a, b) and the closed forms of
bellbench.mermin. These are the independent routes the tests compare them
with:

* the shared pair as a dense 4x4 density matrix, and its correlators as
  dense traces against tensored phase observables;
* the Bell-Mermin pair built by the bilinear recursion over single sites as
  dense 2^n x 2^n matrices, and its rank-2 GHZ closed form, which match after
  a corner-phase alignment;
* N independent noisy pairs as one dense 2N-qubit density matrix;
* the Bell-Zukowski operator as dense 2^n x 2^n matrices: its closed corner
  form, its midpoint quadrature as a Kronecker power of per-site moments, and
  its GHZ-basis off-diagonal mass, which bellbench.zukowski reads from the
  n + 1 antidiagonal entries instead; and the operator in the phase convention
  of the recursion, equal to the Bell-relation rescaling of the recursive B as
  operators.

Matrices are plain numpy arrays, built with np.kron and np.outer, which raise
on mismatched shapes themselves. The module checks the MAX_QUBITS cap (one
13-qubit complex matrix is 1 GiB) and the realness of expectation values.

It imports nothing from bellbench: the constants it shares with the package
are restated here from their definitions, and a route that needs a package
function takes it as an argument, so a defect in the package cannot enter
both sides of a comparison.
"""

from __future__ import annotations

import cmath
import itertools
import math
from collections import namedtuple
from functools import reduce
from typing import Callable

import numpy as np

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)

MAX_QUBITS = 12

SETTING_PHASES = {"X": 0.0, "Y": math.pi / 2}

# Largest imaginary residue an expectation value may carry.
REALNESS_TOL = 1e-10


# --- dense linear algebra --------------------------------------------------


def expectation(rho, o) -> float:
    """Real expectation value tr[rho @ o].

    Raises if the imaginary residue of the trace exceeds the comparison
    tolerance (diagnostic for non-Hermitian input).
    """
    # tr[R O] without forming the product matrix
    val = complex(np.sum(rho * o.T))
    if abs(val.imag) >= REALNESS_TOL:
        raise ValueError(f"expectation has imaginary residue {val.imag:.3e}")
    return float(val.real)


def phase_observable(phi: float) -> np.ndarray:
    """Dichotomic (+1/-1) observable in the xy plane at phase phi.

    cos(phi) sigma_x + sin(phi) sigma_y; eigenvectors are
    (|0> +- e^{i phi} |1>)/sqrt(2) with eigenvalues +-1.
    """
    if not 0.0 <= phi < math.pi:
        raise ValueError(f"phase must lie in [0, pi), got {phi}")
    return math.cos(phi) * SIGMA_X + math.sin(phi) * SIGMA_Y


def _check_sites(n: int) -> None:
    if not 2 <= n <= MAX_QUBITS:
        raise ValueError(f"site count must lie in [2, {MAX_QUBITS}], got {n}")


def ghz_basis(n: int) -> list[np.ndarray]:
    """Orthonormal GHZ basis of the n-qubit space, no extra phases.

    Basis kets pair an (n-1)-bit string j (followed by 0) with its bitwise
    complement (followed by 1): (|j,0> +- |~j,1>)/sqrt(2). Order is
    (j, +), (j, -) with j ascending.
    """
    _check_sites(n)
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


def _extreme_ghz_doublet(n: int, scale: float) -> np.ndarray:
    """scale (P+ - P-) for the first two kets of ghz_basis(n), the extreme
    GHZ kets (|0...0> +- |1...1>)/sqrt(2): their projectors differ only at the
    two corners, so this is scale (|0...0><1...1| + |1...1><0...0|)."""
    _check_sites(n)
    op = np.zeros((2**n, 2**n), dtype=complex)
    op[0, -1] = op[-1, 0] = scale
    return op


# --- the shared pair as a density matrix -------------------------------------


def bell_pair() -> np.ndarray:
    """The shared two-qubit state (|00> + i|11>)/sqrt(2)."""
    return np.array([1, 0, 0, 1j]) / math.sqrt(2)


def noisy_pair(v: float) -> np.ndarray:
    """Bell pair mixed with white noise: V |psi><psi| + (1-V) I/4."""
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"visibility must lie in [0, 1], got {v}")
    ket = bell_pair()
    return v * np.outer(ket, ket.conj()) + (1.0 - v) * np.eye(4, dtype=complex) / 4


def correlation(rho, phases) -> float:
    """Full correlation function tr[rho (sigma_phi_1 x ... x sigma_phi_n)]."""
    return expectation(rho, reduce(np.kron, [phase_observable(p) for p in phases]))


def full_correlation_table(rho, n: int) -> dict[str, float]:
    """Correlators for every X/Y setting string of an n-party state."""
    return {"".join(combo): correlation(rho, [SETTING_PHASES[c] for c in combo])
            for combo in itertools.product("XY", repeat=n)}


# --- the Bell-Zukowski operator as a dense matrix ----------------------------


def zukowski_closed(n: int) -> np.ndarray:
    """Closed corner form (1/2)(pi/2)^n (P+ - P-), eigenvalues +-(1/2)(pi/2)^n."""
    return _extreme_ghz_doublet(n, 0.5 * (math.pi / 2) ** n)


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


def copies(v: float, n_copies: int) -> np.ndarray:
    """n_copies independent noisy pairs; party 2i-1 and 2i share copy i."""
    _check_sites(2 * n_copies)
    return reduce(np.kron, [noisy_pair(v)] * n_copies)


MerminPair = namedtuple("MerminPair", ("b", "b_prime"))


def compose(alpha: MerminPair, beta: MerminPair) -> MerminPair:
    """Combine the pairs of two disjoint site sets, alpha's sites first.

    B_{ab} = (B_a (x) (B_b + B'_b) + B'_a (x) (B_b - B'_b)) / 2 and the
    primed analogue; equivalent to multiplying the f-transforms.
    """
    s = beta.b + beta.b_prime
    d = beta.b - beta.b_prime
    b = 0.5 * (np.kron(alpha.b, s) + np.kron(alpha.b_prime, d))
    b_prime = 0.5 * (np.kron(alpha.b_prime, s) - np.kron(alpha.b, d))
    return MerminPair(b, b_prime)


def mermin_operators(n_parties: int) -> MerminPair:
    """Full pair on n sites: compose folded over n single-site pairs (X, Y)."""
    _check_sites(n_parties)
    return reduce(compose, [MerminPair(SIGMA_X, SIGMA_Y)] * n_parties)


def mermin_closed_form(n_parties: int) -> np.ndarray:
    """Rank-2 corner form 2^{(n-1)/2} (P+ - P-) on the extreme GHZ doublet.

    Built in the computational basis without extra phases; it matches the
    recursive construction only after the corner-phase alignment below.
    """
    return _extreme_ghz_doublet(n_parties, 2 ** ((n_parties - 1) / 2))


def corner_phase(op) -> complex:
    """Unimodular phase of the |0..0><1..1| corner of a corner-form operator."""
    c = complex(op[0, -1])
    return c / abs(c)


def align_corner_phase(op, phase: complex) -> np.ndarray:
    """Multiply the |0..0><1..1| corner by phase (adjoint corner by its conjugate)."""
    a = np.array(op, dtype=complex)
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

