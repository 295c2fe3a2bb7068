"""Dense complex linear algebra for multi-qubit operators and density matrices.

Everything here operates on plain ``numpy`` arrays of ``complex128``:
tensor products, projectors and real expectation values, used by the
`correlators` table and the Bell-Zukowski quadrature. Matrices are dense;
the workbench never exceeds dimension 2**12, where dense storage is cheap
and simple.
"""

from __future__ import annotations

from functools import reduce
from typing import Iterable, Sequence

import numpy as np

from .mermin import COMPARISON_TOL


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
    if abs(val.imag) >= COMPARISON_TOL:
        raise ValueError(f"expectation has imaginary residue {val.imag:.3e}")
    return float(val.real)


def projector(ket: Sequence[complex]) -> np.ndarray:
    v = np.asarray(ket, dtype=complex).reshape(-1)
    return np.outer(v, v.conj())
