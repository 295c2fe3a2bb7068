"""Bell-Zukowski operator in closed form and by quadrature, its GHZ
diagonality, and the step-function bounds behind its local-realistic
derivation: the numpy routes of `verify-appendix`, and the only dense
operators `bellctl` builds (n <= 4, where the claim is about the operator
itself). The scalar Bell relation
to the Bell-Mermin average, its bound and the threshold visibility are
closed forms in bellbench.mermin.

The operator averages the all-angle correlation kernel cos(phi_1 + ... + phi_n)
over the in-plane observables sigma_phi at every site,

    Z_n = 2^{-n} * integral over [0, pi]^n of cos(sum phi) sigma_phi_1 x ... x sigma_phi_n,

and collapses to the rank-2 corner form (pi/2)^n (P+ - P-)/2 on the extreme
GHZ doublet. Every matrix-element integrand factorizes per axis into
e^{i m phi} with m in {-2, 0, 2}, so an equispaced midpoint rule with at
least two nodes per axis reproduces the integral exactly; the quadrature
here is evaluated separably (per-axis 1-D sums, tensored), never as a dense
n-dimensional grid walk.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .states import MAX_QUBITS, ghz_basis, phase_observable

S_BOUND_SLACK = 1e-9


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
    stacked = (functools.reduce(np.kron, [plus_moment] * n)
               + functools.reduce(np.kron, [minus_moment] * n))
    return stacked / 2 ** (n + 1)


# --- step-function functionals -------------------------------------------
#
# Local response functions are +-1-valued step functions on a uniform
# partition of [0, pi); z'(f) = integral f(phi) e^{i phi} d phi is evaluated
# cell-exactly, so bound checks are statements about the functions themselves
# rather than about a discretization.


def cell_weights(cells: int) -> np.ndarray:
    """Exact per-cell integrals of e^{i phi} on a uniform partition of [0, pi]."""
    if cells < 1:
        raise ValueError("need at least one cell")
    edges = np.arange(cells + 1) * math.pi / cells
    return (np.exp(1j * edges[1:]) - np.exp(1j * edges[:-1])) / 1j


def validate_step_values(values) -> np.ndarray:
    vals = np.asarray(values, dtype=float)
    if vals.ndim == 0 or vals.shape[-1] < 1:
        raise ValueError("step function needs at least one cell")
    if not np.all(np.abs(vals) == 1.0):
        raise ValueError("step-function values must be exactly +-1")
    return vals


def z_prime_functional(values) -> complex:
    """z' = integral of f e^{i phi} over [0, pi] for a +-1 step function f."""
    vals = validate_step_values(values)
    if vals.ndim != 1:
        raise ValueError("expected a single step function")
    return complex(vals @ cell_weights(len(vals)))


def sign_cos_step(cells: int) -> np.ndarray:
    """Extremal step function sign(cos phi); needs an even cell count so the
    sign change at pi/2 falls on a cell boundary and |z'| = 2 is hit exactly."""
    if cells < 2 or cells % 2 != 0:
        raise ValueError("sign(cos) step function needs an even cell count")
    return np.where(np.arange(cells) < cells // 2, 1.0, -1.0)


def _check_sites(n: int) -> None:
    if not 2 <= n <= MAX_QUBITS:
        raise ValueError(f"site count must lie in [2, {MAX_QUBITS}], got {n}")


def closed_vs_quadrature_error(n: int, nodes_per_axis: int = 8) -> float:
    """Max-entry gap between the closed form and the midpoint quadrature."""
    return float(np.abs(zukowski_quadrature(n, nodes_per_axis) - zukowski_closed(n)).max())


def ghz_offdiagonal_max(n: int, op: np.ndarray | None = None) -> float:
    """Largest off-diagonal magnitude of Z_n in the GHZ basis.

    Pass the quadrature-built matrix as op to check the integral route
    directly; the default checks the closed form.
    """
    basis = np.column_stack(ghz_basis(n))
    in_basis = basis.conj().T @ (zukowski_closed(n) if op is None else op) @ basis
    off = in_basis - np.diag(np.diag(in_basis))
    return float(np.abs(off).max())
