"""Checks of tests/dense_oracle.py on its own: that it imports nothing from
bellbench; the noisy pair (its trace and positivity, which no correlator
sees, since the in-plane observables are traceless), its copies, the GHZ
basis, its phase observables, its correlation table and its dense
Bell-Zukowski forms; its Bell-Mermin recursion against the tensored
f-transforms and against the closed form; and its input guards (the site
cap, the visibility, phase and node-count ranges and the realness of an
expectation value). numpy itself is not tested here. The dense routes are
compared with bellbench in test_mermin.py, test_zukowski.py, test_lhv.py and
test_acceptance.py, which also catch most defects of their physics.
"""

import ast
import cmath
import math
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

from dense_oracle import (
    MerminPair,
    SIGMA_X,
    SIGMA_Y,
    X_PHASE,
    Y_PHASE,
    align_corner_phase,
    bell_pair,
    compose,
    copies,
    corner_phase,
    correlation,
    dense_ghz_offdiagonal_max,
    expectation,
    expected_alignment_phase,
    full_correlation_table,
    ghz_basis,
    ghz_diagonal,
    local_f,
    mermin_closed_form,
    mermin_operators,
    noisy_pair,
    phase_observable,
    zukowski_closed,
    zukowski_quadrature,
)
from helpers import V_GRID

# The single-site Bell-Mermin pair, B = X and B' = Y.
SITE = MerminPair(SIGMA_X, SIGMA_Y)


def test_imports_nothing_from_bellbench():
    # Parsed, not searched as text: the docstring names bellbench on purpose.
    tree = ast.parse(Path(__file__).with_name("dense_oracle.py").read_text())
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names]
    modules += [node.module or "" for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)]
    assert modules
    assert [m for m in modules if m.split(".")[0] == "bellbench"] == []


# --- the noisy pair, its copies and the GHZ basis ---------------------------


def test_bell_pair_norm_and_correlators():
    ket = bell_pair()
    assert abs(np.linalg.norm(ket) - 1) < 1e-12
    rho = np.outer(ket, ket.conj())
    assert abs(expectation(rho, np.kron(SIGMA_X, SIGMA_Y)) - 1) < 1e-12
    assert abs(expectation(rho, np.kron(SIGMA_X, SIGMA_X))) < 1e-12


def test_noisy_pair_limits():
    np.testing.assert_allclose(noisy_pair(0.0), np.eye(4) / 4, atol=1e-15)
    ket = bell_pair()
    np.testing.assert_allclose(noisy_pair(1.0), np.outer(ket, ket.conj()), atol=1e-15)
    assert abs(correlation(noisy_pair(0.5), [X_PHASE, Y_PHASE]) - 0.5) < 1e-12


def test_noisy_pair_rejects_out_of_range():
    for bad in (-0.1, 1.1):
        with pytest.raises(ValueError):
            noisy_pair(bad)


def test_noisy_pair_is_valid_density_matrix_on_fine_grid():
    for v in np.linspace(0, 1, 101):
        rho = noisy_pair(float(v))
        assert np.abs(rho - rho.conj().T).max() <= 1e-12
        assert abs(np.trace(rho) - 1) <= 1e-12
        assert np.linalg.eigvalsh(rho).min() >= -1e-10


def test_copies():
    np.testing.assert_array_equal(copies(0.7, 1), noisy_pair(0.7))
    np.testing.assert_allclose(copies(0.0, 2), np.eye(16) / 16, atol=1e-15)
    assert abs(np.trace(copies(0.9, 2)) - 1) < 1e-12
    with pytest.raises(ValueError):
        copies(0.5, 7)  # would need 14 qubits


class TestGhzBasis:
    def test_two_party_doublet(self):
        basis = ghz_basis(2)
        expected_plus = np.array([1, 0, 0, 1]) / math.sqrt(2)
        expected_minus = np.array([1, 0, 0, -1]) / math.sqrt(2)
        np.testing.assert_allclose(basis[0], expected_plus, atol=1e-15)
        np.testing.assert_allclose(basis[1], expected_minus, atol=1e-15)

    def test_index_arithmetic_three_party(self):
        # j = 1 (binary 01) pairs |010> with |101>; hand-computed oracle
        basis = ghz_basis(3)
        plus, minus = basis[2], basis[3]
        assert abs(plus[0b010] - 1 / math.sqrt(2)) < 1e-15
        assert abs(plus[0b101] - 1 / math.sqrt(2)) < 1e-15
        assert abs(minus[0b101] + 1 / math.sqrt(2)) < 1e-15
        assert np.count_nonzero(plus) == 2

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ghz_basis(1)
        with pytest.raises(ValueError):
            ghz_basis(13)


# --- phase observables and the correlation table ---------------------------


class TestPhaseObservable:
    def test_x_and_y(self):
        np.testing.assert_array_equal(phase_observable(0.0), SIGMA_X)
        np.testing.assert_allclose(phase_observable(math.pi / 2), SIGMA_Y, atol=1e-15)

    def test_rejects_out_of_range(self):
        for bad in (-0.1, math.pi, 4.0):
            with pytest.raises(ValueError):
                phase_observable(bad)


class TestCorrelationTable:
    def test_pair_table(self):
        for v in V_GRID:
            table = full_correlation_table(noisy_pair(v), 2)
            assert abs(table["XX"]) < 1e-12
            assert abs(table["YY"]) < 1e-12
            assert abs(table["XY"] - v) < 1e-12
            assert abs(table["YX"] - v) < 1e-12


# --- the dense Bell-Zukowski forms ------------------------------------------


class TestOperatorForms:
    def test_minus_doublet_value(self):
        for n in (2, 3):
            minus = ghz_basis(n)[1]
            val = (minus.conj() @ zukowski_closed(n) @ minus).real
            assert abs(val + 0.5 * (math.pi / 2) ** n) < 1e-12

    def test_quadrature_against_dense_grid_oracle(self):
        # independent oracle: walk the full 2-d midpoint grid
        m = 16
        nodes = (np.arange(m) + 0.5) * math.pi / m
        acc = np.zeros((4, 4), dtype=complex)
        for p1 in nodes:
            for p2 in nodes:
                acc += (math.pi / m) ** 2 * math.cos(p1 + p2) * np.kron(
                    phase_observable(p1), phase_observable(p2))
        acc /= 4
        np.testing.assert_allclose(zukowski_quadrature(2, m), acc, atol=1e-13)

    def test_ghz_diagonality_of_quadrature_matrix(self):
        # the integral route is diagonal in the GHZ basis on its own
        for n in (2, 3):
            op = zukowski_quadrature(n, nodes_per_axis=8)
            assert dense_ghz_offdiagonal_max(n, op) < 1e-12
            diag = ghz_diagonal(n, op)
            assert np.abs(diag[2:]).max() < 1e-12

    def test_site_count_validation(self):
        for bad in (1, 13):
            with pytest.raises(ValueError):
                zukowski_closed(bad)
        with pytest.raises(ValueError):
            zukowski_quadrature(2, nodes_per_axis=1)


# --- the Bell-Mermin recursion: local_f and compose ------------------------


def test_local_f_of_xy_is_scaled_raising_operator():
    f = local_f(SIGMA_X, SIGMA_Y)
    expected = cmath.exp(-1j * math.pi / 4) * math.sqrt(2) * np.array(
        [[0, 1], [0, 0]], dtype=complex)
    np.testing.assert_allclose(f, expected, atol=1e-15)


def test_compose_matches_f_product_oracle():
    # oracle: tensor the local f-transforms, then split into Hermitian parts
    # (odd sizes included, since compose is defined for any disjoint sites)
    for n in (2, 3, 4):
        pair = SITE
        for _ in range(n - 1):
            pair = compose(pair, SITE)
        target = reduce(np.kron, [local_f(SIGMA_X, SIGMA_Y)] * n)
        g = math.sqrt(2) * cmath.exp(1j * math.pi / 4) * target
        gd = g.conj().T
        np.testing.assert_allclose(pair.b, (g + gd) / 2, atol=1e-12)
        np.testing.assert_allclose(pair.b_prime, (g - gd) / 2j, atol=1e-12)


# --- the Bell-Mermin recursion against its closed form -------------------


@pytest.mark.parametrize("n_copies", [1, 2, 3])
def test_recursion_matches_closed_form_after_alignment(n_copies):
    n = 2 * n_copies
    pair = mermin_operators(n)
    phase = corner_phase(pair.b)
    assert abs(phase - expected_alignment_phase(n)) < 1e-12
    aligned = align_corner_phase(mermin_closed_form(n), phase)
    np.testing.assert_allclose(pair.b, aligned, atol=1e-10)


def test_party_count_validation():
    # The cap is probed through the closed form, whose 13-qubit matrix is
    # allocated lazily, so a broken cap starts no 13-site recursion.
    for bad in (0, 1):
        with pytest.raises(ValueError):
            mermin_operators(bad)
    for bad in (0, 1, 13):
        with pytest.raises(ValueError):
            mermin_closed_form(bad)


def test_expectation_rejects_an_imaginary_residue():
    # tr[rho (1e-6 i) I] = 1e-6 i: far above rounding, far below a correlator
    with pytest.raises(ValueError, match="imaginary residue"):
        expectation(noisy_pair(0.5), 1e-6j * np.eye(4))

