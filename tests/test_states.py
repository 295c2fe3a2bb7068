import itertools
import math

import numpy as np
import pytest

from dense_oracle import (
    SIGMA_X,
    SIGMA_Y,
    X_PHASE,
    Y_PHASE,
    bell_pair,
    copies,
    correlation,
    expectation,
    full_correlation_table,
    ghz_basis,
    noisy_pair,
    phase_observable,
    tensor,
)

V_GRID = (0.0, 0.25, 0.5, 0.81, 1.0)


def test_bell_pair_norm_and_correlators():
    ket = bell_pair()
    assert abs(np.linalg.norm(ket) - 1) < 1e-12
    rho = np.outer(ket, ket.conj())
    assert abs(expectation(rho, tensor(SIGMA_X, SIGMA_Y)) - 1) < 1e-12
    assert abs(expectation(rho, tensor(SIGMA_X, SIGMA_X))) < 1e-12


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


class TestPhaseObservable:
    def test_x_and_y(self):
        np.testing.assert_array_equal(phase_observable(0.0), SIGMA_X)
        np.testing.assert_allclose(phase_observable(math.pi / 2), SIGMA_Y, atol=1e-15)

    def test_eigensystem(self):
        # equal-weight superpositions with relative phase e^{i phi}
        rng = np.random.default_rng(21)
        for phi in rng.uniform(0, math.pi, 25):
            obs = phase_observable(phi)
            for sign in (+1, -1):
                vec = np.array([1, sign * np.exp(1j * phi)]) / math.sqrt(2)
                np.testing.assert_allclose(obs @ vec, sign * vec, atol=1e-14)

    def test_squares_to_identity(self):
        rng = np.random.default_rng(22)
        for phi in rng.uniform(0, math.pi, 100):
            obs = phase_observable(phi)
            np.testing.assert_allclose(obs @ obs, np.eye(2), atol=1e-15)

    def test_rejects_out_of_range(self):
        for bad in (-0.1, math.pi, 4.0):
            with pytest.raises(ValueError):
                phase_observable(bad)


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

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_gram_matrix_is_identity(self, n):
        basis = np.column_stack(ghz_basis(n))
        gram = basis.conj().T @ basis
        np.testing.assert_allclose(gram, np.eye(2**n), atol=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ghz_basis(1)
        with pytest.raises(ValueError):
            ghz_basis(13)


class TestCorrelation:
    def test_pair_correlators(self):
        for v in V_GRID:
            rho = noisy_pair(v)
            assert abs(correlation(rho, [X_PHASE, Y_PHASE]) - v) < 1e-12
            assert abs(correlation(rho, [X_PHASE, X_PHASE])) < 1e-12

    def test_two_copies_factorize(self):
        rho = copies(0.8, 2)
        phases = [X_PHASE, Y_PHASE, X_PHASE, Y_PHASE]
        assert abs(correlation(rho, phases) - 0.8**2) < 1e-12

    def test_affine_in_visibility(self):
        pure = noisy_pair(1.0)
        for phases in itertools.product([X_PHASE, Y_PHASE], repeat=2):
            base = correlation(pure, list(phases))
            for v in V_GRID:
                val = correlation(noisy_pair(v), list(phases))
                assert abs(val - v * base) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            correlation(noisy_pair(0.5), [X_PHASE] * 3)


class TestCorrelationTable:
    def test_pair_table(self):
        for v in V_GRID:
            table = full_correlation_table(noisy_pair(v), 2)
            assert abs(table["XX"]) < 1e-12
            assert abs(table["YY"]) < 1e-12
            assert abs(table["XY"] - v) < 1e-12
            assert abs(table["YX"] - v) < 1e-12

    def test_zero_visibility_all_zero(self):
        table = full_correlation_table(noisy_pair(0.0), 2)
        assert max(abs(x) for x in table.values()) < 1e-12

    def test_two_copy_entries(self):
        table = full_correlation_table(copies(0.9, 2), 4)
        assert len(table) == 16
        assert abs(table["XYXY"] - 0.81) < 1e-12
        assert abs(table["XXXY"]) < 1e-12
