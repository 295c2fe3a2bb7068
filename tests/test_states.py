import itertools
import math

import numpy as np
import pytest

from dense_oracle import (
    SIGMA_X,
    SIGMA_Y,
    X_PHASE,
    Y_PHASE,
    copies,
    correlation,
    full_correlation_table,
    noisy_pair,
    phase_observable,
)

V_GRID = (0.0, 0.25, 0.5, 0.81, 1.0)


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
