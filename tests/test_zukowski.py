import math

import numpy as np
import pytest

from bellbench.mermin import (
    bell_relation_scale,
    modified_mermin_bound,
    threshold_visibility,
    local_bound_check,
    zukowski_from_mermin,
)
from bellbench import zukowski
from bellbench.zukowski import (
    _antidiagonal,
    _site_moments,
    cell_weights,
    closed_vs_quadrature_error,
    ghz_offdiagonal_max,
    sign_cos_step,
    z_prime_functional,
)
from dense_oracle import (
    bell_relation_operator_gap,
    copies,
    dense_ghz_offdiagonal_max,
    expectation,
    ghz_diagonal,
    mermin_closed_form,
    mermin_operators,
    moment_power,
    zukowski_aligned,
    zukowski_closed,
    zukowski_quadrature,
)
from helpers import V_GRID, ZUKOWSKI_AT_FULL_VISIBILITY


class TestOperatorForms:
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("nodes", [2, 3, 4, 8, 9])
    def test_quadrature_is_exact(self, n, nodes):
        assert closed_vs_quadrature_error(n, nodes) < 1e-10

    def test_ghz_diagonality(self):
        for n in (2, 3, 4):
            assert ghz_offdiagonal_max(n) < 1e-12
            assert dense_ghz_offdiagonal_max(n) < 1e-12
            diag = ghz_diagonal(n, zukowski_closed(n))
            top = 0.5 * (math.pi / 2) ** n
            assert abs(diag[0] - top) < 1e-12
            assert abs(diag[1] + top) < 1e-12
            assert np.abs(diag[2:]).max() < 1e-12  # mixed-index doublets vanish

    def test_structured_checks_validate_arguments(self):
        with pytest.raises(ValueError, match="at least 2 nodes"):
            closed_vs_quadrature_error(2, nodes_per_axis=1)
        with pytest.raises(ValueError, match="at least 2"):
            ghz_offdiagonal_max(1)

    def test_structured_checks_have_no_site_cap(self):
        # above the dense oracle's 12-qubit cap the n + 1 entries still suffice
        for n in (13, 40):
            scale = 0.5 * (math.pi / 2) ** n
            assert closed_vs_quadrature_error(n) < 1e-14 * scale
            assert ghz_offdiagonal_max(n) < 1e-14 * scale


def assert_antidiagonal(n, entries, dense):
    # entry (i, ~i) is entries[popcount(i)]; every other entry is zero
    expected = np.zeros_like(dense)
    for i in range(2**n):
        expected[i, (2**n - 1) ^ i] = entries[bin(i).count("1")]
    assert np.abs(expected - dense).max() <= 1e-14


class TestStructuredQuadrature:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("nodes", range(2, 10))
    def test_entries_match_dense_quadrature(self, n, nodes):
        entries = _antidiagonal(n, *_site_moments(nodes))
        assert_antidiagonal(n, entries, zukowski_quadrature(n, nodes))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_non_exact_moment_matches_dense(self, monkeypatch, n):
        # a defective moment: both checks must report the dense operator's gaps
        m0, m2 = 3.1, 0.1 + 0.05j
        moment = np.array([[0, m0], [m2, 0]], dtype=complex)
        dense = moment_power(n, moment, moment.conj().T)
        assert_antidiagonal(n, _antidiagonal(n, m0, m2), dense)
        monkeypatch.setattr(zukowski, "_site_moments", lambda nodes: (m0, m2))
        quad_gap = np.abs(dense - zukowski_closed(n)).max()
        off_gap = dense_ghz_offdiagonal_max(n, dense)
        assert quad_gap > 1e-3 and off_gap > 1e-3
        assert abs(closed_vs_quadrature_error(n) - quad_gap) <= 1e-14
        assert abs(ghz_offdiagonal_max(n) - off_gap) <= 1e-14


class TestBellRelation:
    def test_scale_values(self):
        for n_copies, scale in ZUKOWSKI_AT_FULL_VISIBILITY.items():
            assert abs(bell_relation_scale(n_copies) - scale) < 1e-15

    def test_aligned_equals_rescaled_recursion(self):
        # the operator identity behind the scalar relation
        for n_copies in (1, 2, 3):
            assert bell_relation_operator_gap(n_copies, bell_relation_scale) < 1e-12

    def test_closed_forms_share_the_scale(self):
        for n_copies in (1, 2, 3):
            n = 2 * n_copies
            scaled = bell_relation_scale(n_copies) * mermin_closed_form(n)
            assert np.abs(zukowski_closed(n) - scaled).max() < 1e-12

    @pytest.mark.parametrize("n_copies", [1, 2])
    def test_trace_bridge(self, n_copies):
        # trace against shared pairs reproduces the rescaled Mermin average
        for v in V_GRID:
            rho = copies(v, n_copies)
            traced = expectation(rho, zukowski_aligned(n_copies))
            assert abs(traced - zukowski_from_mermin(v**n_copies, n_copies)) < 1e-10


class TestThresholds:
    def test_modified_bound_values(self):
        assert abs(modified_mermin_bound(1) - 1.1463183365015128) < 1e-12
        assert abs(modified_mermin_bound(2) - 0.9291706454819915) < 1e-12

    def test_threshold_values(self):
        assert abs(threshold_visibility(2) - 0.9639349799037233) < 1e-12
        assert abs(threshold_visibility(3) - 0.9098334666264689) < 1e-12

    def test_threshold_rejects_single_copy(self):
        with pytest.raises(ValueError):
            threshold_visibility(1)

    def test_threshold_monotone_decreasing_to_limit(self):
        limit = 8 / math.pi**2
        previous = threshold_visibility(2)
        for n in range(3, 26):
            current = threshold_visibility(n)
            assert current < previous
            assert current > limit
            previous = current
        assert threshold_visibility(20) - limit < 0.02
        assert threshold_visibility(50) - limit < 0.01

    @pytest.mark.parametrize("n_copies", [900, 2000])
    def test_closed_forms_stay_finite_at_large_n(self, n_copies):
        # (2/pi)^{2N} underflows at N = 900 and (pi/2)^{2N} overflows well
        # before N = 2000; base c = 8/pi^2 keeps both forms in range
        log_bound = n_copies * math.log(8 / math.pi**2) + math.log(2) / 2
        assert math.isclose(modified_mermin_bound(n_copies), math.exp(log_bound),
                            rel_tol=1e-12)
        assert math.isclose(bell_relation_scale(n_copies), math.exp(-log_bound),
                            rel_tol=1e-12)
        assert math.isclose(threshold_visibility(n_copies),
                            math.exp(log_bound / n_copies), rel_tol=1e-14)
        assert threshold_visibility(n_copies) > 0.81

    def test_threshold_approaches_limit_at_rate_ln2_over_2n(self):
        # c 2^{1/(2N)} - c = c ln2 / (2N) (1 + ln2 / (4N) + ...)
        limit = 8 / math.pi**2
        for n in range(10, 501):
            rate = (threshold_visibility(n) - limit) * 2 * n / (limit * math.log(2))
            assert abs(rate - 1) < 1 / n


class TestBoundChecks:
    def test_zukowski_verdicts(self):
        assert local_bound_check(0.87237)
        assert not local_bound_check(ZUKOWSKI_AT_FULL_VISIBILITY[2])
        assert local_bound_check(0.95**2 * ZUKOWSKI_AT_FULL_VISIBILITY[2])


class TestStepFunctionals:
    def test_constant_function(self):
        z = z_prime_functional(np.ones(64))
        assert abs(z - 2j) < 1e-14

    def test_sign_cos_is_extremal(self):
        z = z_prime_functional(sign_cos_step(64))
        assert abs(z - 2.0) < 1e-14

    def test_sign_cos_split_oracle(self):
        # split integral oracle: each half of [0, pi] contributes exactly 1
        half = (np.exp(1j * math.pi / 2) - 1) / 1j
        assert abs(half - (1 + 1j)) < 1e-15
        z = z_prime_functional(sign_cos_step(2))
        assert abs(z - 2.0) < 1e-15

    def test_random_functions_respect_bound(self):
        signs = np.random.default_rng(7).choice([-1.0, 1.0], size=(10_000, 64))
        zs = signs @ cell_weights(64)
        assert np.abs(zs).max() <= 2 + 1e-12

    def test_s_functional_extremal_and_imaginary_cases(self):
        extremal = sign_cos_step(64)
        for n in (1, 2, 3):
            assert abs((z_prime_functional(extremal) ** n).real - 2**n) < 1e-12
        # one constant factor makes the product purely imaginary
        s = (z_prime_functional(np.ones(64)) * z_prime_functional(extremal)).real
        assert abs(s) < 1e-12

    def test_s_functional_random_bound(self):
        rng = np.random.default_rng(8)
        for n in (2, 3):
            signs = rng.choice([-1.0, 1.0], size=(2000 * n, 64))
            zs = (signs @ cell_weights(64)).reshape(2000, n)
            s = np.abs(zs.prod(axis=1).real)
            assert s.max() <= 2**n + 1e-9

    def test_rejects_bad_step_values(self):
        with pytest.raises(ValueError):
            z_prime_functional(np.array([1.0, 0.5]))
        with pytest.raises(ValueError):
            sign_cos_step(5)


def test_rescaled_recursion_expectation_equals_bridge():
    # same bridge, phrased through the recursive operator directly
    for n_copies in (1, 2):
        op = bell_relation_scale(n_copies) * mermin_operators(2 * n_copies).b
        traced = expectation(copies(0.81, n_copies), op)
        assert abs(traced - zukowski_from_mermin(0.81**n_copies, n_copies)) < 1e-10
