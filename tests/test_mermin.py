import math
from functools import reduce

import numpy as np
import pytest

from bellbench import mermin
from bellbench.mermin import (
    F_PHASE,
    local_bound_check,
    mermin_expectation,
    pair_contraction,
    pair_table,
)
from dense_oracle import (
    copies,
    dense_pair_contraction,
    expectation,
    full_correlation_table,
    mermin_operators,
    noisy_pair,
)
from helpers import V_GRID, run_main


@pytest.mark.parametrize("n_copies", [1, 2, 3, 4])
def test_expectation_is_v_power_n(n_copies):
    # the dense 2N-qubit recursion and trace are the oracle for the contraction
    pair = mermin_operators(2 * n_copies)
    for v in V_GRID:
        got = mermin_expectation(pair_table(v), v, n_copies)
        contracted = pair_contraction(pair_table(v)) ** n_copies / F_PHASE
        assert abs(contracted.real - got) < 1e-10
        rho = copies(v, n_copies)
        assert got == v**n_copies  # the checked closed form itself
        assert abs(contracted.real - expectation(rho, pair.b)) < 1e-12
        assert abs(contracted.imag - expectation(rho, pair.b_prime)) < 1e-12


def test_pair_contraction_matches_dense_trace():
    # plain complex arithmetic on the two amplitudes against the 4x4 matrix trace
    for v in (*V_GRID, 0.1, 1 / 3, 0.9, 0.963934979904):
        assert abs(pair_contraction(pair_table(v)) - dense_pair_contraction(v)) < 1e-15


def test_contraction_of_random_pairs_matches_dense_trace():
    # the noisy pair's table has XX = YY = 0; a random state's has all four
    # correlators, so every term of the contraction is exercised
    rng = np.random.default_rng(24)
    for _ in range(48):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        t = pair_contraction(full_correlation_table(rho, 2))
        for n_copies in (1, 2, 3):
            pair = mermin_operators(2 * n_copies)
            state = reduce(np.kron, [rho] * n_copies)
            z = t**n_copies / F_PHASE
            assert abs(z.real - expectation(state, pair.b)) < 1e-12
            assert abs(z.imag - expectation(state, pair.b_prime)) < 1e-12


def test_pair_table_matches_dense_traces():
    # plain complex arithmetic on the two amplitudes against four dense 4x4 traces
    for v in (*V_GRID, 0.1, 1 / 3, 0.9, 0.963934979904, *np.linspace(0, 1, 101)):
        dense = full_correlation_table(noisy_pair(float(v)), 2)
        table = pair_table(float(v))
        assert table.keys() == dense.keys()
        for key in table:
            assert abs(table[key] - dense[key]) < 1e-15, (v, key)


def test_pair_table_has_exact_zeros_and_symmetric_cross_terms():
    for k in range(1001):
        v = k / 1000
        table = pair_table(v)
        assert table["XX"] == table["YY"] == 0.0
        assert math.copysign(1.0, table["XX"]) == math.copysign(1.0, table["YY"]) == 1.0
        assert table["XY"] == table["YX"]
        assert abs(table["XY"] - v) < 1e-15


def test_pair_table_needs_a_visibility_in_the_unit_interval():
    for bad in (-0.1, 1.5, math.nan):
        with pytest.raises(ValueError):
            pair_table(bad)


def test_contraction_needs_a_copy():
    with pytest.raises(ValueError):
        mermin_expectation(pair_table(0.5), 0.5, 0)


def _conjugate_phase(monkeypatch):
    monkeypatch.setattr(mermin, "F_PHASE", mermin.F_PHASE.conjugate())


def _half_visibility_pair(monkeypatch):
    # half the |11> amplitude halves the pair's coherence, as V -> V/2 would
    a00, a11 = mermin.PAIR_AMPLITUDES
    monkeypatch.setattr(mermin, "PAIR_AMPLITUDES", (a00, a11 / 2))


@pytest.mark.parametrize("n_copies", [1, 2])
@pytest.mark.parametrize("breakage", [_conjugate_phase, _half_visibility_pair])
def test_broken_contraction_is_a_numerical_failure(monkeypatch, breakage, n_copies):
    # a conjugated phase keeps <B> = V^N at even N; only the <B'> check sees it
    breakage(monkeypatch)
    with pytest.raises(ArithmeticError):
        mermin_expectation(pair_table(0.9), 0.9, n_copies)
    code, out, err = run_main(["analyze", "--visibility", "0.9", "--copies", str(n_copies)])
    assert code == 3
    assert out == ""
    assert "numerical failure" in err


def test_bound_check():
    assert local_bound_check(0.9)
    assert not local_bound_check(1.05)
    for v in np.linspace(0, 1, 21):
        for n in (1, 2, 3):
            assert local_bound_check(float(v) ** n)
