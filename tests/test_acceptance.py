"""Acceptance suite: one test per criterion, at the stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to get one pass line per
criterion; a failing criterion shows up as an ordinary pytest failure.
"""

import math

import numpy as np

from bellbench.cli import main
from bellbench.mermin import (
    BOUND_SLACK,
    F_PHASE,
    local_bound_check,
    mermin_expectation,
    pair_coefficients,
    pair_table,
    threshold_visibility,
    zukowski_from_mermin,
)
from bellbench.zukowski import (
    cell_weights,
    closed_vs_quadrature_error,
    ghz_offdiagonal_max,
    sign_cos_step,
    z_prime_functional,
)
from bellbench.lhv import CorrelationTable, lhv_feasible, quadruple_values
from dense_oracle import (
    SETTING_PHASES,
    align_corner_phase,
    copies,
    corner_phase,
    correlation,
    expectation,
    expected_alignment_phase,
    full_correlation_table,
    mermin_closed_form,
    mermin_operators,
    noisy_pair,
    zukowski_aligned,
    zukowski_closed,
)
from helpers import V_GRID, ZUKOWSKI_AT_FULL_VISIBILITY
from lp_oracle import chsh_quadruples, lp_feasible, settings

def _report(line: str) -> None:
    print(line)


def test_criterion_1_correlator_table():
    x, y = SETTING_PHASES["X"], SETTING_PHASES["Y"]
    for v in V_GRID:
        rho = noisy_pair(v)
        assert abs(correlation(rho, [x, x])) < 1e-12
        assert abs(correlation(rho, [y, y])) < 1e-12
        assert abs(correlation(rho, [x, y]) - v) < 1e-12
        assert abs(correlation(rho, [y, x]) - v) < 1e-12
        table = CorrelationTable(full_correlation_table(rho, 2))
        values = quadruple_values(table)
        np.testing.assert_allclose(values, (2 * v, 0, 0, 2 * v), atol=1e-12)
        np.testing.assert_allclose(values, chsh_quadruples(table.values), atol=1e-15)
        assert lhv_feasible(table).feasible
    _report("criterion 1 (correlator table and quadruples): PASS")


def test_criterion_2_mermin_identity():
    for n_copies in (1, 2, 3):
        n = 2 * n_copies
        pair = mermin_operators(n)
        phase = corner_phase(pair.b)
        assert abs(phase - expected_alignment_phase(n)) < 1e-12
        aligned = align_corner_phase(mermin_closed_form(n), phase)
        assert np.abs(pair.b - aligned).max() < 1e-10
        for v in V_GRID:
            assert mermin_expectation(pair_table(v), v, n_copies) == v**n_copies
            a, _ = pair_coefficients(pair_table(v))
            contracted = (-1j * a) ** n_copies / F_PHASE
            assert abs(contracted.real - v**n_copies) < 1e-10
            primed = expectation(copies(v, n_copies), pair.b_prime)
            assert abs(primed - v**n_copies) < 1e-10
    _report("criterion 2 (Mermin recursion vs closed form, <B> = V^N): PASS")


def test_criterion_3_zukowski_operator():
    for n in (2, 3, 4):
        assert closed_vs_quadrature_error(n, nodes_per_axis=8) < 1e-10
        assert ghz_offdiagonal_max(n) < 1e-12
        eigs = np.linalg.eigvalsh(zukowski_closed(n))
        top = 0.5 * (math.pi / 2) ** n
        assert abs(eigs[-1] - top) < 1e-12
        assert abs(eigs[0] + top) < 1e-12
        assert np.abs(eigs[1:-1]).max() < 1e-12
    _report("criterion 3 (Zukowski quadrature, diagonality, eigenvalues): PASS")


def test_criterion_4_violation_numbers():
    for n_copies, frozen in ZUKOWSKI_AT_FULL_VISIBILITY.items():
        n = 2 * n_copies
        # independent recomputation of the frozen oracle value
        oracle = 0.5 * (math.pi / 2) ** n * 2 ** (-(n - 1) / 2)
        assert abs(oracle - frozen) < 1e-12
        value = zukowski_from_mermin(1.0, n_copies)
        assert abs(value - frozen) < 1e-5
        # cross-check: direct trace against the shared pairs, using the
        # operator in the recursion's phase convention
        traced = expectation(copies(1.0, n_copies), zukowski_aligned(n_copies))
        assert abs(traced - value) < 1e-10
    assert local_bound_check(zukowski_from_mermin(1.0, 1))
    for v in V_GRID:
        assert local_bound_check(zukowski_from_mermin(v, 1))
    for n_copies in (2, 3):
        assert not local_bound_check(zukowski_from_mermin(1.0, n_copies))
    _report("criterion 4 (Zukowski violation numbers and verdicts): PASS")


def test_criterion_5_thresholds():
    assert abs(threshold_visibility(2) - 0.963935) < 1e-5
    assert abs(threshold_visibility(3) - 0.909837) < 1e-5
    previous = threshold_visibility(2)
    for n in range(3, 51):
        current = threshold_visibility(n)
        assert current < previous
        previous = current
    assert abs(threshold_visibility(50) - 8 / math.pi**2) < 0.01
    for n_copies in (2, 3, 4):
        v = threshold_visibility(n_copies)
        assert abs(zukowski_from_mermin(v**n_copies, n_copies) - 1) < 1e-9
    _report("criterion 5 (threshold visibilities): PASS")


def test_criterion_6_lhv_oracle_with_conflict():
    for v in V_GRID:
        assert lhv_feasible(CorrelationTable(full_correlation_table(noisy_pair(v), 2))).feasible
        assert lhv_feasible(CorrelationTable(full_correlation_table(copies(v, 2), 4))).feasible
    # the central conflict, as one combined check at V = 1, N = 2:
    # the measured data admits a local model, yet the computed Zukowski
    # average violates its bound
    table = CorrelationTable(full_correlation_table(copies(1.0, 2), 4))
    feasible = lhv_feasible(table).feasible
    violated = not local_bound_check(zukowski_from_mermin(1.0, 2))
    assert feasible and violated
    _report("criterion 6 (LHV-feasible data with Zukowski violation): PASS")


def test_criterion_7_oracle_agreement():
    # lp_feasible is the test-side 4^n-strategy LP; lhv_feasible decides on
    # the complete inequality set in closed form.
    rng = np.random.default_rng(2024)
    for _ in range(500):
        values = dict(zip(["XX", "XY", "YX", "YY"], 2 * rng.random(4) - 1))
        assert lhv_feasible(CorrelationTable(values)).feasible == lp_feasible(values)
    for _ in range(100):
        values = dict(zip(settings(3), 2 * rng.random(8) - 1))
        assert lhv_feasible(CorrelationTable(values)).feasible == lp_feasible(values)
    _report("criterion 7 (LP vs complete-set agreement, 600 tables): PASS")


def test_criterion_8_functional_bounds():
    # Every sign pattern of every grid up to 16 cells, bit k of a pattern's
    # index giving cell k's sign: the largest |z'| is exactly the bound 2.
    # The S bounds follow, |S_n| = |Re z'_1 ... z'_n| <= |z'_1| ... |z'_n| <= 2^n.
    for grid in range(2, 17, 2):
        signs = 1 - 2 * ((np.arange(2**grid)[:, None] >> np.arange(grid)) & 1)
        largest = np.abs(signs @ np.array(cell_weights(grid))).max()
        assert abs(largest - 2.0) <= BOUND_SLACK, (grid, largest)
    extremal = z_prime_functional(sign_cos_step(64))
    assert abs(extremal - 2.0) < 1e-14
    _report("criterion 8 (step-function bounds |z'| <= 2 over all 2^G patterns, "
            "G <= 16, so |S| <= 2^n): PASS")


def test_criterion_9_determinism(tmp_path):
    sweep_paths = [tmp_path / "s1.csv", tmp_path / "s2.csv"]
    for p in sweep_paths:
        assert main(["sweep", "--v-min", "0.8", "--v-max", "1.0",
                     "--v-step", "0.005", "--copies", "1,2,3",
                     "--output", str(p)]) == 0
    assert sweep_paths[0].read_bytes() == sweep_paths[1].read_bytes()

    verify_paths = [tmp_path / "v1.json", tmp_path / "v2.json"]
    for p in verify_paths:
        assert main(["verify-appendix", "--seed", "42",
                     "--output", str(p)]) == 0
    assert verify_paths[0].read_bytes() == verify_paths[1].read_bytes()
    _report("criterion 9 (byte-identical sweep and verify-appendix): PASS")
