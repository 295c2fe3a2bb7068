"""Checks of tests/lp_oracle.py on its own: the phase-1 simplex, the
deterministic strategies and their correlator matrix, the witness
rebuild and the explicit CHSH sign patterns. The comparisons of bellbench.lhv with this oracle are in
tests/test_lhv.py.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from lp_oracle import (
    QUADRUPLE_SIGNS,
    SimplexError,
    chsh_quadruples,
    enumerate_strategies,
    phase1_feasibility,
    settings,
    strategy_correlations,
    strategy_matrix,
    witness_table,
)


def test_imports_nothing_from_bellbench():
    # Parsed, not searched as text: the docstring names bellbench on purpose.
    tree = ast.parse(Path(__file__).with_name("lp_oracle.py").read_text())
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names]
    modules += [node.module or "" for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)]
    assert modules
    assert [m for m in modules if m.split(".")[0] == "bellbench"] == []


# --- the phase-1 simplex -----------------------------------------------------


def test_feasible_square_system():
    a = np.array([[1.0, 0.0], [0.0, 1.0]])
    b = np.array([0.5, 0.25])
    x, residual = phase1_feasibility(a, b)
    assert residual < 1e-12
    np.testing.assert_allclose(x, b, atol=1e-12)


def test_feasible_underdetermined():
    # x1 + x2 = 1 has many nonnegative solutions
    a = np.array([[1.0, 1.0]])
    b = np.array([1.0])
    x, residual = phase1_feasibility(a, b)
    assert residual < 1e-12
    assert abs(x.sum() - 1) < 1e-12
    assert x.min() >= -1e-12


def test_infeasible_sign_requirement():
    # x1 = -1 with x1 >= 0 cannot hold
    a = np.array([[1.0]])
    b = np.array([-1.0])
    _, residual = phase1_feasibility(a, b)
    assert residual > 0.5


def test_infeasible_inconsistent_rows():
    a = np.array([[1.0, 1.0], [1.0, 1.0]])
    b = np.array([1.0, 2.0])
    _, residual = phase1_feasibility(a, b)
    assert residual > 0.5


def test_negative_rhs_rows_are_flipped():
    a = np.array([[-1.0, 0.0], [0.0, 1.0]])
    b = np.array([-0.75, 0.5])
    x, residual = phase1_feasibility(a, b)
    assert residual < 1e-12
    np.testing.assert_allclose(x, [0.75, 0.5], atol=1e-12)


def test_random_feasible_mixtures():
    rng = np.random.default_rng(41)
    for _ in range(50):
        a = rng.uniform(-1, 1, size=(6, 20))
        weights = rng.uniform(0, 1, 20)
        weights /= weights.sum()
        b = a @ weights
        x, residual = phase1_feasibility(a, b)
        assert residual < 1e-9
        np.testing.assert_allclose(a @ x, b, atol=1e-9)


def test_deterministic_output():
    rng = np.random.default_rng(42)
    a = rng.uniform(-1, 1, size=(4, 12))
    b = a @ (np.ones(12) / 12)
    x1, r1 = phase1_feasibility(a, b)
    x2, r2 = phase1_feasibility(a, b)
    np.testing.assert_array_equal(x1, x2)
    assert r1 == r2


def test_shape_validation():
    with pytest.raises(ValueError):
        phase1_feasibility(np.ones((2, 3)), np.ones(3))


def test_iteration_cap_raises_solver_error():
    # two pivots are required, so a zero cap trips both rules
    a = np.eye(2)
    b = np.array([0.5, 0.25])
    with pytest.raises(SimplexError):
        phase1_feasibility(a, b, max_iterations=0)


# --- deterministic strategies ------------------------------------------------


def label(strategy):
    return ",".join("+-"[x < 0] + "+-"[y < 0] for x, y in strategy)


class TestStrategies:
    def test_counts(self):
        assert len(enumerate_strategies(1)) == 4
        assert len(enumerate_strategies(2)) == 16
        with pytest.raises(ValueError):
            enumerate_strategies(9)

    def test_correlators_are_signs(self):
        for strategy in enumerate_strategies(2):
            table = strategy_correlations(strategy)
            assert set(table.values()) <= {-1.0, 1.0}

    def test_explicit_product(self):
        table = strategy_correlations(((1, -1), (1, 1)))
        assert table["YX"] == -1.0
        assert table["XX"] == 1.0

    def test_all_plus_strategy(self):
        table = strategy_correlations(((1, 1), (1, 1)))
        assert all(v == 1.0 for v in table.values())

    def test_party_negation_flips_all(self):
        base = strategy_correlations(((1, -1), (-1, 1)))
        flipped = strategy_correlations(((-1, 1), (-1, 1)))
        for key in base:
            assert flipped[key] == -base[key]

    def test_matrix_matches_enumeration(self):
        for n in (1, 2, 3):
            matrix = strategy_matrix(n)
            strategies = enumerate_strategies(n)
            for col, strategy in enumerate(strategies):
                table = strategy_correlations(strategy)
                np.testing.assert_array_equal(matrix[:, col], [table[k] for k in settings(n)])


class TestWitnessTable:
    def test_asymmetric_mixture(self):
        # not symmetric under party reversal, so a reversed key order shows
        table = witness_table({"+-,++,++": 0.7, "--,+-,++": 0.3}, 3)
        expected = {"XXX": 0.4, "XXY": 0.4, "XYX": 1.0, "XYY": 1.0,
                    "YXX": -1.0, "YXY": -1.0, "YYX": -0.4, "YYY": -0.4}
        assert table == pytest.approx(expected, abs=1e-15)

    def test_matches_strategy_matrix(self):
        rng = np.random.default_rng(43)
        for n in (1, 2, 3):
            weights = rng.uniform(0, 1, 4**n)
            witness = {label(s): w for s, w in zip(enumerate_strategies(n), weights)}
            table = witness_table(witness, n)
            np.testing.assert_allclose([table[k] for k in settings(n)],
                                       strategy_matrix(n) @ weights, rtol=0, atol=1e-12)

    def test_rejects_malformed_labels(self):
        for bad in ("++", "++,+", "++,+0", "++,++,++", "+-+,+"):
            with pytest.raises(ValueError):
                witness_table({bad: 1.0}, 2)


class TestChshQuadruples:
    def test_hand_values(self):
        # 0.1 XX + 0.2 XY + 0.3 YX + 0.4 YY through each explicit pattern
        table = {"XX": 0.1, "XY": 0.2, "YX": 0.3, "YY": 0.4}
        expected = [abs(0.1 - 0.4 + 0.2 + 0.3), abs(0.1 + 0.4 - 0.2 + 0.3),
                    abs(0.1 + 0.4 + 0.2 - 0.3), abs(0.1 - 0.4 - 0.2 - 0.3)]
        assert chsh_quadruples(table) == expected

    def test_pr_box_violates_the_first_pattern_only(self):
        assert chsh_quadruples({"XX": 1, "XY": 1, "YX": 1, "YY": -1}) == [4, 0, 0, 0]

    def test_every_pattern_is_a_tight_local_bound(self):
        # Over the 16 deterministic strategies each quadruple reaches 2 and
        # never exceeds it.
        values = [chsh_quadruples(strategy_correlations(s)) for s in enumerate_strategies(2)]
        assert [max(column) for column in zip(*values)] == [2.0] * len(QUADRUPLE_SIGNS)

    def test_patterns_are_the_odd_sign_patterns(self):
        # Each pattern, up to overall sign, has exactly one entry that
        # differs from the other three, and the four patterns are distinct.
        for signs in QUADRUPLE_SIGNS:
            assert sorted(signs.count(s) for s in (1, -1)) == [1, 3]
        assert len({min(signs, tuple(-s for s in signs)) for signs in QUADRUPLE_SIGNS}) == 4
