"""Checks of tests/lp_oracle.py on its own: that it imports nothing from
bellbench, the phase-1 simplex on infeasible, sign-flipped and random
systems, the witness rebuild and its label parsing, and the explicit CHSH
sign patterns. The comparisons of bellbench.lhv with this oracle, which also
catch most defects of the oracle, are in tests/test_lhv.py and
tests/test_acceptance.py.
"""

import ast
import itertools
from pathlib import Path

import numpy as np
import pytest

from lp_oracle import (
    OUTCOME_PAIRS,
    QUADRUPLE_SIGNS,
    chsh_quadruples,
    phase1_feasibility,
    settings,
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


# --- the witness rebuild and the CHSH patterns -------------------------------


def label(strategy):
    return ",".join("+-"[x < 0] + "+-"[y < 0] for x, y in strategy)


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
            strategies = itertools.product(OUTCOME_PAIRS, repeat=n)
            witness = {label(s): w for s, w in zip(strategies, weights)}
            table = witness_table(witness, n)
            np.testing.assert_allclose([table[k] for k in settings(n)],
                                       strategy_matrix(n) @ weights, rtol=0, atol=1e-12)

    def test_rejects_malformed_labels(self):
        for bad in ("++", "++,+", "++,+0", "++,++,++", "+-+,+"):
            with pytest.raises(ValueError):
                witness_table({bad: 1.0}, 2)


class TestChshQuadruples:
    def test_pr_box_violates_the_first_pattern_only(self):
        assert chsh_quadruples({"XX": 1, "XY": 1, "YX": 1, "YY": -1}) == [4, 0, 0, 0]

    def test_every_pattern_is_a_tight_local_bound(self):
        # Over the 16 deterministic strategies each quadruple reaches 2 and
        # never exceeds it.
        values = [chsh_quadruples(dict(zip(settings(2), column)))
                  for column in strategy_matrix(2).T]
        assert [max(column) for column in zip(*values)] == [2.0] * len(QUADRUPLE_SIGNS)

    def test_patterns_are_the_odd_sign_patterns(self):
        # Each pattern, up to overall sign, has exactly one entry that
        # differs from the other three, and the four patterns are distinct.
        for signs in QUADRUPLE_SIGNS:
            assert sorted(signs.count(s) for s in (1, -1)) == [1, 3]
        assert len({min(signs, tuple(-s for s in signs)) for signs in QUADRUPLE_SIGNS}) == 4
