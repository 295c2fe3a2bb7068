import numpy as np
import pytest

from lp_oracle import SimplexError, phase1_feasibility


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
