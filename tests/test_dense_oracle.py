"""Checks of tests/dense_oracle.py on its own: that it imports nothing from
bellbench, its dense linear algebra, the noisy pair, its copies, the GHZ
basis, its phase observables, its correlators and its dense Bell-Zukowski
forms (closed, quadrature and aligned), and its Bell-Mermin recursion: the
local_f and compose steps, and the built pairs against the closed form (its
alignment phase, spectra, norm and trace, party count). The dense routes are
compared with bellbench in test_mermin.py and test_zukowski.py.
"""

import ast
import cmath
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from dense_oracle import (
    IDENTITY_2,
    MerminPair,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
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
    hermitian_split,
    local_f,
    mermin_closed_form,
    mermin_operators,
    noisy_pair,
    phase_observable,
    projector,
    site_pair,
    tensor,
    tensor_all,
    zukowski_aligned,
    zukowski_closed,
    zukowski_quadrature,
)

V_GRID = (0.0, 0.25, 0.5, 0.81, 1.0)


def test_imports_nothing_from_bellbench():
    # Parsed, not searched as text: the docstring names bellbench on purpose.
    tree = ast.parse(Path(__file__).with_name("dense_oracle.py").read_text())
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names]
    modules += [node.module or "" for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)]
    assert modules
    assert [m for m in modules if m.split(".")[0] == "bellbench"] == []


# --- dense linear algebra ----------------------------------------------------


def random_complex(rng, dim):
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


class TestTensor:
    def test_identity_case(self):
        np.testing.assert_array_equal(tensor(IDENTITY_2, IDENTITY_2), np.eye(4))

    def test_basis_flip(self):
        ket00 = np.array([1, 0, 0, 0], dtype=complex)
        ket11 = np.array([0, 0, 0, 1], dtype=complex)
        np.testing.assert_array_equal(tensor(SIGMA_X, SIGMA_X) @ ket00, ket11)

    def test_pauli_algebra(self):
        xy = tensor(SIGMA_X, SIGMA_Y)
        assert np.trace(xy) == 0
        np.testing.assert_allclose(xy @ xy, np.eye(4), atol=1e-15)

    def test_entry_layout(self):
        a = np.arange(4, dtype=complex).reshape(2, 2)
        b = np.arange(4, 8, dtype=complex).reshape(2, 2)
        t = tensor(a, b)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    for l in range(2):
                        assert t[i * 2 + k, j * 2 + l] == a[i, j] * b[k, l]

    def test_associative_exact_on_pauli_entries(self):
        # entries in {0, +-1, +-i}: products are exact, so equality is exact
        mats = [SIGMA_X, SIGMA_Y, SIGMA_Z]
        for a in mats:
            for b in mats:
                for c in mats:
                    np.testing.assert_array_equal(
                        tensor(tensor(a, b), c), tensor(a, tensor(b, c)))

    def test_associative_random(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a, b, c = (random_complex(rng, 2) for _ in range(3))
            left = tensor(tensor(a, b), c)
            right = tensor(a, tensor(b, c))
            np.testing.assert_allclose(left, right, rtol=1e-13, atol=0)

    def test_trace_multiplicative(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            a, b = random_complex(rng, 2), random_complex(rng, 2)
            assert abs(np.trace(tensor(a, b)) - np.trace(a) * np.trace(b)) < 1e-12

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            tensor(np.ones((2, 3)), SIGMA_X)


class TestHermitianSplit:
    def test_identity(self):
        re, im = hermitian_split(np.eye(2))
        np.testing.assert_array_equal(re, np.eye(2))
        np.testing.assert_array_equal(im, np.zeros((2, 2)))

    def test_i_times_identity(self):
        re, im = hermitian_split(1j * np.eye(2))
        np.testing.assert_array_equal(re, np.zeros((2, 2)))
        np.testing.assert_array_equal(im, np.eye(2))

    def test_raising_operator(self):
        # 2|0><1| splits into (sigma_x, sigma_y); frozen from the two formulas
        f = np.array([[0, 2], [0, 0]], dtype=complex)
        re, im = hermitian_split(f)
        np.testing.assert_allclose(re, SIGMA_X, atol=1e-15)
        np.testing.assert_allclose(im, SIGMA_Y, atol=1e-15)

    def test_round_trip_random(self):
        rng = np.random.default_rng(13)
        for dim in (2, 4, 8):
            f = random_complex(rng, dim)
            re, im = hermitian_split(f)
            np.testing.assert_array_equal(re, re.conj().T)
            np.testing.assert_array_equal(im, im.conj().T)
            assert np.abs(re + 1j * im - f).max() < 1e-14


class TestExpectation:
    def test_traceless_observable(self):
        assert expectation(np.eye(4) / 4, tensor(SIGMA_X, SIGMA_X)) == 0

    def test_noisy_pair_correlator(self):
        for v in (0.0, 0.3, 1.0):
            val = expectation(noisy_pair(v), tensor(SIGMA_X, SIGMA_Y))
            assert abs(val - v) < 1e-12

    def test_ghz_doublet_value(self):
        plus = np.zeros(4, dtype=complex)
        plus[0] = plus[3] = 1 / np.sqrt(2)
        val = expectation(projector(plus), zukowski_closed(2))
        assert abs(val - 1.2337005501361697) < 1e-12

    def test_real_linear_in_observable(self):
        rng = np.random.default_rng(14)
        rho = noisy_pair(0.6)
        a = tensor(SIGMA_X, SIGMA_Y)
        b = tensor(SIGMA_Y, SIGMA_X)
        for _ in range(10):
            s, t = rng.normal(size=2)
            lhs = expectation(rho, s * a + t * b)
            rhs = s * expectation(rho, a) + t * expectation(rho, b)
            assert abs(lhs - rhs) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            expectation(np.eye(4) / 4, SIGMA_X)


class TestSpectralCheck:
    def test_mermin_closed_form_spectrum(self):
        # derived by diagonalizing the rank-2 corner form at four parties
        eigs = np.linalg.eigvalsh(mermin_closed_form(4))
        np.testing.assert_allclose(eigs[0], -2**1.5, atol=1e-12)
        np.testing.assert_allclose(eigs[-1], 2**1.5, atol=1e-12)
        assert np.abs(eigs[1:-1]).max() < 1e-12
        assert len(eigs) == 16


# --- the noisy pair, its copies and the GHZ basis ---------------------------


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


# --- phase observables and correlators ---------------------------------------


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


# --- the dense Bell-Zukowski forms ------------------------------------------


class TestOperatorForms:
    def test_closed_form_eigenvalues(self):
        for n in (2, 3, 4):
            eigs = np.linalg.eigvalsh(zukowski_closed(n))
            top = 0.5 * (math.pi / 2) ** n
            assert abs(eigs[-1] - top) < 1e-12
            assert abs(eigs[0] + top) < 1e-12
            assert np.abs(eigs[1:-1]).max() < 1e-12

    def test_closed_form_trace(self):
        for n in (2, 3):
            assert abs(np.trace(zukowski_closed(n))) < 1e-14

    def test_minus_doublet_value(self):
        for n in (2, 3):
            minus = ghz_basis(n)[1]
            val = (minus.conj() @ zukowski_closed(n) @ minus).real
            assert abs(val + 0.5 * (math.pi / 2) ** n) < 1e-12

    def test_quadrature_against_dense_grid_oracle(self):
        # independent oracle: walk the full 2-d midpoint grid
        from dense_oracle import phase_observable

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


def test_aligned_operator_matches_closed_up_to_corner_phase():
    for n_copies in (1, 2):
        a = zukowski_aligned(n_copies)
        c = zukowski_closed(2 * n_copies)
        assert abs(abs(a[0, -1]) - abs(c[0, -1])) < 1e-14
        mask = np.ones_like(a, dtype=bool)
        mask[0, -1] = mask[-1, 0] = False
        np.testing.assert_allclose(a[mask], c[mask], atol=1e-14)


# --- the Bell-Mermin recursion: local_f and compose ------------------------


def test_local_f_of_xy_is_scaled_raising_operator():
    f = local_f(SIGMA_X, SIGMA_Y)
    expected = cmath.exp(-1j * math.pi / 4) * math.sqrt(2) * np.array(
        [[0, 1], [0, 0]], dtype=complex)
    np.testing.assert_allclose(f, expected, atol=1e-15)


def test_local_f_of_identity_pair():
    f = local_f(np.eye(2), np.eye(2))
    np.testing.assert_allclose(f, np.eye(2), atol=1e-15)


def test_local_f_inverts_via_hermitian_split():
    re, im = hermitian_split(math.sqrt(2) * cmath.exp(1j * math.pi / 4) * local_f(SIGMA_X, SIGMA_Y))
    np.testing.assert_allclose(re, SIGMA_X, atol=1e-15)
    np.testing.assert_allclose(im, SIGMA_Y, atol=1e-15)


def test_compose_two_sites_explicit():
    pair = compose(site_pair(1), site_pair(2))
    expected_b = 0.5 * (np.kron(SIGMA_X, SIGMA_X + SIGMA_Y)
                        + np.kron(SIGMA_Y, SIGMA_X - SIGMA_Y))
    np.testing.assert_allclose(pair.b, expected_b, atol=1e-15)
    assert pair.parties == (1, 2)


def test_compose_rejects_overlap():
    with pytest.raises(ValueError):
        compose(site_pair(1), site_pair(1))


def test_compose_matches_f_product_oracle():
    # oracle: tensor the local f-transforms, then split (odd sizes included,
    # since compose is defined for any disjoint subsets)
    for n in (2, 3, 4):
        pair = site_pair(1)
        for k in range(2, n + 1):
            pair = compose(pair, site_pair(k))
        target = tensor_all([local_f(SIGMA_X, SIGMA_Y)] * n)
        g = math.sqrt(2) * cmath.exp(1j * math.pi / 4) * target
        b_expected, b_prime_expected = hermitian_split(g)
        np.testing.assert_allclose(pair.b, b_expected, atol=1e-12)
        np.testing.assert_allclose(pair.b_prime, b_prime_expected, atol=1e-12)


def test_compose_expectation_identity_on_product_state():
    alpha = compose(site_pair(1), site_pair(2))
    beta = compose(site_pair(3), site_pair(4))
    rho_a, rho_b = noisy_pair(0.7), noisy_pair(0.4)
    rho = np.kron(rho_a, rho_b)
    lhs = expectation(rho, compose(alpha, beta).b)
    ea = expectation(rho_a, alpha.b)
    eap = expectation(rho_a, alpha.b_prime)
    eb = expectation(rho_b, beta.b)
    ebp = expectation(rho_b, beta.b_prime)
    rhs = 0.5 * ea * (eb + ebp) + 0.5 * eap * (eb - ebp)
    assert abs(lhs - rhs) < 1e-12


def test_grouping_independence():
    rng = np.random.default_rng(31)
    reference = {n: mermin_operators(n) for n in (2, 4, 6)}
    for n in (2, 4, 6):
        for _ in range(5):
            pairs = [site_pair(k) for k in range(1, n + 1)]
            while len(pairs) > 1:
                idx = int(rng.integers(len(pairs) - 1))
                merged = compose(pairs[idx], pairs[idx + 1])
                pairs = pairs[:idx] + [merged] + pairs[idx + 2:]
            np.testing.assert_allclose(pairs[0].b, reference[n].b, atol=1e-12)
            np.testing.assert_allclose(pairs[0].b_prime, reference[n].b_prime, atol=1e-12)


def test_f_consistency_of_built_pairs():
    for n in (2, 4, 6):
        pair = mermin_operators(n)
        target = tensor_all([local_f(SIGMA_X, SIGMA_Y)] * n)
        assert np.abs(local_f(pair.b, pair.b_prime) - target).max() < 1e-12
        np.testing.assert_array_equal(pair.b, pair.b.conj().T)
        np.testing.assert_array_equal(pair.b_prime, pair.b_prime.conj().T)


# --- the Bell-Mermin recursion against its closed form -------------------


@pytest.mark.parametrize("n_copies", [1, 2, 3])
def test_recursion_matches_closed_form_after_alignment(n_copies):
    n = 2 * n_copies
    pair = mermin_operators(n)
    phase = corner_phase(pair.b)
    assert abs(phase - expected_alignment_phase(n)) < 1e-12
    aligned = align_corner_phase(mermin_closed_form(n), phase)
    np.testing.assert_allclose(pair.b, aligned, atol=1e-10)


def test_two_party_spectrum():
    eigs = np.linalg.eigvalsh(mermin_operators(2).b)
    np.testing.assert_allclose(eigs, [-math.sqrt(2), 0, 0, math.sqrt(2)], atol=1e-12)


@pytest.mark.parametrize("n_copies", [1, 2, 3])
def test_full_spectrum_structure(n_copies):
    n = 2 * n_copies
    eigs = np.linalg.eigvalsh(mermin_operators(n).b)
    top = 2 ** ((n - 1) / 2)
    assert abs(eigs[0] + top) < 1e-10
    assert abs(eigs[-1] - top) < 1e-10
    assert np.abs(eigs[1:-1]).max() < 1e-10


def test_closed_form_norm_and_trace():
    for n in (2, 4, 6):
        op = mermin_closed_form(n)
        assert abs(np.trace(op)) < 1e-12
        assert abs(np.linalg.norm(op, 2) - 2 ** ((n - 1) / 2)) < 1e-12


def test_party_count_validation():
    for bad in (3, 0, 14):
        with pytest.raises(ValueError):
            mermin_operators(bad)
        with pytest.raises(ValueError):
            mermin_closed_form(bad)


def test_pair_is_dataclass_with_parties():
    pair = mermin_operators(4)
    assert isinstance(pair, MerminPair)
    assert pair.parties == (1, 2, 3, 4)
