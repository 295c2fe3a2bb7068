"""Checks of tests/dense_oracle.py and tests/lp_oracle.py that no comparison
with bellbench can see: that neither oracle imports bellbench; the noisy
pair's trace and positivity (the in-plane observables are traceless, so no
correlator sees them), its limits and its copies; the input guards of the
dense oracle (the site cap, the visibility, phase and node-count ranges and
the realness of an expectation value); the LP's pivot tolerance and its
witness-label parsing. The physics of both oracles is checked through the
comparisons it feeds, in test_mermin.py, test_zukowski.py, test_lhv.py and
test_acceptance.py; tests/mutants.py shows which test catches each defect.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from dense_oracle import (
    bell_pair,
    copies,
    correlation,
    expectation,
    ghz_basis,
    mermin_closed_form,
    mermin_operators,
    noisy_pair,
    phase_observable,
    zukowski_closed,
    zukowski_quadrature,
)
from lp_oracle import LP_RESIDUAL_TOL, phase1_feasibility, witness_table


@pytest.mark.parametrize("name", ["dense_oracle.py", "lp_oracle.py"])
def test_imports_nothing_from_bellbench(name):
    # Parsed, not searched as text: the docstrings name bellbench on purpose.
    tree = ast.parse(Path(__file__).with_name(name).read_text())
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names]
    modules += [node.module or "" for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)]
    assert modules
    assert [m for m in modules if m.split(".")[0] == "bellbench"] == []


# --- the dense oracle: the noisy pair and its copies -------------------------


def test_noisy_pair_limits():
    np.testing.assert_allclose(noisy_pair(0.0), np.eye(4) / 4, atol=1e-15)
    ket = bell_pair()
    np.testing.assert_allclose(noisy_pair(1.0), np.outer(ket, ket.conj()), atol=1e-15)
    assert abs(correlation(noisy_pair(0.5), [0.0, math.pi / 2]) - 0.5) < 1e-12


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


# --- the dense oracle: its other input guards --------------------------------


def test_ghz_basis_rejects_out_of_range():
    with pytest.raises(ValueError):
        ghz_basis(1)
    with pytest.raises(ValueError):
        ghz_basis(13)


def test_party_count_validation():
    # The cap is probed through the closed form, whose 13-qubit matrix is
    # allocated lazily, so a broken cap starts no 13-site recursion.
    for bad in (0, 1):
        with pytest.raises(ValueError):
            mermin_operators(bad)
    for bad in (0, 1, 13):
        with pytest.raises(ValueError):
            mermin_closed_form(bad)


def test_phase_observable_rejects_out_of_range():
    for bad in (-0.1, math.pi, 4.0):
        with pytest.raises(ValueError):
            phase_observable(bad)


def test_zukowski_forms_reject_bad_sizes():
    for bad in (1, 13):
        with pytest.raises(ValueError):
            zukowski_closed(bad)
    with pytest.raises(ValueError):
        zukowski_quadrature(2, nodes_per_axis=1)


def test_expectation_rejects_an_imaginary_residue():
    # tr[rho (1e-6 i) I] = 1e-6 i: far above rounding, far below a correlator
    with pytest.raises(ValueError, match="imaginary residue"):
        expectation(noisy_pair(0.5), 1e-6j * np.eye(4))


# --- the LP oracle -----------------------------------------------------------


def test_small_pivot_is_taken():
    # 0.05 x = 0.05 is feasible; its one pivot, 0.05, is far above rounding
    _, residual = phase1_feasibility([[0.05]], [0.05])
    assert residual <= LP_RESIDUAL_TOL


def test_witness_table_rejects_malformed_labels():
    for bad in ("++", "++,+", "++,+0", "++,++,++", "+-+,+"):
        with pytest.raises(ValueError):
            witness_table({bad: 1.0}, 2)
