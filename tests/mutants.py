"""The mutant table, and the runner that shows every mutant fails Tier-1.

Each row of MUTANTS is (id, path, old text, new text): one small defect in a
check the README claims, a tolerance, an input cap or a test oracle. The old
text occurs exactly once in its file (tests/test_mutants.py checks this in
Tier-1), so a change that rewrites a mutated line updates its row too.

    python tests/mutants.py

copies src/, tests/, bench/ and pyproject.toml to a temporary directory, runs
the unmutated suite there, which must pass, and then the whole suite once per
mutant, all but tests/test_mutants.py. It prints one JSON line per mutant,
{"id", "killed_by", "seconds"}, killed_by being the sorted ids of the failing
tests, and exits 1 if any mutant survives (passes the suite). A run that
outlasts TIMEOUT_S counts as a kill, and its whole process group is killed.
Stdlib only.

Left out as equivalent mutants: scaling m2 in zukowski._site_moments (m2 is
about 1e-16, so the scaled rule is exact too), dropping .conjugate() in
zukowski._antidiagonal (it conjugates a product with the ~1e-16 m2),
(right.T @ left).ravel() in lhv.witness_reconstruction_error (the same
function as the row "rebuild-column-order"), lp_oracle.settings spelt
over "YX" (a consistent relabelling of the two settings on both sides of
every comparison), and dropping a00's .conjugate() in mermin.pair_table (a00
is real).
"""

import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 300

CLI, LHV, MERMIN, REPORT, ZUK = (f"src/bellbench/{name}.py"
                                 for name in ("cli", "lhv", "mermin", "report", "zukowski"))
DENSE, LP = "tests/dense_oracle.py", "tests/lp_oracle.py"

MUTANTS = [
    # the pair's table as (a, b) and the contraction <B> + i<B'> = (-i a)^N / F_PHASE
    ("pair-table-unconjugated", MERMIN, "a00.conjugate() * a11",
     "a00.conjugate() * a11.conjugate()"),
    ("pair-table-negative-zero", MERMIN, "0.0 - a.real", "-a.real"),
    ("contraction-drops-xx-yy", MERMIN, "complex(xx - yy, xy + yx) / 2",
     "complex(0.0, xy + yx) / 2"),
    ("pair-coefficients-b-sign", MERMIN, "yx - xy", "xy - yx"),
    ("contraction-checks-b-only", MERMIN, """(("B", z.real), ("B'", z.imag))""",
     """(("B", z.real),)"""),
    ("comparison-tol-contraction", MERMIN, "abs(analytic - value) > COMPARISON_TOL",
     "abs(analytic - value) > 1.0"),
    # the Bell relation, its bound and the threshold visibility
    ("modified-bound-1.5", MERMIN, "return math.sqrt(2) * (8", "return 1.5 * (8"),
    ("threshold-root-n", MERMIN, "2 ** (1 / (2 * n_copies))", "2 ** (1 / n_copies)"),
    ("bound-slack-local-bound", MERMIN, "abs(value) <= 1.0 + BOUND_SLACK", "abs(value) < 1.0"),
    # the Bell-Zukowski quadrature, its GHZ diagonality and the step functions
    ("moment-m2-unsquared", ZUK, "m2 += weight * u * u", "m2 += weight * u"),
    ("quadrature-corner-h0-only", ZUK, "corner if h in (0, n) else", "corner if h == 0 else"),
    ("ghz-offdiagonal-self", ZUK, "abs(z[h] - z[n - h])", "abs(z[h] - z[h])"),
    ("cell-weights-sign", ZUK, "(b - a) / 1j", "(b - a) * 1j"),
    ("comparison-tol-quadrature", CLI, "quad_error < COMPARISON_TOL", "quad_error < 1.0"),
    ("bound-slack-ghz-diagonal", CLI, "offdiag < BOUND_SLACK", "offdiag < 1.0"),
    ("strict-bound-z-prime", CLI, "max_z <= 2 + BOUND_SLACK", "max_z < 2"),
    ("strict-bound-s-n2", CLI, "max_s_n2 <= 2**2 + BOUND_SLACK", "max_s_n2 < 2**2"),
    ("strict-bound-s-n3", CLI, "max_s_n3 <= 2**3 + BOUND_SLACK", "max_s_n3 < 2**3"),
    ("loose-bound-z-prime", CLI, "max_z <= 2 + BOUND_SLACK", "max_z <= 3 + BOUND_SLACK"),
    ("loose-bound-s-n2", CLI, "max_s_n2 <= 2**2 + BOUND_SLACK", "max_s_n2 <= 2**3 + BOUND_SLACK"),
    ("loose-bound-s-n3", CLI, "max_s_n3 <= 2**3 + BOUND_SLACK", "max_s_n3 <= 2**4 + BOUND_SLACK"),
    # the sweep's grid and its violated column
    ("sweep-grid-without-slack", CLI, "range(max_points + 1), v_max + 1e-12",
     "range(max_points + 1), v_max"),
    ("sweep-split-without-slack", CLI, "bisect_right(zukowski, 1.0 + BOUND_SLACK)",
     "bisect_right(zukowski, 1.0)"),
    # input caps and checks
    ("cap-copies", CLI, "if not 1 <= n <= MAX_COPIES:", "if not 1 <= n <= MAX_COPIES + 1:"),
    ("cap-sweep-rows", CLI, "MAX_SWEEP_ROWS = 600_006", "MAX_SWEEP_ROWS = 600_005"),
    ("cap-appendix-cells", CLI, "MAX_APPENDIX_CELLS = 2**22", "MAX_APPENDIX_CELLS = 2**23"),
    ("cap-appendix-grid", CLI, "MAX_APPENDIX_GRID = 2**12", "MAX_APPENDIX_GRID = 2**13"),
    ("cap-lhv-input", CLI, "MAX_LHV_INPUT_CHARS = 2**24", "MAX_LHV_INPUT_CHARS = 2**25"),
    ("cap-parties", LHV, "MAX_TRANSFORM_PARTIES = 12", "MAX_TRANSFORM_PARTIES = 13"),
    ("repeated-key-accepted", CLI, "if key in obj:", "if False:"),
    ("table-bool-accepted", LHV,
     "if not isinstance(val, (int, float)) or isinstance(val, bool):",
     "if not isinstance(val, (int, float)):"),
    ("table-range-unchecked", LHV,
     "if not math.isfinite(val) or abs(val) > 1 + COMPARISON_TOL:", "if not math.isfinite(val):"),
    # the LHV verdict and its certificate
    ("complete-set-strict", LHV, "total > scale + COMPLETE_SET_SLACK", "total >= scale"),
    ("sign-transform-difference-negated", LHV, "*map(sub, even, odd)", "*map(sub, odd, even)"),
    ("quadruple-order-unreversed", LHV, "return hat[::-1]", "return hat"),
    ("inequality-doubled", LHV, "coeffs = sign_transform([1.0 if x >= 0 else -1.0 for x in hat])",
     "coeffs = [2 * c for c in sign_transform([1.0 if x >= 0 else -1.0 for x in hat])]"),
    ("vertex-bits-reversed", LHV, 'bits = format(t, f"0{n}b")',
     'bits = format(t, f"0{n}b")[::-1]'),
    ("rebuild-column-order", LHV, "(left.T @ right).ravel()", '(left.T @ right).ravel(order="F")'),
    ("rebuild-unweighted", LHV, "left = products(weights[:, None], range(h))",
     "left = products(np.ones((len(weights), 1)), range(h))"),
    ("rebuild-reads-settings-order", LHV,
     "expected = [table.values[key] for key in _kronecker_keys(n)]", "expected = table.vector()"),
    ("witness-tol-loose", LHV, "error <= WITNESS_TOL", "error <= 1.0"),
    ("local-maximum-signed", LHV, "return max(map(abs, c))", "return max(c)"),
    ("local-maximum-reads-settings-order", LHV,
     "c = [coefficients[key] for key in _kronecker_keys(n)]", "c = list(coefficients.values())"),
    # the report renderer: 12 digits, sorted keys, exact builtins only
    ("render-digits", REPORT, 'f"{obj:.12g}"', 'f"{obj:.11g}"'),
    ("render-keys-unsorted", REPORT, "sorted(obj.items())", "list(obj.items())"),
    ("render-subclass-accepted", REPORT, "kind is float", "isinstance(obj, float)"),
    # import sets: the LHV layer loads numpy on import
    ("lhv-imports-numpy", LHV, "from operator import add, mul, sub\n",
     "from operator import add, mul, sub\n\nimport numpy\n"),
    # the dense oracle
    ("dense-compose-sign", DENSE, "np.kron(alpha.b_prime, s) - np.kron(alpha.b, d)",
     "np.kron(alpha.b_prime, s) + np.kron(alpha.b, d)"),
    ("dense-minus-moment", DENSE, "np.exp(-1j * phi) * obs", "np.exp(1j * phi) * obs"),
    ("dense-alignment-phase", DENSE, "(n_parties - 1) * math.pi / 4", "n_parties * math.pi / 4"),
    ("dense-noise-trace", DENSE, "np.eye(4, dtype=complex) / 4", "np.eye(4, dtype=complex) / 2"),
    ("dense-phase-observable-sign", DENSE, "+ math.sin(phi) * SIGMA_Y",
     "- math.sin(phi) * SIGMA_Y"),
    ("dense-expectation-untransposed", DENSE, "np.sum(rho * o.T)", "np.sum(rho * o)"),
    ("dense-bell-pair-sign", DENSE, "np.array([1, 0, 0, 1j])", "np.array([1, 0, 0, -1j])"),
    ("dense-noisy-pair-unconjugated", DENSE, "np.outer(ket, ket.conj())", "np.outer(ket, ket)"),
    ("dense-ghz-basis-signs", DENSE, "for sign in (+1.0, -1.0):", "for sign in (+1.0, +1.0):"),
    ("dense-doublet-one-corner", DENSE, "op[0, -1] = op[-1, 0] = scale", "op[0, -1] = scale"),
    ("dense-quadrature-weight", DENSE, "weight = math.pi / nodes_per_axis",
     "weight = math.pi / (nodes_per_axis + 1)"),
    ("dense-offdiagonal-keeps-diagonal", DENSE, "off = in_basis - np.diag(np.diag(in_basis))",
     "off = in_basis"),
    # checks of the dense oracle that only its own tests see: the site cap, the
    # realness of an expectation value and the ranges of its other inputs
    ("dense-site-cap", DENSE, "if not 2 <= n <= MAX_QUBITS:", "if not 2 <= n <= MAX_QUBITS + 1:"),
    ("dense-realness-tol", DENSE, "abs(val.imag) >= REALNESS_TOL", "abs(val.imag) >= 1.0"),
    ("dense-visibility-range", DENSE, "if not 0.0 <= v <= 1.0:", "if not 0.0 <= v:"),
    ("dense-phase-range", DENSE, "if not 0.0 <= phi < math.pi:", "if not 0.0 <= phi <= math.pi:"),
    ("dense-node-count", DENSE, "if nodes_per_axis < 2:", "if nodes_per_axis < 1:"),
    # the LP oracle
    ("lp-witness-outcomes-swapped", LP, "(_SIGNS[p[0]], _SIGNS[p[1]])",
     "(_SIGNS[p[1]], _SIGNS[p[0]])"),
    ("lp-quadruple-sign", LP, "(1, -1, 1, 1),", "(1, 1, 1, 1),"),
    ("lp-outcome-pairs", LP, "((1, 1), (1, -1), (-1, 1), (-1, -1))",
     "((1, 1), (1, -1), (-1, 1), (1, 1))"),
    ("lp-correlators-x-for-y", LP, 'int(c == "Y")', 'int(c == "X")'),
    ("lp-ratio-test-max", LP, "ratios == ratios.min()", "ratios == ratios.max()"),
    ("lp-rhs-unflipped", LP, "flip = b < 0", "flip = np.zeros(m, dtype=bool)"),
    ("lp-normalisation-halved", LP, "np.vstack([strategy_matrix(n), np.ones(4**n)])",
     "np.vstack([strategy_matrix(n), 0.5 * np.ones(4**n)])"),
    ("lp-residual-tol", LP, "LP_RESIDUAL_TOL = 1e-9", "LP_RESIDUAL_TOL = 0.1"),
    # checks of the LP oracle that only its own tests see
    ("lp-pivot-eps", LP, "PIVOT_EPS = 1e-11", "PIVOT_EPS = 0.1"),
    ("lp-label-shape-unchecked", LP,
     "if len(parties) != n or any(len(p) != 2 or set(p) - _SIGNS.keys() for p in parties):",
     "if False:"),
]

# The "FAILED <id> - ..." or "ERROR <id> - ..." line of each failing test.
_FAILURE = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.MULTILINE)


def run_suite(copy: Path) -> tuple[list[str], float]:
    """Sorted failing test ids of one Tier-1 run in `copy`, and its seconds."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1",
               TMPDIR=str(copy / "tmp"))
    start = time.perf_counter()
    with subprocess.Popen(
            [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
             "-p", "no:cacheprovider", "--tb=no", "-rfE",
             # its check that each old text is in place fails on every mutant
             "--ignore=tests/test_mutants.py"],
            cwd=copy, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            start_new_session=True) as proc:
        try:
            out = proc.communicate(timeout=TIMEOUT_S)[0]
        except subprocess.TimeoutExpired:
            out = None
        finally:
            if proc.poll() is None:  # timed out or interrupted: end its whole group
                os.killpg(proc.pid, signal.SIGKILL)
    if out is None:
        failed = [f"<timeout {TIMEOUT_S} s>"]
    else:
        failed = sorted(set(_FAILURE.findall(out)))
        if proc.returncode not in (0, 1):  # an interrupted or unusable run
            failed.append(f"<pytest exit {proc.returncode}>")
    return failed, round(time.perf_counter() - start, 1)


def main() -> int:
    survivors = []
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for top in ("src", "tests", "bench"):
            shutil.copytree(ROOT / top, copy / top, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", copy)
        (copy / "tmp").mkdir()
        failed, seconds = run_suite(copy)
        if failed:
            print(f"the unmutated suite fails ({seconds} s): {failed}", file=sys.stderr)
            return 1
        print(f"the unmutated suite passes ({seconds} s)", file=sys.stderr)
        for name, path, old, new in MUTANTS:
            source = (copy / path).read_text(encoding="utf-8")
            (copy / path).write_text(source.replace(old, new, 1), encoding="utf-8")
            try:
                killed_by, seconds = run_suite(copy)
            finally:
                (copy / path).write_text(source, encoding="utf-8")
            print(json.dumps({"id": name, "killed_by": killed_by, "seconds": seconds}),
                  flush=True)
            if not killed_by:
                survivors.append(name)
    if survivors:
        print(f"{len(survivors)} mutants survive: {survivors}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
