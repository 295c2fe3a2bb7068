"""The repository's pytest configuration reports every test of a run: a
failing hypothesis test must not abort the session before the tests after
it have run.
"""

import subprocess
import sys
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

TWO_TESTS = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_property_fails(x):
    assert False


def test_plain_passes():
    pass
'''


def test_failing_property_test_does_not_hide_the_next_test(tmp_path):
    pytest.importorskip("hypothesis")
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    # run from tmp_path, so that hypothesis's example database and
    # pytest-benchmark's .benchmarks land there
    proc = subprocess.run([sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
                           "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q",
                           "test_two.py"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout
