"""Every Python file of the package, its tests and its benchmark parses as
Python 3.10, the oldest version pyproject.toml supports and CI runs. The
parser's feature_version rejects later grammar (such as `except*` or type
parameter lists) on a newer interpreter too, so this needs no 3.10 install.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(path.relative_to(ROOT).as_posix()
                 for top in ("src", "tests", "bench") for path in (ROOT / top).rglob("*.py"))


def test_sources_found():
    assert {"src/bellbench/cli.py", "tests/test_syntax.py", "bench/run.py"} <= set(SOURCES)


@pytest.mark.parametrize("source", SOURCES)
def test_parses_as_python_3_10(source):
    ast.parse((ROOT / source).read_text(encoding="utf-8"), filename=source,
              feature_version=(3, 10))
