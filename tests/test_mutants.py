"""The mutant table of tests/mutants.py stays live. The runner itself (python
tests/mutants.py) runs the whole suite once per row, as a CI job of its own.
"""

from mutants import MUTANTS, ROOT


def test_each_row_names_one_place_once():
    # each old text occurs exactly once in its file, so the runner mutates
    # what the row names; ids and (path, old, new) triples are unique
    stale = [name for name, path, old, new in MUTANTS
             if old == new or (ROOT / path).read_text(encoding="utf-8").count(old) != 1]
    assert stale == []
    assert len({row[0] for row in MUTANTS}) == len({row[1:] for row in MUTANTS}) == len(MUTANTS)
