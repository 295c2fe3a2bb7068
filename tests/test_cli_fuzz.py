"""Property tests of the bellctl exit-code contract on generated input.

For any argv of analyze, sweep and verify-appendix, including out-of-range,
non-numeric, NaN, repeated and huge values, and for any lhv table JSON,
including ragged, empty and misspelt keys, non-finite and out-of-range
values, 0 to 14 parties, tables nested in reports, deep nesting and huge
integer literals: the exit code is 0, 2 or 3, no traceback reaches stderr,
and a rerun writes the same bytes. Subcommands that report the same number
agree on it: a one-row sweep renders analyze's values and verdict, and lhv
on a correlators report repeats its verdict. Needs the optional `hypothesis`
test dependency; examples are derandomized so the suite stays deterministic.
"""

import itertools
import json
import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from bellbench.cli import MAX_COPIES  # noqa: E402
from bellbench.mermin import threshold_visibility  # noqa: E402
from helpers import run_main  # noqa: E402

BAD_NUMBERS = ["nan", "inf", "-inf", "1e309", "", "abc", "0x10", "1,2", "--", "1e-400"]
HUGE_INTS = [str(10**12), str(2**63), str(10**40)]


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False).map(repr)


def _ints(lo, hi):
    return st.integers(lo, hi).map(str)


VISIBILITY = st.one_of(_floats(0.0, 1.0), _floats(-0.5, 1.5),
                       st.sampled_from(BAD_NUMBERS + ["0", "1"]))
# Counts at the cap and one over it, MAX_COPIES and MAX_COPIES + 1.
EDGE_COPIES = [MAX_COPIES, MAX_COPIES + 1]
COPIES = st.one_of(_ints(1, 6), _ints(-2, 8),
                   st.sampled_from(BAD_NUMBERS + HUGE_INTS + list(map(str, EDGE_COPIES))))
# Valid steps stay coarse enough to keep each run short; 1e-9 is over the row cap.
V_STEP = st.one_of(_floats(0.01, 2.0), st.sampled_from(BAD_NUMBERS + ["0", "-0.1", "1e-9"]))
COPY_LIST = st.one_of(
    st.lists(st.integers(1, 6), min_size=1, max_size=6),
    st.lists(st.integers(-1, 8) | st.sampled_from(EDGE_COPIES), max_size=8),
).map(lambda ns: ",".join(map(str, ns))) | st.sampled_from(
    ["6,6", "1,,2", ",", "1;2", "2," * 50, "nan"] + HUGE_INTS)
# Valid draws stay small; 4098 is over the grid cap, the huge values over
# the trials x grid cap.
GRID = st.sampled_from(["2", "4", "8", "63", "64", "4096", "4098", "0", "-2", str(2**23)]
                       + BAD_NUMBERS + HUGE_INTS)
TRIALS = st.one_of(_ints(1, 300), _ints(-1, 0), st.sampled_from(BAD_NUMBERS + HUGE_INTS))
SEED = st.one_of(st.integers(-(2**70), 2**70).map(str), st.sampled_from(BAD_NUMBERS))


def _command(name, pairs):
    """argv of one subcommand: every flag in a drawn order, at times one
    dropped, at times one repeated, each with a drawn value."""
    layout = st.tuples(st.permutations(pairs), st.integers(0, 1),
                       st.lists(st.sampled_from(pairs), max_size=1))
    return layout.flatmap(lambda lay: st.tuples(
        *[st.tuples(st.just(flag), values) for flag, values in lay[0][lay[1]:] + lay[2]]
    )).map(lambda chosen: [name] + [token for pair in chosen for token in pair])


ARGV = st.one_of(
    _command("analyze", [("--visibility", VISIBILITY), ("--copies", COPIES)]),
    _command("sweep", [("--v-min", VISIBILITY), ("--v-max", VISIBILITY), ("--v-step", V_STEP),
                       ("--copies", COPY_LIST)]),
    _command("verify-appendix", [("--grid", GRID), ("--trials", TRIALS), ("--seed", SEED)]),
)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(ARGV)
def test_exit_code_contract(argv):
    code, out, err = run_main(argv)
    assert code in (0, 2, 3), (argv, code, err)
    assert "Traceback" not in err
    if code != 0:
        assert out == ""
    assert run_main(argv) == (code, out, err)


# Correlator values: in range, just outside it, non-finite, and not numbers.
IN_RANGE = st.floats(-1.0, 1.0)
VALUE = st.one_of(
    IN_RANGE, st.floats(-3.0, 3.0),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1.0000001, 1 + 1e-11]),
    st.sampled_from(["0.5", None, True, [0.1], {"x": 1}]),
)
BAD_KEYS = ["", "Z", "x", "XZ", "XY ", "X" * 15, "XYXYXYXYXYXYXYXYXYXY"]


@st.composite
def lhv_input(draw):
    """A correlation-table JSON text for 0..14 parties: all 2^n keys, one
    shared value and a few drawn ones. Half the tables are damaged (bad
    values, keys dropped, ragged, empty or misspelt keys); some are wrapped
    as a report, not an object, or not valid JSON."""
    n = draw(st.integers(0, 14))
    keys = ["".join(combo) for combo in itertools.product("XY", repeat=n)]
    damage = draw(st.sampled_from([None] * 3 + ["values", "drop", "bad keys"]))
    values = VALUE if damage == "values" else IN_RANGE
    table = dict.fromkeys(keys, draw(values))
    for key in draw(st.lists(st.sampled_from(keys), max_size=4)):
        table[key] = draw(values)
    if damage == "drop":
        for key in draw(st.lists(st.sampled_from(keys), min_size=1, max_size=2)):
            table.pop(key, None)
    if damage == "bad keys":
        for key in draw(st.lists(st.sampled_from(BAD_KEYS), min_size=1, max_size=2)):
            table[key] = draw(VALUE)
    wrap = draw(st.sampled_from(["table"] * 3 + ["report"] * 2 + ["results", "list", "scalar"]))
    obj = {"table": table, "report": {"results": {"table": table}, "command": "lhv"},
           "results": {"results": table}, "list": [table], "scalar": n}[wrap]
    text = json.dumps(obj)
    return draw(st.sampled_from([text] * 5 + [text[:-1], text + "x", " " + text + "\n"]))


# Raw text the JSON decoder itself cannot take: nesting deeper than its
# recursion limit, and integer literals past float range or Python's
# integer-string digit limit.
RAW_LHV_TEXT = st.one_of(
    st.tuples(st.sampled_from(["[", '{"a": ', '{"results": ']), st.integers(1, 200_000))
    .map(lambda t: t[0] * t[1]),
    st.tuples(st.sampled_from(["", "-"]), st.integers(300, 6000))
    .map(lambda t: '{"X": %s1%s, "Y": 0}' % (t[0], "0" * t[1])),
)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.one_of(lhv_input(), RAW_LHV_TEXT))
def test_lhv_exit_code_contract(text):
    code, out, err = run_main(["lhv"], stdin=text)
    assert code in (0, 2, 3), (text[:200], code, err)
    assert "Traceback" not in err
    if code != 0:
        assert out == ""
    assert run_main(["lhv"], stdin=text) == (code, out, err)


# Visibilities in [0, 1], -0.0, and the doubles on either side of each threshold.
THRESHOLDS = [threshold_visibility(n) for n in range(2, 7)]
UNIT_VISIBILITY = st.one_of(
    st.floats(0.0, 1.0),
    st.sampled_from([math.nextafter(t, d) for t in THRESHOLDS for d in (0.0, 2.0)]
                    + THRESHOLDS + [-0.0]),
)


def _report(argv, stdin=""):
    """A report with every number kept as the text bellctl rendered."""
    code, out, err = run_main(argv, stdin)
    assert code == 0, (argv, err)
    return json.loads(out, parse_float=str, parse_int=str), out


@settings(max_examples=200, deadline=None, derandomize=True)
@given(UNIT_VISIBILITY, st.integers(1, 6))
def test_one_row_sweep_renders_analyze(v, n):
    # cmd_sweep inlines %.12g and the bound test for speed; the row must
    # still read as analyze renders the same point.
    code, out, err = run_main(["sweep", "--v-min", repr(v), "--v-max", repr(v),
                               "--v-step", "1", "--copies", str(n)])
    assert code == 0, err
    header, row = out.splitlines()
    assert header == "V,N,mermin,zukowski,modified_bound,violated"
    report, _ = _report(["analyze", "--visibility", repr(v), "--copies", str(n)])
    results = report["results"]
    violated = "false" if report["verdicts"]["zukowski_satisfied"] else "true"
    assert row.split(",") == [report["parameters"]["visibility"], str(n),
                              results["mermin_value"], results["zukowski_value"],
                              results["modified_bound"], violated]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(UNIT_VISIBILITY)
def test_lhv_on_correlators_report_repeats_its_verdict(v):
    correlators, text = _report(["correlators", "--visibility", repr(v)])
    lhv, _ = _report(["lhv"], text)
    assert lhv["verdicts"]["lhv_feasible"] == correlators["verdicts"]["lhv_feasible"]
    # The pair's sign transform is (2V, 0, 0, -2V). The table and the sum
    # are each rendered to 12 significant digits, 5e-12 relative at worst.
    assert float(lhv["results"]["complete_set_sum"]) == pytest.approx(4 * v, rel=1e-11, abs=0)
