import json
import os
import random
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import bellbench
from bellbench.cli import (MAX_APPENDIX_CELLS, MAX_APPENDIX_GRID, MAX_COPIES, MAX_SWEEP_ROWS,
                           cmd_analyze, cmd_correlators, main, sweep_grid)
from bellbench.mermin import BOUND_SLACK, pair_table, threshold_visibility
from bellbench.report import render_json
from bellbench.zukowski import cell_weights
from helpers import ZUKOWSKI_AT_FULL_VISIBILITY, ghz_type_table, mixture_table, run_main
from lp_oracle import settings


def table_json(table):
    return json.dumps(table.values)


def run_json(argv, stdin=""):
    code, out, err = run_main(argv, stdin)
    assert code == 0, err
    return json.loads(out)


def unchunked_appendix_maxima(grid, trials, seed):
    """max |z'|, max |S| (n = 2) and max |S| (n = 3) of verify-appendix from
    one whole getrandbits draw of 3 x trials step functions, its bits read
    least significant first. Each function's row is padded to whole bytes,
    8 x ceil(grid / 8) bits, of which the first `grid` are its signs and the
    rest are dropped; trial t is the triple of rows 3t, 3t + 1, 3t + 2."""
    padded = 8 * -(-grid // 8)
    count = 3 * trials * padded
    bits = format(random.Random(seed).getrandbits(count), f"0{count}b")[::-1]
    signs = np.array([1.0 if bit == "1" else -1.0 for bit in bits])
    signs = signs.reshape(3 * trials, padded)[:, :grid]
    z = (signs @ cell_weights(grid)).reshape(trials, 3)
    return (float(np.abs(z).max()),
            float(np.abs(z[:, :2].prod(axis=1).real).max()),
            float(np.abs(z.prod(axis=1).real).max()))


class TestCorrelators:
    def test_table_is_the_pair_table(self):
        for k in range(1001):
            v = k / 1000
            res = cmd_correlators(v)["results"]
            table = pair_table(v)
            assert res["table"] == table

    def test_full_visibility(self):
        report = run_json(["correlators", "--visibility", "1"])
        res = report["results"]
        assert res["table"] == pytest.approx({"XX": 0, "XY": 1, "YX": 1, "YY": 0}, abs=1e-12)
        assert res["quadruples"] == pytest.approx([2, 0, 0, 2], abs=1e-12)
        assert report["verdicts"] == {"lhv_feasible": True}

    def test_zero_visibility(self):
        report = run_json(["correlators", "--visibility", "0"])
        assert report["results"]["quadruples"] == pytest.approx([0, 0, 0, 0], abs=1e-12)
        assert report["verdicts"]["lhv_feasible"] is True

    def test_half_visibility_quadruple(self):
        report = run_json(["correlators", "--visibility", "0.5"])
        assert report["results"]["quadruples"] == pytest.approx([1, 0, 0, 1], abs=1e-12)

    def test_report_embeds_tolerances(self):
        report = run_json(["correlators", "--visibility", "0.5"])
        assert report["tolerances"] == {
            "bound_slack": 1e-12, "comparison": 1e-10, "complete_set_slack": 1e-9,
            "witness": 1e-8}
        assert report["tool_version"] == bellbench.__version__ == "0.10.0"


class TestAnalyze:
    def test_conflict_at_full_visibility_two_copies(self):
        report = run_json(["analyze", "--visibility", "1", "--copies", "2"])
        res, verdicts = report["results"], report["verdicts"]
        assert res["mermin_value"] == pytest.approx(1.0, abs=1e-12)
        assert res["zukowski_value"] == pytest.approx(ZUKOWSKI_AT_FULL_VISIBILITY[2], abs=1e-9)
        assert verdicts["mermin_satisfied"] is True
        assert verdicts["zukowski_satisfied"] is False
        assert verdicts["conflict_revealed"] is True

    def test_no_conflict_below_threshold(self):
        report = run_json(["analyze", "--visibility", "0.9", "--copies", "2"])
        assert report["results"]["zukowski_value"] == pytest.approx(
            0.81 * ZUKOWSKI_AT_FULL_VISIBILITY[2], abs=1e-9)
        assert report["verdicts"]["conflict_revealed"] is False

    def test_single_copy_never_conflicts(self):
        report = run_json(["analyze", "--visibility", "1", "--copies", "1"])
        assert report["results"]["zukowski_value"] == pytest.approx(
            ZUKOWSKI_AT_FULL_VISIBILITY[1], abs=1e-9)
        assert report["verdicts"]["conflict_revealed"] is False
        assert "threshold_visibility" not in report["results"]

    @pytest.mark.parametrize("v", [0.0, 0.5, threshold_visibility(MAX_COPIES), 1.0])
    def test_largest_copy_count_reports_strict_json(self, v):
        def refuse(constant):
            raise ValueError(f"non-JSON constant {constant}")

        code, out, err = run_main(["analyze", "--visibility", repr(v),
                                   "--copies", str(MAX_COPIES)])
        assert code == 0, err
        report = json.loads(out, parse_constant=refuse)
        assert report["parameters"]["copies"] == MAX_COPIES
        assert report["parameters"]["visibility"] == pytest.approx(v, rel=1e-11)
        assert report["results"]["mermin_value"] == pytest.approx(v**MAX_COPIES, rel=1e-11)

    @pytest.mark.parametrize("text", ["-0", "-0.0"])
    def test_negative_zero_visibility_reads_as_zero(self, text):
        for argv in (["analyze", "--copies", "1"], ["correlators"]):
            assert run_main(argv + ["--visibility", text]) == \
                run_main(argv + ["--visibility", "0"])

    @pytest.mark.parametrize("n", [*range(2, 7), 7, 64, MAX_COPIES])
    def test_zukowski_verdict_flips_within_slack_of_threshold(self, n):
        # Bisect on the bit patterns of the doubles in [0, 1], which order as
        # their values do, for the smallest V that analyze reports as a
        # Bell-Zukowski violation. BOUND_SLACK on |<Z>| <= 1 moves the flip
        # above t by at most the factor 1 + BOUND_SLACK / N; 8 eps covers the
        # rounding of V^N and of its scale.
        def verdicts(v):
            return cmd_analyze(v, n)["verdicts"]

        def value(bits):
            return struct.unpack("<d", struct.pack("<q", bits))[0]

        lo, hi = (struct.unpack("<q", struct.pack("<d", v))[0] for v in (0.0, 1.0))
        assert verdicts(value(lo))["zukowski_satisfied"]
        assert not verdicts(value(hi))["zukowski_satisfied"]
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if verdicts(value(mid))["zukowski_satisfied"]:
                lo = mid
            else:
                hi = mid
        flip, t = value(hi), threshold_visibility(n)
        assert t <= flip <= t * (1 + BOUND_SLACK / n) * (1 + 8 * sys.float_info.epsilon)
        # The paper's sentence: the conflict appears exactly where <Z> violates.
        assert verdicts(value(lo))["conflict_revealed"] is False
        assert verdicts(flip)["conflict_revealed"] is True


class TestSweep:
    def test_grid_is_exact(self):
        grid = sweep_grid(0.9, 1.0, 0.02, MAX_SWEEP_ROWS)
        assert grid == pytest.approx([0.9, 0.92, 0.94, 0.96, 0.98, 1.0])

    def test_cap_takes_six_copy_counts_at_step_1e_5(self):
        # the cap's value, pinned without writing the 600006-row sweep
        assert len(sweep_grid(0.0, 1.0, 1e-5, MAX_SWEEP_ROWS // 6)) == 100_001

    def test_over_cap_grid_is_refused_before_it_is_built(self):
        # 1e-300 steps fit far more than the cap's 600006 points in [0, 1];
        # building them first would trace 18.8 MiB
        argv = ["sweep", "--v-min", "0", "--v-max", "1", "--v-step", "1e-300", "--copies", "1"]
        run_main(["sweep", "--v-min", "0", "--v-max", "0", "--v-step", "0.5", "--copies", "1"])
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            code, out, err = run_main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out, err) == (2, "", ROW_CAP % MAX_SWEEP_ROWS + "\n")
        assert peak - before < 2**20

    def test_row_order_copies_outer(self):
        _, out, _ = run_main(["sweep", "--v-min", "0.5", "--v-max", "0.6",
                              "--v-step", "0.1", "--copies", "2,1"])
        ns = [row.split(",")[1] for row in out.strip().splitlines()[1:]]
        assert ns == ["2", "2", "1", "1"]

    @pytest.mark.parametrize("copies", ["6,6", "1,2,1"])
    def test_repeated_copy_count_repeats_its_block(self, copies):
        code, out, err = run_main(["sweep", "--v-min", "0", "--v-max", "1",
                                   "--v-step", "0.5", "--copies", copies])
        assert (code, err) == (0, "")
        header, *rows = out.splitlines()
        blocks = [rows[k:k + 3] for k in range(0, len(rows), 3)]
        assert [block[0].split(",")[1] for block in blocks] == copies.split(",")
        assert blocks[0] == blocks[-1]

    # 0.001-1001 and 0.0001-10001 cover every copy count 1-6 on [0, 1];
    # flip-N walks 27923 adjacent doubles, 2**-53 apart, from 1e-13 below copy
    # count N's threshold visibility t to t + 3e-12 (v_max = t + 2e-12, plus
    # the grid's 1e-12 slack); 0.9k-5.2k of them lie before the flip, so a <Z>
    # that decreases between neighbours or a violated column split at the
    # wrong row shows.
    @pytest.mark.parametrize("v_min, v_max, step, copies, points", [
        pytest.param(0.0, 1.0, 0.001, "1,2,3,4,5,6", 1001, id="0.001-1001"),
        pytest.param(0.0, 1.0, 0.0001, "1,2,3,4,5,6", 10001, id="0.0001-10001"),
        *(pytest.param(threshold_visibility(n) - 1e-13, threshold_visibility(n) + 2e-12,
                       2.0**-53, str(n), 27923, id=f"flip-{n}") for n in (2, 3, 4, 5, 6, 64, 512)),
    ])
    def test_rows_match_per_row_reference(self, v_min, v_max, step, copies, points):
        # each row rebuilt from the closed forms and format_float, one call per field
        from bellbench.mermin import (local_bound_check, modified_mermin_bound,
                                      zukowski_from_mermin)
        from bellbench.report import format_float

        code, out, err = run_main(["sweep", "--v-min", repr(v_min), "--v-max", repr(v_max),
                                   "--v-step", repr(step), "--copies", copies])
        assert code == 0, err
        expected = ["V,N,mermin,zukowski,modified_bound,violated"]
        copy_counts = [int(n) for n in copies.split(",")]
        for n in copy_counts:
            verdicts = []
            for k in range(points):
                v = min(v_min + k * step, 1.0)
                zukowski = zukowski_from_mermin(v**n, n)
                verdicts.append("false" if local_bound_check(zukowski) else "true")
                expected.append(",".join([
                    format_float(v), str(n), format_float(v**n), format_float(zukowski),
                    format_float(modified_mermin_bound(n)), verdicts[-1]]))
            # every block of N >= 2 crosses its threshold
            assert n == 1 or set(verdicts) == {"false", "true"}, n
        assert len(expected) == len(copy_counts) * points + 1
        # Name the first wrong row: pytest's diff of two megabyte strings that
        # differ on many rows runs for minutes.
        rows = out.split("\n")
        assert len(rows) == len(expected) + 1, (len(rows), len(expected))
        first = next((i for i, (row, want) in enumerate(zip(rows, expected)) if row != want), None)
        assert first is None, (first, rows[first], expected[first])
        assert out == "\n".join(expected) + "\n"

    def test_largest_sweep_has_bounded_memory(self, tmp_path):
        path = tmp_path / "sweep.csv"
        argv = ["sweep", "--v-min", "0", "--v-max", "1", "--v-step", "1e-5",
                "--copies", "1,2,3,4,5,6", "--output", str(path)]
        # one-row warm-up: loads the modules and builds the cached parser
        run_main(["sweep", "--v-min", "0", "--v-max", "0", "--v-step", "0.5", "--copies", "1",
                  "--output", os.devnull])
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            code, out, err = run_main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out, err) == (0, "", "")
        assert path.read_bytes().count(b"\n") == MAX_SWEEP_ROWS + 1
        # Each copy count's block is written as soon as it is formatted, so
        # one of the six 6 MB blocks is alive at a time: the peak is 29.75
        # MiB. Holding the whole 36 MB CSV until the end peaks at 58.1 MiB.
        assert peak - before < 40 * 2**20


class TestVerifyAppendix:
    def test_default_checks_pass(self):
        report = run_json(["verify-appendix", "--trials", "500", "--seed", "42"])
        assert all(report["verdicts"].values())
        assert report["results"]["extremal_z_prime_real"] == pytest.approx(2.0)
        assert report["results"]["quadrature_max_error"] < 1e-10
        assert report["results"]["ghz_offdiagonal_max"] < 1e-12

    def test_draw_at_the_cap_runs(self):
        trials = MAX_APPENDIX_CELLS // 64
        report = run_json(["verify-appendix", "--grid", "64", "--trials", str(trials)])
        assert report["parameters"]["trials"] == trials
        assert all(report["verdicts"].values())

    def test_seed_42_default_results(self):
        _, out, _ = run_main(["verify-appendix", "--seed", "42"])
        assert '"max_abs_z_prime": 1.19728757722' in out
        assert '"max_abs_s_n2": 0.738052646128' in out
        assert '"max_abs_s_n3": 0.510918713272' in out

    # At grid 2 every step function has |z'| = 2, so the maxima are the
    # bounds themselves and a strict bound check fails. Grid 8 reads whole
    # bytes, as every grid that is a multiple of 8 does; grid 130 ends each
    # function on a partial byte, whose 6 high bits are drawn and dropped.
    @pytest.mark.parametrize("argv, expected", [
        (["--grid", "2"], ("2", "4", "8")),
        (["--grid", "8", "--trials", "500", "--seed", "-3"],
         ("2", "3.69551813005", "3.67043119883")),
        (["--grid", "130", "--trials", "777", "--seed", "5"],
         ("0.908678879923", "0.25610859635", "0.0864010713838")),
    ], ids=["grid-2", "grid-8", "grid-130"])
    def test_known_answer_results(self, argv, expected):
        _, out, _ = run_main(["verify-appendix", *argv])
        for key, value in zip(("max_abs_z_prime", "max_abs_s_n2", "max_abs_s_n3"), expected):
            assert f'"{key}": {value},' in out
        assert all(json.loads(out)["verdicts"].values())

    def test_inexact_quadrature_fails_its_verdicts(self, monkeypatch):
        # m2 moved off zero by 1e-6 i: both gaps are about 1e-6, far above
        # their tolerances and far below 1
        from bellbench import zukowski

        exact = zukowski._site_moments
        monkeypatch.setattr(zukowski, "_site_moments",
                            lambda nodes: (exact(nodes)[0], exact(nodes)[1] + 1e-6j))
        verdicts = run_json(["verify-appendix", "--grid", "2", "--trials", "1"])["verdicts"]
        assert [name for name, ok in verdicts.items() if not ok] == \
            ["ghz_diagonal", "quadrature_exact"]

    def test_bound_verdicts_flip_just_above_their_bounds(self, monkeypatch):
        # maxima exactly at the bounds 2, 4 and 8 pass; raising one of them by
        # 2 BOUND_SLACK relative fails its own verdict and no other
        from bellbench import zukowski

        bounds = (2.0, 4.0, 8.0)
        names = ("z_prime_bounded", "s_bounded_n2", "s_bounded_n3")
        for raised in (None, 0, 1, 2):
            maxima = tuple(b * (1 + 2 * BOUND_SLACK) if k == raised else b
                           for k, b in enumerate(bounds))
            monkeypatch.setattr(zukowski, "sampled_maxima", lambda *args: maxima)
            verdicts = run_json(["verify-appendix", "--grid", "2", "--trials", "1"])["verdicts"]
            assert [name for name, ok in verdicts.items() if not ok] == \
                ([] if raised is None else [names[raised]])

    @pytest.mark.parametrize("chunk_cells", [None, 1000, 64])
    @pytest.mark.parametrize("grid, trials, seed", [(2, 3001, 42), (130, 777, 5), (6, 259, -3),
                                                   (24, 1000, 7), (4094, 9, 7)])
    def test_chunked_draws_match_one_matrix(self, monkeypatch, chunk_cells, grid, trials, seed):
        from bellbench import cli, zukowski

        if chunk_cells is not None:
            monkeypatch.setattr(zukowski, "APPENDIX_CHUNK_CELLS", chunk_cells)
        results = cli.cmd_verify_appendix(grid, trials, seed)["results"]
        expected = unchunked_appendix_maxima(grid, trials, seed)
        # The reference sums in zgemv's order, the byte tables in their own:
        # the two may differ in the last bit (grid 130, seed 5, max_abs_s_n3 by
        # one ulp). A stream shifted by one word, bytes read in the wrong bit
        # order, a byte position left out, functions packed without their
        # padding bits, or an n = 2 product over the wrong pair of a triple
        # move some maximum by 1 % or more at grid 130 (at grid 2 the maxima
        # are the exact extremes 2, 4 and 8 under any stream).
        assert (results["max_abs_z_prime"], results["max_abs_s_n2"],
                results["max_abs_s_n3"]) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("grid", [2, 64, 4096])
    def test_draw_at_the_cap_has_bounded_memory(self, grid):
        argv = ["verify-appendix", "--grid", str(grid),
                "--trials", str(MAX_APPENDIX_CELLS // grid)]
        run_main(["verify-appendix", "--trials", "64"])  # warm-up
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            code, out, err = run_main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0, err
        assert all(json.loads(out)["verdicts"].values())
        # one whole n = 3 sign matrix at the cap is 96 MiB of float64; the
        # byte table at grid 4096, 256 entries for each of 512 bytes, is 2 MiB
        assert peak - before < 16 * 2**20


class TestLhv:
    def test_reads_table_file(self, tmp_path):
        path = tmp_path / "table.json"
        path.write_text('{"XX": 0, "XY": 0.5, "YX": 0.5, "YY": 0}')
        report = run_json(["lhv", "--input", str(path)])
        assert report["verdicts"]["lhv_feasible"] is True
        assert report["verdicts"]["oracles_agree"] is True

    def test_reads_correlators_report(self, tmp_path):
        code, out, _ = run_main(["correlators", "--visibility", "1"])
        assert code == 0
        path = tmp_path / "report.json"
        path.write_text(out)
        report = run_json(["lhv", "--input", str(path)])
        assert report["verdicts"] == {"lhv_feasible": True, "oracles_agree": True}

    def test_witness_check_does_not_share_the_settings_order(self, monkeypatch):
        # 0.7 "+-,++,++" + 0.3 "--,+-,++" is not symmetric under party
        # reversal, so a reversed key order yields a witness for the reversed
        # table, and the check must see that it does not rebuild this one.
        from bellbench.lhv import CorrelationTable

        monkeypatch.setattr(CorrelationTable, "settings",
                            lambda self: sorted(self.values, key=lambda k: k[::-1]))
        report = run_json(["lhv"], json.dumps(
            {"XXX": 0.4, "XXY": 0.4, "XYX": 1.0, "XYY": 1.0,
             "YXX": -1.0, "YXY": -1.0, "YYX": -0.4, "YYY": -0.4}))
        assert report["verdicts"]["lhv_feasible"] is True
        assert report["results"]["witness_error"] > 1
        assert report["verdicts"]["oracles_agree"] is False

    def test_inequality_check_does_not_share_the_settings_order(self, monkeypatch):
        # Ordering by Y count is not a party permutation, so the transform
        # reads a scrambled vector: the same local table comes out infeasible,
        # with coefficients keyed to the wrong settings. Its "violated
        # inequality" has value 11.2 against bound 8, but one deterministic
        # strategy reaches 16 on it, and the check must see that.
        from bellbench.lhv import CorrelationTable

        monkeypatch.setattr(CorrelationTable, "settings",
                            lambda self: sorted(self.values, key=lambda k: (k.count("Y"), k)))
        report = run_json(["lhv"], json.dumps(
            {"XXX": 0.4, "XXY": 0.4, "XYX": 1.0, "XYY": 1.0,
             "YXX": -1.0, "YXY": -1.0, "YYX": -0.4, "YYY": -0.4}))
        assert report["verdicts"]["lhv_feasible"] is False
        inequality = report["results"]["witness_inequality"]
        assert inequality["value"] > inequality["bound"]
        assert report["verdicts"]["oracles_agree"] is False

    def test_infeasible_witness(self, tmp_path):
        path = tmp_path / "pr.json"
        path.write_text('{"XX": 1, "XY": 1, "YX": 1, "YY": -1}')
        report = run_json(["lhv", "--input", str(path)])
        assert report["verdicts"]["lhv_feasible"] is False
        witness = report["results"]["witness_inequality"]
        assert witness["quadruple_index"] == 0
        assert witness["value"] > witness["bound"]

    # An infeasible verdict transforms its sign pattern once more to get the
    # violated inequality's coefficients.
    @pytest.mark.parametrize("text, transforms", [
        ('{"XX": 0.5, "XY": 0.25, "YX": 0.25, "YY": -0.5}', 1),
        ('{"XX": 1, "XY": 1, "YX": 1, "YY": -1}', 2),
    ], ids=["feasible", "infeasible"])
    def test_one_sign_transform_per_request(self, monkeypatch, text, transforms):
        from bellbench import lhv

        calls = []
        sign_transform = lhv.sign_transform

        def counting(vector):
            calls.append(len(vector))
            return sign_transform(vector)

        monkeypatch.setattr(lhv, "sign_transform", counting)
        code, _, err = run_main(["lhv"], stdin=text)
        assert code == 0, err
        assert len(calls) == transforms

    def test_solver_failure_exits_3(self, tmp_path, monkeypatch):
        from bellbench import lhv

        def boom(table):
            raise ArithmeticError("synthetic failure")

        monkeypatch.setattr(lhv, "lhv_feasible", boom)
        path = tmp_path / "t.json"
        path.write_text('{"XX": 0, "XY": 0, "YX": 0, "YY": 0}')
        code, _, err = run_main(["lhv", "--input", str(path)])
        assert code == 3
        assert "numerical failure" in err

    # A valid table after leading whitespace, `size` characters in all; standard
    # input reads it from a file, so the test holds no second copy. The sizes
    # are README's cap, 2**24 characters, not the module constant.
    @pytest.mark.parametrize("size", [2**24, 2**24 + 1], ids=["at-cap", "over-cap"])
    @pytest.mark.parametrize("source", ["stdin", "input"])
    def test_input_cap(self, tmp_path, source, size):
        table = '{"X": 0.3, "Y": -0.2}'
        path = tmp_path / "padded.json"
        path.write_text(" " * (size - len(table)) + table)
        argv = ["lhv"] if source == "stdin" else ["lhv", "--input", str(path)]
        with path.open(encoding="utf-8") as fh:
            code, out, err = run_main(argv, stdin=fh)
        if size == 2**24:
            assert (code, out, err) == run_main(["lhv"], stdin=table)
        else:
            name = "standard input" if source == "stdin" else path
            assert (code, out, err) == (2, "", f"bellctl: error: {name} exceeds the "
                                               "16777216-character input cap\n")

    def test_one_party_table_runs(self):
        code, out, err = run_main(["lhv"], stdin='{"X": 0.3, "Y": -0.2}')
        assert code == 0, err
        report = json.loads(out)
        assert report["results"]["parties"] == 1
        assert report["verdicts"]["lhv_feasible"] is True
        assert report["verdicts"]["oracles_agree"] is True

    def test_seven_party_tables(self, tmp_path):
        rng = np.random.default_rng(7)
        for table, feasible in ((mixture_table(rng, 7), True),
                                (ghz_type_table(rng, 7, 1.0), False)):
            path = tmp_path / "t7.json"
            path.write_text(table_json(table))
            report = run_json(["lhv", "--input", str(path)])
            assert report["results"]["parties"] == 7
            assert report["verdicts"]["lhv_feasible"] is feasible
            assert report["verdicts"]["oracles_agree"] is True
            if feasible:
                assert report["results"]["witness_error"] < 1e-8
                assert report["results"]["complete_set_sum"] <= 2**7
            else:
                assert report["results"]["complete_set_sum"] > 2**7


# Every input bellctl cannot turn into verdicts: argv, standard input and the
# last line of stderr. A line ending in "..." is a prefix, the rest being
# worded by the json module or the OS. Rows run in a temporary directory
# that holds bad.json ("{nope") and t.json (not UTF-8).
ERROR = "bellctl: error: "
TABLE = ERROR + "invalid correlation table: "
ROW_CAP = (f"{ERROR}sweep exceeds the {MAX_SWEEP_ROWS}-row cap (more than %d grid points "
           "per copy count); use a larger step")
SWEEP = ["sweep", "--v-min", "0", "--v-max", "1", "--v-step", "0.5"]
REJECTED = {
    "visibility-1.5": (["correlators", "--visibility", "1.5"], "", "bellctl correlators: error: "
                       "argument --visibility: visibility must lie in [0, 1], got 1.5"),
    **{f"copies-{name}-{n}": (
        [*argv, f"{prefix}{n}"], "",
        f"bellctl {name}: error: argument --copies: "
        f"copy count must lie in [1, {MAX_COPIES}], got {n}")
       for name, argv, prefix in (("analyze", ["analyze", "--visibility", "1", "--copies"], ""),
                                  ("sweep", [*SWEEP, "--copies"], "1,"))
       for n in (0, MAX_COPIES + 1)},
    # an empty comma-separated entry is not a count
    **{f"copies-empty{where}": (
        [*SWEEP, "--copies", copies], "",
        "bellctl sweep: error: argument --copies: not an integer: ''")
       for where, copies in (("-middle", "1,,2"), ("-first", ",2"), ("-last", "2,"), ("", ""))},
    "grid-empty": (
        ["sweep", "--v-min", "0.9", "--v-max", "0.1", "--v-step", "0.1", "--copies", "1"], "",
        ERROR + "empty visibility grid"),
    **{f"step-{step}": (
        ["sweep", "--v-min", "0", "--v-max", "1", "--v-step", step, "--copies", "1"], "",
        f"bellctl sweep: error: argument --v-step: step must be finite and positive, "
        f"got {float(step)}")
       for step in ("nan", "inf", "0", "-0.1")},
    "step-1e-9": (
        ["sweep", "--v-min", "0", "--v-max", "1", "--v-step", "1e-9", "--copies", "1"], "",
        ROW_CAP % MAX_SWEEP_ROWS),
    # row-cap-0-*: (v_max - v_min) / v_step is 0, but the grid runs on to
    # v_max + 1e-12, which holds 1e-12 / 1e-300 points at V = 0 and, since
    # 0.5 + k 1e-17 rounds back to 0.5 for small k, 100004 at V = 0.5: over
    # the 100001 points each of six copy counts may take.
    # row-cap-one-point-over: 1 / 100001 steps give 100002 points, one more
    # than six copy counts may take; 1e-5 steps give 100001, exactly
    # MAX_SWEEP_ROWS rows.
    **{f"row-cap-{name}": (
        ["sweep", "--v-min", v_min, "--v-max", v_max, "--v-step", step,
         "--copies", "1,2,3,4,5,6"], "",
        ROW_CAP % (MAX_SWEEP_ROWS // 6))
       for name, v_min, v_max, step in (("0-1e-300", "0", "0", "1e-300"),
                                        ("0.5-1e-17", "0.5", "0.5", "1e-17"),
                                        ("one-point-over", "0", "1", repr(1 / 100_001)))},
    # There is no --format option; each subcommand has one output format.
    **{f"format-json-{argv[0]}": ([*argv, "--format", "json"], "",
                                  ERROR + "unrecognized arguments: --format json")
       for argv in ([*SWEEP, "--copies", "1"], ["analyze", "--visibility", "1", "--copies", "2"])},
    "draw-odd-63": (["verify-appendix", "--grid", "63"], "",
                    ERROR + "grid cells must be even and >= 2, got 63"),
    **{f"draw-{grid}-{trials}": (
        ["verify-appendix", "--grid", str(grid), "--trials", str(trials)], "",
        ERROR + (f"grid cells must not exceed {MAX_APPENDIX_GRID}, got {grid}"
                 if grid > MAX_APPENDIX_GRID else
                 f"trials x grid cells must not exceed {MAX_APPENDIX_CELLS}, "
                 f"got {trials} x {grid}"))
       for grid, trials in ((64, 65537), (2**23, 1), (2, 10**12), (4098, 1))},
    "input-malformed-json": (["lhv", "--input", "bad.json"], "", ERROR + "invalid JSON: ..."),
    "input-missing-file": (["lhv", "--input", "/nonexistent/t.json"], "",
                           ERROR + "cannot read /nonexistent/t.json: ..."),
    "input-non-utf8": (["lhv", "--input", "t.json"], "", ERROR + "cannot read t.json: ..."),
    "json-deep-nesting": (["lhv"], "[" * 100_000, ERROR + "invalid JSON: ..."),
    # Python releases without the integer-string digit limit parse this
    # literal and reject it as a table instead.
    "json-int-over-digit-limit": (["lhv"], '{"XX": 1' + "0" * 5000 + "}", ERROR + "invalid ..."),
    "json-int-over-float-range": (
        ["lhv"], '{"XX": 1' + "0" * 400 + ', "XY": 0, "YX": 0, "YY": 0}', TABLE + "..."),
    "json-byte-order-mark": (["lhv"], '\ufeff{"X": 0.5, "Y": 0}',
                             ERROR + "invalid JSON: Unexpected UTF-8 BOM ..."),
    # A valid table is accepted by whole-table checks; a rejected one is read
    # entry by entry, key before value, so the message names the first
    # offending entry in input order.
    **{f"table-{name}": (["lhv"], text, TABLE + message) for name, text, message in [
        ("bad-key", '{"XX": 0.5, "XZ": 0, "YX": 0, "YY": 0}', "bad setting key 'XZ'"),
        ("ragged-keys", '{"XX": 0.5, "XYY": 0, "YX": 0, "YY": 0}', "bad setting key 'XYY'"),
        ("string", '{"XX": 0.5, "XY": "0.5", "YX": 0, "YY": 0}',
         "correlator 'XY' is not a number"),
        ("true", '{"XX": 0.5, "XY": true, "YX": 0, "YY": 0}', "correlator 'XY' is not a number"),
        ("out-of-range", '{"XX": 0.5, "XY": -1.5, "YX": 0, "YY": 0}',
         "correlator XY = -1.5 outside [-1, 1]"),
        ("1e400", '{"XX": 0.5, "XY": 1e400, "YX": 0, "YY": 0}',
         "correlator XY = inf outside [-1, 1]"),
        ("out-of-range-before-bad-key", '{"XX": 2, "XZ": 1, "YX": 1, "YY": -1}',
         "correlator XX = 2.0 outside [-1, 1]"),
        ("value-before-later-key", '{"XX": 0.5, "XY": -1.5, "YZ": 0, "YY": 0}',
         "correlator XY = -1.5 outside [-1, 1]"),
        ("key-before-later-value", '{"YZ": 0, "XY": -1.5, "XX": 0.5, "YY": 0}',
         "bad setting key 'YZ'"),
        ("non-number-after-overflow", '{"XX": 0.5, "XY": 1e400, "YX": "a", "YY": 0}',
         "correlator 'YX' is not a number"),
        ("first-of-two-out-of-range", '{"XX": 0.5, "XY": 0.5, "YX": 1.0000000002, "YY": 7}',
         "correlator YX = 1.0000000002 outside [-1, 1]"),
        # 2**15000 has more digits than Python converts to a string by default.
        ("long-key", json.dumps({"X" * 15000: 0.5}), "key length 15000 exceeds the 12-party cap"),
        # A valid table over the cap gets the same message.
        ("valid-13-party", json.dumps(dict.fromkeys(settings(13), 0.0)),
         "key length 13 exceeds the 12-party cap"),
        ("repeated-key", '{"X": 0.1, "X": 0.9, "Y": 0}', "repeated key 'X'"),
        ("zero-party", '{"": 0.5}', "need at least one party, got 0"),
    ]},
}


@pytest.mark.parametrize("case", REJECTED)
def test_rejected_input_exits_2(tmp_path, monkeypatch, case):
    # exit 2, no report and one message, before the appendix draw starts; the
    # same again when the report would go to a file, which is then not made
    from bellbench import zukowski

    def refuse(*args, **kwargs):
        raise AssertionError("the appendix draw started")

    for name in ("cell_weights", "sign_cos_step", "sampled_maxima"):
        monkeypatch.setattr(zukowski, name, refuse)
    monkeypatch.chdir(tmp_path)
    Path("bad.json").write_text("{nope")
    Path("t.json").write_bytes(b"\xff\xfe{}")
    argv, stdin, last = REJECTED[case]
    code, out, err = run_main(argv, stdin)
    assert (code, out) == (2, "")
    assert err.endswith("\n") and "Traceback" not in err, err
    # one message, after argparse's usage lines if it is a usage error
    *usage, line = err.splitlines()
    assert all(u.startswith(("usage: ", " ")) for u in usage), err
    assert line.startswith(last[:-3]) if last.endswith("...") else line == last, err
    # --output goes first, so that a row's own --output comes later and wins
    assert run_main([argv[0], "--output", "report.out", *argv[1:]], stdin) == (code, out, err)
    assert not Path("report.out").exists()


@pytest.mark.parametrize("target", ["missing-dir/x.json", "."], ids=["missing-dir", "directory"])
def test_unwritable_output_exits_2(tmp_path, target):
    # the inputs are good; only the report's destination cannot be written
    path = tmp_path / target
    code, out, err = run_main(["analyze", "--visibility", "1", "--copies", "2",
                               "--output", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith(f"{ERROR}cannot write {path}: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    assert sorted(tmp_path.iterdir()) == []


CLOSED_STDOUT_CALLS = {
    "analyze": (["analyze", "--visibility", "0.9", "--copies", "2"], ""),
    "sweep": (["sweep", "--v-min", "0", "--v-max", "1", "--v-step", "0.001",
               "--copies", "1,2,3"], ""),
    "lhv": (["lhv"], '{"XX": 1, "XY": 1, "YX": 1, "YY": -1}'),
    "verify-appendix": (["verify-appendix", "--trials", "200", "--grid", "8"], ""),
}


@pytest.mark.parametrize("case", sorted(CLOSED_STDOUT_CALLS))
def test_closed_stdout_exits_2(case):
    # stdout is a pipe whose read end is already closed, as in `bellctl ... | head -c 0`
    argv, stdin = CLOSED_STDOUT_CALLS[case]
    src = str(Path(bellbench.__file__).resolve().parents[1])
    # block-buffered standard output, as a shell gives it by default
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "bellbench", *argv], input=stdin,
                              stdout=write_end, stderr=subprocess.PIPE, text=True,
                              env=dict(env, PYTHONPATH=src), timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr.startswith("bellctl: error: cannot write standard output: ")
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr
    # in process, main writes the same report to a StringIO stdout
    code, out, err = run_main(argv, stdin)
    assert (code, err) == (0, "")
    assert out.endswith("\n")


# Representative bellctl calls, in the order one interpreter runs them: argv,
# standard input, exit code, and which of numpy, dataclasses, bellbench.lhv and
# bellbench.zukowski (the appendix layer) are loaded after the call. analyze,
# sweep, a usage error and --help load none of them; correlators and an
# infeasible lhv table load the LHV layer only. numpy, without which no dense
# operator can be built, comes only with the two bulk kernels: a feasible lhv
# verdict's witness rebuild and verify-appendix's draw. The last three rows
# run analyze and sweep again after both.
BULK_KERNELS = {"numpy", "bellbench.lhv", "bellbench.zukowski"}
CALL_TABLE = [
    (["analyze", "--visibility", "0.9", "--copies", "2"], "", 0, set()),
    (["sweep", "--v-min", "0", "--v-max", "1", "--v-step", "0.01",
      "--copies", "1,2,3,4,5,6"], "", 0, set()),
    (["sweep", "--v-min", "0", "--v-max", "1", "--v-step", "0.5", "--copies", "6,6"],
     "", 0, set()),
    (["analyze", "--visibility", "2", "--copies", "1"], "", 2, set()),
    (["--help"], "", 0, set()),
    (["correlators", "--visibility", "0.9"], "", 0, {"bellbench.lhv"}),
    (["lhv"], '{"XX": 1, "XY": 1, "YX": 1, "YY": -1}', 0, {"bellbench.lhv"}),
    (["lhv"], '{"XX": 0.5, "XY": 0.25, "YX": 0.25, "YY": -0.5}', 0,
     {"numpy", "bellbench.lhv"}),
    (["verify-appendix", "--trials", "200", "--grid", "8"], "", 0, BULK_KERNELS),
    (["analyze", "--visibility", "1", "--copies", "3"], "", 0, BULK_KERNELS),
    (["sweep", "--v-min", "0.9", "--v-max", "1", "--v-step", "0.05", "--copies", "2,1"],
     "", 0, BULK_KERNELS),
    (["analyze", "--visibility", "0.9", "--copies", "3"], "", 0, BULK_KERNELS),
]

# Runs the (argv, stdin) pairs it is given through main and prints, for each,
# [code, stdout, stderr, watched modules loaded]. It swaps the standard
# streams by hand: unittest.mock itself loads dataclasses and inspect.
CALL_TABLE_SCRIPT = '''
import contextlib, io, json, sys
from bellbench.cli import main

WATCHED = ("numpy", "dataclasses", "bellbench.lhv", "bellbench.zukowski")
rows = []
for argv, stdin in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    sys.stdin = io.StringIO(stdin)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # usage errors and --help
            code = exc.code
    rows.append([code, out.getvalue(), err.getvalue(),
                 [name for name in WATCHED if name in sys.modules]])
print(json.dumps(rows))
'''


@pytest.fixture(scope="module")
def call_table_rows():
    # COLUMNS fixes argparse's usage width here and in the fresh processes
    src = str(Path(bellbench.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, COLUMNS="80")
    calls = [(argv, stdin) for argv, stdin, _, _ in CALL_TABLE]
    proc = subprocess.run([sys.executable, "-c", CALL_TABLE_SCRIPT, json.dumps(calls)],
                          capture_output=True, text=True, env=env, timeout=120, check=True)
    return env, list(zip(CALL_TABLE, json.loads(proc.stdout), strict=True))


def test_hot_path_builds_no_dense_operator(call_table_rows):
    # Without numpy no dense operator can be built: numpy and the appendix
    # layer load only where a row names them, and each call exits as pinned
    dense = {"numpy", "bellbench.zukowski"}
    for (argv, _, code, loaded), (now_code, _, _, now_loaded) in call_table_rows[1]:
        assert (now_code, dense.intersection(now_loaded)) == (code, loaded & dense), argv


def test_correlators_and_infeasible_lhv_import_neither_dataclasses_nor_numpy(call_table_rows):
    # no call loads dataclasses; the LHV layer loads only where a row names it
    light = {"dataclasses", "bellbench.lhv"}
    for (argv, _, _, loaded), (*_, now_loaded) in call_table_rows[1]:
        assert light.intersection(now_loaded) == loaded & light, argv


def test_repeated_calls_match_fresh_processes(call_table_rows):
    # main() reuses one parser and imports its bulk kernels on first use; each
    # call in the shared interpreter must still answer as a fresh process does
    env, rows = call_table_rows
    for (argv, stdin, _, _), (*outcome, _) in rows:
        fresh = subprocess.run([sys.executable, "-m", "bellbench", *argv], input=stdin,
                               capture_output=True, text=True, env=env, timeout=60)
        assert outcome == [fresh.returncode, fresh.stdout, fresh.stderr], argv


def test_analyze_has_bounded_memory():
    run_main(["analyze", "--visibility", "0.9", "--copies", "6"])  # warm-up
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        code, out, err = run_main(["analyze", "--visibility", "0.9", "--copies", "6"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0, err
    assert '"mermin_value": 0.531441' in out
    # a 6-qubit complex operator alone is 64 KiB; the 12-qubit one 256 MiB
    assert peak - before < 64 * 1024


class TestDeterminism:
    @pytest.mark.parametrize("feasible", [True, False], ids=["feasible", "infeasible"])
    def test_lhv_byte_identical(self, tmp_path, feasible):
        rng = np.random.default_rng(6)
        table = mixture_table(rng, 6) if feasible else ghz_type_table(rng, 6, 0.9)
        source = tmp_path / "table.json"
        source.write_text(table_json(table))
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            assert main(["lhv", "--input", str(source), "--output", str(p)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert json.loads(paths[0].read_text())["verdicts"]["lhv_feasible"] is feasible

    @pytest.mark.parametrize("seed", ["0", "-3", str(2**70)])
    def test_any_integer_seed_runs(self, seed):
        argv = ["verify-appendix", "--seed", seed]
        first = run_main(argv)
        assert first[0] == 0, first[2]
        assert all(json.loads(first[1])["verdicts"].values())
        assert run_main(argv) == first

    def test_seed_changes_stream_not_verdicts(self):
        r1 = run_json(["verify-appendix", "--trials", "200", "--seed", "1"])
        r2 = run_json(["verify-appendix", "--trials", "200", "--seed", "2"])
        assert r1["results"]["max_abs_z_prime"] != r2["results"]["max_abs_z_prime"]
        assert all(r1["verdicts"].values()) and all(r2["verdicts"].values())


TOLERANCES_TEXT = ('"tolerances": {"bound_slack": 1e-12, "comparison": 1e-10, '
                   '"complete_set_slack": 1e-09, "witness": 1e-08}, "tool_version": "0.10.0"')

# Whole reports whose numbers do not depend on summation order: the two lhv
# tables are dyadic, so the sign transform and the witness rebuild are exact,
# analyze uses Python floats only, and the correlators table is read from the
# pair's amplitudes.
PINNED_REPORTS = {
    "correlators": (
        ["correlators", "--visibility", "0.9"], "",
        '{"command": "correlators", "parameters": {"visibility": 0.9}, "results": '
        '{"quadruples": [1.8, 0, 0, 1.8], "table": {"XX": 0, "XY": 0.9, "YX": 0.9, "YY": 0}}, '
        + TOLERANCES_TEXT + ', "verdicts": {"lhv_feasible": true}}\n'),
    "lhv-feasible": (
        ["lhv"], '{"XX":0.5,"XY":0.25,"YX":0.25,"YY":-0.5}',
        '{"command": "lhv", "parameters": {}, "results": {"complete_set_sum": 3, "parties": 2, '
        '"witness_distribution": {"++,++": 0.25, "++,+-": 0.25, "+-,++": 0.25, '
        '"-+,+-": 0.125, "--,++": 0.125}, "witness_error": 0}, ' + TOLERANCES_TEXT
        + ', "verdicts": {"lhv_feasible": true, "oracles_agree": true}}\n'),
    "lhv-infeasible": (
        ["lhv"], '{"XX":1,"XY":1,"YX":1,"YY":-1}',
        '{"command": "lhv", "parameters": {}, "results": {"complete_set_sum": 8, "parties": 2, '
        '"witness_inequality": {"bound": 4, "coefficients": {"XX": 2, "XY": 2, "YX": 2, '
        '"YY": -2}, "quadruple_index": 0, "value": 8}}, ' + TOLERANCES_TEXT
        + ', "verdicts": {"lhv_feasible": false, "oracles_agree": true}}\n'),
    "analyze": (
        ["analyze", "--visibility", "0.9", "--copies", "2"], "",
        '{"command": "analyze", "parameters": {"copies": 2, "visibility": 0.9}, "results": '
        '{"mermin_value": 0.81, "modified_bound": 0.929170645482, '
        '"threshold_visibility": 0.963934979904, "zukowski_value": 0.871745145995}, '
        + TOLERANCES_TEXT + ', "verdicts": {"conflict_revealed": false, '
        '"mermin_satisfied": true, "zukowski_satisfied": true}}\n'),
}


@pytest.mark.parametrize("case", sorted(PINNED_REPORTS))
def test_report_text_is_pinned(case):
    argv, stdin, expected = PINNED_REPORTS[case]
    assert run_main(argv, stdin) == (0, expected, "")


def test_render_json_is_sorted_and_12_digits():
    text = render_json({"b": 1 / 3, "a": True, "c": [1.0, "x"]})
    assert text == '{"a": true, "b": 0.333333333333, "c": [1, "x"]}\n'
