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
from bellbench.cli import (MAX_APPENDIX_CELLS, MAX_APPENDIX_GRID, MAX_COPIES,
                           MAX_LHV_INPUT_CHARS, MAX_SWEEP_ROWS, CliError, cmd_analyze,
                           cmd_correlators, main, sweep_grid)
from bellbench.mermin import BOUND_SLACK, pair_table, threshold_visibility
from bellbench.report import render_json
from bellbench.zukowski import cell_weights
from helpers import ghz_type_table, mixture_table, run_main
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

    def test_invalid_visibility_exits_2(self):
        assert run_main(["correlators", "--visibility", "1.5"])[0] == 2

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
        assert res["zukowski_value"] == pytest.approx(1.076228575302513, abs=1e-9)
        assert verdicts["mermin_satisfied"] is True
        assert verdicts["zukowski_satisfied"] is False
        assert verdicts["conflict_revealed"] is True

    def test_no_conflict_below_threshold(self):
        report = run_json(["analyze", "--visibility", "0.9", "--copies", "2"])
        assert report["results"]["zukowski_value"] == pytest.approx(
            0.81 * 1.076228575302513, abs=1e-9)
        assert report["verdicts"]["conflict_revealed"] is False

    def test_single_copy_never_conflicts(self):
        report = run_json(["analyze", "--visibility", "1", "--copies", "1"])
        assert report["results"]["zukowski_value"] == pytest.approx(
            0.8723580249548598, abs=1e-9)
        assert report["verdicts"]["conflict_revealed"] is False
        assert "threshold_visibility" not in report["results"]

    def test_copies_out_of_range_exits_2(self):
        for n in (0, MAX_COPIES + 1):
            for argv in (["analyze", "--visibility", "1", "--copies", str(n)],
                         ["sweep", "--v-min", "0", "--v-max", "1", "--v-step", "0.5",
                          "--copies", f"1,{n}"]):
                code, out, err = run_main(argv)
                assert (code, out) == (2, ""), argv
                assert f"copy count must lie in [1, {MAX_COPIES}], got {n}" in err
                assert "Traceback" not in err
        # an empty comma-separated entry is not a count
        for copies in ("1,,2", ",2", "2,", ""):
            code, out, err = run_main(["sweep", "--v-min", "0", "--v-max", "1",
                                       "--v-step", "0.5", "--copies", copies])
            assert (code, out) == (2, ""), copies
            assert "not an integer: ''" in err
            assert "Traceback" not in err

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

    def test_violated_flips_at_threshold(self):
        code, out, _ = run_main(["sweep", "--v-min", "0.9", "--v-max", "1.0",
                                 "--v-step", "0.01", "--copies", "2"])
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[0] == "V,N,mermin,zukowski,modified_bound,violated"
        flags = {}
        for row in rows[1:]:
            fields = row.split(",")
            flags[fields[0]] = fields[5]
        assert flags["0.96"] == "false"
        assert flags["0.97"] == "true"

    def test_row_order_copies_outer(self):
        _, out, _ = run_main(["sweep", "--v-min", "0.5", "--v-max", "0.6",
                              "--v-step", "0.1", "--copies", "2,1"])
        ns = [row.split(",")[1] for row in out.strip().splitlines()[1:]]
        assert ns == ["2", "2", "1", "1"]

    def test_empty_grid_exits_2(self):
        code, _, _ = run_main(["sweep", "--v-min", "0.9", "--v-max", "0.1",
                               "--v-step", "0.1", "--copies", "1"])
        assert code == 2

    @pytest.mark.parametrize("step", ["nan", "inf", "0", "-0.1"])
    def test_non_finite_or_non_positive_step_exits_2(self, step):
        code, _, err = run_main(["sweep", "--v-min", "0", "--v-max", "1", "--v-step", step,
                                 "--copies", "1"])
        assert code == 2
        assert "finite and positive" in err

    def test_too_many_grid_steps_exits_2(self):
        code, out, err = run_main(["sweep", "--v-min", "0", "--v-max", "1",
                                   "--v-step", "1e-9", "--copies", "1"])
        assert code == 2
        assert out == ""
        assert f"{MAX_SWEEP_ROWS}-row cap" in err

    @pytest.mark.parametrize("v, step", [("0", "1e-300"), ("0.5", "1e-17")])
    def test_steps_counted_on_the_loop_bound(self, v, step):
        # (v_max - v_min) / v_step is 0, but the grid runs on to v_max + 1e-12,
        # which holds 1e-12 / 1e-300 points at V = 0 and, since 0.5 + k 1e-17
        # rounds back to 0.5 for small k, 100004 at V = 0.5: over the 100001
        # points each of six copy counts may take.
        with pytest.raises(CliError, match="row cap"):
            sweep_grid(float(v), float(v), float(step), MAX_SWEEP_ROWS // 6)
        code, out, err = run_main(["sweep", "--v-min", v, "--v-max", v,
                                   "--v-step", step, "--copies", "1,2,3,4,5,6"])
        assert (code, out) == (2, "")
        assert f"exceeds the {MAX_SWEEP_ROWS}-row cap" in err

    def test_one_point_over_the_row_cap_exits_2_and_writes_nothing(self, tmp_path):
        # 1 / 100001 steps give 100002 points, one more than six copy counts
        # may take; 1e-5 steps give 100001, exactly MAX_SWEEP_ROWS rows.
        assert len(sweep_grid(0.0, 1.0, 1e-5, MAX_SWEEP_ROWS // 6)) == MAX_SWEEP_ROWS // 6
        path = tmp_path / "sweep.csv"
        for output in ([], ["--output", str(path)]):
            code, out, err = run_main(["sweep", "--v-min", "0", "--v-max", "1",
                                       "--v-step", repr(1 / 100_001),
                                       "--copies", "1,2,3,4,5,6", *output])
            assert (code, out) == (2, "")
            assert err == (f"bellctl: error: sweep exceeds the {MAX_SWEEP_ROWS}-row cap "
                           f"(more than {MAX_SWEEP_ROWS // 6} grid points per copy count); "
                           "use a larger step\n")
        assert not path.exists()

    @pytest.mark.parametrize("copies", ["6,6", "1,2,1"])
    def test_repeated_copy_count_repeats_its_block(self, copies):
        code, out, err = run_main(["sweep", "--v-min", "0", "--v-max", "1",
                                   "--v-step", "0.5", "--copies", copies])
        assert (code, err) == (0, "")
        header, *rows = out.splitlines()
        blocks = [rows[k:k + 3] for k in range(0, len(rows), 3)]
        assert [block[0].split(",")[1] for block in blocks] == copies.split(",")
        assert blocks[0] == blocks[-1]

    def test_json_format_rejected(self):
        # There is no --format option; each subcommand has one output format.
        for argv in (["sweep", "--v-min", "0", "--v-max", "1", "--v-step", "0.5",
                      "--copies", "1"], ["analyze", "--visibility", "1", "--copies", "2"]):
            code, out, err = run_main(argv + ["--format", "json"])
            assert code == 2
            assert out == ""
            assert "Traceback" not in err

    @pytest.mark.parametrize("step, points", [("0.001", 1001), ("0.0001", 10001)])
    def test_rows_match_per_row_reference(self, step, points):
        # each row rebuilt from the closed forms and format_float, one call per field
        from bellbench.mermin import (local_bound_check, modified_mermin_bound,
                                      zukowski_from_mermin)
        from bellbench.report import format_float

        code, out, err = run_main(["sweep", "--v-min", "0", "--v-max", "1",
                                   "--v-step", step, "--copies", "1,2,3,4,5,6"])
        assert code == 0, err
        expected = ["V,N,mermin,zukowski,modified_bound,violated"]
        for n in range(1, 7):
            for k in range(points):
                v = min(k * float(step), 1.0)
                zukowski = zukowski_from_mermin(v**n, n)
                expected.append(",".join([
                    format_float(v), str(n), format_float(v**n), format_float(zukowski),
                    format_float(modified_mermin_bound(n)),
                    "false" if local_bound_check(zukowski) else "true"]))
        assert out == "\n".join(expected) + "\n"
        assert len(expected) == 6 * points + 1

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
        # one of the six 6 MB blocks is alive at a time: the peak is 30.5
        # MiB. Holding the whole 36 MB CSV until the end peaks at 59.6 MiB.
        assert peak - before < 40 * 2**20

    def test_violation_iff_above_threshold(self):
        from bellbench.mermin import threshold_visibility

        _, out, _ = run_main(["sweep", "--v-min", "0", "--v-max", "1",
                              "--v-step", "0.02", "--copies", "1,2,3"])
        thresholds = {2: threshold_visibility(2), 3: threshold_visibility(3)}
        for row in out.strip().splitlines()[1:]:
            fields = row.split(",")
            v, n, violated = float(fields[0]), int(fields[1]), fields[5] == "true"
            expected = n >= 2 and v > thresholds[n] + 1e-9
            assert violated == expected, row


class TestVerifyAppendix:
    def test_default_checks_pass(self):
        report = run_json(["verify-appendix", "--trials", "500", "--seed", "42"])
        assert all(report["verdicts"].values())
        assert report["results"]["extremal_z_prime_real"] == pytest.approx(2.0)
        assert report["results"]["quadrature_max_error"] < 1e-10
        assert report["results"]["ghz_offdiagonal_max"] < 1e-12

    def test_odd_grid_rejected(self):
        code, _, _ = run_main(["verify-appendix", "--grid", "63"])
        assert code == 2

    @pytest.mark.parametrize("grid, trials", [(64, 65537), (2**23, 1), (2, 10**12), (4098, 1)])
    def test_oversized_draw_exits_2_before_drawing(self, monkeypatch, grid, trials):
        from bellbench import cli, zukowski

        def refuse(*args, **kwargs):
            raise AssertionError("allocated before the size check")

        monkeypatch.setattr(random, "Random", refuse)
        monkeypatch.setattr(zukowski, "cell_weights", refuse)
        monkeypatch.setattr(zukowski, "sign_cos_step", refuse)
        assert grid > MAX_APPENDIX_GRID or grid * trials > MAX_APPENDIX_CELLS
        code, out, err = run_main(["verify-appendix", "--grid", str(grid),
                                   "--trials", str(trials)])
        assert code == 2
        assert out == ""
        assert "must not exceed" in err

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

    def test_malformed_json_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        code, _, err = run_main(["lhv", "--input", str(path)])
        assert code == 2
        assert "invalid JSON" in err

    def test_missing_file_exits_2(self):
        code, _, _ = run_main(["lhv", "--input", "/nonexistent/t.json"])
        assert code == 2

    def test_non_utf8_file_exits_2(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_bytes(b"\xff\xfe{}")
        code, out, err = run_main(["lhv", "--input", str(path)])
        assert code == 2
        assert out == ""
        assert "cannot read" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("text, message", [
        ("[" * 100_000, "invalid JSON"),
        # Python releases without the integer-string digit limit parse this
        # literal and reject it as a table instead.
        ('{"XX": 1' + "0" * 5000 + "}", "bellctl: error: invalid "),
        ('{"XX": 1' + "0" * 400 + ', "XY": 0, "YX": 0, "YY": 0}', "invalid correlation table"),
        ('\ufeff{"X": 0.5, "Y": 0}', "invalid JSON: Unexpected UTF-8 BOM"),
    ], ids=["deep-nesting", "int-over-digit-limit", "int-over-float-range", "byte-order-mark"])
    def test_unparseable_numbers_and_nesting_exit_2(self, text, message):
        code, out, err = run_main(["lhv"], stdin=text)
        assert code == 2
        assert out == ""
        assert message in err
        assert "Traceback" not in err

    # A valid table is accepted by whole-table checks; a rejected one is read
    # entry by entry, key before value, so the message names the first
    # offending entry in input order.
    @pytest.mark.parametrize("text, message", [
        ('{"XX": 0.5, "XZ": 0, "YX": 0, "YY": 0}', "bad setting key 'XZ'"),
        ('{"XX": 0.5, "XYY": 0, "YX": 0, "YY": 0}', "bad setting key 'XYY'"),
        ('{"XX": 0.5, "XY": "0.5", "YX": 0, "YY": 0}', "correlator 'XY' is not a number"),
        ('{"XX": 0.5, "XY": true, "YX": 0, "YY": 0}', "correlator 'XY' is not a number"),
        ('{"XX": 0.5, "XY": -1.5, "YX": 0, "YY": 0}', "correlator XY = -1.5 outside [-1, 1]"),
        ('{"XX": 0.5, "XY": 1e400, "YX": 0, "YY": 0}', "correlator XY = inf outside [-1, 1]"),
        ('{"XX": 2, "XZ": 1, "YX": 1, "YY": -1}', "correlator XX = 2.0 outside [-1, 1]"),
        ('{"XX": 0.5, "XY": -1.5, "YZ": 0, "YY": 0}', "correlator XY = -1.5 outside [-1, 1]"),
        ('{"YZ": 0, "XY": -1.5, "XX": 0.5, "YY": 0}', "bad setting key 'YZ'"),
        ('{"XX": 0.5, "XY": 1e400, "YX": "a", "YY": 0}', "correlator 'YX' is not a number"),
        ('{"XX": 0.5, "XY": 0.5, "YX": 1.0000000002, "YY": 7}',
         "correlator YX = 1.0000000002 outside [-1, 1]"),
        # 2**15000 has more digits than Python converts to a string by default.
        (json.dumps({"X" * 15000: 0.5}), "key length 15000 exceeds the 12-party cap"),
        # A valid table over the cap gets the same message.
        (json.dumps(dict.fromkeys(settings(13), 0.0)), "key length 13 exceeds the 12-party cap"),
        ('{"X": 0.1, "X": 0.9, "Y": 0}', "repeated key 'X'"),
    ], ids=["bad-key", "ragged-keys", "string", "true", "out-of-range", "1e400",
            "out-of-range-before-bad-key", "value-before-later-key", "key-before-later-value",
            "non-number-after-overflow", "first-of-two-out-of-range", "long-key",
            "valid-13-party", "repeated-key"])
    def test_malformed_table_message_names_first_offending_entry(self, text, message):
        assert run_main(["lhv"], stdin=text) == \
            (2, "", f"bellctl: error: invalid correlation table: {message}\n")

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
    # input reads it from a file, so the test holds no second copy.
    @pytest.mark.parametrize("size", [MAX_LHV_INPUT_CHARS, MAX_LHV_INPUT_CHARS + 1],
                             ids=["at-cap", "over-cap"])
    @pytest.mark.parametrize("source", ["stdin", "input"])
    def test_input_cap(self, tmp_path, source, size):
        table = '{"X": 0.3, "Y": -0.2}'
        path = tmp_path / "padded.json"
        path.write_text(" " * (size - len(table)) + table)
        argv = ["lhv"] if source == "stdin" else ["lhv", "--input", str(path)]
        with path.open(encoding="utf-8") as fh:
            code, out, err = run_main(argv, stdin=fh)
        if size == MAX_LHV_INPUT_CHARS:
            assert (code, out, err) == run_main(["lhv"], stdin=table)
        else:
            name = "standard input" if source == "stdin" else path
            assert (code, out, err) == (2, "", f"bellctl: error: {name} exceeds the "
                                               f"{MAX_LHV_INPUT_CHARS}-character input cap\n")

    def test_zero_party_table_exits_2(self):
        code, out, err = run_main(["lhv"], stdin='{"": 0.5}')
        assert code == 2
        assert out == ""
        assert "at least one party" in err
        assert "Traceback" not in err

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


@pytest.mark.parametrize("target", ["missing-dir/x.json", "."], ids=["missing-dir", "directory"])
def test_unwritable_output_exits_2(tmp_path, target):
    path = tmp_path / target
    code, out, err = run_main(["analyze", "--visibility", "1", "--copies", "2",
                               "--output", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith(f"bellctl: error: cannot write {path}: ")
    assert "Traceback" not in err


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
