import tracemalloc

import numpy as np
import pytest

from bellbench.lhv import (
    CorrelationTable,
    FeasibilityVerdict,
    certify,
    lhv_feasible,
    quadruple_values,
    sign_transform,
    witness_reconstruction_error,
)
from dense_oracle import full_correlation_table, noisy_pair
from helpers import V_GRID, ghz_type_table, mixture_table
from lp_oracle import (
    QUADRUPLE_SIGNS,
    chsh_quadruples,
    lp_feasible,
    settings,
    strategy_matrix,
    witness_table,
)


def pair_table(e_xx, e_xy, e_yx, e_yy):
    return CorrelationTable({"XX": e_xx, "XY": e_xy, "YX": e_yx, "YY": e_yy})


def near_facet_table(rng):
    """A two-party table with one CHSH quadruple within 1e-8 of its bound 2,
    at a scale drawn from 1e-8 down to 1e-13, on either side."""
    while True:
        e = dict(zip(("XX", "YY", "XY", "YX"), 2 * rng.random(4) - 1))
        signs = dict(zip(e, QUADRUPLE_SIGNS[rng.integers(4)]))
        key = str(rng.choice(list(e)))
        scale = 10.0 ** -rng.integers(8, 14)
        target = rng.choice([-1, 1]) * (2 + rng.uniform(-scale, scale))
        e[key] = (target - sum(signs[k] * e[k] for k in e if k != key)) / signs[key]
        if abs(e[key]) <= 1:
            return pair_table(e["XX"], e["XY"], e["YX"], e["YY"])


def assert_witness_rebuilds(table, witness):
    # bellbench's rebuild, and up to six parties lp_oracle's, which parses the
    # labels itself and compares key by key
    assert witness_reconstruction_error(table, witness) < 1e-8
    if table.n_parties <= 6:
        rebuilt = witness_table(witness, table.n_parties)
        assert max(abs(rebuilt[key] - e) for key, e in table.values.items()) < 1e-8


def assert_valid_witness(table):
    verdict = lhv_feasible(table)
    assert verdict.feasible
    weights = np.array(list(verdict.witness.values()))
    assert weights.min() >= 0
    assert abs(weights.sum() - 1) < 1e-9
    assert_witness_rebuilds(table, verdict.witness)
    return verdict


class TestCorrelationTable:
    def test_json_round_trip(self):
        table = CorrelationTable(full_correlation_table(noisy_pair(0.5), 2))
        again = CorrelationTable(table.values)
        assert again.n_parties == 2
        assert again.values == pytest.approx(table.values)

    def test_settings_sorted(self):
        table = CorrelationTable(full_correlation_table(noisy_pair(0.5), 2))
        assert table.settings() == ["XX", "XY", "YX", "YY"]

    def test_rejects_bad_tables(self):
        with pytest.raises(ValueError):
            CorrelationTable({"XX": 0.0})
        with pytest.raises(ValueError):
            CorrelationTable({"X": 1.5, "Y": 0.0})
        with pytest.raises(ValueError):
            CorrelationTable({"X": 0.0, "Z": 0.0})

    def test_rejects_zero_parties(self):
        with pytest.raises(ValueError, match="at least one party"):
            CorrelationTable({"": 0.5})


class TestQuadrupleValues:
    # bellbench reads the quadruples from the sign transform; lp_oracle sums
    # the explicit sign patterns.
    def test_noisy_pair_pattern(self):
        for v in V_GRID:
            table = pair_table(0.0, v, v, 0.0)
            values = quadruple_values(table)
            np.testing.assert_allclose(values, (2 * v, 0, 0, 2 * v), atol=1e-15)
            np.testing.assert_allclose(values, chsh_quadruples(table.values), atol=1e-15)

    def test_extreme_point_violates(self):
        table = pair_table(1.0, 1.0, 1.0, -1.0)
        assert quadruple_values(table) == chsh_quadruples(table.values) == [4, 0, 0, 0]
        assert not lhv_feasible(table).feasible

    def test_all_zero(self):
        table = pair_table(0.0, 0.0, 0.0, 0.0)
        assert quadruple_values(table) == chsh_quadruples(table.values) == [0, 0, 0, 0]
        assert lhv_feasible(table).feasible

    def test_rejects_out_of_range(self):
        # The table's own range check is the only one on the way in.
        with pytest.raises(ValueError, match="outside"):
            pair_table(1.5, 0.0, 0.0, 0.0)


class TestSignTransform:
    def test_two_party_hand_values(self):
        # E_hat(s) = E_xx + s2 E_xy + s1 E_yx + s1 s2 E_yy
        vec = np.array([0.3, -0.2, 0.5, 0.7])
        hat = sign_transform(vec)
        signs = {0: 1, 1: -1}
        for t in range(4):
            s1, s2 = signs[t >> 1], signs[t & 1]
            expected = vec[0] + s2 * vec[1] + s1 * vec[2] + s1 * s2 * vec[3]
            assert abs(hat[t] - expected) < 1e-14

    def test_matches_in_place_butterfly_bit_for_bit(self):
        rng = np.random.default_rng(52)
        for n in range(13):
            vec = rng.uniform(-1, 1, 2**n).tolist()
            expected = list(vec)
            h = 1
            while h < len(expected):
                for i in range(len(expected)):
                    if not i & h:
                        a, b = expected[i], expected[i + h]
                        expected[i], expected[i + h] = a + b, a - b
                h *= 2
            assert sign_transform(vec) == expected

    def test_involution(self):
        rng = np.random.default_rng(51)
        vec = rng.normal(size=8)
        np.testing.assert_allclose(sign_transform(sign_transform(vec)), 8 * vec,
                                   atol=1e-12)


class TestCompleteSet:
    def test_matches_quadruples_exactly_at_two_parties(self):
        # Uniform tables, and tables with one quadruple within 1e-8 of 2:
        # the transform's quadruples match the explicit patterns, and an
        # infeasible table names the one pattern that exceeds 2.
        rng = np.random.default_rng(99)
        tables = [pair_table(*(2 * rng.random(4) - 1)) for _ in range(300)]
        tables += [near_facet_table(rng) for _ in range(2000)]
        infeasible = 0
        for table in tables:
            expected = chsh_quadruples(table.values)
            np.testing.assert_allclose(quadruple_values(table), expected, rtol=0, atol=1e-15)
            verdict = lhv_feasible(table)
            assert verdict.feasible == (max(expected) <= 2 + 5e-10)
            if not verdict.feasible:
                infeasible += 1
                assert [i for i, q in enumerate(expected) if q > 2] == \
                    [verdict.witness["quadruple_index"]]
        assert 100 < infeasible < len(tables) - 100


class TestFeasibility:
    def test_quantum_pair_tables_feasible(self):
        for v in V_GRID:
            verdict = lhv_feasible(CorrelationTable(full_correlation_table(noisy_pair(v), 2)))
            assert verdict.feasible
            # The pair's transform is (2V, 0, 0, -2V).
            assert verdict.sign_sum == pytest.approx(4 * v, rel=1e-12, abs=1e-12)

    def test_extreme_point_infeasible_with_quadruple_witness(self):
        verdict = lhv_feasible(pair_table(1.0, 1.0, 1.0, -1.0))
        assert not verdict.feasible
        assert set(verdict.witness) == {"coefficients", "value", "bound", "quadruple_index"}
        assert verdict.witness["quadruple_index"] == 0
        assert verdict.witness["value"] > verdict.witness["bound"]

    def test_witness_reconstructs_table(self):
        for v in V_GRID:
            assert_valid_witness(CorrelationTable(full_correlation_table(noisy_pair(v), 2)))

    @staticmethod
    def assert_certificate_agrees(table):
        # The certificate is checked without the sign transform: a witness
        # rebuilt from its labels, or an inequality evaluated entrywise that
        # no column of lp_oracle's 4^n-strategy matrix exceeds.
        verdict = lhv_feasible(table)
        if verdict.feasible:
            assert_witness_rebuilds(table, verdict.witness)
        else:
            w, n = verdict.witness, table.n_parties
            assert sum(w["coefficients"][k] * table.values[k] for k in table.values) > w["bound"]
            coefficients = [w["coefficients"][k] for k in settings(n)]
            assert np.abs(coefficients @ strategy_matrix(n)).max() <= w["bound"] + 1e-9

    # Certificates that do not hold: a witness with one weight moved by 1e-6,
    # and an inequality whose value 4 exceeds its bound 2 while the strategy
    # with every correlator -1 reaches 8 on it (its largest signed value is 0).
    @pytest.mark.parametrize("table, verdict", [
        pytest.param(pair_table(0.5, 0.25, 0.25, -0.5), FeasibilityVerdict(True, {
            "++,++": 0.250001, "++,+-": 0.25, "+-,++": 0.25, "-+,+-": 0.125, "--,++": 0.125},
            3.0), id="witness-weight-moved"),
        pytest.param(pair_table(-0.5, -0.5, -0.5, -0.5), FeasibilityVerdict(False, {
            "coefficients": dict.fromkeys(["XX", "XY", "YX", "YY"], -2.0), "value": 4.0,
            "bound": 2.0, "quadruple_index": None}, 2.0), id="inequality-beaten-locally"),
    ])
    def test_certify_rejects_a_certificate_that_does_not_hold(self, table, verdict):
        assert certify(table, verdict)[1] is False

    def test_oracle_agreement_two_parties(self):
        rng = np.random.default_rng(2024)
        for _ in range(500):
            e = 2 * rng.random(4) - 1
            self.assert_certificate_agrees(pair_table(*e))

    def test_oracle_agreement_three_parties(self):
        rng = np.random.default_rng(2025)
        for _ in range(100):
            vals = 2 * rng.random(8) - 1
            self.assert_certificate_agrees(CorrelationTable(dict(zip(settings(3), vals))))

    def test_mixtures_of_feasible_tables_are_feasible(self):
        rng = np.random.default_rng(77)
        matrix = strategy_matrix(2)
        keys = ["XX", "XY", "YX", "YY"]
        for _ in range(20):
            w1 = rng.random(16)
            w2 = rng.random(16)
            w1, w2 = w1 / w1.sum(), w2 / w2.sum()
            lam = rng.random()
            mixed = matrix @ (lam * w1 + (1 - lam) * w2)
            table = CorrelationTable(dict(zip(keys, mixed)))
            assert lhv_feasible(table).feasible

    def test_party_cap(self):
        with pytest.raises(ValueError, match="key length 13 exceeds the 12-party cap"):
            CorrelationTable(dict.fromkeys(settings(13), 0.0))


class TestClosedFormWitness:
    @pytest.mark.parametrize("n", range(2, 13))
    def test_mixtures_rebuild_from_labels(self, n):
        rng = np.random.default_rng(1000 + n)
        for _ in range(3 if n < 10 else 1):
            assert_valid_witness(mixture_table(rng, n))

    @pytest.mark.parametrize("n", range(2, 13))
    def test_scaled_ghz_tables_inside_the_polytope(self, n):
        rng = np.random.default_rng(2000 + n)
        unit = ghz_type_table(rng, n, 1.0)
        inside = 0.99 * 2**n / lhv_feasible(unit).sign_sum
        table = CorrelationTable({k: inside * v for k, v in unit.values.items()})
        verdict = assert_valid_witness(table)
        assert verdict.sign_sum == pytest.approx(0.99 * 2**n, rel=1e-12)
        tracemalloc.start()
        try:
            witness_reconstruction_error(table, verdict.witness)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The rebuild holds S x 2^ceil(n/2) products for S strategies: at
        # n = 12, all 4097 of them, it peaks at 8.7 MiB. Building all S x 2^n
        # products, in blocks of 256 strategies, peaks at 15.7 MiB.
        assert peak < 12 * 2**20

    def test_leftover_mass_splits_between_plus_and_minus_h0(self):
        verdict = lhv_feasible(pair_table(0.0, 0.0, 0.0, 0.0))
        assert verdict.witness == {"++,++": 0.5, "--,++": 0.5}

    def test_labels_are_canonical(self):
        # Parties after the first always play + at X.
        rng = np.random.default_rng(5)
        for n in (2, 3, 4):
            for label in lhv_feasible(mixture_table(rng, n)).witness:
                assert all(p[0] == "+" for p in label.split(",")[1:])

    def test_malformed_label_rejected(self):
        table = pair_table(0.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            witness_reconstruction_error(table, {"++": 1.0})

    def test_error_counts_normalisation(self):
        table = pair_table(0.0, 0.0, 0.0, 0.0)
        assert witness_reconstruction_error(table, {"++,++": 0.3, "--,++": 0.3}) == \
            pytest.approx(0.4)

    @pytest.mark.parametrize("n", (4, 5, 6))
    def test_lp_oracle_agrees_on_benchmark_style_tables(self, n):
        rng = np.random.default_rng(3000 + n)
        tables = [mixture_table(rng, n) for _ in range(10)]
        for _ in range(10):
            unit = ghz_type_table(rng, n, 1.0)
            # Scales on both sides of the bound, never within 1% of it.
            ratio = rng.choice([-1, 1]) * rng.uniform(0.01, 0.2)
            scale = min(1.0, (1 + ratio) * 2**n / lhv_feasible(unit).sign_sum)
            tables.append(CorrelationTable({k: scale * v for k, v in unit.values.items()}))
        verdicts = [lhv_feasible(t).feasible for t in tables]
        assert verdicts == [lp_feasible(t.values) for t in tables]
        assert any(verdicts) and not all(verdicts)
