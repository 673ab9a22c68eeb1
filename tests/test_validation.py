import warnings

import numpy as np
import pytest
from scipy import stats

from rearsim.errors import ParseError, ValidationError
from rearsim.outcome import DeltaVDistribution, build_histogram
from rearsim.validation import (
    ABOVE_MAX,
    BELOW_MIN,
    InjuryRiskCurve,
    chi2_sf,
    compare,
    crash_avoidance_rate,
    injury_risk,
    load_injury_curve,
    percentile_histogram,
    seed_percentile,
)

from test_outcome import matrix_with_q


def dist(weights, count=100):
    w = np.asarray(weights, dtype=float)
    d = DeltaVDistribution(2.0, w / w.sum(), 0.0, count)
    d.mean = d.binned_mean()
    return d


class TestCompare:
    def test_identical_distributions_are_all_zero(self):
        p = dist([0.2, 0.5, 0.3])
        stats = compare(p, p)
        assert all(v == 0.0 for v in vars(stats).values())

    def test_disjoint_supports_have_tv_one(self):
        p = dist([1.0, 0.0])
        q = dist([0.0, 1.0])
        assert compare(p, q).tv_distance == pytest.approx(1.0)

    def test_two_bin_hand_computation(self):
        p = dist([0.5, 0.5])
        q = dist([1.0, 0.0])
        stats = compare(p, q)
        assert stats.tv_distance == pytest.approx(0.5)
        assert stats.ks_distance == pytest.approx(0.5)
        assert stats.max_abs_diff == pytest.approx(0.5)
        assert stats.mean_abs_diff == pytest.approx(0.5)

    def test_bounds_on_random_pairs(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            n = int(rng.integers(2, 25))
            p = dist(rng.random(n) + 1e-12)
            q = dist(rng.random(n) + 1e-12)
            stats = compare(p, q)
            assert 0.0 <= stats.tv_distance <= 1.0
            assert 0.0 <= stats.ks_distance <= 1.0
            assert stats.kl_divergence >= 0.0

    def test_kl_zero_iff_equal(self):
        p = dist([0.25, 0.75], count=50)
        q = dist([0.25, 0.75], count=50)
        assert compare(p, q).kl_divergence == 0.0
        r = dist([0.3, 0.7], count=50)
        assert compare(p, r).kl_divergence > 0.0

    def test_kl_finite_with_empty_bins(self):
        p = dist([0.5, 0.5, 0.0])
        q = dist([0.0, 0.5, 0.5])
        kl = compare(p, q).kl_divergence
        assert np.isfinite(kl) and kl > 0

    def test_mismatched_bin_width_rejected(self):
        p = dist([1.0])
        q = DeltaVDistribution(1.0, np.array([1.0]), 0.5, 10)
        with pytest.raises(ValidationError):
            compare(p, q)


class TestSeedPercentile:
    def test_weighted_median_is_fifty(self):
        dvs = [5.0, 10.0, 15.0]
        weights = [0.25, 0.5, 0.25]
        assert seed_percentile(10.0, dvs, weights) == pytest.approx(50.0)

    def test_below_support_marker(self):
        # seed at 23 km/h against generated crashes spanning 27.5-33
        dvs = np.linspace(27.5, 33.0, 12)
        assert seed_percentile(23.0, dvs, np.ones(12)) == BELOW_MIN

    def test_above_support_marker(self):
        assert seed_percentile(40.0, [10.0, 20.0], [1.0, 1.0]) == ABOVE_MAX

    def test_all_mass_at_seed_value_is_fifty(self):
        assert seed_percentile(12.0, [12.0, 12.0], [0.4, 0.6]) == pytest.approx(50.0)

    def test_invariant_under_weight_rescaling(self):
        rng = np.random.default_rng(3)
        dvs = rng.uniform(0, 40, 30)
        w = rng.random(30)
        a = seed_percentile(18.0, dvs, w)
        b = seed_percentile(18.0, dvs, w * 137.0)
        assert a == pytest.approx(b)


class TestPercentileHistogram:
    def test_uniform_self_draws_pass(self):
        rng = np.random.default_rng(7)
        values = rng.uniform(0, 100, 800)
        rep = percentile_histogram(values, n_bins=10)
        assert rep.n_in_range == 800
        assert rep.p_value > 0.01

    def test_all_below_min(self):
        rep = percentile_histogram([BELOW_MIN] * 5, n_bins=10)
        assert rep.below_min == 5
        assert rep.n_in_range == 0
        assert np.isnan(rep.chi2)

    def test_bin_count_consistency(self):
        rng = np.random.default_rng(11)
        values = list(rng.uniform(0, 100, 400)) + [BELOW_MIN] * 7 + [ABOVE_MAX] * 3
        rep10 = percentile_histogram(values, n_bins=10)
        rep20 = percentile_histogram(values, n_bins=20)
        assert rep10.below_min == rep20.below_min == 7
        assert rep10.above_max == rep20.above_max == 3
        coarse = rep20.counts.reshape(10, 2).sum(axis=1)
        corr = np.corrcoef(coarse, rep10.counts)[0, 1]
        assert corr > 0.9

    def test_percentile_100_lands_in_last_bin(self):
        rep = percentile_histogram([100.0], n_bins=10)
        assert rep.counts[-1] == 1

    def test_biased_draws_fail_uniformity(self):
        rng = np.random.default_rng(13)
        rep = percentile_histogram(rng.uniform(75, 100, 500), n_bins=10)
        assert rep.p_value < 0.01


class TestChi2Sf:
    @pytest.mark.parametrize("df", list(range(1, 61)) + [99, 199])
    def test_matches_scipy(self, df):
        xs = np.linspace(0.0, 5.0 * df + 200.0, 401)
        got = [chi2_sf(float(x), df) for x in xs]
        assert got == pytest.approx(list(stats.chi2.sf(xs, df)), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("df", [1, 2, 9, 60])
    def test_nonpositive_x_is_exactly_one(self, df):
        assert chi2_sf(0.0, df) == 1.0
        assert chi2_sf(-3.0, df) == 1.0

    @pytest.mark.parametrize("df", [1, 2, 9, 199])
    def test_deep_tail_is_zero_without_warning(self, df):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert chi2_sf(1e4, df) == 0.0


# name: (file text, the line named in the error and its start)
MALFORMED_CURVES = {
    "header_only": ("delta_v_kmh,risk\n", "1: no curve points"),
    "empty": ("", "1: expected header"),
    "non_numeric": ("delta_v_kmh,risk\n0.0,0.0\n20.0,high\n", "3: risk"),
    "short_row": ("delta_v_kmh,risk\n0.0,0.0\n20.0\n", "3: expected 2 fields"),
    "long_row": ("delta_v_kmh,risk\n0.0,0.0,1\n20.0,0.5\n", "2: expected 2 fields"),
    "nan": ("delta_v_kmh,risk\n0.0,0.0\nnan,0.5\n", "3: non-finite"),
    "infinite_risk": ("delta_v_kmh,risk\n0.0,0.0\n\n20.0,inf\n", "4: non-finite"),
}


class TestInjuryCurveParseErrors:
    @pytest.mark.parametrize("name", sorted(MALFORMED_CURVES))
    def test_malformed_csv_raises_parse_error(self, name, tmp_path):
        text, where = MALFORMED_CURVES[name]
        path = tmp_path / "curve.csv"
        path.write_text(text)
        with pytest.raises(ParseError, match=rf"curve\.csv:{where}"):
            load_injury_curve(path)

    @pytest.mark.parametrize("body", ['{"intercept": -4.0}',
                                      '{"intercept": "x", "slope": 0.2}'])
    def test_malformed_json_raises_parse_error(self, body, tmp_path):
        path = tmp_path / "curve.json"
        path.write_text(body)
        with pytest.raises(ParseError):
            load_injury_curve(path)


class TestInjuryRisk:
    def test_constant_curve_returns_constant(self):
        h = dist([0.3, 0.3, 0.4])
        curve = InjuryRiskCurve("mais1+", dv=np.array([0.0, 100.0]),
                                risk=np.array([0.37, 0.37]))
        assert injury_risk(h, curve) == pytest.approx(0.37, abs=1e-12)

    def test_point_mass_returns_curve_value(self):
        h = build_histogram([11.0], [1.0], 2.0)
        curve = InjuryRiskCurve("mais2+", logistic=(-5.0, 0.3))
        assert injury_risk(h, curve) == pytest.approx(curve(11.0), abs=1e-12)

    def test_piecewise_linear_two_bin_hand_computation(self):
        h = dist([0.25, 0.75])  # centers 1 and 3
        curve = InjuryRiskCurve("mais1+", dv=np.array([0.0, 4.0]),
                                risk=np.array([0.0, 0.4]))
        expected = 0.25 * 0.1 + 0.75 * 0.3
        assert injury_risk(h, curve) == pytest.approx(expected, abs=1e-12)

    def test_monotone_under_dominance(self):
        low = dist([0.6, 0.4, 0.0])
        high = dist([0.0, 0.4, 0.6])
        curve = InjuryRiskCurve("mais3+", logistic=(-6.0, 0.5))
        assert injury_risk(high, curve) >= injury_risk(low, curve)

    def test_decreasing_table_rejected(self):
        with pytest.raises(ValidationError):
            InjuryRiskCurve("bad", dv=np.array([0.0, 10.0]),
                            risk=np.array([0.5, 0.1]))

    def test_curve_file_round_trip(self, tmp_path):
        path = tmp_path / "mais1.csv"
        path.write_text("delta_v_kmh,risk\n0.0,0.0\n20.0,0.5\n60.0,0.9\n")
        curve = load_injury_curve(path, level="mais1+")
        assert curve(20.0) == pytest.approx(0.5)
        assert curve(40.0) == pytest.approx(0.7)
        jpath = tmp_path / "mais2.json"
        jpath.write_text('{"level": "mais2+", "intercept": -5.0, "slope": 0.25}\n')
        curve2 = load_injury_curve(jpath)
        assert curve2.level == "mais2+"
        assert curve2(20.0) == pytest.approx(0.5)


class TestCrashAvoidance:
    def test_ratio_definition(self):
        base = [matrix_with_q("a", 0.4)]
        treat = [matrix_with_q("a", 0.2)]
        rate, per_seed = crash_avoidance_rate(base, treat)
        assert rate == pytest.approx(0.5)
        assert per_seed["a"] == pytest.approx(0.5)

    def test_fully_avoided_seed_scores_one(self):
        base = [matrix_with_q("a", 0.4)]
        t = matrix_with_q("a", 0.4)
        t.crashed[:] = False
        rate, _ = crash_avoidance_rate(base, [t])
        assert rate == pytest.approx(1.0)

    def test_identity_treatment_scores_zero(self):
        base = [matrix_with_q("a", 0.4), matrix_with_q("b", 0.1)]
        rate, _ = crash_avoidance_rate(base, base)
        assert rate == pytest.approx(0.0)

