import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rearsim.engine import CampaignConfig, CampaignGrid, OutcomeMatrix, run_campaign

from fixtures import all_live
from rearsim.errors import ValidationError
from rearsim.outcome import (
    build_histogram,
    load_histogram,
    mix_no_response,
    prevalence_weights,
    save_histogram,
    weighted_crash_samples,
)
from rearsim.scenario import delta_v


def momentum_oracle(v1, v2, m1, m2):
    """Independent check: solve the momentum balance for the common
    post-impact speed, then take the follower's speed change. Extended
    precision keeps the oracle's own cancellation error below the
    comparison tolerance."""
    v1, v2 = np.asarray(v1, np.longdouble), np.asarray(v2, np.longdouble)
    m1, m2 = np.asarray(m1, np.longdouble), np.asarray(m2, np.longdouble)
    v_f = (m1 * v1 + m2 * v2) / (m1 + m2)
    return np.asarray((v1 - v_f) * np.longdouble("3.6"), dtype=float)


def matrix_with_q(seed_id: str, q: float) -> OutcomeMatrix:
    """Minimal 1x2 matrix whose crash mass is exactly q."""
    crashed = np.array([[True, False]])
    v1 = np.array([[10.0, np.nan]])
    v2 = np.array([[5.0, np.nan]])
    grid = CampaignGrid([0.1], [1.0], [3.0, 6.0], [q, 1.0 - q])
    return all_live(seed_id, grid, crashed, v1, v2, np.array([[False, False]]))


class TestDeltaV:
    def test_equal_masses_halve_the_closing_speed(self):
        dv = delta_v(10.0 / 3.6, 0.0, 1500.0, 1500.0)
        assert dv == pytest.approx(5.0, abs=1e-12)

    def test_massless_lead_limit(self):
        assert delta_v(20.0, 5.0, 1500.0, 1e-9) == pytest.approx(0.0, abs=1e-9)

    def test_worked_example(self):
        assert delta_v(20.0, 5.0, 1000.0, 2000.0) == pytest.approx(36.0, abs=1e-12)

    def test_momentum_oracle_random_tuples(self):
        rng = np.random.default_rng(17)
        n = 10_000
        v2 = rng.uniform(0.0, 30.0, n)
        v1 = v2 + rng.uniform(0.0, 30.0, n)
        m1 = rng.uniform(500.0, 40_000.0, n)
        m2 = rng.uniform(500.0, 40_000.0, n)
        expected = momentum_oracle(v1, v2, m1, m2)
        got = m2 * (v1 - v2) / (m1 + m2) * 3.6
        for i in range(0, n, 997):  # spot a sample through the public API
            assert delta_v(v1[i], v2[i], m1[i], m2[i]) == pytest.approx(
                expected[i], rel=1e-12)
        assert np.max(np.abs(got - expected) / np.maximum(expected, 1e-12)) < 1e-12

    @given(scale=st.floats(0.01, 1000.0))
    def test_invariant_under_common_mass_scaling(self, scale):
        base = delta_v(22.0, 7.0, 1200.0, 1800.0)
        scaled = delta_v(22.0, 7.0, 1200.0 * scale, 1800.0 * scale)
        assert scaled == pytest.approx(base, rel=1e-12)


class TestPrevalenceWeights:
    def test_single_seed_normalizes_to_one(self):
        weights, excluded = prevalence_weights([matrix_with_q("a", 0.37)])
        assert excluded == []
        w = weights[0]
        assert w.q_norm == pytest.approx(1.0)
        assert w.w * w.q_norm == pytest.approx(1.0)

    def test_two_seed_hand_computation(self):
        weights, _ = prevalence_weights(
            [matrix_with_q("a", 0.2), matrix_with_q("b", 0.8)])
        by_id = {w.seed_id: w for w in weights}
        # untrimmed weights are proportional to {5, 1.25}; with only two
        # seeds the nearest-rank 5th/95th percentiles are the extremes, so
        # trimming does not bind and contributions are equal
        assert by_id["a"].w_untrimmed == pytest.approx(5.0)
        assert by_id["b"].w_untrimmed == pytest.approx(1.25)
        contrib_a = by_id["a"].w * by_id["a"].q_norm
        contrib_b = by_id["b"].w * by_id["b"].q_norm
        assert contrib_a == pytest.approx(contrib_b)

    def test_crash_free_matrices_are_refused(self):
        """crash_avoidance_rate takes a baseline with crash mass unchecked,
        because assess-dms weights the baseline first."""
        m = matrix_with_q("dead", 0.5)
        m.crashed[:] = False
        with pytest.raises(ValidationError, match="no seed produced any crash cell"):
            prevalence_weights([m])

    def test_weights_without_a_finite_sum_are_refused(self):
        """A crash mass of 5e-324 has an infinite inverse, and with two
        seeds trimming keeps it: build_histogram, which takes finite weights
        unchecked, never sees the samples."""
        matrices = [matrix_with_q("a", 5e-324), matrix_with_q("b", 0.7)]
        with np.errstate(over="ignore"):
            weights, _ = prevalence_weights(matrices)
        assert weights[0].w == math.inf
        with pytest.raises(ValidationError, match="weights sum to inf, not a finite"):
            weighted_crash_samples(matrices, {"a": (1e3, 2e3), "b": (1e3, 1e3)},
                                   weights)

    def test_zero_crash_seed_excluded_and_reported(self):
        m = matrix_with_q("dead", 0.5)
        m.crashed[:] = False
        weights, excluded = prevalence_weights([m, matrix_with_q("live", 0.5)])
        assert excluded == ["dead"]
        assert [w.seed_id for w in weights] == ["live"]

    def test_stress_span_is_clamped(self):
        # log-spaced crash masses spanning more than 10^3
        qs = np.geomspace(1e-4, 0.3, 40)
        matrices = [matrix_with_q(f"s{i:02d}", float(q))
                    for i, q in enumerate(qs)]
        weights, _ = prevalence_weights(matrices)
        unt = np.array([w.w_untrimmed for w in weights])
        trm = np.array([w.w for w in weights])
        assert unt.max() / unt.min() >= 1e3
        w_sorted = np.sort(unt)
        p5 = w_sorted[max(1, int(np.ceil(0.05 * len(unt)))) - 1]
        p95 = w_sorted[max(1, int(np.ceil(0.95 * len(unt)))) - 1]
        assert trm.min() == pytest.approx(p5)
        assert trm.max() == pytest.approx(p95)
        # contributions stay within the trim-bound ratio of each other
        contrib = trm * np.array([w.q_norm for w in weights])
        assert contrib.max() / contrib.min() <= p95 / p5 + 1e-9

    def test_weighted_samples_total_mass_one(self):
        matrices = [matrix_with_q("a", 0.2), matrix_with_q("b", 0.7)]
        weights, _ = prevalence_weights(matrices)
        masses = {"a": (1000.0, 2000.0), "b": (1500.0, 1500.0)}
        samples = weighted_crash_samples(matrices, masses, weights)
        assert samples.weight.sum() == pytest.approx(1.0, abs=1e-12)
        assert len(samples) == sum(samples.counts) == len(samples.weight)
        assert samples.delta_v[0] == pytest.approx(delta_v(10.0, 5.0, 1000.0, 2000.0))

    def test_weighted_samples_equal_the_cell_loop_bitwise(
            self, small_seeds, glances, decels):
        """Reference: one cell at a time, weights totalled by sequential
        addition in cell order."""
        result = run_campaign(list(small_seeds), CampaignConfig(),
                              glance=glances, decels=decels)
        matrices = result.matrices
        weights, _ = prevalence_weights(matrices)
        masses = {s.id: (s.follower_meta.mass, s.lead_meta.mass)
                  for s in small_seeds}
        w_by_seed = {w.seed_id: w.w for w in weights}
        rows = []
        for m in matrices:
            if m.seed_id in w_by_seed:
                m1, m2 = masses[m.seed_id]
                v1, v2 = m.cells("v1"), m.cells("v2")
                for i, j in zip(*np.nonzero(m.cells("crashed"))):
                    rows.append((m.seed_id,
                                 delta_v(float(v1[i, j]), float(v2[i, j]), m1, m2),
                                 w_by_seed[m.seed_id] * float(m.grid.p_cell[i, j])))
        total = 0.0
        for _, _, w in rows:
            total += w

        samples = weighted_crash_samples(matrices, masses, weights)
        assert [sid for sid, n in zip(samples.seed_ids, samples.counts)
                for _ in range(n)] == [sid for sid, _, _ in rows]
        assert samples.delta_v.tolist() == [dv for _, dv, _ in rows]
        assert samples.weight.tolist() == [w / total for _, _, w in rows]


class TestBuildHistogram:
    def test_single_sample(self):
        h = build_histogram([7.3], [1.0])
        assert h.mean == pytest.approx(7.3)
        assert h.weights.sum() == pytest.approx(1.0)
        assert len(h.weights) == 4  # bins up to the 6-8 bin

    def test_two_equal_weight_samples(self):
        h = build_histogram([10.0, 20.0], [0.5, 0.5])
        assert h.mean == pytest.approx(15.0)

    def test_order_invariance(self):
        rng = np.random.default_rng(3)
        dvs, ws = rng.uniform(0, 40, 50), rng.random(50)
        h1 = build_histogram(dvs, ws)
        h2 = build_histogram(dvs[::-1], ws[::-1])
        assert np.array_equal(h1.weights, h2.weights)
        assert h1.mean == pytest.approx(h2.mean, rel=1e-12)

    def test_round_trip(self, tmp_path):
        h = build_histogram([3.0, 11.0], [0.25, 0.75])
        path = tmp_path / "h.csv"
        save_histogram(h, path)
        back = load_histogram(path, mean=h.mean, count=h.count)
        assert np.array_equal(back.weights, h.weights)
        assert back.bin_width == h.bin_width
        assert back.mean == h.mean


class TestMixNoResponse:
    def base(self):
        return build_histogram([5.0, 15.0], [0.5, 0.5])

    def test_fraction_zero_is_identity(self):
        base = self.base()
        mixed = mix_no_response(base, [40.0], 0.0)
        assert np.array_equal(mixed.weights, base.weights)
        assert mixed.mean == base.mean

    def test_fraction_one_is_pure_no_response(self):
        mixed = mix_no_response(self.base(), [40.0, 42.0], 1.0)
        assert mixed.mean == pytest.approx(41.0)
        assert mixed.weights[:3].sum() == pytest.approx(0.0)

    def test_mass_above_base_max(self):
        base = self.base()
        nr = [30.0, 50.0]  # both above the base support
        mixed = mix_no_response(base, nr, 0.1)
        above = mixed.weights[8:].sum()  # bins past 16 km/h
        assert above == pytest.approx(0.1, abs=1e-12)
        assert mixed.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_mixture_is_linear(self):
        base = self.base()
        nr = [25.0, 35.0]
        m1 = mix_no_response(base, nr, 0.1)
        m2 = mix_no_response(base, nr, 0.2)
        lhs = m2.weights - m1.weights
        nr_hist = build_histogram(nr, np.ones(len(nr)), base.bin_width)
        pad = np.pad(nr_hist.weights, (0, len(lhs) - len(nr_hist.weights)))
        base_pad = np.pad(base.weights, (0, len(lhs) - len(base.weights)))
        assert np.allclose(lhs, 0.1 * (pad - base_pad), atol=1e-12)
