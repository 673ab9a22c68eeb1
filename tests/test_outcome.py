import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rearsim.engine import (
    CampaignConfig,
    CampaignGrid,
    CampaignResult,
    SeedResult,
    run_campaign,
)

from fixtures import DenseMatrix, dense_crash_samples, excluded_result, swept_result
from rearsim import outcome
from rearsim.errors import ValidationError
from rearsim.outcome import (
    build_histogram,
    load_histogram,
    mix_no_response,
    prevalence_weights,
    save_histogram,
    weigh,
)
from rearsim.scenario import delta_v
from rearsim.validation import seed_percentiles


def momentum_oracle(v1, v2, m1, m2):
    """Independent check: solve the momentum balance for the common
    post-impact speed, then take the follower's speed change. Extended
    precision keeps the oracle's own cancellation error below the
    comparison tolerance."""
    v1, v2 = np.asarray(v1, np.longdouble), np.asarray(v2, np.longdouble)
    m1, m2 = np.asarray(m1, np.longdouble), np.asarray(m2, np.longdouble)
    v_f = (m1 * v1 + m2 * v2) / (m1 + m2)
    return np.asarray((v1 - v_f) * np.longdouble("3.6"), dtype=float)


def seeds_with_q(qs: dict[str, float]) -> tuple[CampaignGrid, list[SeedResult]]:
    """Seeds on one 1 x len(qs) grid whose crash masses are exactly the
    `qs` given by seed id: seed k crashes in deceleration bin k alone, whose
    probability is its q."""
    n = len(qs)
    grid = CampaignGrid([0.1], [1.0], 3.0 * np.arange(1, n + 1), list(qs.values()))
    seeds = []
    for k, sid in enumerate(qs):
        v1, v2 = np.full((2, 1, n), np.nan)
        v1[0, k], v2[0, k] = 10.0, 5.0
        seeds.append(swept_result(sid, grid, v1, v2))
    return grid, seeds


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
        grid, seeds = seeds_with_q({"a": 0.37})
        weights, excluded = prevalence_weights(seeds, grid)
        assert excluded == []
        w = weights[0]
        assert w.q_norm == pytest.approx(1.0)
        assert w.w * w.q_norm == pytest.approx(1.0)

    def test_two_seed_hand_computation(self):
        grid, seeds = seeds_with_q({"a": 0.2, "b": 0.8})
        weights, _ = prevalence_weights(seeds, grid)
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
        grid, (dead,) = seeds_with_q({"dead": 0.5})
        dead.v1[:] = dead.v2[:] = np.nan
        with pytest.raises(ValidationError, match="no seed produced any crash cell"):
            prevalence_weights([dead], grid)

    def test_weights_without_a_finite_sum_are_refused(self):
        """A crash mass of 5e-324 has an infinite inverse, and with two
        seeds trimming keeps it: build_histogram, which takes finite weights
        unchecked, never sees the samples. The crash samples refuse it after
        every seed's delta-vs, so that, as in one pass over the campaign, a
        delta-v that is not finite is named first."""
        grid, (a, b) = seeds_with_q({"a": 5e-324, "b": 0.7})
        with np.errstate(over="ignore"):
            weights, _ = prevalence_weights([a, b], grid)
        assert weights[0].w == math.inf
        seeds = [replace(a, follower_mass=1e3, lead_mass=2e3, seed_delta_v_kmh=20.0),
                 replace(b, follower_mass=1e3, lead_mass=1e3, seed_delta_v_kmh=20.0)]
        with np.errstate(over="ignore"):
            weighting = weigh(CampaignResult("cbm", grid, seeds, 0.0))
            assert weighting.weights == weights
            with pytest.raises(ValidationError, match="weights sum to inf, not a finite"):
                list(weighting.crash_samples())
            with pytest.raises(ValidationError, match="weights sum to inf, not a finite"):
                seed_percentiles(weighting)
            b.v1[0, 1] = 1e308  # in the second seed
            with pytest.raises(ValidationError, match="seed b: a crash's delta-v is not"):
                seed_percentiles(weighting)

    def test_zero_crash_seed_excluded_and_reported(self):
        grid, (dead, live) = seeds_with_q({"dead": 0.5, "live": 0.5})
        dead.v1[:] = dead.v2[:] = np.nan
        weights, excluded = prevalence_weights([dead, live], grid)
        assert excluded == ["dead"]
        assert [w.seed_id for w in weights] == ["live"]

    def test_stress_span_is_clamped(self):
        # log-spaced crash masses spanning more than 10^3
        qs = np.geomspace(1e-4, 0.3, 40)
        grid, seeds = seeds_with_q({f"s{i:02d}": float(q) for i, q in enumerate(qs)})
        weights, _ = prevalence_weights(seeds, grid)
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
        grid, (a, b) = seeds_with_q({"a": 0.2, "b": 0.7})
        seeds = [replace(a, follower_mass=1000.0, lead_mass=2000.0), b]
        samples = list(weigh(CampaignResult("cbm", grid, seeds, 0.0)).crash_samples())
        assert [r for r, *_ in samples] == seeds
        assert sum(w.sum() for *_, w in samples) == pytest.approx(1.0, abs=1e-12)
        assert ([len(dv) for _, dv, _ in samples] == [len(w) for *_, w in samples]
                == [r.n_crash_cells(grid) for r in seeds])
        assert samples[0][1][0] == pytest.approx(delta_v(10.0, 5.0, 1000.0, 2000.0))

    def test_weighted_samples_equal_the_cell_loop_bitwise(
            self, small_seeds, glances, decels):
        """Reference: one cell at a time, weights totalled by sequential
        addition in cell order."""
        result = run_campaign(list(small_seeds), CampaignConfig(),
                              glance=glances, decels=decels)
        grid = result.grid
        weights, _ = prevalence_weights(result.swept, grid)
        masses = {s.id: (s.follower_meta.mass, s.lead_meta.mass)
                  for s in small_seeds}
        w_by_seed = {w.seed_id: w.w for w in weights}
        rows = []
        for r in result.swept:
            if r.seed_id in w_by_seed:
                m1, m2 = masses[r.seed_id]
                v1, v2 = r.cells(grid, "v1"), r.cells(grid, "v2")
                for i, j in zip(*np.nonzero(~np.isnan(v1))):
                    rows.append((r.seed_id,
                                 delta_v(float(v1[i, j]), float(v2[i, j]), m1, m2),
                                 w_by_seed[r.seed_id] * float(grid.p_cell[i, j])))
        total = 0.0
        for _, _, w in rows:
            total += w

        samples = list(weigh(result).crash_samples())
        assert [r.seed_id for r, dv, _ in samples
                for _ in dv] == [sid for sid, _, _ in rows]
        assert [x for _, dv, _ in samples
                for x in dv.tolist()] == [dv for _, dv, _ in rows]
        assert [x for *_, w in samples
                for x in w.tolist()] == [w / total for _, _, w in rows]


def mixed_campaign(fraction: float, seed_dvs=(None,) * 4) -> CampaignResult:
    """Seeds a (weighted), b (swept, without crashes), c (excluded) and d
    (weighted), with the recorded delta-vs given; only b's no-response run
    crashes."""
    grid, seeds = seeds_with_q({"a": 0.2, "b": 0.5, "c": 0.5, "d": 0.7})
    seeds[1].v1[:] = seeds[1].v2[:] = np.nan
    seeds[1].no_response = (17.5, 5.0)
    masses = ((1000.0, 2000.0), (1500.0, 1200.0), (1000.0, 1000.0), (1500.0, 1500.0))
    seeds = [replace(r, follower_mass=m1, lead_mass=m2, seed_delta_v_kmh=dv)
             for r, (m1, m2), dv in zip(seeds, masses, seed_dvs)]
    seeds[2] = excluded_result(seeds[2])
    return CampaignResult("cbm", grid, seeds, fraction)


class TestWeigh:
    def test_pairs_each_weighted_seed_with_its_weight(self):
        """The weighted seeds are the swept seeds with crashes, in seed
        order; every eligible seed's no-response crash is mixed in."""
        weighting = weigh(mixed_campaign(0.1))
        assert [r.seed_id for r in weighting.seeds] == ["a", "d"]
        assert [w.seed_id for w in weighting.weights] == ["a", "d"]
        assert weighting.zero_crash_seeds == ["b"]
        assert [dv.tolist() for _, dv, _ in weighting.crash_samples()] == [
            [delta_v(10.0, 5.0, 1000.0, 2000.0)], [delta_v(10.0, 5.0, 1500.0, 1500.0)]]
        assert weighting.no_response_dvs == [delta_v(17.5, 5.0, 1500.0, 1200.0)]
        assert weigh(mixed_campaign(0.0)).no_response_dvs == []

    def test_shares_carry_the_crash_samples_part_of_the_mix(self):
        """Each weighted seed's crash samples weigh its cells by the seed
        weight over one sequential total of every seed's, so they add to 1
        across the seeds: seed_percentiles scales them to the 1 - fraction
        part of the mix."""
        weighting = weigh(mixed_campaign(0.25))
        grid = weighting.campaign.grid
        cell_w = [sw.w * r.crash_probs(grid)[0]
                  for r, sw in zip(weighting.seeds, weighting.weights)]
        samples = list(weighting.crash_samples())
        assert [r.seed_id for r, *_ in samples] == ["a", "d"]
        for (r, dv, w), want in zip(samples, cell_w):
            assert dv.tolist() == [delta_v(10.0, 5.0, r.follower_mass, r.lead_mass)]
            assert w.tolist() == [want / (cell_w[0] + cell_w[1])]
        assert sum(w[0] for *_, w in samples) == pytest.approx(1.0, abs=1e-15)


def generated_campaign(rng: np.random.Generator, n1: int, n2: int,
                       n_seeds: int, fraction: float) -> CampaignResult:
    """A campaign on a random n1 x n2 grid, some of whose probabilities are
    0, with an excluded seed, a swept seed without crashes, a seed whose
    every cell crashes and `n_seeds` random ones, in random order. A random
    seed's live rows are a random subset of the grid's rows, its cells
    crash at random, and its no-response run crashes or not. A seed's
    recorded delta-v is its no-response run's where that crashed, else
    20 km/h."""
    def probs(n):
        p = rng.random(n) * (rng.random(n) < 0.8)
        p[rng.integers(n)] = 1.0
        return p / p.sum()

    grid = CampaignGrid(0.1 * np.arange(n1), probs(n1), 1.5 * np.arange(1, n2 + 1),
                        probs(n2))
    kinds = ["excluded", "crash-free", "all crash"] + ["random"] * n_seeds
    results = []
    for k, kind in enumerate(rng.permutation(kinds)):
        live = np.flatnonzero(rng.random(n1) < 0.5)
        crashed = rng.random((len(live), n2)) < 0.6
        nr_crashed = rng.random() < 0.5
        if kind == "all crash":
            crashed[:], nr_crashed = True, True
        elif kind == "crash-free":
            crashed[:], nr_crashed = False, False
        v2 = np.where(crashed, rng.uniform(0.0, 20.0, crashed.shape), np.nan)
        v1 = v2 + rng.uniform(0.1, 20.0, crashed.shape)
        nr = (25.0 + rng.uniform(0.0, 5.0), 10.0) if nr_crashed else (math.nan, math.nan)
        m1, m2 = rng.uniform(500.0, 3000.0, 2)
        # a crashed no-response run's delta-v ties with its rows' cells
        seed_dv = delta_v(*nr, m1, m2) if nr_crashed else 20.0
        seed = swept_result(f"s{k:02d}", grid, v1, v2, nr, rows=live, follower_mass=m1,
                            lead_mass=m2, seed_delta_v_kmh=seed_dv)
        if kind == "excluded":
            seed = excluded_result(seed)
        results.append(seed)
    return CampaignResult("cbm", grid, results, fraction)


class TestRowStatistics:
    @settings(max_examples=60, deadline=None)
    @given(rng_seed=st.integers(0, 2**32 - 1), n1=st.integers(1, 8),
           n2=st.integers(1, 5), n_seeds=st.integers(0, 6),
           fraction=st.sampled_from([0.0, 0.25]),
           bin_width=st.sampled_from([0.5, 2.0, 7.0]),
           block=st.sampled_from([1, 2, outcome.ROW_BLOCK]))
    def test_equal_the_dense_oracle(self, rng_seed, n1, n2, n_seeds, fraction,
                                    bin_width, block):
        """The histogram, its mean and count, and the contributions summed
        from the row statistics equal those of the dense per-cell samples
        (at rel 1e-12, counts and bins exactly), whatever the block of
        seeds summed at a time."""
        campaign = generated_campaign(np.random.default_rng(rng_seed), n1, n2,
                                      n_seeds, fraction)
        with mock.patch.object(outcome, "ROW_BLOCK", block):
            weighting = weigh(campaign, bin_width)
            got, contributions = weighting.histogram(), weighting.contributions()
        grid = campaign.grid
        dense = [DenseMatrix(r.seed_id, grid, r.cells(grid, "v1"), r.cells(grid, "v2"))
                 for r in campaign.swept]
        masses = {r.seed_id: (r.follower_mass, r.lead_mass) for r in campaign.results}
        oracle = dense_crash_samples(dense, masses, weighting.weights)
        dvs, ws = (np.concatenate(parts) for parts in list(zip(*oracle))[1:])
        want = mix_no_response(build_histogram(dvs, ws, bin_width),
                               weighting.no_response_dvs, fraction)
        assert (len(got.weights), got.count) == (len(want.weights), want.count)
        assert got.count == len(dvs) + len(weighting.no_response_dvs)
        assert np.allclose(got.weights, want.weights, rtol=1e-12, atol=0)
        assert got.mean == pytest.approx(want.mean, rel=1e-12)
        assert contributions == pytest.approx(
            [(1 - fraction) * w.sum() for *_, w in oracle], rel=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(rng_seed=st.integers(0, 2**32 - 1), n_seeds=st.integers(0, 12))
    def test_keep_their_bits_whatever_the_block(self, rng_seed, n_seeds):
        """The sums run in seed, row and bin order across blocks: summed
        one seed at a time, they are the bits of one block. The per-seed
        percentiles, whose crash samples are built one seed at a time, do
        not follow the block either."""
        campaign = generated_campaign(np.random.default_rng(rng_seed), 6, 3,
                                      n_seeds, 0.25)
        sums = []
        for block in (1, outcome.ROW_BLOCK):
            with mock.patch.object(outcome, "ROW_BLOCK", block):
                weighting = weigh(campaign)
                hist = weighting.histogram()
                percentiles = seed_percentiles(weighting)
                sums.append((hist.weights.tobytes(), hist.mean.hex(), hist.count,
                             [x.hex() for x in weighting.contributions()],
                             {sid: v if isinstance(v, str) else v.hex()
                              for sid, v in percentiles.items()}))
        assert sums[0] == sums[1]
        assert sums[0][-1]  # the seed whose every cell crashes has one


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
        back = load_histogram(path)
        assert np.array_equal(back.weights, h.weights)
        assert back.bin_width == h.bin_width
        assert (back.mean, back.count) == (9.0, 1)  # the bin centers' mean


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
