import hashlib
import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rearsim import engine
from rearsim.distributions import DecelDistribution, cut_glances
from rearsim.engine import (
    NO_CRASH,
    CampaignConfig,
    SeedKinematics,
    SimOutcome,
    load_matrices,
    reweight_cbm,
    run_campaign,
    save_matrices,
    sweep_seed,
)
from rearsim.drivers import CbmConfig, cbm_onsets
from rearsim.errors import ModelUndefinedError, ParseError, ValidationError
from rearsim.scenario import SynthesisConfig, remove_evasive_maneuver, synthesize_seeds

from fixtures import shrp2_like_decels, shrp2_like_glances
from test_looming import make_cf


def stopping_distance(v0: float, jerk: float, d_max: float) -> float:
    """Closed form for the jerk-ramp-then-plateau braking maneuver."""
    j = abs(jerk)
    t_ramp = d_max / j
    v_ramp_end = v0 - 0.5 * j * t_ramp**2
    if v_ramp_end <= 0:  # stops during the ramp
        t_stop = math.sqrt(2 * v0 / j)
        return v0 * t_stop - j * t_stop**3 / 6
    d_ramp = v0 * t_ramp - j * t_ramp**3 / 6
    return d_ramp + v_ramp_end**2 / (2 * d_max)


class TestSimulate:
    def test_uniform_motion_oracle(self):
        # parked lead 30 m ahead, follower at 10 m/s, no response:
        # overlap at exactly t = 3 s with v1 = 10, v2 = 0
        cf = make_cf(v_foll=10.0, v_lead=0.0, gap0=30.0, duration=10.0)
        out = SeedKinematics(cf, 0.01).run(math.inf, 5.0, -23.04)
        assert out.crashed
        assert out.impact_time == pytest.approx(3.0, abs=1e-9)
        assert out.v1 == pytest.approx(10.0, abs=1e-12)
        assert out.v2 == pytest.approx(0.0, abs=1e-12)
        assert out.max_severity

    def test_strong_early_braking_avoids(self):
        cf = make_cf(v_foll=20.0, v_lead=0.0, gap0=100.0, duration=30.0)
        out = SeedKinematics(cf, 0.01).run(0.5, 10.0, -23.04)
        assert not out.crashed

    def test_stopping_distance_boundary(self):
        v0, jerk, d_max = 20.0, -23.04, 8.0
        dist = stopping_distance(v0, jerk, d_max)
        onset = 1.0
        travel_before = v0 * onset
        for margin, expect_crash in ((+0.05, False), (-0.05, True)):
            gap0 = travel_before + dist + margin
            cf = make_cf(v_foll=v0, v_lead=0.0, gap0=gap0, duration=30.0)
            out = SeedKinematics(cf, 0.01).run(onset, d_max, jerk)
            assert out.crashed == expect_crash, margin
            if out.crashed:
                assert out.v1 < 1.8  # grazing-speed contact near the boundary

    def test_grazing_boundary_tie_break(self):
        # at exactly the stopping-distance gap the contact is grazing;
        # a crash classification requires positive closing speed, so the
        # outcome is avoidance or (from dt quantization) an epsilon-speed
        # contact, never a real impact
        v0, jerk, d_max, onset = 20.0, -23.04, 8.0, 1.0
        gap0 = v0 * onset + stopping_distance(v0, jerk, d_max)
        cf = make_cf(v_foll=v0, v_lead=0.0, gap0=gap0, duration=30.0)
        out = SeedKinematics(cf, 0.01).run(onset, d_max, jerk)
        assert (not out.crashed) or (out.v1 - out.v2) < 0.15

    def test_crashes_always_close_positively(self, small_seeds, glances, decels):
        cfg = CampaignConfig()
        result = run_campaign(list(small_seeds[:4]), cfg, glance=glances,
                              decels=decels)
        for r in result.results:
            m = r.matrix
            crashed = m.crashed
            assert np.all(m.v1[crashed] > m.v2[crashed])

    def test_no_response_flagged_max_severity(self, small_seeds):
        for seed in small_seeds:
            cf = remove_evasive_maneuver(seed)
            out = SeedKinematics(cf, 0.01).run(math.inf, 5.0, -23.04)
            assert out.crashed  # counterfactual seeds collide untreated
            assert out.max_severity
            assert out.v1 >= out.v2

    def test_late_onset_equals_no_response_bitwise(self, small_seeds):
        cf = remove_evasive_maneuver(small_seeds[0])
        nr = SeedKinematics(cf, 0.01).run(math.inf, 5.0, -23.04)
        late = SeedKinematics(cf, 0.01).run(nr.impact_time + 1.0, 5.0, -23.04)
        assert late == nr


def full_horizon_run(kin: SeedKinematics, onset: float, d_max: float,
                     jerk: float) -> SimOutcome:
    """The kernel as one integration over the whole horizon: the oracle for
    the windowed SeedKinematics.run."""
    t, dt = kin.t, kin.dt
    if math.isinf(onset):
        a = np.zeros(len(t))
    else:
        a = np.clip(abs(jerk) * (t - onset), 0.0, d_max)
    v = np.empty(len(t))
    v[0] = kin.v0
    v[1:] = kin.v0 - np.cumsum(a[:-1] * dt)
    np.maximum(v, 0.0, out=v)
    x = np.empty(len(t))
    x[0] = kin.x0
    x[1:] = kin.x0 + np.cumsum(v[1:] * dt)
    gap = kin.lead_pos - x
    below = gap <= 0
    if not below.any():
        return NO_CRASH
    k = int(np.argmax(below))
    alpha = gap[k - 1] / (gap[k - 1] - gap[k])
    t_impact = float(t[k - 1] + alpha * dt)
    v1 = float(v[k - 1] + alpha * (v[k] - v[k - 1]))
    v2 = float(kin.lead_speed[k - 1]
               + alpha * (kin.lead_speed[k] - kin.lead_speed[k - 1]))
    if v1 <= v2:
        return NO_CRASH
    return SimOutcome(True, t_impact, v1, v2, not bool((a[:k] > 0).any()))


def bits(out: SimOutcome) -> tuple:
    return tuple(x.hex() if isinstance(x, float) else x for x in astuple(out))


def kernel_onsets(kin: SeedKinematics, source_duration: float) -> list[float]:
    """Onsets before the first sample, on and between samples inside the
    seed, around and after the no-response impact, at the horizon's end,
    and never."""
    rng = np.random.default_rng(len(kin.t))
    t0, t_end = float(kin.t[0]), float(kin.t[-1])
    onsets = [t0 - 1.0, t0 - 1e-3, t0, float(kin.t[1]), float(kin.t[7]) + 3e-3]
    onsets += list(rng.uniform(t0, source_duration, 12))
    onsets += list(rng.uniform(t0, t_end, 6))
    if kin.no_response.crashed:
        k = kin.k_live
        onsets += [float(kin.t[k - 2]), float(kin.t[k - 1]) - 1e-9,
                   float(kin.t[k - 1]), float(kin.t[k]) + 2e-3,
                   kin.no_response.impact_time + 1.0]
    return onsets + [t_end, t_end + 5.0, math.inf]


class TestWindowedKernel:
    DECELS = (0.4, 1.3, 4.25, 10.3)

    def _check(self, cf, source_duration):
        kin = SeedKinematics(cf, 0.01)
        assert bits(kin.no_response) == bits(
            full_horizon_run(kin, math.inf, 1.0, -23.04))
        for onset in kernel_onsets(kin, source_duration):
            for d_max in self.DECELS:
                want = full_horizon_run(kin, onset, d_max, -23.04)
                got = kin.run(onset, d_max, -23.04)
                assert bits(got) == bits(want), (cf.id, onset, d_max)

    # a first chunk of one step puts chunk boundaries at every power of two
    @pytest.mark.parametrize("first_chunk", [1, engine.FIRST_CHUNK])
    def test_equals_full_horizon_on_synthesized_seeds(self, small_seeds,
                                                      first_chunk, monkeypatch):
        monkeypatch.setattr(engine, "FIRST_CHUNK", first_chunk)
        for seed in small_seeds:
            cf = remove_evasive_maneuver(seed)
            self._check(cf, cf.source_duration)

    @pytest.mark.parametrize("v_foll,v_lead,gap0", [
        (20.0, 0.0, 30.0),   # parked lead, impact inside the seed
        (25.0, 24.0, 60.0),  # slow closing, impact late in the horizon
        (10.0, 9.0, 500.0),  # no-response run never overlaps
        (15.0, 15.0, 5.0),   # equal speeds: never closes
    ])
    def test_equals_full_horizon_on_constructed_cases(self, v_foll, v_lead,
                                                      gap0):
        cf = make_cf(v_foll=v_foll, v_lead=v_lead, gap0=gap0, duration=40.0)
        self._check(cf, 5.0)


class TestSweep:
    @staticmethod
    def axes(n1=68, overshoot_probs_seed=3):
        rng = np.random.default_rng(overshoot_probs_seed)
        axis1 = 0.1 * np.arange(n1)  # includes the attentive 0.0 point
        raw = rng.random(n1)
        probs = raw / raw.sum()
        decels = DecelDistribution(np.array([2.0, 4.0, 6.0, 8.0]),
                                   np.full(4, 0.25), 2.0)
        return axis1, probs, decels

    def _sweep_pair(self, cf, anchor, n1=68):
        axis1, probs, decels = self.axes(n1)
        onsets = cbm_onsets(anchor, axis1, CbmConfig())
        kin = SeedKinematics(cf, 0.01)
        reduced = sweep_seed(kin, axis1, probs, onsets, decels, -23.04)
        exhaustive = sweep_seed(kin, axis1, probs, onsets, decels, -23.04,
                                exhaustive=True)
        return reduced, exhaustive

    def test_reduced_equals_exhaustive_on_synthesized_seeds(self, small_seeds):
        from rearsim.looming import find_anchor, looming_series
        total_reduced = total_exhaustive = 0
        for seed in small_seeds:
            cf = remove_evasive_maneuver(seed)
            anchor = find_anchor(looming_series(cf), 0.2)
            if anchor is None:
                continue
            reduced, exhaustive = self._sweep_pair(cf, anchor)
            assert np.array_equal(reduced.crashed, exhaustive.crashed)
            assert np.array_equal(reduced.v1, exhaustive.v1, equal_nan=True)
            assert np.array_equal(reduced.v2, exhaustive.v2, equal_nan=True)
            assert np.array_equal(reduced.max_severity, exhaustive.max_severity)
            total_reduced += reduced.kernel_calls
            total_exhaustive += exhaustive.kernel_calls
        assert total_reduced <= 0.5 * total_exhaustive

    def test_all_avoid_row_costs_few_calls(self):
        cf = make_cf(v_foll=10.0, v_lead=9.0, gap0=500.0, duration=20.0)
        axis1, probs, _ = self.axes(32)
        decels = DecelDistribution(np.array([9.0]), np.array([1.0]), 1.5)
        m = sweep_seed(SeedKinematics(cf, 0.01), axis1, probs,
                       cbm_onsets(0.0, axis1, CbmConfig()), decels, -23.04)
        assert not m.crashed.any()
        assert m.kernel_calls <= math.ceil(math.log2(32)) + 2

    def test_all_max_severity_row(self):
        # tiny gap: even the attentive response is too late for any decel
        cf = make_cf(v_foll=20.0, v_lead=0.0, gap0=3.0, duration=10.0)
        axis1, probs, decels = self.axes(16)
        onsets = cbm_onsets(0.0, axis1, CbmConfig())
        m = sweep_seed(SeedKinematics(cf, 0.01), axis1, probs, onsets, decels,
                       -23.04)
        assert m.crashed.all()
        assert m.max_severity.all()
        assert m.kernel_calls < m.n_cells

    def test_cell_probabilities_sum_to_one(self, small_seeds):
        cf = remove_evasive_maneuver(small_seeds[0])
        axis1, probs, decels = self.axes()
        m = sweep_seed(SeedKinematics(cf, 0.01), axis1, probs,
                       cbm_onsets(0.0, axis1, CbmConfig()), decels, -23.04)
        assert m.p_cell.sum() == pytest.approx(1.0, abs=1e-12)

    def test_monotonicity_in_axes(self, small_seeds):
        from rearsim.looming import find_anchor, looming_series
        for seed in small_seeds[:4]:
            cf = remove_evasive_maneuver(seed)
            anchor = find_anchor(looming_series(cf), 0.2)
            if anchor is None:
                continue
            _, exhaustive = self._sweep_pair(cf, anchor, n1=16)
            v1 = exhaustive.v1
            for j in range(v1.shape[1]):
                col = v1[:, j][exhaustive.crashed[:, j]]
                assert np.all(np.diff(col) >= -1e-9)
            # crashes get milder as the driver brakes harder
            for i in range(v1.shape[0]):
                row = v1[i, :][exhaustive.crashed[i, :]]
                assert np.all(np.diff(row) <= 1e-9)


MATRIX_FIELDS = ("axis1", "axis1_probs", "decels", "decel_probs", "crashed",
                 "v1", "v2", "max_severity")


@settings(max_examples=40, deadline=None)
@given(rng_seed=st.integers(0, 2**32 - 1),
       model=st.sampled_from(["cbm", "blom"]),
       speed=st.floats(5.0, 35.0), headway=st.floats(0.3, 3.0),
       lead=st.sampled_from(["braking", "non_braking", "standstill"]))
def test_reduced_sweep_equals_exhaustive_bitwise(rng_seed, model, speed,
                                                 headway, lead):
    """Pruned rows, the crash-boundary search and the scan together give
    exactly the cells of simulating every one."""
    synth = SynthesisConfig(n_seeds=2, follower_speed=(speed, speed + 2.0),
                            headway_time=(headway, headway + 0.2),
                            lead_mix={"braking": 1, lead: 1})
    seeds = synthesize_seeds(synth, rng_seed)
    glance, decels = shrp2_like_glances(), shrp2_like_decels()
    cfg = CampaignConfig(model=model)
    reduced, exhaustive = (run_campaign(seeds, cfg, glance=glance, decels=decels,
                                        exhaustive=flag) for flag in (False, True))
    assert len(reduced.matrices) == len(exhaustive.matrices) >= 1
    for got, want in zip(reduced.matrices, exhaustive.matrices):
        for name in MATRIX_FIELDS:
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), (
                got.seed_id, name)
        assert got.kernel_calls <= want.kernel_calls
    assert [bits(r.no_response) for r in reduced.results] == [
        bits(r.no_response) for r in exhaustive.results]


class TestCampaign:
    def test_cbm_campaign_counts(self, small_seeds, glances, decels):
        cfg = CampaignConfig()
        result = run_campaign(list(small_seeds), cfg, glance=glances,
                              decels=decels)
        n = len(small_seeds)
        assert len(result.results) == n
        assert result.theoretical_cells == n * 67 * 6
        for r in result.results:
            assert r.matrix is not None
            assert abs(r.matrix.p_cell.sum() - 1.0) <= 1e-12

    def test_blom_excludes_ineligible(self, small_seeds, decels):
        cfg = CampaignConfig(model="blom")
        result = run_campaign(list(small_seeds), cfg, decels=decels)
        from rearsim.scenario import LEAD_BRAKING
        expected_excluded = sum(
            1 for r in result.results if r.lead_behavior != LEAD_BRAKING)
        assert len(result.excluded_ids) == expected_excluded > 0
        for r in result.results:
            if not r.excluded:
                assert r.matrix.axis1.shape == (25,)
                assert r.theoretical_cells == 25 * 6

    def test_blom_all_standstill_is_model_undefined(self, decels):
        cfg_synth = SynthesisConfig(n_seeds=3, lead_mix={"standstill": 3})
        seeds = synthesize_seeds(cfg_synth, 11)
        with pytest.raises(ModelUndefinedError):
            run_campaign(seeds, CampaignConfig(model="blom"), decels=decels)

    def test_campaign_deterministic_and_worker_invariant(
            self, small_seeds, glances, decels, tmp_path):
        cfg = CampaignConfig()
        paths = []
        for tag, workers in (("a", 1), ("b", 1), ("c", 2)):
            result = run_campaign(list(small_seeds), cfg, glance=glances,
                                  decels=decels, workers=workers)
            path = tmp_path / f"{tag}.csv"
            save_matrices(result.matrices, path)
            paths.append(path)
        blob = paths[0].read_bytes()
        assert paths[1].read_bytes() == blob
        assert paths[2].read_bytes() == blob

    def test_matrix_csv_round_trip(self, small_seeds, glances, decels, tmp_path):
        cfg = CampaignConfig()
        result = run_campaign(list(small_seeds[:3]), cfg, glance=glances,
                              decels=decels)
        path = tmp_path / "m.csv"
        save_matrices(result.matrices, path)
        loaded = load_matrices(path)
        assert len(loaded) == 3
        for orig, back in zip(result.matrices, loaded):
            assert back.seed_id == orig.seed_id
            assert np.array_equal(back.crashed, orig.crashed)
            assert np.array_equal(back.v1, orig.v1, equal_nan=True)
            assert np.allclose(back.p_cell, orig.p_cell, atol=1e-12)
            assert back.crash_mass == pytest.approx(orig.crash_mass, abs=1e-12)


@pytest.fixture(scope="module")
def paper_baseline(paper_mix_seeds, glances, decels, tmp_path_factory):
    """The uncut paper-mix campaign, in memory and after a CSV round trip."""
    result = run_campaign(list(paper_mix_seeds), CampaignConfig(),
                          glance=glances, decels=decels)
    path = tmp_path_factory.mktemp("baseline") / "matrices.csv"
    save_matrices(result.matrices, path)
    return result, load_matrices(path)


def test_paper_mix_counters_and_matrices_are_pinned(paper_baseline, tmp_path):
    """The 103-seed CBM campaign's deterministic counters and matrices file.
    A change that moves any of them changes outputs: update the values and
    say why in CHANGES.md."""
    result, _ = paper_baseline
    assert (result.kernel_calls, result.theoretical_cells,
            result.crash_cells) == (7554, 41406, 39167)
    path = tmp_path / "matrices.csv"
    save_matrices(result.matrices, path)
    data = path.read_bytes()
    assert len(data) == 3256765
    assert hashlib.sha256(data).hexdigest() == (
        "ed11559791a35ca28e7b4aacfe56458c050591765ee79c89b85cf17bb59c203f")


def test_load_matrices_takes_rows_in_any_order(paper_baseline, tmp_path):
    result, loaded = paper_baseline
    path = tmp_path / "matrices.csv"
    save_matrices(result.matrices, path)
    header, *rows = path.read_text().splitlines(keepends=True)
    order = np.random.default_rng(3).permutation(len(rows))
    path.write_text(header + "".join(rows[i] for i in order))
    for want, got in zip(loaded, load_matrices(path), strict=True):
        assert got.seed_id == want.seed_id
        for name in MATRIX_FIELDS:
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


class TestReweight:
    @pytest.mark.parametrize("cut_at", [3.0, 2.0, 1.0, 0.5, None])
    def test_equals_cut_campaign_bitwise(self, cut_at, paper_baseline,
                                         paper_mix_seeds, glances, decels):
        result, loaded = paper_baseline
        if cut_at is not None:
            result = run_campaign(list(paper_mix_seeds), CampaignConfig(),
                                  glance=cut_glances(glances, cut_at),
                                  decels=decels)
        reweighted = reweight_cbm(loaded, glances, decels, cut_at)
        assert [m.seed_id for m in reweighted] == [m.seed_id for m in result.matrices]
        for want, got in zip(result.matrices, reweighted):
            for name in ("axis1", "axis1_probs", "decels", "decel_probs",
                         "crashed", "v1", "v2", "max_severity"):
                a, b = getattr(want, name), getattr(got, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (
                    want.seed_id, name)

    def test_unsorted_decel_file_order_is_kept(self, paper_baseline, glances,
                                               decels):
        _, loaded = paper_baseline
        flipped = DecelDistribution(decels.d_values[::-1], decels.probs[::-1])
        got = reweight_cbm(loaded[:3], glances, flipped, 2.0)
        want = reweight_cbm(loaded[:3], glances, decels, 2.0)
        for a, b in zip(want, got):
            assert np.array_equal(b.decels, flipped.d_values)
            assert np.array_equal(b.crashed, a.crashed[:, ::-1])
            assert np.array_equal(b.v1, a.v1[:, ::-1], equal_nan=True)

    def test_other_glance_distribution_rejected(self, paper_baseline, glances,
                                                decels):
        _, loaded = paper_baseline
        with pytest.raises(ValidationError):
            reweight_cbm(loaded, cut_glances(glances, 4.0), decels)
        # same overshoot support, other probabilities
        tilted = type(glances)(glances.on_road_mass, glances.durations,
                               glances.probs[::-1])
        with pytest.raises(ValidationError):
            reweight_cbm(loaded, tilted, decels)

    def test_other_decel_distribution_rejected(self, paper_baseline, glances,
                                               decels):
        _, loaded = paper_baseline
        shifted = DecelDistribution(decels.d_values + 0.1, decels.probs)
        with pytest.raises(ValidationError):
            reweight_cbm(loaded, glances, shifted)


MATRIX_HEADER = "seed_id,axis1_bin,decel_bin,crashed,v1,v2,max_severity,p_cell\n"
MALFORMED_MATRICES = {
    "empty": "",
    "bad_header": "seed,axis1_bin\n",
    "truncated_row": MATRIX_HEADER + "s1,0.0,2.0,0,,,0,0.5\ns1,0.0,3.5,0\n",
    "non_numeric": MATRIX_HEADER + "s1,0.0,2.0,0,,,0,half\n",
    "crash_without_speed": MATRIX_HEADER + "s1,0.0,2.0,1,,,0,1.0\n",
    "incomplete_grid": MATRIX_HEADER + (
        "s1,0.0,2.0,0,,,0,0.25\ns1,0.0,3.5,0,,,0,0.25\n"
        "s1,0.1,2.0,0,,,0,0.25\n"),
    "repeated_cell": MATRIX_HEADER + (
        "s1,0.0,2.0,0,,,0,0.25\ns1,0.0,2.0,0,,,0,0.25\n"
        "s1,0.1,3.5,0,,,0,0.25\ns1,0.1,3.5,0,,,0,0.25\n"),
    "extra_field": MATRIX_HEADER + "s1,0.0,2.0,0,,,0,1.0,7\n",
}


class TestLoadMatricesParseErrors:
    @pytest.mark.parametrize("name", sorted(MALFORMED_MATRICES))
    def test_malformed_file_raises_parse_error(self, name, tmp_path):
        path = tmp_path / "matrices.csv"
        path.write_text(MALFORMED_MATRICES[name])
        with pytest.raises(ParseError, match=r"matrices\.csv"):
            load_matrices(path)

    def test_truncated_row_names_its_line(self, tmp_path):
        path = tmp_path / "matrices.csv"
        path.write_text(MALFORMED_MATRICES["truncated_row"])
        with pytest.raises(ParseError, match=r"matrices\.csv:3:"):
            load_matrices(path)
