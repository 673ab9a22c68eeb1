import copy
import hashlib
import io
import json
import math
import re
import tempfile
import warnings
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rearsim import engine
from rearsim.distributions import DecelDistribution, cut_glances
from rearsim.cli import SEEDS_SUMMARY_HEADER, _simulated_matrices, main
from rearsim.engine import (
    NO_CRASH,
    CampaignConfig,
    CampaignGrid,
    OutcomeMatrix,
    SeedKinematics,
    SimOutcome,
    load_matrices,
    reweight,
    run_campaign,
    save_matrices,
    sweep_seed,
)
from rearsim.drivers import CbmConfig, blom_onsets, cbm_axes, cbm_onsets
from rearsim.errors import ModelUndefinedError, ParseError, ValidationError
from rearsim.manifest import write_json
from rearsim.outcome import prevalence_weights, weighted_crash_samples
from rearsim.scenario import (
    DT_NOMINAL,
    SeedCrash,
    SynthesisConfig,
    Trajectory,
    VehicleMeta,
    load_seed_refs,
    remove_evasive_maneuver,
    save_seed,
    synthesize_seeds,
)

from fixtures import (
    DenseMatrix,
    dense_crash_samples,
    exhaustive_sweep,
    shrp2_like_decels,
    shrp2_like_glances,
    traced_peak,
)
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


def cell(out: dict, i: int, j: int) -> SimOutcome:
    """Cell (i, j) of a block the kernel returned, as an outcome."""
    if not out["crashed"][i, j]:
        assert np.isnan(out["v1"][i, j]) and np.isnan(out["v2"][i, j])
        return NO_CRASH
    return SimOutcome(True, float(out["v1"][i, j]), float(out["v2"][i, j]),
                      bool(out["max_severity"][i, j]))


def run_case(kin: SeedKinematics, onset: float, d_max: float,
             jerk: float) -> SimOutcome:
    """One case through the kernel, as a block of one cell."""
    return cell(kin.run(np.array([onset]), np.array([d_max]), jerk), 0, 0)


class TestSimulate:
    def test_uniform_motion_oracle(self):
        # parked lead 30 m ahead, follower at 10 m/s, no response:
        # overlap at exactly t = 3 s with v1 = 10, v2 = 0
        cf = make_cf(v_foll=10.0, v_lead=0.0, gap0=30.0, duration=10.0)
        kin = SeedKinematics(cf)
        out = run_case(kin, math.inf, 5.0, -23.04)
        assert out.crashed
        assert kin.t[kin.k_live] == pytest.approx(3.0, abs=1e-9)  # first overlap
        assert out.v1 == pytest.approx(10.0, abs=1e-12)
        assert out.v2 == pytest.approx(0.0, abs=1e-12)
        assert out.max_severity

    def test_strong_early_braking_avoids(self):
        cf = make_cf(v_foll=20.0, v_lead=0.0, gap0=100.0, duration=30.0)
        out = run_case(SeedKinematics(cf), 0.5, 10.0, -23.04)
        assert not out.crashed

    def test_stopping_distance_boundary(self):
        v0, jerk, d_max = 20.0, -23.04, 8.0
        dist = stopping_distance(v0, jerk, d_max)
        onset = 1.0
        travel_before = v0 * onset
        for margin, expect_crash in ((+0.05, False), (-0.05, True)):
            gap0 = travel_before + dist + margin
            cf = make_cf(v_foll=v0, v_lead=0.0, gap0=gap0, duration=30.0)
            out = run_case(SeedKinematics(cf), onset, d_max, jerk)
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
        out = run_case(SeedKinematics(cf), onset, d_max, jerk)
        assert (not out.crashed) or (out.v1 - out.v2) < 0.15

    def test_crashes_always_close_positively(self, small_seeds, glances, decels):
        cfg = CampaignConfig()
        result = run_campaign(list(small_seeds[:4]), cfg, glance=glances,
                              decels=decels)
        for r in result.results:
            v1, v2, _ = r.matrix.crashes()
            assert np.all(v1 > v2)

    def test_no_response_flagged_max_severity(self, small_seeds):
        for seed in small_seeds:
            cf = remove_evasive_maneuver(seed)
            out = run_case(SeedKinematics(cf), math.inf, 5.0, -23.04)
            assert out.crashed  # counterfactual seeds collide untreated
            assert out.max_severity
            assert out.v1 >= out.v2

    def test_seed_off_the_simulation_step_is_rejected(self, small_seeds):
        """A first step 5e-7 s off the 10 ms grid is inside the seed
        validator's tolerance, but the kernel runs on DT_NOMINAL only."""
        seed = copy.deepcopy(small_seeds[0])
        t = seed.lead.t.copy()
        t[1] = t[0] + 0.0100005
        seed.lead.t = seed.follower.t = t
        seed.validate()
        with pytest.raises(ValidationError, match="is not the simulation step"):
            SeedKinematics(remove_evasive_maneuver(seed))

    def test_seed_overlapping_at_its_first_sample_is_rejected(self, glances, decels):
        """Vehicles that touch at the first sample pass the seed validator;
        the campaign rejects the seed before find_anchor, which takes a
        looming series of at least one sample unchecked."""
        t = DT_NOMINAL * np.arange(3)
        still = Trajectory(t, np.full(3, 10.0), np.zeros(3), np.zeros(3))
        meta = VehicleMeta(1500.0, 1.8, 4.5)
        seed = SeedCrash("s0", still, copy.deepcopy(still), meta, meta)
        seed.validate()
        with pytest.raises(ValidationError, match="vehicles overlap at start"):
            run_campaign([seed], CampaignConfig(), glance=glances, decels=decels)

    def test_late_onset_equals_no_response_bitwise(self, small_seeds):
        cf = remove_evasive_maneuver(small_seeds[0])
        kin = SeedKinematics(cf)
        nr = kin.no_response
        late = run_case(kin, kin.t[kin.k_live] + 1.0, 5.0, -23.04)
        assert bits(late) == bits(nr)


def full_horizon_run(kin: SeedKinematics, onset: float, d_max: float,
                     jerk: float) -> SimOutcome:
    """The kernel as one integration of one case over the whole horizon:
    the oracle for the block SeedKinematics.run."""
    t, dt = kin.t, DT_NOMINAL
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
    v1 = float(v[k - 1] + alpha * (v[k] - v[k - 1]))
    v2 = float(kin.lead_speed[k - 1]
               + alpha * (kin.lead_speed[k] - kin.lead_speed[k - 1]))
    if v1 <= v2:
        return NO_CRASH
    return SimOutcome(True, v1, v2, not bool((a[:k] > 0).any()))


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
                   float(kin.t[k]) + 1.0]
    return onsets + [t_end, t_end + 5.0, math.inf]


class TestWindowedKernel:
    DECELS = (0.4, 1.3, 4.25, 10.3)

    def _check(self, cf, source_duration):
        kin = SeedKinematics(cf)
        assert bits(kin.no_response) == bits(
            full_horizon_run(kin, math.inf, 1.0, -23.04))
        # one block of live rows, rows past the no-response impact and
        # never-braking rows, in no particular order
        onsets = kernel_onsets(kin, source_duration)
        got = kin.run(np.array(onsets), np.array(self.DECELS), -23.04)
        for i, onset in enumerate(onsets):
            for j, d_max in enumerate(self.DECELS):
                want = full_horizon_run(kin, onset, d_max, -23.04)
                assert bits(cell(got, i, j)) == bits(want), (cf.id, onset, d_max)

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

    def test_standstill_before_a_lead_that_falls_back(self):
        """A follower standing still short of the lead leaves the block
        only once no later lead position is behind it. Here the lead
        position falls back behind the stopped follower while the lead
        speed, -5e-10 m/s, is inside the seed validator's tolerance, so
        the later overlap is a crash at v1 = 0 > v2."""
        cf = make_cf(v_foll=10.0, v_lead=0.0, gap0=30.0, duration=20.0)
        cf.lead.pos = np.interp(cf.lead.t, [0.0, 8.0, 12.0], [30.0, 30.0, 5.0])
        cf.lead.speed = np.full(len(cf.lead.t), -5e-10)
        kin = SeedKinematics(cf)
        # stopped at about 12 m by t = 2.3 s, overlapped at about t = 10.9 s
        got = run_case(kin, 0.5, 8.0, -23.04)
        assert got.crashed and got.v1 == 0.0 and got.v2 == -5e-10
        assert bits(got) == bits(full_horizon_run(kin, 0.5, 8.0, -23.04))
        self._check(cf, 5.0)


class TestSweep:
    @staticmethod
    def grid(n1=68, overshoot_probs_seed=3, decels=(2.0, 4.0, 6.0, 8.0)):
        rng = np.random.default_rng(overshoot_probs_seed)
        axis1 = 0.1 * np.arange(n1)  # includes the attentive 0.0 point
        raw = rng.random(n1)
        return CampaignGrid(axis1, raw / raw.sum(), decels,
                            np.full(len(decels), 1 / len(decels)))

    def _sweep_pair(self, cf, anchor, n1=68):
        grid = self.grid(n1)
        onsets = cbm_onsets(anchor, grid.axis1, CbmConfig())
        kin = SeedKinematics(cf)
        reduced = sweep_seed(kin, grid, onsets, -23.04)
        exhaustive = exhaustive_sweep(kin, grid, onsets, -23.04)
        # rows braking before the step ahead of the no-response impact
        n_live = int(np.sum(onsets < kin.t[kin.k_live - 1]))
        return reduced, exhaustive, n_live

    def test_reduced_equals_exhaustive_on_synthesized_seeds(self, small_seeds):
        from rearsim.looming import find_anchor, looming_series
        for seed in small_seeds:
            cf = remove_evasive_maneuver(seed)
            anchor = find_anchor(looming_series(cf), 0.2)
            if anchor is None:
                continue
            reduced, exhaustive, n_live = self._sweep_pair(cf, anchor)
            assert_cells(reduced, exhaustive)
            # one call for the no-response run, one per integrated cell
            n1, n2 = exhaustive.crashed.shape
            assert reduced.kernel_calls == 1 + n2 * n_live
            assert exhaustive.kernel_calls == 1 + n1 * n2

    def test_all_avoid_row_costs_few_calls(self):
        cf = make_cf(v_foll=10.0, v_lead=9.0, gap0=500.0, duration=20.0)
        grid = self.grid(32, decels=(9.0,))
        m = sweep_seed(SeedKinematics(cf), grid,
                       cbm_onsets(0.0, grid.axis1, CbmConfig()), -23.04)
        assert not m.cells("crashed").any()
        # the no-response run never overlaps, so no row is live
        assert m.kernel_calls == 1

    def test_all_max_severity_row(self):
        # tiny gap: even the attentive response is too late for any decel
        cf = make_cf(v_foll=20.0, v_lead=0.0, gap0=3.0, duration=10.0)
        grid = self.grid(16)
        m = sweep_seed(SeedKinematics(cf), grid,
                       cbm_onsets(0.0, grid.axis1, CbmConfig()), -23.04)
        assert m.cells("crashed").all()
        assert m.cells("max_severity").all()
        # every onset is past the no-response impact, so no row is live
        assert m.kernel_calls == 1

    def test_cell_probabilities_sum_to_one(self, small_seeds):
        cf = remove_evasive_maneuver(small_seeds[0])
        grid = self.grid()
        m = sweep_seed(SeedKinematics(cf), grid,
                       cbm_onsets(0.0, grid.axis1, CbmConfig()), -23.04)
        assert m.grid is grid
        assert grid.p_cell.sum() == pytest.approx(1.0, abs=1e-12)

    def test_monotonicity_in_axes(self, small_seeds):
        from rearsim.looming import find_anchor, looming_series
        for seed in small_seeds[:4]:
            cf = remove_evasive_maneuver(seed)
            anchor = find_anchor(looming_series(cf), 0.2)
            if anchor is None:
                continue
            _, exhaustive, _ = self._sweep_pair(cf, anchor, n1=16)
            v1 = exhaustive.v1
            for j in range(v1.shape[1]):
                col = v1[:, j][exhaustive.crashed[:, j]]
                assert np.all(np.diff(col) >= -1e-9)
            # crashes get milder as the driver brakes harder
            for i in range(v1.shape[0]):
                row = v1[i, :][exhaustive.crashed[i, :]]
                assert np.all(np.diff(row) <= 1e-9)


MATRIX_FIELDS = ("crashed", "v1", "v2", "max_severity")
GRID_FIELDS = ("axis1", "axis1_probs", "decels", "decel_probs")


def swept(result) -> dict[str, SimOutcome]:
    """The no-response outcome of each swept seed of a campaign result,
    which fills the rows matrices.npy holds no record of."""
    return {r.seed_id: r.no_response for r in result.results
            if r.matrix is not None}


def assert_bitwise(got, want, names):
    """Each named array of `got` has the dtype and bytes of `want`'s."""
    for name in names:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def assert_cells(got, want: DenseMatrix):
    """Each outcome field of `got` over its whole grid has the dtype and
    bytes of the dense oracle's."""
    for name in MATRIX_FIELDS:
        a, b = got.cells(name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def assert_same_matrix(got, want):
    """`got` holds `want`'s seed, live rows, their cells and no-response
    outcome, bit for bit."""
    assert got.seed_id == want.seed_id
    assert_bitwise(got, want, ("rows",) + MATRIX_FIELDS)
    assert bits(got.no_response) == bits(want.no_response)


def grid_round_trip(grid: CampaignGrid) -> CampaignGrid:
    """`grid` written to and read from summary.json's JSON."""
    summary = json.loads(json.dumps({"grid": grid.to_json()}))
    return CampaignGrid.from_json(summary, "summary.json")


@settings(max_examples=40, deadline=None)
@given(rng_seed=st.integers(0, 2**32 - 1),
       model=st.sampled_from(["cbm", "blom"]),
       speed=st.floats(5.0, 35.0), headway=st.floats(0.3, 3.0),
       lead=st.sampled_from(["braking", "non_braking", "standstill"]),
       n_decels=st.integers(1, 6), cut_at=st.one_of(st.none(), st.floats(0.5, 7.0)),
       reweight_cut=st.floats(0.1, 7.0))
def test_reduced_sweep_equals_exhaustive_bitwise(rng_seed, model, speed,
                                                 headway, lead, n_decels, cut_at,
                                                 reweight_cut):
    """Pruned rows and the block of live rows together give exactly the
    cells of integrating every row, on grids of 1 to 6 deceleration bins
    and, for the cbm model, glance distributions cut at `cut_at`. The sums
    over cells, which expand the live rows over the grid, keep every bit of
    the dense oracle's: the crash masses, the weighted crash samples, and
    both under a glance cut at `reweight_cut` (every other reaction time
    for the blom model)."""
    synth = SynthesisConfig(n_seeds=2, follower_speed=(speed, speed + 2.0),
                            headway_time=(headway, headway + 0.2),
                            lead_mix={"braking": 1, lead: 1})
    seeds = list(synthesize_seeds(synth, rng_seed))
    glance, all_decels = shrp2_like_glances(), shrp2_like_decels()
    if cut_at is not None:
        glance = cut_glances(glance, cut_at)
    probs = all_decels.probs[:n_decels]
    decels = DecelDistribution(all_decels.d_values[:n_decels], probs / probs.sum())
    cfg = CampaignConfig(model=model)
    reduced = run_campaign(seeds, cfg, glance=glance, decels=decels)
    grid = reduced.grid
    assert len(reduced.matrices) >= 1
    dense = []
    for seed, r in zip(sorted(seeds, key=lambda s: s.id), reduced.results,
                       strict=True):
        cf = remove_evasive_maneuver(seed)
        kin = SeedKinematics(cf)
        assert bits(r.no_response) == bits(kin.no_response)
        if r.excluded:
            continue
        onsets = (blom_onsets(cf.lead_brake_onset, grid.axis1) if model == "blom"
                  else cbm_onsets(r.anchor, grid.axis1, cfg.cbm))
        want = exhaustive_sweep(kin, grid, onsets, cfg.cbm.jerk_mean)
        assert_cells(r.matrix, want)
        assert r.matrix.kernel_calls <= want.kernel_calls
        assert r.matrix.n_crash_cells == np.count_nonzero(want.crashed)
        dense.append(want)
    if model == "blom":
        rows = list(range(0, grid.shape[0], 2))
        p = grid.axis1_probs[rows]
        target = CampaignGrid(grid.axis1[rows], p / p.sum(), grid.decels,
                              grid.decel_probs)
    else:
        target = CampaignGrid(*cbm_axes(cut_glances(glance, reweight_cut)),
                              grid.decels, grid.decel_probs)
        rows = [grid.axis1.tolist().index(x) for x in target.axis1.tolist()]
    masses = {s.id: (s.follower_meta.mass, s.lead_meta.mass) for s in seeds}
    for got, want in ((reduced.matrices, dense),
                      (reweight(reduced.matrices, grid, target),
                       [m.at(rows, target) for m in dense])):
        for m, d in zip(got, want, strict=True):
            assert_cells(m, d)
            assert m.crash_mass.hex() == d.crash_mass.hex()
        if not any(d.crashed.any() for d in want):
            continue
        weights, _ = prevalence_weights(got)
        samples = weighted_crash_samples(got, masses, weights)
        oracle = dense_crash_samples(want, masses, weights)
        assert (samples.seed_ids, samples.counts) == (oracle.seed_ids, oracle.counts)
        assert samples.delta_v.tobytes() == oracle.delta_v.tobytes()
        assert samples.weight.tobytes() == oracle.weight.tobytes()


@settings(max_examples=100, deadline=None)
@given(v_lead=st.floats(0.0, 30.0), closing=st.floats(0.05, 5.0),
       error=st.floats(-2.0, 5.0), gap=st.floats(0.1, 20.0),
       onset=st.floats(0.0, 3.0))
def test_every_crash_closes(v_lead, closing, error, gap, onset):
    """Every crash cell of sweep_seed, and every crashing no-response
    outcome, has v1 > v2, so its delta-v is > 0: `scenario.delta_v` relies
    on it and checks nothing. The lead's recorded speed is off its motion
    by `error`, as a reconstruction's can be, so some first overlaps find
    the lead the faster."""
    cf = make_cf(v_lead + closing, v_lead, gap, duration=8.0)
    cf.lead.speed = np.maximum(cf.lead.speed + error, 0.0)
    kin = SeedKinematics(cf)
    grid = TestSweep.grid(21, decels=(1.0, 3.0, 6.0, 9.0))
    m = sweep_seed(kin, grid, onset + grid.axis1, -23.04)
    assert np.all(m.v1[m.crashed] > m.v2[m.crashed])
    nr = kin.no_response
    assert not nr.crashed or nr.v1 > nr.v2


@settings(max_examples=30, deadline=None)
@given(rng_seed=st.integers(0, 2**32 - 1),
       model=st.sampled_from(["cbm", "blom"]),
       lead=st.sampled_from(["braking", "non_braking", "standstill"]),
       v_lead=st.floats(0.0, 14.0), gap=st.floats(2.0, 60.0),
       onset=st.floats(0.0, 3.0))
def test_compact_matrices_expand_to_the_dense_ones_bitwise(
        rng_seed, model, lead, v_lead, gap, onset):
    """load_matrices(save_matrices(m)) gives back the matrices bit for bit:
    their live rows, cells and no-response outcomes. Besides the campaign's
    seeds there are three constructed ones on its grid: a follower that
    never responds (no live row, and the no-response run crashes), one
    slower than its lead (no live row, and no crash), and one braking from
    `onset` on."""
    seeds = list(synthesize_seeds(SynthesisConfig(
        n_seeds=2, lead_mix={"braking": 1, lead: 1}), rng_seed))
    cfg = CampaignConfig(model=model)
    result = run_campaign(seeds, cfg, glance=shrp2_like_glances(),
                          decels=shrp2_like_decels())
    grid, matrices, no_response = result.grid, result.matrices, swept(result)
    for sid, v_foll, v_ahead, start in (("x_never", 20.0, v_lead, math.inf),
                                        ("y_slow", v_lead, 20.0, onset),
                                        ("z_brakes", 20.0, v_lead, onset)):
        kin = SeedKinematics(make_cf(v_foll, v_ahead, gap, duration=12.0))
        kin.id = sid
        matrices.append(sweep_seed(kin, grid, start + grid.axis1,
                                   cfg.cbm.jerk_mean))
        no_response[sid] = kin.no_response
    by_id = {m.seed_id: m for m in matrices}
    assert not len(by_id["x_never"].rows) and no_response["x_never"].crashed
    assert not len(by_id["y_slow"].rows) and not no_response["y_slow"].crashed
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "matrices.npy"
        save_matrices(matrices, grid, path)
        n_records = len(np.load(path))
        loaded = load_matrices(path, grid, no_response)
    assert n_records == sum(len(m.rows) for m in matrices)
    assert [m.seed_id for m in loaded] == sorted(by_id)
    for got in loaded:
        assert got.grid is grid
        assert_same_matrix(got, by_id[got.seed_id])


def test_load_matrices_memory_follows_its_records(tmp_path):
    """load_matrices holds the records' cells, not a dense matrix per
    seed: 200 seeds with one live row each take as much memory on a grid of
    2 rows as on one of 1,000, whose dense arrays would take 21.6 MB."""
    n2, peaks = 6, {}
    for n1 in (2, 1000):
        grid = CampaignGrid(0.1 * np.arange(n1), np.full(n1, 1 / n1),
                            1.5 * np.arange(1, n2 + 1), np.full(n2, 1 / n2))
        crashed = np.ones((1, n2), dtype=bool)
        v1, v2 = np.full((1, n2), 9.0), np.full((1, n2), 1.0)
        matrices = [OutcomeMatrix(f"s{k:03d}", grid, np.array([1]), crashed, v1, v2,
                                  crashed, NO_CRASH) for k in range(200)]
        path = tmp_path / f"{n1}.npy"
        save_matrices(matrices, grid, path)
        loaded, peaks[n1] = traced_peak(load_matrices, path, grid,
                                        {m.seed_id: NO_CRASH for m in matrices})
        assert len(loaded) == 200 and loaded[0].cells("crashed").shape == (n1, n2)
    assert peaks[1000] <= 1.05 * peaks[2], peaks
    assert peaks[1000] < 200 * 1000 * n2 * (1 + 8 + 8 + 1) / 20, peaks


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
            assert abs(r.matrix.grid.p_cell.sum() - 1.0) <= 1e-12

    def test_blom_excludes_ineligible(self, small_seeds, decels):
        cfg = CampaignConfig(model="blom")
        result = run_campaign(list(small_seeds), cfg, decels=decels)
        from rearsim.scenario import LEAD_BRAKING
        expected_excluded = sum(
            1 for r in result.results if r.lead_behavior != LEAD_BRAKING)
        assert len(result.excluded_ids) == expected_excluded > 0
        for r in result.results:
            if not r.excluded:
                assert r.matrix.grid is result.grid
                assert result.grid.axis1.shape == (25,)
                assert r.theoretical_cells == 25 * 6

    def test_blom_all_standstill_is_model_undefined(self, decels):
        cfg_synth = SynthesisConfig(n_seeds=3, lead_mix={"standstill": 3})
        seeds = list(synthesize_seeds(cfg_synth, 11))
        with pytest.raises(ModelUndefinedError):
            run_campaign(seeds, CampaignConfig(model="blom"), decels=decels)

    def test_campaign_deterministic_and_worker_invariant(
            self, small_seeds, glances, decels, tmp_path):
        cfg = CampaignConfig()
        paths = []
        for tag, workers in (("a", 1), ("b", 1), ("c", 2)):
            result = run_campaign(list(small_seeds), cfg, glance=glances,
                                  decels=decels, workers=workers)
            path = tmp_path / f"{tag}.npy"
            save_matrices(result.matrices, result.grid, path)
            paths.append(path)
        blob = paths[0].read_bytes()
        assert paths[1].read_bytes() == blob
        assert paths[2].read_bytes() == blob

    @pytest.mark.parametrize("cpus,n_seeds", [(None, 12), (3, 12), (64, 2), (1, 12)])
    def test_pool_is_no_larger_than_the_cpus_or_the_seeds(
            self, cpus, n_seeds, small_seeds, glances, decels, monkeypatch):
        """A pool starts all its processes at its first task, so 64 workers
        asked for get min(64, usable CPUs, seeds), and one gets no pool.
        The pool is a stand-in that records its size and starts no
        process; cpus None keeps this host's usable CPUs."""
        import concurrent.futures
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        if cpus is not None:
            monkeypatch.setattr(engine, "usable_cpus", lambda: cpus)
        seeds = list(small_seeds[:n_seeds])
        want = min(64, engine.usable_cpus(), n_seeds)
        result = run_campaign(seeds, CampaignConfig(), glance=glances,
                              decels=decels, workers=64)
        assert sizes == ([want] if want > 1 else [])
        assert [r.seed_id for r in result.results] == sorted(s.id for s in seeds)

    def test_seed_refs_give_the_results_of_loaded_seeds(
            self, small_seeds, glances, decels, tmp_path):
        """Workers that load their own seeds from refs return what the
        loaded seeds give, in id order, whatever the file names."""
        for k, seed in enumerate(small_seeds):
            save_seed(seed, tmp_path / f"{len(small_seeds) - k:02d}.csv")
        refs = load_seed_refs(tmp_path)
        assert [r.path.name for r in refs] != sorted(r.path.name for r in refs)
        cfg = CampaignConfig()
        want = run_campaign(list(small_seeds), cfg, glance=glances, decels=decels)
        for workers in (1, 2):
            got = run_campaign(refs, cfg, glance=glances, decels=decels,
                               workers=workers)
            for a, b in zip(got.results, want.results, strict=True):
                assert (a.seed_id, a.anchor, a.no_response, a.seed_delta_v_kmh,
                        a.follower_mass, a.lead_mass) == (
                    b.seed_id, b.anchor, b.no_response, b.seed_delta_v_kmh,
                    b.follower_mass, b.lead_mass)
                assert_same_matrix(a.matrix, b.matrix)

    def test_matrices_round_trip(self, small_seeds, glances, decels, tmp_path):
        cfg = CampaignConfig()
        result = run_campaign(list(small_seeds[:3]), cfg, glance=glances,
                              decels=decels, workers=2)
        path = tmp_path / "m.npy"
        save_matrices(result.matrices, result.grid, path)
        grid = grid_round_trip(result.grid)
        assert_bitwise(grid, result.grid, GRID_FIELDS + ("p_cell",))
        loaded = load_matrices(path, grid, swept(result))
        assert len(loaded) == 3
        for orig, back in zip(result.matrices, loaded, strict=True):
            assert orig.grid is result.grid and back.grid is grid
            assert_same_matrix(back, orig)
            assert back.crash_mass == orig.crash_mass
        # one little-endian record per live row, seed by seed, rows ascending
        records = np.load(path)
        assert records.dtype == np.dtype([
            ("seed_id", "<U5"), ("axis1_index", "<i8"), ("crashed", "u1", (6,)),
            ("v1", "<f8", (6,)), ("v2", "<f8", (6,)), ("max_severity", "u1", (6,))])
        assert list(zip(records["seed_id"].tolist(), records["axis1_index"].tolist())) == [
            (m.seed_id, row) for m in result.matrices for row in m.rows.tolist()]

    def test_matrices_without_live_rows_write_no_record(self, small_seeds, glances,
                                                        decels, tmp_path):
        result = run_campaign(list(small_seeds[:2]), CampaignConfig(), glance=glances,
                              decels=decels)
        dead = [replace(m, rows=m.rows[:0], **{name: getattr(m, name)[:0]
                                               for name in MATRIX_FIELDS})
                for m in result.matrices]
        path = tmp_path / "m.npy"
        save_matrices(dead, result.grid, path)
        assert np.load(path).shape == (0,)
        assert np.load(path).dtype["crashed"].shape == (6,)
        for m, want in zip(load_matrices(path, result.grid, swept(result)), dead,
                           strict=True):
            assert_same_matrix(m, want)


@pytest.fixture(scope="module")
def paper_baseline(paper_mix_seeds, glances, decels, tmp_path_factory):
    """The uncut paper-mix campaign, in memory and after a round trip of
    its grid through JSON and its matrices through matrices.npy."""
    result = run_campaign(list(paper_mix_seeds), CampaignConfig(),
                          glance=glances, decels=decels)
    path = tmp_path_factory.mktemp("baseline") / "matrices.npy"
    save_matrices(result.matrices, result.grid, path)
    return result, load_matrices(path, grid_round_trip(result.grid),
                                 swept(result))


def test_paper_mix_counters_and_matrices_are_pinned(paper_baseline, tmp_path):
    """The 103-seed CBM campaign's deterministic counters and matrices file.
    A change that moves any of them changes outputs: update the values and
    say why in CHANGES.md."""
    result, _ = paper_baseline
    assert (result.kernel_calls, result.theoretical_cells,
            result.crash_cells) == (9799, 41406, 39167)
    path = tmp_path / "matrices.npy"
    save_matrices(result.matrices, result.grid, path)
    data = path.read_bytes()
    assert len(data) == 220032
    assert hashlib.sha256(data).hexdigest() == (
        "b100d5215f0818dfac6ad840efbedf83b749eb9373e016ba5e9398def96cf283")


def test_load_matrices_takes_rows_in_any_order(paper_baseline, tmp_path):
    result, loaded = paper_baseline
    path = tmp_path / "matrices.npy"
    save_matrices(result.matrices, result.grid, path)
    records = np.load(path)
    np.save(path, records[np.random.default_rng(3).permutation(len(records))])
    for want, got in zip(loaded, load_matrices(path, result.grid, swept(result)),
                         strict=True):
        assert_same_matrix(got, want)


class TestReweight:
    @pytest.mark.parametrize("cut_at", [3.0, 2.0, 1.0, 0.5, None])
    def test_equals_cut_campaign_bitwise(self, cut_at, paper_baseline,
                                         paper_mix_seeds, glances, decels):
        result, loaded = paper_baseline
        grid = loaded[0].grid
        target = grid
        if cut_at is not None:
            result = run_campaign(list(paper_mix_seeds), CampaignConfig(),
                                  glance=cut_glances(glances, cut_at),
                                  decels=decels)
            target = CampaignGrid(*cbm_axes(cut_glances(glances, cut_at)),
                                  grid.decels, grid.decel_probs)
        assert_bitwise(target, result.grid, GRID_FIELDS + ("p_cell",))
        reweighted = reweight(loaded, grid, target)
        assert [m.seed_id for m in reweighted] == [m.seed_id for m in result.matrices]
        for want, got in zip(result.matrices, reweighted):
            assert got.grid is target
            assert_same_matrix(got, want)
            assert got.crash_mass == want.crash_mass
            # loaded and reweighted, a matrix still counts its kernel calls
            assert got.kernel_calls == want.kernel_calls

    def test_unsorted_decel_file_order_is_kept(self, paper_baseline,
                                               paper_mix_seeds, glances,
                                               decels, tmp_path):
        """A campaign under the reversed deceleration file keeps that
        order through summary.json and matrices.npy."""
        _, loaded = paper_baseline
        flipped = DecelDistribution(decels.d_values[::-1], decels.probs[::-1])
        result = run_campaign(list(paper_mix_seeds[:8]), CampaignConfig(),
                              glance=glances, decels=flipped)
        path = tmp_path / "matrices.npy"
        save_matrices(result.matrices, result.grid, path)
        grid = grid_round_trip(result.grid)
        assert np.array_equal(grid.decels, flipped.d_values)
        back = load_matrices(path, grid, swept(result))
        for orig, got, ascending in zip(result.matrices, back, loaded):
            assert got.seed_id == ascending.seed_id
            assert_same_matrix(got, orig)
            for name in MATRIX_FIELDS:
                assert np.array_equal(got.cells(name), ascending.cells(name)[:, ::-1],
                                      equal_nan=True), name

    def test_other_glance_distribution_rejected(self, paper_baseline):
        """An overshoot axis that is not a bitwise subset of the grid's."""
        _, loaded = paper_baseline
        grid = loaded[0].grid
        nudged = grid.axis1.copy()
        nudged[3] = np.nextafter(nudged[3], 1.0)
        for axis1 in (nudged, np.append(grid.axis1, grid.axis1[-1] + 0.1)):
            target = CampaignGrid(axis1, np.full(len(axis1), 1 / len(axis1)),
                                  grid.decels, grid.decel_probs)
            with pytest.raises(ValidationError):
                reweight(loaded, grid, target)

    def test_other_decel_probabilities_reweight_the_same_outcomes(
            self, paper_baseline):
        _, loaded = paper_baseline
        grid = loaded[0].grid
        tilted = CampaignGrid(grid.axis1, grid.axis1_probs, grid.decels,
                              grid.decel_probs[::-1])
        for want, got in zip(loaded, reweight(loaded, grid, tilted)):
            assert_same_matrix(got, want)
            assert got.grid is tilted


SMALL_GRID = {"axis1": [0.0, 0.1], "axis1_probs": [0.8, 0.2],
              "decels": [2.0, 3.5], "decel_probs": [0.5, 0.5]}
# the record of a live row on SMALL_GRID: save_matrices's format
RECORD = [("seed_id", "<U2"), ("axis1_index", "<i8"), ("crashed", "u1", (2,)),
          ("v1", "<f8", (2,)), ("v2", "<f8", (2,)), ("max_severity", "u1", (2,))]
NAN2 = (math.nan, math.nan)


def record(sid="s1", row=0, crashed=(0, 0), v1=NAN2, v2=NAN2, severity=(0, 0)):
    """One record's fields; by default seed s1's row 0 without a crash."""
    return sid, row, crashed, v1, v2, severity


def records(*rows) -> np.ndarray:
    return np.array(list(rows) or [record()], dtype=RECORD)


def record_type(**changes) -> np.dtype:
    """RECORD with the named fields' (format[, shape]) replaced, dropped
    where None, or added at the end."""
    spec = {name: tuple(rest) for name, *rest in RECORD}
    spec.update(changes)
    return np.dtype([(name, *rest) for name, rest in spec.items() if rest is not None])


def recast(array: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """`array`'s records as `dtype`, field by field by name; a new field
    is zero."""
    out = np.zeros(array.shape, dtype=dtype)
    for name in set(dtype.names) & set(array.dtype.names):
        out[name] = array[name]
    return out


def npy(array: np.ndarray) -> bytes:
    buf = io.BytesIO()
    np.save(buf, array, allow_pickle=array.dtype.hasobject)
    return buf.getvalue()


def header(shape="(1,)", descr=repr(np.lib.format.dtype_to_descr(np.dtype(RECORD)))):
    """The text of a .npy header: by default that of one RECORD."""
    return f"{{'descr': {descr}, 'fortran_order': False, 'shape': {shape}, }}"


def raw_npy(text: str) -> bytes:
    """A version 1.0 .npy file with the header `text`, padded as NumPy
    pads it, and one record."""
    text += " " * (-(11 + len(text)) % 64) + "\n"
    return (b"\x93NUMPY\x01\x00" + len(text).to_bytes(2, "little") + text.encode()
            + records().tobytes())


def _unpickled():
    raise AssertionError("load_matrices unpickled an object")


class _PickleBomb:
    """An object whose unpickling fails the test."""

    def __reduce__(self):
        return _unpickled, ()


def write_seeds_summary(path, eligible: dict[str, bool]) -> None:
    """A seeds_summary.csv of seeds whose no-response runs never crash."""
    path.write_text("".join(
        [",".join(SEEDS_SUMMARY_HEADER) + "\n"]
        + [f"{sid},{int(ok)},braking,,0,1500.0,1500.0,,0,,,,0,,0,0\n"
           for sid, ok in eligible.items()]))


GOOD = npy(records(record(), record(row=1)))
CRASH = record(crashed=(1, 0), v1=(9.0, math.nan), v2=(1.0, math.nan))
RECORD_1 = r"matrices\.npy: record 1 \(seed s1, axis1 row 0\): "
UNREADABLE = r"matrices\.npy: not a \.npy file of outcome records: "
# any other shape or record type
OTHER = (r"matrices\.npy: expected a 1-D array of records .* on the grid's 2 "
         r"deceleration bins, got a ")
# name: (matrices.npy, the grid in summary.json, the error[, the eligible
# flag of each seed in seeds_summary.csv, if not s1's alone])
MALFORMED_MATRICES = {
    "empty": (b"", SMALL_GRID, UNREADABLE + "EOF"),
    "bad_header": (b"seed,axis1_index\n", SMALL_GRID, UNREADABLE + "the magic"),
    "truncated_in_magic": (GOOD[:3], SMALL_GRID, UNREADABLE + "EOF"),
    "truncated_in_header": (GOOD[:20], SMALL_GRID, UNREADABLE + "EOF"),
    "truncated_row": (GOOD[:-1], SMALL_GRID, UNREADABLE + "Failed to read"),
    # a header that declares more records than memory can hold
    "shape_beyond_memory": (raw_npy(header(shape="(10000000000000,)")), SMALL_GRID,
                            UNREADABLE + "Unable to allocate"),
    # headers on which NumPy's parser raises other than ValueError
    "header_not_a_dict": (raw_npy("^" + header()[1:]), SMALL_GRID,
                          UNREADABLE + r"\('EOF in multi-line statement"),
    "header_keys_not_text": (raw_npy(header().replace("'descr'", "b'descr'")),
                             SMALL_GRID, UNREADABLE + "'<' not supported"),
    "descr_not_a_dtype": (raw_npy(header().replace("'|u1'", "'|01'", 1)), SMALL_GRID,
                          UNREADABLE + "leading zeros"),
    "bytes_after_records": (GOOD + b"\0", SMALL_GRID,
                            r"matrices\.npy: bytes follow the records"),
    "object_dtype": (npy(np.array([_PickleBomb()], dtype=object)), SMALL_GRID,
                     UNREADABLE + "Object arrays"),
    "two_dimensional": (npy(np.stack([records(), records()])), SMALL_GRID,
                        OTHER + "2-D"),
    "fortran_order": (npy(np.asfortranarray(np.stack(
        [records(record(), record(row=1))] * 2, axis=1))),
                      SMALL_GRID, OTHER + "2-D"),
    "not_records": (npy(np.zeros(3)), SMALL_GRID, OTHER + "1-D"),
    "missing_field": (npy(recast(records(), record_type(max_severity=None))),
                      SMALL_GRID, OTHER + "1-D"),
    "extra_field": (npy(recast(records(), record_type(note=("<U3",)))),
                    SMALL_GRID, OTHER + "1-D"),
    "seed_id_as_bytes": (npy(recast(records(), record_type(seed_id=("S2",)))),
                         SMALL_GRID, OTHER + "1-D"),
    "non_numeric": (npy(recast(records(CRASH), record_type(v1=("<U4", (2,))))),
                    SMALL_GRID, OTHER + "1-D"),
    "index_not_integer": (npy(recast(records(), record_type(axis1_index=("<f8",)))),
                          SMALL_GRID, OTHER + "1-D"),
    "flag_as_bool": (npy(recast(records(), record_type(crashed=("?", (2,))))),
                     SMALL_GRID, OTHER + "1-D"),
    "big_endian": (npy(recast(records(CRASH), record_type(v1=(">f8", (2,))))),
                   SMALL_GRID, OTHER + "1-D"),
    "other_n2": (npy(np.array([record(crashed=(0, 0, 0), v1=NAN2 + NAN2[:1],
                                      v2=NAN2 + NAN2[:1], severity=(0, 0, 0))],
                              dtype=record_type(**{name: (fmt, (3,)) for name, fmt, *_
                                                   in RECORD[2:]}))),
                 SMALL_GRID, OTHER + r"1-D array of .*'crashed', 'u1', \(3,\)"),
    "crashed_not_a_flag": (npy(records(record(row=1), record(crashed=(2, 0)))),
                           SMALL_GRID, RECORD_1 + "crashed holds a byte other"),
    "severity_not_a_flag": (npy(records(record(row=1), CRASH[:-1] + ((2, 0),))),
                            SMALL_GRID, RECORD_1 + "max_severity holds a byte"),
    "crash_without_speed": (npy(records(record(row=1), record(crashed=(1, 0)))),
                            SMALL_GRID, RECORD_1 + "a crash must have finite"),
    "crash_infinite_speed": (
        npy(records(record(row=1), record(crashed=(1, 0), v1=(math.inf, math.nan),
                                          v2=(1.0, math.nan)))),
        SMALL_GRID, RECORD_1 + "a crash must have finite speeds"),
    "crash_not_faster": (
        npy(records(record(row=1), record(crashed=(0, 1), v1=(math.nan, 2.0),
                                          v2=(math.nan, 2.0)))),
        SMALL_GRID, RECORD_1 + r"a crash must have finite speeds with v1 > v2"),
    "no_crash_with_fields": (
        npy(records(record(row=1), record(v1=(1.0, math.nan), v2=(0.5, math.nan),
                                          severity=(1, 0)))),
        SMALL_GRID, RECORD_1 + "a cell without a crash"),
    "no_crash_with_speed": (npy(records(record(row=1), record(v2=(math.nan, 1.0)))),
                            SMALL_GRID, RECORD_1 + "a cell without a crash"),
    "no_crash_at_max_severity": (npy(records(record(row=1), record(severity=(0, 1)))),
                                 SMALL_GRID, RECORD_1 + "a cell without a crash"),
    "repeated_cell": (npy(records(record(row=1), record(), record())), SMALL_GRID,
                      r"matrices\.npy: record 2 \(seed s1, axis1 row 0\): an "
                      r"earlier record holds the same row"),
    "index_out_of_range": (npy(records(record(row=1), record(row=2))), SMALL_GRID,
                           r"matrices\.npy: record 1 \(seed s1, axis1 row 2\): "
                           r"the grid has 2 axis1 rows"),
    "negative_index": (npy(records(record(row=1), record(row=-1))), SMALL_GRID,
                       r"matrices\.npy: record 1 \(seed s1, axis1 row -1\)"),
    "summary_without_grid": (GOOD, None, r"summary\.json: no campaign grid"),
    # a finite grid gives every seed a finite crash mass, so prevalence
    # weighting and assess-dms agree on the seeds without crashes
    "grid_not_finite": (GOOD, {**SMALL_GRID, "decel_probs": [math.nan, 0.5]},
                        r"summary\.json: malformed campaign grid"),
    "seed_not_in_summary": (npy(records(record(), record("s2"))), SMALL_GRID,
                            r"matrices\.npy: record 1 \(seed s2, axis1 row 0\): "
                            r"the seed was not swept"),
    "seed_excluded": (GOOD, SMALL_GRID, r"matrices\.npy: record 0 \(seed s1, "
                                        r"axis1 row 0\): the seed was not swept",
                      {"s1": False}),
}


class TestLoadMatricesParseErrors:
    @pytest.mark.parametrize("name", sorted(MALFORMED_MATRICES))
    def test_malformed_file_raises_parse_error(self, name, tmp_path, capsys):
        """load_matrices (or the grid) raises ParseError naming the file,
        and the record where one is at fault, without unpickling; weight
        exits 2 with the same error and no traceback."""
        data, grid, error, *eligible = MALFORMED_MATRICES[name]
        eligible = eligible[0] if eligible else {"s1": True}
        sim = tmp_path / "sim"
        sim.mkdir()
        (sim / "matrices.npy").write_bytes(data)
        write_seeds_summary(sim / "seeds_summary.csv", eligible)
        summary = {"model": "cbm", "no_response_fraction": 0.0,
                   "n_seeds": len(eligible)}
        if grid is not None:
            summary["grid"] = grid
        write_json(sim / "summary.json", summary)
        with pytest.raises(ParseError, match=error):
            _simulated_matrices(sim, summary)
        capsys.readouterr()
        assert main(["weight", "--simulate-out", str(sim),
                     "--out", str(tmp_path / "weight")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and re.search(error, err)
        assert "Traceback" not in err

    def test_good_file_loads(self, tmp_path):
        """The file the malformed cases edit is well formed: its two rows
        are seed s1's live rows, without crashes."""
        path = tmp_path / "matrices.npy"
        path.write_bytes(GOOD)
        (m,) = load_matrices(path, grid_round_trip(CampaignGrid(**SMALL_GRID)),
                             {"s1": NO_CRASH})
        assert m.rows.tolist() == [0, 1] and not m.crashed.any()
        assert np.isnan(m.v1).all()

    def test_python_2_header_loads_without_a_warning(self, tmp_path):
        """NumPy warns that it parsed a header with a Python 2 long, but
        the records are well formed."""
        path = tmp_path / "matrices.npy"
        path.write_bytes(raw_npy(header(shape="(1L,)")))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (m,) = load_matrices(path, grid_round_trip(CampaignGrid(**SMALL_GRID)),
                                 {"s1": NO_CRASH})
        assert m.rows.tolist() == [0]

    def test_truncated_row_names_its_line(self, tmp_path):
        """A file cut inside its last record is refused whole; an error in
        one record names its index among the records."""
        path = tmp_path / "matrices.npy"
        grid = grid_round_trip(CampaignGrid(**SMALL_GRID))
        path.write_bytes(GOOD[:-1])
        with pytest.raises(ParseError, match=r"matrices\.npy: .*Failed to read"):
            load_matrices(path, grid, {"s1": NO_CRASH})
        path.write_bytes(npy(records(record(), record(row=1), CRASH)))
        with pytest.raises(ParseError, match=r"matrices\.npy: record 2 \(seed s1, "
                                             r"axis1 row 0\): an earlier record"):
            load_matrices(path, grid, {"s1": NO_CRASH})
