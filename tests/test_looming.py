import math

import numpy as np
import pytest

from rearsim.looming import LoomingSeries, find_anchor, looming_series, optical_angle
from rearsim.scenario import (
    CounterfactualSeed,
    Trajectory,
    VehicleMeta,
    remove_evasive_maneuver,
)

from test_scenario import make_seed


def central_diff_theta_dot(t, theta):
    """Independent oracle: central finite differences of theta(t)."""
    out = np.empty_like(theta)
    out[1:-1] = (theta[2:] - theta[:-2]) / (t[2:] - t[:-2])
    out[0] = (theta[1] - theta[0]) / (t[1] - t[0])
    out[-1] = (theta[-1] - theta[-2]) / (t[-1] - t[-2])
    return out


def central_diff4_theta_dot(t, theta):
    """Fourth-order central stencil; truncation error stays below the
    comparison tolerance much closer to overlap than the 2nd-order one."""
    h = t[1] - t[0]
    out = np.full_like(theta, np.nan)
    out[2:-2] = (-theta[4:] + 8 * theta[3:-1] - 8 * theta[1:-3] + theta[:-4]) / (12 * h)
    return out


def make_cf(v_foll=20.0, v_lead=10.0, gap0=50.0, duration=4.0, width=1.8):
    """Counterfactual record built directly (no collision required)."""
    dt = 0.01
    n = int(round(duration / dt)) + 1
    t = dt * np.arange(n)
    meta = VehicleMeta(1500.0, width, 4.5)
    return CounterfactualSeed(
        id="cf", lead=Trajectory(t, gap0 + v_lead * t, np.full(n, v_lead), np.zeros(n)),
        follower=Trajectory(t, v_foll * t, np.full(n, v_foll), np.zeros(n)),
        lead_meta=meta, follower_meta=meta,
        lead_behavior_class="non-braking", lead_brake_onset=None,
        source_duration=duration)


class TestOpticalAngle:
    def test_width_two_at_range_one_is_right_angle(self):
        assert optical_angle(1.0, 2.0) == pytest.approx(math.pi / 2, abs=1e-15)

    def test_small_angle_regime(self):
        # far away the exact angle approaches w/R
        theta = optical_angle(100.0, 2.0)
        assert theta == pytest.approx(0.0200, abs=1e-4)
        assert theta == pytest.approx(2 * math.atan(0.01), abs=1e-15)

    def test_monotone_decreasing_in_range(self):
        ranges = np.geomspace(0.5, 1e4, 50)
        theta = optical_angle(ranges, 2.0)
        assert np.all(np.diff(theta) < 0)
        assert theta[-1] < 1e-3


class TestLoomingSeries:
    def test_zero_closing_speed_gives_zero_inv_tau(self):
        cf = make_cf(v_foll=15.0, v_lead=15.0, gap0=20.0)
        series = looming_series(cf)
        assert np.all(series.inv_tau == 0.0)

    def test_analytic_matches_central_difference(self):
        # constant 10 m/s closing, 2 m wide lead, moderate range: the
        # 2nd-order oracle is itself accurate here
        cf = make_cf(v_foll=20.0, v_lead=10.0, gap0=50.0, width=2.0, duration=2.5)
        series = looming_series(cf)
        oracle = central_diff_theta_dot(series.t, series.theta)
        assert np.abs(series.theta_dot[1:-1] - oracle[1:-1]).max() < 1e-6

    def test_scaling_width_and_range_matches_oracle(self):
        # doubling both the width and the range is not inv_tau-invariant;
        # both variants must track the finite-difference oracle
        for scale in (1.0, 2.0):
            cf = make_cf(v_foll=20.0, v_lead=10.0, gap0=50.0 * scale,
                         width=2.0 * scale, duration=2.5)
            series = looming_series(cf)
            oracle = central_diff_theta_dot(series.t, series.theta)
            assert np.abs(series.theta_dot[1:-1] - oracle[1:-1]).max() < 1e-6

    def test_on_synthesized_seeds(self, small_seeds):
        for seed in small_seeds:
            cf = remove_evasive_maneuver(seed)
            series = looming_series(cf)
            oracle = central_diff4_theta_dot(series.t, series.theta)
            r = cf.gap()[: len(series.t)]
            r_dot = cf.lead.speed[: len(series.t)] - cf.follower.speed[: len(series.t)]
            # exclude lead-speed kink samples (theta_dot jumps there, any
            # difference stencil smears) and the last meters before overlap
            # (the oracle's own truncation error blows up)
            accel = np.diff(r_dot, prepend=r_dot[0])
            kink = np.abs(np.diff(accel, prepend=accel[0])) > 1e-6
            for shift in (-2, -1, 1, 2):
                kink |= np.roll(kink, shift)
            # the stencil's truncation error grows as |Rdot|^5/R^6, so only
            # compare up to half a second before overlap
            ttc = np.where(r_dot < 0, r / np.maximum(-r_dot, 1e-9), np.inf)
            valid = ~np.isnan(oracle) & ~kink & (ttc >= 0.5)
            assert valid.sum() > 50
            err = np.abs(series.theta_dot[valid] - oracle[valid])
            assert err.max() < 1e-5

    def test_translation_invariance(self):
        seed = make_seed(v_foll=20.0, v_lead=10.0)
        cf1 = remove_evasive_maneuver(seed)
        series1 = looming_series(cf1)
        seed2 = make_seed(v_foll=20.0, v_lead=10.0)
        seed2.lead.pos = seed2.lead.pos + 1000.0
        seed2.follower.pos = seed2.follower.pos + 1000.0
        cf2 = remove_evasive_maneuver(seed2)
        series2 = looming_series(cf2)
        assert np.allclose(series1.inv_tau, series2.inv_tau, atol=1e-12)

    def test_truncates_at_overlap(self, small_seeds):
        """optical_angle sees only ranges > 0: the series stops at the
        first overlap."""
        for seed in small_seeds:
            cf = remove_evasive_maneuver(seed)
            series = looming_series(cf)
            gap = cf.gap()
            assert np.all(gap[: len(series.t)] > 0)
            assert len(series.t) == len(gap) or gap[len(series.t)] <= 0
            assert np.all(series.theta > 0)
            assert np.all(np.isfinite(series.inv_tau))


class TestFindAnchor:
    def test_never_crossing_returns_none(self):
        series = LoomingSeries(np.arange(5.0), np.ones(5), np.zeros(5), np.zeros(5))
        assert find_anchor(series, 0.2) is None

    def test_linear_interpolation(self):
        t = np.array([2.31, 2.32])
        series = LoomingSeries(t, np.ones(2), np.ones(2),
                               np.array([0.19, 0.21]))
        assert find_anchor(series, 0.2) == pytest.approx(2.315, abs=1e-12)

    def test_already_above_at_start(self):
        series = LoomingSeries(np.array([1.0, 2.0]), np.ones(2), np.ones(2),
                               np.array([0.5, 0.6]))
        assert find_anchor(series, 0.2) == 1.0

    def test_first_upward_crossing_wins_on_wobble(self):
        t = np.arange(5.0)
        inv_tau = np.array([0.1, 0.3, 0.15, 0.4, 0.5])
        series = LoomingSeries(t, np.ones(5), np.ones(5), inv_tau)
        anchor = find_anchor(series, 0.2)
        assert 0.0 < anchor < 1.0

    def test_threshold_monotonicity_on_synthesized_seeds(self, small_seeds):
        for seed in small_seeds:
            cf = remove_evasive_maneuver(seed)
            series = looming_series(cf)
            a_02 = find_anchor(series, 0.2)
            a_03 = find_anchor(series, 0.3)
            if a_02 is not None and a_03 is not None:
                assert a_03 >= a_02 - 1e-12
