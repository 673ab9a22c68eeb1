import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate

from rearsim.drivers import (
    CbmConfig,
    blom_onsets,
    brake_deceleration,
    cbm_onsets,
    discretize_reaction_time,
)
from rearsim.errors import ModelUndefinedError, ValidationError


def cbm_onset(anchor, overshoot, cfg):
    return float(cbm_onsets(anchor, np.array([overshoot]), cfg)[0])


class TestCbmOnset:
    def test_attentive_driver(self):
        assert cbm_onset(2.0, 0.0, CbmConfig()) == pytest.approx(2.5)

    def test_with_overshoot(self):
        assert cbm_onset(2.0, 1.3, CbmConfig()) == pytest.approx(3.8)

    def test_slow_response_variant(self):
        cfg = CbmConfig(response_delay=0.8)
        assert cbm_onset(2.0, 0.0, cfg) == pytest.approx(2.8)

    def test_absent_anchor_routes_to_no_response(self):
        onsets = cbm_onsets(None, 0.1 * np.arange(68), CbmConfig())
        assert onsets.shape == (68,)
        assert np.all(onsets == math.inf)

    def test_adds_anchor_and_overshoot_first(self):
        # (anchor + overshoot) + delay differs in the last bit from
        # anchor + (overshoot + delay) on some rows of this axis
        axis1 = 0.1 * np.arange(68)
        got = cbm_onsets(1.7, axis1, CbmConfig())
        assert got.tobytes() == ((1.7 + axis1) + 0.5).tobytes()
        assert got.tobytes() != (1.7 + (axis1 + 0.5)).tobytes()

    @given(anchor=st.floats(0, 10), overshoot=st.floats(0, 7),
           delay=st.floats(0, 2), bump=st.floats(0.01, 1))
    def test_strictly_increasing_in_each_argument(self, anchor, overshoot,
                                                  delay, bump):
        cfg = CbmConfig(response_delay=delay)
        axis = np.array([overshoot, overshoot + bump])
        base, later = cbm_onsets(anchor, axis, cfg)
        assert later > base
        assert cbm_onsets(anchor + bump, axis, cfg)[0] > base
        assert cbm_onsets(anchor, axis,
                          CbmConfig(response_delay=delay + bump))[0] > base


class TestBlomOnset:
    def test_sum(self):
        assert blom_onsets(1.0, np.array([1.2]))[0] == pytest.approx(2.2)

    def test_lowest_bin(self):
        dist = discretize_reaction_time()
        onsets = blom_onsets(1.0, dist.centers)
        assert onsets[0] == pytest.approx(1.2)
        assert np.all(np.diff(onsets) > 0)

    def test_undefined_without_brake_light(self):
        with pytest.raises(ModelUndefinedError):
            blom_onsets(None, np.array([1.0]))


class TestReactionTimeDistribution:
    def test_closed_form_parameters(self):
        m, v = 1.275, 0.36
        dist = discretize_reaction_time(m, v)
        mu_expected = math.log(m * m / math.sqrt(v + m * m))
        sigma_expected = math.sqrt(math.log(v / (m * m) + 1.0))
        assert dist.mu == pytest.approx(mu_expected, abs=1e-9)
        assert dist.sigma == pytest.approx(sigma_expected, abs=1e-9)
        assert dist.mu == pytest.approx(0.14293, abs=5e-6)
        assert dist.sigma == pytest.approx(0.44726, abs=5e-6)

    def test_25_bins_sum_to_one(self):
        dist = discretize_reaction_time(1.275, 0.36)
        assert len(dist.centers) == 25
        assert dist.centers[0] == pytest.approx(0.2)
        assert dist.centers[-1] == pytest.approx(5.0)
        assert abs(dist.probs.sum() - 1.0) <= 1e-12

    def test_quadrature_oracle(self):
        """Bin masses equal the log-normal density integrated over each
        bin interval (independently via adaptive quadrature)."""
        dist = discretize_reaction_time(1.275, 0.36)
        mu, sigma = dist.mu, dist.sigma

        def pdf(x):
            return (1.0 / (x * sigma * math.sqrt(2 * math.pi))
                    * math.exp(-((math.log(x) - mu) ** 2) / (2 * sigma ** 2)))

        raw = []
        for c in dist.centers:
            lo, hi = c - 0.1, min(c + 0.1, 5.0)
            raw.append(integrate.quad(pdf, lo, hi)[0])
        raw = np.array(raw)
        raw /= raw.sum()
        assert np.abs(raw - dist.probs).max() < 1e-9

    def test_degenerate_variance_concentrates_at_m(self):
        dist = discretize_reaction_time(1.275, 1e-8)
        # 1.275 falls in the (1.1, 1.3] interval of the 1.2 s bin
        assert dist.probs[np.argmin(np.abs(dist.centers - 1.2))] > 0.999

    def test_unimodal_in_bin_index(self):
        dist = discretize_reaction_time(1.275, 0.36)
        peak = int(np.argmax(dist.probs))
        assert np.all(np.diff(dist.probs[: peak + 1]) >= 0)
        assert np.all(np.diff(dist.probs[peak:]) <= 0)

    def test_invalid_parameters(self):
        with pytest.raises(ValidationError):
            discretize_reaction_time(0.0, 0.36)
        with pytest.raises(ValidationError):
            discretize_reaction_time(1.0, -1.0)


class TestBrakeProfile:
    """The jerk ramp to a plateau, clip(|jerk| * (t - onset), 0, d_max)."""

    def test_zero_before_onset(self):
        d = brake_deceleration(np.array([0.0, 1.99, 2.0]), 2.0, -23.04, 9.0)
        assert d.tolist() == [0.0, 0.0, 0.0]

    def test_plateau_time(self):
        # |jerk| 23.04 to d_max 9 takes 9/23.04 = 0.390625 s exactly
        t_plateau = 1.0 + 9.0 / 23.04
        d = brake_deceleration(
            np.array([t_plateau - 1e-6, t_plateau, t_plateau + 1e-6]),
            1.0, -23.04, 9.0)
        assert d[0] < 9.0
        assert d[1] == pytest.approx(9.0, abs=1e-12)
        assert d[2] == 9.0

    def test_far_future_is_d_max(self):
        assert brake_deceleration(np.array([100.0]), 0.5, -23.04, 7.5)[0] == 7.5

    def test_continuous_nondecreasing(self):
        t = np.linspace(0, 3, 3001)
        d = brake_deceleration(t, 1.0, -23.04, 9.0)
        assert np.all(np.diff(d) >= 0)
        assert np.abs(np.diff(d)).max() < 0.05  # no jumps at 1 ms steps

    def test_never_responding_profile(self):
        d = brake_deceleration(np.array([0.0, 1e9]), math.inf, -23.04, 9.0)
        assert d.tolist() == [0.0, 0.0]

    def test_negative_zero_ramp_reads_zero(self):
        # np.clip would keep the sign of a -0.0 ramp value; the ramp's
        # max(a, 0) gives +0.0. Seed grids (t >= 0) never produce -0.0.
        d = brake_deceleration(np.array([-0.0]), 0.0, -23.04, 9.0)
        assert d.tobytes() == np.array([0.0]).tobytes()


@st.composite
def ramp_cases(draw):
    """A seed-like 10 ms grid from t0 >= 0, and an onset before its first
    sample, on a sample, between two samples, past its end, or never."""
    n = draw(st.integers(1, 400))
    t = draw(st.floats(0, 60)) + 0.01 * np.arange(n)
    k = draw(st.integers(0, n - 1))
    onset = draw(st.one_of(
        st.floats(1e-6, 30).map(lambda x: float(t[0]) - x),
        st.just(float(t[k])),
        st.floats(0, 1, exclude_min=True, exclude_max=True).map(
            lambda f: float(t[k]) + 0.01 * f),
        st.floats(1e-6, 30).map(lambda x: float(t[-1]) + x),
        st.just(math.inf)))
    return t, onset, draw(st.floats(-60, -1)), draw(st.floats(0.1, 15))


@given(ramp_cases())
def test_brake_deceleration_is_the_clipped_ramp_bitwise(case):
    t, onset, jerk, d_max = case
    want = np.clip(abs(jerk) * (t - onset), 0.0, d_max)
    assert brake_deceleration(t, onset, jerk, d_max).tobytes() == want.tobytes()


class TestCbmConfig:
    def test_defaults_match_published_values(self):
        cfg = CbmConfig()
        assert cfg.inv_tau_threshold == 0.2
        assert cfg.response_delay == 0.5
        assert cfg.jerk_mean == -23.04
        assert cfg.no_response_fraction == 0.10

    def test_validation(self):
        with pytest.raises(ValidationError):
            CbmConfig(response_delay=-0.1)
        with pytest.raises(ValidationError):
            CbmConfig(jerk_mean=1.0)
        with pytest.raises(ValidationError):
            CbmConfig(no_response_fraction=1.0)

    @pytest.mark.parametrize("key", ["inv_tau_threshold", "response_delay",
                                     "jerk_mean", "no_response_fraction"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, "0.5", True])
    def test_every_field_must_be_a_finite_number(self, key, value):
        # NaN would pass every range check, as each comparison with it is False
        with pytest.raises(ValidationError, match=f"{key} must be a finite number"):
            CbmConfig(**{key: value})
