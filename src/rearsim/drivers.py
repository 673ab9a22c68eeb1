"""Driver response models and the brake they apply.

A model gives one brake onset per value of its axis 1. The glance-based
model (CBM) brakes at glance anchor + glance overshoot + response delay,
over the overshoot axis of `cbm_axes`; the brake-light model (BLOM) brakes
at the lead's brake-light onset + reaction time, over the discretized
reaction-time axis. From its onset the driver ramps the deceleration up at
constant jerk to a plateau (`brake_deceleration`). The engine calls these
definitions; no other module restates them."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import GlanceDistribution, overshoot_transform
from .errors import ModelUndefinedError, ValidationError
from .manifest import check_fields

REACTION_BIN_STEP = 0.2    # s
REACTION_BIN_FIRST = 0.2   # s, lowest bin center
REACTION_BIN_LAST = 5.0    # s, distribution is cut here
DEFAULT_REACTION_M = 1.275   # s, mean of the underlying reaction time
DEFAULT_REACTION_V = 0.36    # s^2, its variance (0.6^2)


@dataclass(frozen=True)
class CbmConfig:
    """Parameters of the glance-based crash-causation model."""

    inv_tau_threshold: float = 0.2   # 1/s, glance anchor level
    response_delay: float = 0.5      # s, look-back to brake onset
    jerk_mean: float = -23.04        # m/s^3, brake ramp-up; the measured
                                     # SD of 0.74 is not sampled
    no_response_fraction: float = 0.10

    def __post_init__(self):
        check_fields(self)
        if self.response_delay < 0:
            raise ValidationError("response_delay must be >= 0")
        if self.jerk_mean >= 0:
            raise ValidationError("jerk_mean must be negative")
        if not 0 <= self.no_response_fraction < 1:
            raise ValidationError("no_response_fraction must be in [0, 1)")
        if self.inv_tau_threshold <= 0:
            raise ValidationError("inv_tau_threshold must be positive")


def brake_deceleration(t: np.ndarray, onset: float, jerk: float,
                       d_max: float) -> np.ndarray:
    """Deceleration magnitude at the times `t`: a ramp at constant jerk
    from the brake onset up to the plateau d_max,
    clip(|jerk| * (t - onset), 0, d_max). An infinite onset (no response)
    gives zeros."""
    a = t - onset
    a *= abs(jerk)
    return np.minimum(np.maximum(a, 0.0, out=a), d_max, out=a)


def cbm_axes(glance: GlanceDistribution) -> tuple[np.ndarray, np.ndarray]:
    """The glance-based model's axis 1 and its marginal: overshoot 0 (the
    attentive driver) with the on-road mass, then the off-road overshoots."""
    over = overshoot_transform(glance)
    axis1 = np.concatenate([[0.0], over.overshoots])
    probs = np.concatenate([[over.on_road_mass], over.probs])
    return axis1, probs


def cbm_onsets(anchor: float | None, overshoots: np.ndarray,
               cfg: CbmConfig) -> np.ndarray:
    """Brake onset per overshoot: glance anchor + overshoot + response
    delay. Without an anchor the urgency never reaches the threshold before
    overlap, so the driver gets no cue and every onset is inf (the
    no-response outcome)."""
    return (math.inf if anchor is None else anchor) + overshoots + (
        cfg.response_delay)


def blom_onsets(brake_light_onset: float | None,
                reaction_times: np.ndarray) -> np.ndarray:
    """Brake onset per reaction time: lead brake-light onset + reaction
    time."""
    if brake_light_onset is None:
        raise ModelUndefinedError(
            "brake-light model is undefined when the lead vehicle never "
            "brakes or stands still for the whole event")
    return brake_light_onset + reaction_times


@dataclass(eq=False)
class ReactionTimeDistribution:
    """Log-normal reaction time discretized on 0.2 s bins up to 5 s."""

    centers: np.ndarray  # s
    probs: np.ndarray    # sum to 1 after tail truncation
    m: float
    v: float
    mu: float
    sigma: float


def _lognorm_cdf(x: float, mu: float, sigma: float) -> float:
    if x <= 0:
        return 0.0
    return 0.5 * (1.0 + math.erf((math.log(x) - mu) / (sigma * math.sqrt(2.0))))


def discretize_reaction_time(m: float = DEFAULT_REACTION_M,
                             v: float = DEFAULT_REACTION_V) -> ReactionTimeDistribution:
    """Discretize the log-normal with mean m and variance v into 25 bins of
    0.2 s (centers 0.2..5.0). Bin mass is the density integrated over
    center +/- 0.1 s; the last bin is truncated at 5 s, and everything cut
    away is recovered by renormalization."""
    if m <= 0 or v <= 0:
        raise ValidationError("reaction-time m and v must be positive")
    mu = math.log(m * m / math.sqrt(v + m * m))
    sigma = math.sqrt(math.log(v / (m * m) + 1.0))

    n = int(round((REACTION_BIN_LAST - REACTION_BIN_FIRST) / REACTION_BIN_STEP)) + 1
    centers = REACTION_BIN_FIRST + REACTION_BIN_STEP * np.arange(n)
    half = REACTION_BIN_STEP / 2.0
    masses = np.empty(n)
    for i, c in enumerate(centers):
        lo = c - half
        hi = min(c + half, REACTION_BIN_LAST)
        masses[i] = _lognorm_cdf(hi, mu, sigma) - _lognorm_cdf(lo, mu, sigma)
    masses /= masses.sum()
    return ReactionTimeDistribution(centers, masses, m, v, mu, sigma)
