"""Optical expansion of the lead vehicle seen from the follower.

The lead subtends the angle ``theta = 2*atan(w / 2R)`` at range R; its
relative expansion rate ``inv_tau = theta_dot / theta`` is the urgency
signal that anchors the glance model. theta_dot is evaluated with the
exact derivative ``-w*Rdot / (R^2 + w^2/4)`` rather than the small-angle
shortcut.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scenario import CounterfactualSeed


@dataclass(eq=False)
class LoomingSeries:
    """Per-sample optical quantities up to (excluding) vehicle overlap."""

    t: np.ndarray          # s
    theta: np.ndarray      # rad
    theta_dot: np.ndarray  # rad/s
    inv_tau: np.ndarray    # 1/s


def optical_angle(range_m, lead_width: float):
    """Angle subtended by the lead vehicle's width at the given range.
    Unchecked: `looming_series` passes only the ranges before the first
    overlap, all > 0, and `VehicleMeta` requires a width > 0."""
    out = 2.0 * np.arctan(lead_width / (2.0 * np.asarray(range_m, dtype=float)))
    return float(out) if out.ndim == 0 else out


def looming_series(cf: CounterfactualSeed) -> LoomingSeries:
    """Evaluate theta, theta_dot and inv_tau on the counterfactual
    kinematics, truncated just before the vehicles overlap."""
    rng = cf.gap()
    overlap = np.nonzero(rng <= 0)[0]
    end = int(overlap[0]) if overlap.size else len(rng)
    sl = slice(0, end)

    w = cf.lead_meta.width
    r = rng[sl]
    r_dot = cf.lead.speed[sl] - cf.follower_speed
    theta = optical_angle(r, w)
    theta_dot = -w * r_dot / (r * r + w * w / 4.0)
    return LoomingSeries(cf.lead.t[sl], theta, theta_dot, theta_dot / theta)


def find_anchor(series: LoomingSeries, threshold: float = 0.2) -> float | None:
    """Time of the first upward crossing of inv_tau through `threshold`,
    linearly interpolated between samples. None if never crossed.
    Unchecked: `CbmConfig` requires a finite threshold > 0, and the series
    is not empty: `SeedKinematics` first rejects an overlap at the start."""
    y = series.inv_tau
    if y[0] >= threshold:
        return float(series.t[0])
    above = y >= threshold
    idx = np.nonzero(above[1:] & ~above[:-1])[0]
    if idx.size == 0:
        return None
    i = int(idx[0])  # first upward crossing wins even if it wobbles later
    t0, t1 = series.t[i], series.t[i + 1]
    y0, y1 = y[i], y[i + 1]
    return float(t0 + (threshold - y0) / (y1 - y0) * (t1 - t0))
