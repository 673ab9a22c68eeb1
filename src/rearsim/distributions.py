"""Glance and deceleration distribution algebra.

Off-road glance durations live on 0.1 s bins; bin j covers
((j-1)*0.1, j*0.1] seconds and is labeled by its upper edge. The on-road
share of driving is a point mass at duration zero, carried separately
from the binned off-road part.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ParseError, ValidationError

GLANCE_BIN_WIDTH = 0.1   # s
DECEL_BIN_WIDTH = 1.5    # m/s^2


def _duration_to_bin(duration: float) -> int:
    """Bin index (1-based) for a positive glance duration."""
    if duration <= 0:
        raise ValidationError("glance durations must be positive")
    x = duration / GLANCE_BIN_WIDTH
    nearest = round(x)
    if abs(x - nearest) < 1e-9 and nearest >= 1:
        return int(nearest)
    return int(math.ceil(x))


def _require_finite(column: str, values: np.ndarray) -> None:
    if not np.all(np.isfinite(values)):
        raise ValidationError(f"{column} values must be finite")


@dataclass(eq=False)
class GlanceDistribution:
    """On-road point mass plus binned off-road glance durations."""

    on_road_mass: float
    durations: np.ndarray  # bin labels, positive multiples of 0.1 s
    probs: np.ndarray

    def __post_init__(self):
        self.durations = np.asarray(self.durations, dtype=float)
        self.probs = np.asarray(self.probs, dtype=float)
        if not 0 <= self.on_road_mass < 1:
            raise ValidationError("on_road_mass must be in [0, 1)")
        _require_finite("glance duration_s", self.durations)
        _require_finite("glance probability", self.probs)
        if np.any(self.probs < 0):
            raise ValidationError("glance probabilities must be >= 0")
        total = self.on_road_mass + self.probs.sum()
        if abs(total - 1.0) > 1e-9:
            raise ValidationError(f"glance masses must sum to 1 (got {total})")
        bins = self.durations / GLANCE_BIN_WIDTH
        if np.any(np.abs(bins - np.round(bins)) > 1e-6) or np.any(bins < 0.5):
            raise ValidationError("durations must be positive multiples of 0.1 s")
        order = np.argsort(self.durations)
        self.durations = self.durations[order]
        self.probs = self.probs[order]

    @property
    def off_road_mass(self) -> float:
        return float(self.probs.sum())

    @property
    def max_duration(self) -> float:
        return float(self.durations[-1])

    @property
    def n_bins(self) -> int:
        return len(self.durations)


@dataclass(eq=False)
class OvershootDistribution:
    """Glance overshoot past the looming anchor; the carried on-road mass
    is the overshoot-zero point (attentive driver)."""

    on_road_mass: float
    overshoots: np.ndarray  # s, positive multiples of 0.1
    probs: np.ndarray

    def __post_init__(self):
        self.overshoots = np.asarray(self.overshoots, dtype=float)
        self.probs = np.asarray(self.probs, dtype=float)
        total = self.on_road_mass + self.probs.sum()
        if abs(total - 1.0) > 1e-9:
            raise ValidationError(f"overshoot masses must sum to 1 (got {total})")


@dataclass(eq=False)
class DecelDistribution:
    """Maximum-deceleration magnitudes binned at fixed width."""

    d_values: np.ndarray  # m/s^2, bin centers
    probs: np.ndarray
    bin_width: float = DECEL_BIN_WIDTH

    def __post_init__(self):
        self.d_values = np.asarray(self.d_values, dtype=float)
        self.probs = np.asarray(self.probs, dtype=float)
        _require_finite("deceleration d_max_ms2", self.d_values)
        _require_finite("deceleration probability", self.probs)
        if np.any(self.d_values <= 0):
            raise ValidationError("deceleration bin centers must be positive")
        if np.any(self.probs < 0):
            raise ValidationError("deceleration probabilities must be >= 0")
        if abs(self.probs.sum() - 1.0) > 1e-9:
            raise ValidationError("deceleration probabilities must sum to 1")

    @property
    def n_bins(self) -> int:
        return len(self.d_values)


def bin_glances(durations, on_road_fraction: float) -> GlanceDistribution:
    """Bin observed off-road glance durations; the off-road probability mass
    (1 - on_road_fraction) is split by bin counts."""
    if not 0 <= on_road_fraction < 1:
        raise ValidationError("on_road_fraction must be in [0, 1)")
    durations = list(durations)
    if not durations:
        raise ValidationError(
            "no off-road glances but on_road_fraction < 1: off-road mass "
            "cannot be distributed")
    counts: dict[int, int] = {}
    for d in durations:
        j = _duration_to_bin(float(d))
        counts[j] = counts.get(j, 0) + 1
    bins = sorted(counts)
    labels = np.array([j * GLANCE_BIN_WIDTH for j in bins])
    probs = np.array([counts[j] for j in bins], dtype=float)
    probs *= (1.0 - on_road_fraction) / probs.sum()
    return GlanceDistribution(on_road_fraction, labels, probs)


def overshoot_transform(g: GlanceDistribution) -> OvershootDistribution:
    """Convert glance durations into anchor overshoots.

    A glance occupying bin k can overshoot the anchor by 1..k bins, each
    equally likely, so it contributes p(k)/k to every overshoot bin j <= k.
    The off-road part is rescaled to the source off-road mass (the
    transform preserves it up to rounding) and the on-road point mass is
    carried through as overshoot zero.
    """
    k_max = _duration_to_bin(g.max_duration)
    out = np.zeros(k_max)
    for d, p in zip(g.durations, g.probs):
        k = _duration_to_bin(float(d))
        out[:k] += p / k
    total = out.sum()
    if total > 0:
        out *= g.off_road_mass / total
    overshoots = GLANCE_BIN_WIDTH * np.arange(1, k_max + 1)
    keep = out > 0
    return OvershootDistribution(g.on_road_mass, overshoots[keep], out[keep])


def cut_glances(g: GlanceDistribution, cut_at: float) -> GlanceDistribution:
    """Remove glances longer than `cut_at` (an idealized driver monitoring
    system) and rescale what remains to the original off-road mass; the
    on-road point mass is unchanged."""
    if cut_at <= 0:
        raise ValidationError("cut_at must be positive")
    keep = g.durations <= cut_at + 1e-9
    if not np.any(keep):
        raise ValidationError(
            f"cut at {cut_at}s removes every off-road glance")
    probs = g.probs[keep]
    probs = probs * (g.off_road_mass / probs.sum())
    return GlanceDistribution(g.on_road_mass, g.durations[keep], probs)


def bin_decels(d_values, bin_width: float = DECEL_BIN_WIDTH) -> DecelDistribution:
    """Bin observed maximum decelerations into fixed-width bins anchored at
    the smallest observation; probabilities are plain counts."""
    d = np.asarray(list(d_values), dtype=float)
    if d.size == 0:
        raise ValidationError("no deceleration values")
    if np.any(d <= 0):
        raise ValidationError("deceleration magnitudes must be positive")
    if bin_width <= 0:
        raise ValidationError("bin_width must be positive")
    lo = d.min()
    idx = np.floor((d - lo) / bin_width - 1e-12).astype(int)
    idx = np.maximum(idx, 0)
    n = int(idx.max()) + 1
    counts = np.bincount(idx, minlength=n).astype(float)
    centers = lo + bin_width * (np.arange(n) + 0.5)
    keep = counts > 0
    return DecelDistribution(centers[keep], counts[keep] / counts.sum(), bin_width)


# ---------------------------------------------------------------- file I/O

def save_glances(g: GlanceDistribution, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["on_road_mass", repr(float(g.on_road_mass))])
        writer.writerow(["duration_s", "probability"])
        for d, p in zip(g.durations, g.probs):
            writer.writerow([repr(float(d)), repr(float(p))])


def load_glances(path: str | Path) -> GlanceDistribution:
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            tag, value = next(reader)
            if tag != "on_road_mass":
                raise ParseError(f"{path}: first row must be on_road_mass,<value>")
            on_road = float(value)
            header = next(reader)
            if header != ["duration_s", "probability"]:
                raise ParseError(f"{path}: expected duration_s,probability header")
            rows = [(float(a), float(b)) for a, b in reader]
    except (ValueError, StopIteration) as exc:
        raise ParseError(f"{path}: malformed glance distribution: {exc}") from exc
    if not rows:
        raise ParseError(f"{path}: no off-road bins")
    durations, probs = zip(*rows)
    return GlanceDistribution(on_road, np.array(durations), np.array(probs))


def save_decels(d: DecelDistribution, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["d_max_ms2", "probability"])
        for v, p in zip(d.d_values, d.probs):
            writer.writerow([repr(float(v)), repr(float(p))])


def load_decels(path: str | Path, bin_width: float = DECEL_BIN_WIDTH) -> DecelDistribution:
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            if header != ["d_max_ms2", "probability"]:
                raise ParseError(f"{path}: expected d_max_ms2,probability header")
            rows = [(float(a), float(b)) for a, b in reader]
    except (ValueError, StopIteration) as exc:
        raise ParseError(f"{path}: malformed deceleration distribution: {exc}") from exc
    if not rows:
        raise ParseError(f"{path}: no bins")
    values, probs = zip(*rows)
    return DecelDistribution(np.array(values), np.array(probs), bin_width)
