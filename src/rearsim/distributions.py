"""Glance and deceleration distribution algebra.

Off-road glance durations live on 0.1 s bins; bin j covers
((j-1)*0.1, j*0.1] seconds and is labeled by its upper edge. The on-road
share of driving is a point mass at duration zero, carried separately
from the binned off-road part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import table
from .errors import ParseError, ValidationError

GLANCE_BIN_WIDTH = 0.1   # s
DECEL_BIN_WIDTH = 1.5    # m/s^2
DECELS_CSV_HEADER = ("d_max_ms2", "probability")
GLANCES_CSV_HEADER = ("duration_s", "probability")
ON_ROAD_ROW = "on_road_mass,<number>"  # a glance file's line 1, before its header


def _duration_to_bin(duration: float) -> int:
    """Bin index (1-based) for a glance duration. Unchecked: it is > 0, as
    `GlanceDistribution` checks the durations `overshoot_transform` passes."""
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
class DecelDistribution:
    """Maximum-deceleration magnitudes on bins DECEL_BIN_WIDTH wide."""

    d_values: np.ndarray  # m/s^2, bin centers
    probs: np.ndarray

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


def overshoot_transform(g: GlanceDistribution) -> tuple[np.ndarray, np.ndarray]:
    """Convert glance durations into anchor overshoots and their masses.

    A glance occupying bin k can overshoot the anchor by 1..k bins, each
    equally likely, so it contributes p(k)/k to every overshoot bin j <= k.
    The masses are rescaled to the source off-road mass, so with the
    on-road mass as overshoot zero they sum to 1 as `g`'s do (`g` checks
    its total), up to rounding.
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
    return overshoots[keep], out[keep]


def cut_glances(g: GlanceDistribution, cut_at: float) -> GlanceDistribution:
    """Remove glances longer than `cut_at` (an idealized driver monitoring
    system) and rescale what remains to the original off-road mass; the
    on-road point mass is unchanged."""
    if not cut_at > 0:
        raise ValidationError(f"cut_at must be > 0, got {cut_at!r}")
    keep = g.durations <= cut_at + 1e-9
    if not np.any(keep):
        raise ValidationError(
            f"cut at {cut_at}s removes every off-road glance")
    probs = g.probs[keep]
    probs = probs * (g.off_road_mass / probs.sum())
    return GlanceDistribution(g.on_road_mass, g.durations[keep], probs)


# ---------------------------------------------------------------- file I/O

def load_glances(path: str | Path) -> GlanceDistribution:
    """A glance distribution from a CSV file: an ``on_road_mass,<value>``
    row, then the header ``duration_s,probability`` and one row per
    off-road bin. A malformed row, or a file without bins, raises
    ParseError naming ``path:line``."""
    chunk = table.read_csv(path, GLANCES_CSV_HEADER, preamble=[ON_ROAD_ROW])
    if not chunk.n_rows:
        raise ParseError(f"{path}:2: no off-road bins")
    row = chunk.preamble[0]
    if row[:1] != ["on_road_mass"] or len(row) != 2 or not table.is_float(row[1]):
        raise ParseError(f"{path}:1: expected {ON_ROAD_ROW}, got {','.join(row)!r}")
    return GlanceDistribution(float(row[1]), chunk.floats("duration_s"),
                              chunk.floats("probability"))


def load_decels(path: str | Path) -> DecelDistribution:
    """A deceleration distribution from a ``d_max_ms2,probability`` CSV
    file. A row with the wrong number of fields, a field that is not a
    number, or a file without bins raises ParseError naming ``path:line``."""
    chunk = table.read_csv(path, DECELS_CSV_HEADER)
    if not chunk.n_rows:
        raise ParseError(f"{path}:1: no bins")
    return DecelDistribution(chunk.floats("d_max_ms2"), chunk.floats("probability"))
