"""Shared fixture builders: naturalistic-scale glance/deceleration
distributions, synthesized seed sets, and writers of the input files the
CLI reads. Everything is deterministic."""

from __future__ import annotations

import csv
import tracemalloc
from functools import lru_cache
from pathlib import Path

import numpy as np

from rearsim.bias import OccupantRecord
from rearsim.distributions import (
    DECEL_BIN_WIDTH,
    GLANCE_BIN_WIDTH,
    DecelDistribution,
    GlanceDistribution,
    _duration_to_bin,
)
from rearsim.engine import CampaignGrid, OutcomeMatrix, SeedKinematics
from rearsim.errors import ValidationError
from rearsim.scenario import (
    SeedCrash,
    SynthesisConfig,
    load_seed,
    load_seed_refs,
    synthesize_seeds,
)

N_GLANCES = 4604
N_GLANCE_BINS = 67
MAX_GLANCE = 6.7
ON_ROAD = 0.8
N_DECEL_CRASHES = 45


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
    return DecelDistribution(centers[keep], counts[keep] / counts.sum())


def save_glances(g: GlanceDistribution, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["on_road_mass", repr(float(g.on_road_mass))])
        writer.writerow(["duration_s", "probability"])
        for d, p in zip(g.durations, g.probs):
            writer.writerow([repr(float(d)), repr(float(p))])


def save_decels(d: DecelDistribution, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["d_max_ms2", "probability"])
        for v, p in zip(d.d_values, d.probs):
            writer.writerow([repr(float(v)), repr(float(p))])


def save_occupants(records: list[OccupantRecord], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["delta_v_kmh", "mais", "role"])
        for r in records:
            writer.writerow([repr(float(r.delta_v)), r.mais, r.role])


def glance_durations(rng_seed: int = 101) -> list[float]:
    """Naturalistic-scale off-road glance sample: 4604 glances, every
    0.1 s bin up to 6.7 s occupied."""
    rng = np.random.default_rng(rng_seed)
    draws = rng.exponential(0.9, N_GLANCES - N_GLANCE_BINS)
    draws = np.clip(draws, 0.05, MAX_GLANCE)
    forced = [k * 0.1 for k in range(1, N_GLANCE_BINS + 1)]
    return list(draws) + forced


@lru_cache(maxsize=None)
def shrp2_like_glances() -> GlanceDistribution:
    return bin_glances(glance_durations(), ON_ROAD)


@lru_cache(maxsize=None)
def shrp2_like_decels() -> DecelDistribution:
    """45 maximum decelerations spanning exactly six 1.5 m/s^2 bins."""
    rng = np.random.default_rng(202)
    values = list(rng.uniform(1.7, 10.2, N_DECEL_CRASHES - 2))
    values += [1.6, 10.3]  # pin the span so ceil(8.7/1.5) = 6 bins
    return bin_decels(values, 1.5)


@lru_cache(maxsize=None)
def seed_set(n: int, rng_seed: int = 42, mix: tuple | None = None) -> tuple[SeedCrash, ...]:
    cfg = SynthesisConfig(n_seeds=n)
    if mix is not None:
        cfg.lead_mix = dict(mix)
    return tuple(synthesize_seeds(cfg, rng_seed))


def load_seed_dir(directory: str | Path) -> list[SeedCrash]:
    """Load every seed CSV in a directory, ordered by id."""
    return [load_seed(ref.path) for ref in load_seed_refs(directory)]


def exhaustive_sweep(kin: SeedKinematics, grid: CampaignGrid, onsets,
                     jerk: float) -> OutcomeMatrix:
    """The oracle for `engine.sweep_seed`: every row of the grid goes
    through the kernel, none is taken as the seed's no-response outcome. It
    counts one kernel call for the no-response run plus one per cell."""
    cells = kin.run(np.asarray(onsets, dtype=float), grid.decels, jerk)
    return OutcomeMatrix(kin.id, grid, **cells,
                         live=np.ones(grid.shape[0], dtype=bool))


def paper_mix_seed_set() -> tuple[SeedCrash, ...]:
    """103 seeds with exactly 35 ineligible (non-braking or standstill)
    leads, mirroring the published case mix."""
    return seed_set(103, 42, mix=(("braking", 68), ("non_braking", 15),
                                  ("standstill", 20)))


def traced_peak(fn, *args, **kwargs):
    """`fn(*args, **kwargs)` and the peak of the memory that Python and
    NumPy allocated while it ran, in bytes, as tracemalloc counts it."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak
