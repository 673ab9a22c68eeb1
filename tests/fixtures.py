"""Shared fixture builders: naturalistic-scale glance/deceleration
distributions, synthesized seed sets, and writers of the input files the
CLI reads. Everything is deterministic."""

from __future__ import annotations

import csv
import math
import tracemalloc
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

import numpy as np

from rearsim.bias import OccupantRecord
from rearsim.distributions import (
    DECEL_BIN_WIDTH,
    GLANCE_BIN_WIDTH,
    DecelDistribution,
    GlanceDistribution,
    _duration_to_bin,
)
from rearsim.engine import (
    CampaignGrid,
    SeedKinematics,
    SeedResult,
)
from rearsim.errors import ValidationError
from rearsim.outcome import SeedWeight
from rearsim.scenario import (
    SeedCrash,
    SynthesisConfig,
    delta_v,
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


def first_run_by_convolution(mask: np.ndarray, length: int) -> int | None:
    """The oracle for `scenario._first_run`: the first index at which a
    window of `length` samples of `mask` is all true, found by convolving
    the mask with a window of ones; None if there is none."""
    if len(mask) < length:
        return None
    hits = np.convolve(mask.astype(int), np.ones(length, dtype=int), mode="valid")
    idx = np.nonzero(hits == length)[0]
    return int(idx[0]) if idx.size else None


@dataclass(eq=False)
class DenseMatrix:
    """The oracle for an `engine.SeedResult`'s outcomes: one seed's outcomes
    in every cell of a grid, (n1, n2) arrays, whatever the kernel
    integrated, with the grid's probabilities."""

    seed_id: str
    grid: CampaignGrid
    v1: np.ndarray  # NaN where no crash
    v2: np.ndarray

    @property
    def crashed(self) -> np.ndarray:
        return ~np.isnan(self.v1)

    @property
    def kernel_calls(self) -> int:
        """The no-response run, plus one call per cell."""
        return 1 + self.v1.size

    @property
    def crash_mass(self) -> float:
        return float(self.grid.p_cell[self.crashed].sum())

    def at(self, rows, target: CampaignGrid) -> "DenseMatrix":
        """The matrix's `rows` under `target`'s probabilities: the oracle
        for `engine.reweight`."""
        return DenseMatrix(self.seed_id, target, self.v1[rows], self.v2[rows])


def exhaustive_sweep(kin: SeedKinematics, grid: CampaignGrid, onsets,
                     jerk: float) -> DenseMatrix:
    """The oracle for `engine.sweep_seed`: every row of the grid goes
    through the kernel, none is taken as the seed's no-response outcome."""
    cells = kin.run(np.asarray(onsets, dtype=float), grid.decels, jerk)
    return DenseMatrix(kin.id, grid, **cells)


def dense_crash_samples(matrices: list[DenseMatrix],
                        masses: dict[str, tuple[float, float]],
                        weights: list[SeedWeight]
                        ) -> list[tuple[str, np.ndarray, np.ndarray]]:
    """The oracle for `outcome.CampaignWeighting.crash_samples`: (seed id,
    delta-v, weight) of each weighted seed's crash cells in row-major order
    of its dense arrays, each weighted by the seed's weight and the cell's
    probability, over the sequential total of every seed's weights."""
    w_by_seed = {w.seed_id: w.w for w in weights}
    weighted = [m for m in matrices if m.seed_id in w_by_seed]
    dvs = [delta_v(m.v1[m.crashed], m.v2[m.crashed], *masses[m.seed_id])
           for m in weighted]
    w = [w_by_seed[m.seed_id] * m.grid.p_cell[m.crashed] for m in weighted]
    total = np.cumsum(np.concatenate(w))[-1]
    return [(m.seed_id, dv, cell_w / total) for m, dv, cell_w in zip(weighted, dvs, w)]


class Outcome(NamedTuple):
    """One case's cell, as the engine holds a no-response outcome: its
    speeds, both NaN where it does not crash."""

    v1: float
    v2: float

    @property
    def crashed(self) -> bool:
        return not math.isnan(self.v1)


NO_CRASH = Outcome(math.nan, math.nan)


def swept_result(seed_id: str, grid: CampaignGrid, v1, v2,
                 no_response: tuple[float, float] = NO_CRASH, *, rows=None,
                 follower_mass: float = 1500.0, lead_mass: float = 1500.0,
                 seed_delta_v_kmh: float | None = None) -> SeedResult:
    """An eligible seed's result on `grid`: the live rows `rows` (by
    default every row) with their (k, n2) speeds, the no-response outcome
    of the others, and the masses and recorded delta-v given."""
    rows = np.arange(len(v1)) if rows is None else np.asarray(rows)
    return SeedResult(seed_id, rows, np.asarray(v1, dtype=float),
                      np.asarray(v2, dtype=float), no_response, None, "braking",
                      False, follower_mass, lead_mass, seed_delta_v_kmh,
                      grid.p_cell.size)


def excluded_result(seed: SeedResult) -> SeedResult:
    """`seed` as the sweep leaves an excluded seed: without rows."""
    return replace(seed, rows=seed.rows[:0], v1=seed.v1[:0], v2=seed.v2[:0],
                   excluded=True)


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
