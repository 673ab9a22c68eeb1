"""Prevalence weighting with trimming, no-response mixing, and histogram
construction. Each crash cell becomes a delta-v sample through
`scenario.delta_v`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import table
from .errors import ParseError, ValidationError
from .scenario import delta_v

if TYPE_CHECKING:  # annotations only, so stages that never simulate skip the engine
    from .engine import OutcomeMatrix

DEFAULT_BIN_WIDTH_KMH = 2.0
TRIM_LOW_PCT = 5.0
TRIM_HIGH_PCT = 95.0
HISTOGRAM_CSV_HEADER = ["bin_low_kmh", "bin_high_kmh", "weight"]
MAX_BINS = 10**6  # a histogram is a dense array: a wider one is refused


@dataclass(eq=False)
class DeltaVDistribution:
    """Weighted delta-v histogram on fixed-width bins starting at 0. Its
    weights always sum to 1: construction rejects any other total.

    `mean` is computed from the unbinned weighted samples where available;
    transforms that only see bins fall back to the bin-center mean.
    `count` is the number of underlying crashes, used as the effective
    count for pseudo-count corrections.
    """

    bin_width: float
    weights: np.ndarray
    mean: float
    count: int

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        if not np.all(self.weights >= 0):  # NaN fails this comparison too
            raise ValidationError("histogram weights must be numbers >= 0")
        total = self.weights.sum()
        if abs(total - 1.0) > 1e-9:
            raise ValidationError(f"histogram weights sum to {total}, not 1")

    @property
    def centers(self) -> np.ndarray:
        return self.bin_width * (np.arange(len(self.weights)) + 0.5)

    @property
    def edges(self) -> np.ndarray:
        return self.bin_width * np.arange(len(self.weights) + 1)

    def binned_mean(self) -> float:
        w = self.weights.sum()
        return float((self.centers * self.weights).sum() / w) if w else 0.0


def check_bin_width(bin_width: float) -> None:
    """Raise ValidationError unless `bin_width` is a finite number > 0."""
    if not 0 < bin_width < math.inf:  # NaN fails this comparison too
        raise ValidationError(f"bin width must be a finite number > 0, "
                              f"got {bin_width!r}")


def check_bins(top: float, cause: str) -> None:
    """Raise ValidationError naming `cause` unless the highest bin index
    `top` leaves the histogram at most MAX_BINS bins wide."""
    if not top < MAX_BINS:  # an overflow to inf fails this comparison too
        raise ValidationError(f"{cause} makes a histogram of more than "
                              f"{MAX_BINS} bins")


def build_histogram(delta_v, weights,
                    bin_width: float = DEFAULT_BIN_WIDTH_KMH) -> DeltaVDistribution:
    """Weighted histogram of the samples `delta_v` (km/h) with `weights`;
    the mean is taken on the unbinned samples. Samples of weight 0 are
    dropped, but count. Unchecked: equally many finite delta-v >= 0 and
    finite weights >= 0, some > 0, as sidecars, seeds_summary.csv and
    `weighted_crash_samples` give them (a crash has v1 > v2)."""
    check_bin_width(bin_width)
    dvs = np.asarray(delta_v, dtype=float).reshape(-1)
    ws = np.asarray(weights, dtype=float).reshape(-1)
    positive = ws > 0
    if not positive.all():
        dvs, ws = dvs[positive], ws[positive]
    # canonical accumulation order makes the histogram exactly invariant
    # to sample permutations
    order = np.lexsort((ws, dvs))
    dvs, ws = dvs[order], ws[order]
    total = ws.sum()
    # the order's buffer takes the products, then the bin indices
    mean = float(np.multiply(dvs, ws, out=order.view(float)).sum() / total)
    np.floor(np.divide(dvs, bin_width, out=dvs), out=dvs)
    check_bins(dvs[-1], f"bin width {bin_width!r} km/h")  # sorted by delta-v
    idx = order
    np.copyto(idx, dvs, casting="unsafe")
    counts = np.bincount(idx, weights=ws, minlength=int(idx.max()) + 1)
    return DeltaVDistribution(bin_width, counts / total, mean, len(positive))


def align_bins(p: DeltaVDistribution, q: DeltaVDistribution):
    """Common-length weight arrays for two histograms on the same binning."""
    if abs(p.bin_width - q.bin_width) > 1e-12:
        raise ValidationError("histograms must share the bin width")
    n = max(len(p.weights), len(q.weights))
    pad = lambda w: np.pad(w, (0, n - len(w)))
    return pad(p.weights), pad(q.weights)


@dataclass(frozen=True)
class SeedWeight:
    """Prevalence weight of one seed: q is its summed crash-cell
    probability, w the (trimmed) inverse used to balance seeds."""

    seed_id: str
    q_raw: float
    q_norm: float
    w_untrimmed: float
    w: float


def _nearest_rank(sorted_values: np.ndarray, pct: float) -> float:
    n = len(sorted_values)
    rank = max(1, math.ceil(pct / 100.0 * n))
    return float(sorted_values[rank - 1])


def prevalence_weights(matrices: list[OutcomeMatrix]) -> tuple[list[SeedWeight], list[str]]:
    """Inverse-crash-probability weights per seed, trimmed to the nearest-rank
    5th/95th percentiles of the untrimmed weights. Seeds without any crash
    cell cannot be weighted and are reported separately."""
    kept, excluded = [], []
    for m in matrices:
        q = m.crash_mass
        if q > 0:
            kept.append((m.seed_id, q))
        else:
            excluded.append(m.seed_id)
    if not kept:
        raise ValidationError("no seed produced any crash cell")
    q_raw = np.array([q for _, q in kept])
    q_norm = q_raw / q_raw.sum()
    w_unt = 1.0 / q_norm
    w_sorted = np.sort(w_unt)
    lo = _nearest_rank(w_sorted, TRIM_LOW_PCT)
    hi = _nearest_rank(w_sorted, TRIM_HIGH_PCT)
    w_trim = np.clip(w_unt, lo, hi)
    return ([SeedWeight(sid, float(qr), float(qn), float(wu), float(wt))
             for (sid, qr), qn, wu, wt in zip(kept, q_norm, w_unt, w_trim)],
            excluded)


@dataclass(frozen=True, eq=False)
class CrashSamples:
    """Crash cells as weighted delta-v samples, seed by seed: the first
    counts[0] samples belong to seed_ids[0], the next counts[1] to
    seed_ids[1], and so on."""

    seed_ids: list[str]
    counts: list[int]
    delta_v: np.ndarray  # km/h
    weight: np.ndarray   # sums to 1

    def __len__(self) -> int:
        return len(self.delta_v)

    def by_seed(self):
        """(seed_id, delta_v, weight) of each seed's samples."""
        bounds = np.cumsum([0] + self.counts).tolist()
        for sid, start, stop in zip(self.seed_ids, bounds, bounds[1:]):
            yield sid, self.delta_v[start:stop], self.weight[start:stop]


def weighted_crash_samples(matrices: list[OutcomeMatrix],
                           masses: dict[str, tuple[float, float]],
                           weights: list[SeedWeight]) -> CrashSamples:
    """Crash cells, in row-major order per seed, as delta-v samples with
    the prevalence weights applied; the weights are renormalized to sum to
    1. `masses` maps seed id to (follower, lead) mass in kg. A delta-v that
    is not finite raises ValidationError naming the seed, and weights whose
    sum is not a finite number > 0 raise ValidationError."""
    w_by_seed = {w.seed_id: w.w for w in weights}
    weighted = [m for m in matrices if m.seed_id in w_by_seed]
    counts = [m.n_crash_cells for m in weighted]
    dvs, w = np.empty(sum(counts)), np.empty(sum(counts))
    start = 0
    with np.errstate(over="ignore"):  # finite speeds can overflow: checked below
        for m, n in zip(weighted, counts):
            m1, m2 = masses[m.seed_id]
            v1, v2, p = m.crashes()
            cells = slice(start, start + n)
            dvs[cells] = delta_v(v1, v2, m1, m2)
            np.multiply(w_by_seed[m.seed_id], p, out=w[cells])
            start += n
    finite = np.isfinite(dvs)
    if not finite.all():
        m = weighted[int(np.searchsorted(np.cumsum(counts), np.argmin(finite), "right"))]
        raise ValidationError(f"seed {m.seed_id}: a crash's delta-v is not finite")
    # a sequential sum, so each weight keeps its bits whatever the count
    total = np.cumsum(w)[-1] if w.size else 0.0
    if not 0 < total < math.inf:  # NaN fails too: an overflowed seed weight
        raise ValidationError(f"the crash samples' weights sum to {total}, "
                              f"not a finite number > 0")
    w /= total
    return CrashSamples([m.seed_id for m in weighted], counts, dvs, w)


def mix_no_response(base: DeltaVDistribution, no_resp_dvs,
                    fraction: float) -> DeltaVDistribution:
    """Blend the sub-model histogram with the no-response (sleepy driver)
    delta-vs: (1-fraction) of the mass stays with `base`, `fraction` goes
    to the normalized no-response histogram (one delta-v per seed).
    Unchecked: `_simulate_summary` reads the fraction as in [0, 1)."""
    no_resp_dvs = [float(d) for d in no_resp_dvs]
    if fraction > 0 and not no_resp_dvs:
        raise ValidationError("no-response delta-vs required when fraction > 0")
    if fraction == 0:
        return DeltaVDistribution(base.bin_width, base.weights.copy(),
                                  base.mean, base.count)
    nr = build_histogram(no_resp_dvs, np.ones(len(no_resp_dvs)), base.bin_width)
    bw, nw = align_bins(base, nr)
    mixed = (1.0 - fraction) * bw + fraction * nw
    mean = (1.0 - fraction) * base.mean + fraction * nr.mean
    return DeltaVDistribution(base.bin_width, mixed, mean,
                              base.count + nr.count)


# ---------------------------------------------------------------- file I/O

def save_histogram(h: DeltaVDistribution, path: str | Path) -> None:
    edges = h.edges
    table.write_csv(path, HISTOGRAM_CSV_HEADER, [
        table.reprs(edges[:-1]), table.reprs(edges[1:]), table.reprs(h.weights)])


def load_histogram(h_path: str | Path, mean: float | None = None,
                   count: int = 1) -> DeltaVDistribution:
    """A histogram CSV file; one without bins, or whose weights do not sum
    to 1 (a histogram of counts), raises ParseError naming the file. The
    first row's width must be a finite number > 0, and row k must span
    [k w, (k + 1) w] within 1e-9 w; a row that does not raises ParseError
    naming path:line."""
    chunk = table.read_csv(h_path, HISTOGRAM_CSV_HEADER)
    if not chunk.n_rows:
        raise ParseError(f"{h_path}: empty histogram")
    low, high, weights = (chunk.floats(name) for name in HISTOGRAM_CSV_HEADER)
    width = float(high[0] - low[0])
    try:
        check_bin_width(width)
    except ValidationError as exc:
        raise chunk.error(0, str(exc)) from None
    edges = width * np.arange(chunk.n_rows + 1)
    off = ~((np.abs(low - edges[:-1]) <= 1e-9 * width)
            & (np.abs(high - edges[1:]) <= 1e-9 * width))  # NaN is off too
    if off.any():
        k = int(np.argmax(off))
        raise chunk.error(k, f"bin {k} spans [{float(low[k])!r}, "
                             f"{float(high[k])!r}], not [{float(edges[k])!r}, "
                             f"{float(edges[k + 1])!r}]")
    try:
        dist = DeltaVDistribution(width, weights, 0.0, count)
    except ValidationError as exc:
        raise ParseError(f"{h_path}: {exc}") from exc
    dist.mean = dist.binned_mean() if mean is None else mean
    return dist
