"""The weighting of a campaign (`weigh`) and delta-v histograms. Each
crash cell is a delta-v sample through `scenario.delta_v`, weighted by its
probability and its seed's trimmed prevalence weight, and the no-response
("sleepy driver") delta-vs are mixed in at the campaign's fraction. A
seed's record holds its outcomes alone: every probability is read from
the campaign's grid (`CampaignResult.grid`), which `weigh` hands to each
sum below.

A cell's probability is its row's axis-1 mass times its deceleration
mass, so every sum over a seed's cells factors through its rows
(`RowStatistics`). A live row sums its crashing cells over the
deceleration bins: its crash mass, its mass-weighted delta-v and its
crash mass in each histogram bin. The rows the kernel did not integrate
all hold the no-response outcome, so one no-response entry stands for
them with their summed axis-1 mass. The histogram, its mean and each
seed's share of the crash mass are summed from these entries in one
fixed order: seed by seed, a seed's live rows in ascending order and then
its no-response entry, and within an entry its histogram bins in
ascending order. Every sum runs sequentially (`np.cumsum`, `np.bincount`)
in that order, and a row's sums over the deceleration bins in the bins'
order, so the bits depend on the campaign alone.

Two sums keep the per-cell order. `prevalence_weights` reads each seed's
crash mass q from `SeedResult.crash_mass`, a sum over the seed's crash
cells on the grid in row-major order. Validate's per-seed percentiles
read `CampaignWeighting.crash_samples`, one sample per crash cell in seed
and row-major cell order, each weight divided by the sequential sum of
all of them; the tied percentiles depend on their bits. It builds one
seed's samples at a time, after one pass for the total. That pass
continues one `np.cumsum` seed after seed, each starting from the total
of the seeds before: the same additions in the same order as one sum over
the campaign, so the same total. A delta-v and a weight are each computed
from their own cell alone, so no sample's bits depend on the seeds built
with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import table
from .errors import ParseError, ValidationError
from .scenario import delta_v

if TYPE_CHECKING:  # annotations only, so stages that never simulate skip the engine
    from .engine import CampaignGrid, CampaignResult, SeedResult

DEFAULT_BIN_WIDTH_KMH = 2.0
# the bias correction's defaults (`bias.build_pdo`), here so that the CLI
# parser holds them without importing `bias`
DEFAULT_P_PDO = 0.7
DEFAULT_N_FILL_BINS = 6
TRIM_LOW_PCT = 5.0
TRIM_HIGH_PCT = 95.0
HISTOGRAM_CSV_HEADER = ["bin_low_kmh", "bin_high_kmh", "weight"]
MAX_BINS = 10**6  # a histogram is a dense array: a wider one is refused
# seeds whose row statistics `sum_rows` builds at a time, so that its peak
# memory follows a block of seeds, not the campaign's crash cells: on 4,000
# scale-cbm seeds, weight's max RSS fell from 109 to 60 MB
ROW_BLOCK = 256


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
        """The bin-center mean. Unchecked: the weights' total is not 0, as
        construction holds it within 1e-9 of 1."""
        return float((self.centers * self.weights).sum() / self.weights.sum())


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
    finite weights >= 0, some > 0, as the seed sidecars and the
    no-response delta-vs of `CampaignWeighting` give them (a crash has
    v1 > v2)."""
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


def prevalence_weights(seeds: list[SeedResult], grid: CampaignGrid
                       ) -> tuple[list[SeedWeight], list[str]]:
    """Inverse-crash-probability weights per seed on `grid`, trimmed to the
    nearest-rank 5th/95th percentiles of the untrimmed weights. Seeds
    without any crash cell cannot be weighted and are reported separately."""
    kept, excluded = [], []
    for r in seeds:
        q = r.crash_mass(grid)
        if q > 0:
            kept.append((r.seed_id, q))
        else:
            excluded.append(r.seed_id)
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


def _check_total(total: float) -> None:
    """Raise ValidationError unless the crash samples' weights sum to a
    finite number > 0: an overflowed seed weight makes it inf or NaN."""
    if not 0 < total < math.inf:  # NaN fails this comparison too
        raise ValidationError(f"the crash samples' weights sum to {total}, "
                              f"not a finite number > 0")


@dataclass(frozen=True, eq=False)
class RowStatistics:
    """The row statistics of weighted seeds (`row_statistics`), one entry
    per row, seed by seed: the seed's live rows in ascending order, then its
    no-response entry, which stands for every other row. Every mass is a
    sum of cell probabilities, each times its seed's weight."""

    entries: np.ndarray   # (S,) each seed's entries: its live rows + 1
    mass: np.ndarray      # (E,) each entry's crash mass
    dv_mass: np.ndarray   # (E,) its mass-weighted delta-v, km/h
    bins: np.ndarray      # (P,) the histogram bins of each entry's crashes, ascending
    bin_mass: np.ndarray  # (P,) the entry's crash mass in each of them
    cells: int            # the crash cells, each no-response row's included


def _sequential_sum(a: np.ndarray) -> np.ndarray:
    """`a` summed along its last axis, one element after the other."""
    return np.cumsum(a, axis=-1)[..., -1]


def row_statistics(seeds: list[SeedResult], weights: list[SeedWeight],
                   grid: CampaignGrid, bin_width: float) -> RowStatistics:
    """The row statistics of `seeds` on `grid`, with the seed weights
    `weights[k]` for seed k (unchecked: `weigh` pairs them), vectorized
    over the seeds' rows. A cell's probability is its row's axis-1 mass
    times its deceleration mass, so each sum over a row's crashing cells
    runs over the deceleration bins, in their order. A cell of weight 0
    adds no bin. A delta-v that is not finite raises ValidationError naming
    the seed."""
    n1, n2 = grid.shape
    p1, p2 = grid.axis1_probs, grid.decel_probs
    live = np.array([len(r.rows) for r in seeds])
    entries = live + 1
    ends = np.cumsum(live)  # where each seed's no-response entry goes
    rows = np.concatenate([r.rows for r in seeds])
    v1, v2 = (np.insert(np.concatenate([getattr(r, name) for r in seeds]), ends,
                        [[r.no_response[k]] for r in seeds], axis=0)
              for k, name in enumerate(("v1", "v2")))
    m1, m2 = (np.repeat([getattr(r, name) for r in seeds], entries)[:, None]
              for name in ("follower_mass", "lead_mass"))
    crashed = ~np.isnan(v1)
    dvs = delta_v(v1, v2, m1, m2)
    bad = crashed & ~np.isfinite(dvs)
    if bad.any():
        seed = np.searchsorted(np.cumsum(entries), np.argmax(bad.any(axis=1)), "right")
        raise ValidationError(f"seed {seeds[seed].seed_id}: a crash's delta-v is "
                              f"not finite")
    is_live = np.zeros((len(seeds), n1), dtype=bool)
    is_live[np.repeat(np.arange(len(seeds)), live), rows] = True
    axis1 = (np.repeat([w.w for w in weights], entries)
             * np.insert(p1[rows], ends, _sequential_sum(np.where(is_live, 0.0, p1))))
    cells = np.count_nonzero(crashed, axis=1)
    cells[ends + np.arange(len(seeds))] *= n1 - live  # the no-response rows
    # the crashing cells of weight > 0, entry by entry, and their bins
    e, j = np.nonzero(crashed & (p2 > 0) & (axis1 > 0)[:, None])
    bins = np.floor(dvs[e, j] / bin_width)
    check_bins(bins.max(initial=0.0), f"bin width {bin_width!r} km/h")
    n_bins = int(bins.max(initial=0.0)) + 1
    pairs, pair = np.unique(e * n_bins + bins.astype(np.int64), return_inverse=True)
    return RowStatistics(
        entries, axis1 * _sequential_sum(np.where(crashed, p2, 0.0)),
        axis1 * _sequential_sum(np.where(crashed, p2 * dvs, 0.0)), pairs % n_bins,
        axis1[pairs // n_bins] * np.bincount(pair, weights=p2[j]), int(cells.sum()))


def sum_rows(seeds: list[SeedResult], weights: list[SeedWeight], grid: CampaignGrid,
             bin_width: float) -> tuple[DeltaVDistribution, np.ndarray]:
    """The crash samples' histogram of `seeds` on `grid` at `bin_width`
    and each seed's share of their mass, in seed order, summed from the row
    statistics of ROW_BLOCK seeds at a time, in seed, row and bin order. A
    crash mass that is not a finite number > 0 (an overflowed seed weight)
    raises ValidationError."""
    check_bin_width(bin_width)
    hist, entries, mass, dv_mass, count = np.zeros(0), [], [], [], 0
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        for start in range(0, len(seeds), ROW_BLOCK):
            block = slice(start, start + ROW_BLOCK)
            rows = row_statistics(seeds[block], weights[block], grid, bin_width)
            n_bins = int(rows.bins.max(initial=-1)) + 1
            if n_bins > len(hist):
                hist = np.pad(hist, (0, n_bins - len(hist)))
            np.add.at(hist, rows.bins, rows.bin_mass)  # in order, onto the blocks before
            entries.append(rows.entries)
            mass.append(rows.mass)
            dv_mass.append(rows.dv_mass)
            count += rows.cells
        mass = np.concatenate(mass)
        total = _sequential_sum(mass)
    _check_total(total)
    mean = _sequential_sum(np.concatenate(dv_mass)) / total
    seed = np.repeat(np.arange(len(seeds)), np.concatenate(entries))
    return (DeltaVDistribution(bin_width, hist / total, float(mean), count),
            np.bincount(seed, weights=mass) / total)


def mix_no_response(base: DeltaVDistribution, no_resp_dvs,
                    fraction: float) -> DeltaVDistribution:
    """Blend the sub-model histogram with the no-response (sleepy driver)
    delta-vs: (1-fraction) of the mass stays with `base`, `fraction` goes
    to the normalized no-response histogram (one delta-v per seed); at a
    fraction of 0 it is `base` itself. Unchecked: `engine.load_campaign`
    reads the fraction as in [0, 1)."""
    if fraction > 0 and not no_resp_dvs:
        raise ValidationError("no-response delta-vs required when fraction > 0")
    if fraction == 0:
        return base
    nr = build_histogram(no_resp_dvs, np.ones(len(no_resp_dvs)), base.bin_width)
    bw, nw = align_bins(base, nr)
    mixed = (1.0 - fraction) * bw + fraction * nw
    mean = (1.0 - fraction) * base.mean + fraction * nr.mean
    return DeltaVDistribution(base.bin_width, mixed, mean,
                              base.count + nr.count)


@dataclass(frozen=True, eq=False)
class CampaignWeighting:
    """A campaign's weighting at a histogram bin width (`weigh`): the seed
    weights and the seeds they weight, in seed order, the seeds without
    crashes, and the no-response delta-vs mixed in: one per eligible seed
    whose no-response run crashed, weighted or not, none at a fraction of
    0. The row sums are built on first use, and the crash samples one seed
    at a time, each time `crash_samples` is read."""

    campaign: CampaignResult
    weights: list[SeedWeight]
    seeds: list[SeedResult]
    zero_crash_seeds: list[str]
    no_response_dvs: list[float]
    bin_width: float = DEFAULT_BIN_WIDTH_KMH

    @cached_property
    def _sums(self) -> tuple[DeltaVDistribution, np.ndarray]:
        return sum_rows(self.seeds, self.weights, self.campaign.grid, self.bin_width)

    def histogram(self) -> DeltaVDistribution:
        """The campaign's delta-v histogram: the crash samples' with the
        no-response share mixed in."""
        return mix_no_response(self._sums[0], self.no_response_dvs,
                               self.campaign.no_response_fraction)

    def contributions(self) -> list[float]:
        """Each weighted seed's part of the mix, in seed order: its share of
        the crash mass times 1 - fraction."""
        return ((1.0 - self.campaign.no_response_fraction) * self._sums[1]).tolist()

    def crash_samples(self):
        """(seed, delta-v, weight) of each weighted seed's crash cells on
        the campaign's grid, in seed order and per seed in row-major cell
        order: each weight is the seed weight times the cell's probability,
        divided by the sequential sum of all of them (see the module
        docstring). A delta-v that is not finite raises ValidationError
        naming the seed; then, once every seed's delta-vs are checked, a
        total that `_check_total` refuses raises ValidationError."""
        grid, total = self.campaign.grid, 0.0
        for r, sw in zip(self.seeds, self.weights):
            total = np.cumsum(np.concatenate([[total], sw.w * r.crash_probs(grid)]))[-1]
        checked = 0 < total < math.inf  # NaN fails this comparison too
        for r, sw in zip(self.seeds, self.weights):
            v1, v2, p = r.crashes(grid)
            with np.errstate(over="ignore"):  # finite speeds can overflow: checked below
                dvs = delta_v(v1, v2, r.follower_mass, r.lead_mass)
            if not np.isfinite(dvs).all():
                raise ValidationError(f"seed {r.seed_id}: a crash's delta-v is not finite")
            if checked:
                yield r, dvs, np.multiply(sw.w, p) / total
        _check_total(total)


def weigh(campaign: CampaignResult,
          bin_width: float = DEFAULT_BIN_WIDTH_KMH) -> CampaignWeighting:
    """The prevalence weighting of `campaign` (`CampaignWeighting`), its
    histogram at `bin_width`."""
    swept = campaign.swept
    weights, zero_crash = prevalence_weights(swept, campaign.grid)
    left = iter(swept)  # in the weights' order
    seeds = [next(r for r in left if r.seed_id == w.seed_id) for w in weights]
    nr_dvs = [r.no_response_dv for r in campaign.results
              if campaign.no_response_fraction > 0 and not r.excluded
              and not math.isnan(r.no_response_dv)]
    return CampaignWeighting(campaign, weights, seeds, zero_crash, nr_dvs, bin_width)


# ---------------------------------------------------------------- file I/O

def save_histogram(h: DeltaVDistribution, path: str | Path) -> None:
    edges = h.edges
    table.write_csv(path, HISTOGRAM_CSV_HEADER, [
        table.reprs(edges[:-1]), table.reprs(edges[1:]), table.reprs(h.weights)])


def load_histogram(h_path: str | Path) -> DeltaVDistribution:
    """A histogram CSV file, its mean the bin-center mean and its count 1
    (the file holds neither); one without bins, or whose weights do not sum
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
        dist = DeltaVDistribution(width, weights, 0.0, 1)
    except ValidationError as exc:
        raise ParseError(f"{h_path}: {exc}") from exc
    dist.mean = dist.binned_mean()
    return dist
