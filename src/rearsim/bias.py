"""Selection-bias correction: builds a property-damage-only (PDO)
augmented all-severity reference, fits an exponential PDO shape and a
logistic censoring transfer function, and applies the transfer to model
histograms.

Injury databases miss PDO crashes while generated crash populations span
every severity; the logistic transfer P(dv) maps all-severity histograms
onto the injury-database selection so the two become comparable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import table
from .errors import FitError, ParseError, ValidationError
from .manifest import read_json
from .outcome import (
    DEFAULT_BIN_WIDTH_KMH,
    DeltaVDistribution,
    align_bins,
    check_bin_width,
    check_bins,
)

DEFAULT_P_PDO = 0.7
DEFAULT_N_FILL_BINS = 6
PDO_MAX_ITER = 100  # build_pdo's allocation-and-fit rounds, at most
PDO_TOL = 1e-10     # ... until no fill bin moves more than this x max(deficit, 1)

C1_GRID = np.round(np.arange(-10.0, -0.1 + 1e-9, 0.05), 10)
C2_GRID = np.round(np.arange(0.001, 5.0 + 1e-9, 0.001), 10)
# the transfer fit's bins, at most: 100 times finer than the 2 km/h that
# makes the benchmark's delta-v references 26-38 bins wide
MAX_FIT_BINS = 4096
# fit_transfer's bounded search: its blocks of C2 indices, coarse to fine;
# the margin by which a block's lower bound must exceed a row's least cost
# for the block to be dropped, as a share of the original's mass (256 times
# the rounding bound that fit_transfer proves); and the grid points that one
# step evaluates, at most
FIT_BLOCKS = (1024, 128, 16)
FIT_MARGIN = 2.0 ** -28
FIT_CHUNK = 1024

OCCUPANTS_CSV_HEADER = ["delta_v_kmh", "mais", "role"]


@dataclass(frozen=True)
class OccupantRecord:
    """One occupant from the insurance data: delta-v and worst injury."""

    delta_v: float  # km/h
    mais: int       # 0..6, 0 = uninjured (PDO proxy)
    role: str = "driver"

    def __post_init__(self):
        if not 0 <= self.mais <= 6:
            raise ValidationError("mais must be in 0..6")
        if not 0 <= self.delta_v < math.inf:
            raise ValidationError(
                f"occupant delta_v_kmh must be finite and >= 0 (got {self.delta_v})")


@dataclass(frozen=True)
class PdoModel:
    """Exponential PDO shape f(dv) = B1 * exp(-B2 * dv), in units of
    probability density over the complete (PDO-augmented) occupant set."""

    B1: float
    B2: float

    def __post_init__(self):
        if self.B1 <= 0 or self.B2 <= 0:
            raise ValidationError("B1 and B2 must be positive")

    def density(self, dv) -> np.ndarray:
        return self.B1 * np.exp(-self.B2 * np.asarray(dv, dtype=float))


@dataclass(frozen=True)
class TransferFunction:
    """Logistic censoring model P(dv) = sigmoid(C1 + C2*dv)."""

    C1: float
    C2: float

    def __call__(self, dv):
        z = self.C1 + self.C2 * np.asarray(dv, dtype=float)
        out = 1.0 / (1.0 + np.exp(-z))
        return float(out) if out.ndim == 0 else out

    @property
    def midpoint(self) -> float:
        """Delta-v where P = 0.5."""
        return -self.C1 / self.C2


def _counts_histogram(dvs: np.ndarray, bin_width: float, n_bins: int) -> np.ndarray:
    bins = np.floor(dvs / bin_width)
    check_bins(bins.max(initial=0.0), f"bin width {bin_width!r} km/h")
    idx = bins.astype(int)
    n = max(n_bins, (int(idx.max()) + 1) if idx.size else 0)
    return np.bincount(idx, minlength=n).astype(float)


def _fit_exponential(centers: np.ndarray, density: np.ndarray) -> PdoModel:
    """Log-linear least squares on strictly positive bins, weighted by bin
    mass (the inverse-variance weight for log counts), so sparse tail bins
    do not dominate the fit."""
    mask = density > 0
    if mask.sum() < 2:
        raise FitError("exponential fit needs at least two positive bins")
    x = centers[mask]
    y = np.log(density[mask])
    slope, intercept = np.polyfit(x, y, 1, w=np.sqrt(density[mask]))
    if slope >= 0 or not math.isfinite(slope):
        raise FitError(f"exponential fit produced a non-decaying shape "
                       f"(slope {slope:.4g})")
    return PdoModel(B1=float(math.exp(intercept)), B2=float(-slope))


def _allocate(deficit: float, present: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Nonnegative allocation summing to `deficit` that brings
    present+allocation as close as possible (least squares) to `target`:
    a_i = max(0, target_i - present_i + lam) with lam solving the budget."""
    gap = target - present
    lo = -max(gap.max(), 0.0) - deficit
    hi = deficit + max(-gap.min(), 0.0)
    for _ in range(200):
        lam = 0.5 * (lo + hi)
        total = np.maximum(gap + lam, 0.0).sum()
        if total > deficit:
            hi = lam
        else:
            lo = lam
    return np.maximum(gap + 0.5 * (lo + hi), 0.0)


def build_pdo(records: list[OccupantRecord], p_pdo: float = DEFAULT_P_PDO,
              n_fill_bins: int = DEFAULT_N_FILL_BINS,
              bin_width: float = DEFAULT_BIN_WIDTH_KMH):
    """Complete the censored PDO data and fit the exponential shape.

    The complete occupant set must be `p_pdo` PDO, so the PDO total is
    injured * p_pdo / (1 - p_pdo); whatever is missing from the records
    (the crashes below the repair-cost threshold) is allocated to the
    `n_fill_bins` lowest delta-v bins (at or below the observed PDO mode
    for threshold-censored data) by nonnegative least squares against the
    fitted exponential, iterating allocation and fit until the allocation
    stabilizes.

    Returns (PdoModel, augmented PDO histogram, diagnostics).
    """
    if not 0 < p_pdo < 1:
        raise ValidationError("p_pdo must be in (0, 1)")
    if n_fill_bins < 1:
        raise ValidationError(f"n_fill_bins must be >= 1, got {n_fill_bins}")
    check_bins(n_fill_bins - 1, f"n_fill_bins {n_fill_bins}")
    check_bin_width(bin_width)
    pdo_dvs = np.array([r.delta_v for r in records if r.mais == 0])
    n_injured = sum(1 for r in records if r.mais > 0)
    if pdo_dvs.size == 0 or n_injured == 0:
        raise ValidationError("records must contain both MAIS0 and MAIS1-6 mass")

    present = _counts_histogram(pdo_dvs, bin_width, n_fill_bins)
    n_bins = len(present)
    centers = bin_width * (np.arange(n_bins) + 0.5)
    mode_idx = int(np.argmax(present))

    pdo_target = n_injured * p_pdo / (1.0 - p_pdo)
    deficit = pdo_target - pdo_dvs.size
    if deficit < -1e-9:
        raise ValidationError(
            f"PDO share already exceeds p_pdo={p_pdo}: nothing to add "
            f"(deficit {deficit:.3f})")
    deficit = max(deficit, 0.0)
    n_complete = n_injured / (1.0 - p_pdo)
    to_density = 1.0 / (n_complete * bin_width)

    fill = slice(0, n_fill_bins)
    alloc = np.zeros(n_bins)
    if deficit > 0:
        alloc[fill] = deficit / n_fill_bins  # flat start, reshaped below
    model = _fit_exponential(centers, (present + alloc) * to_density)
    iterations = 0
    while deficit > 0 and iterations < PDO_MAX_ITER:
        iterations += 1
        target_counts = model.density(centers[fill]) / to_density
        new_fill = _allocate(deficit, present[fill], target_counts)
        change = np.abs(new_fill - alloc[fill]).max()
        alloc[fill] = new_fill
        model = _fit_exponential(centers, (present + alloc) * to_density)
        if change <= PDO_TOL * max(deficit, 1.0):
            break

    full = present + alloc
    residual = float(np.sqrt(np.mean(
        (full[fill] * to_density - model.density(centers[fill])) ** 2)))
    pdo_hist = DeltaVDistribution(
        bin_width, full / full.sum(), 0.0, int(round(full.sum())))
    pdo_hist.mean = pdo_hist.binned_mean()
    diagnostics = {
        "deficit": float(deficit),
        "pdo_present": int(pdo_dvs.size),
        "n_injured": int(n_injured),
        "mode_bin": mode_idx,
        "iterations": iterations,
        "fit_residual": residual,
        "allocation": alloc[fill].tolist(),
    }
    return model, pdo_hist, diagnostics


def augment_reference(injury_dist: DeltaVDistribution, pdo: PdoModel,
                      p_pdo: float = DEFAULT_P_PDO) -> DeltaVDistribution:
    """Mix the fitted PDO shape under the injury-only reference so the PDO
    mass fraction of the result equals p_pdo. Unchecked: `build_pdo`, which
    fits `pdo` first, requires 0 < p_pdo < 1."""
    shape = pdo.density(injury_dist.centers)
    shape = shape / shape.sum()
    weights = p_pdo * shape + (1.0 - p_pdo) * injury_dist.weights
    out = DeltaVDistribution(injury_dist.bin_width, weights, 0.0,
                             injury_dist.count)
    out.mean = out.binned_mean()
    return out


def fit_transfer(with_pdo: DeltaVDistribution,
                 original: DeltaVDistribution) -> tuple[TransferFunction, dict]:
    """Grid search for the logistic (C1, C2) minimizing the summed absolute
    bin difference between `original` and the transformed `with_pdo`, the
    latter rescaled to the original's total mass M before differencing.
    Ties resolve to the smallest C1, then C2. Each C1 row's minimum over C2
    is exact, found by a bounded search that evaluates a few percent of the
    grid on fit-bias's inputs.

    Cost. At grid point (c1, c2), with bin centres x_k > 0: p_k =
    sigmoid(c1 + c2 x_k), t_k = p_k with_pdo_k, T = sum_k t_k, y_k =
    M t_k / T and cost = sum_k |orig_k - y_k|. A point's cost has the bits
    of the exhaustive search: ``1 / (1 + exp((-c1) + (-c2)*x))``
    elementwise, then each sum over one C-contiguous row of all the bins,
    in NumPy's pairwise order. ``(-c1) + ((-c2)*x)`` for ``-(c1 + c2*x)``
    is exact: round-to-nearest is symmetric under negation, and the sign of
    an exact zero, the only possible difference, leaves exp at 1.

    Lower bound. Every x_k > 0, so p_k, t_k and T rise with c2. On a block
    of C2 indices [a, b], every y_k therefore lies in
    [M t_k(a) / T(b), M t_k(b) / T(a)], and the block's lower bound is the
    sum over k of the distance from orig_k to that interval.

    Search. Level -1 is each row's whole C2 range; its two end points are
    evaluated first. U, a row's least cost found so far, is attained by an
    evaluated point. A block is kept while its lower bound is at most U + m,
    with the margin m = FIT_MARGIN * M. A kept block is split into blocks
    of the next FIT_BLOCKS size: only the new end points are evaluated, and
    each child carries its end points' t and T, so no point is evaluated
    twice. A kept block of the last size has its interior points
    evaluated. Batches of blocks from all rows go through a stack, deepest
    level first, so the stack holds at most one batch per level. A step
    evaluates at most FIT_CHUNK points and stacks at most FIT_CHUNK / 4
    blocks, so memory does not depend on how many blocks are kept. A row's
    minimum is its least evaluated cost, at its lowest C2 index: a dropped
    block holds no point whose computed cost is at most U (below), so every
    point at the row's minimum is evaluated, as np.argmin's first-index
    rule over the whole row needs. If no block can be dropped, as when the
    transformed `with_pdo` barely changes shape with c2, every point is
    evaluated once.

    Rounding. Let u = 2**-53 and assume np.exp errs by less than 8 ulp.
    Every c1 in C1_GRID is in [-10, 0], so rounding the exponent moves
    ln p_k by at most 11u, and each computed t_k is within 2**-47 of t_k
    relatively. At most MAX_FIT_BINS = 2**12 nonnegative terms sum within
    2**-41 of their total in any order, so the computed T and scaled bins
    are within 2**-40 of T and y_k. As sum_k y_k = M and the exact cost is
    below 2.01 M, a computed cost is within 2**-38 M of the exact one. The
    computed lower bound exceeds the exact one by at most 2**-38 M plus
    2**-40 of itself: an interval end errs relatively by at most 2**-40, a
    bin's distance by that times orig_k or the interval's low end, and the
    low ends sum to M T(a) / T(b) <= M. So, with U below 2.01 M and the
    sum U + m rounded, a computed bound above U + m keeps every computed
    cost in its block above U whenever m >= 2**-36 M. That is the proven
    rounding bound, and FIT_MARGIN = 2**-28 is 256 times it. Underflow,
    which adds at most 2**-1074 per operation, is left out.

    Histograms over MAX_FIT_BINS bins wide raise ValidationError.
    Unchecked: both histograms have positive mass, since every
    DeltaVDistribution's weights sum to 1 within 1e-9 (its constructor
    refuses any other total) and `align_bins` only pads them with zeros.
    The diagnostics hold the least cost, whether the fit sits on the
    grid's edge, each row's minimum and the number of grid points
    evaluated."""
    wp, orig = align_bins(with_pdo, original)
    if len(wp) > MAX_FIT_BINS:
        raise ValidationError(
            f"bin width {with_pdo.bin_width!r} km/h makes the transfer fit "
            f"{len(wp)} bins wide, more than {MAX_FIT_BINS}")
    centers = with_pdo.bin_width * (np.arange(len(wp)) + 0.5)
    orig_mass = orig.sum()
    margin = FIT_MARGIN * orig_mass
    n_c2 = len(C2_GRID)
    neg_c1, neg_c2 = -C1_GRID[:, None], -C2_GRID[:, None]
    cost_by_c1 = np.full(len(C1_GRID), math.inf)
    c2_index = np.full(len(C1_GRID), n_c2)
    evaluated = 0

    def evaluate(row, idx, keep: bool = True):
        """t = p * wp and T at the points (C1_GRID[row], C2_GRID[idx]),
        whose costs lower their rows' minima; t only if `keep`."""
        nonlocal evaluated
        t = np.multiply(neg_c2[idx], centers)                    # -(C2 * x)
        np.exp(np.add(neg_c1[row], t, out=t), out=t)
        np.divide(1.0, np.add(1.0, t, out=t), out=t)             # p
        np.multiply(t, wp, out=t)                                # t = p * wp
        total = np.sum(t, axis=1)
        y = np.multiply(np.divide(orig_mass, total)[:, None], t,
                        out=None if keep else t)
        cost = np.sum(np.abs(np.subtract(orig, y, out=y), out=y), axis=1)
        # each row's least cost, at its lowest C2 index
        c2_index[row[cost < cost_by_c1[row]]] = n_c2
        np.minimum.at(cost_by_c1, row, cost)
        hit = cost == cost_by_c1[row]
        np.minimum.at(c2_index, row[hit], idx[hit])
        evaluated += len(idx)
        return t, total

    def push(level: int, row, a, b, t, total, ia, ib) -> None:
        """Stack the blocks [a, b] of `level` that may hold their row's
        minimum; t[ia] and t[ib] are their end points' t."""
        lo, hi = t[ia], t[ib]
        np.multiply(lo, np.divide(orig_mass, total[ib])[:, None], out=lo)
        np.multiply(hi, np.divide(orig_mass, total[ia])[:, None], out=hi)
        np.subtract(lo, orig, out=lo)
        np.maximum(lo, np.subtract(orig, hi, out=hi), out=lo)
        bound = np.sum(np.maximum(lo, 0.0, out=lo), axis=1)
        kept = (bound <= cost_by_c1[row] + margin) & (b - a > 1)
        if not kept.any():
            return
        row, a, b, ia, ib = row[kept], a[kept], b[kept], ia[kept], ib[kept]
        if level + 1 < len(FIT_BLOCKS):
            stack.append((level, row, a, b, t[ia], t[ib], total[ia], total[ib]))
        else:  # the last level evaluates its interior points only
            stack.append((level, row, a, b))

    def split(level: int, row, a, b, ta, tb, total_a, total_b) -> None:
        """Evaluate the points that split each block [a, b] of `level`
        into blocks of the next level's size, and stack those."""
        size = FIT_BLOCKS[level + 1]
        n = len(row)
        m = (b - a - 1) // size      # new points per block
        k = np.repeat(np.arange(n), m + 1)
        j = np.arange(len(k)) - np.repeat(np.cumsum(m + 1) - m - 1, m + 1)
        # child j of block k starts at a new point, but for j = 0
        start = a[k] + size * j
        fresh = j > 0
        t_new, total_new = evaluate(row[k][fresh], start[fresh])
        last_new = 2 * n + np.cumsum(fresh) - 1
        push(level + 1, row[k], start, np.minimum(start + size, b[k]),
             np.concatenate([ta, tb, t_new]),
             np.concatenate([total_a, total_b, total_new]),
             np.where(fresh, last_new, k), np.where(j == m[k], n + k, last_new + 1))

    def interiors(level: int, row, a, b) -> None:
        """Evaluate every point inside each block [a, b]."""
        width = b - a - 1
        step = np.arange(width.sum()) - np.repeat(np.cumsum(width) - width, width)
        evaluate(np.repeat(row, width), np.repeat(a + 1, width) + step, keep=False)

    # level -1 holds one block per row, the whole C2 grid
    rows = np.arange(len(C1_GRID))
    ends = np.array([0, n_c2 - 1] if n_c2 > 1 else [0])
    stack = []
    push(-1, rows, np.zeros_like(rows), np.full_like(rows, n_c2 - 1),
         *evaluate(np.repeat(rows, len(ends)), np.tile(ends, len(rows))),
         len(ends) * rows, len(ends) * rows + len(ends) - 1)
    while stack:
        level, *batch = stack.pop()
        # a step evaluates at most FIT_CHUNK points, and stacks at most a
        # quarter as many blocks
        if level + 1 < len(FIT_BLOCKS):
            parent = FIT_BLOCKS[level] if level >= 0 else n_c2 - 1
            work, per = split, FIT_CHUNK // 4 // -(-parent // FIT_BLOCKS[level + 1])
        else:
            work, per = interiors, FIT_CHUNK // FIT_BLOCKS[level]
        per = max(per, 1)
        if len(batch[0]) > per:
            stack.append((level, *(x[per:] for x in batch)))
            batch = [x[:per] for x in batch]
        work(level, *batch)

    best_cost = math.inf
    best = (C1_GRID[0], C2_GRID[0])
    for r, c1 in enumerate(C1_GRID):
        if cost_by_c1[r] < best_cost:
            best_cost = float(cost_by_c1[r])
            best = (float(c1), float(C2_GRID[c2_index[r]]))
    tf = TransferFunction(*best)
    # a fit pinned to the grid edge usually means the inputs already share
    # a selection process (P saturates toward 1 over the whole support)
    saturated = (best[0] == float(C1_GRID[-1])
                 or best[1] in (float(C2_GRID[0]), float(C2_GRID[-1])))
    diagnostics = {"cost": best_cost, "saturated": bool(saturated),
                   "cost_by_c1": cost_by_c1.tolist(),
                   "points_evaluated": evaluated}
    return tf, diagnostics


def apply_transfer(dist: DeltaVDistribution, tf: TransferFunction) -> DeltaVDistribution:
    """Censor an all-severity histogram like the injury database: multiply
    each bin by P(dv) and renormalize."""
    weights = dist.weights * tf(dist.centers)
    total = weights.sum()
    if total <= 0:
        raise ValidationError("transfer removed all mass")
    out = DeltaVDistribution(dist.bin_width, weights / total, 0.0, dist.count)
    out.mean = out.binned_mean()
    return out


# ---------------------------------------------------------------- file I/O

def load_occupants(path: str | Path) -> list[OccupantRecord]:
    """Occupant records from a ``delta_v_kmh,mais,role`` CSV file. A row
    with the wrong number of fields, a delta-v that is not a finite number
    >= 0, a MAIS that is not one of 0..6, or a file without records raises
    ParseError naming ``path:line``."""
    chunk = table.read_csv(path, OCCUPANTS_CSV_HEADER)
    if not chunk.n_rows:
        raise ParseError(f"{path}:1: no occupant records")
    dv = chunk.floats("delta_v_kmh")
    valid = (dv >= 0) & (dv < math.inf)
    if not valid.all():
        bad = int(np.argmin(valid))
        raise chunk.error(bad, f"delta_v_kmh must be finite and >= 0, got "
                               f"{chunk['delta_v_kmh'][bad]!r}")
    return list(map(OccupantRecord, dv.tolist(),
                    chunk.indices("mais", 7).tolist(), chunk["role"]))


def load_transfer(path: str | Path) -> TransferFunction:
    raw = read_json(path, "transfer function", {"C1": "float", "C2": "float"})
    return TransferFunction(float(raw["C1"]), float(raw["C2"]))
