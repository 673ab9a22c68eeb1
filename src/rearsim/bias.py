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
import os
import threading
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

C1_GRID = np.round(np.arange(-10.0, -0.1 + 1e-9, 0.05), 10)
C2_GRID = np.round(np.arange(0.001, 5.0 + 1e-9, 0.001), 10)
# the transfer fit's work buffer is len(C2_GRID) x bins float64, 164 MB at
# this cap, which admits bins 100 times finer than the 2 km/h that makes the
# benchmark's delta-v references 26-38 bins wide
MAX_FIT_BINS = 4096

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
              bin_width: float = DEFAULT_BIN_WIDTH_KMH,
              max_iter: int = 100, tol: float = 1e-10):
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
    for iterations in range(1, max_iter + 1):
        if deficit == 0:
            break
        target_counts = model.density(centers[fill]) / to_density
        new_fill = _allocate(deficit, present[fill], target_counts)
        change = np.abs(new_fill - alloc[fill]).max()
        alloc[fill] = new_fill
        model = _fit_exponential(centers, (present + alloc) * to_density)
        if change <= tol * max(deficit, 1.0):
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


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def fit_transfer(with_pdo: DeltaVDistribution,
                 original: DeltaVDistribution) -> tuple[TransferFunction, dict]:
    """Exhaustive grid search for the logistic (C1, C2) minimizing the
    summed absolute bin difference between `original` and the transformed
    `with_pdo`, the latter rescaled to the original's total mass before
    differencing. Ties resolve to the smallest C1, then C2.

    The C2 grid is split into one contiguous block of rows per usable CPU,
    and one thread per block runs every C1 row over it; with one CPU no
    thread is started. The blocks share one (n_c2, n_bins) work buffer,
    allocated once, so memory does not depend on the thread count. A
    block keeps, per C1 row, its minimum cost and that cost's index; the
    first block holding a row's minimum gives np.argmin's answer over the
    whole row, and the strict-< scan over the C1 rows picks the fit.

    The result is byte-identical to evaluating
    ``1 / (1 + exp(-(c1 + C2*x)))`` with a new array per step over the
    whole grid: every step is elementwise, and each row's sum still runs
    over one C-contiguous row of unchanged length, so NumPy's pairwise
    summation order is unchanged. The one rewrite, ``-(c1 + C2*x)`` as
    ``(-c1) + ((-C2)*x)``, is exact: round-to-nearest is symmetric under
    negation, and the sign of an exact zero, the only possible difference,
    leaves exp at 1. Histograms over MAX_FIT_BINS bins wide raise
    ValidationError before the buffer is allocated."""
    wp, orig = align_bins(with_pdo, original)
    if len(wp) > MAX_FIT_BINS:
        raise ValidationError(
            f"bin width {with_pdo.bin_width!r} km/h makes the transfer fit "
            f"{len(wp)} bins wide, more than {MAX_FIT_BINS}")
    centers = with_pdo.bin_width * (np.arange(len(wp)) + 0.5)
    orig_mass = orig.sum()
    if orig_mass <= 0 or wp.sum() <= 0:
        raise FitError("both histograms need positive mass")

    n_c2 = len(C2_GRID)
    neg_c2 = -C2_GRID[:, None]
    work = np.empty((n_c2, len(wp)))
    scale, cost = np.empty(n_c2), np.empty(n_c2)
    n_blocks = min(usable_cpus(), n_c2)
    edges = [n_c2 * b // n_blocks for b in range(n_blocks + 1)]
    block_min = np.empty((n_blocks, len(C1_GRID)))
    block_arg = np.empty((n_blocks, len(C1_GRID)), dtype=np.intp)
    failures = []

    def search(b: int) -> None:
        lo, hi = edges[b], edges[b + 1]
        w, s, c = work[lo:hi], scale[lo:hi], cost[lo:hi]
        try:
            for r, c1 in enumerate(C1_GRID):
                np.multiply(neg_c2[lo:hi], centers, out=w)             # -(C2 * x)
                np.exp(np.add(-c1, w, out=w), out=w)
                np.divide(1.0, np.add(1.0, w, out=w), out=w)           # p
                np.multiply(w, wp, out=w)                              # t = p * wp
                np.divide(orig_mass, np.sum(w, axis=1, out=s), out=s)
                np.multiply(s[:, None], w, out=w)
                np.sum(np.abs(np.subtract(orig, w, out=w), out=w), axis=1, out=c)
                k = int(np.argmin(c))
                block_min[b, r], block_arg[b, r] = c[k], lo + k
        except Exception as exc:  # raised again in the calling thread
            failures.append(exc)

    threads = [threading.Thread(target=search, args=(b,))
               for b in range(1, n_blocks)]
    for thread in threads:
        thread.start()
    search(0)
    for thread in threads:
        thread.join()
    if failures:
        raise failures[0]

    first = np.argmin(block_min, axis=0)
    rows = np.arange(len(C1_GRID))
    cost_by_c1, c2_index = block_min[first, rows], block_arg[first, rows]
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
                   "cost_by_c1": cost_by_c1.tolist()}
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
