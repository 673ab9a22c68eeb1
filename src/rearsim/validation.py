"""Distribution comparison statistics, percentile-uniformity assessment,
injury-risk integration, and crash-avoidance rates."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import table
from .errors import ParseError, ValidationError
from .manifest import check_json, read_json
from .outcome import CampaignWeighting, DeltaVDistribution, align_bins

CURVE_CSV_HEADER = ("delta_v_kmh", "risk")
BELOW_MIN = "below-min"
ABOVE_MAX = "above-max"


@dataclass(frozen=True)
class ComparisonStats:
    """Summary statistics between two binned delta-v distributions."""

    abs_mean_diff: float           # km/h, |mean(p) - mean(q)|
    mean_abs_diff: float           # mean per-bin |p - q|
    weighted_mean_abs_diff: float  # per-bin |p - q| weighted by bin mass
    max_abs_diff: float
    tv_distance: float             # 0.5 * L1
    kl_divergence: float           # nats, after half-count smoothing
    ks_distance: float             # max CDF gap


def compare(p: DeltaVDistribution, q: DeltaVDistribution) -> ComparisonStats:
    """Compare two histograms on a shared binning.

    The KL divergence cannot handle empty bins, so each histogram is
    rescaled to its effective crash count, half a count is added to every
    bin, and the result renormalized; weights for the weighted mean
    absolute difference are the average of the two bins' masses. The count
    is the histogram's `count`, at least 1: `validate` reads its model with
    `load_histogram`, at count 1, so it smooths the model as one crash.
    """
    pw, qw = align_bins(p, q)
    diff = np.abs(pw - qw)
    avg = 0.5 * (pw + qw)

    n_p = max(p.count, 1)
    n_q = max(q.count, 1)
    ps = pw * n_p + 0.5
    qs = qw * n_q + 0.5
    ps /= ps.sum()
    qs /= qs.sum()
    kl = float((ps * np.log(ps / qs)).sum())

    cdf_gap = np.abs(np.cumsum(pw) - np.cumsum(qw))
    return ComparisonStats(
        abs_mean_diff=abs(p.mean - q.mean),
        mean_abs_diff=float(diff.mean()),
        weighted_mean_abs_diff=float((avg * diff).sum()),
        max_abs_diff=float(diff.max()),
        tv_distance=float(0.5 * diff.sum()),
        kl_divergence=max(kl, 0.0),
        ks_distance=float(cdf_gap.max()),
    )


def seed_percentile(seed_dv: float, dvs, weights) -> float | str:
    """Mid-rank percentile of the seed's delta-v inside its generated
    crashes: 100 * (mass strictly below + half the mass equal). Seeds
    outside the generated support return a marker instead. Unchecked: the
    weights are finite numbers >= 0, one per delta-v, and some weight is
    > 0; `seed_percentiles` passes only such seeds."""
    dvs = np.asarray(dvs, dtype=float)
    weights = np.asarray(weights, dtype=float)
    keep = weights > 0
    dvs, weights = dvs[keep], weights[keep]
    weights = weights / weights.sum()
    if seed_dv < dvs.min():
        return BELOW_MIN
    if seed_dv > dvs.max():
        return ABOVE_MAX
    below = weights[dvs < seed_dv].sum()
    equal = weights[dvs == seed_dv].sum()
    return float(100.0 * (below + 0.5 * equal))


def seed_percentiles(weighting: CampaignWeighting) -> dict[str, float | str]:
    """`seed_percentile` of each eligible seed's own delta-v, by seed id in
    seed order, with the no-response share mixed in per seed: a crashed
    no-response run's delta-v carries the campaign's fraction, the crash
    samples the rest. A seed without a delta-v of its own, or whose crash
    samples carry no weight (none, or all underflowed), is left out."""
    fraction = weighting.campaign.no_response_fraction
    shares = weighting.shares()  # the weighted seeds, in the campaign's order
    share = next(shares, None)
    out = {}
    for r in weighting.campaign.results:
        dvs, cell_w, cell_mass = np.zeros(0), np.zeros(0), 0.0
        if share is not None and share[0] is r:
            _, dvs, cell_w, cell_mass = share
            share = next(shares, None)
        if r.excluded or r.seed_delta_v_kmh is None:
            continue
        nr_dv = r.no_response_dv
        f = 0.0 if math.isnan(nr_dv) else fraction
        weights = (1.0 - f) * cell_w / cell_mass if cell_mass else cell_w
        if f > 0:
            # [f] alone normalizes to exactly [1.0] in seed_percentile
            dvs, weights = np.append(dvs, nr_dv), np.append(weights, f)
        if not weights.any():
            continue
        out[r.seed_id] = seed_percentile(r.seed_delta_v_kmh, dvs, weights)
    return out


def chi2_sf(x: float, df: int) -> float:
    """Upper tail P(X > x) of a chi-square variable with integer `df`
    degrees of freedom: the regularized upper incomplete gamma
    Q(df/2, x/2) in closed form. With y = x/2, even df = 2m gives
    Q(m, y) = sum_{k<m} e^-y y^k / k!, and odd df = 2m+1 gives
    Q(m+1/2, y) = erfc(sqrt y) + sum_{k=1..m} e^-y y^(k-1/2) / Gamma(k+1/2).
    Every term is positive and computed in log space, so a deep tail
    underflows quietly to 0.0. Unchecked: df >= 1, since
    `percentile_histogram` requires at least two bins."""
    if x <= 0:
        return 1.0
    y = 0.5 * x
    log_y = math.log(y)
    if df % 2 == 0:
        head, powers = 0.0, range(df // 2)
    else:
        head, powers = math.erfc(math.sqrt(y)), (k - 0.5 for k in range(1, df // 2 + 1))
    tail = math.fsum(math.exp(a * log_y - y - math.lgamma(a + 1.0)) for a in powers)
    return min(head + tail, 1.0)


@dataclass(eq=False)
class PercentileReport:
    """Histogram of per-seed percentiles plus a chi-square uniformity
    check over the in-range seeds."""

    n_bins: int
    counts: np.ndarray
    below_min: int
    above_max: int
    chi2: float
    p_value: float

    @property
    def n_in_range(self) -> int:
        return int(self.counts.sum())


def percentile_histogram(percentiles, n_bins: int = 10) -> PercentileReport:
    """Bin percentile values (and markers) and test the in-range part
    against uniformity. The statistic is reported, not gated."""
    if n_bins < 2:
        raise ValidationError(f"n_bins must be >= 2, got {n_bins}")
    counts = np.zeros(n_bins, dtype=int)
    below = above = 0
    for value in percentiles:
        if value == BELOW_MIN:
            below += 1
        elif value == ABOVE_MAX:
            above += 1
        else:
            idx = min(int(float(value) / 100.0 * n_bins), n_bins - 1)
            counts[idx] += 1
    n = counts.sum()
    if n > 0:
        expected = n / n_bins
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        p_value = chi2_sf(chi2, n_bins - 1)
    else:
        chi2, p_value = math.nan, math.nan
    return PercentileReport(n_bins, counts, below, above, chi2, p_value)


@dataclass(eq=False)
class InjuryRiskCurve:
    """Risk of at least one occupant reaching an injury level, as a
    nondecreasing function of delta-v. Either tabulated (linear
    interpolation, clamped ends) or logistic. Unchecked: exactly one of the
    two is given, as `load_injury_curve` passes the one its file holds."""

    level: str
    dv: np.ndarray | None = None
    risk: np.ndarray | None = None
    logistic: tuple[float, float] | None = None  # (intercept, slope)

    def __post_init__(self):
        if self.dv is not None:
            self.dv = np.asarray(self.dv, dtype=float)
            self.risk = np.asarray(self.risk, dtype=float)
            if np.any(np.diff(self.dv) <= 0):
                raise ValidationError("curve delta-v values must be increasing")
            if np.any(self.risk < 0) or np.any(self.risk > 1):
                raise ValidationError("risk values must be in [0, 1]")
            if np.any(np.diff(self.risk) < 0):
                raise ValidationError("risk must be nondecreasing in delta-v")
        else:
            a, b = self.logistic
            if b < 0:
                raise ValidationError("logistic slope must be >= 0")

    def __call__(self, dv):
        dv = np.asarray(dv, dtype=float)
        if self.logistic is not None:
            a, b = self.logistic
            out = 1.0 / (1.0 + np.exp(-(a + b * dv)))
        else:
            out = np.interp(dv, self.dv, self.risk)
        return float(out) if out.ndim == 0 else out


def injury_risk(h: DeltaVDistribution, curve: InjuryRiskCurve) -> float:
    """Expected injured proportion: the risk curve integrated against the
    delta-v histogram."""
    return float((curve(h.centers) * h.weights).sum())


def crash_avoidance_rate(baseline: dict[str, float],
                         treatment: dict[str, float]) -> tuple[float, dict[str, float]]:
    """Per-seed avoidance 1 - q_treatment/q_baseline and their mean, from
    each seed's crash probability q by seed id (`SeedWeight.q_raw`), in
    the baseline's order. A seed missing from `treatment` no longer crashes
    at all and scores 1. Raw ratios are reported (no clamping). Unchecked:
    every baseline q is > 0, as `prevalence_weights` keeps only such
    seeds, and refuses a baseline without one."""
    per_seed = {sid: 1.0 - treatment.get(sid, 0.0) / q for sid, q in baseline.items()}
    return float(np.mean(list(per_seed.values()))), per_seed


# ---------------------------------------------------------------- file I/O

def load_injury_curve(path: str | Path, level: str | None = None) -> InjuryRiskCurve:
    """Load a curve from CSV (delta_v_kmh,risk) or JSON logistic parameters
    {"level", "intercept", "slope"}. A malformed file raises ParseError; for
    a CSV file (a bad row, a non-finite value, no rows) it names
    ``path:line``."""
    path = Path(path)
    if path.suffix == ".json":
        raw = read_json(path, "injury curve", {"intercept": "float", "slope": "float"})
        check_json(raw, f"{path}: injury curve", {"level": "str"}, required=False)
        return InjuryRiskCurve(raw.get("level", level or path.stem), logistic=(
            float(raw["intercept"]), float(raw["slope"])))
    chunk = table.read_csv(path, CURVE_CSV_HEADER)
    if not chunk.n_rows:
        raise ParseError(f"{path}:1: no curve points after the header")
    dv, risk = chunk.floats("delta_v_kmh"), chunk.floats("risk")
    finite = np.isfinite(dv) & np.isfinite(risk)
    if not finite.all():
        raise chunk.error(int(np.argmin(finite)), "non-finite value")
    return InjuryRiskCurve(level=level or path.stem, dv=dv, risk=risk)
