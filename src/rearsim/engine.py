"""Forward simulation of counterfactual cases and the per-seed parameter
sweep.

The kernel integrates the follower with semi-implicit Euler on the seed's
10 ms grid: deceleration is evaluated at the step start, the speed update
is applied, then position advances with the new speed. Impact time and
speeds are interpolated linearly inside the crossing step.

The sweep exploits outcome monotonicity: for a fixed maximum deceleration,
a later brake onset can only crash at the same or a higher impact speed,
and whether a cell crashes is monotone in onset. A binary search finds
the crash boundary per deceleration bin; the scan upward stops after two
consecutive crashes at the same impact speed once the response no longer
starts before impact, and the rest of the row is filled without running
the kernel. Filled rows are spot-checked by one random re-simulation.
"""

from __future__ import annotations

import json
import logging
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import table
from .distributions import (
    DecelDistribution,
    GlanceDistribution,
    cut_glances,
    overshoot_transform,
)
from .drivers import CbmConfig, ReactionTimeDistribution, discretize_reaction_time
from .errors import ModelUndefinedError, ParseError, ValidationError
from .looming import find_anchor, looming_series
from .scenario import (
    DEFAULT_HORIZON_EXTENSION,
    LEAD_BRAKING,
    CounterfactualSeed,
    SeedCrash,
    remove_evasive_maneuver,
)

log = logging.getLogger(__name__)

IMPACT_SPEED_TOL = 0.01  # m/s, "same impact speed" in the sweep stop rule
# a marginal recovered from saved cell probabilities is renormalized, and
# input distributions need only sum to 1 within 1e-9
MARGINAL_RTOL = 1e-6

MODEL_CBM = "cbm"
MODEL_BLOM = "blom"

MATRIX_CSV_HEADER = ["seed_id", "axis1_bin", "decel_bin", "crashed",
                     "v1", "v2", "max_severity", "p_cell"]


@dataclass(frozen=True)
class SimOutcome:
    """Result of one simulated case."""

    crashed: bool
    impact_time: float | None = None
    v1: float | None = None  # follower speed at first overlap, m/s
    v2: float | None = None  # lead speed at first overlap, m/s
    max_severity: bool = False  # response never began before impact


NO_CRASH = SimOutcome(False)


class _SeedKinematics:
    """Precomputed arrays for one counterfactual seed."""

    def __init__(self, cf: CounterfactualSeed, dt: float):
        if abs(cf.dt - dt) > 1e-9:
            raise ValidationError(
                f"simulation dt {dt} does not match the seed grid {cf.dt}")
        self.t = cf.lead.t
        self.dt = dt
        self.lead_pos = cf.lead.pos
        self.lead_speed = cf.lead.speed
        self.v0 = cf.follower_speed
        self.x0 = float(cf.follower.pos[0])
        if cf.gap()[0] <= 0:
            raise ValidationError(f"seed {cf.id}: vehicles overlap at start")

    def run(self, onset: float, d_max: float, jerk: float) -> SimOutcome:
        t, dt = self.t, self.dt
        if math.isinf(onset):
            a = np.zeros(len(t))
        else:
            a = np.clip(abs(jerk) * (t - onset), 0.0, d_max)
        v = np.empty(len(t))
        v[0] = self.v0
        v[1:] = self.v0 - np.cumsum(a[:-1] * dt)
        np.maximum(v, 0.0, out=v)
        x = np.empty(len(t))
        x[0] = self.x0
        x[1:] = self.x0 + np.cumsum(v[1:] * dt)
        gap = self.lead_pos - x
        below = gap <= 0
        if not below.any():
            return NO_CRASH
        k = int(np.argmax(below))
        alpha = gap[k - 1] / (gap[k - 1] - gap[k])
        t_impact = float(t[k - 1] + alpha * dt)
        v1 = float(v[k - 1] + alpha * (v[k] - v[k - 1]))
        v2 = float(self.lead_speed[k - 1]
                   + alpha * (self.lead_speed[k] - self.lead_speed[k - 1]))
        if v1 <= v2:
            return NO_CRASH  # grazing contact counts as avoidance
        max_severity = not bool((a[:k] > 0).any())
        return SimOutcome(True, t_impact, v1, v2, max_severity)


def simulate(cf: CounterfactualSeed, onset: float, d_max: float,
             jerk: float = -23.04, dt: float = 0.010) -> SimOutcome:
    """Simulate one (seed, brake onset, max deceleration) case.

    onset may be math.inf for the no-response driver.
    """
    if d_max <= 0:
        raise ValidationError("d_max must be positive")
    return _SeedKinematics(cf, dt).run(onset, d_max, jerk)


@dataclass(eq=False)
class OutcomeMatrix:
    """Per-seed grid of outcomes over (axis1 x max deceleration).

    axis1 is glance overshoot for the glance-based model (including the
    attentive overshoot-zero point) or reaction time for the brake-light
    model. Cell probability is the product of the axis marginals.
    """

    seed_id: str
    axis1: np.ndarray
    axis1_probs: np.ndarray
    decels: np.ndarray
    decel_probs: np.ndarray
    crashed: np.ndarray        # (n1, n2) bool
    v1: np.ndarray             # NaN where not crashed
    v2: np.ndarray
    impact_time: np.ndarray
    max_severity: np.ndarray   # bool
    kernel_calls: int = 0
    fallback_rows: int = 0

    @property
    def p_cell(self) -> np.ndarray:
        return np.outer(self.axis1_probs, self.decel_probs)

    @property
    def crash_mass(self) -> float:
        """Summed probability of the crashing cells (q_i of the seed)."""
        return float(self.p_cell[self.crashed].sum())

    @property
    def n_cells(self) -> int:
        return self.crashed.size


def _outcome_arrays(n1: int, n2: int):
    return dict(
        crashed=np.zeros((n1, n2), dtype=bool),
        v1=np.full((n1, n2), np.nan),
        v2=np.full((n1, n2), np.nan),
        impact_time=np.full((n1, n2), np.nan),
        max_severity=np.zeros((n1, n2), dtype=bool),
    )


def sweep_seed(cf: CounterfactualSeed, axis1: np.ndarray, axis1_probs: np.ndarray,
               onsets: np.ndarray, decels: DecelDistribution, jerk: float,
               dt: float, rng: np.random.Generator,
               exhaustive: bool = False) -> OutcomeMatrix:
    """Sweep the (axis1 x deceleration) grid for one seed.

    `onsets` holds the brake onset per axis1 value and must be
    nondecreasing (math.inf marks never-responding cells). The reduced
    sweep produces cells identical to exhaustive simulation.
    """
    axis1 = np.asarray(axis1, dtype=float)
    onsets = np.asarray(onsets, dtype=float)
    if np.any(np.diff(onsets) < 0):
        raise ValidationError("axis1 onsets must be sorted ascending")
    kin = _SeedKinematics(cf, dt)
    n1, n2 = len(axis1), decels.n_bins
    arrays = _outcome_arrays(n1, n2)
    calls = 0
    fallback_rows = 0

    def store(i: int, j: int, out: SimOutcome) -> None:
        if out.crashed:
            arrays["crashed"][i, j] = True
            arrays["v1"][i, j] = out.v1
            arrays["v2"][i, j] = out.v2
            arrays["impact_time"][i, j] = out.impact_time
            arrays["max_severity"][i, j] = out.max_severity

    for j, d_max in enumerate(decels.d_values):
        cache: dict[int, SimOutcome] = {}

        def sim(i: int) -> SimOutcome:
            nonlocal calls
            if i not in cache:
                cache[i] = kin.run(float(onsets[i]), float(d_max), jerk)
                calls += 1
            return cache[i]

        if exhaustive:
            for i in range(n1):
                store(i, j, sim(i))
            continue

        # locate the crash boundary: whether a cell crashes is monotone in
        # onset, so if the latest onset avoids, the whole row avoids
        if not sim(n1 - 1).crashed:
            continue
        lo, hi = 0, n1 - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if sim(mid).crashed:
                hi = mid
            else:
                lo = mid + 1
        boundary = lo

        # scan upward; stop after two consecutive equal impact speeds once
        # the response no longer starts before impact, then fill
        fill_from = None
        prev = None
        for i in range(boundary, n1):
            out = sim(i)
            if (prev is not None and out.max_severity
                    and abs(out.v1 - prev.v1) <= IMPACT_SPEED_TOL):
                fill_from = i + 1
                break
            store(i, j, out)
            prev = out
        if fill_from is None:
            continue
        plateau = cache[fill_from - 1]
        store(fill_from - 1, j, plateau)
        for i in range(fill_from, n1):
            store(i, j, plateau)
        if fill_from < n1:
            probe = int(rng.integers(fill_from, n1))
            checked = kin.run(float(onsets[probe]), float(d_max), jerk)
            calls += 1
            if checked != plateau:
                log.warning(
                    "seed %s decel %.3g: fill-in verification failed at "
                    "axis1=%s; falling back to exhaustive row",
                    cf.id, d_max, axis1[probe])
                fallback_rows += 1
                for i in range(n1):
                    store(i, j, sim(i))

    return OutcomeMatrix(
        seed_id=cf.id, axis1=axis1, axis1_probs=np.asarray(axis1_probs, float),
        decels=decels.d_values, decel_probs=decels.probs,
        kernel_calls=calls, fallback_rows=fallback_rows, **arrays)


# ---------------------------------------------------------------- campaign

@dataclass
class CampaignConfig:
    """Everything needed to run one simulation set."""

    model: str = MODEL_CBM
    cbm: CbmConfig = field(default_factory=CbmConfig)
    reaction_m: float = 1.275
    reaction_v: float = 0.36
    dt: float = 0.010
    horizon_extension: float = DEFAULT_HORIZON_EXTENSION
    rng_seed: int = 0
    glance_file: str | None = None
    decel_file: str | None = None
    glance_cut_at: float | None = None

    @classmethod
    def from_json(cls, path: str | Path) -> "CampaignConfig":
        with open(path) as fh:
            raw = json.load(fh)
        cbm_kwargs = raw.pop("cbm", {})
        cfg = cls(cbm=CbmConfig(**cbm_kwargs))
        for key, value in raw.items():
            if not hasattr(cfg, key):
                raise ValidationError(f"unknown campaign config key: {key}")
            setattr(cfg, key, value)
        if cfg.model not in (MODEL_CBM, MODEL_BLOM):
            raise ValidationError(f"unknown model {cfg.model!r}")
        return cfg


@dataclass(eq=False)
class SeedResult:
    """Per-seed campaign output next to its outcome matrix."""

    seed_id: str
    matrix: OutcomeMatrix | None
    no_response: SimOutcome
    anchor: float | None
    lead_behavior: str
    excluded: bool
    follower_mass: float
    lead_mass: float
    seed_delta_v_kmh: float | None
    theoretical_cells: int
    anchor_absent: bool = False


@dataclass(eq=False)
class CampaignResult:
    model: str
    results: list[SeedResult]

    @property
    def matrices(self) -> list[OutcomeMatrix]:
        return [r.matrix for r in self.results if r.matrix is not None]

    @property
    def excluded_ids(self) -> list[str]:
        return [r.seed_id for r in self.results if r.excluded]

    @property
    def theoretical_cells(self) -> int:
        return sum(r.theoretical_cells for r in self.results if not r.excluded)

    @property
    def kernel_calls(self) -> int:
        return sum(r.matrix.kernel_calls for r in self.results
                   if r.matrix is not None)

    @property
    def crash_cells(self) -> int:
        return int(sum(r.matrix.crashed.sum() for r in self.results
                       if r.matrix is not None))


def _cbm_axes(glance: GlanceDistribution):
    over = overshoot_transform(glance)
    axis1 = np.concatenate([[0.0], over.overshoots])
    probs = np.concatenate([[over.on_road_mass], over.probs])
    return axis1, probs


def reweight_cbm(baseline: list[OutcomeMatrix], glance: GlanceDistribution,
                 decels: DecelDistribution,
                 cut_at: float | None = None) -> list[OutcomeMatrix]:
    """Glance-based matrices for `glance` cut at `cut_at` seconds (None
    keeps every glance), built from `baseline` without running the kernel.

    A cut changes only the glance weights. The brake onset of an overshoot
    (anchor + overshoot + response delay), and so every cell outcome, stays
    the same, so a cut's matrix is the baseline rows on the cut's
    overshoot axis under the cut's marginals. The cut's overshoots are a
    subset of the uncut ones with bitwise equal values: both come from the
    same 0.1 s grid, and a cut only drops glance mass.

    `baseline` must come from a campaign under the uncut `glance` and
    `decels`: its grids must equal theirs and its marginals (recovered
    from cell probabilities, so renormalized) must match theirs to
    MARGINAL_RTOL. Anything else raises ValidationError.
    """
    axis1, axis1_probs = _cbm_axes(glance)
    cut_axis1, cut_probs = (axis1, axis1_probs) if cut_at is None else (
        _cbm_axes(cut_glances(glance, cut_at)))
    rows = np.searchsorted(axis1, cut_axis1)
    # matrices list deceleration bins in ascending order, the file in its own
    order = np.argsort(decels.d_values, kind="stable")
    cells = np.ix_(rows, np.argsort(order))
    matrices = []
    for m in baseline:
        if not (np.array_equal(m.axis1, axis1)
                and np.array_equal(m.decels, decels.d_values[order])
                and np.allclose(m.axis1_probs, axis1_probs,
                                rtol=MARGINAL_RTOL, atol=0.0)
                and np.allclose(m.decel_probs, decels.probs[order],
                                rtol=MARGINAL_RTOL, atol=0.0)):
            raise ValidationError(
                f"baseline seed {m.seed_id}: its overshoot or deceleration "
                f"grid or marginals differ from the glance and deceleration "
                f"distributions")
        matrices.append(OutcomeMatrix(
            m.seed_id, cut_axis1, cut_probs, decels.d_values, decels.probs,
            crashed=m.crashed[cells], v1=m.v1[cells], v2=m.v2[cells],
            impact_time=m.impact_time[cells],
            max_severity=m.max_severity[cells]))
    return matrices


def _run_one_seed(seed: SeedCrash, cfg: CampaignConfig,
                  glance: GlanceDistribution | None,
                  decels: DecelDistribution,
                  reaction: ReactionTimeDistribution | None,
                  seed_index: int, exhaustive: bool) -> SeedResult:
    cf = remove_evasive_maneuver(seed, cfg.horizon_extension)
    jerk = cfg.cbm.jerk_mean
    kin = _SeedKinematics(cf, cfg.dt)
    no_resp = kin.run(math.inf, 1.0, jerk)
    rng = np.random.default_rng(np.random.SeedSequence(
        entropy=cfg.rng_seed, spawn_key=(seed_index,)))

    if cfg.model == MODEL_BLOM:
        theoretical = 0 if cf.lead_behavior_class != LEAD_BRAKING else (
            len(reaction.centers) * decels.n_bins)
        if cf.lead_behavior_class != LEAD_BRAKING:
            return SeedResult(seed.id, None, no_resp, None,
                              cf.lead_behavior_class, True,
                              seed.follower_meta.mass, seed.lead_meta.mass,
                              seed.seed_delta_v_kmh, theoretical)
        onsets = cf.lead_brake_onset + reaction.centers
        matrix = sweep_seed(cf, reaction.centers, reaction.probs, onsets,
                            decels, jerk, cfg.dt, rng, exhaustive)
        matrix.kernel_calls += 1  # the no-response run above
        return SeedResult(seed.id, matrix, no_resp, None,
                          cf.lead_behavior_class, False,
                          seed.follower_meta.mass, seed.lead_meta.mass,
                          seed.seed_delta_v_kmh, theoretical)

    # glance-based model
    axis1, axis1_probs = _cbm_axes(glance)
    # paper-style theoretical count: off-road bins x deceleration bins
    theoretical = (len(axis1) - 1) * decels.n_bins
    series = looming_series(cf)
    anchor = find_anchor(series, cfg.cbm.inv_tau_threshold)
    cf.anchor_time = anchor
    if anchor is None:
        # urgency never reaches the threshold before overlap: the driver
        # gets no cue, so every cell is the no-response outcome
        arrays = _outcome_arrays(len(axis1), decels.n_bins)
        if no_resp.crashed:
            arrays["crashed"][:, :] = True
            arrays["v1"][:, :] = no_resp.v1
            arrays["v2"][:, :] = no_resp.v2
            arrays["impact_time"][:, :] = no_resp.impact_time
            arrays["max_severity"][:, :] = True
        matrix = OutcomeMatrix(seed.id, axis1, axis1_probs, decels.d_values,
                               decels.probs, kernel_calls=1, **arrays)
        return SeedResult(seed.id, matrix, no_resp, None,
                          cf.lead_behavior_class, False,
                          seed.follower_meta.mass, seed.lead_meta.mass,
                          seed.seed_delta_v_kmh, theoretical, anchor_absent=True)
    onsets = anchor + axis1 + cfg.cbm.response_delay
    matrix = sweep_seed(cf, axis1, axis1_probs, onsets, decels, jerk,
                        cfg.dt, rng, exhaustive)
    matrix.kernel_calls += 1
    return SeedResult(seed.id, matrix, no_resp, anchor,
                      cf.lead_behavior_class, False,
                      seed.follower_meta.mass, seed.lead_meta.mass,
                      seed.seed_delta_v_kmh, theoretical)


_WORKER_STATE: dict = {}


def _worker_init(cfg, glance, decels, reaction, exhaustive):
    _WORKER_STATE.update(cfg=cfg, glance=glance, decels=decels,
                         reaction=reaction, exhaustive=exhaustive)


def _worker_run(args):
    seed, index = args
    s = _WORKER_STATE
    return _run_one_seed(seed, s["cfg"], s["glance"], s["decels"],
                         s["reaction"], index, s["exhaustive"])


def run_campaign(seeds: list[SeedCrash], cfg: CampaignConfig,
                 glance: GlanceDistribution | None = None,
                 decels: DecelDistribution | None = None,
                 workers: int = 1, exhaustive: bool = False) -> CampaignResult:
    """Run one simulation set over all seeds. Output is ordered by seed id
    and identical for any worker count."""
    if decels is None:
        raise ValidationError("a deceleration distribution is required")
    reaction = None
    if cfg.model == MODEL_BLOM:
        reaction = discretize_reaction_time(cfg.reaction_m, cfg.reaction_v)
    elif glance is None:
        raise ValidationError("the glance-based model needs a glance distribution")

    ordered = sorted(seeds, key=lambda s: s.id)
    jobs = [(seed, i) for i, seed in enumerate(ordered)]
    if workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(
                max_workers=workers, initializer=_worker_init,
                initargs=(cfg, glance, decels, reaction, exhaustive)) as pool:
            results = list(pool.map(_worker_run, jobs, chunksize=4))
    else:
        results = [_run_one_seed(seed, cfg, glance, decels, reaction, i,
                                 exhaustive) for seed, i in jobs]
    results.sort(key=lambda r: r.seed_id)

    if cfg.model == MODEL_BLOM:
        excluded = [r for r in results if r.excluded]
        if excluded:
            log.warning("brake-light model: %d of %d seeds excluded "
                        "(lead not braking or standing still)",
                        len(excluded), len(results))
        if len(excluded) == len(results):
            raise ModelUndefinedError(
                "brake-light model is undefined for every seed in this set")
    return CampaignResult(cfg.model, results)


# ---------------------------------------------------------------- file I/O

def save_matrices(matrices: list[OutcomeMatrix], path: str | Path) -> None:
    """Write the matrices as one CSV row per cell, seed by seed, in row-major
    cell order."""
    def seed_columns():
        grid_key, grid = None, None
        for m in matrices:
            n1, n2 = m.crashed.shape
            # seeds of one campaign share the axes and marginals, so the
            # grid's text is formatted once
            key = (m.axis1.tobytes(), m.decels.tobytes(),
                   m.axis1_probs.tobytes(), m.decel_probs.tobytes())
            if key != grid_key:
                grid_key, grid = key, (
                    table.reprs(np.repeat(m.axis1, n2)),
                    table.reprs(np.tile(m.decels, n1)),
                    table.reprs(m.p_cell.ravel()))
            crashed = m.crashed.ravel()
            yield ([table.quote(m.seed_id)] * crashed.size, grid[0], grid[1],
                   table.flags(crashed), table.fmt(m.v1.ravel()),
                   table.fmt(m.v2.ravel()), table.flags(m.max_severity.ravel()),
                   grid[2])

    table.write_csv(path, MATRIX_CSV_HEADER, seed_columns())


def load_matrices(path: str | Path) -> list[OutcomeMatrix]:
    """Rebuild per-seed outcome matrices from the flat CSV; a seed's rows
    may come in any order. Axis marginals are recovered from the cell
    probabilities (p_cell rows/columns sum to the marginals). A malformed
    row or an incomplete seed grid raises ParseError."""
    ids: dict[str, int] = {}
    parts = []
    for chunk in table.read_chunks(path, MATRIX_CSV_HEADER):
        crashed = chunk.equals("crashed", "1")
        parts.append((
            chunk.codes("seed_id", ids), chunk.floats("axis1_bin"),
            chunk.floats("decel_bin"), crashed,
            chunk.floats("v1", where=crashed), chunk.floats("v2", where=crashed),
            crashed & chunk.equals("max_severity", "1"), chunk.floats("p_cell")))
    if not parts:
        return []
    code, a, d, crashed, v1, v2, severity, p = map(np.concatenate, zip(*parts))
    seed_rows = table.group_rows(code, len(ids))
    matrices = []
    for seed_id in sorted(ids):
        rows = seed_rows[ids[seed_id]]
        axis1, decels = _distinct(a[rows]), _distinct(d[rows])
        n1, n2 = len(axis1), len(decels)
        cell = np.searchsorted(axis1, a[rows]) * n2 + np.searchsorted(decels, d[rows])
        if len(rows) != n1 * n2 or np.any(np.bincount(cell, minlength=n1 * n2) != 1):
            raise ParseError(f"{path}: seed {seed_id} has {len(rows)} cells, "
                             f"not one for each cell of its {n1} x {n2} grid")

        def grid(values, fill):
            out = np.full(n1 * n2, fill, dtype=values.dtype)
            out[cell] = values[rows]
            return out.reshape(n1, n2)

        p_grid = grid(p, 0.0)
        total = p_grid.sum()
        matrices.append(OutcomeMatrix(
            seed_id, axis1, p_grid.sum(axis=1) / total, decels,
            p_grid.sum(axis=0) / total, crashed=grid(crashed, False),
            v1=grid(v1, np.nan), v2=grid(v2, np.nan),
            impact_time=np.full((n1, n2), np.nan),
            max_severity=grid(severity, False)))
    return matrices


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values, ascending."""
    values = np.sort(values)
    return values[np.concatenate(([True], values[1:] != values[:-1]))]
