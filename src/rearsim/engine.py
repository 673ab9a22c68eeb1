"""Forward simulation of counterfactual cases and the per-seed parameter
sweep.

The kernel integrates the follower with semi-implicit Euler on the seed's
10 ms grid: deceleration is evaluated at the step start, the speed update
is applied, then position advances with the new speed. Impact time and
speeds are interpolated linearly inside the crossing step.

Each seed's no-response run (the follower never brakes) is integrated once
over the whole horizon. A braking case moves exactly like it up to its
first braking step. The kernel integrates a block of cases, every brake
onset x every maximum deceleration, from the no-response state at the
earliest first braking step, in chunks of doubling length (capped in cells
x steps), continuing both running sums. A case whose onset is still ahead
adds exact zeros to its speed loss and the no-response step to its
distance, so every value is bitwise the one a whole-horizon integration of
that case gives. A case leaves the block at its first overlap, or with no
crash once the follower stands still short of every later lead position.

Two outcomes need no integration. A case whose first braking step is at
or past the no-response impact step is the no-response outcome, so the
sweep integrates only the rows braking before it. If the no-response run
never overlaps, no braking case does either, because the follower then
never gets further than without braking (rounded sums are monotone). The
reduced sweep equals exhaustive simulation, which tests check over
generated seeds.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import table
from .distributions import DecelDistribution, GlanceDistribution, cut_glances
from .drivers import (
    DEFAULT_REACTION_M,
    DEFAULT_REACTION_V,
    CbmConfig,
    blom_onsets,
    brake_deceleration,
    cbm_axes,
    cbm_onsets,
    discretize_reaction_time,
)
from .errors import ModelUndefinedError, ParseError, ValidationError
from .looming import find_anchor, looming_series
from .scenario import (
    DEFAULT_HORIZON_EXTENSION,
    LEAD_BRAKING,
    CounterfactualSeed,
    SeedCrash,
    remove_evasive_maneuver,
)

# a marginal recovered from saved cell probabilities is renormalized, and
# input distributions need only sum to 1 within 1e-9
MARGINAL_RTOL = 1e-6
FIRST_CHUNK = 256  # steps integrated before the first outcome check
# cells x steps of one chunk at most: larger chunk buffers raise the
# process's peak memory and run no faster
BLOCK_ELEMENTS = 2**14

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


class SeedKinematics:
    """One counterfactual seed's arrays and its no-response run."""

    def __init__(self, cf: CounterfactualSeed, dt: float):
        if abs(cf.dt - dt) > 1e-9:
            raise ValidationError(
                f"simulation dt {dt} does not match the seed grid {cf.dt}")
        if cf.gap()[0] <= 0:
            raise ValidationError(f"seed {cf.id}: vehicles overlap at start")
        self.id = cf.id
        self.t = cf.lead.t
        self.dt = dt
        self.lead_pos = cf.lead.pos
        self.lead_speed = cf.lead.speed
        self.v0 = cf.follower_speed
        self.x0 = float(cf.follower.pos[0])
        # the lowest lead position from each step on
        self.lead_floor = np.minimum.accumulate(self.lead_pos[::-1])[::-1]
        n = len(self.t)
        self.v_free = max(self.v0, 0.0)
        self.reach = np.zeros(n)  # distance covered without braking
        np.cumsum(np.full(n - 1, self.v_free * dt), out=self.reach[1:])
        self.free_gap = self.lead_pos - (self.x0 + self.reach)
        below = np.flatnonzero(self.free_gap <= 0)
        # a case braking from step k_live on is the no-response outcome
        self.k_live = int(below[0]) if below.size else 0
        self.no_response = NO_CRASH
        if below.size:
            k = self.k_live
            crashed, t_impact, v1, v2 = self._impact(
                k, self.free_gap[k - 1], self.free_gap[k], self.v_free,
                self.v_free)
            if crashed:
                self.no_response = SimOutcome(True, float(t_impact), float(v1),
                                              float(v2), True)

    def _impact(self, k, gap_a, gap_b, v_a, v_b):
        """Whether first overlaps at steps k are crashes, with their impact
        times and follower and lead speeds, interpolated from the gaps and
        follower speeds at steps k - 1 (a) and k (b). A grazing contact
        (v1 <= v2) counts as avoidance."""
        alpha = gap_a / (gap_a - gap_b)
        v1 = v_a + alpha * (v_b - v_a)
        ls = self.lead_speed
        v2 = ls[k - 1] + alpha * (ls[k] - ls[k - 1])
        return v1 > v2, self.t[k - 1] + alpha * self.dt, v1, v2

    def run(self, onsets: np.ndarray, d_max: np.ndarray,
            jerk: float) -> dict[str, np.ndarray]:
        """The outcomes of braking from each of `onsets` (math.inf: never)
        up to each plateau in `d_max`, integrated as one block: crashed, v1,
        v2 (NaN where no crash) and max_severity, each of shape
        (len(onsets), len(d_max))."""
        t, dt, n = self.t, self.dt, len(self.t)
        shape = (len(onsets), len(d_max))
        crashed = np.zeros(shape[0] * shape[1], dtype=bool)
        v1, v2 = np.full(crashed.size, np.nan), np.full(crashed.size, np.nan)
        severity = np.zeros(crashed.size, dtype=bool)
        out = dict(crashed=crashed.reshape(shape), v1=v1.reshape(shape),
                   v2=v2.reshape(shape), max_severity=severity.reshape(shape))
        # the earliest first braking step, and at the latest the step before
        # the no-response impact, which the cases braking later share
        p = min(int(t.searchsorted(onsets, "right").min(initial=n)),
                self.k_live - 1)
        if p < 0:
            return out  # the no-response run never overlaps, so no case does
        onset, d = np.repeat(onsets, shape[1]), np.tile(d_max, shape[0])
        cell = np.arange(crashed.size)  # the cells still in the block
        lost = np.zeros(cell.size)  # running speed loss and distance
        reach = np.full(cell.size, self.reach[p])
        gap_prev = np.full(cell.size, self.free_gap[p])
        v_prev = np.full(cell.size, self.v_free)
        size = FIRST_CHUNK
        while p < n - 1 and cell.size:
            q = min(p + min(size, max(BLOCK_ELEMENTS // cell.size, 1)), n - 1)
            # two buffers per chunk: decelerations then speeds, and the
            # running sums then gaps
            v = brake_deceleration(t[p:q], onset[cell, None], jerk,
                                   d[cell, None])
            acc = np.empty((cell.size, q - p + 1))
            acc[:, 0] = lost
            np.multiply(v, dt, out=acc[:, 1:])
            acc.cumsum(axis=1, out=acc)
            lost = acc[:, -1].copy()
            np.subtract(self.v0, acc[:, 1:], out=v)  # speeds at steps p+1..q
            np.maximum(v, 0.0, out=v)
            acc[:, 0] = reach
            np.multiply(v, dt, out=acc[:, 1:])
            acc.cumsum(axis=1, out=acc)
            reach = acc[:, -1].copy()
            gap = np.add(self.x0, acc[:, 1:], out=acc[:, 1:])
            np.subtract(self.lead_pos[p + 1:q + 1], gap, out=gap)
            over = gap <= 0
            m = over.argmax(axis=1)
            hit = over[np.arange(cell.size), m]
            h, m = np.flatnonzero(hit), m[hit]
            inside = m > 0  # else the step before is the last chunk's
            crash, _, hv1, hv2 = self._impact(
                p + 1 + m, np.where(inside, gap[h, m - 1], gap_prev[h]),
                gap[h, m], np.where(inside, v[h, m - 1], v_prev[h]), v[h, m])
            c, k = cell[h[crash]], p + m[crash]  # k: the step before impact
            crashed[c], v1[c], v2[c] = True, hv1[crash], hv2[crash]
            severity[c] = ~(brake_deceleration(t[k], onset[c], jerk, d[c]) > 0)
            # stopped for good short of the lead: no crash
            stopped = (v[:, -1] == 0.0) & (self.x0 + reach < self.lead_floor[q])
            keep = ~(hit | stopped)
            cell, lost, reach = cell[keep], lost[keep], reach[keep]
            gap_prev, v_prev = gap[keep, -1], v[keep, -1]
            p, size = q, 2 * size
        return out


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
    max_severity: np.ndarray   # bool
    kernel_calls: int = 0

    @property
    def p_cell(self) -> np.ndarray:
        return np.outer(self.axis1_probs, self.decel_probs)

    @property
    def crash_mass(self) -> float:
        """Summed probability of the crashing cells (q_i of the seed)."""
        return float(self.p_cell[self.crashed].sum())


def sweep_seed(kin: SeedKinematics, axis1: np.ndarray, axis1_probs: np.ndarray,
               onsets: np.ndarray, decels: DecelDistribution, jerk: float,
               exhaustive: bool = False) -> OutcomeMatrix:
    """Sweep the (axis1 x deceleration) grid for one seed.

    `onsets` holds the brake onset per axis1 value, in any order (math.inf
    marks never-responding rows). A row whose first braking step is at or
    past the no-response impact step is the no-response outcome in every
    cell; the other rows are integrated as one block. `exhaustive` sends
    every row to the block, which tests use as the oracle. Kernel calls
    count the seed's no-response run as one, plus one per integrated cell.
    """
    axis1 = np.asarray(axis1, dtype=float)
    onsets = np.asarray(onsets, dtype=float)
    n1, n2 = len(axis1), decels.n_bins
    live = np.full(n1, True) if exhaustive else (
        kin.t.searchsorted(onsets, "right") < kin.k_live)
    nr = kin.no_response
    arrays = dict(crashed=np.full((n1, n2), nr.crashed),
                  v1=np.full((n1, n2), nr.v1 if nr.crashed else np.nan),
                  v2=np.full((n1, n2), nr.v2 if nr.crashed else np.nan),
                  max_severity=np.full((n1, n2), nr.max_severity))
    for name, cells in kin.run(onsets[live], decels.d_values, jerk).items():
        arrays[name][live] = cells
    return OutcomeMatrix(
        seed_id=kin.id, axis1=axis1, axis1_probs=np.asarray(axis1_probs, float),
        decels=decels.d_values, decel_probs=decels.probs,
        kernel_calls=1 + n2 * int(live.sum()), **arrays)


# ---------------------------------------------------------------- campaign

@dataclass
class CampaignConfig:
    """Everything needed to run one simulation set."""

    model: str = MODEL_CBM
    cbm: CbmConfig = field(default_factory=CbmConfig)
    reaction_m: float = DEFAULT_REACTION_M
    reaction_v: float = DEFAULT_REACTION_V
    dt: float = 0.010
    horizon_extension: float = DEFAULT_HORIZON_EXTENSION
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
    axis1, axis1_probs = cbm_axes(glance)
    cut_axis1, cut_probs = (axis1, axis1_probs) if cut_at is None else (
        cbm_axes(cut_glances(glance, cut_at)))
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
            max_severity=m.max_severity[cells]))
    return matrices


def _run_one_seed(seed: SeedCrash, cfg: CampaignConfig, axis1: np.ndarray,
                  axis1_probs: np.ndarray, decels: DecelDistribution,
                  exhaustive: bool) -> SeedResult:
    cf = remove_evasive_maneuver(seed, cfg.horizon_extension)
    kin = SeedKinematics(cf, cfg.dt)
    anchor, excluded = None, False
    if cfg.model == MODEL_BLOM:
        excluded = cf.lead_behavior_class != LEAD_BRAKING
        theoretical = 0 if excluded else len(axis1) * decels.n_bins
        onsets = None if excluded else blom_onsets(cf.lead_brake_onset, axis1)
    else:
        # paper-style theoretical count: off-road bins x deceleration bins
        theoretical = (len(axis1) - 1) * decels.n_bins
        anchor = find_anchor(looming_series(cf), cfg.cbm.inv_tau_threshold)
        onsets = cbm_onsets(anchor, axis1, cfg.cbm)
    matrix = None if excluded else sweep_seed(
        kin, axis1, axis1_probs, onsets, decels, cfg.cbm.jerk_mean, exhaustive)
    return SeedResult(seed.id, matrix, kin.no_response, anchor,
                      cf.lead_behavior_class, excluded,
                      seed.follower_meta.mass, seed.lead_meta.mass,
                      seed.seed_delta_v_kmh, theoretical,
                      anchor_absent=cfg.model == MODEL_CBM and anchor is None)


_WORKER_STATE: dict = {}


def _worker_init(cfg, axes, decels, exhaustive):
    _WORKER_STATE.update(cfg=cfg, axes=axes, decels=decels,
                         exhaustive=exhaustive)


def _worker_run(seed):
    s = _WORKER_STATE
    return _run_one_seed(seed, s["cfg"], *s["axes"], s["decels"],
                         s["exhaustive"])


def run_campaign(seeds: list[SeedCrash], cfg: CampaignConfig,
                 glance: GlanceDistribution | None = None,
                 decels: DecelDistribution | None = None,
                 workers: int = 1, exhaustive: bool = False) -> CampaignResult:
    """Run one simulation set over all seeds. Output is ordered by seed id
    and identical for any worker count."""
    if decels is None:
        raise ValidationError("a deceleration distribution is required")
    if cfg.model == MODEL_BLOM:
        reaction = discretize_reaction_time(cfg.reaction_m, cfg.reaction_v)
        axes = (reaction.centers, reaction.probs)
    elif glance is None:
        raise ValidationError("the glance-based model needs a glance distribution")
    else:
        axes = cbm_axes(glance)

    ordered = sorted(seeds, key=lambda s: s.id)
    if workers > 1 and len(ordered) > 1:
        with ProcessPoolExecutor(
                max_workers=workers, initializer=_worker_init,
                initargs=(cfg, axes, decels, exhaustive)) as pool:
            results = list(pool.map(_worker_run, ordered, chunksize=4))
    else:
        results = [_run_one_seed(seed, cfg, *axes, decels, exhaustive)
                   for seed in ordered]

    if cfg.model == MODEL_BLOM and all(r.excluded for r in results):
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
            max_severity=grid(severity, False)))
    return matrices


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values, ascending."""
    values = np.sort(values)
    return values[np.concatenate(([True], values[1:] != values[:-1]))]
