"""Forward simulation of counterfactual cases and the per-seed parameter
sweep.

The kernel integrates the follower with semi-implicit Euler on the seeds'
10 ms grid, `scenario.DT_NOMINAL`, and rejects a seed on any other step:
deceleration is evaluated at the step start, the speed update is applied,
then position advances with the new speed. Impact time and speeds are
interpolated linearly inside the crossing step.

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

Outcomes and probabilities are kept apart. An `OutcomeMatrix` holds one
seed's physics, whether each (axis1, max deceleration) cell crashes and at
what speeds; the behaviour probabilities live once per campaign in a
shared `CampaignGrid`. `reweight` changes only the probabilities, and
`simulate` writes the grid to its summary.json and the outcomes to
matrices.csv.

matrices.csv is compact: it lists the cells of the integrated (live) rows
only. Every other row holds the seed's no-response outcome, which
simulate's seeds_summary.csv records, so `load_matrices` takes those
outcomes and rebuilds the dense matrices bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property, partial
from pathlib import Path

import numpy as np

from . import table
from .distributions import DecelDistribution, GlanceDistribution
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
from .manifest import check_fields, read_config
from .scenario import (
    DEFAULT_HORIZON_EXTENSION,
    DT_NOMINAL,
    LEAD_BRAKING,
    CounterfactualSeed,
    SeedCrash,
    SeedRef,
    remove_evasive_maneuver,
)

FIRST_CHUNK = 256  # steps integrated before the first outcome check
# cells x steps of one chunk at most: larger chunk buffers raise the
# process's peak memory and run no faster
BLOCK_ELEMENTS = 2**14

MODEL_CBM = "cbm"
MODEL_BLOM = "blom"

MATRIX_CSV_HEADER = ["seed_id", "axis1_index", "decel_index", "crashed",
                     "v1", "v2", "max_severity"]


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

    def __init__(self, cf: CounterfactualSeed):
        if abs(cf.dt - DT_NOMINAL) > 1e-9:
            raise ValidationError(f"seed {cf.id}: step {cf.dt} s is not the "
                                  f"simulation step {DT_NOMINAL} s")
        if cf.gap()[0] <= 0:
            raise ValidationError(f"seed {cf.id}: vehicles overlap at start")
        self.id = cf.id
        self.t = cf.lead.t
        self.lead_pos = cf.lead.pos
        self.lead_speed = cf.lead.speed
        self.v0 = cf.follower_speed
        self.x0 = float(cf.follower.pos[0])
        # the lowest lead position from each step on
        self.lead_floor = np.minimum.accumulate(self.lead_pos[::-1])[::-1]
        n = len(self.t)
        self.v_free = max(self.v0, 0.0)
        self.reach = np.zeros(n)  # distance covered without braking
        np.cumsum(np.full(n - 1, self.v_free * DT_NOMINAL), out=self.reach[1:])
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
        return v1 > v2, self.t[k - 1] + alpha * DT_NOMINAL, v1, v2

    def run(self, onsets: np.ndarray, d_max: np.ndarray,
            jerk: float) -> dict[str, np.ndarray]:
        """The outcomes of braking from each of `onsets` (math.inf: never)
        up to each plateau in `d_max`, integrated as one block: crashed, v1,
        v2 (NaN where no crash) and max_severity, each of shape
        (len(onsets), len(d_max))."""
        t, n = self.t, len(self.t)
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
            np.multiply(v, DT_NOMINAL, out=acc[:, 1:])
            acc.cumsum(axis=1, out=acc)
            lost = acc[:, -1].copy()
            np.subtract(self.v0, acc[:, 1:], out=v)  # speeds at steps p+1..q
            np.maximum(v, 0.0, out=v)
            acc[:, 0] = reach
            np.multiply(v, DT_NOMINAL, out=acc[:, 1:])
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
class CampaignGrid:
    """A campaign's grid and behaviour probabilities, which every seed's
    matrix shares: axis1 (glance overshoot with the attentive 0 point, or
    reaction time) and the deceleration bins in the order the sweep used
    them, each with its marginal. A cell's probability is their product."""

    axis1: np.ndarray
    axis1_probs: np.ndarray
    decels: np.ndarray
    decel_probs: np.ndarray

    def __post_init__(self):
        for f in fields(self):
            setattr(self, f.name, np.asarray(getattr(self, f.name), dtype=float))

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.axis1), len(self.decels)

    @cached_property
    def p_cell(self) -> np.ndarray:
        return np.outer(self.axis1_probs, self.decel_probs)

    def to_json(self) -> dict[str, list[float]]:
        return {f.name: getattr(self, f.name).tolist() for f in fields(self)}

    @classmethod
    def from_json(cls, summary: dict, path: str | Path) -> "CampaignGrid":
        """The grid simulate wrote to its summary.json at `path`, which
        holds `summary`; a missing or malformed grid raises ParseError."""
        try:
            grid = cls(**{f.name: summary["grid"][f.name] for f in fields(cls)})
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"{path}: no campaign grid: {exc!r}") from exc
        arrays = [getattr(grid, f.name) for f in fields(grid)]
        if (any(a.ndim != 1 or not a.size or not np.isfinite(a).all()
                for a in arrays) or grid.p_cell.shape != grid.shape):
            raise ParseError(f"{path}: malformed campaign grid")
        return grid


@dataclass(eq=False)
class OutcomeMatrix:
    """One seed's outcomes over its campaign grid (axis1 x max
    deceleration). The cell probabilities come from the shared grid."""

    seed_id: str
    grid: CampaignGrid
    crashed: np.ndarray        # (n1, n2) bool
    v1: np.ndarray             # NaN where not crashed
    v2: np.ndarray
    max_severity: np.ndarray   # bool
    live: np.ndarray           # (n1,) bool: the rows the kernel integrated
    kernel_calls: int = 0

    @property
    def crash_mass(self) -> float:
        """Summed probability of the crashing cells (q_i of the seed)."""
        return float(self.grid.p_cell[self.crashed].sum())


def sweep_seed(kin: SeedKinematics, grid: CampaignGrid, onsets: np.ndarray,
               jerk: float) -> OutcomeMatrix:
    """Sweep the (axis1 x deceleration) grid for one seed.

    `onsets` holds the brake onset per axis1 value, in any order (math.inf
    marks never-responding rows). A row whose first braking step is at or
    past the no-response impact step is the no-response outcome in every
    cell; the other rows are integrated as one block. Kernel calls
    count the seed's no-response run as one, plus one per integrated cell.
    """
    onsets = np.asarray(onsets, dtype=float)
    live = kin.t.searchsorted(onsets, "right") < kin.k_live
    arrays = {name: cells[0] for name, cells
              in _filled([kin.no_response], grid.shape).items()}
    for name, cells in kin.run(onsets[live], grid.decels, jerk).items():
        arrays[name][live] = cells
    return OutcomeMatrix(kin.id, grid, **arrays, live=live,
                         kernel_calls=1 + grid.shape[1] * int(live.sum()))


def _filled(outcomes: list[SimOutcome], shape: tuple[int, int]
            ) -> dict[str, np.ndarray]:
    """The outcome arrays of one `shape` matrix per outcome, stacked, with
    the outcome in every cell: the matrix of a seed whose rows all take
    its no-response outcome."""
    crashed = [o.crashed for o in outcomes]
    columns = dict(
        crashed=np.array(crashed, dtype=bool),
        v1=np.array([o.v1 if c else np.nan for o, c in zip(outcomes, crashed)],
                    dtype=float),
        v2=np.array([o.v2 if c else np.nan for o, c in zip(outcomes, crashed)],
                    dtype=float),
        max_severity=np.array([o.max_severity for o in outcomes], dtype=bool))
    return {name: np.repeat(c, shape[0] * shape[1]).reshape(-1, *shape)
            for name, c in columns.items()}


# ---------------------------------------------------------------- campaign

@dataclass
class CampaignConfig:
    """Everything needed to run one simulation set."""

    model: str = MODEL_CBM
    cbm: CbmConfig = field(default_factory=CbmConfig)
    reaction_m: float = DEFAULT_REACTION_M
    reaction_v: float = DEFAULT_REACTION_V
    horizon_extension: float = DEFAULT_HORIZON_EXTENSION
    glance_file: str | None = None
    decel_file: str | None = None
    glance_cut_at: float | None = None

    def __post_init__(self):
        check_fields(self)
        cut = self.glance_cut_at
        for key, ok, rule in (
                ("model", self.model in (MODEL_CBM, MODEL_BLOM), "cbm or blom"),
                ("horizon_extension", self.horizon_extension >= 0, ">= 0"),
                ("reaction_m", self.reaction_m > 0, "> 0"),
                ("reaction_v", self.reaction_v > 0, "> 0"),
                ("glance_cut_at", cut is None or cut > 0, "> 0 or null")):
            if not ok:
                raise ValidationError(f"{key} must be {rule}, got {getattr(self, key)!r}")

    @classmethod
    def from_json(cls, path: str | Path) -> "CampaignConfig":
        """The config in `path` (see manifest.read_config). It must name
        its decel_file, and its glance_file for the cbm model."""
        cfg = read_config(cls, path, "campaign config")
        if not cfg.decel_file:
            raise ValidationError(f"{path}: campaign config needs decel_file")
        if cfg.model == MODEL_CBM and not cfg.glance_file:
            raise ValidationError(f"{path}: campaign config needs glance_file "
                                  f"for the cbm model")
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
    grid: CampaignGrid
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


def reweight(matrices: list[OutcomeMatrix], grid: CampaignGrid,
             target: CampaignGrid) -> list[OutcomeMatrix]:
    """`matrices`, simulated on `grid`, under the behaviour probabilities
    of `target`, built without running the kernel.

    A cell's outcome depends only on its axis1 value, which fixes the brake
    onset, and its maximum deceleration. So on a target whose axis1 values
    are a bitwise subset of the grid's and whose deceleration bins equal
    the grid's, each matrix is its rows at the target's axis1 values under
    the target's marginals. A glance cut is such a target: its overshoots
    come from the same 0.1 s grid, and a cut only drops glance mass. Any
    other target, or a matrix on another grid, raises ValidationError.
    """
    index = {x: k for k, x in enumerate(grid.axis1.view(np.int64).tolist())}
    rows = [index.get(x) for x in target.axis1.view(np.int64).tolist()]
    if None in rows or target.decels.tobytes() != grid.decels.tobytes():
        raise ValidationError(
            "the target's axis1 values are not a subset of the simulated "
            "grid's, or its deceleration bins differ from the grid's")
    if any(m.grid is not grid for m in matrices):
        raise ValidationError("a matrix is not on the simulated grid")
    return [OutcomeMatrix(m.seed_id, target, m.crashed[rows], m.v1[rows],
                          m.v2[rows], m.max_severity[rows], m.live[rows])
            for m in matrices]


def _run_one_seed(seed: SeedCrash | SeedRef, cfg: CampaignConfig,
                  grid: CampaignGrid) -> SeedResult:
    if isinstance(seed, SeedRef):
        seed = seed.load()
    cf = remove_evasive_maneuver(seed, cfg.horizon_extension)
    kin = SeedKinematics(cf)
    anchor, excluded = None, False
    n1, n2 = grid.shape
    if cfg.model == MODEL_BLOM:
        excluded = cf.lead_behavior_class != LEAD_BRAKING
        theoretical = 0 if excluded else n1 * n2
        onsets = None if excluded else blom_onsets(cf.lead_brake_onset,
                                                   grid.axis1)
    else:
        # paper-style theoretical count: off-road bins x deceleration bins
        theoretical = (n1 - 1) * n2
        anchor = find_anchor(looming_series(cf), cfg.cbm.inv_tau_threshold)
        onsets = cbm_onsets(anchor, grid.axis1, cfg.cbm)
    matrix = None if excluded else sweep_seed(kin, grid, onsets,
                                              cfg.cbm.jerk_mean)
    return SeedResult(seed.id, matrix, kin.no_response, anchor,
                      cf.lead_behavior_class, excluded,
                      seed.follower_meta.mass, seed.lead_meta.mass,
                      seed.seed_delta_v_kmh, theoretical,
                      anchor_absent=cfg.model == MODEL_CBM and anchor is None)


def run_campaign(seeds: list[SeedCrash] | list[SeedRef], cfg: CampaignConfig,
                 glance: GlanceDistribution | None = None,
                 decels: DecelDistribution | None = None,
                 workers: int = 1) -> CampaignResult:
    """Run one simulation set over all seeds, loaded or as refs whose
    trajectories each worker loads. Output is ordered by seed id and
    identical for any worker count; every matrix points to the result's
    grid."""
    if decels is None:
        raise ValidationError("a deceleration distribution is required")
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")
    if cfg.model == MODEL_BLOM:
        reaction = discretize_reaction_time(cfg.reaction_m, cfg.reaction_v)
        axes = (reaction.centers, reaction.probs)
    elif glance is None:
        raise ValidationError("the glance-based model needs a glance distribution")
    else:
        axes = cbm_axes(glance)
    grid = CampaignGrid(*axes, decels.d_values, decels.probs)

    ordered = sorted(seeds, key=lambda s: s.id)
    run = partial(_run_one_seed, cfg=cfg, grid=grid)
    if workers > 1 and len(ordered) > 1:
        # imported here: a stage that simulates on one worker, or not at
        # all, does not pay for multiprocessing's import
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, ordered, chunksize=4))
        for r in results:
            if r.matrix is not None:
                r.matrix.grid = grid  # not the worker's copy
    else:
        results = list(map(run, ordered))

    if cfg.model == MODEL_BLOM and all(r.excluded for r in results):
        raise ModelUndefinedError(
            "brake-light model is undefined for every seed in this set")
    return CampaignResult(cfg.model, grid, results)


# ---------------------------------------------------------------- file I/O

def save_matrices(matrices: list[OutcomeMatrix], path: str | Path) -> None:
    """Write the outcomes of each matrix's live rows, one CSV row per cell,
    seed by seed, in row-major cell order. Cells are named by their grid
    indices; the grid itself is simulate's summary.json's. A row not
    listed holds the seed's no-response outcome (see `load_matrices`)."""
    def seed_columns():
        for m in matrices:
            live, n2 = m.live, m.crashed.shape[1]
            rows = np.flatnonzero(live)
            yield ([table.quote(m.seed_id)] * (rows.size * n2),
                   table.ints(np.repeat(rows, n2).tolist()),
                   table.ints(list(range(n2)) * rows.size),
                   table.flags(m.crashed[live].ravel()),
                   table.fmt(m.v1[live].ravel()), table.fmt(m.v2[live].ravel()),
                   table.flags(m.max_severity[live].ravel()))

    table.write_csv(path, MATRIX_CSV_HEADER, seed_columns())


def load_matrices(path: str | Path, grid: CampaignGrid,
                  no_response: dict[str, SimOutcome]) -> list[OutcomeMatrix]:
    """The outcome matrices on `grid` of the swept seeds, which
    `no_response` maps to their no-response outcomes, in seed id order.

    Each matrix starts with its no-response outcome in every cell; the
    rows the outcomes CSV lists, in any order, replace theirs and are the
    matrix's live rows. So a seed the CSV does not list keeps the
    no-response outcome throughout. A malformed row, a flag other than 0
    or 1, a cell without a crash that has speeds or maximum severity, an
    index outside the grid, a repeated cell, a listed row without exactly
    one line per deceleration bin, or a seed not in `no_response` raises
    ParseError naming path:line.

    The CSV is read chunk by chunk straight into the dense matrices.
    Besides them and one chunk, only a flag per cell (listed yet) and the
    last line listing each row are held."""
    n1, n2 = grid.shape
    swept = sorted(no_response)
    position = {sid: k for k, sid in enumerate(swept)}
    arrays = _filled([no_response[sid] for sid in swept], grid.shape)
    dense = [a.reshape(-1) for a in arrays.values()]  # views, in field order
    seen = np.zeros(len(swept) * n1 * n2, dtype=bool)  # the cells listed
    # per (seed, axis1 row), the last data row listing one of its cells
    last = np.full(len(swept) * n1, -1, dtype=np.intp)
    n_seen = 0
    for chunk in table.read_chunks(path, MATRIX_CSV_HEADER):
        crashed, severity = chunk.flags("crashed"), chunk.flags("max_severity")
        # a cell without a crash is written with no speeds and severity 0
        clean = (crashed | (chunk.equals("v1", "") & chunk.equals("v2", "")
                            & ~severity))
        if not clean.all():
            raise chunk.error(int(np.argmin(clean)), "a cell without a crash "
                              "must have empty v1 and v2 and max_severity 0")
        cell = (chunk.indices("axis1_index", n1) * n2
                + chunk.indices("decel_index", n2))
        v1 = chunk.floats("v1", where=crashed)
        v2 = chunk.floats("v2", where=crashed)
        sids = chunk["seed_id"]
        for sid in dict.fromkeys(sids):
            if sid not in position:
                raise chunk.error(sids.index(sid), f"seed {sid} was not swept")
        key = np.fromiter(map(position.__getitem__, sids), dtype=np.intp,
                          count=chunk.n_rows) * (n1 * n2) + cell
        before = seen[key]
        seen[key] = True
        n_seen += chunk.n_rows
        if np.count_nonzero(seen) != n_seen:
            # a cell listed in an earlier chunk, or twice in this one
            _, first = np.unique(key, return_index=True)
            again = np.ones(chunk.n_rows, dtype=bool)
            again[first] = before[first]
            row = int(np.argmax(again))
            raise chunk.error(row, f"seed {swept[key[row] // (n1 * n2)]} "
                                   f"repeats cell ({cell[row] // n2}, "
                                   f"{cell[row] % n2})")
        np.maximum.at(last, key // n2, chunk.first_row + np.arange(chunk.n_rows))
        for values, column in zip(dense, (crashed, v1, v2, severity)):
            values[key] = column
    listed = seen.reshape(-1, n2)  # one row per (seed, axis1 value)
    short = listed.any(axis=1) & ~listed.all(axis=1)
    if short.any():
        row = int(np.argmax(short))
        raise table.row_error(
            path, int(last[row]),
            f"seed {swept[row // n1]} lists axis1 row {row % n1} without "
            f"exactly one line for each of the {n2} deceleration bins")
    live = listed.any(axis=1).reshape(len(swept), n1)
    return [OutcomeMatrix(sid, grid, **{name: a[k] for name, a in arrays.items()},
                          live=live[k]) for k, sid in enumerate(swept)]
