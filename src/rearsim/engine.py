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
seed's physics; the behaviour probabilities live once per campaign in a
shared `CampaignGrid`. `reweight` changes only the probabilities.

An (axis1, max deceleration) cell is its two speeds at first overlap,
follower v1 and lead v2: both finite with v1 > v2 where the cell crashes,
both NaN where it does not. Whether it crashes is `~isnan(v1)`, and its
delta-v follows from the speeds and the masses. No cell records whether
the follower had begun to brake: a live row brakes from a step before the
no-response impact step, up to which it moves like the no-response run,
which does not overlap before that step. So its first overlap comes after
its brake onset, with the follower braking. The no-response outcome that
the other rows take is the only crash without braking. It is a cell too,
the pair (v1, v2).

A matrix holds the cells of its integrated (live) rows and the seed's
no-response outcome, which every other row takes, in memory as on disk.
Each matrices.npy record is one live row: (seed_id, axis1_index, v1, v2),
the speeds over the grid's deceleration bins. Only sums over cells expand
a field over the grid (`OutcomeMatrix.cells`): they keep their bits in
row-major order alone.

`save_campaign` is the one writer of simulate's three artifacts
(summary.json, seeds_summary.csv and matrices.npy), and `load_campaign`
the one reader, which gives back the `CampaignResult` written.
"""

from __future__ import annotations

import math
import os
import tokenize
import warnings
from dataclasses import dataclass, field, fields, replace
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
from .manifest import check_fields, read_config, read_json, write_json
from .scenario import (
    DEFAULT_HORIZON_EXTENSION,
    DT_NOMINAL,
    LEAD_BRAKING,
    CounterfactualSeed,
    SeedCrash,
    SeedRef,
    delta_v,
    overlap_speeds,
    remove_evasive_maneuver,
)

FIRST_CHUNK = 256  # steps integrated before the first outcome check
# cells x steps of one chunk at most: larger chunk buffers raise the
# process's peak memory and run no faster
BLOCK_ELEMENTS = 2**14

MODEL_CBM = "cbm"
MODEL_BLOM = "blom"

# the fields of a cell, in OutcomeMatrix and in a matrices.npy record
OUTCOME_FIELDS = ("v1", "v2")

SEEDS_SUMMARY_HEADER = [
    "seed_id", "eligible", "lead_behavior", "anchor_time_s", "anchor_absent",
    "follower_mass_kg", "lead_mass_kg", "seed_delta_v_kmh",
    "no_resp_crashed", "no_resp_v1", "no_resp_v2", "no_resp_dv_kmh",
    "n_crash_cells", "q_raw", "kernel_calls", "theoretical_cells",
]


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
        self.no_response = (math.nan, math.nan)  # the cell (v1, v2)
        if below.size:
            k = self.k_live
            crashed, v1, v2 = self._impact(k, self.free_gap[k - 1], self.free_gap[k],
                                           self.v_free, self.v_free)
            if crashed:
                self.no_response = (float(v1), float(v2))

    def _impact(self, k, gap_a, gap_b, v_a, v_b):
        """Whether first overlaps at steps k are crashes, with their
        follower and lead speeds, interpolated from the gaps and follower
        speeds at steps k - 1 (a) and k (b). A grazing contact (v1 <= v2)
        counts as avoidance."""
        ls = self.lead_speed
        v1, v2 = overlap_speeds(gap_a, gap_b, v_a, v_b, ls[k - 1], ls[k])
        return v1 > v2, v1, v2

    def run(self, onsets: np.ndarray, d_max: np.ndarray,
            jerk: float) -> dict[str, np.ndarray]:
        """The outcomes of braking from each of `onsets` (math.inf: never)
        up to each plateau in `d_max`, integrated as one block: v1 and v2,
        each of shape (len(onsets), len(d_max)), finite with v1 > v2 where
        the case crashes and both NaN where it does not."""
        t, n = self.t, len(self.t)
        shape = (len(onsets), len(d_max))
        out = {name: np.full(shape, np.nan) for name in OUTCOME_FIELDS}
        v1, v2 = (a.reshape(-1) for a in out.values())  # flat views
        # the earliest first braking step, and at the latest the step before
        # the no-response impact, which the cases braking later share
        p = min(int(t.searchsorted(onsets, "right").min(initial=n)),
                self.k_live - 1)
        if p < 0:
            return out  # the no-response run never overlaps, so no case does
        onset, d = np.repeat(onsets, shape[1]), np.tile(d_max, shape[0])
        cell = np.arange(v1.size)  # the cells still in the block
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
            crash, hv1, hv2 = self._impact(
                p + 1 + m, np.where(inside, gap[h, m - 1], gap_prev[h]),
                gap[h, m], np.where(inside, v[h, m - 1], v_prev[h]), v[h, m])
            c = cell[h[crash]]
            v1[c], v2[c] = hv1[crash], hv2[crash]
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
        if min(grid.axis1_probs.min(), grid.decel_probs.min()) < 0:
            raise ParseError(f"{path}: campaign grid probabilities must be >= 0")
        return grid


@dataclass(eq=False)
class OutcomeMatrix:
    """One seed's outcomes on its campaign grid (axis1 x max deceleration):
    the live rows' cells, and the no-response outcome of the others. A cell
    is its speeds, finite with v1 > v2 where it crashes, both NaN where it
    does not."""

    seed_id: str
    grid: CampaignGrid
    rows: np.ndarray  # (k,) the live rows' axis1 indices, ascending
    v1: np.ndarray    # (k, n2) follower speed at first overlap, m/s
    v2: np.ndarray    # (k, n2) lead speed at first overlap, m/s
    no_response: tuple[float, float]  # the cell (v1, v2) of the other rows

    @property
    def crashed(self) -> np.ndarray:
        """Whether each live cell crashes."""
        return ~np.isnan(self.v1)

    @property
    def kernel_calls(self) -> int:
        """The seed's no-response run, plus one call per integrated cell."""
        return 1 + self.grid.shape[1] * len(self.rows)

    def cells(self, name: str) -> np.ndarray:
        """Field `name` over the whole grid: the live rows' cells, and the
        no-response outcome in every other row."""
        out = np.full(self.grid.shape, self.no_response[OUTCOME_FIELDS.index(name)])
        out[self.rows] = getattr(self, name)
        return out

    @property
    def n_crash_cells(self) -> int:
        """The live rows' crashing cells, plus every cell of the other rows
        if the no-response run crashed."""
        n1, n2 = self.grid.shape
        return (int(np.count_nonzero(self.crashed))
                + (n1 - len(self.rows)) * n2 * (not math.isnan(self.no_response[0])))

    def crashes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """v1, v2 and probability of each crashing cell of the grid, in
        row-major order: the order that sums over the cells keep."""
        v1 = self.cells("v1")
        c = ~np.isnan(v1)
        return v1[c], self.cells("v2")[c], self.grid.p_cell[c]

    @property
    def crash_mass(self) -> float:
        """Summed probability of the crashing cells (q_i of the seed)."""
        return float(self.grid.p_cell[~np.isnan(self.cells("v1"))].sum())


def sweep_seed(kin: SeedKinematics, grid: CampaignGrid, onsets: np.ndarray,
               jerk: float) -> OutcomeMatrix:
    """Sweep the (axis1 x deceleration) grid for one seed.

    `onsets` holds the brake onset per axis1 value, in any order (math.inf
    marks never-responding rows). A row whose first braking step is at or
    past the no-response impact step is the no-response outcome in every
    cell; the other rows are integrated as one block.
    """
    onsets = np.asarray(onsets, dtype=float)
    rows = np.flatnonzero(kin.t.searchsorted(onsets, "right") < kin.k_live)
    return OutcomeMatrix(kin.id, grid, rows,
                         **kin.run(onsets[rows], grid.decels, jerk),
                         no_response=kin.no_response)


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

    def __post_init__(self):
        check_fields(self)
        for key, ok, rule in (
                ("model", self.model in (MODEL_CBM, MODEL_BLOM), "cbm or blom"),
                ("horizon_extension", self.horizon_extension >= 0, ">= 0"),
                ("reaction_m", self.reaction_m > 0, "> 0"),
                ("reaction_v", self.reaction_v > 0, "> 0")):
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
    """Per-seed campaign output next to its outcome matrix. A seed loaded
    from its ref carries the digest of the trajectory bytes parsed."""

    seed_id: str
    matrix: OutcomeMatrix | None
    no_response: tuple[float, float]  # the cell (v1, v2)
    anchor: float | None
    lead_behavior: str
    excluded: bool
    follower_mass: float
    lead_mass: float
    seed_delta_v_kmh: float | None
    theoretical_cells: int
    digest: str | None = None

    @property
    def no_response_dv(self) -> float:
        """The no-response crash's delta-v, km/h: NaN where the no-response
        run does not crash."""
        return delta_v(*self.no_response, self.follower_mass, self.lead_mass)


@dataclass(eq=False)
class CampaignResult:
    """Seed results in seed id order, the grid their matrices share, and
    the no-response share mixed into the campaign's delta-v."""

    model: str
    grid: CampaignGrid
    results: list[SeedResult]
    no_response_fraction: float

    @property
    def matrices(self) -> list[OutcomeMatrix]:
        return [r.matrix for r in self.results if r.matrix is not None]

    def with_matrices(self, grid: CampaignGrid,
                      matrices: list[OutcomeMatrix]) -> "CampaignResult":
        """This campaign on `grid` with `matrices`, one per swept seed."""
        given = iter(matrices)
        return replace(self, grid=grid, results=[
            r if r.matrix is None else replace(r, matrix=next(given))
            for r in self.results])

    @property
    def excluded_ids(self) -> list[str]:
        return [r.seed_id for r in self.results if r.excluded]

    @property
    def theoretical_cells(self) -> int:
        return sum(r.theoretical_cells for r in self.results if not r.excluded)

    @property
    def kernel_calls(self) -> int:
        return sum(m.kernel_calls for m in self.matrices)

    @property
    def crash_cells(self) -> int:
        return sum(m.n_crash_cells for m in self.matrices)


def reweight(matrices: list[OutcomeMatrix], grid: CampaignGrid,
             target: CampaignGrid) -> list[OutcomeMatrix]:
    """`matrices`, simulated on `grid`, under the behaviour probabilities
    of `target`, built without running the kernel.

    A cell's outcome depends only on its axis1 value, which fixes the brake
    onset, and its maximum deceleration. So on a target whose axis1 values
    are a bitwise subset of the grid's and whose deceleration bins equal
    the grid's, each matrix is its rows at the target's axis1 values under
    the target's marginals. A glance cut is such a target: its overshoots
    come from the same 0.1 s grid, and a cut only drops glance mass. An
    overshoot whose mass underflows to 0 only without the cut is on the
    target's axis alone, which raises ValidationError. Unchecked: the
    matrices are on `grid`, the target on its deceleration bins (assess-dms).
    """
    index = {x: k for k, x in enumerate(grid.axis1.view(np.int64).tolist())}
    rows = [index.get(x) for x in target.axis1.view(np.int64).tolist()]
    if None in rows:
        raise ValidationError("the target's axis1 values are not a subset of "
                              "the simulated grid's")
    out = []
    for m in matrices:
        live = np.isin(rows, m.rows)  # the target rows the kernel integrated
        block = m.rows.searchsorted(np.compress(live, rows))
        out.append(OutcomeMatrix(m.seed_id, target, np.flatnonzero(live), *(
            getattr(m, name)[block] for name in OUTCOME_FIELDS), m.no_response))
    return out


def _run_one_seed(seed: SeedCrash | SeedRef, cfg: CampaignConfig,
                  grid: CampaignGrid) -> SeedResult:
    digest = None
    if isinstance(seed, SeedRef):
        seed, digest = seed.load()
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
                      seed.seed_delta_v_kmh, theoretical, digest)


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def run_campaign(seeds: list[SeedCrash] | list[SeedRef], cfg: CampaignConfig,
                 glance: GlanceDistribution | None = None, *,
                 decels: DecelDistribution, workers: int = 1) -> CampaignResult:
    """Run one simulation set over all seeds, loaded or as refs whose
    trajectories each worker loads. Output is ordered by seed id and
    identical for any worker count; every matrix points to the result's
    grid. Unchecked: `glance` is given for the cbm model, whose config
    names a glance_file (`CampaignConfig.from_json`)."""
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")
    if cfg.model == MODEL_BLOM:
        reaction = discretize_reaction_time(cfg.reaction_m, cfg.reaction_v)
        axes = (reaction.centers, reaction.probs)
    else:
        axes = cbm_axes(glance)
    grid = CampaignGrid(*axes, decels.d_values, decels.probs)

    ordered = sorted(seeds, key=lambda s: s.id)
    run = partial(_run_one_seed, cfg=cfg, grid=grid)
    # a pool starts all its processes at its first task
    workers = min(workers, usable_cpus(), len(ordered))
    if workers > 1:
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
    return CampaignResult(cfg.model, grid, results, cfg.cbm.no_response_fraction
                          if cfg.model == MODEL_CBM else 0.0)


# ---------------------------------------------------------------- file I/O

def _record_dtype(id_length: int, n2: int) -> np.dtype:
    """One matrices.npy record, (seed_id, axis1_index, v1, v2): a live
    row's speeds over the `n2` deceleration bins, little-endian whatever
    the host."""
    return np.dtype([("seed_id", f"<U{id_length}"), ("axis1_index", "<i8"),
                     *((name, "<f8", (n2,)) for name in OUTCOME_FIELDS)])


def save_matrices(matrices: list[OutcomeMatrix], grid: CampaignGrid,
                  path: str | Path) -> None:
    """Write one record (seed_id, axis1_index, v1, v2) per live row of
    each matrix on `grid` to the .npy file `path`: seed by seed, rows
    ascending, the speeds in the grid's deceleration order (both NaN where
    a cell does not crash). `save_campaign` writes the grid and the
    no-response outcome that a seed's other rows take."""
    records = np.zeros(sum(len(m.rows) for m in matrices), dtype=_record_dtype(
        max((len(m.seed_id) for m in matrices), default=1), grid.shape[1]))
    # each matrix's records, as views into `records`
    blocks = np.split(records, np.cumsum([len(m.rows) for m in matrices])[:-1])
    for m, block in zip(matrices, blocks):
        block["seed_id"], block["axis1_index"] = m.seed_id, m.rows
        for name in OUTCOME_FIELDS:
            block[name] = getattr(m, name)
    with open(path, "wb") as fh:
        np.save(fh, records, allow_pickle=False)


def load_matrices(path: str | Path, grid: CampaignGrid,
                  no_response: dict[str, tuple[float, float]]) -> list[OutcomeMatrix]:
    """The outcome matrices on `grid` of the swept seeds, which
    `no_response` maps to their no-response outcomes, in seed id order.

    The records of `path`, in any order, are the matrices' live rows; every
    other row takes its seed's no-response outcome, so a seed without
    records has no live row. ParseError names the path if the file is not
    a whole .npy file of records without pickled objects, or not a 1-D
    array of exactly `save_matrices`'s fields (seed_id, axis1_index, v1,
    v2) on the grid's deceleration bins. It names the path and the record
    if a cell's speeds are neither both NaN (no crash) nor both finite with
    v1 > v2 (a crash; the kernel counts no other), a row index is outside
    the grid, a seed is not in `no_response`, or a (seed, row) pair
    repeats."""
    n1, n2 = grid.shape
    try:
        # NumPy raises or warns on a corrupt header; MemoryError: a huge shape
        with open(path, "rb") as fh, warnings.catch_warnings():
            warnings.simplefilter("ignore")
            records = np.lib.format.read_array(fh, allow_pickle=False)
            trailing = fh.read(1)
    except (ValueError, TypeError, SyntaxError, tokenize.TokenError, MemoryError) as exc:
        raise ParseError(f"{path}: not a .npy file of outcome records: {exc}") from exc
    if trailing:
        raise ParseError(f"{path}: bytes follow the records")
    dtype = records.dtype
    fields = records.ndim == 1 and dtype.names == _record_dtype(1, n2).names
    # the file's seed id length, so a refusal names the layout's fields; the
    # cells on the grid's deceleration bins
    width = dtype["seed_id"].itemsize // 4 if "seed_id" in (dtype.names or ()) else 1
    want = _record_dtype(width, n2)
    if not fields or dtype != want:
        raise ParseError(f"{path}: expected a 1-D array of records {want} on the "
                         f"grid's {n2} deceleration bins, got a {records.ndim}-D "
                         f"array of {dtype}")
    ids, row = records["seed_id"], records["axis1_index"]

    def check(bad: np.ndarray, message: str) -> None:
        """Raise `message` for the first record that `bad` marks."""
        if bad.any():
            k = int(np.argmax(bad))
            raise ParseError(f"{path}: record {k} (seed {ids[k]}, axis1 row "
                             f"{row[k]}): {message}")

    v1, v2 = records["v1"], records["v2"]
    check(~((np.isnan(v1) & np.isnan(v2))
            | (np.isfinite(v1) & np.isfinite(v2) & (v1 > v2))).all(axis=1),
          "a cell's v1 and v2 must be both NaN (no crash) or both finite "
          "with v1 > v2 (a crash)")
    check((row < 0) | (row >= n1), f"the grid has {n1} axis1 rows")
    swept = {sid: k for k, sid in enumerate(sorted(no_response))}  # id: position
    distinct, inverse = np.unique(ids, return_inverse=True)
    position = np.array([swept.get(sid, -1) for sid in distinct.tolist()],
                        dtype=np.intp)[inverse]
    check(position < 0, "the seed was not swept")
    key = position * n1 + row  # one per (seed, axis1 row)
    order = np.argsort(key, kind="stable")  # by seed, then row, then record
    key, again = key[order], np.empty(key.size, dtype=bool)
    again[order] = np.diff(key, prepend=-1) == 0  # every key is >= 0
    check(again, "an earlier record holds the same row")
    arrays = [a[order] for a in (row, v1, v2)]
    bounds = key.searchsorted(n1 * np.arange(len(swept) + 1)).tolist()
    return [OutcomeMatrix(sid, grid, *(a[start:stop] for a in arrays), no_response[sid])
            for sid, start, stop in zip(swept, bounds, bounds[1:])]


def save_campaign(result: CampaignResult, out: Path) -> list[Path]:
    """Write `result` to the directory `out` as simulate's matrices.npy,
    seeds_summary.csv and summary.json, and return their paths."""
    matrices_path = out / "matrices.npy"
    save_matrices(result.matrices, result.grid, matrices_path)
    rows = result.results
    m = [r.matrix for r in rows]
    seeds_summary = out / "seeds_summary.csv"
    table.write_csv(seeds_summary, SEEDS_SUMMARY_HEADER, [
        table.texts([r.seed_id for r in rows]),
        table.flags([not r.excluded for r in rows]),
        table.texts([r.lead_behavior for r in rows]),
        table.fmt([r.anchor for r in rows]),
        table.flags([r.anchor is None and result.model == MODEL_CBM for r in rows]),
        table.fmt([r.follower_mass for r in rows]),
        table.fmt([r.lead_mass for r in rows]),
        table.fmt([r.seed_delta_v_kmh for r in rows]),
        table.flags([not math.isnan(r.no_response[0]) for r in rows]),
        *(table.fmt([r.no_response[k] for r in rows]) for k in range(2)),
        table.fmt([r.no_response_dv for r in rows]),
        table.ints(x.n_crash_cells if x is not None else 0 for x in m),
        table.fmt([x.crash_mass if x is not None else None for x in m]),
        table.ints(x.kernel_calls if x is not None else 0 for x in m),
        table.ints(r.theoretical_cells for r in rows),
    ])
    summary = write_json(out / "summary.json", {
        "model": result.model,
        "n_seeds": len(rows),
        "n_excluded": len(result.excluded_ids),
        "excluded_ids": result.excluded_ids,
        "theoretical_cells": result.theoretical_cells,
        "kernel_calls": result.kernel_calls,
        "crash_cells": result.crash_cells,
        "no_response_fraction": result.no_response_fraction,
        "grid": result.grid.to_json(),
    })
    return [matrices_path, seeds_summary, summary]


def load_campaign(sim_dir: str | Path) -> CampaignResult:
    """The campaign `save_campaign` wrote to `sim_dir`, without the seed
    files' digests. ParseError names path:line for a row whose masses are
    not finite and > 0, whose seed id an earlier row holds, or whose
    no-response fields are not empty exactly where no_resp_crashed is 0,
    with finite speeds, v1 > v2 and their `delta_v` elsewhere. It names the
    file for a summary.json without an integer n_seeds, a
    no_response_fraction in [0, 1) and a grid, another seed count, a
    refused matrices.npy (`load_matrices`), or a swept seed whose records
    there hold other than its kernel_calls - 1 cells."""
    summary_path = Path(sim_dir) / "summary.json"
    summary = read_json(summary_path, "simulate summary",
                        {"no_response_fraction": "number", "n_seeds": "int"})
    fraction = summary["no_response_fraction"]
    if not 0 <= fraction < 1:
        raise ParseError(f"{summary_path}: simulate summary no_response_fraction must "
                         f"be in [0, 1), got {fraction!r}")
    grid = CampaignGrid.from_json(summary, summary_path)
    path = summary_path.with_name("seeds_summary.csv")
    chunk = table.read_csv(path, SEEDS_SUMMARY_HEADER)

    def optional(name: str) -> list[float | None]:
        """Column `name`, None where a field is empty."""
        given = ~chunk.equals(name, "")
        return [x if ok else None for x, ok in
                zip(chunk.floats(name, where=given).tolist(), given.tolist())]

    def checked(name: str, rule: str, ok, where=None) -> list[float]:
        values = chunk.floats(name, where=where)
        bad = ~ok(values) if where is None else where & ~ok(values)
        if bad.any():
            k = int(np.argmax(bad))
            raise chunk.error(k, f"{name} must be {rule}, got {float(values[k])!r}")
        return values.tolist()

    seed_dv = optional("seed_delta_v_kmh")
    nr_crashed = chunk.flags("no_resp_crashed")
    m1, m2 = (checked(name, "a finite number > 0",
                      lambda v: (v > 0) & (v < math.inf))
              for name in ("follower_mass_kg", "lead_mass_kg"))
    nr_fields = ("no_resp_v1", "no_resp_v2", "no_resp_dv_kmh")
    for name in nr_fields:
        stray = ~(nr_crashed | chunk.equals(name, ""))
        if stray.any():
            k = int(np.argmax(stray))
            raise chunk.error(k, f"{name} must be empty where no_resp_crashed "
                                 f"is 0, got {chunk[name][k]!r}")
    v1, v2, nr_dv = (checked(name, "a finite number where no_resp_crashed is 1",
                             np.isfinite, nr_crashed) for name in nr_fields)
    for k in np.flatnonzero(nr_crashed).tolist():
        if not v1[k] > v2[k]:
            raise chunk.error(k, f"no_resp_v1 must be > no_resp_v2 where "
                                 f"no_resp_crashed is 1, got {v1[k]!r} and {v2[k]!r}")
        dv = delta_v(v1[k], v2[k], m1[k], m2[k])
        if dv.hex() != nr_dv[k].hex():  # bit for bit, as simulate wrote it
            raise chunk.error(k, f"no_resp_dv_kmh must be {dv!r}, the delta-v of "
                                 f"the row's speeds and masses, got {nr_dv[k]!r}")
    no_response = list(zip(v1, v2))
    eligible = chunk.flags("eligible").tolist()
    kernel_calls = chunk.floats("kernel_calls").tolist()
    columns = (chunk["lead_behavior"], optional("anchor_time_s"),
               chunk.indices("theoretical_cells", grid.p_cell.size + 1).tolist())
    rows = {}  # seed id: its row
    for k, sid in enumerate(chunk["seed_id"]):
        if rows.setdefault(sid, k) != k:
            raise chunk.error(k, f"seed_id {sid!r} repeats an earlier row's")
    if len(rows) != summary["n_seeds"]:
        raise ParseError(f"{path}: {len(rows)} seeds, not the "
                         f"{summary['n_seeds']} summary.json records")
    matrices_path = path.with_name("matrices.npy")
    matrices = iter(load_matrices(matrices_path, grid, {
        sid: no_response[k] for sid, k in rows.items() if eligible[k]}))
    results = []
    for sid in sorted(rows):
        k = rows[sid]
        m = next(matrices) if eligible[k] else None
        if m is not None and m.kernel_calls != kernel_calls[k]:
            raise ParseError(f"{matrices_path}: seed {sid} lists {m.kernel_calls - 1} "
                             f"cells, not its kernel_calls - 1 = "
                             f"{kernel_calls[k] - 1:g} from seeds_summary.csv")
        behavior, anchor, theoretical = (c[k] for c in columns)
        results.append(SeedResult(sid, m, no_response[k], anchor, behavior,
                                  not eligible[k], m1[k], m2[k], seed_dv[k],
                                  theoretical))
    return CampaignResult(summary.get("model"), grid, results, float(fraction))
