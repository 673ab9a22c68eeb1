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
matrices.npy.

A matrix holds the cells of its integrated (live) rows and the seed's
no-response outcome, which every other row takes, in memory as on disk.
Only sums over cells expand a field over the grid (`OutcomeMatrix.cells`):
they keep their bits in row-major order alone.
"""

from __future__ import annotations

import tokenize
import warnings
from dataclasses import dataclass, field, fields
from functools import cached_property, partial
from pathlib import Path

import numpy as np

from .bias import usable_cpus
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
    overlap_speeds,
    remove_evasive_maneuver,
)

FIRST_CHUNK = 256  # steps integrated before the first outcome check
# cells x steps of one chunk at most: larger chunk buffers raise the
# process's peak memory and run no faster
BLOCK_ELEMENTS = 2**14

MODEL_CBM = "cbm"
MODEL_BLOM = "blom"

OUTCOME_FIELDS = ("crashed", "v1", "v2", "max_severity")


@dataclass(frozen=True)
class SimOutcome:
    """Result of one simulated case."""

    crashed: bool
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
            crashed, v1, v2 = self._impact(k, self.free_gap[k - 1], self.free_gap[k],
                                           self.v_free, self.v_free)
            if crashed:
                self.no_response = SimOutcome(True, float(v1), float(v2), True)

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
            crash, hv1, hv2 = self._impact(
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
        if min(grid.axis1_probs.min(), grid.decel_probs.min()) < 0:
            raise ParseError(f"{path}: campaign grid probabilities must be >= 0")
        return grid


@dataclass(eq=False)
class OutcomeMatrix:
    """One seed's outcomes on its campaign grid (axis1 x max deceleration):
    the live rows' cells, and the no-response outcome of the others."""

    seed_id: str
    grid: CampaignGrid
    rows: np.ndarray           # (k,) the live rows' axis1 indices, ascending
    crashed: np.ndarray        # (k, n2) bool
    v1: np.ndarray             # NaN where not crashed
    v2: np.ndarray
    max_severity: np.ndarray   # bool
    no_response: SimOutcome

    @property
    def kernel_calls(self) -> int:
        """The seed's no-response run, plus one call per integrated cell."""
        return 1 + self.grid.shape[1] * len(self.rows)

    def cells(self, name: str) -> np.ndarray:
        """Field `name` over the whole grid: the live rows' cells, and the
        no-response outcome in every other row (NaN for its None speeds)."""
        out = np.full(self.grid.shape, getattr(self.no_response, name),
                      dtype=getattr(self, name).dtype)
        out[self.rows] = getattr(self, name)
        return out

    @property
    def n_crash_cells(self) -> int:
        """The live rows' crashing cells, plus every cell of the other rows
        if the no-response run crashed."""
        n1, n2 = self.grid.shape
        return (int(np.count_nonzero(self.crashed))
                + (n1 - len(self.rows)) * n2 * self.no_response.crashed)

    def crashes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """v1, v2 and probability of each crashing cell of the grid, in
        row-major order: the order that sums over the cells keep."""
        c = self.cells("crashed")
        return self.cells("v1")[c], self.cells("v2")[c], self.grid.p_cell[c]

    @property
    def crash_mass(self) -> float:
        """Summed probability of the crashing cells (q_i of the seed)."""
        return float(self.grid.p_cell[self.cells("crashed")].sum())


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
    """Per-seed campaign output next to its outcome matrix. A seed loaded
    from its ref carries the digest of the trajectory bytes parsed."""

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
    digest: str | None = None


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
                      seed.seed_delta_v_kmh, theoretical,
                      anchor_absent=cfg.model == MODEL_CBM and anchor is None,
                      digest=digest)


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
    return CampaignResult(cfg.model, grid, results)


# ---------------------------------------------------------------- file I/O

def _record_dtype(id_length: int, n2: int) -> np.dtype:
    """One matrices.npy record: a live row's cells over the `n2`
    deceleration bins, little-endian whatever the host."""
    return np.dtype([("seed_id", f"<U{id_length}"), ("axis1_index", "<i8"),
                     ("crashed", "u1", (n2,)), ("v1", "<f8", (n2,)),
                     ("v2", "<f8", (n2,)), ("max_severity", "u1", (n2,))])


def save_matrices(matrices: list[OutcomeMatrix], grid: CampaignGrid,
                  path: str | Path) -> None:
    """Write one record per live row of each matrix on `grid` to the .npy
    file `path`: seed by seed, rows ascending, each with its cells in the
    grid's deceleration order (v1 and v2 NaN where no crash). The grid
    goes to simulate's summary.json, and the no-response outcome that a
    seed's other rows take to its seeds_summary.csv row."""
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
                  no_response: dict[str, SimOutcome]) -> list[OutcomeMatrix]:
    """The outcome matrices on `grid` of the swept seeds, which
    `no_response` maps to their no-response outcomes, in seed id order.

    The records of `path`, in any order, are the matrices' live rows; every
    other row takes its seed's no-response outcome, so a seed without
    records has no live row. ParseError names the path if the file is not
    a whole .npy file of records without pickled objects, or not a 1-D
    array of exactly `save_matrices`'s fields on the grid's deceleration
    bins. It names the path and the record if a flag is not 0 or 1, a cell
    without a crash has speeds or maximum severity, a crash does not have
    finite speeds with v1 > v2 (the kernel counts no other crash), a row
    index is outside the grid, a seed is not in `no_response`, or a (seed,
    row) pair repeats."""
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
    # any seed id length; the cells on the grid's deceleration bins
    want = _record_dtype(dtype["seed_id"].itemsize // 4 if fields else 1, n2)
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

    for name in ("crashed", "max_severity"):
        check((records[name] > 1).any(axis=1), f"{name} holds a byte other than 0 or 1")
    crashed, v1, v2 = records["crashed"] == 1, records["v1"], records["v2"]
    check((~crashed & ~(np.isnan(v1) & np.isnan(v2)
                        & (records["max_severity"] == 0))).any(axis=1),
          "a cell without a crash must have NaN v1 and v2 and max_severity 0")
    check((crashed & ~((v1 > v2) & np.isfinite(v1) & np.isfinite(v2))).any(axis=1),
          "a crash must have finite speeds with v1 > v2")
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
    arrays = [a[order] for a in (row, crashed, v1, v2, records["max_severity"] == 1)]
    bounds = key.searchsorted(n1 * np.arange(len(swept) + 1)).tolist()
    return [OutcomeMatrix(sid, grid, *(a[start:stop] for a in arrays), no_response[sid])
            for sid, start, stop in zip(swept, bounds, bounds[1:])]
