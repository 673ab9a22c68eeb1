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

A seed's record holds physics only, and the campaign's grid holds the
probabilities once. A `SeedResult` holds the cells of its integrated
(live) rows and the no-response outcome that every other row takes; an
excluded seed has no rows. A cell is its two speeds at first overlap,
follower v1 and lead v2: both finite with v1 > v2 where it crashes, both
NaN where it does not. No cell records whether the follower had begun to
brake: a live row moves like the no-response run, which does not overlap
before its impact step, up to a brake onset before that step, so the
no-response outcome is the only crash without braking. The glance,
reaction and deceleration probabilities live in `CampaignResult.grid`
alone, and a per-seed query that needs them takes the grid as an
argument: reweighting a campaign gives a new grid and each seed's rows on
it, and new marginals are a new grid alone.

`save_campaign` is the one writer of simulate's three artifacts:
summary.json, matrices.npy and seeds.npy. A seeds.npy record holds what
only simulate knows of a seed, and `load_campaign`, the one reader, gives
back the `CampaignResult` written from them. What follows from those
(kernel calls, crash cells, q_raw, a missing anchor, the no-response
delta-v) is computed, never read back.
"""

from __future__ import annotations

import math
import tokenize
import warnings
from dataclasses import dataclass, field, fields, replace
from functools import cached_property, partial
from pathlib import Path

import numpy as np

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
    usable_cpus,
)

FIRST_CHUNK = 256  # steps integrated before the first outcome check
# cells x steps of one chunk at most: larger chunk buffers raise the
# process's peak memory and run no faster
BLOCK_ELEMENTS = 2**14

MODEL_CBM = "cbm"
MODEL_BLOM = "blom"

# the fields of a cell, in SeedResult and in a matrices.npy record
OUTCOME_FIELDS = ("v1", "v2")

# a seeds.npy record, (name, format): what simulate alone knows of a seed.
# NaN marks a missing anchor or seed delta-v and, in both speeds, a
# no-response run without crash; a text field ("<U") is as wide as the
# file's longest
SEED_LAYOUT = [
    ("seed_id", "<U"), ("eligible", "?"), ("lead_behavior", "<U"),
    ("anchor_time_s", "<f8"), ("follower_mass_kg", "<f8"), ("lead_mass_kg", "<f8"),
    ("seed_delta_v_kmh", "<f8"), ("no_resp_v1", "<f8"), ("no_resp_v2", "<f8"),
    ("theoretical_cells", "<i8"),
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
    """A campaign's grid and its behaviour probabilities, which only the
    campaign holds: axis1 (glance overshoot with the attentive 0 point, or
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


def sweep_seed(kin: SeedKinematics, grid: CampaignGrid, onsets: np.ndarray,
               jerk: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sweep the (axis1 x deceleration) grid for one seed: the live rows'
    axis1 indices, ascending, and their v1 and v2 over the deceleration
    bins.

    `onsets` holds the brake onset per axis1 value, in any order (math.inf
    marks never-responding rows). A row whose first braking step is at or
    past the no-response impact step is the no-response outcome in every
    cell; the other rows are integrated as one block.
    """
    onsets = np.asarray(onsets, dtype=float)
    rows = np.flatnonzero(kin.t.searchsorted(onsets, "right") < kin.k_live)
    return rows, *kin.run(onsets[rows], grid.decels, jerk).values()


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
    """One seed's campaign output: its outcomes on the campaign's grid
    (axis1 x max deceleration), the live rows' cells and the no-response
    outcome of the others, and its facts. An excluded seed has no rows. A
    seed loaded from its ref carries the digest of the trajectory bytes
    parsed."""

    seed_id: str
    rows: np.ndarray  # (k,) the live rows' axis1 indices, ascending
    v1: np.ndarray    # (k, n2) follower speed at first overlap, m/s
    v2: np.ndarray    # (k, n2) lead speed at first overlap, m/s
    no_response: tuple[float, float]  # the cell (v1, v2) of the other rows
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

    @property
    def crashed(self) -> np.ndarray:
        """Whether each live cell crashes."""
        return ~np.isnan(self.v1)

    def kernel_calls(self, grid: CampaignGrid) -> int:
        """The seed's no-response run, plus one call per integrated cell."""
        return 1 + grid.shape[1] * len(self.rows)

    def cells(self, grid: CampaignGrid, name: str) -> np.ndarray:
        """Field `name` over the whole grid: the live rows' cells, and the
        no-response outcome in every other row."""
        out = np.full(grid.shape, self.no_response[OUTCOME_FIELDS.index(name)])
        out[self.rows] = getattr(self, name)
        return out

    def n_crash_cells(self, grid: CampaignGrid) -> int:
        """The live rows' crashing cells, plus every cell of the other rows
        if the no-response run crashed."""
        n1, n2 = grid.shape
        return (int(np.count_nonzero(self.crashed))
                + (n1 - len(self.rows)) * n2 * (not math.isnan(self.no_response[0])))

    def crashes(self, grid: CampaignGrid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """v1, v2 and probability of each crashing cell of the grid, in
        row-major order: the order of the crash samples."""
        v1 = self.cells(grid, "v1")
        c = ~np.isnan(v1)
        return v1[c], self.cells(grid, "v2")[c], grid.p_cell[c]

    def crash_probs(self, grid: CampaignGrid) -> np.ndarray:
        """The probability of each crashing cell of the grid, in row-major
        order, as `crashes` gives it, without expanding the speeds."""
        return grid.p_cell[~np.isnan(self.cells(grid, "v1"))]

    def crash_mass(self, grid: CampaignGrid) -> float:
        """Summed probability of the crashing cells (q_i of the seed)."""
        return float(self.crash_probs(grid).sum())


@dataclass(eq=False)
class CampaignResult:
    """Seed results in seed id order, the grid that holds the campaign's
    probabilities, and the no-response share mixed into the campaign's
    delta-v."""

    model: str
    grid: CampaignGrid
    results: list[SeedResult]
    no_response_fraction: float

    @property
    def swept(self) -> list[SeedResult]:
        """The seeds the sweep ran on (not excluded), in seed id order."""
        return [r for r in self.results if not r.excluded]

    @property
    def excluded_ids(self) -> list[str]:
        return [r.seed_id for r in self.results if r.excluded]

    @property
    def theoretical_cells(self) -> int:
        return sum(r.theoretical_cells for r in self.results if not r.excluded)

    @property
    def kernel_calls(self) -> int:
        return sum(r.kernel_calls(self.grid) for r in self.swept)

    @property
    def crash_cells(self) -> int:
        return sum(r.n_crash_cells(self.grid) for r in self.swept)


def reweight(campaign: CampaignResult, target: CampaignGrid) -> CampaignResult:
    """`campaign` under the behaviour probabilities of `target`, built
    without running the kernel; `campaign`'s records are left as they are.

    A cell's outcome depends only on its axis1 value, which fixes the brake
    onset, and its maximum deceleration. So on a target whose axis1 values
    are a bitwise subset of the campaign grid's, in its order, and whose
    deceleration bins equal the grid's, each swept seed keeps its rows at
    the target's axis1 values, and the target holds the probabilities. A
    glance cut is such a target: its overshoots come from the same 0.1 s
    grid, ascending, and a cut only drops glance mass. An overshoot whose
    mass underflows to 0 only without the cut is on the target's axis
    alone, which raises ValidationError. Unchecked: the target is on the
    grid's deceleration bins (assess-dms).
    """
    grid = campaign.grid
    index = {x: k for k, x in enumerate(grid.axis1.view(np.int64).tolist())}
    rows = [index.get(x) for x in target.axis1.view(np.int64).tolist()]
    if None in rows or rows != sorted(set(rows)):
        raise ValidationError("the target's axis1 values are not a subset of "
                              "the simulated grid's, in its order")
    on_target = np.zeros(grid.shape[0], dtype=bool)
    on_target[rows] = True
    target_row = np.cumsum(on_target) - 1  # a grid row's index on the target
    results = []
    for r in campaign.results:
        kept = on_target[r.rows]  # the live rows on the target
        results.append(replace(r, rows=target_row[r.rows[kept]],
                               v1=r.v1[kept], v2=r.v2[kept]))
    return replace(campaign, grid=target, results=results)


def _no_rows(n2: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The outcomes of a seed without live rows: its rows, v1 and v2."""
    return np.empty(0, dtype=np.int64), np.empty((0, n2)), np.empty((0, n2))


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
    outcomes = (_no_rows(n2) if excluded
                else sweep_seed(kin, grid, onsets, cfg.cbm.jerk_mean))
    return SeedResult(seed.id, *outcomes, kin.no_response, anchor,
                      cf.lead_behavior_class, excluded,
                      seed.follower_meta.mass, seed.lead_meta.mass,
                      seed.seed_delta_v_kmh, theoretical, digest)


def run_campaign(seeds: list[SeedCrash] | list[SeedRef], cfg: CampaignConfig,
                 glance: GlanceDistribution | None = None, *,
                 decels: DecelDistribution, workers: int = 1) -> CampaignResult:
    """Run one simulation set over all seeds, loaded or as refs whose
    trajectories each worker loads. Output is ordered by seed id and
    identical for any worker count. Unchecked: `glance` is given for the
    cbm model, whose config names a glance_file
    (`CampaignConfig.from_json`)."""
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
    else:
        results = list(map(run, ordered))

    if cfg.model == MODEL_BLOM and all(r.excluded for r in results):
        raise ModelUndefinedError(
            "brake-light model is undefined for every seed in this set")
    return CampaignResult(cfg.model, grid, results, cfg.cbm.no_response_fraction
                          if cfg.model == MODEL_CBM else 0.0)


# ---------------------------------------------------------------- file I/O

def _matrices_layout(n2: int) -> list[tuple]:
    """A matrices.npy record, (seed_id, axis1_index, v1, v2): a live row's
    speeds over the `n2` deceleration bins."""
    return [("seed_id", "<U"), ("axis1_index", "<i8"),
            *((name, "<f8", (n2,)) for name in OUTCOME_FIELDS)]


def _dtype(layout: list[tuple], width) -> np.dtype:
    """The record type of `layout`, little-endian whatever the host, with
    each text field ("<U") `width(name)` characters wide."""
    return np.dtype([(name, f"<U{width(name)}" if fmt == "<U" else fmt, *shape)
                     for name, fmt, *shape in layout])


def _read_records(path: str | Path, what: str, layout: list[tuple],
                  on: str = "") -> np.ndarray:
    """The records of the .npy file `path`, read without unpickling: a 1-D
    array of exactly `layout`'s fields, each text field at the file's own
    width. ParseError names the path if the file is not a whole .npy file
    of `what` records, or if it holds any other array; that refusal names
    the expected record type, `on` what the record's shape depends on."""
    try:
        # NumPy raises or warns on a corrupt header; MemoryError: a huge shape
        with open(path, "rb") as fh, warnings.catch_warnings():
            warnings.simplefilter("ignore")
            records = np.lib.format.read_array(fh, allow_pickle=False)
            trailing = fh.read(1)
    except (ValueError, TypeError, SyntaxError, tokenize.TokenError, MemoryError) as exc:
        raise ParseError(f"{path}: not a .npy file of {what} records: {exc}") from exc
    if trailing:
        raise ParseError(f"{path}: bytes follow the records")
    got = records.dtype
    # the file's own text widths, so a refusal names the layout's fields
    want = _dtype(layout, lambda name: got[name].itemsize // 4
                  if name in (got.names or ()) else 1)
    if records.ndim != 1 or got != want:
        raise ParseError(f"{path}: expected a 1-D array of records {want}{on}, "
                         f"got a {records.ndim}-D array of {got}")
    return records


def _refuse(path: str | Path, records: np.ndarray, label: str, bad: np.ndarray,
            message: str) -> None:
    """Raise ParseError naming `path` and the first record that `bad`
    marks, with `label` and `message` formatted with its fields."""
    if bad.any():
        k = int(np.argmax(bad))
        fields = dict(zip(records.dtype.names, records[k].tolist()))
        raise ParseError(f"{path}: record {k} ({label.format_map(fields)}): "
                         f"{message.format_map(fields)}")


def _is_cell(v1: np.ndarray, v2: np.ndarray) -> np.ndarray:
    """Whether each (v1, v2) is a cell: both NaN (no crash), or both finite
    with v1 > v2 (a crash; the kernel counts no other)."""
    return (np.isnan(v1) & np.isnan(v2)) | (np.isfinite(v1) & np.isfinite(v2) & (v1 > v2))


def save_matrices(seeds: list[SeedResult], grid: CampaignGrid,
                  path: str | Path) -> None:
    """Write one record (seed_id, axis1_index, v1, v2) per live row of
    each of `seeds` on `grid` to the .npy file `path`: seed by seed, rows
    ascending, the speeds in the grid's deceleration order (both NaN where
    a cell does not crash). `save_campaign` writes the grid and the
    no-response outcome that a seed's other rows take."""
    width = max((len(r.seed_id) for r in seeds), default=1)
    records = np.zeros(sum(len(r.rows) for r in seeds),
                       dtype=_dtype(_matrices_layout(grid.shape[1]), lambda _: width))
    # each seed's records, as views into `records`
    blocks = np.split(records, np.cumsum([len(r.rows) for r in seeds])[:-1])
    for r, block in zip(seeds, blocks):
        block["seed_id"], block["axis1_index"] = r.seed_id, r.rows
        for name in OUTCOME_FIELDS:
            block[name] = getattr(r, name)
    with open(path, "wb") as fh:
        np.save(fh, records, allow_pickle=False)


def load_matrices(path: str | Path, grid: CampaignGrid, seed_ids: list[str]
                  ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The outcomes on `grid` of the swept seeds `seed_ids`, in seed id
    order: each seed's live rows' axis1 indices, ascending, and their v1
    and v2 over the grid's deceleration bins.

    The records of `path`, in any order, are the live rows; a seed's other
    rows take its no-response outcome, which seeds.npy holds, so a seed
    without records has no live row. ParseError names the path if the file
    is not a whole .npy file of `save_matrices`'s records on the grid's
    deceleration bins (`_read_records`). It names the path and the record
    if a cell's speeds are not a cell's (`_is_cell`), a row index is
    outside the grid, a seed is not in `seed_ids`, or a (seed, row) pair
    repeats."""
    n1, n2 = grid.shape
    records = _read_records(path, "outcome", _matrices_layout(n2),
                            f" on the grid's {n2} deceleration bins")
    check = partial(_refuse, path, records, "seed {seed_id}, axis1 row {axis1_index}")
    ids, row, v1, v2 = (records[name] for name in ("seed_id", "axis1_index",
                                                   *OUTCOME_FIELDS))
    check(~_is_cell(v1, v2).all(axis=1),
          "a cell's v1 and v2 must be both NaN (no crash) or both finite "
          "with v1 > v2 (a crash)")
    check((row < 0) | (row >= n1), f"the grid has {n1} axis1 rows")
    swept = {sid: k for k, sid in enumerate(sorted(seed_ids))}  # id: position
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
    return [tuple(a[start:stop] for a in arrays)
            for start, stop in zip(bounds, bounds[1:])]


def save_campaign(result: CampaignResult, out: Path) -> None:
    """Write `result` into the directory `out` as simulate's matrices.npy,
    seeds.npy and summary.json, the files `load_campaign` reads, and no
    other."""
    save_matrices(result.swept, result.grid, out / "matrices.npy")
    rows = result.results
    np.save(out / "seeds.npy", np.array([
        (r.seed_id, not r.excluded, r.lead_behavior,
         math.nan if r.anchor is None else r.anchor, r.follower_mass, r.lead_mass,
         math.nan if r.seed_delta_v_kmh is None else r.seed_delta_v_kmh,
         *r.no_response, r.theoretical_cells) for r in rows],
        dtype=_dtype(SEED_LAYOUT, lambda name: max(
            (len(getattr(r, name)) for r in rows), default=1))), allow_pickle=False)
    write_json(out / "summary.json", {
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


def load_campaign(sim_dir: str | Path) -> CampaignResult:
    """The campaign `save_campaign` wrote to `sim_dir`, without the seed
    files' digests, from its summary.json, seeds.npy and matrices.npy. No
    other file there is read.

    ParseError names the file for a summary.json without an integer
    n_seeds, a no_response_fraction in [0, 1) and a grid; a seeds.npy that
    is not a whole .npy file of `SEED_LAYOUT`'s records (`_read_records`),
    or holds other than n_seeds of them; or a refused matrices.npy
    (`load_matrices`). It names seeds.npy and the record for a mass that is
    not finite and > 0, a no-response cell that is not a cell (`_is_cell`),
    theoretical cells outside 0 .. the grid's cells, or a seed id that an
    earlier record holds."""
    summary_path = Path(sim_dir) / "summary.json"
    summary = read_json(summary_path, "simulate summary",
                        {"no_response_fraction": "number", "n_seeds": "int"})
    fraction = summary["no_response_fraction"]
    if not 0 <= fraction < 1:
        raise ParseError(f"{summary_path}: simulate summary no_response_fraction must "
                         f"be in [0, 1), got {fraction!r}")
    grid = CampaignGrid.from_json(summary, summary_path)
    path = summary_path.with_name("seeds.npy")
    seeds = _read_records(path, "seed", SEED_LAYOUT)
    if len(seeds) != summary["n_seeds"]:
        raise ParseError(f"{path}: {len(seeds)} records, not the "
                         f"{summary['n_seeds']} seeds of summary.json")
    check = partial(_refuse, path, seeds, "seed {seed_id}")
    # `_refuse` formats each message with the record's fields; doubled braces
    # survive the f-string
    for name in ("follower_mass_kg", "lead_mass_kg"):
        check(~((seeds[name] > 0) & (seeds[name] < math.inf)),
              f"{name} must be a finite number > 0, got {{{name}!r}}")
    check(~_is_cell(seeds["no_resp_v1"], seeds["no_resp_v2"]),
          "the no-response cell's v1 and v2 must be both NaN (no crash) or both "
          "finite with v1 > v2 (a crash), got {no_resp_v1!r} and {no_resp_v2!r}")
    n_cells = grid.p_cell.size
    check((seeds["theoretical_cells"] < 0) | (seeds["theoretical_cells"] > n_cells),
          f"theoretical_cells must be in 0..{n_cells}, got {{theoretical_cells}}")
    ids = seeds["seed_id"]
    order = np.argsort(ids, kind="stable")  # a repeated id after its first record
    again = np.zeros(len(ids), dtype=bool)
    again[order[1:]] = ids[order[1:]] == ids[order[:-1]]
    check(again, "an earlier record holds the same seed id")
    seeds = seeds[order]
    records = list(zip(*(seeds[name].tolist() for name, _ in SEED_LAYOUT)))
    outcomes = iter(load_matrices(summary_path.with_name("matrices.npy"), grid,
                                  [sid for sid, ok, *_ in records if ok]))
    results = [SeedResult(sid, *(next(outcomes) if ok else _no_rows(grid.shape[1])), (v1, v2),
                          None if math.isnan(anchor) else anchor, behavior, not ok,
                          m1, m2, None if math.isnan(dv) else dv, cells)
               for sid, ok, behavior, anchor, m1, m2, dv, v1, v2, cells in records]
    return CampaignResult(summary.get("model"), grid, results, float(fraction))
