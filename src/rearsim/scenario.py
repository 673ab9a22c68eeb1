"""Seed pre-crash scenarios: records, file I/O, synthesis, and the
counterfactual transform that removes the follower's evasive maneuver.

Geometry is 1-D along a common path. The lead vehicle's position is its
rear bumper, the follower's its front bumper, so ``gap = lead - follower``
and a collision is ``gap <= 0``. The collision is inelastic: both vehicles
leave the impact at the common momentum-conserving speed, so the
follower's speed change (delta-v) is m2*(v1 - v2)/(m1 + m2).
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import table
from .errors import GenerationError, ParseError, ValidationError
from .manifest import bytes_digest, check_fields, is_finite, read_config, write_json

DT_NOMINAL = 0.010            # s, reconstruction time step
DT_TOLERANCE = 1e-6           # s, allowed jitter on the step
GAP_TOLERANCE = 0.05          # m, slack on the final-collision check
DECEL_ONSET_THRESHOLD = -0.5  # m/s^2, sustained-braking detector level
DECEL_ONSET_HOLD = 0.2        # s, how long the level must hold
STANDSTILL_SPEED = 0.01       # m/s, below this a vehicle is "not moving"
DEFAULT_HORIZON_EXTENSION = 30.0  # s, added beyond the seed when the
                                  # evasive maneuver is removed
MS_TO_KMH = 3.6               # km/h per m/s

LEAD_BRAKING = "braking"
LEAD_NON_BRAKING = "non-braking"
LEAD_STANDSTILL = "standstill-at-start"

SEED_CSV_HEADER = ["t", "lead_pos", "lead_speed", "lead_acc",
                   "foll_pos", "foll_speed", "foll_acc"]


@dataclass(frozen=True)
class VehicleMeta:
    """Mass and outer dimensions of one involved vehicle."""

    mass: float   # kg
    width: float  # m
    length: float  # m
    id: str = ""

    def __post_init__(self):
        try:
            check_fields(self)
            for name in ("mass", "width", "length"):
                if not getattr(self, name) > 0:
                    raise ValidationError(
                        f"{name} must be > 0, got {getattr(self, name)!r}")
        except ValidationError as exc:
            raise ValidationError(f"vehicle {self.id!r}: {exc}") from None


@dataclass(eq=False)
class Trajectory:
    """Sampled 1-D motion along the common path."""

    t: np.ndarray      # s
    pos: np.ndarray    # m
    speed: np.ndarray  # m/s
    acc: np.ndarray    # m/s^2

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        self.pos = np.asarray(self.pos, dtype=float)
        self.speed = np.asarray(self.speed, dtype=float)
        self.acc = np.asarray(self.acc, dtype=float)

    def __len__(self):
        return len(self.t)


@dataclass(eq=False)
class SeedCrash:
    """One reconstructed rear-end crash, ending in collision."""

    id: str
    lead: Trajectory
    follower: Trajectory
    lead_meta: VehicleMeta
    follower_meta: VehicleMeta
    seed_delta_v_kmh: float | None = None

    @property
    def duration(self) -> float:
        return float(self.lead.t[-1] - self.lead.t[0])

    def gap(self) -> np.ndarray:
        return self.lead.pos - self.follower.pos

    def validate(self) -> None:
        lead, foll = self.lead, self.follower
        for name, values in zip(SEED_CSV_HEADER, (
                lead.t, lead.pos, lead.speed, lead.acc,
                foll.pos, foll.speed, foll.acc)):
            finite = np.isfinite(values)
            if not finite.all():
                k = int(np.argmin(finite))
                raise ValidationError(
                    f"seed {self.id}: {name} in data row {k + 1} is "
                    f"{float(values[k])!r}, not a finite number")
        n = len(lead)
        if n < 2:
            raise ValidationError(f"seed {self.id}: needs at least 2 samples")
        if len(foll) != n or not np.array_equal(lead.t, foll.t):
            raise ValidationError(f"seed {self.id}: trajectories must share the time base")
        steps = np.diff(lead.t)
        if np.any(steps <= 0):
            raise ValidationError(f"seed {self.id}: time must be strictly increasing")
        if np.any(np.abs(steps - DT_NOMINAL) > DT_TOLERANCE):
            raise ValidationError(
                f"seed {self.id}: time step must be {DT_NOMINAL} s"
            )
        if np.any(lead.speed < -1e-9) or np.any(foll.speed < -1e-9):
            raise ValidationError(f"seed {self.id}: speeds must be non-negative")
        gap = self.gap()
        if np.any(gap[:-1] < -1e-9):
            raise ValidationError(f"seed {self.id}: negative gap before the final sample")
        if gap[-1] > GAP_TOLERANCE:
            raise ValidationError(
                f"seed {self.id}: seed does not end in collision (final gap "
                f"{gap[-1]:.3f} m)"
            )


@dataclass(eq=False)
class CounterfactualSeed:
    """A seed with the follower's evasive maneuver removed.

    The follower holds one constant speed over the whole (extended)
    horizon; the lead trajectory is extrapolated past its last
    reconstructed sample at its final speed (a stopped lead stays
    stopped).
    """

    id: str
    lead: Trajectory
    follower: Trajectory
    lead_meta: VehicleMeta
    follower_meta: VehicleMeta
    lead_behavior_class: str
    lead_brake_onset: float | None
    source_duration: float
    seed_delta_v_kmh: float | None = None

    @property
    def dt(self) -> float:
        return float(self.lead.t[1] - self.lead.t[0])

    @property
    def follower_speed(self) -> float:
        return float(self.follower.speed[0])

    def gap(self) -> np.ndarray:
        return self.lead.pos - self.follower.pos


def delta_v(v1, v2, m1: float, m2: float):
    """Follower speed change over the collision, km/h. v1/v2 are the
    follower/lead speeds at first overlap (m/s), as floats or arrays, and
    m1/m2 their masses. Unchecked: masses are read as finite and > 0, a crash
    has v1 > v2 (`engine.SeedKinematics._impact`; `load_matrices` and
    `_load_seeds_summary` require it), and synthesis rejects v1 < v2."""
    return m2 * (v1 - v2) / (m1 + m2) * MS_TO_KMH


def overlap_speeds(gap_a, gap_b, foll_a, foll_b, lead_a, lead_b):
    """Follower and lead speeds at the first overlap, interpolated linearly
    between samples a and a + 1 (gap_a > 0 >= gap_b) of floats or arrays;
    synthesis and the engine's kernel both call it."""
    alpha = gap_a / (gap_a - gap_b)
    return foll_a + alpha * (foll_b - foll_a), lead_a + alpha * (lead_b - lead_a)


def _sustained_decel_onset(t: np.ndarray, acc: np.ndarray) -> int | None:
    """Index of the first sample opening a window of >= DECEL_ONSET_HOLD s
    at or below DECEL_ONSET_THRESHOLD. None if no such window exists."""
    dt = float(t[1] - t[0])
    win = max(1, int(round(DECEL_ONSET_HOLD / dt)))
    below = acc <= DECEL_ONSET_THRESHOLD
    if len(below) < win:
        return None
    # rolling all-true over windows of length `win`
    hits = np.convolve(below.astype(int), np.ones(win, dtype=int), mode="valid")
    idx = np.nonzero(hits == win)[0]
    return int(idx[0]) if idx.size else None


def classify_lead_behavior(lead: Trajectory) -> tuple[str, float | None]:
    """Classify the lead vehicle: standing still for the whole event,
    braking (returns the brake onset time), or driving without braking."""
    if np.all(lead.speed <= STANDSTILL_SPEED):
        return LEAD_STANDSTILL, None
    onset_idx = _sustained_decel_onset(lead.t, lead.acc)
    if onset_idx is not None:
        return LEAD_BRAKING, float(lead.t[onset_idx])
    return LEAD_NON_BRAKING, None


def remove_evasive_maneuver(
    seed: SeedCrash | CounterfactualSeed,
    horizon_extension: float = DEFAULT_HORIZON_EXTENSION,
) -> CounterfactualSeed:
    """Replace the follower's speed profile with the constant speed it held
    just before its first sustained deceleration (its initial speed if it
    never decelerates), and extend the horizon so late responses can play
    out. Idempotent: reapplying to the output is a no-op."""
    lead, foll = seed.lead, seed.follower
    dt = float(lead.t[1] - lead.t[0])
    t0 = float(lead.t[0])
    source_duration = getattr(seed, "source_duration",
                              float(lead.t[-1] - lead.t[0]))

    onset_idx = _sustained_decel_onset(foll.t, foll.acc)
    if onset_idx is None:
        v_const = float(foll.speed[0])
    else:
        v_const = float(foll.speed[max(onset_idx - 1, 0)])

    total = source_duration + horizon_extension
    n = int(round(total / dt)) + 1
    t = t0 + dt * np.arange(n)

    # lead: reconstructed part verbatim, then constant-speed extrapolation
    n_src = len(lead)
    lead_pos = np.empty(n)
    lead_speed = np.empty(n)
    lead_acc = np.zeros(n)
    m = min(n_src, n)
    lead_pos[:m] = lead.pos[:m]
    lead_speed[:m] = lead.speed[:m]
    lead_acc[:m] = lead.acc[:m]
    if n > n_src:
        v_end = float(lead.speed[-1])
        if v_end <= STANDSTILL_SPEED:
            v_end = 0.0
        k = np.arange(1, n - n_src + 1)
        lead_pos[n_src:] = lead.pos[-1] + v_end * dt * k
        lead_speed[n_src:] = v_end
        lead_acc[n_src:] = 0.0

    foll_pos = float(foll.pos[0]) + v_const * (t - t0)
    cf_follower = Trajectory(t, foll_pos, np.full(n, v_const), np.zeros(n))
    cf_lead = Trajectory(t, lead_pos, lead_speed, lead_acc)

    behavior, brake_onset = classify_lead_behavior(cf_lead)
    return CounterfactualSeed(
        id=seed.id,
        lead=cf_lead,
        follower=cf_follower,
        lead_meta=seed.lead_meta,
        follower_meta=seed.follower_meta,
        lead_behavior_class=behavior,
        lead_brake_onset=brake_onset,
        source_duration=source_duration,
        seed_delta_v_kmh=seed.seed_delta_v_kmh,
    )


# ---------------------------------------------------------------- file I/O

@dataclass(frozen=True)
class SeedRef:
    """A seed as its JSON sidecar lists it: its id, the path of its
    trajectory CSV, its vehicle records, the delta-v it records (None if
    it records none) and the digest of the sidecar bytes it was parsed
    from."""

    id: str
    path: Path
    lead_meta: VehicleMeta
    follower_meta: VehicleMeta
    seed_delta_v_kmh: float | None
    digest: str

    def load(self) -> tuple[SeedCrash, str]:
        """The seed, its trajectories read from `path` and its records
        taken from this ref, so the sidecar is not read again; and the
        digest of the trajectory bytes that were parsed."""
        data, digest = _read_trajectories(self.path)
        return _seed(data, self), digest


def _read_sidecar(csv_path: Path) -> SeedRef:
    """The ref of the seed whose trajectory CSV is `csv_path`, from its
    JSON sidecar, read once: the ref's digest is that of the bytes parsed.
    Each vehicle's mass, width and length are finite numbers > 0, and the
    recorded delta-v is absent, null or a finite number >= 0; anything
    else raises ParseError naming the sidecar."""
    json_path = csv_path.with_suffix(".json")
    if not json_path.exists():
        raise ParseError(f"seed sidecar not found: {json_path}")
    with open(json_path, "rb") as fh:
        data = fh.read()
    try:
        meta = json.loads(data.decode())
        sid = str(meta["id"])
        lead_meta = VehicleMeta(id=sid + "/lead", **meta["lead"])
        foll_meta = VehicleMeta(id=sid + "/follower", **meta["follower"])
        dv = meta.get("seed_delta_v_kmh")
    except (KeyError, TypeError, ValueError) as exc:  # JSON and UTF-8 errors
        raise ParseError(f"{json_path}: malformed sidecar: {exc}") from exc
    except ValidationError as exc:
        raise ParseError(f"{json_path}: {exc}") from exc
    if dv is not None and not (is_finite(dv) and dv >= 0):
        raise ParseError(f"{json_path}: seed_delta_v_kmh must be null or a "
                         f"finite number >= 0, got {dv!r}")
    return SeedRef(sid, csv_path, lead_meta, foll_meta,
                   None if dv is None else float(dv),
                   bytes_digest(data, json_path.name))


def _read_trajectories(csv_path: Path) -> tuple[list[np.ndarray], str]:
    """The columns of a seed's trajectory CSV, in SEED_CSV_HEADER order,
    and the digest of the bytes they were parsed from. The file is read
    once, and every column is a float (see `table.read_floats`)."""
    if not csv_path.exists():
        raise ParseError(f"seed file not found: {csv_path}")
    with open(csv_path, "rb") as fh:
        data = fh.read()
    columns = table.read_floats(csv_path, SEED_CSV_HEADER, data)
    if not columns[0].size:
        raise ParseError(f"{csv_path}: no samples")
    return columns, bytes_digest(data, csv_path.name)


def _seed(data: list[np.ndarray], ref: SeedRef) -> SeedCrash:
    """The validated seed of trajectory columns `data` and sidecar `ref`."""
    seed = SeedCrash(
        id=ref.id,
        lead=Trajectory(*data[:4]),
        follower=Trajectory(data[0], *data[4:]),
        lead_meta=ref.lead_meta,
        follower_meta=ref.follower_meta,
        seed_delta_v_kmh=ref.seed_delta_v_kmh,
    )
    seed.validate()
    return seed


def load_seed(pcm_file: str | Path) -> SeedCrash:
    """Load a seed from a trajectory CSV plus its JSON sidecar and validate
    all record invariants."""
    csv_path = Path(pcm_file)
    data, _ = _read_trajectories(csv_path)
    return _seed(data, _read_sidecar(csv_path))


def save_seed(seed: SeedCrash, csv_path: str | Path) -> None:
    """Write a seed as the CSV + JSON sidecar pair read by load_seed."""
    csv_path = Path(csv_path)
    lead, foll = seed.lead, seed.follower
    table.write_csv(csv_path, SEED_CSV_HEADER, [table.reprs(x) for x in (
        lead.t, lead.pos, lead.speed, lead.acc, foll.pos, foll.speed, foll.acc)])
    meta = {
        "id": seed.id,
        "lead": {"mass": seed.lead_meta.mass, "width": seed.lead_meta.width,
                 "length": seed.lead_meta.length},
        "follower": {"mass": seed.follower_meta.mass,
                     "width": seed.follower_meta.width,
                     "length": seed.follower_meta.length},
    }
    if seed.seed_delta_v_kmh is not None:
        meta["seed_delta_v_kmh"] = seed.seed_delta_v_kmh
    write_json(csv_path.with_suffix(".json"), meta)


def load_seed_refs(directory: str | Path) -> list[SeedRef]:
    """Every seed CSV in a directory as its sidecar lists it, ordered by
    id. Only the JSON sidecars are read, each once; two sidecars with one
    id raise ParseError naming both."""
    refs = [_read_sidecar(csv_path) for csv_path in sorted(
        Path(directory).glob("*.csv"), key=lambda path: path.name)]
    refs.sort(key=lambda r: r.id)
    for a, b in zip(refs, refs[1:]):
        if a.id == b.id:
            raise ParseError(f"seed id {a.id!r} in both {a.path.with_suffix('.json')} "
                             f"and {b.path.with_suffix('.json')}")
    return refs


# --------------------------------------------------------------- synthesis

@dataclass
class SynthesisConfig:
    """Parameter ranges for synthetic seed generation. All ranges are
    (low, high) and sampled uniformly."""

    n_seeds: int = 103
    follower_speed: tuple[float, float] = (10.0, 30.0)   # m/s
    lead_speed: tuple[float, float] = (5.0, 25.0)        # m/s, non-braking leads
    lead_follow_ratio: tuple[float, float] = (0.85, 1.05)  # braking leads start
                                                           # near the follower speed
    headway_time: tuple[float, float] = (0.5, 2.0)       # s
    lead_brake_onset: tuple[float, float] = (2.0, 4.5)   # s
    lead_decel: tuple[float, float] = (2.0, 8.0)         # m/s^2 magnitude
    follower_reaction: tuple[float, float] = (0.8, 2.5)  # s after lead onset
    follower_decel: tuple[float, float] = (1.0, 6.0)     # m/s^2 magnitude
    follower_no_response_prob: float = 0.15
    mass: tuple[float, float] = (900.0, 2500.0)          # kg
    width: tuple[float, float] = (1.6, 2.1)              # m
    length: tuple[float, float] = (3.8, 5.2)             # m
    # relative weights of lead behavior classes; integer weights summing to
    # n_seeds are honored as exact counts
    lead_mix: dict[str, float] = field(default_factory=lambda: {
        "braking": 0.66, "non_braking": 0.14, "standstill": 0.20})
    max_attempts: int = 500
    max_sim_time: float = 60.0                           # s

    def __post_init__(self):
        check_fields(self)
        mix = self.lead_mix
        for key, ok, rule in (
                *((key, v[0] <= v[1], "a pair with low <= high")
                  for key, v in vars(self).items() if type(v) is tuple),
                ("n_seeds", self.n_seeds >= 1, ">= 1"),
                ("max_attempts", self.max_attempts >= 1, ">= 1"),
                ("follower_no_response_prob",
                 0 <= self.follower_no_response_prob <= 1, "in [0, 1]"),
                ("max_sim_time", self.max_sim_time > 0, "> 0"),
                ("lead_mix", mix.keys() <= _LEAD_CLASS.keys() and sum(mix.values()) > 0
                 and all(w >= 0 for w in mix.values()),
                 f"weights >= 0, not all zero, keyed by {', '.join(_LEAD_CLASS)}")):
            if not ok:
                raise ValidationError(f"{key} must be {rule}, got {getattr(self, key)!r}")

    @classmethod
    def from_json(cls, path: str | Path) -> "SynthesisConfig":
        """The config in `path` (see manifest.read_config)."""
        return read_config(cls, path, "synthesis config")


# lead_mix mode: the lead behavior class a seed of that mode must have
_LEAD_CLASS = {"braking": LEAD_BRAKING, "non_braking": LEAD_NON_BRAKING,
               "standstill": LEAD_STANDSTILL}


def _mode_counts(mix: dict[str, float], n: int) -> dict[str, int]:
    """Largest-remainder apportionment of n seeds over the behavior mix; integer
    weights w summing to n stay exact, as each w / n * n is within 2**-51 * n of w."""
    modes = sorted(mix)
    weights = np.array([float(mix[m]) for m in modes])
    exact = weights / weights.sum() * n
    counts = np.floor(exact).astype(int)
    remainder = exact - counts
    for i in np.argsort(-remainder)[: n - counts.sum()]:
        counts[i] += 1
    return dict(zip(modes, counts.tolist()))


def _trapezoid_positions(x0: float, speed: np.ndarray, dt: float) -> np.ndarray:
    """Positions consistent with the sampled speeds (exact for piecewise
    linear speed profiles, like a reconstruction would provide)."""
    steps = 0.5 * (speed[1:] + speed[:-1]) * dt
    return x0 + np.concatenate([[0.0], np.cumsum(steps)])


def _simulate_raw(mode: str, params: dict, dt: float, max_time: float):
    """Forward-simulate one candidate scenario. Returns sampled arrays up to
    and including the first collision sample k, then k and the follower and
    lead speeds at first overlap; None if nothing collides."""
    n = int(round(max_time / dt)) + 1
    t = dt * np.arange(n)

    if mode == "standstill":
        lead_speed = np.zeros(n)
    elif mode == "non_braking":
        lead_speed = np.full(n, params["lead_v0"])
    else:  # braking
        ramp = params["lead_v0"] - params["lead_decel"] * np.maximum(
            t - params["lead_onset"], 0.0)
        lead_speed = np.maximum(ramp, 0.0)
    lead_acc = np.concatenate([[0.0], np.diff(lead_speed) / dt])
    lead_pos = _trapezoid_positions(params["gap0"], lead_speed, dt)

    if params["foll_onset"] is None:
        foll_speed = np.full(n, params["foll_v0"])
    else:
        ramp = params["foll_v0"] - params["foll_decel"] * np.maximum(
            t - params["foll_onset"], 0.0)
        foll_speed = np.maximum(ramp, 0.0)
    foll_acc = np.concatenate([[0.0], np.diff(foll_speed) / dt])
    foll_pos = _trapezoid_positions(0.0, foll_speed, dt)

    gap = lead_pos - foll_pos
    hit = np.nonzero(gap <= 0)[0]
    if hit.size == 0:
        return None
    k = int(hit[0])
    if k < 1 or foll_speed[k] <= lead_speed[k]:
        return None  # degenerate or grazing start
    v1, v2 = overlap_speeds(gap[k - 1], gap[k], foll_speed[k - 1], foll_speed[k],
                            lead_speed[k - 1], lead_speed[k])
    if v1 < v2:
        return None  # the lead is the faster at first overlap
    return (t[: k + 1], lead_pos, lead_speed, lead_acc, foll_pos, foll_speed,
            foll_acc, k, v1, v2)


def synthesize_seeds(config: SynthesisConfig, rng_seed: int) -> Iterator[SeedCrash]:
    """Generate colliding seed scenarios by rejection sampling, one at a
    time, so a caller that writes each seed holds one seed at a time.
    Deterministic for a given (config, rng_seed); a seed that cannot be
    made raises GenerationError when its turn comes."""
    rng = np.random.default_rng(rng_seed)
    counts = _mode_counts(config.lead_mix, config.n_seeds)
    modes: list[str] = []
    for mode in sorted(counts):
        modes.extend([mode] * counts[mode])
    modes = [modes[i] for i in rng.permutation(len(modes))]

    dt = DT_NOMINAL
    window = int(round(5.0 / dt))  # keep at most the last 5 s before impact
    for index, mode in enumerate(modes):
        seed = None
        for _ in range(config.max_attempts):
            u = lambda lo_hi: float(rng.uniform(*lo_hi))
            foll_v0 = u(config.follower_speed)
            if mode == "standstill":
                lead_v0 = 0.0
            elif mode == "non_braking":
                # needs a genuine closing speed for a collision to exist
                lead_v0 = min(u(config.lead_speed), max(foll_v0 - 2.0, 0.5))
            else:
                # car-following: the lead starts near the follower's speed
                lead_v0 = max(foll_v0 * u(config.lead_follow_ratio), 0.5)
            gap0 = max(u(config.headway_time) * foll_v0, 2.0)
            lead_onset = u(config.lead_brake_onset)
            no_response = rng.random() < config.follower_no_response_prob
            reaction = u(config.follower_reaction)
            if no_response:
                foll_onset = None
            elif mode == "braking":
                foll_onset = lead_onset + reaction
            else:
                foll_onset = reaction
            params = {
                "lead_v0": lead_v0, "gap0": gap0, "lead_onset": lead_onset,
                "lead_decel": u(config.lead_decel),
                "foll_v0": foll_v0, "foll_onset": foll_onset,
                "foll_decel": u(config.follower_decel),
            }
            raw = _simulate_raw(mode, params, dt, config.max_sim_time)
            if raw is None:
                continue
            t, lead_pos, lead_speed, lead_acc, foll_pos, foll_speed, foll_acc, k, v1, v2 = raw
            lo = max(0, k - window)
            sl = slice(lo, k + 1)
            tt = t[sl] - t[lo]
            # copies, so the seed does not keep the whole simulated run alive
            lead_tr = Trajectory(tt, lead_pos[sl].copy(), lead_speed[sl].copy(),
                                 lead_acc[sl].copy())
            foll_tr = Trajectory(tt, foll_pos[sl].copy(), foll_speed[sl].copy(),
                                 foll_acc[sl].copy())
            got_class, _ = classify_lead_behavior(lead_tr)
            if got_class != _LEAD_CLASS[mode]:
                continue
            sid = f"s{index:04d}"
            foll_meta = VehicleMeta(u(config.mass), u(config.width),
                                    u(config.length), f"{sid}/follower")
            lead_meta = VehicleMeta(u(config.mass), u(config.width),
                                    u(config.length), f"{sid}/lead")
            seed = SeedCrash(
                id=sid,
                lead=lead_tr,
                follower=foll_tr,
                lead_meta=lead_meta,
                follower_meta=foll_meta,
                # reference delta-v the way the source database would report
                # it: momentum exchange at the impact relative speed
                seed_delta_v_kmh=float(delta_v(v1, v2, foll_meta.mass,
                                               lead_meta.mass)),
            )
            seed.validate()
            break
        if seed is None:
            raise GenerationError(
                f"could not synthesize a colliding '{mode}' seed within "
                f"{config.max_attempts} attempts; widen the config ranges"
            )
        yield seed
