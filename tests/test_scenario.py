import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rearsim.errors import GenerationError, ParseError, ValidationError
from rearsim.scenario import (
    LEAD_BRAKING,
    LEAD_NON_BRAKING,
    LEAD_STANDSTILL,
    SeedCrash,
    SynthesisConfig,
    Trajectory,
    VehicleMeta,
    _mode_counts,
    _simulate_raw,
    load_seed,
    load_seed_refs,
    remove_evasive_maneuver,
    save_seed,
    synthesize_seeds,
)

from fixtures import load_seed_dir

META = VehicleMeta(mass=1500.0, width=1.8, length=4.5)


def make_seed(duration=5.0, v_foll=20.0, v_lead=10.0, seed_id="t1",
              foll_brake_at=None, foll_decel=5.0, collide_at=None):
    """Hand-built seed: constant lead, follower optionally braking, with the
    initial gap chosen so the first overlap happens at `collide_at`
    (defaults to the end of the window)."""
    dt = 0.01
    n = int(round(duration / dt)) + 1
    t = dt * np.arange(n)
    lead_speed = np.full(n, v_lead)
    lead_pos_rel = np.concatenate([[0.0], np.cumsum(lead_speed[1:] * dt)])
    if foll_brake_at is None:
        foll_speed = np.full(n, v_foll)
    else:
        foll_speed = np.maximum(v_foll - foll_decel * np.maximum(t - foll_brake_at, 0.0), 0.0)
    foll_pos = np.concatenate([[0.0], np.cumsum(foll_speed[1:] * dt)])
    k = n - 1 if collide_at is None else int(round(collide_at / dt))
    gap0 = foll_pos[k] - lead_pos_rel[k]
    lead_pos = gap0 + lead_pos_rel
    foll_acc = np.concatenate([[0.0], np.diff(foll_speed) / dt])
    sl = slice(0, k + 1)
    seed = SeedCrash(seed_id,
                     Trajectory(t[sl], lead_pos[sl], lead_speed[sl], np.zeros(k + 1)),
                     Trajectory(t[sl], foll_pos[sl], foll_speed[sl], foll_acc[sl]),
                     META, META, seed_delta_v_kmh=18.0)
    seed.validate()
    return seed


class TestLoadSave:
    def test_five_second_file_has_501_samples(self, tmp_path):
        seed = make_seed(duration=5.0)
        path = tmp_path / "s.csv"
        save_seed(seed, path)
        loaded = load_seed(path)
        assert len(loaded.lead) == 501

    def test_positive_final_gap_rejected(self, tmp_path):
        seed = make_seed()
        seed.lead.pos += 2.0  # shift the lead away: no collision at the end
        path = tmp_path / "s.csv"
        save_seed(seed, path)
        with pytest.raises(ValidationError, match="does not end in collision"):
            load_seed(path)

    def test_round_trip_identity(self, tmp_path):
        seed = make_seed(foll_brake_at=2.0, collide_at=3.0)
        p1 = tmp_path / "a.csv"
        save_seed(seed, p1)
        first = load_seed(p1)
        p2 = tmp_path / "b.csv"
        save_seed(first, p2)
        second = load_seed(p2)
        assert first.id == second.id
        assert first.seed_delta_v_kmh == second.seed_delta_v_kmh
        for name in ("lead", "follower"):
            a, b = getattr(first, name), getattr(second, name)
            for f in ("t", "pos", "speed", "acc"):
                assert np.array_equal(getattr(a, f), getattr(b, f))

    def test_malformed_csv_is_parse_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,lead_pos\n1,2\n")
        path.with_suffix(".json").write_text("{}")
        with pytest.raises(ParseError):
            load_seed(path)

    def test_negative_gap_before_end_rejected(self, tmp_path):
        seed = make_seed()
        seed.lead.pos[100] = seed.follower.pos[100] - 1.0
        path = tmp_path / "s.csv"
        save_seed(seed, path)
        with pytest.raises(ValidationError, match="negative gap"):
            load_seed(path)


class TestSeedRefs:
    def _write(self, directory, stems_and_ids):
        for stem, sid in stems_and_ids:
            save_seed(make_seed(seed_id=sid), directory / f"{stem}.csv")

    def _record_delta_v(self, sidecar, value: str):
        """Set the sidecar's seed_delta_v_kmh to the JSON text `value`."""
        meta = json.loads(sidecar.read_text())
        meta.pop("seed_delta_v_kmh")
        sidecar.write_text(json.dumps(meta)[:-1] + f', "seed_delta_v_kmh": {value}}}')

    def test_ordered_by_sidecar_id_not_file_name(self, tmp_path):
        self._write(tmp_path, [("1", "b"), ("2", "a"), ("3", "c")])
        refs = load_seed_refs(tmp_path)
        assert [r.id for r in refs] == ["a", "b", "c"]
        assert [r.path.name for r in refs] == ["2.csv", "1.csv", "3.csv"]
        assert [r.seed_delta_v_kmh for r in refs] == [18.0] * 3
        assert [s.id for s in load_seed_dir(tmp_path)] == ["a", "b", "c"]

    def test_duplicate_id_names_both_sidecars(self, tmp_path):
        self._write(tmp_path, [("s0001", "s0001"), ("zz", "s0001")])
        for load in (load_seed_refs, load_seed_dir):
            with pytest.raises(ParseError, match=r"s0001\.json.*zz\.json"):
                load(tmp_path)

    def test_missing_sidecar(self, tmp_path):
        self._write(tmp_path, [("a", "a")])
        (tmp_path / "a.json").unlink()
        with pytest.raises(ParseError, match="sidecar not found"):
            load_seed_refs(tmp_path)

    @pytest.mark.parametrize("value", ['"abc"', "NaN", "Infinity", "-5.0",
                                       "true", "[1.0]"])
    def test_recorded_delta_v_must_be_finite_and_non_negative(self, value,
                                                               tmp_path):
        self._write(tmp_path, [("a", "a")])
        self._record_delta_v(tmp_path / "a.json", value)
        for load in (load_seed_refs, lambda d: load_seed(d / "a.csv")):
            with pytest.raises(ParseError, match=r"a\.json: seed_delta_v_kmh"):
                load(tmp_path)

    @pytest.mark.parametrize("role", ["lead", "follower"])
    @pytest.mark.parametrize("field, value", [
        ("mass", "Infinity"), ("mass", "-Infinity"), ("width", "NaN"),
        ("length", "true"), ("mass", "false"), ("width", '"1.8"'),
        ("mass", "0"), ("length", "-4.5"), ("width", "null")])
    def test_vehicle_fields_must_be_finite_and_positive(self, role, field, value,
                                                        tmp_path):
        self._write(tmp_path, [("a", "a")])
        sidecar = tmp_path / "a.json"
        meta = json.loads(sidecar.read_text())
        meta[role][field] = json.loads(value)
        sidecar.write_text(json.dumps(meta))
        where = rf"a\.json: vehicle 'a/{role}': {field} must be"
        for load in (load_seed_refs, lambda d: load_seed(d / "a.csv")):
            with pytest.raises(ParseError, match=where):
                load(tmp_path)

    @pytest.mark.parametrize("value, want", [("null", None), ("0", 0.0),
                                             ("12", 12.0), ("7.5", 7.5)])
    def test_recorded_delta_v_accepted(self, value, want, tmp_path):
        self._write(tmp_path, [("a", "a")])
        self._record_delta_v(tmp_path / "a.json", value)
        (ref,) = load_seed_refs(tmp_path)
        assert ref.seed_delta_v_kmh == want
        assert type(ref.seed_delta_v_kmh) is type(want)
        assert load_seed(ref.path).seed_delta_v_kmh == want


class TestRemoveEvasiveManeuver:
    def test_constant_speed_taken_before_onset(self):
        seed = make_seed(v_foll=20.0, v_lead=5.0, foll_brake_at=2.0,
                         collide_at=3.0)
        cf = remove_evasive_maneuver(seed)
        assert cf.follower_speed == pytest.approx(20.0)
        assert np.all(cf.follower.speed == cf.follower.speed[0])

    def test_standstill_lead_classified(self):
        seed = make_seed(v_lead=0.0, v_foll=15.0)
        cf = remove_evasive_maneuver(seed)
        assert cf.lead_behavior_class == LEAD_STANDSTILL
        assert cf.lead_brake_onset is None

    def test_non_braking_lead_classified(self):
        seed = make_seed(v_lead=10.0, v_foll=20.0)
        cf = remove_evasive_maneuver(seed)
        assert cf.lead_behavior_class == LEAD_NON_BRAKING

    def test_constant_follower_is_unchanged(self):
        seed = make_seed(v_foll=18.0, v_lead=6.0)
        cf = remove_evasive_maneuver(seed)
        n = len(seed.follower)
        assert np.array_equal(cf.follower.speed[:n], seed.follower.speed)

    def test_idempotent_on_own_output(self):
        seed = make_seed(foll_brake_at=1.5, collide_at=3.0)
        cf1 = remove_evasive_maneuver(seed)
        cf2 = remove_evasive_maneuver(cf1)
        assert len(cf1.lead) == len(cf2.lead)
        assert np.array_equal(cf1.follower.speed, cf2.follower.speed)
        assert np.array_equal(cf1.lead.pos, cf2.lead.pos)
        assert cf1.lead_behavior_class == cf2.lead_behavior_class

    def test_horizon_extension(self):
        seed = make_seed(duration=5.0)
        cf = remove_evasive_maneuver(seed, horizon_extension=30.0)
        assert cf.lead.t[-1] == pytest.approx(35.0)
        assert len(cf.lead) == 3501

    def test_follower_speed_variance_zero(self, small_seeds):
        for seed in small_seeds:
            cf = remove_evasive_maneuver(seed)
            # every sample is bit-identical, so the variance is exactly zero
            assert np.ptp(cf.follower.speed) == 0.0

    def test_stopped_lead_stays_stopped_in_extension(self):
        seed = make_seed(v_lead=0.0, v_foll=15.0)
        cf = remove_evasive_maneuver(seed)
        assert np.all(cf.lead.speed == 0.0)
        assert np.all(cf.lead.pos == cf.lead.pos[0])


class TestSynthesis:
    def test_deterministic(self):
        cfg = SynthesisConfig(n_seeds=5)
        a = list(synthesize_seeds(cfg, 7))
        b = list(synthesize_seeds(cfg, 7))
        for s1, s2 in zip(a, b):
            assert s1.id == s2.id
            assert np.array_equal(s1.lead.pos, s2.lead.pos)
            assert np.array_equal(s1.follower.speed, s2.follower.speed)
            assert s1.lead_meta.mass == s2.lead_meta.mass

    def test_uniform_motion_collision_oracle(self):
        # lead parked 50 m ahead, follower at a constant 15 m/s: the raw
        # simulation collides at t = 50/15 s, i.e. the first sample at or
        # past it on the 10 ms grid
        cfg = SynthesisConfig(
            n_seeds=1, follower_speed=(15.0, 15.0),
            headway_time=(50.0 / 15.0, 50.0 / 15.0),
            follower_no_response_prob=1.0,
            lead_mix={"standstill": 1},
        )
        (seed,) = synthesize_seeds(cfg, 1)
        t_hit = 50.0 / 15.0
        expected_end = math.ceil(t_hit / 0.01 - 1e-9) * 0.01
        # the seed window is the last 5 s, so its duration equals the raw
        # collision sample time
        assert seed.duration == pytest.approx(expected_end, abs=1e-9)
        gap = seed.gap()
        alpha = gap[-2] / (gap[-2] - gap[-1])
        t_cross = seed.lead.t[-2] + alpha * 0.01
        assert t_cross == pytest.approx(t_hit, abs=1e-6)

    def test_n_seeds_103(self, paper_mix_seeds):
        assert len(paper_mix_seeds) == 103

    def test_all_seeds_valid(self, small_seeds):
        for seed in small_seeds:
            seed.validate()

    def test_generation_error_with_diagnostic(self):
        cfg = SynthesisConfig(
            n_seeds=1, follower_speed=(1.0, 1.0), headway_time=(10.0, 10.0),
            follower_no_response_prob=1.0, lead_mix={"standstill": 1},
            max_sim_time=5.0, max_attempts=20)
        with pytest.raises(GenerationError, match="standstill"):
            list(synthesize_seeds(cfg, 3))

    def test_exact_mix_counts(self, paper_mix_seeds):
        from rearsim.scenario import classify_lead_behavior
        classes = [classify_lead_behavior(s.lead)[0] for s in paper_mix_seeds]
        assert classes.count(LEAD_BRAKING) == 68
        assert classes.count(LEAD_NON_BRAKING) == 15
        assert classes.count(LEAD_STANDSTILL) == 20

    @pytest.mark.parametrize("gap0,kept", [(1e-6, False), (1e-3, True)])
    def test_candidate_with_a_faster_lead_at_first_overlap_is_rejected(
            self, gap0, kept):
        """A lead 0.01 m/s faster than the follower brakes at 100 m/s^2
        from the start: the gap closes in the first step, and at first
        overlap the follower is the faster only if the gap took long enough
        to close. Rejecting the other candidate keeps every recorded delta-v
        >= 0, which `delta_v` does not check."""
        params = {"lead_v0": 20.01, "gap0": gap0, "lead_onset": 0.0,
                  "lead_decel": 100.0, "foll_v0": 20.0, "foll_onset": None,
                  "foll_decel": 1.0}
        raw = _simulate_raw("braking", params, 0.01, 1.0)
        assert (raw is not None) == kept
        if kept:
            *_, k, v1, v2 = raw
            assert k == 1 and v1 > v2


@settings(max_examples=200, deadline=None)
@given(counts=st.lists(st.integers(0, 3000), min_size=1, max_size=3).filter(
    lambda c: 1 <= sum(c) <= 6000))
def test_integer_mix_summing_to_n_gives_its_counts(counts):
    """Largest remainder keeps integer weights that sum to n as they are,
    which SynthesisConfig documents as exact counts."""
    mix = dict(zip(("braking", "non_braking", "standstill"), counts))
    assert _mode_counts(mix, sum(counts)) == mix
