import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rearsim.distributions import (
    DecelDistribution,
    GlanceDistribution,
    cut_glances,
    load_decels,
    load_glances,
    overshoot_transform,
)
from rearsim.drivers import cbm_axes
from rearsim.errors import ParseError, ValidationError

from fixtures import (
    bin_decels,
    bin_glances,
    glance_durations,
    save_decels,
    save_glances,
)


def overshoot_by_enumeration(g: GlanceDistribution) -> dict[int, float]:
    """Independent oracle: enumerate every (glance bin, offset) pair with
    uniform offset probability given the glance."""
    out: dict[int, float] = {}
    for d, p in zip(g.durations, g.probs):
        k = int(round(d / 0.1))
        for j in range(1, k + 1):
            out[j] = out.get(j, 0.0) + p / k
    return out


def enumeration_cells(g: GlanceDistribution) -> int:
    return sum(int(round(d / 0.1)) for d in g.durations)


def random_glance_dist(rng) -> GlanceDistribution:
    n = int(rng.integers(1, 30))
    bins = rng.choice(np.arange(1, 70), size=n, replace=False)
    raw = rng.random(n) + 1e-3
    on_road = float(rng.uniform(0.0, 0.95))
    probs = raw / raw.sum() * (1.0 - on_road)
    return GlanceDistribution(on_road, np.sort(bins) * 0.1,
                              probs[np.argsort(bins)])


class TestBinGlances:
    def test_counting_example(self):
        g = bin_glances([0.1, 0.1, 0.3], 0.8)
        assert g.on_road_mass == 0.8
        assert list(g.durations) == [pytest.approx(0.1), pytest.approx(0.3)]
        assert g.probs[0] == pytest.approx(0.2 * 2 / 3)
        assert g.probs[1] == pytest.approx(0.2 / 3)

    def test_empty_durations_rejected(self):
        with pytest.raises(ValidationError):
            bin_glances([], 0.8)

    def test_naturalistic_scale_fixture(self):
        g = bin_glances(glance_durations(), 0.8)
        assert g.n_bins == 67
        assert g.max_duration == pytest.approx(6.7)
        assert abs(g.on_road_mass + g.probs.sum() - 1.0) <= 1e-12

    def test_bin_alignment_right_closed(self):
        # bin j covers ((j-1)*0.1, j*0.1]: 0.25 lands in the 0.3 bin,
        # an exact 0.2 stays in the 0.2 bin
        g = bin_glances([0.25, 0.2], 0.0)
        assert list(g.durations) == [pytest.approx(0.2), pytest.approx(0.3)]

    def test_negative_duration_rejected(self):
        with pytest.raises(ValidationError):
            bin_glances([-0.1], 0.5)


class TestOvershootTransform:
    def test_thirds_example(self):
        g = GlanceDistribution(0.0, np.array([0.3]), np.array([1.0]))
        overshoots, probs = overshoot_transform(g)
        assert np.allclose(overshoots, [0.1, 0.2, 0.3])
        assert np.allclose(probs, [1 / 3, 1 / 3, 1 / 3])

    def test_single_bin_glance(self):
        g = GlanceDistribution(0.0, np.array([0.1]), np.array([1.0]))
        overshoots, probs = overshoot_transform(g)
        assert list(overshoots) == [pytest.approx(0.1)]
        assert probs[0] == pytest.approx(1.0)

    def test_two_glance_example(self):
        g = GlanceDistribution(0.0, np.array([0.2, 0.4]), np.array([0.5, 0.5]))
        _, probs = overshoot_transform(g)
        assert np.allclose(probs, [0.375, 0.375, 0.125, 0.125], atol=1e-15)

    def test_carries_on_road_mass(self):
        """cbm_axes carries the on-road mass as overshoot zero."""
        g = bin_glances([0.3, 0.5], 0.8)
        axis1, probs = cbm_axes(g)
        assert axis1[0] == 0.0 and probs[0] == 0.8
        assert probs[1:].sum() == pytest.approx(0.2, abs=1e-12)

    def test_matches_enumeration_on_random_distributions(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            g = random_glance_dist(rng)
            oracle = overshoot_by_enumeration(g)
            got = {int(round(o / 0.1)): p
                   for o, p in zip(*overshoot_transform(g))}
            assert set(got) == set(oracle)
            for j, p in oracle.items():
                assert got[j] == pytest.approx(p, abs=1e-12)

    def test_mass_preserved_and_support_bounded(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            g = random_glance_dist(rng)
            overshoots, probs = overshoot_transform(g)
            total = g.on_road_mass + probs.sum()
            assert abs(total - 1.0) <= 1e-12
            assert overshoots.max() <= g.max_duration + 1e-9

    def test_pointwise_nonincreasing(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            g = random_glance_dist(rng)
            overshoots, probs = overshoot_transform(g)
            k_max = int(round(overshoots.max() / 0.1))
            dense = np.zeros(k_max + 1)
            for o, p in zip(overshoots, probs):
                dense[int(round(o / 0.1))] = p
            assert np.all(np.diff(dense[1:]) <= 1e-15)

    def test_enumeration_uses_many_more_cells(self):
        g = bin_glances(glance_durations(), 0.8)
        n_transform = len(overshoot_transform(g)[0])
        assert enumeration_cells(g) >= 10 * n_transform


class TestCutGlances:
    def test_cut_beyond_max_is_identity(self):
        g = bin_glances([0.3, 0.5, 1.2], 0.8)
        cut = cut_glances(g, 5.0)
        assert np.array_equal(cut.durations, g.durations)
        assert np.allclose(cut.probs, g.probs)

    def test_cut_at_two_seconds(self):
        g = bin_glances(glance_durations(), 0.8)
        cut = cut_glances(g, 2.0)
        assert cut.max_duration == pytest.approx(2.0)
        assert cut.on_road_mass == g.on_road_mass
        assert cut.probs.sum() == pytest.approx(g.off_road_mass, abs=1e-12)

    def test_cut_composition(self):
        g = bin_glances(glance_durations(), 0.8)
        once = cut_glances(g, 2.0)
        twice = cut_glances(cut_glances(g, 3.0), 2.0)
        assert np.array_equal(once.durations, twice.durations)
        assert np.allclose(once.probs, twice.probs, atol=1e-12)

    def test_cut_removing_everything_rejected(self):
        g = bin_glances([1.0, 2.0], 0.5)
        with pytest.raises(ValidationError):
            cut_glances(g, 0.5)


class TestBinDecels:
    def test_six_bins_at_published_scale(self, decels):
        assert decels.n_bins == 6
        assert np.allclose(np.diff(decels.d_values), 1.5, rtol=0, atol=1e-12)
        assert abs(decels.probs.sum() - 1.0) <= 1e-12

    def test_all_equal_values(self):
        d = bin_decels([5.0] * 10, 1.5)
        assert d.n_bins == 1
        assert d.probs[0] == 1.0
        assert d.d_values[0] == pytest.approx(5.75)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            bin_decels([2.0, -1.0], 1.5)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_values_rejected_naming_the_column(bad):
    with pytest.raises(ValidationError, match="d_max_ms2"):
        DecelDistribution([2.0, bad], [0.5, 0.5])
    with pytest.raises(ValidationError, match="deceleration probability"):
        DecelDistribution([2.0, 3.5], [1.0, bad])
    with pytest.raises(ValidationError, match="duration_s"):
        GlanceDistribution(0.8, [0.1, bad], [0.1, 0.1])
    with pytest.raises(ValidationError, match="glance probability"):
        GlanceDistribution(0.8, [0.1, 0.2], [0.2, bad])


def test_negative_decel_probability_rejected():
    # sums to 1, so only the sign check can catch it
    with pytest.raises(ValidationError, match=">= 0"):
        DecelDistribution([2.0, 3.5, 5.0], [0.6, 0.6, -0.2])


@pytest.mark.parametrize("probs", [[0.1, 0.05], [0.1, 0.2]])
def test_glance_masses_must_sum_to_one(probs):
    """The overshoot masses and cbm_axes's marginal sum to 1 because the
    glance distribution does; nothing downstream checks it again."""
    with pytest.raises(ValidationError, match="glance masses must sum to 1"):
        GlanceDistribution(0.8, [0.1, 0.2], probs)


class TestFileRoundTrips:
    def test_glance_csv(self, tmp_path, glances):
        path = tmp_path / "g.csv"
        save_glances(glances, path)
        loaded = load_glances(path)
        assert loaded.on_road_mass == glances.on_road_mass
        assert np.array_equal(loaded.durations, glances.durations)
        assert np.array_equal(loaded.probs, glances.probs)

    def test_glance_csv_with_a_trailing_blank_line(self, tmp_path, glances):
        path = tmp_path / "g.csv"
        save_glances(glances, path)
        path.write_bytes(path.read_bytes() + b"\r\n")
        loaded = load_glances(path)
        assert loaded.on_road_mass == glances.on_road_mass
        assert loaded.probs.tobytes() == glances.probs.tobytes()

    @pytest.mark.parametrize("old,new,where", [
        ("0.2,0.05", "0.2", r"4: expected 2 fields, got 1"),
        ("0.15", "x", r"3: probability: not a number"),
        ("duration_s", "seconds", r"2: expected header"),
        ("0.1,0.15\r\n0.2,0.05\r\n", "", r"2: no off-road bins"),
        ("on_road_mass,0.8", "on_road_mass,x", r"1: expected on_road_mass"),
        ("on_road_mass,0.8", "on_road,0.8", r"1: expected on_road_mass"),
        ("on_road_mass,0.8", "on_road_mass,0.8,1", r"1: expected on_road_mass"),
    ])
    def test_malformed_glance_csv_names_the_line(self, tmp_path, old, new, where):
        path = tmp_path / "g.csv"
        text = "on_road_mass,0.8\r\nduration_s,probability\r\n0.1,0.15\r\n0.2,0.05\r\n"
        path.write_text(text.replace(old, new), newline="")
        with pytest.raises(ParseError, match=rf"g\.csv:{where}"):
            load_glances(path)

    def test_decel_csv(self, tmp_path, decels):
        path = tmp_path / "d.csv"
        save_decels(decels, path)
        loaded = load_decels(path)
        assert np.array_equal(loaded.d_values, decels.d_values)
        assert np.array_equal(loaded.probs, decels.probs)


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_overshoot_mass_preservation_property(data):
    n = data.draw(st.integers(1, 12))
    bins = data.draw(st.lists(st.integers(1, 40), min_size=n, max_size=n,
                              unique=True))
    raws = data.draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n))
    on_road = data.draw(st.floats(0.0, 0.9))
    raw = np.array(raws)
    probs = raw / raw.sum() * (1.0 - on_road)
    order = np.argsort(bins)
    g = GlanceDistribution(on_road, np.array(sorted(bins)) * 0.1, probs[order])
    overshoots, probs = overshoot_transform(g)
    assert abs(g.on_road_mass + probs.sum() - 1.0) <= 1e-12
    assert overshoots.max() <= g.max_duration + 1e-9
