import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rearsim import bias
from rearsim.bias import (
    DEFAULT_N_FILL_BINS,
    OccupantRecord,
    PdoModel,
    TransferFunction,
    apply_transfer,
    augment_reference,
    build_pdo,
    fit_transfer,
    load_occupants,
    load_transfer,
)
from rearsim.errors import ParseError, ValidationError
from rearsim.manifest import write_json
from rearsim.outcome import (
    DeltaVDistribution,
    align_bins,
    build_histogram,
    load_histogram,
)
from rearsim.validation import compare

from fixtures import save_occupants, traced_peak

TARGET_B1 = 0.137
TARGET_B2 = 0.27
BIN_W = 2.0


def exponential_fixture(rng_seed=55, n_total=40_000, support=40.0):
    """Occupant records whose full-PDO histogram follows the exponential
    density TARGET_B1 * exp(-TARGET_B2 * dv) in the fit's units (density
    over the complete set). The PDO share implied by that target is the
    integral of the density over the support."""
    rng = np.random.default_rng(rng_seed)
    share = TARGET_B1 / TARGET_B2 * (1 - math.exp(-TARGET_B2 * support))
    n_pdo = int(round(share * n_total))
    u = rng.random(n_pdo)
    pdo_dv = -np.log(1 - u * (1 - math.exp(-TARGET_B2 * support))) / TARGET_B2
    inj_dv = rng.gamma(6.0, 3.0, n_total - n_pdo) + 5.0
    records = [OccupantRecord(float(d), 0) for d in pdo_dv]
    records += [OccupantRecord(float(min(d, 79.0)), int(rng.integers(1, 4)))
                for d in inj_dv]
    return records, n_pdo / n_total


def folksam_like_records(rng_seed=55, n=912):
    """Threshold-censored insurance-style records: 43% uninjured with the
    low delta-v part missing, the rest injured."""
    rng = np.random.default_rng(rng_seed)
    n_pdo = int(0.43 * n)
    pdo_dv = rng.gamma(4.0, 3.0, n_pdo) + 3.0
    inj_dv = rng.gamma(6.0, 3.0, n - n_pdo) + 5.0
    records = [OccupantRecord(float(min(d, 59.0)), 0) for d in pdo_dv]
    records += [OccupantRecord(float(min(d, 69.0)), int(rng.integers(1, 4)))
                for d in inj_dv]
    return records


def all_severity_histogram(rng_seed=9, n=30_000):
    rng = np.random.default_rng(rng_seed)
    dvs = rng.gamma(1.6, 7.0, n)
    return build_histogram(np.minimum(dvs, 59.9), np.ones(len(dvs)), BIN_W)


def censored(dist: DeltaVDistribution, tf: TransferFunction) -> DeltaVDistribution:
    w = dist.weights * tf(dist.centers)
    out = DeltaVDistribution(dist.bin_width, w / w.sum(), 0.0, dist.count)
    out.mean = out.binned_mean()
    return out


class TestBuildPdo:
    def test_deficit_accounting(self):
        # 43% uninjured, target 70% PDO of the complete set: the PDO total
        # must be injured * 0.7/0.3 and the deficit what is missing
        records = folksam_like_records()
        n_pdo = sum(1 for r in records if r.mais == 0)
        n_inj = len(records) - n_pdo
        _, _, diag = build_pdo(records, p_pdo=0.7, bin_width=BIN_W)
        assert diag["deficit"] == pytest.approx(n_inj * 0.7 / 0.3 - n_pdo)
        assert diag["pdo_present"] == n_pdo

    def test_already_at_target_means_zero_fill(self):
        records, share = exponential_fixture()
        _, _, diag = build_pdo(records, p_pdo=share, bin_width=BIN_W)
        assert diag["deficit"] == pytest.approx(0.0, abs=1e-6)
        assert sum(diag["allocation"]) == pytest.approx(0.0, abs=1e-9)

    def test_no_deficit_runs_no_allocation_round(self):
        """Equal PDO and injured counts at p_pdo 0.5 leave nothing to add,
        so no allocation round runs."""
        records = folksam_like_records(n=400)
        n_injured = sum(1 for r in records if r.mais > 0)
        pdo = [r for r in records if r.mais == 0]
        records = [r for r in records if r.mais > 0] + (pdo * n_injured)[:n_injured]
        _, _, diag = build_pdo(records, p_pdo=0.5, bin_width=BIN_W)
        assert diag["deficit"] == 0.0
        assert diag["iterations"] == 0
        assert diag["allocation"] == [0.0] * DEFAULT_N_FILL_BINS

    def test_exceeding_target_is_error(self):
        records, share = exponential_fixture()
        with pytest.raises(ValidationError, match="exceeds"):
            build_pdo(records, p_pdo=share / 2, bin_width=BIN_W)

    def test_parameter_recovery_from_exponential_form(self):
        records, share = exponential_fixture()
        model, _, _ = build_pdo(records, p_pdo=share, bin_width=BIN_W)
        assert model.B1 == pytest.approx(TARGET_B1, rel=0.05)
        assert model.B2 == pytest.approx(TARGET_B2, rel=0.05)

    def test_fill_restores_censored_low_bins(self):
        records, share = exponential_fixture()
        kept = [r for r in records if r.mais > 0 or r.delta_v >= 6.0]
        model, _, diag = build_pdo(kept, p_pdo=share, n_fill_bins=3,
                                   bin_width=BIN_W)
        assert diag["deficit"] > 0
        assert model.B1 == pytest.approx(TARGET_B1, rel=0.05)
        assert model.B2 == pytest.approx(TARGET_B2, rel=0.05)

    def test_fill_mass_stays_in_fill_bins(self):
        records = folksam_like_records()
        _, _, diag = build_pdo(records, p_pdo=0.7, n_fill_bins=6,
                               bin_width=BIN_W)
        assert len(diag["allocation"]) == 6
        assert sum(diag["allocation"]) == pytest.approx(diag["deficit"], rel=1e-9)
        assert all(a >= 0 for a in diag["allocation"])


class TestAugmentReference:
    def reference(self):
        rng = np.random.default_rng(1)
        return build_histogram(np.minimum(rng.gamma(5.0, 3.6, 103), 69.0),
                               np.ones(103), BIN_W)

    def test_pdo_mass_fraction(self):
        ref = self.reference()
        model = PdoModel(0.137, 0.27)
        out = augment_reference(ref, model, 0.7)
        shape = model.density(ref.centers)
        pdo_part = 0.7 * shape / shape.sum()
        assert out.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert pdo_part.sum() == pytest.approx(0.7, abs=1e-9)
        assert np.all(out.weights >= pdo_part - 1e-12)

    def test_mean_drops_when_pdo_sits_lower(self):
        ref = self.reference()
        out = augment_reference(ref, PdoModel(0.137, 0.27), 0.7)
        assert out.mean < ref.mean


class TestFitTransfer:
    def test_recovery_with_multinomial_noise(self):
        all_sev = all_severity_histogram()
        truth = TransferFunction(-4.15, 0.388)
        target = censored(all_sev, truth)
        rng = np.random.default_rng(9)
        counts = rng.multinomial(1000, target.weights)
        noisy = DeltaVDistribution(BIN_W, counts / counts.sum(), 0.0, 1000)
        noisy.mean = noisy.binned_mean()

        tf, diag = fit_transfer(all_sev, noisy)

        # the grid optimum cannot be worse than the generator's parameters
        p = truth(all_sev.centers)
        t = all_sev.weights * p
        scale = noisy.weights.sum() / t.sum()
        cost_truth = float(np.abs(noisy.weights - scale * t).sum())
        assert diag["cost"] <= cost_truth + 1e-15

        # some point within 3 grid steps reproduces the clean target
        best_tv = min(
            compare(apply_transfer(
                all_sev, TransferFunction(round(tf.C1 + 0.05 * i, 10),
                                          round(tf.C2 + 0.001 * j, 10))),
                target).tv_distance
            for i in range(-3, 4) for j in range(-3, 4))
        assert best_tv <= 0.02

    def test_degenerate_inputs_saturate(self):
        # identical inputs need no censoring: the optimum pushes P toward
        # 1 over the whole support (grid corner), and the degenerate case
        # is reported rather than hidden
        all_sev = all_severity_histogram(n=5000)
        tf, diag = fit_transfer(all_sev, all_sev)
        assert diag["saturated"]
        assert tf.C1 == pytest.approx(-0.1)
        support = all_sev.centers[all_sev.weights > 0]
        assert np.all(tf(support) > 0.99)
        out = apply_transfer(all_sev, tf)
        assert compare(out, all_sev).tv_distance < 0.01

    def test_logistic_midpoint(self):
        tf = TransferFunction(-4.15, 0.388)
        assert tf.midpoint == pytest.approx(10.7, abs=0.05)
        assert tf(tf.midpoint) == pytest.approx(0.5, abs=1e-12)

    def test_deterministic(self):
        all_sev = all_severity_histogram(n=3000)
        target = censored(all_sev, TransferFunction(-3.0, 0.3))
        tf1, d1 = fit_transfer(all_sev, target)
        tf2, d2 = fit_transfer(all_sev, target)
        assert (tf1.C1, tf1.C2) == (tf2.C1, tf2.C2)
        assert d1["cost"] == d2["cost"]


def reference_fit_transfer(with_pdo: DeltaVDistribution,
                           original: DeltaVDistribution):
    """The grid search with a new array per step: the oracle for
    fit_transfer, which must give the same bits."""
    wp, orig = align_bins(with_pdo, original)
    centers = with_pdo.bin_width * (np.arange(len(wp)) + 0.5)
    orig_mass = orig.sum()
    best_cost = math.inf
    best = (bias.C1_GRID[0], bias.C2_GRID[0])
    cost_by_c1 = np.empty(len(bias.C1_GRID))
    zx = np.outer(bias.C2_GRID, centers)
    for r, c1 in enumerate(bias.C1_GRID):
        p = 1.0 / (1.0 + np.exp(-(c1 + zx)))
        t = p * wp
        scale = orig_mass / t.sum(axis=1)
        cost = np.abs(orig - scale[:, None] * t).sum(axis=1)
        k = int(np.argmin(cost))
        cost_by_c1[r] = cost[k]
        if cost[k] < best_cost:
            best_cost = float(cost[k])
            best = (float(c1), float(bias.C2_GRID[k]))
    saturated = (best[0] == float(bias.C1_GRID[-1])
                 or best[1] in (float(bias.C2_GRID[0]), float(bias.C2_GRID[-1])))
    return TransferFunction(*best), {"cost": best_cost, "saturated": saturated,
                                     "cost_by_c1": cost_by_c1.tolist()}


def fit_bits(fit):
    tf, diag = fit
    return (tf.C1.hex(), tf.C2.hex(), diag["cost"].hex(), diag["saturated"],
            [c.hex() for c in diag["cost_by_c1"]])


def histogram(weights) -> DeltaVDistribution:
    w = np.asarray(weights, dtype=float)
    return DeltaVDistribution(BIN_W, w / w.sum(), 0.0, 1)


# 1-140 bin masses, empty bins among them, at least one positive
MASSES = st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1.0)),
                  min_size=1, max_size=140).filter(any)


# C1 rows are independent of each other, so every tenth row and the last
# one (where saturation is detected) run the same arithmetic as the whole
# grid at a tenth of the cost
C1_ROWS = np.concatenate([bias.C1_GRID[::10], bias.C1_GRID[-1:]])


def c2_grid(n: int):
    """fit_transfer and its reference search the first `n` C2 values."""
    return mock.patch.object(bias, "C2_GRID", bias.C2_GRID[:n])


# C2 grids of 1, 2 and 3 points hold no block or one without a split;
# 2,049 points end one point past a first-level block; the whole grid last
C2_LENGTHS = [1, 2, 3, 2049, len(bias.C2_GRID)]


def row_costs(with_pdo: DeltaVDistribution, original: DeltaVDistribution,
              c1: float) -> np.ndarray:
    """Every C2 value's cost in the row of `c1`, as the reference computes it."""
    wp, orig = align_bins(with_pdo, original)
    centers = with_pdo.bin_width * (np.arange(len(wp)) + 0.5)
    p = 1.0 / (1.0 + np.exp(-(c1 + np.outer(bias.C2_GRID, centers))))
    t = p * wp
    return np.abs(orig - (orig.sum() / t.sum(axis=1))[:, None] * t).sum(axis=1)


class TestFitTransferBits:
    # 1-140 bins cross NumPy's 8- and 128-element pairwise-sum blocks
    @pytest.mark.parametrize("n_c2", C2_LENGTHS)
    @given(MASSES, MASSES, st.booleans())
    @example([1.0], [0.0, 1.0], False)
    @example([0.5] * 8, [0.25] * 9, False)
    @example([1.0] + [0.0] * 127, [0.0, 1.0] * 64 + [1.0], False)
    @example([float(k % 7) + 1.0 for k in range(140)], [1.0], True)
    @settings(max_examples=20, deadline=None)
    def test_equals_the_reference_bitwise(self, n_c2, with_pdo, original,
                                          identical):
        with_pdo = histogram(with_pdo)
        original = with_pdo if identical else histogram(original)
        with mock.patch.object(bias, "C1_GRID", C1_ROWS), c2_grid(n_c2):
            assert fit_bits(fit_transfer(with_pdo, original)) == fit_bits(
                reference_fit_transfer(with_pdo, original))

    @pytest.fixture(scope="class")
    def fit_bias_inputs(self):
        """fit-bias's pair: the PDO-augmented injury histogram against the
        injury histogram."""
        records = folksam_like_records()
        injury = histogram(np.random.default_rng(4).gamma(5.0, 1.8, 36))
        model, _, _ = build_pdo(records, bin_width=BIN_W)
        return augment_reference(injury, model), injury

    @pytest.mark.parametrize("n_c2", C2_LENGTHS)
    def test_equals_the_reference_on_the_whole_grid(self, n_c2, fit_bias_inputs):
        with c2_grid(n_c2):
            assert fit_bits(fit_transfer(*fit_bias_inputs)) == fit_bits(
                reference_fit_transfer(*fit_bias_inputs))

    def test_equal_costs_resolve_to_the_first_c2(self):
        """Mass only from 40 km/h up: once c2 makes every p round to 1.0,
        each further C2 value gives the same bits, and the lowest index of
        the row's least cost must win, as np.argmin's does."""
        h = histogram([0.0] * 20 + [3.0, 1.0, 2.0])
        tf, diag = fit_transfer(h, h)
        assert fit_bits((tf, diag)) == fit_bits(reference_fit_transfer(h, h))
        for r in (0, len(bias.C1_GRID) - 1):
            costs = row_costs(h, h, bias.C1_GRID[r])
            first = int(np.argmin(costs))
            assert np.count_nonzero(costs == costs[first]) > 100
            assert diag["cost_by_c1"][r] == costs[first]
        k = int(np.flatnonzero(bias.C2_GRID == tf.C2)[0])
        row = row_costs(h, h, tf.C1)
        assert k == int(np.argmin(row)) and row[k + 1] == row[k]

    def test_evaluates_a_few_percent_of_the_grid(self, fit_bias_inputs):
        """The bounded search on fit-bias's pair evaluates under a tenth of
        the grid's points, and the same number on every run."""
        grid = len(bias.C1_GRID) * len(bias.C2_GRID)
        counts = {fit_transfer(*fit_bias_inputs)[1]["points_evaluated"]
                  for _ in range(2)}
        assert len(counts) == 1 and counts.pop() < grid / 10

    def test_a_flat_row_evaluates_each_point_once(self):
        """One bin of with_pdo keeps every y at M whatever c2, so no block
        can be dropped: every grid point is evaluated, and none twice."""
        with_pdo = histogram([1.0])
        original = histogram(np.random.default_rng(11).random(46))
        with mock.patch.object(bias, "C1_GRID", C1_ROWS):
            fit = fit_transfer(with_pdo, original)
            assert fit_bits(fit) == fit_bits(
                reference_fit_transfer(with_pdo, original))
        assert fit[1]["points_evaluated"] == len(C1_ROWS) * len(bias.C2_GRID)

    @pytest.mark.parametrize("sizes", [(36, 36), (2, 46), (140, 140), None],
                             ids=["36 bins", "2 vs 46 bins", "140 bins", "identical"])
    def test_peak_memory_is_about_one_grid(self, sizes):
        """No grid of C2 * dv and no array per step: a search that keeps
        nearly every block, as on 2 vs 46 bins, stays in bounded chunks too."""
        rng = np.random.default_rng(6)
        if sizes is None:
            with_pdo = original = all_severity_histogram(n=5000)
        else:
            with_pdo, original = (histogram(rng.random(n)) for n in sizes)
        bins = len(align_bins(with_pdo, original)[0])
        grid_bytes = len(bias.C2_GRID) * bins * 8
        _, peak = traced_peak(fit_transfer, with_pdo, original)
        assert peak <= 1.5 * grid_bytes, peak / grid_bytes


class TestApplyTransfer:
    def test_flat_transfer_cancels_under_renormalization(self):
        h = build_histogram([4.0, 8.0], [0.5, 0.5], BIN_W)
        tf = TransferFunction(-1.0, 0.001)  # nearly constant over 4-8 km/h
        out = apply_transfer(h, tf)
        assert np.allclose(out.weights, h.weights, atol=1e-3)

    def test_low_delta_v_suppression_factor(self):
        # before renormalization, mass at dv=0 is scaled by sigmoid(C1)
        tf = TransferFunction(-4.15, 0.388)
        assert tf(0.0) == pytest.approx(0.0155, abs=1e-4)

    def test_mean_increases_for_positive_slope(self):
        h = all_severity_histogram(n=5000)
        out = apply_transfer(h, TransferFunction(-4.15, 0.388))
        assert out.mean > h.binned_mean()

    def test_stochastic_dominance(self):
        h = all_severity_histogram(n=5000)
        out = apply_transfer(h, TransferFunction(-4.15, 0.388))
        cdf_in = np.cumsum(h.weights)
        cdf_out = np.cumsum(out.weights)
        assert np.all(cdf_out <= cdf_in + 1e-12)

    def test_histogram_of_counts_is_rejected_at_load(self, tmp_path):
        """Every histogram sums to 1, so one of counts never reaches the
        transfer: loading it raises ParseError naming the file. Nor does one
        without mass, which fit_transfer and binned_mean take unchecked:
        construction refuses a total of 0, and align_bins only pads the
        weights with zeros."""
        path = tmp_path / "counts.csv"
        path.write_text("bin_low_kmh,bin_high_kmh,weight\n0.0,2.0,3.0\n2.0,4.0,5.0\n")
        with pytest.raises(ParseError, match=r"counts\.csv: histogram weights sum to 8\.0"):
            load_histogram(path)
        for weights, total in (([1.0, 1.0], "2.0"), ([0.0, 0.0], "0.0")):
            with pytest.raises(ValidationError, match=f"sum to {total}, not 1"):
                DeltaVDistribution(BIN_W, weights, 0.0, 2)
        h = DeltaVDistribution(BIN_W, [0.25, 0.75], 0.0, 4)
        padded, _ = align_bins(h, DeltaVDistribution(BIN_W, [0.0, 0.0, 1.0], 0.0, 1))
        assert padded.tolist() == [0.25, 0.75, 0.0]


@pytest.mark.parametrize("delta_v", [math.nan, math.inf, -1.0])
def test_occupant_delta_v_must_be_finite_and_non_negative(delta_v):
    with pytest.raises(ValidationError, match="delta_v_kmh"):
        OccupantRecord(delta_v, 0)


class TestFileIO:
    def test_occupants_round_trip(self, tmp_path):
        records = folksam_like_records(n=40)
        path = tmp_path / "occ.csv"
        save_occupants(records, path)
        back = load_occupants(path)
        assert back == records

    def test_model_json_round_trip(self, tmp_path):
        tf = TransferFunction(-4.15, 0.388)
        write_json(tmp_path / "tf.json", {**vars(tf), "cost": 0.5})
        assert load_transfer(tmp_path / "tf.json") == tf
