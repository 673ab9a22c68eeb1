"""Command-line pipeline: synthesize or load seeds, run simulation
campaigns, weight outcomes, fit and apply the selection-bias transform,
validate, assess glance-cutting interventions, and emit reports.

Every command validates its inputs, writes a manifest with input/output
digests, and is deterministic for identical inputs (worker count
included). Exit codes: 0 success, 2 validation, 3 model-undefined,
4 fit failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import shutil
import sys
from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from . import bias, table
from .errors import FitError, ModelUndefinedError, ParseError, RearsimError, ValidationError
from .manifest import check_json, digest_tree, read_json, write_json, write_manifest
from .outcome import (
    DEFAULT_BIN_WIDTH_KMH,
    CrashSamples,
    DeltaVDistribution,
    build_histogram,
    load_histogram,
    mix_no_response,
    prevalence_weights,
    save_histogram,
    weighted_crash_samples,
)
from .scenario import (
    SynthesisConfig,
    delta_v,
    load_seed_refs,
    save_seed,
    synthesize_seeds,
)

# a stage imports the modules only it runs: fit-bias and apply-bias load
# neither the engine, the driver models nor the validation code
if TYPE_CHECKING:
    from .engine import CampaignResult, SimOutcome
    from .validation import InjuryRiskCurve, PercentileReport

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_MODEL_UNDEFINED = 3
EXIT_FIT_FAILURE = 4

# synth makes and writes this many seeds at a time, so it holds one batch;
# making and writing seed by seed took about 10% longer
SYNTH_BATCH = 16

CURVES_HELP = ("injury-risk curves, each a CSV table (delta_v_kmh,risk) or a JSON "
               "logistic, of distinct levels: its 'level' key, else its file stem")

SEEDS_SUMMARY_HEADER = [
    "seed_id", "eligible", "lead_behavior", "anchor_time_s", "anchor_absent",
    "follower_mass_kg", "lead_mass_kg", "seed_delta_v_kmh",
    "no_resp_crashed", "no_resp_v1", "no_resp_v2", "no_resp_dv_kmh",
    "n_crash_cells", "q_raw", "kernel_calls", "theoretical_cells",
]


def _out_dir(path: str) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_curves(paths: list[str] | None) -> list[tuple[str, InjuryRiskCurve]]:
    """(path, curve) of each --curves file; two of one level raise
    ValidationError naming the level and both files."""
    from .validation import load_injury_curve
    curves: dict[str, tuple[str, InjuryRiskCurve]] = {}
    for path in paths or []:
        curve = load_injury_curve(path)
        if curve.level in curves:
            raise ValidationError(f"--curves repeats level {curve.level!r}: "
                                  f"{curves[curve.level][0]} and {path}")
        curves[curve.level] = path, curve
    return list(curves.values())


def _reference_histogram(path: str, bin_width: float
                         ) -> tuple[DeltaVDistribution, str | dict[str, str]]:
    """Reference delta-v histogram: a histogram CSV, or built from the
    delta-v a seed directory's JSON sidecars record. Also returns what was
    read, for the manifest: the CSV, or the digest of each sidecar parsed,
    by file name."""
    p = Path(path)
    if p.is_dir():
        refs = load_seed_refs(p)
        dvs = [r.seed_delta_v_kmh for r in refs if r.seed_delta_v_kmh is not None]
        if not dvs:
            raise ValidationError(f"{p}: seeds carry no reference delta-v")
        return (build_histogram(dvs, np.ones(len(dvs)), bin_width),
                {r.path.with_suffix(".json").name: r.digest for r in refs})
    return load_histogram(p), path


# ------------------------------------------------------------------- synth

def cmd_synth(args) -> int:
    rng_seed = args.seed
    if rng_seed < 0:  # NumPy's generators take no negative seed
        raise ValidationError(f"--seed must be >= 0, got {rng_seed}")
    out = _out_dir(args.out)
    cfg = SynthesisConfig.from_json(args.config)
    seeds_dir = out / "seeds"
    manifest = out / "manifest.json"
    if seeds_dir.exists() and not (manifest.is_file() and read_json(
            manifest, "manifest").get("command") == "synth"):
        raise ValidationError(f"{seeds_dir} exists, and {out} holds no synth "
                              f"manifest: not replacing it")
    # the seeds go to a fresh sibling directory that replaces seeds/ only
    # once the last seed is written; one left by a killed run is dropped
    partial = out / "seeds.partial"
    shutil.rmtree(partial, ignore_errors=True)
    partial.mkdir()
    seed_ids = []
    try:
        seeds = synthesize_seeds(cfg, rng_seed)
        while batch := list(itertools.islice(seeds, SYNTH_BATCH)):
            for seed in batch:
                save_seed(seed, partial / f"{seed.id}.csv")
                seed_ids.append(seed.id)
            del batch  # written: dropped before the next one is made
        if seeds_dir.exists():
            shutil.rmtree(seeds_dir)
        partial.rename(seeds_dir)
    finally:
        shutil.rmtree(partial, ignore_errors=True)
    outputs = [seeds_dir / f"{sid}{ext}" for sid in seed_ids
               for ext in (".csv", ".json")]
    summary = write_json(out / "summary.json", {
        "n_seeds": len(seed_ids),
        "rng_seed": rng_seed,
        "seed_ids": seed_ids,
    })
    write_manifest(out, "synth", {"config": args.config},
                   outputs + [summary], {"rng_seed": rng_seed})
    print(f"synth: wrote {len(seed_ids)} seeds to {seeds_dir}")
    return EXIT_OK


# ---------------------------------------------------------------- simulate

def _write_seeds_summary(result: CampaignResult, path: Path) -> None:
    rows = result.results
    nr = [r.no_response for r in rows]
    m = [r.matrix for r in rows]
    nr_dv = [delta_v(o.v1, o.v2, r.follower_mass, r.lead_mass) if o.crashed
             else None for o, r in zip(nr, rows)]
    table.write_csv(path, SEEDS_SUMMARY_HEADER, [
        table.texts([r.seed_id for r in rows]),
        table.flags([not r.excluded for r in rows]),
        table.texts([r.lead_behavior for r in rows]),
        table.fmt([r.anchor for r in rows]),
        table.flags([r.anchor_absent for r in rows]),
        table.fmt([r.follower_mass for r in rows]),
        table.fmt([r.lead_mass for r in rows]),
        table.fmt([r.seed_delta_v_kmh for r in rows]),
        table.flags([o.crashed for o in nr]),
        table.fmt([o.v1 for o in nr]), table.fmt([o.v2 for o in nr]),
        table.fmt(nr_dv),
        table.ints(x.n_crash_cells if x is not None else 0 for x in m),
        table.fmt([x.crash_mass if x is not None else None for x in m]),
        table.ints(x.kernel_calls if x is not None else 0 for x in m),
        table.ints(r.theoretical_cells for r in rows),
    ])


class _SeedSummary(NamedTuple):
    """The seeds_summary.csv fields that weighting and validation read."""

    eligible: bool
    follower_mass: float
    lead_mass: float
    seed_delta_v: float | None
    no_response: SimOutcome
    no_resp_dv: float  # NaN unless the no-response run crashed
    kernel_calls: float


def _load_seeds_summary(path: Path) -> dict[str, _SeedSummary]:
    """The rows of simulate's seeds_summary.csv at `path`. A mass that is
    not a finite number > 0, or a no-response crash whose speeds are not
    finite with no_resp_v1 > no_resp_v2 or whose delta-v is not the one
    `delta_v` gives for its speeds and masses, raises ParseError naming
    path:line."""
    from .engine import NO_CRASH, SimOutcome
    chunk = table.read_csv(path, SEEDS_SUMMARY_HEADER)
    recorded = ~chunk.equals("seed_delta_v_kmh", "")
    seed_dv = chunk.floats("seed_delta_v_kmh", where=recorded).tolist()
    nr_crashed = chunk.flags("no_resp_crashed")

    def checked(name: str, rule: str, ok, where=None) -> list[float]:
        values = chunk.floats(name, where=where)
        bad = ~ok(values) if where is None else where & ~ok(values)
        if bad.any():
            k = int(np.argmax(bad))
            raise chunk.error(k, f"{name} must be {rule}, got {float(values[k])!r}")
        return values.tolist()

    m1, m2 = (checked(name, "a finite number > 0",
                      lambda v: (v > 0) & (v < math.inf))
              for name in ("follower_mass_kg", "lead_mass_kg"))
    v1, v2, nr_dv = (checked(name, "a finite number where no_resp_crashed is 1",
                             np.isfinite, nr_crashed)
                     for name in ("no_resp_v1", "no_resp_v2", "no_resp_dv_kmh"))
    for k in np.flatnonzero(nr_crashed).tolist():
        if not v1[k] > v2[k]:
            raise chunk.error(k, f"no_resp_v1 must be > no_resp_v2 where "
                                 f"no_resp_crashed is 1, got {v1[k]!r} and {v2[k]!r}")
        dv = delta_v(v1[k], v2[k], m1[k], m2[k])
        if dv.hex() != nr_dv[k].hex():  # bit for bit, as simulate wrote it
            raise chunk.error(k, f"no_resp_dv_kmh must be {dv!r}, the delta-v of "
                                 f"the row's speeds and masses, got {nr_dv[k]!r}")
    # a no-response crash is at maximum severity: the follower never braked
    nr = [SimOutcome(True, a, b, True) if crashed else NO_CRASH
          for crashed, a, b in zip(nr_crashed.tolist(), v1, v2)]
    columns = (
        chunk.flags("eligible").tolist(), m1, m2,
        [dv if ok else None for dv, ok in zip(seed_dv, recorded.tolist())],
        nr, nr_dv, chunk.floats("kernel_calls").tolist())
    return {sid: _SeedSummary(*row)
            for sid, row in zip(chunk["seed_id"], zip(*columns))}


def _simulate_summary(sim_dir: Path) -> tuple[dict, float]:
    """simulate's summary.json in `sim_dir`, and the no-response fraction
    it records: weight, validate and assess-dms all mix in that share."""
    path = sim_dir / "summary.json"
    sim_summary = read_json(path, "simulate summary",
                            {"no_response_fraction": "number", "n_seeds": "int"})
    fraction = sim_summary["no_response_fraction"]
    if not 0 <= fraction < 1:
        raise ParseError(f"{path}: simulate summary no_response_fraction must "
                         f"be in [0, 1), got {fraction!r}")
    return sim_summary, float(fraction)


def _simulated_matrices(sim_dir: Path, sim_summary: dict):
    """The grid simulate recorded in `sim_dir`'s summary.json, its outcome
    matrices on that grid, and its seeds_summary.csv rows, whose
    no-response outcomes the matrix rows without a record in matrices.npy
    take. seeds_summary.csv must hold summary.json's n_seeds seeds, and the
    records of each swept seed in matrices.npy must hold kernel_calls - 1
    cells (one per integrated cell); otherwise ParseError names the file."""
    from .engine import CampaignGrid, load_matrices
    grid = CampaignGrid.from_json(sim_summary, sim_dir / "summary.json")
    summary_path = sim_dir / "seeds_summary.csv"
    rows = _load_seeds_summary(summary_path)
    if len(rows) != sim_summary["n_seeds"]:
        raise ParseError(f"{summary_path}: {len(rows)} seeds, not the "
                         f"{sim_summary['n_seeds']} summary.json records")
    no_response = {sid: row.no_response for sid, row in rows.items()
                   if row.eligible}
    matrices_path = sim_dir / "matrices.npy"
    matrices = load_matrices(matrices_path, grid, no_response)
    for m in matrices:
        if m.kernel_calls != rows[m.seed_id].kernel_calls:
            raise ParseError(
                f"{matrices_path}: seed {m.seed_id} lists {m.kernel_calls - 1} "
                f"cells, not its kernel_calls - 1 = "
                f"{rows[m.seed_id].kernel_calls - 1:g} from seeds_summary.csv")
    return grid, matrices, rows


def _load_simulated(sim_dir: Path):
    """simulate's outputs in `sim_dir` as weight and validate read them:
    the outcome matrices, the seeds_summary.csv rows and the no-response
    fraction."""
    from .engine import CampaignGrid
    sim_summary, fraction = _simulate_summary(sim_dir)
    grid, matrices, rows = _simulated_matrices(sim_dir, sim_summary)
    # the matrices keep the marginals the old matrices format gave back:
    # the row and column sums of the cell probabilities over their total.
    # With the exact ones, seeds whose crashes all tie with their own
    # delta-v (mid-rank percentile 50 up to rounding) change percentile bin
    # on three input sets of perfbench's reference (ROADMAP, item 1).
    p, total = grid.p_cell, grid.p_cell.sum()
    recovered = CampaignGrid(grid.axis1, p.sum(axis=1) / total, grid.decels,
                             p.sum(axis=0) / total)
    return [replace(m, grid=recovered) for m in matrices], rows, fraction


def cmd_simulate(args) -> int:
    from .distributions import cut_glances, load_decels, load_glances
    from .engine import MODEL_CBM, CampaignConfig, run_campaign, save_matrices
    out = _out_dir(args.out)
    cfg = CampaignConfig.from_json(args.config)
    refs = load_seed_refs(args.seeds)  # the workers load the trajectories
    if not refs:
        raise ValidationError(f"no seeds found in {args.seeds}")
    glance = load_glances(cfg.glance_file) if cfg.model == MODEL_CBM else None
    decels = load_decels(cfg.decel_file)
    if glance is not None and cfg.glance_cut_at is not None:
        glance = cut_glances(glance, float(cfg.glance_cut_at))
    result = run_campaign(refs, cfg, glance=glance, decels=decels,
                          workers=args.workers)

    matrices_path = out / "matrices.npy"
    save_matrices(result.matrices, result.grid, matrices_path)
    seeds_summary = out / "seeds_summary.csv"
    _write_seeds_summary(result, seeds_summary)
    summary = write_json(out / "summary.json", {
        "model": result.model,
        "n_seeds": len(result.results),
        "n_excluded": len(result.excluded_ids),
        "excluded_ids": result.excluded_ids,
        "theoretical_cells": result.theoretical_cells,
        "kernel_calls": result.kernel_calls,
        "crash_cells": result.crash_cells,
        "no_response_fraction": (cfg.cbm.no_response_fraction
                                 if cfg.model == MODEL_CBM else 0.0),
        "glance_cut_at": cfg.glance_cut_at,
        "grid": result.grid.to_json(),
    })
    # the seed files parsed are digested from the bytes parsed; any other
    # file under --seeds is read for its digest
    csv_digests = {r.seed_id: r.digest for r in result.results}
    parsed = {}
    for ref in refs:
        parsed[ref.path.name] = csv_digests[ref.id]
        parsed[ref.path.with_suffix(".json").name] = ref.digest
    inputs = {"seeds": digest_tree(args.seeds, parsed), "config": args.config,
              "decels": cfg.decel_file}
    if cfg.glance_file:
        inputs["glances"] = cfg.glance_file
    write_manifest(out, "simulate", inputs,
                   [matrices_path, seeds_summary, summary],
                   {"model": cfg.model, "workers_independent": True})
    if result.excluded_ids:
        print(f"simulate: warning: {len(result.excluded_ids)} seeds excluded "
              f"(lead not braking or standing still)", file=sys.stderr)
    print(f"simulate: {result.model} on {len(result.results)} seeds, "
          f"{result.theoretical_cells} theoretical cells, "
          f"{result.kernel_calls} kernel calls, "
          f"{result.crash_cells} crash cells")
    return EXIT_OK


# ------------------------------------------------------------------ weight

def _crash_samples(matrices, summary: dict[str, _SeedSummary]):
    """The prevalence-weighted crash samples of `matrices`, whose weights
    sum to 1, with the seed weights and the seeds without crashes."""
    weights, zero_crash = prevalence_weights(matrices)
    masses = {sid: (row.follower_mass, row.lead_mass)
              for sid, row in summary.items()}
    return weighted_crash_samples(matrices, masses, weights), weights, zero_crash


def _crash_shares(cells: CrashSamples, fraction: float):
    """(seed id, delta-v, weight, their sum) of each seed's crash samples,
    the weights scaled to the 1 - `fraction` share of the mix they carry."""
    for sid, dv, w in cells.by_seed():
        w = (1.0 - fraction) * w
        # a sequential sum: np.sum adds pairwise, which can differ in the
        # last bit
        yield sid, dv, w, np.cumsum(w)[-1]


def _weight_pipeline(matrices, summary: dict[str, _SeedSummary],
                     fraction: float, bin_width: float):
    """Prevalence weighting + no-response mixing; returns (crash samples,
    no-response samples, final histogram, weights, diagnostics). The crash
    samples' weights sum to 1; in the mix they carry 1 - `fraction` of the
    mass. The no-response samples are (seed id, delta-v) pairs, one per
    eligible seed whose no-response run crashed, which share `fraction`;
    with a `fraction` of 0 there are none."""
    cells, weights, zero_crash = _crash_samples(matrices, summary)

    # the no-response samples mixed in: none at a fraction of 0, where
    # mix_no_response gives the base histogram back
    nr_rows = [(sid, row.no_resp_dv) for sid, row in sorted(summary.items())
               if fraction > 0 and row.no_response.crashed and row.eligible]
    final = mix_no_response(build_histogram(cells.delta_v, cells.weight, bin_width),
                            [dv for _, dv in nr_rows], fraction)

    w_unt = np.array([w.w_untrimmed for w in weights])
    w_trim = np.array([w.w for w in weights])
    diagnostics = {
        "zero_crash_seeds": zero_crash,
        "n_weighted_seeds": len(weights),
        "n_no_response": len(nr_rows),
        "weight_span_untrimmed": float(w_unt.max() / w_unt.min()),
        "weight_span_trimmed": float(w_trim.max() / w_trim.min()),
        "no_response_fraction": fraction,
    }
    return cells, nr_rows, final, weights, diagnostics


def cmd_weight(args) -> int:
    out = _out_dir(args.out)
    sim_dir = Path(args.simulate_out)
    matrices, summary_rows, fraction = _load_simulated(sim_dir)
    cells, nr_rows, final, weights, diagnostics = _weight_pipeline(
        matrices, summary_rows, fraction, args.bin_width)
    contributions = {sid: float(mass)
                     for sid, _, _, mass in _crash_shares(cells, fraction)}
    weights_path = out / "weights.csv"
    table.write_csv(weights_path, ["seed_id", "q_raw", "q_norm", "w_untrimmed",
                                   "w_trimmed", "contribution"], [
        table.texts(w.seed_id for w in weights),
        table.reprs([w.q_raw for w in weights]),
        table.reprs([w.q_norm for w in weights]),
        table.reprs([w.w_untrimmed for w in weights]),
        table.reprs([w.w for w in weights]),
        table.reprs([contributions.get(w.seed_id, 0.0) for w in weights])])
    hist_path = out / "hist.csv"
    save_histogram(final, hist_path)
    summary = write_json(out / "summary.json", {
        "mean_kmh": final.mean,
        "count": final.count,
        "n_samples": len(cells) + len(nr_rows),
        **diagnostics,
    })
    write_manifest(out, "weight", {"simulate_out": str(sim_dir)},
                   [weights_path, hist_path, summary],
                   {"bin_width": args.bin_width})
    print(f"weight: mean delta-v {final.mean:.2f} km/h over "
          f"{diagnostics['n_weighted_seeds']} seeds "
          f"({len(diagnostics['zero_crash_seeds'])} without crashes)")
    return EXIT_OK


# ---------------------------------------------------------------- fit-bias

def cmd_fit_bias(args) -> int:
    out = _out_dir(args.out)
    records = bias.load_occupants(args.occupants)
    injury, injury_read = _reference_histogram(args.injury_hist, args.bin_width)
    model, pdo_hist, diagnostics = bias.build_pdo(
        records, args.p_pdo, args.n_fill_bins, args.bin_width)
    reference = bias.augment_reference(injury, model, args.p_pdo)
    tf, fit_diag = bias.fit_transfer(reference, injury)

    pdo_path = out / "pdo.json"
    write_json(pdo_path, {**vars(model), "diagnostics": diagnostics})
    tf_path = out / "transfer.json"
    write_json(tf_path, {**vars(tf), "cost": fit_diag["cost"],
                         "saturated": fit_diag["saturated"]})
    ref_path = out / "augmented_reference.csv"
    save_histogram(reference, ref_path)
    pdo_hist_path = out / "pdo_hist.csv"
    save_histogram(pdo_hist, pdo_hist_path)
    residual_path = out / "residual_curve.csv"
    table.write_csv(residual_path, ["c1", "min_cost_over_c2"], [
        table.reprs(bias.C1_GRID), table.reprs(fit_diag["cost_by_c1"])])
    write_manifest(out, "fit-bias",
                   {"occupants": args.occupants, "injury_hist": injury_read},
                   [pdo_path, tf_path, ref_path, pdo_hist_path, residual_path],
                   {"p_pdo": args.p_pdo, "n_fill_bins": args.n_fill_bins})
    print(f"fit-bias: PDO shape B1={model.B1:.4g} B2={model.B2:.4g}; "
          f"transfer C1={tf.C1:.3f} C2={tf.C2:.4f} "
          f"(midpoint {tf.midpoint:.1f} km/h, cost {fit_diag['cost']:.4g})")
    if fit_diag["saturated"]:
        print("fit-bias: warning: transfer saturated at the C1 grid edge "
              "(inputs may already share a selection process)", file=sys.stderr)
    return EXIT_OK


# --------------------------------------------------------------- apply-bias

def cmd_apply_bias(args) -> int:
    out = _out_dir(args.out)
    dist = load_histogram(args.hist)
    tf = bias.load_transfer(args.transfer)
    transformed = bias.apply_transfer(dist, tf)
    out_path = out / "transformed.csv"
    save_histogram(transformed, out_path)
    summary = write_json(out / "summary.json", {
        "mean_kmh": transformed.mean,
        "input_mean_kmh": dist.mean,
        "C1": tf.C1, "C2": tf.C2,
    })
    write_manifest(out, "apply-bias",
                   {"hist": args.hist, "transfer": args.transfer},
                   [out_path, summary], {})
    print(f"apply-bias: mean {dist.mean:.2f} -> {transformed.mean:.2f} km/h")
    return EXIT_OK


# ---------------------------------------------------------------- validate

def _per_seed_percentiles(cells: CrashSamples,
                          summary: dict[str, _SeedSummary], fraction: float):
    """Percentile of each seed's own delta-v inside its generated crashes,
    with the no-response share mixed in per seed: when `fraction` > 0 and
    the seed's no-response run crashed, its no-response delta-v carries
    `fraction` and its crash samples the rest. A seed whose generated
    crashes carry no weight (none, or all underflowed to 0) is left out."""
    from .validation import seed_percentile
    crash = {sid: (dv, w, mass) for sid, dv, w, mass in _crash_shares(cells, fraction)}
    none = (np.zeros(0), np.zeros(0), 0.0)
    out = {}
    for sid, row in sorted(summary.items()):
        if not row.eligible or row.seed_delta_v is None:
            continue
        dvs, cell_w, cell_mass = crash.get(sid, none)
        f = fraction if row.no_response.crashed else 0.0
        weights = (1.0 - f) * cell_w / cell_mass if cell_mass else cell_w
        if f > 0:
            # [f] alone normalizes to exactly [1.0] in seed_percentile
            dvs, weights = np.append(dvs, row.no_resp_dv), np.append(weights, f)
        if not weights.any():
            continue
        out[sid] = seed_percentile(row.seed_delta_v, dvs, weights)
    return out


def cmd_validate(args) -> int:
    from .validation import compare, injury_risk, percentile_histogram
    curves = _load_curves(args.curves)
    out = _out_dir(args.out)
    model_hist = load_histogram(args.model_hist)
    reference, reference_read = _reference_histogram(args.reference,
                                                     model_hist.bin_width)
    stats = compare(model_hist, reference)
    outputs = []
    comparison = write_json(out / "comparison.json", {
        "model_mean_kmh": model_hist.mean,
        "reference_mean_kmh": reference.mean,
        **vars(stats),
    })
    outputs.append(comparison)

    inputs = {"model_hist": args.model_hist, "reference": reference_read}
    if args.seeds_summary:
        sim_dir = Path(args.seeds_summary).parent
        matrices, summary_rows, fraction = _load_simulated(sim_dir)
        cells, _, _ = _crash_samples(matrices, summary_rows)
        percentiles = _per_seed_percentiles(cells, summary_rows, fraction)
        rep = percentile_histogram(percentiles.values(), args.n_bins)
        pct_path = out / "percentiles.csv"
        ordered = sorted(percentiles.items())
        table.write_csv(pct_path, ["seed_id", "percentile"], [
            table.texts(sid for sid, _ in ordered),
            [table.quote(v) if isinstance(v, str) else repr(float(v))
             for _, v in ordered]])
        rep_path = write_json(out / "percentile_report.json",
                              {**vars(rep), "counts": rep.counts.tolist()})
        outputs += [pct_path, rep_path]
        inputs["simulate_out"] = str(sim_dir)

    if curves:
        risks = {}
        for curve_path, curve in curves:
            risks[curve.level] = {
                "model": injury_risk(model_hist, curve),
                "reference": injury_risk(reference, curve),
            }
            inputs[f"curve_{curve.level}"] = curve_path
        risk_path = write_json(out / "injury_risk.json", risks)
        outputs.append(risk_path)

    write_manifest(out, "validate", inputs, outputs,
                   {"n_bins": args.n_bins})
    print(f"validate: TV {stats.tv_distance:.3f}, KS {stats.ks_distance:.3f}, "
          f"KL {stats.kl_divergence:.3f}, "
          f"mean diff {stats.abs_mean_diff:.2f} km/h")
    return EXIT_OK


# --------------------------------------------------------------- assess-dms

def cmd_assess_dms(args) -> int:
    """Glance cuts reweight the baseline outcome matrices; nothing is
    simulated, so --seeds and --workers are unused. The deceleration bins
    and their marginal come from the baseline's summary.json; the config's
    glance file must give the baseline's overshoot axis and marginal."""
    from .distributions import cut_glances, load_glances
    from .drivers import cbm_axes
    from .engine import MODEL_CBM, CampaignConfig, CampaignGrid, reweight
    from .validation import crash_avoidance_rate, injury_risk
    repeated = sorted({f"{cut:g}" for cut in args.cuts if args.cuts.count(cut) > 1})
    if repeated:
        raise ValidationError(f"--cuts repeats {', '.join(repeated)}")
    curves = [curve for _, curve in _load_curves(args.curves)]
    out = _out_dir(args.out)
    cfg = CampaignConfig.from_json(args.config)
    if cfg.model != MODEL_CBM:
        raise ValidationError("glance cutting only applies to the cbm model")
    glance = load_glances(cfg.glance_file)

    baseline_dir = Path(args.baseline)
    sim_summary, fraction = _simulate_summary(baseline_dir)
    if (sim_summary.get("model") != MODEL_CBM
            or sim_summary.get("glance_cut_at") is not None):
        raise ValidationError(
            f"{baseline_dir}: the baseline must be an uncut cbm campaign")
    grid, baseline_matrices, summary_rows = _simulated_matrices(baseline_dir,
                                                                sim_summary)
    axis1, axis1_probs = cbm_axes(glance)
    if (axis1.tobytes() != grid.axis1.tobytes()
            or axis1_probs.tobytes() != grid.axis1_probs.tobytes()):
        raise ValidationError(
            f"{baseline_dir}: the baseline was not simulated with the glance "
            f"distribution of {cfg.glance_file}")
    _, _, base_hist, _, _ = _weight_pipeline(
        baseline_matrices, summary_rows, fraction, args.bin_width)

    base_risks = {c.level: injury_risk(base_hist, c) for c in curves}

    rows = []
    outputs = []
    for cut in args.cuts:
        target = grid if cut == math.inf else CampaignGrid(
            *cbm_axes(cut_glances(glance, cut)), grid.decels, grid.decel_probs)
        matrices = reweight(baseline_matrices, grid, target)
        rate, per_seed = crash_avoidance_rate(baseline_matrices, matrices)
        _, _, cut_hist, _, diagnostics = _weight_pipeline(
            matrices, summary_rows, fraction, args.bin_width)
        label = "inf" if cut == math.inf else f"{cut:g}"
        hist_path = out / f"hist_cut_{label}.csv"
        save_histogram(cut_hist, hist_path)
        outputs.append(hist_path)
        row = {
            "cut_at_s": None if cut == math.inf else cut,
            "avoidance_rate": rate,
            "mean_dv_kmh": cut_hist.mean,
            "mean_dv_delta_kmh": cut_hist.mean - base_hist.mean,
            "seeds_without_crashes": len(diagnostics["zero_crash_seeds"]),
            "min_per_seed_avoidance": min(per_seed.values()),
        }
        if curves:
            row["injury_risk"] = {
                c.level: {"value": injury_risk(cut_hist, c),
                          "delta": injury_risk(cut_hist, c) - base_risks[c.level]}
                for c in curves}
        rows.append(row)

    assess = write_json(out / "assess.json", {
        "baseline_mean_dv_kmh": base_hist.mean,
        "baseline_injury_risk": base_risks,
        "cuts": rows,
    })
    write_manifest(out, "assess-dms",
                   {"config": args.config, "glances": cfg.glance_file,
                    "baseline": args.baseline},
                   outputs + [assess],
                   {"cuts": [None if c == math.inf else c for c in args.cuts]})
    for row in rows:
        cut = row["cut_at_s"]
        print(f"assess-dms: cut {'none' if cut is None else cut}: "
              f"avoidance {row['avoidance_rate']:.1%}, mean delta-v "
              f"{row['mean_dv_kmh']:.2f} km/h "
              f"({row['mean_dv_delta_kmh']:+.2f})")
    return EXIT_OK


# ------------------------------------------------------------------ report

def _labeled(pairs: list[str]) -> list[tuple[str, str]]:
    out = []
    for pair in pairs:
        if "=" not in pair:
            raise ValidationError(f"expected label=path, got {pair!r}")
        label, path = pair.split("=", 1)
        out.append((label, path))
    return out


def _load_percentile_report(path: str) -> PercentileReport:
    """The percentile_report.json that validate wrote."""
    from .validation import PercentileReport
    kinds = {"n_bins": "int", "counts": "list", "below_min": "int",
             "above_max": "int", "chi2": "number", "p_value": "number"}
    raw = read_json(path, "percentile report", kinds)
    counts = raw["counts"]
    if len(counts) != raw["n_bins"] or not all(type(c) is int and c >= 0
                                               for c in counts):
        raise ParseError(f"{path}: percentile report counts must be "
                         f"{raw['n_bins']} integers >= 0, got {counts!r}")
    return PercentileReport(**{**{key: raw[key] for key in kinds},
                               "counts": np.array(counts)})


def _load_assessment_cuts(path: str) -> list[dict]:
    """The rows of each cut in the assess.json that assess-dms wrote."""
    return [check_json(row, f"{path}: assessment cut", {
        "cut_at_s": "float | None", "avoidance_rate": "float"})
        for row in read_json(path, "assessment", {"cuts": "list"})["cuts"]]


def cmd_report(args) -> int:
    from . import report
    from .validation import compare
    out = _out_dir(args.out)
    outputs = []
    inputs: dict[str, str] = {}

    if args.hist:
        series = []
        for label, path in _labeled(args.hist):
            series.append((label, load_histogram(path)))
            inputs[f"hist_{label}"] = path
        svg = out / "delta_v.svg"
        report.histogram_svg(series, "Delta-v distributions", svg)
        outputs.append(svg)
        if len(series) > 1:
            stats_path = out / "stats.csv"
            ref_label, ref = series[0]
            stats = [vars(compare(dist, ref)) for _, dist in series[1:]]
            table.write_csv(stats_path, ["pair", *stats[0]], [
                table.texts(f"{ref_label} vs {label}" for label, _ in series[1:]),
                *(table.reprs([s[name] for s in stats]) for name in stats[0])])
            outputs.append(stats_path)

    if args.percentiles:
        reps = []
        for label, path in _labeled(args.percentiles):
            reps.append((label, _load_percentile_report(path)))
            inputs[f"percentiles_{label}"] = path
        svg = out / "percentiles.svg"
        report.percentile_svg(reps, "Seed percentile uniformity", svg)
        outputs.append(svg)

    if args.assess:
        cuts = _load_assessment_cuts(args.assess)
        labels = ["no cut" if row["cut_at_s"] is None else f"cut {row['cut_at_s']}s"
                  for row in cuts]
        values = [row["avoidance_rate"] for row in cuts]
        svg = out / "avoidance.svg"
        report.bar_svg(labels, values, "Crash avoidance rate",
                       "avoidance rate", svg)
        outputs.append(svg)
        inputs["assess"] = args.assess

    if not outputs:
        raise ValidationError("report: nothing to do (pass --hist/--percentiles/--assess)")
    write_manifest(out, "report", inputs, outputs, {})
    print(f"report: wrote {len(outputs)} artifacts to {out}")
    return EXIT_OK


# -------------------------------------------------------------------- main

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rearsim",
        description="counterfactual rear-end crash generation and validation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="synthesize seed crashes")
    p.add_argument("--config", required=True,
                   help="a JSON object of SynthesisConfig fields; an unknown "
                        "key or a bad value exits 2")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("simulate", help="run a simulation campaign")
    p.add_argument("--seeds", required=True)
    p.add_argument("--config", required=True,
                   help="a JSON object of CampaignConfig fields, with the "
                        "CbmConfig fields under 'cbm'; an unknown key or a "
                        "bad value exits 2")
    p.add_argument("--out", required=True)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("weight", help="prevalence-weight campaign outcomes")
    p.add_argument("--simulate-out", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--bin-width", type=float, default=DEFAULT_BIN_WIDTH_KMH)
    p.set_defaults(func=cmd_weight)

    p = sub.add_parser("fit-bias", help="fit the PDO shape and transfer function")
    p.add_argument("--occupants", required=True)
    p.add_argument("--injury-hist", required=True,
                   help="histogram CSV or a seeds directory, of which only "
                        "the JSON sidecars are read")
    p.add_argument("--out", required=True)
    p.add_argument("--p-pdo", type=float, default=bias.DEFAULT_P_PDO)
    p.add_argument("--n-fill-bins", type=int, default=bias.DEFAULT_N_FILL_BINS)
    p.add_argument("--bin-width", type=float, default=DEFAULT_BIN_WIDTH_KMH)
    p.set_defaults(func=cmd_fit_bias)

    p = sub.add_parser("apply-bias", help="apply a fitted transfer function")
    p.add_argument("--hist", required=True)
    p.add_argument("--transfer", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_apply_bias)

    p = sub.add_parser("validate", help="compare model output to a reference")
    p.add_argument("--model-hist", required=True)
    p.add_argument("--reference", required=True,
                   help="histogram CSV or a seeds directory, of which only "
                        "the JSON sidecars are read")
    p.add_argument("--out", required=True)
    p.add_argument("--samples", default=None,
                   help="unused; accepted so existing command lines still run")
    p.add_argument("--seeds-summary", default=None,
                   help="simulate's seeds_summary.csv: each seed's percentile "
                        "is built from the simulate output directory that "
                        "holds it (summary.json, seeds_summary.csv and "
                        "matrices.npy)")
    p.add_argument("--curves", nargs="*", default=None, help=CURVES_HELP)
    p.add_argument("--n-bins", type=int, default=10)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser(
        "assess-dms", help="assess glance-cutting interventions",
        description="Reweight the baseline outcome matrices under each "
                    "glance cut; no campaign is re-simulated. The deceleration "
                    "distribution is the baseline's, from its summary.json.")
    p.add_argument("--seeds", default=None,
                   help="unused; accepted so existing command lines still run")
    p.add_argument("--config", required=True,
                   help="the CampaignConfig JSON the baseline was simulated "
                        "with; only its glance file is used, and an unknown "
                        "key or a bad value exits 2")
    p.add_argument("--baseline", required=True,
                   help="simulate output directory for the uncut baseline")
    p.add_argument("--cuts", type=float, nargs="+", required=True,
                   help="glance cuts in seconds, each > 0; inf is the uncut "
                        "baseline")
    p.add_argument("--out", required=True)
    p.add_argument("--workers", type=int, default=1,
                   help="unused; accepted so existing command lines still run")
    p.add_argument("--bin-width", type=float, default=DEFAULT_BIN_WIDTH_KMH)
    p.add_argument("--curves", nargs="*", default=None, help=CURVES_HELP)
    p.set_defaults(func=cmd_assess_dms)

    p = sub.add_parser("report", help="emit SVG charts and stats tables")
    p.add_argument("--hist", nargs="*", default=None, metavar="LABEL=PATH")
    p.add_argument("--percentiles", nargs="*", default=None, metavar="LABEL=PATH")
    p.add_argument("--assess", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ModelUndefinedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MODEL_UNDEFINED
    except FitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FIT_FAILURE
    except (RearsimError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
