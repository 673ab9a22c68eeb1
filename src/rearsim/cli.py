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
import json
import math
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import bias, report, table
from .distributions import cut_glances, load_decels, load_glances
from .engine import (
    MODEL_CBM,
    CampaignConfig,
    CampaignResult,
    load_matrices,
    reweight_cbm,
    run_campaign,
    save_matrices,
)
from .errors import FitError, ModelUndefinedError, RearsimError, ValidationError
from .manifest import write_json, write_manifest
from .outcome import (
    DEFAULT_BIN_WIDTH_KMH,
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
    load_seed_dir,
    save_seed,
    synthesize_seeds,
)
from .validation import (
    PercentileReport,
    compare,
    crash_avoidance_rate,
    injury_risk,
    load_injury_curve,
    percentile_histogram,
    seed_percentile,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_MODEL_UNDEFINED = 3
EXIT_FIT_FAILURE = 4

SOURCE_CELL = "cell"
SOURCE_NO_RESPONSE = "no_response"

SAMPLES_CSV_HEADER = ["seed_id", "delta_v_kmh", "weight", "source"]
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


def _reference_histogram(path: str, bin_width: float) -> DeltaVDistribution:
    """Reference delta-v histogram: a histogram CSV, or built from the
    recorded delta-v of a seed directory."""
    p = Path(path)
    if p.is_dir():
        seeds = load_seed_dir(p)
        dvs = [s.seed_delta_v_kmh for s in seeds if s.seed_delta_v_kmh is not None]
        if not dvs:
            raise ValidationError(f"{p}: seeds carry no reference delta-v")
        return build_histogram([(dv, 1.0) for dv in dvs], bin_width)
    return load_histogram(p)


# ------------------------------------------------------------------- synth

def cmd_synth(args) -> int:
    out = _out_dir(args.out)
    cfg = SynthesisConfig.from_json(args.config)
    rng_seed = args.seed if args.seed is not None else 0
    seeds = synthesize_seeds(cfg, rng_seed)
    seeds_dir = out / "seeds"
    seeds_dir.mkdir(exist_ok=True)
    outputs = []
    for seed in seeds:
        csv_path = seeds_dir / f"{seed.id}.csv"
        save_seed(seed, csv_path)
        outputs += [csv_path, csv_path.with_suffix(".json")]
    summary = write_json(out / "summary.json", {
        "n_seeds": len(seeds),
        "rng_seed": rng_seed,
        "seed_ids": [s.id for s in seeds],
    })
    write_manifest(out, "synth", {"config": args.config},
                   outputs + [summary], {"rng_seed": rng_seed})
    print(f"synth: wrote {len(seeds)} seeds to {seeds_dir}")
    return EXIT_OK


# ---------------------------------------------------------------- simulate

def _write_seeds_summary(result: CampaignResult, path: Path) -> None:
    rows = result.results
    nr = [r.no_response for r in rows]
    m = [r.matrix for r in rows]
    nr_dv = [delta_v(o.v1, o.v2, r.follower_mass, r.lead_mass) if o.crashed
             else None for o, r in zip(nr, rows)]
    table.write_csv(path, SEEDS_SUMMARY_HEADER, [[
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
        table.ints(x.crashed.sum() if x is not None else 0 for x in m),
        table.fmt([x.crash_mass if x is not None else None for x in m]),
        table.ints(x.kernel_calls if x is not None else 0 for x in m),
        table.ints(r.theoretical_cells for r in rows),
    ]])


class _SeedSummary(NamedTuple):
    """The seeds_summary.csv fields that weighting and validation read."""

    eligible: bool
    follower_mass: float
    lead_mass: float
    seed_delta_v: float | None
    no_resp_crashed: bool
    no_resp_dv: float  # NaN unless no_resp_crashed


def _load_seeds_summary(path: Path) -> dict[str, _SeedSummary]:
    chunk = table.read_csv(path, SEEDS_SUMMARY_HEADER)
    recorded = ~chunk.equals("seed_delta_v_kmh", "")
    seed_dv = chunk.floats("seed_delta_v_kmh", where=recorded).tolist()
    nr_crashed = chunk.equals("no_resp_crashed", "1")
    columns = (
        chunk.equals("eligible", "1").tolist(),
        chunk.floats("follower_mass_kg").tolist(),
        chunk.floats("lead_mass_kg").tolist(),
        [dv if ok else None for dv, ok in zip(seed_dv, recorded.tolist())],
        nr_crashed.tolist(),
        chunk.floats("no_resp_dv_kmh", where=nr_crashed).tolist(),
    )
    return {sid: _SeedSummary(*row)
            for sid, row in zip(chunk["seed_id"], zip(*columns))}


def _simulate_summary(sim_dir: Path) -> tuple[dict, float]:
    """simulate's summary.json in `sim_dir`, and the no-response fraction
    it records: weight, validate and assess-dms all mix in that share."""
    with open(sim_dir / "summary.json") as fh:
        sim_summary = json.load(fh)
    return sim_summary, float(sim_summary.get("no_response_fraction", 0.0))


def _campaign_distributions(cfg: CampaignConfig):
    """The config's glance distribution (None for the brake-light model;
    never cut) and deceleration distribution."""
    glance = None
    if cfg.model == MODEL_CBM:
        if not cfg.glance_file:
            raise ValidationError("campaign config needs glance_file for the cbm model")
        glance = load_glances(cfg.glance_file)
    if not cfg.decel_file:
        raise ValidationError("campaign config needs decel_file")
    return glance, load_decels(cfg.decel_file)


def cmd_simulate(args) -> int:
    out = _out_dir(args.out)
    cfg = CampaignConfig.from_json(args.config)
    seeds = load_seed_dir(args.seeds)
    if not seeds:
        raise ValidationError(f"no seeds found in {args.seeds}")
    glance, decels = _campaign_distributions(cfg)
    if glance is not None and cfg.glance_cut_at is not None:
        glance = cut_glances(glance, float(cfg.glance_cut_at))
    result = run_campaign(seeds, cfg, glance=glance, decels=decels,
                          workers=args.workers)

    matrices_path = out / "matrices.csv"
    save_matrices(result.matrices, matrices_path)
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
    })
    inputs = {"seeds": args.seeds, "config": args.config}
    if cfg.glance_file:
        inputs["glances"] = cfg.glance_file
    if cfg.decel_file:
        inputs["decels"] = cfg.decel_file
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

def _weight_pipeline(matrices, summary: dict[str, _SeedSummary],
                     fraction: float, bin_width: float):
    """Prevalence weighting + no-response mixing; returns (samples, final
    histogram, weights, diagnostics). Samples come in groups of (seed ids,
    delta-v, weight, source): one group per weighted seed's crash cells,
    then one of the no-response crashes."""
    weights, zero_crash = prevalence_weights(matrices)
    masses = {sid: (row.follower_mass, row.lead_mass)
              for sid, row in summary.items()}
    cells = weighted_crash_samples(matrices, masses, weights)

    nr_rows = [(sid, row.no_resp_dv) for sid, row in sorted(summary.items())
               if row.no_resp_crashed and row.eligible]
    base = build_histogram(np.column_stack([cells.delta_v, cells.weight]),
                           bin_width)
    if fraction > 0:
        if not nr_rows:
            raise ValidationError("no no-response crashes to mix in")
        final = mix_no_response(base, [dv for _, dv in nr_rows], fraction)
    else:
        final = base

    samples = [([sid] * len(dv), dv, (1.0 - fraction) * w, SOURCE_CELL)
               for sid, dv, w in cells.by_seed()]
    if fraction > 0:
        samples.append(([sid for sid, _ in nr_rows],
                        np.array([dv for _, dv in nr_rows]),
                        np.full(len(nr_rows), fraction / len(nr_rows)),
                        SOURCE_NO_RESPONSE))

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
    return samples, final, weights, diagnostics


def cmd_weight(args) -> int:
    out = _out_dir(args.out)
    sim_dir = Path(args.simulate_out)
    _, fraction = _simulate_summary(sim_dir)
    matrices = load_matrices(sim_dir / "matrices.csv")
    summary_rows = _load_seeds_summary(sim_dir / "seeds_summary.csv")
    samples, final, weights, diagnostics = _weight_pipeline(
        matrices, summary_rows, fraction, args.bin_width)

    samples_path = out / "samples.csv"
    table.write_csv(samples_path, SAMPLES_CSV_HEADER, (
        (table.texts(sids), table.reprs(dv), table.reprs(w), [source] * len(w))
        for sids, dv, w, source in samples))
    weights_path = out / "weights.csv"
    # sequential per-seed sums, as the rows are added up one by one
    contributions = {sids[0]: float(np.cumsum(w)[-1])
                     for sids, _, w, source in samples if source == SOURCE_CELL}
    table.write_csv(weights_path, ["seed_id", "q_raw", "q_norm", "w_untrimmed",
                                   "w_trimmed", "contribution"], [[
        table.texts(w.seed_id for w in weights),
        table.reprs([w.q_raw for w in weights]),
        table.reprs([w.q_norm for w in weights]),
        table.reprs([w.w_untrimmed for w in weights]),
        table.reprs([w.w for w in weights]),
        table.reprs([contributions.get(w.seed_id, 0.0) for w in weights])]])
    hist_path = out / "hist.csv"
    save_histogram(final, hist_path)
    summary = write_json(out / "summary.json", {
        "mean_kmh": final.mean,
        "count": final.count,
        "n_samples": sum(len(w) for _, _, w, _ in samples),
        **diagnostics,
    })
    write_manifest(out, "weight", {"simulate_out": str(sim_dir)},
                   [samples_path, weights_path, hist_path, summary],
                   {"bin_width": args.bin_width})
    print(f"weight: mean delta-v {final.mean:.2f} km/h over "
          f"{diagnostics['n_weighted_seeds']} seeds "
          f"({len(diagnostics['zero_crash_seeds'])} without crashes)")
    return EXIT_OK


# ---------------------------------------------------------------- fit-bias

def cmd_fit_bias(args) -> int:
    out = _out_dir(args.out)
    records = bias.load_occupants(args.occupants)
    injury = _reference_histogram(args.injury_hist, args.bin_width)
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
    table.write_csv(residual_path, ["c1", "min_cost_over_c2"], [[
        table.reprs(bias.C1_GRID), table.reprs(fit_diag["cost_by_c1"])]])
    write_manifest(out, "fit-bias",
                   {"occupants": args.occupants, "injury_hist": args.injury_hist},
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

def _load_samples(path: Path) -> dict[str, dict[str, tuple[np.ndarray, np.ndarray]]]:
    """Per seed and source, the (delta-v, weight) columns in file order."""
    ids: dict[str, int] = {}
    parts = []
    for chunk in table.read_chunks(path, SAMPLES_CSV_HEADER):
        no_response = chunk.equals("source", SOURCE_NO_RESPONSE)
        known = no_response | chunk.equals("source", SOURCE_CELL)
        if not known.all():
            bad = int(np.argmin(known))
            raise chunk.error(bad, f"source: expected {SOURCE_CELL} or "
                                   f"{SOURCE_NO_RESPONSE}, got {chunk['source'][bad]!r}")
        # rows are grouped by seed, and within a seed by source
        parts.append((2 * chunk.codes("seed_id", ids) + no_response,
                      chunk.floats("delta_v_kmh"), chunk.floats("weight")))
    if not parts:
        return {}
    key, dv, w = map(np.concatenate, zip(*parts))
    rows = table.group_rows(key, 2 * len(ids))
    return {sid: {SOURCE_CELL: (dv[rows[2 * k]], w[rows[2 * k]]),
                  SOURCE_NO_RESPONSE: (dv[rows[2 * k + 1]], w[rows[2 * k + 1]])}
            for sid, k in ids.items()}


def _per_seed_percentiles(per_seed_samples, summary: dict[str, _SeedSummary],
                          fraction: float):
    """Percentile of each seed's own delta-v inside its generated crashes,
    with the no-response share mixed in per seed."""
    out = {}
    for sid, row in sorted(summary.items()):
        if not row.eligible or row.seed_delta_v is None:
            continue
        entry = per_seed_samples.get(sid)
        if entry is None:
            continue
        dvs, cell_w = entry[SOURCE_CELL]
        nr = entry[SOURCE_NO_RESPONSE][0]
        # a sequential sum, as the rows are added up one by one
        cell_mass = np.cumsum(cell_w)[-1] if cell_w.size else 0.0
        f = fraction if nr.size else 0.0
        weights = (1.0 - f) * cell_w / cell_mass if cell_mass else np.zeros(0)
        if nr.size and cell_mass:
            dvs = np.concatenate([dvs, nr])
            weights = np.concatenate([weights, np.full(nr.size, f / nr.size)])
        elif nr.size:
            dvs, weights = nr, np.full(nr.size, 1.0 / nr.size)
        if not dvs.size:
            continue
        out[sid] = seed_percentile(row.seed_delta_v, dvs, weights)
    return out


def cmd_validate(args) -> int:
    out = _out_dir(args.out)
    model_hist = load_histogram(args.model_hist)
    reference = _reference_histogram(args.reference, model_hist.bin_width)
    stats = compare(model_hist, reference)
    outputs = []
    comparison = write_json(out / "comparison.json", {
        "model_mean_kmh": model_hist.mean,
        "reference_mean_kmh": reference.mean,
        **vars(stats),
    })
    outputs.append(comparison)

    inputs = {"model_hist": args.model_hist, "reference": args.reference}
    if args.samples:
        if not args.seeds_summary:
            raise ValidationError("--samples requires --seeds-summary")
        per_seed = _load_samples(Path(args.samples))
        seeds_summary = Path(args.seeds_summary)
        summary_rows = _load_seeds_summary(seeds_summary)
        _, fraction = _simulate_summary(seeds_summary.parent)
        percentiles = _per_seed_percentiles(per_seed, summary_rows, fraction)
        rep = percentile_histogram(percentiles.values(), args.n_bins)
        pct_path = out / "percentiles.csv"
        ordered = sorted(percentiles.items())
        table.write_csv(pct_path, ["seed_id", "percentile"], [[
            table.texts(sid for sid, _ in ordered),
            [table.quote(v) if isinstance(v, str) else repr(float(v))
             for _, v in ordered]]])
        rep_path = write_json(out / "percentile_report.json", {
            "n_bins": rep.n_bins,
            "counts": rep.counts.tolist(),
            "below_min": rep.below_min,
            "above_max": rep.above_max,
            "chi2": rep.chi2,
            "p_value": rep.p_value,
        })
        outputs += [pct_path, rep_path]
        inputs["samples"] = args.samples
        inputs["seeds_summary"] = args.seeds_summary

    if args.curves:
        risks = {}
        for curve_path in args.curves:
            curve = load_injury_curve(curve_path)
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
    simulated, so --seeds and --workers are unused."""
    out = _out_dir(args.out)
    cfg = CampaignConfig.from_json(args.config)
    if cfg.model != MODEL_CBM:
        raise ValidationError("glance cutting only applies to the cbm model")
    glance, decels = _campaign_distributions(cfg)

    baseline_dir = Path(args.baseline)
    sim_summary, fraction = _simulate_summary(baseline_dir)
    if (sim_summary.get("model") != MODEL_CBM
            or sim_summary.get("glance_cut_at") is not None):
        raise ValidationError(
            f"{baseline_dir}: the baseline must be an uncut cbm campaign")
    baseline_matrices = load_matrices(baseline_dir / "matrices.csv")
    summary_rows = _load_seeds_summary(baseline_dir / "seeds_summary.csv")
    _, base_hist, _, _ = _weight_pipeline(
        baseline_matrices, summary_rows, fraction, args.bin_width)

    curves = [load_injury_curve(p) for p in (args.curves or [])]
    base_risks = {c.level: injury_risk(base_hist, c) for c in curves}

    rows = []
    outputs = []
    for cut in args.cuts:
        matrices = reweight_cbm(baseline_matrices, glance, decels,
                                None if math.isinf(cut) else cut)
        rate, per_seed = crash_avoidance_rate(baseline_matrices, matrices)
        zero_crash = [m.seed_id for m in matrices if m.crash_mass <= 0]
        _, cut_hist, _, _ = _weight_pipeline(
            matrices, summary_rows, fraction, args.bin_width)
        label = "inf" if math.isinf(cut) else f"{cut:g}"
        hist_path = out / f"hist_cut_{label}.csv"
        save_histogram(cut_hist, hist_path)
        outputs.append(hist_path)
        row = {
            "cut_at_s": None if math.isinf(cut) else cut,
            "avoidance_rate": rate,
            "mean_dv_kmh": cut_hist.mean,
            "mean_dv_delta_kmh": cut_hist.mean - base_hist.mean,
            "seeds_without_crashes": len(zero_crash),
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
                    "decels": cfg.decel_file, "baseline": args.baseline},
                   outputs + [assess],
                   {"cuts": [None if math.isinf(c) else c for c in args.cuts]})
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


def cmd_report(args) -> int:
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
            table.write_csv(stats_path, ["pair", *stats[0]], [[
                table.texts(f"{ref_label} vs {label}" for label, _ in series[1:]),
                *(table.reprs([s[name] for s in stats]) for name in stats[0])]])
            outputs.append(stats_path)

    if args.percentiles:
        reps = []
        for label, path in _labeled(args.percentiles):
            with open(path) as fh:
                raw = json.load(fh)
            reps.append((label, PercentileReport(
                raw["n_bins"], np.array(raw["counts"]), raw["below_min"],
                raw["above_max"], raw["chi2"], raw["p_value"])))
            inputs[f"percentiles_{label}"] = path
        svg = out / "percentiles.svg"
        report.percentile_svg(reps, "Seed percentile uniformity", svg)
        outputs.append(svg)

    if args.assess:
        with open(args.assess) as fh:
            assess = json.load(fh)
        labels = [f"cut {row['cut_at_s'] or 'none'}s" for row in assess["cuts"]]
        values = [row["avoidance_rate"] for row in assess["cuts"]]
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
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("simulate", help="run a simulation campaign")
    p.add_argument("--seeds", required=True)
    p.add_argument("--config", required=True)
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
                   help="histogram CSV or a seeds directory")
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
                   help="histogram CSV or a seeds directory")
    p.add_argument("--out", required=True)
    p.add_argument("--samples", default=None,
                   help="weighted samples CSV for percentile analysis")
    p.add_argument("--seeds-summary", default=None,
                   help="simulate's seeds_summary.csv; the no-response "
                        "fraction is read from the summary.json beside it")
    p.add_argument("--curves", nargs="*", default=None)
    p.add_argument("--n-bins", type=int, default=10)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser(
        "assess-dms", help="assess glance-cutting interventions",
        description="Reweight the baseline outcome matrices under each "
                    "glance cut; no campaign is re-simulated.")
    p.add_argument("--seeds", default=None,
                   help="unused; accepted so existing command lines still run")
    p.add_argument("--config", required=True,
                   help="the campaign config the baseline was simulated with")
    p.add_argument("--baseline", required=True,
                   help="simulate output directory for the uncut baseline")
    p.add_argument("--cuts", type=float, nargs="+", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--workers", type=int, default=1,
                   help="unused; accepted so existing command lines still run")
    p.add_argument("--bin-width", type=float, default=DEFAULT_BIN_WIDTH_KMH)
    p.add_argument("--curves", nargs="*", default=None)
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
