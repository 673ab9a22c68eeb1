"""Command-line pipeline: synthesize or load seeds, run simulation
campaigns, weight outcomes, fit and apply the selection-bias transform,
validate, assess glance-cutting interventions, and emit reports.

Every command validates its inputs, writes a manifest with input/output
digests, and is deterministic for identical inputs (worker count
included). Every command reads every input, and every command but synth
computes every output, before it writes one. It publishes its --out
whole (`manifest.publish`): the outputs and the manifest are written into
a fresh `<out>.partial` beside --out, which then replaces --out. An
existing --out is replaced only if it is an empty directory or holds a
manifest of the same command; any other is refused. A refused or failed
run leaves --out as it was. Exit codes: 0 success, 2 validation, 3
model-undefined, 4 fit failure.
"""

from __future__ import annotations

import argparse
import collections
import itertools
import json
import math
import sys
from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import table
from .errors import FitError, ModelUndefinedError, ParseError, RearsimError, ValidationError
from .manifest import check_json, digest_tree, publish, read_json, write_json
from .outcome import (
    DEFAULT_BIN_WIDTH_KMH,
    DEFAULT_N_FILL_BINS,
    DEFAULT_P_PDO,
    DeltaVDistribution,
    build_histogram,
    load_histogram,
    save_histogram,
    weigh,
)
from .scenario import (
    SynthesisConfig,
    load_seed_refs,
    synthesize_seeds,
    usable_cpus,
    write_seeds,
)

# a stage imports the modules only it runs: fit-bias and apply-bias load
# neither the engine, the driver models nor the validation code, and no
# other stage loads the bias correction
if TYPE_CHECKING:
    from .engine import CampaignResult
    from .validation import InjuryRiskCurve, PercentileReport

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_MODEL_UNDEFINED = 3
EXIT_FIT_FAILURE = 4

# synth hands its writer processes SYNTH_TASK seeds a task and has at most
# SYNTH_BATCH // 2 seeds handed out and not yet written (two tasks per writer
# on two CPUs), so it holds no more seeds than that whatever the seed count.
# Holding SYNTH_BATCH seeds raised synth's traced peak memory over 64 seeds by
# a fifth or more against its peak over 16; 2-seed tasks wrote as fast as
# 4-seed ones
SYNTH_TASK = 2
SYNTH_BATCH = 16

CURVES_HELP = ("injury-risk curves, each a CSV table (delta_v_kmh,risk) or a JSON "
               "logistic, of distinct levels: its 'level' key, else its file stem")
OUT_HELP = ("the output directory, written whole as <out>.partial beside it and "
            "then swapped in; an existing one is replaced only if it is empty "
            "or holds a manifest of this command, else the run exits 2")


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
    """Draw every seed in order in this process, from one generator
    (`synthesize_seeds`), and write them on every usable CPU: writer
    processes each format and write SYNTH_TASK seeds at a time
    (`write_seeds`), while this process draws the next ones and lists the
    ids in draw order in summary.json. With one usable CPU, or one task,
    this process writes the seeds itself. The files' bytes are the same
    for any CPU count."""
    rng_seed = args.seed
    if rng_seed < 0:  # NumPy's generators take no negative seed
        raise ValidationError(f"--seed must be >= 0, got {rng_seed}")
    cfg = SynthesisConfig.from_json(args.config)
    seeds = synthesize_seeds(cfg, rng_seed)
    tasks = iter(lambda: list(itertools.islice(seeds, SYNTH_TASK)), [])
    in_flight = SYNTH_BATCH // (2 * SYNTH_TASK)  # tasks handed out at most
    workers = min(usable_cpus(), -(-cfg.n_seeds // SYNTH_TASK), in_flight)
    seed_ids = []
    with publish(args.out, "synth", {"config": args.config},
                 {"rng_seed": rng_seed}) as out:
        directory = out / "seeds"
        directory.mkdir()
        if workers > 1:
            # The pool takes the platform's default start method, as
            # simulate's does. Under fork it starts every worker at the
            # first submit, before its own threads, when NumPy's idle BLAS
            # thread is the only other one; the workers make no BLAS call.
            # A spawn pool re-imports NumPy in every worker, and wrote
            # slower than one process on two CPUs. Imported here: one
            # writer does not pay for multiprocessing's import.
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(max_workers=workers) as pool:
                written = collections.deque()
                for task in tasks:
                    seed_ids += (seed.id for seed in task)
                    written.append(pool.submit(write_seeds, task, directory))
                    if len(written) == in_flight:
                        written.popleft().result()
                for future in written:
                    future.result()  # a worker's error is raised here
        else:
            for task in tasks:
                seed_ids += (seed.id for seed in task)
                write_seeds(task, directory)
        write_json(out / "summary.json", {
            "n_seeds": len(seed_ids),
            "rng_seed": rng_seed,
            "seed_ids": seed_ids,
        })
    print(f"synth: wrote {len(seed_ids)} seeds to {Path(args.out) / 'seeds'}")
    return EXIT_OK


# ---------------------------------------------------------------- simulate

def cmd_simulate(args) -> int:
    from .distributions import load_decels, load_glances
    from .engine import MODEL_CBM, CampaignConfig, run_campaign, save_campaign
    cfg = CampaignConfig.from_json(args.config)
    refs = load_seed_refs(args.seeds)  # the workers load the trajectories
    if not refs:
        raise ValidationError(f"no seeds found in {args.seeds}")
    glance = load_glances(cfg.glance_file) if cfg.model == MODEL_CBM else None
    decels = load_decels(cfg.decel_file)
    result = run_campaign(refs, cfg, glance=glance, decels=decels,
                          workers=args.workers)
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
    with publish(args.out, "simulate", inputs,
                 {"model": cfg.model, "workers_independent": True}) as out:
        save_campaign(result, out)
    if result.excluded_ids:
        print(f"simulate: warning: {len(result.excluded_ids)} seeds excluded "
              f"(lead not braking or standing still)", file=sys.stderr)
    print(f"simulate: {result.model} on {len(result.results)} seeds, "
          f"{result.theoretical_cells} theoretical cells, "
          f"{result.kernel_calls} kernel calls, "
          f"{result.crash_cells} crash cells")
    return EXIT_OK


# ------------------------------------------------------------------ weight

def _recovered(campaign: CampaignResult) -> CampaignResult:
    """`campaign` on the marginals the old matrices format gave back: the
    row and column sums of its cell probabilities over their total. Only
    the grid changes, since no seed's record holds a probability. With the
    exact marginals, seeds whose crashes all tie with their own delta-v
    (mid-rank percentile 50 up to rounding) change percentile bin on three
    input sets of perfbench's reference (ROADMAP, item 1)."""
    from .engine import CampaignGrid
    grid = campaign.grid
    p, total = grid.p_cell, grid.p_cell.sum()
    return replace(campaign, grid=CampaignGrid(grid.axis1, p.sum(axis=1) / total,
                                               grid.decels, p.sum(axis=0) / total))


def cmd_weight(args) -> int:
    from .engine import load_campaign
    sim_dir = Path(args.simulate_out)
    weighting = weigh(_recovered(load_campaign(sim_dir)), args.bin_width)
    final = weighting.histogram()
    weights = weighting.weights
    w_unt = np.array([w.w_untrimmed for w in weights])
    w_trim = np.array([w.w for w in weights])
    with publish(args.out, "weight", {"simulate_out": str(sim_dir)},
                 {"bin_width": args.bin_width}) as out:
        table.write_csv(out / "weights.csv", ["seed_id", "q_raw", "q_norm",
                        "w_untrimmed", "w_trimmed", "contribution"], [
            table.texts(w.seed_id for w in weights),
            table.reprs([w.q_raw for w in weights]),
            table.reprs([w.q_norm for w in weights]),
            table.reprs([w.w_untrimmed for w in weights]),
            table.reprs([w.w for w in weights]),
            table.reprs(weighting.contributions())])
        save_histogram(final, out / "hist.csv")
        write_json(out / "summary.json", {
            "mean_kmh": final.mean,
            "count": final.count,
            "n_samples": final.count,
            "zero_crash_seeds": weighting.zero_crash_seeds,
            "n_weighted_seeds": len(weights),
            "n_no_response": len(weighting.no_response_dvs),
            "weight_span_untrimmed": float(w_unt.max() / w_unt.min()),
            "weight_span_trimmed": float(w_trim.max() / w_trim.min()),
            "no_response_fraction": weighting.campaign.no_response_fraction,
        })
    print(f"weight: mean delta-v {final.mean:.2f} km/h over {len(weights)} "
          f"seeds ({len(weighting.zero_crash_seeds)} without crashes)")
    return EXIT_OK


# ---------------------------------------------------------------- fit-bias

def cmd_fit_bias(args) -> int:
    from . import bias
    records = bias.load_occupants(args.occupants)
    injury, injury_read = _reference_histogram(args.injury_hist, args.bin_width)
    model, pdo_hist, diagnostics = bias.build_pdo(
        records, args.p_pdo, args.n_fill_bins, args.bin_width)
    reference = bias.augment_reference(injury, model, args.p_pdo)
    tf, fit_diag = bias.fit_transfer(reference, injury)

    with publish(args.out, "fit-bias",
                 {"occupants": args.occupants, "injury_hist": injury_read},
                 {"p_pdo": args.p_pdo, "n_fill_bins": args.n_fill_bins}) as out:
        write_json(out / "pdo.json", {**vars(model), "diagnostics": diagnostics})
        write_json(out / "transfer.json", {**vars(tf), "cost": fit_diag["cost"],
                                           "saturated": fit_diag["saturated"]})
        save_histogram(reference, out / "augmented_reference.csv")
        save_histogram(pdo_hist, out / "pdo_hist.csv")
        table.write_csv(out / "residual_curve.csv", ["c1", "min_cost_over_c2"], [
            table.reprs(bias.C1_GRID), table.reprs(fit_diag["cost_by_c1"])])
    print(f"fit-bias: PDO shape B1={model.B1:.4g} B2={model.B2:.4g}; "
          f"transfer C1={tf.C1:.3f} C2={tf.C2:.4f} "
          f"(midpoint {tf.midpoint:.1f} km/h, cost {fit_diag['cost']:.4g})")
    if fit_diag["saturated"]:
        print("fit-bias: warning: transfer saturated at the C1 grid edge "
              "(inputs may already share a selection process)", file=sys.stderr)
    return EXIT_OK


# --------------------------------------------------------------- apply-bias

def cmd_apply_bias(args) -> int:
    from . import bias
    dist = load_histogram(args.hist)
    tf = bias.load_transfer(args.transfer)
    transformed = bias.apply_transfer(dist, tf)
    with publish(args.out, "apply-bias",
                 {"hist": args.hist, "transfer": args.transfer}) as out:
        save_histogram(transformed, out / "transformed.csv")
        write_json(out / "summary.json", {
            "mean_kmh": transformed.mean,
            "input_mean_kmh": dist.mean,
            "C1": tf.C1, "C2": tf.C2,
        })
    print(f"apply-bias: mean {dist.mean:.2f} -> {transformed.mean:.2f} km/h")
    return EXIT_OK


# ---------------------------------------------------------------- validate

def cmd_validate(args) -> int:
    from .engine import load_campaign
    from .validation import compare, injury_risk, percentile_histogram, seed_percentiles
    curves = _load_curves(args.curves)
    model_hist = load_histogram(args.model_hist)
    reference, reference_read = _reference_histogram(args.reference,
                                                     model_hist.bin_width)
    stats = compare(model_hist, reference)
    inputs = {"model_hist": args.model_hist, "reference": reference_read}
    if args.seeds_summary:
        sim_dir = Path(args.seeds_summary).parent
        percentiles = seed_percentiles(weigh(_recovered(load_campaign(sim_dir))))
        rep = percentile_histogram(percentiles.values(), args.n_bins)
        inputs["simulate_out"] = str(sim_dir)
    risks = {}
    for curve_path, curve in curves:
        risks[curve.level] = {
            "model": injury_risk(model_hist, curve),
            "reference": injury_risk(reference, curve),
        }
        inputs[f"curve_{curve.level}"] = curve_path

    with publish(args.out, "validate", inputs, {"n_bins": args.n_bins}) as out:
        write_json(out / "comparison.json", {
            "model_mean_kmh": model_hist.mean,
            "reference_mean_kmh": reference.mean,
            **vars(stats),
        })
        if args.seeds_summary:
            table.write_csv(out / "percentiles.csv", ["seed_id", "percentile"], [
                table.texts(percentiles),
                [table.quote(v) if isinstance(v, str) else repr(float(v))
                 for v in percentiles.values()]])
            write_json(out / "percentile_report.json",
                       {**vars(rep), "counts": rep.counts.tolist()})
        if risks:
            write_json(out / "injury_risk.json", risks)
    print(f"validate: TV {stats.tv_distance:.3f}, KS {stats.ks_distance:.3f}, "
          f"KL {stats.kl_divergence:.3f}, "
          f"mean diff {stats.abs_mean_diff:.2f} km/h")
    return EXIT_OK


# --------------------------------------------------------------- assess-dms

def cmd_assess_dms(args) -> int:
    """Glance cuts reweight the baseline's outcomes; nothing is
    simulated, so --seeds and --workers are unused. The deceleration bins
    and their marginal come from the baseline's summary.json; the config's
    glance file must give the baseline's overshoot axis and marginal."""
    from .distributions import cut_glances, load_glances
    from .drivers import cbm_axes
    from .engine import MODEL_CBM, CampaignConfig, CampaignGrid, load_campaign, reweight
    from .validation import crash_avoidance_rate, injury_risk
    repeated = sorted({f"{cut:g}" for cut in args.cuts if args.cuts.count(cut) > 1})
    if repeated:
        raise ValidationError(f"--cuts repeats {', '.join(repeated)}")
    curves = [curve for _, curve in _load_curves(args.curves)]
    cfg = CampaignConfig.from_json(args.config)
    if cfg.model != MODEL_CBM:
        raise ValidationError("glance cutting only applies to the cbm model")
    glance = load_glances(cfg.glance_file)

    baseline_dir = Path(args.baseline)
    baseline = load_campaign(baseline_dir)
    if baseline.model != MODEL_CBM:
        raise ValidationError(f"{baseline_dir}: the baseline must be a cbm campaign")
    grid = baseline.grid
    axis1, axis1_probs = cbm_axes(glance)
    if (axis1.tobytes() != grid.axis1.tobytes()
            or axis1_probs.tobytes() != grid.axis1_probs.tobytes()):
        raise ValidationError(
            f"{baseline_dir}: the baseline was not simulated with the glance "
            f"distribution of {cfg.glance_file}")
    weighting = weigh(baseline, args.bin_width)  # each cut's takes its place
    base_hist = weighting.histogram()
    base_q = {w.seed_id: w.q_raw for w in weighting.weights}

    base_risks = {c.level: injury_risk(base_hist, c) for c in curves}

    rows, hists = [], {}  # hists: file name: histogram
    for cut in args.cuts:
        target = grid if cut == math.inf else CampaignGrid(
            *cbm_axes(cut_glances(glance, cut)), grid.decels, grid.decel_probs)
        weighting = weigh(reweight(baseline, target), args.bin_width)
        cut_hist = weighting.histogram()
        rate, per_seed = crash_avoidance_rate(
            base_q, {w.seed_id: w.q_raw for w in weighting.weights})
        label = "inf" if cut == math.inf else f"{cut:g}"
        hists[f"hist_cut_{label}.csv"] = cut_hist
        row = {
            "cut_at_s": None if cut == math.inf else cut,
            "avoidance_rate": rate,
            "mean_dv_kmh": cut_hist.mean,
            "mean_dv_delta_kmh": cut_hist.mean - base_hist.mean,
            "seeds_without_crashes": len(weighting.zero_crash_seeds),
            "min_per_seed_avoidance": min(per_seed.values()),
        }
        if curves:
            row["injury_risk"] = {
                c.level: {"value": injury_risk(cut_hist, c),
                          "delta": injury_risk(cut_hist, c) - base_risks[c.level]}
                for c in curves}
        rows.append(row)

    with publish(args.out, "assess-dms",
                 {"config": args.config, "glances": cfg.glance_file,
                  "baseline": args.baseline},
                 {"cuts": [None if c == math.inf else c for c in args.cuts]}) as out:
        for name, cut_hist in hists.items():
            save_histogram(cut_hist, out / name)
        write_json(out / "assess.json", {
            "baseline_mean_dv_kmh": base_hist.mean,
            "baseline_injury_risk": base_risks,
            "cuts": rows,
        })
    for row in rows:
        cut = row["cut_at_s"]
        print(f"assess-dms: cut {'none' if cut is None else cut}: "
              f"avoidance {row['avoidance_rate']:.1%}, mean delta-v "
              f"{row['mean_dv_kmh']:.2f} km/h "
              f"({row['mean_dv_delta_kmh']:+.2f})")
    return EXIT_OK


# ------------------------------------------------------------------ report

def _labeled(pairs: list[str] | None, flag: str) -> list[tuple[str, str]]:
    """(label, path) of each label=path of `flag`; a repeated label raises
    ValidationError naming it."""
    out: dict[str, str] = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ValidationError(f"expected label=path, got {pair!r}")
        label, path = pair.split("=", 1)
        if label in out:
            raise ValidationError(f"{flag} repeats label {label!r}")
        out[label] = path
    return list(out.items())


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
    hists = _labeled(args.hist, "--hist")
    percentiles = _labeled(args.percentiles, "--percentiles")
    if not (hists or percentiles or args.assess):
        raise ValidationError("report: nothing to do (pass --hist/--percentiles/--assess)")
    series = [(label, load_histogram(path)) for label, path in hists]
    stats = [vars(compare(dist, series[0][1])) for _, dist in series[1:]]
    reps = [(label, _load_percentile_report(path)) for label, path in percentiles]
    cuts = _load_assessment_cuts(args.assess) if args.assess else []
    inputs = {**{f"hist_{label}": path for label, path in hists},
              **{f"percentiles_{label}": path for label, path in percentiles},
              **({"assess": args.assess} if args.assess else {})}

    with publish(args.out, "report", inputs) as out:
        if series:
            report.histogram_svg(series, "Delta-v distributions", out / "delta_v.svg")
        if stats:
            ref_label = series[0][0]
            table.write_csv(out / "stats.csv", ["pair", *stats[0]], [
                table.texts(f"{ref_label} vs {label}" for label, _ in series[1:]),
                *(table.reprs([s[name] for s in stats]) for name in stats[0])])
        if reps:
            report.percentile_svg(reps, "Seed percentile uniformity",
                                  out / "percentiles.svg")
        if args.assess:
            labels = ["no cut" if row["cut_at_s"] is None else f"cut {row['cut_at_s']}s"
                      for row in cuts]
            values = [row["avoidance_rate"] for row in cuts]
            report.bar_svg(labels, values, "Crash avoidance rate",
                           "avoidance rate", out / "avoidance.svg")
        written = len(list(out.iterdir()))
    print(f"report: wrote {written} artifacts to {args.out}")
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
    p.add_argument("--out", required=True, help=OUT_HELP)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("simulate", help="run a simulation campaign")
    p.add_argument("--seeds", required=True)
    p.add_argument("--config", required=True,
                   help="a JSON object of CampaignConfig fields, with the "
                        "CbmConfig fields under 'cbm'; an unknown key or a "
                        "bad value exits 2")
    p.add_argument("--out", required=True, help=OUT_HELP)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("weight", help="prevalence-weight campaign outcomes")
    p.add_argument("--simulate-out", required=True)
    p.add_argument("--out", required=True, help=OUT_HELP)
    p.add_argument("--bin-width", type=float, default=DEFAULT_BIN_WIDTH_KMH)
    p.set_defaults(func=cmd_weight)

    p = sub.add_parser("fit-bias", help="fit the PDO shape and transfer function")
    p.add_argument("--occupants", required=True)
    p.add_argument("--injury-hist", required=True,
                   help="histogram CSV or a seeds directory, of which only "
                        "the JSON sidecars are read")
    p.add_argument("--out", required=True, help=OUT_HELP)
    p.add_argument("--p-pdo", type=float, default=DEFAULT_P_PDO)
    p.add_argument("--n-fill-bins", type=int, default=DEFAULT_N_FILL_BINS)
    p.add_argument("--bin-width", type=float, default=DEFAULT_BIN_WIDTH_KMH)
    p.set_defaults(func=cmd_fit_bias)

    p = sub.add_parser("apply-bias", help="apply a fitted transfer function")
    p.add_argument("--hist", required=True)
    p.add_argument("--transfer", required=True)
    p.add_argument("--out", required=True, help=OUT_HELP)
    p.set_defaults(func=cmd_apply_bias)

    p = sub.add_parser("validate", help="compare model output to a reference")
    p.add_argument("--model-hist", required=True)
    p.add_argument("--reference", required=True,
                   help="histogram CSV or a seeds directory, of which only "
                        "the JSON sidecars are read")
    p.add_argument("--out", required=True, help=OUT_HELP)
    p.add_argument("--samples", default=None,
                   help="unused; accepted so existing command lines still run")
    p.add_argument("--seeds-summary", default=None,
                   help="a path in simulate's output directory, of which "
                        "only the directory is used, and the file need not "
                        "exist: each seed's percentile is built from that "
                        "directory's summary.json, seeds.npy and matrices.npy")
    p.add_argument("--curves", nargs="*", default=None, help=CURVES_HELP)
    p.add_argument("--n-bins", type=int, default=10)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser(
        "assess-dms", help="assess glance-cutting interventions",
        description="Reweight the baseline's outcomes under each "
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
    p.add_argument("--out", required=True, help=OUT_HELP)
    p.add_argument("--workers", type=int, default=1,
                   help="unused; accepted so existing command lines still run")
    p.add_argument("--bin-width", type=float, default=DEFAULT_BIN_WIDTH_KMH)
    p.add_argument("--curves", nargs="*", default=None, help=CURVES_HELP)
    p.set_defaults(func=cmd_assess_dms)

    p = sub.add_parser("report", help="emit SVG charts and stats tables")
    p.add_argument("--hist", nargs="*", default=None, metavar="LABEL=PATH")
    p.add_argument("--percentiles", nargs="*", default=None, metavar="LABEL=PATH")
    p.add_argument("--assess", default=None)
    p.add_argument("--out", required=True, help=OUT_HELP)
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
