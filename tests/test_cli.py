import ast
import contextlib
import csv
import importlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rearsim
from rearsim.bias import OccupantRecord, load_transfer, save_occupants
from rearsim.cli import (
    SOURCE_NO_RESPONSE,
    _load_samples,
    _load_seeds_summary,
    _per_seed_percentiles,
    main,
)
from rearsim.errors import ParseError
from rearsim.outcome import load_histogram
from rearsim.scenario import load_seed
from rearsim.distributions import cut_glances, save_decels, save_glances

from fixtures import shrp2_like_decels, shrp2_like_glances
from test_bias import folksam_like_records


@contextlib.contextmanager
def chdir(path: Path):
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


def write_inputs(root: Path, n_seeds=8, lead_mix=None) -> dict:
    """Materialize config + distribution files for a small pipeline run.
    Configs reference inputs by relative path so two runs in different
    directories see byte-identical inputs."""
    root.mkdir(parents=True, exist_ok=True)
    save_glances(shrp2_like_glances(), root / "glances.csv")
    save_decels(shrp2_like_decels(), root / "decels.csv")

    synth_cfg = {"n_seeds": n_seeds}
    if lead_mix:
        synth_cfg["lead_mix"] = lead_mix
    (root / "synth.json").write_text(json.dumps(synth_cfg))

    campaign = {
        "model": "cbm",
        "glance_file": "inputs/glances.csv",
        "decel_file": "inputs/decels.csv",
    }
    (root / "campaign.json").write_text(json.dumps(campaign))

    blom = dict(campaign, model="blom")
    blom.pop("glance_file")
    (root / "blom.json").write_text(json.dumps(blom))

    save_occupants(folksam_like_records(n=400), root / "occupants.csv")
    (root / "mais1.json").write_text(json.dumps(
        {"level": "mais1+", "intercept": -4.0, "slope": 0.2}))
    return {"synth": "inputs/synth.json", "campaign": "inputs/campaign.json",
            "blom": "inputs/blom.json", "occupants": "inputs/occupants.csv",
            "curve": "inputs/mais1.json"}


def run_pipeline(root: Path, paths: dict, workers=1) -> dict:
    out = {name: root / f"out_{name}" for name in
           ("synth", "simulate", "weight", "fit", "apply", "validate",
            "assess", "report")}
    with chdir(root):
        assert main(["synth", "--config", paths["synth"],
                     "--out", "out_synth", "--seed", "5"]) == 0
        seeds_dir = "out_synth/seeds"
        assert main(["simulate", "--seeds", seeds_dir,
                     "--config", paths["campaign"], "--out", "out_simulate",
                     "--workers", str(workers)]) == 0
        assert main(["weight", "--simulate-out", "out_simulate",
                     "--out", "out_weight"]) == 0
        assert main(["fit-bias", "--occupants", paths["occupants"],
                     "--injury-hist", seeds_dir, "--out", "out_fit"]) == 0
        assert main(["apply-bias", "--hist", "out_weight/hist.csv",
                     "--transfer", "out_fit/transfer.json",
                     "--out", "out_apply"]) == 0
        assert main(["validate", "--model-hist", "out_apply/transformed.csv",
                     "--reference", seeds_dir,
                     "--samples", "out_weight/samples.csv",
                     "--seeds-summary", "out_simulate/seeds_summary.csv",
                     "--curves", paths["curve"],
                     "--out", "out_validate"]) == 0
        assert main(["assess-dms", "--seeds", seeds_dir,
                     "--config", paths["campaign"],
                     "--baseline", "out_simulate",
                     "--cuts", "3.0", "2.0", "inf",
                     "--out", "out_assess", "--curves", paths["curve"]]) == 0
        assert main(["report",
                     "--hist", "reference=out_fit/augmented_reference.csv",
                     "model=out_apply/transformed.csv",
                     "--percentiles", "cbm=out_validate/percentile_report.json",
                     "--assess", "out_assess/assess.json",
                     "--out", "out_report"]) == 0
    return out


def tree_bytes(paths: dict) -> dict:
    """Every output file's bytes, with manifest timestamps stripped."""
    blobs = {}
    for out_dir in paths.values():
        for p in sorted(Path(out_dir).rglob("*")):
            if not p.is_file():
                continue
            data = p.read_bytes()
            if p.name == "manifest.json":
                manifest = json.loads(data)
                manifest.pop("timestamp", None)
                data = json.dumps(manifest, sort_keys=True).encode()
            blobs[str(p.relative_to(out_dir.parent))] = data
    return blobs


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipe")
    paths = write_inputs(root / "inputs")
    outputs = run_pipeline(root, paths)
    return root, paths, outputs


class TestPipeline:
    def test_all_artifacts_exist(self, pipeline):
        _, _, out = pipeline
        expected = [
            out["simulate"] / "matrices.csv",
            out["simulate"] / "seeds_summary.csv",
            out["weight"] / "hist.csv",
            out["weight"] / "samples.csv",
            out["weight"] / "weights.csv",
            out["fit"] / "pdo.json",
            out["fit"] / "transfer.json",
            out["fit"] / "residual_curve.csv",
            out["apply"] / "transformed.csv",
            out["validate"] / "comparison.json",
            out["validate"] / "percentiles.csv",
            out["validate"] / "injury_risk.json",
            out["assess"] / "assess.json",
            out["report"] / "delta_v.svg",
            out["report"] / "percentiles.svg",
            out["report"] / "avoidance.svg",
            out["report"] / "stats.csv",
        ]
        for path in expected:
            assert path.is_file(), path
        for out_dir in out.values():
            assert (Path(out_dir) / "manifest.json").is_file()

    def test_no_response_mass_is_ten_percent(self, pipeline):
        _, _, out = pipeline
        total = 0.0
        with open(out["weight"] / "samples.csv") as fh:
            next(fh)
            for line in fh:
                sid, dv, w, source = line.strip().split(",")
                if source == "no_response":
                    total += float(w)
        assert total == pytest.approx(0.10, abs=1e-9)

    def test_avoidance_rates_ordered(self, pipeline):
        _, _, out = pipeline
        with open(out["assess"] / "assess.json") as fh:
            assess = json.load(fh)
        by_cut = {row["cut_at_s"]: row["avoidance_rate"] for row in assess["cuts"]}
        assert by_cut[None] == pytest.approx(0.0, abs=1e-12)
        assert by_cut[2.0] >= by_cut[3.0] >= by_cut[None]

    def test_rerun_is_byte_identical(self, pipeline, tmp_path):
        root, _, out_first = pipeline
        paths = write_inputs(tmp_path / "inputs")
        out_second = run_pipeline(tmp_path, paths)
        first = tree_bytes(out_first)
        second = tree_bytes(out_second)
        assert first.keys() == second.keys()
        mismatched = [k for k in first if first[k] != second[k]]
        assert mismatched == []

    def test_worker_count_does_not_change_output(self, pipeline, tmp_path):
        root, paths, out_first = pipeline
        sim_out = tmp_path / "out_sim_w2"
        with chdir(root):
            assert main(["simulate", "--seeds", "out_synth/seeds",
                         "--config", paths["campaign"],
                         "--out", str(sim_out), "--workers", "2"]) == 0
        a = (out_first["simulate"] / "matrices.csv").read_bytes()
        b = (sim_out / "matrices.csv").read_bytes()
        assert a == b


class TestExitCodes:
    def test_blom_on_ineligible_seeds_exits_three(self, tmp_path):
        paths = write_inputs(tmp_path / "inputs", n_seeds=3,
                             lead_mix={"standstill": 3})
        with chdir(tmp_path):
            assert main(["synth", "--config", paths["synth"],
                         "--out", "synth", "--seed", "1"]) == 0
            code = main(["simulate", "--seeds", "synth/seeds",
                         "--config", paths["blom"], "--out", "sim"])
        assert code == 3

    def test_missing_config_exits_two(self, tmp_path):
        code = main(["synth", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "out")])
        assert code == 2

    def test_bad_campaign_key_exits_two(self, tmp_path):
        paths = write_inputs(tmp_path / "inputs", n_seeds=2)
        with chdir(tmp_path):
            assert main(["synth", "--config", paths["synth"],
                         "--out", "synth", "--seed", "1"]) == 0
            # rng_seed was a setting once; the sweep draws no random numbers
            for key in ("bogus_key", "rng_seed"):
                Path("bad.json").write_text(json.dumps({"model": "cbm", key: 1}))
                code = main(["simulate", "--seeds", "synth/seeds",
                             "--config", "bad.json", "--out", "sim"])
                assert code == 2, key

    def test_fit_needs_both_severity_groups(self, tmp_path):
        # occupants with no injured records cannot support the accounting
        occ = tmp_path / "occ.csv"
        occ.write_text("delta_v_kmh,mais,role\n5.0,0,driver\n7.0,0,driver\n")
        hist = tmp_path / "h.csv"
        hist.write_text("bin_low_kmh,bin_high_kmh,weight\n0.0,2.0,1.0\n")
        code = main(["fit-bias", "--occupants", str(occ),
                     "--injury-hist", str(hist),
                     "--out", str(tmp_path / "fit")])
        assert code == 2

    def test_fit_failure_exits_four(self, tmp_path, capsys):
        # no PDO deficit at p_pdo 0.5 and one positive bin: the exponential
        # PDO shape cannot be fitted
        occ = tmp_path / "occ.csv"
        save_occupants([OccupantRecord(50.0, 0, "driver")] * 10
                       + [OccupantRecord(30.0, 2, "driver")] * 10, occ)
        hist = tmp_path / "h.csv"
        hist.write_text("bin_low_kmh,bin_high_kmh,weight\n0.0,2.0,1.0\n")
        code = main(["fit-bias", "--occupants", str(occ),
                     "--injury-hist", str(hist), "--p-pdo", "0.5",
                     "--out", str(tmp_path / "fit")])
        assert code == 4
        assert "at least two positive bins" in capsys.readouterr().err


def test_traced_layers_resolve():
    """Every (module, function) the benchmark's tracer wraps exists in
    rearsim, so moving a traced layer fails here instead of reading 0."""
    path = Path(__file__).parent.parent / "perfbench" / "tracing.py"
    tree = ast.parse(path.read_text())
    wrapped = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and [t.id for t in node.targets] == ["WRAPPED"])
    assert len(wrapped) == 22
    for module, name in wrapped:
        assert callable(getattr(importlib.import_module(f"rearsim.{module}"),
                                name, None)), f"{module}.{name}"


def test_cli_import_does_not_load_scipy():
    src = str(Path(rearsim.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, rearsim.cli; print('scipy' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def _assess(paths: dict, baseline: str) -> int:
    return main(["assess-dms", "--config", paths["campaign"],
                 "--baseline", baseline, "--cuts", "2.0", "inf",
                 "--out", "out_assess_rejected"])


class TestAssessDmsRejectsMismatchedBaseline:
    """assess-dms reweights the baseline and never re-simulates, so a
    baseline that does not fit the config is an input error."""

    def _simulate(self, config: dict, out: str) -> None:
        Path(f"{out}.json").write_text(json.dumps(config))
        assert main(["simulate", "--seeds", "out_synth/seeds",
                     "--config", f"{out}.json", "--out", out]) == 0

    def test_blom_baseline(self, pipeline):
        root, paths, _ = pipeline
        with chdir(root):
            assert main(["simulate", "--seeds", "out_synth/seeds",
                         "--config", paths["blom"], "--out", "sim_blom"]) == 0
            assert _assess(paths, "sim_blom") == 2

    def test_baseline_from_other_glance_file(self, pipeline):
        root, paths, _ = pipeline
        with chdir(root):
            save_glances(cut_glances(shrp2_like_glances(), 3.0),
                         "other_glances.csv")
            campaign = json.loads(Path(paths["campaign"]).read_text())
            self._simulate(dict(campaign, glance_file="other_glances.csv"),
                           "sim_other_glances")
            assert _assess(paths, "sim_other_glances") == 2

    def test_already_cut_baseline(self, pipeline):
        root, paths, _ = pipeline
        with chdir(root):
            campaign = json.loads(Path(paths["campaign"]).read_text())
            self._simulate(dict(campaign, glance_cut_at=3.0), "sim_cut")
            assert _assess(paths, "sim_cut") == 2

    def test_truncated_matrices(self, pipeline):
        root, paths, out = pipeline
        with chdir(root):
            shutil.copytree(out["simulate"], "sim_truncated")
            matrices = Path("sim_truncated/matrices.csv")
            data = matrices.read_bytes()
            matrices.write_bytes(data[:len(data) // 2])
            assert _assess(paths, "sim_truncated") == 2
            assert main(["weight", "--simulate-out", "sim_truncated",
                         "--out", "weight_truncated"]) == 2


def test_header_only_curve_exits_two(pipeline):
    root, _, _ = pipeline
    with chdir(root):
        Path("empty_curve.csv").write_text("delta_v_kmh,risk\n")
        assert main(["validate", "--model-hist", "out_apply/transformed.csv",
                     "--reference", "out_synth/seeds",
                     "--curves", "empty_curve.csv",
                     "--out", "validate_empty_curve"]) == 2



def test_validate_mixes_the_simulated_no_response_fraction(pipeline):
    """validate reads the no-response share from simulate's summary.json,
    so its per-seed mixtures match the one weight built the histogram
    from."""
    root, paths, _ = pipeline
    with chdir(root):
        campaign = json.loads(Path(paths["campaign"]).read_text())
        Path("campaign_f25.json").write_text(json.dumps(
            dict(campaign, cbm={"no_response_fraction": 0.25})))
        assert main(["simulate", "--seeds", "out_synth/seeds", "--config",
                     "campaign_f25.json", "--out", "sim_f25"]) == 0
        assert main(["weight", "--simulate-out", "sim_f25",
                     "--out", "weight_f25"]) == 0
        assert main(["validate", "--model-hist", "out_apply/transformed.csv",
                     "--reference", "out_synth/seeds",
                     "--samples", "weight_f25/samples.csv",
                     "--seeds-summary", "sim_f25/seeds_summary.csv",
                     "--out", "validate_f25"]) == 0
        weighted = json.loads(Path("weight_f25/summary.json").read_text())
        samples = _load_samples(Path("weight_f25/samples.csv"))
        rows = _load_seeds_summary(Path("sim_f25/seeds_summary.csv"))
        with open("validate_f25/percentiles.csv", newline="") as fh:
            got = {row["seed_id"]: row["percentile"] for row in csv.DictReader(fh)}
    nr_mass = sum(float(np.cumsum(entry[SOURCE_NO_RESPONSE][1])[-1])
                  for entry in samples.values() if entry[SOURCE_NO_RESPONSE][1].size)
    assert weighted["no_response_fraction"] == 0.25
    assert nr_mass == pytest.approx(0.25, abs=1e-9)
    want = _per_seed_percentiles(samples, rows, 0.25)
    assert got == {sid: repr(float(v)) for sid, v in want.items()}
    assert want != _per_seed_percentiles(samples, rows, 0.10)


def test_blom_exclusion_warning_is_printed_once(pipeline):
    """In a process of its own, where no test harness captures logging."""
    root, paths, _ = pipeline
    src = str(Path(rearsim.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-m", "rearsim.cli", "simulate", "--seeds",
         "out_synth/seeds", "--config", paths["blom"], "--out", "sim_blom_once"],
        cwd=root, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads((root / "sim_blom_once" / "summary.json").read_text())
    assert summary["n_excluded"] > 0
    assert proc.stderr.count("excluded") == 1, proc.stderr

def _edit_row(line: int, edit):
    """Text edit: apply `edit` to the fields of CSV line `line` (1-based)."""
    def apply(text: str) -> str:
        lines = text.split("\r\n")
        lines[line - 1] = ",".join(edit(lines[line - 1].split(",")))
        return "\r\n".join(lines)
    return apply


def _set_field(k: int, value: str):
    return lambda fields: fields[:k] + [value] + fields[k + 1:]


# name: (input file, its CSV line, field, column named in the error)
NON_FINITE_INPUTS = {
    "decel_probability": ("decels.csv", 2, 1, "deceleration probability"),
    "decel_d_max": ("decels.csv", 2, 0, "deceleration d_max_ms2"),
    "glance_probability": ("glances.csv", 3, 1, "glance probability"),
}


@pytest.mark.parametrize("name", sorted(NON_FINITE_INPUTS))
def test_non_finite_distribution_input_exits_two(name, tmp_path, capsys):
    file, line, field, column = NON_FINITE_INPUTS[name]
    paths = write_inputs(tmp_path / "inputs", n_seeds=2)
    path = tmp_path / "inputs" / file
    edit = _edit_row(line, _set_field(field, "nan"))
    path.write_bytes(edit(path.read_bytes().decode()).encode())
    with chdir(tmp_path):
        assert main(["synth", "--config", paths["synth"],
                     "--out", "synth", "--seed", "1"]) == 0
        capsys.readouterr()
        code = main(["simulate", "--seeds", "synth/seeds",
                     "--config", paths["campaign"], "--out", "sim"])
    err = capsys.readouterr().err
    assert code == 2
    assert f"error: {column} values must be finite" in err
    assert "Traceback" not in err


_SIMULATE = ["simulate", "--seeds", "out_synth/seeds", "--config",
             "inputs/campaign.json", "--out", "bad_simulate"]
_WEIGHT = ["weight", "--simulate-out", "out_simulate", "--out", "bad_weight"]
_APPLY = ["apply-bias", "--hist", "out_weight/hist.csv",
          "--transfer", "out_fit/transfer.json", "--out", "bad_apply"]
_VALIDATE = ["validate", "--model-hist", "out_apply/transformed.csv",
             "--reference", "out_synth/seeds", "--samples",
             "out_weight/samples.csv", "--seeds-summary",
             "out_simulate/seeds_summary.csv", "--out", "bad_validate"]

# name: (file, loader, edit of its text, error location, command reading it)
MALFORMED_INPUTS = {
    "seed_short_row": (
        "out_synth/seeds/s0000.csv", load_seed,
        _edit_row(3, lambda f: f[:-1]), r"s0000\.csv:3:", _SIMULATE),
    "seed_extra_field": (
        "out_synth/seeds/s0000.csv", load_seed,
        _edit_row(3, lambda f: f + ["0.0"]), r"s0000\.csv:3:", _SIMULATE),
    "samples_unknown_source": (
        "out_weight/samples.csv", _load_samples,
        _edit_row(2, _set_field(3, "other")), r"samples\.csv:2:", _VALIDATE),
    "samples_non_numeric_weight": (
        "out_weight/samples.csv", _load_samples,
        _edit_row(4, _set_field(2, "heavy")), r"samples\.csv:4:", _VALIDATE),
    "samples_truncated_last_row": (
        "out_weight/samples.csv", _load_samples,
        lambda text: text[:text.rstrip("\r\n").rindex(",")],
        r"samples\.csv:\d+: expected 4 fields, got 3", _VALIDATE),
    "summary_non_numeric_mass": (
        "out_simulate/seeds_summary.csv", _load_seeds_summary,
        _edit_row(2, _set_field(5, "heavy")), r"seeds_summary\.csv:2:",
        _WEIGHT),
    "histogram_non_numeric_weight": (
        "out_weight/hist.csv", load_histogram,
        _edit_row(3, _set_field(2, "x")), r"hist\.csv:3:", _APPLY),
    "transfer_without_c2": (
        "out_fit/transfer.json", load_transfer,
        lambda text: json.dumps({k: v for k, v in json.loads(text).items()
                                 if k != "C2"}),
        r"transfer\.json", _APPLY),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_INPUTS))
def test_malformed_input_is_parse_error_and_exits_two(name, pipeline, tmp_path,
                                                      capsys):
    root, _, _ = pipeline
    copy = tmp_path / "copy"
    shutil.copytree(root, copy, ignore=shutil.ignore_patterns("bad_*"))
    file, loader, edit, where, command = MALFORMED_INPUTS[name]
    path = copy / file
    path.write_bytes(edit(path.read_bytes().decode()).encode())
    with pytest.raises(ParseError, match=where):
        loader(path)
    capsys.readouterr()
    with chdir(copy):
        assert main(command) == 2
    assert re.search(where, capsys.readouterr().err)
