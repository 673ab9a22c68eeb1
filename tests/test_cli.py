import argparse
import ast
import contextlib
import csv
import dataclasses
import hashlib
import importlib
import inspect
import io
import itertools
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rearsim
from rearsim import cli, outcome, scenario, table
from rearsim.bias import (
    OccupantRecord,
    build_pdo,
    fit_transfer,
    load_occupants,
    load_transfer,
)
from rearsim.cli import (
    SYNTH_BATCH,
    SYNTH_TASK,
    _load_assessment_cuts,
    _load_percentile_report,
    _recovered,
    _reference_histogram,
    main,
)
from rearsim.drivers import CbmConfig
from rearsim.engine import (
    CampaignConfig,
    CampaignGrid,
    CampaignResult,
    load_campaign,
    run_campaign,
)
from rearsim.errors import GenerationError, ParseError, ValidationError
from rearsim.manifest import KINDS, digest_tree, file_digest
from rearsim.outcome import (
    DEFAULT_BIN_WIDTH_KMH,
    HISTOGRAM_CSV_HEADER,
    ROW_BLOCK,
    CrashSamples,
    build_histogram,
    load_histogram,
    weigh,
    weighted_crash_samples,
)
from rearsim.scenario import SynthesisConfig, load_seed, load_seed_refs
from rearsim.distributions import cut_glances, load_decels, load_glances
from rearsim.validation import load_injury_curve, percentile_histogram, seed_percentiles

from fixtures import (
    Outcome,
    load_seed_dir,
    save_decels,
    save_glances,
    save_occupants,
    shrp2_like_decels,
    shrp2_like_glances,
    swept_result,
    traced_peak,
)
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
    return dict(INPUT_PATHS)


# each input file `write_inputs` writes, relative to the pipeline's root
INPUT_PATHS = {"synth": "inputs/synth.json", "campaign": "inputs/campaign.json",
               "blom": "inputs/blom.json", "occupants": "inputs/occupants.csv",
               "curve": "inputs/mais1.json"}


# simulate's outputs but its manifest
SIMULATE_ARTIFACTS = ("matrices.npy", "seeds.npy", "summary.json")

# the columns of the seeds_summary.csv report that an older simulate wrote
# beside its artifacts, and that no stage reads
OLD_SEEDS_SUMMARY_HEADER = (
    "seed_id", "eligible", "lead_behavior", "anchor_time_s", "anchor_absent",
    "follower_mass_kg", "lead_mass_kg", "seed_delta_v_kmh",
    "no_resp_crashed", "no_resp_v1", "no_resp_v2", "no_resp_dv_kmh",
    "n_crash_cells", "q_raw", "kernel_calls", "theoretical_cells",
)


def pipeline_commands(paths: dict, workers=1) -> dict[str, list[str]]:
    """Each stage's command line in the pipeline, in order, by the name of
    its output directory out_<name>; paths are relative to the pipeline's
    root."""
    seeds_dir = "out_synth/seeds"
    commands = {
        "synth": ["synth", "--config", paths["synth"], "--seed", "5"],
        "simulate": ["simulate", "--seeds", seeds_dir, "--config", paths["campaign"],
                     "--workers", str(workers)],
        "weight": ["weight", "--simulate-out", "out_simulate"],
        "fit": ["fit-bias", "--occupants", paths["occupants"],
                "--injury-hist", seeds_dir],
        "apply": ["apply-bias", "--hist", "out_weight/hist.csv",
                  "--transfer", "out_fit/transfer.json"],
        # perfbench's command line: --samples and --seeds-summary name files
        # that no stage writes any more; validate reads neither, and takes
        # only the directory of --seeds-summary
        "validate": ["validate", "--model-hist", "out_apply/transformed.csv",
                     "--reference", seeds_dir, "--samples", "out_weight/samples.csv",
                     "--seeds-summary", "out_simulate/seeds_summary.csv",
                     "--curves", paths["curve"]],
        "assess": ["assess-dms", "--seeds", seeds_dir, "--config", paths["campaign"],
                   "--baseline", "out_simulate", "--cuts", "3.0", "2.0", "inf",
                   "--curves", paths["curve"]],
        "report": ["report", "--hist", "reference=out_fit/augmented_reference.csv",
                   "model=out_apply/transformed.csv",
                   "--percentiles", "cbm=out_validate/percentile_report.json",
                   "--assess", "out_assess/assess.json"],
    }
    return {name: command + ["--out", f"out_{name}"] for name, command in commands.items()}


STAGES = tuple(pipeline_commands(INPUT_PATHS))


def run_pipeline(root: Path, paths: dict, workers=1) -> dict:
    with chdir(root):
        for name, command in pipeline_commands(paths, workers).items():
            assert main(command) == 0, name
    return {name: root / f"out_{name}" for name in STAGES}


def _split_last_column(path: Path) -> tuple[bytes, bytes]:
    """The bytes of a CSV file without its last column, and of that column
    alone, each line ended as in the file."""
    lines = [line.rpartition(b",") for line in path.read_bytes().split(b"\r\n")]
    return (b"\r\n".join(head for head, _, _ in lines),
            b"\r\n".join(last for _, _, last in lines))


def _column(path: Path, name: str) -> list[float]:
    with open(path, newline="") as fh:
        return [float(row[name]) for row in csv.DictReader(fh)]


def tree_bytes(paths: dict) -> dict:
    """Every output file's bytes, with manifest timestamps stripped."""
    return {f"{Path(out_dir).name}/{name}": data for out_dir in paths.values()
            for name, data in _published(Path(out_dir)).items()}


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
            out["simulate"] / "matrices.npy",
            out["weight"] / "hist.csv",
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
        assert not (out["weight"] / "samples.csv").exists()
        assert not (out["simulate"] / "seeds_summary.csv").exists()
        # simulate writes the files load_campaign reads, and its manifest
        assert (sorted(path.name for path in out["simulate"].iterdir())
                == sorted([*SIMULATE_ARTIFACTS, "manifest.json"]))

    def test_no_response_mass_is_ten_percent(self, pipeline):
        """The crash samples carry 0.90 of the mix, the no-response
        samples the remaining 0.10."""
        _, _, out = pipeline
        weighted = json.loads((out["weight"] / "summary.json").read_text())
        crash_mass = sum(_column(out["weight"] / "weights.csv", "contribution"))
        assert weighted["no_response_fraction"] == 0.10
        assert weighted["n_no_response"] > 0
        assert crash_mass == pytest.approx(0.90, abs=1e-9)

    def test_percentile_artifacts_are_pinned(self, pipeline):
        """The per-seed percentiles and the seed weights (weights.csv but
        its contribution column) are the bytes they were when validate read
        its samples from weight's samples.csv. The contributions are the
        bytes they became when weight summed them from the row statistics."""
        _, _, out = pipeline
        weights, contribution = _split_last_column(out["weight"] / "weights.csv")
        blobs = {path.name: path.read_bytes() for path in (
            out["validate"] / "percentiles.csv", out["validate"] / "percentile_report.json")}
        blobs["weights.csv but contribution"] = weights
        blobs["contribution"] = contribution
        assert {name: hashlib.sha256(blob).hexdigest() for name, blob in blobs.items()} == {
            "percentiles.csv":
                "22c05f35b52a7ae631da9a2a8518c4cbd138db9f045c32d5cc9dcf1014f8f102",
            "percentile_report.json":
                "cd9c9c42c675e922285b3e80e77d9790ff29ed1d941fa1c5848a1e447bf61fc7",
            "weights.csv but contribution":
                "6fe2e0a7822eb763fd1251332d9f203df60626bc0a007ded445e83d66d03c4ab",
            "contribution":
                "28cdc76bef290cf37e95d74161a1da8d49be334667e1805b96f8f1b042c993bd",
        }

    def test_q_raw_is_the_crash_mass_weight_reads(self, pipeline):
        """Each seed's q_raw is bitwise its crash mass on the grid of the
        campaign weight reads, and only seeds with crash mass are listed."""
        _, _, out = pipeline
        campaign = _recovered(load_campaign(out["simulate"]))
        with open(out["weight"] / "weights.csv", newline="") as fh:
            got = {row["seed_id"]: float(row["q_raw"]).hex() for row in csv.DictReader(fh)}
        grid = campaign.grid
        assert got == {r.seed_id: r.crash_mass(grid).hex() for r in campaign.swept
                       if r.crash_mass(grid) > 0}

    def test_simulate_artifacts_are_pinned(self, pipeline):
        """simulate's outputs from the seed files on disk, and its manifest
        without the timestamp. matrices.npy holds the speeds of the
        integrated cells without their crashed and max_severity flags, and
        summary.json has no glance_cut_at key. seeds.npy holds each seed's
        record. The manifest lists these three files and no
        seeds_summary.csv."""
        _, _, out = pipeline
        sim = out["simulate"]
        manifest = json.loads((sim / "manifest.json").read_bytes())
        manifest.pop("timestamp")
        blobs = {name: (sim / name).read_bytes() for name in SIMULATE_ARTIFACTS}
        blobs["manifest.json"] = json.dumps(manifest, sort_keys=True).encode()
        assert {name: hashlib.sha256(blob).hexdigest()
                for name, blob in blobs.items()} == {
            "matrices.npy":
                "5ff87f48c73c55e441becb28d0c152a61d9b1c4cab2e3e5d7cec5785bba823da",
            "seeds.npy":
                "ef23725b09a89a87c9724a94c2bd57c00a6ed2e9dd2ff8e9e4441ea5cc2c5398",
            "summary.json":
                "9d1737179e61def7a3982ef6f68515b351efecb50841a775937f5eccb9b5fe10",
            "manifest.json":
                "0520a46e3db1e07db74c1fecc60126dc19266c5fa37c52089939435bc371d806",
        }

    def test_weight_and_assess_artifacts_are_pinned(self, pipeline):
        """weight's histogram and summary and assess-dms's outputs, each
        mixing in the no-response share, are the bytes they became when the
        histograms and their means were summed from the row statistics."""
        _, _, out = pipeline
        pinned = {
            out["weight"] / "hist.csv":
                "b44655c6e767d2d73cb9afb4fb81af660e9a3bbb25aee97c6c8406fab8cb0adf",
            out["weight"] / "summary.json":
                "bc32500e3dd187a1c45492b70565d32ca7075f0aa517b0cb9eb521f0f61f0155",
            out["assess"] / "assess.json":
                "9f642b5fba3e7bf3cd3b11242f7db41478926ad480e47617dfd206e805ffe57e",
            out["assess"] / "hist_cut_3.csv":
                "a40f44fd327f869770bd2ecb64afabb4f09f9b703bdfeabb86a6cfb7c562bd28",
            out["assess"] / "hist_cut_2.csv":
                "c03de50eb79cbe7fd48174232c1dd152b9605872881def9d5590ecb5e480e6f2",
            out["assess"] / "hist_cut_inf.csv":
                "43eb4a9345e966e7d37b1a9375f0ba56707119334d33e339daabdb8b9d1ed5f6",
        }
        assert {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                for path in pinned} == {path.name: d for path, d in pinned.items()}

    def test_avoidance_rates_ordered(self, pipeline):
        _, _, out = pipeline
        with open(out["assess"] / "assess.json") as fh:
            assess = json.load(fh)
        by_cut = {row["cut_at_s"]: row["avoidance_rate"] for row in assess["cuts"]}
        # no cut reweights the baseline onto its own grid: nothing changes
        assert by_cut[None] == 0.0
        assert assess["cuts"][-1]["mean_dv_delta_kmh"] == 0.0
        assert by_cut[2.0] >= by_cut[3.0] >= by_cut[None]

    def test_avoidance_chart_labels_the_uncut_row(self, pipeline):
        """Each cut's bar is labeled with its length, the uncut baseline's
        "no cut"."""
        _, _, out = pipeline
        svg = (out["report"] / "avoidance.svg").read_text()
        labels = re.findall(r'font-size="11">(cut [^<]*|no cut)</text>', svg)
        assert labels == ["cut 3.0s", "cut 2.0s", "no cut"]
        assert "none" not in svg

    def test_rerun_is_byte_identical(self, pipeline, tmp_path):
        root, _, out_first = pipeline
        paths = write_inputs(tmp_path / "inputs")
        out_second = run_pipeline(tmp_path, paths)
        first = tree_bytes(out_first)
        second = tree_bytes(out_second)
        assert first.keys() == second.keys()
        mismatched = [k for k in first if first[k] != second[k]]
        assert mismatched == []

    def test_matrices_list_only_the_integrated_cells(self, pipeline):
        """kernel_calls counts one call per swept seed's no-response run
        plus one per integrated cell, and matrices.npy holds exactly those
        cells, a record per integrated row. The outcomes weight reads back,
        with the no-response outcomes of seeds.npy, are the campaign's
        bitwise."""
        root, paths, out = pipeline
        sim = out["simulate"]
        summary = json.loads((sim / "summary.json").read_text())
        n_cells = np.load(sim / "matrices.npy")["v1"].size
        swept = summary["n_seeds"] - summary["n_excluded"]
        assert n_cells == summary["kernel_calls"] - swept
        with chdir(root):
            cfg = CampaignConfig.from_json(paths["campaign"])
            result = run_campaign(load_seed_refs("out_synth/seeds"), cfg,
                                  glance=load_glances(cfg.glance_file),
                                  decels=load_decels(cfg.decel_file))
        loaded = load_campaign(sim)
        assert len(loaded.swept) == len(result.swept) == swept
        for want, got in zip(result.swept, loaded.swept):
            assert got.seed_id == want.seed_id
            assert ([x.hex() for x in got.no_response]
                    == [x.hex() for x in want.no_response])
            for name in ("rows", "v1", "v2"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
            assert got.kernel_calls(loaded.grid) == want.kernel_calls(result.grid)

    def test_worker_count_does_not_change_output(self, pipeline, tmp_path):
        root, paths, out_first = pipeline
        sim_out = tmp_path / "out_sim_w2"
        with chdir(root):
            assert main(["simulate", "--seeds", "out_synth/seeds",
                         "--config", paths["campaign"],
                         "--out", str(sim_out), "--workers", "2"]) == 0
        for name in SIMULATE_ARTIFACTS:
            a = (out_first["simulate"] / name).read_bytes()
            assert (sim_out / name).read_bytes() == a, name
        # the workers hand back the digests of the seed files they parsed
        manifests = [json.loads((d / "manifest.json").read_text())
                     for d in (out_first["simulate"], sim_out)]
        for manifest in manifests:
            manifest.pop("timestamp")
        assert manifests[0] == manifests[1]


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

    def test_bad_campaign_key_exits_two(self, tmp_path, capsys):
        paths = write_inputs(tmp_path / "inputs", n_seeds=2)
        with chdir(tmp_path):
            assert main(["synth", "--config", paths["synth"],
                         "--out", "synth", "--seed", "1"]) == 0
            # rng_seed was a setting once; the sweep draws no random numbers
            for key, config in (("bogus_key", {"bogus_key": 1}),
                                ("rng_seed", {"rng_seed": 1}),
                                ("foo", {"cbm": {"foo": 1}})):
                Path("bad.json").write_text(json.dumps({"model": "cbm", **config}))
                capsys.readouterr()
                code = main(["simulate", "--seeds", "synth/seeds",
                             "--config", "bad.json", "--out", "sim"])
                err = capsys.readouterr().err
                assert code == 2, key
                assert err.startswith("error: ") and key in err, err

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

    def test_non_finite_occupant_delta_v_exits_two(self, tmp_path, capsys):
        occ = tmp_path / "occ.csv"
        occ.write_text("delta_v_kmh,mais,role\n5.0,0,driver\nnan,1,driver\n")
        hist = tmp_path / "h.csv"
        hist.write_text("bin_low_kmh,bin_high_kmh,weight\n0.0,2.0,1.0\n")
        code = main(["fit-bias", "--occupants", str(occ),
                     "--injury-hist", str(hist), "--out", str(tmp_path / "fit")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "delta_v_kmh" in err, err
        assert "Traceback" not in err

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
    rearsim, so moving a traced layer fails here instead of reading 0.
    The one exception is `load_seed_dir`: no stage called it, so its span
    read 0 already, and it moved to tests/fixtures.py. The tracer reports
    it as missing until the benchmark stops wrapping it; it must stay
    gone from rearsim."""
    path = Path(__file__).parent.parent / "perfbench" / "tracing.py"
    tree = ast.parse(path.read_text())
    wrapped = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and [t.id for t in node.targets] == ["WRAPPED"])
    assert len(wrapped) == 22
    moved = {("scenario", "load_seed_dir")}
    for module, name in wrapped:
        found = callable(getattr(importlib.import_module(f"rearsim.{module}"),
                                 name, None))
        assert found is ((module, name) not in moved), f"{module}.{name}"


CONFIG_CLASSES = ("CampaignConfig", "CbmConfig", "SynthesisConfig")


def test_every_config_field_is_read():
    """Each field of the config classes is read as an attribute somewhere
    in rearsim outside those classes: a field that nothing reads is a
    setting without effect."""
    fields, reads = {}, set()
    for path in sorted(Path(rearsim.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        inside = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name in CONFIG_CLASSES:
                fields[node.name] = [item.target.id for item in node.body
                                     if isinstance(item, ast.AnnAssign)]
                inside |= set(map(id, ast.walk(node)))
        reads |= {node.attr for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load) and id(node) not in inside}
    assert sorted(fields) == sorted(CONFIG_CLASSES)
    assert [f"{cls}.{name}" for cls, names in fields.items()
            for name in names if name not in reads] == []


# (subcommand, option): flags accepted so that existing command lines, such
# as perfbench's, still run, and read by nothing
UNREAD_FLAGS = {("validate", "--samples"), ("assess-dms", "--seeds"),
                ("assess-dms", "--workers")}


def test_every_cli_flag_is_read():
    """Each option of each subcommand is read as `args.<dest>` in the
    function the subcommand runs, but the flags of UNREAD_FLAGS, each of
    which stays unread: a flag that nothing reads is a setting without
    effect."""
    subcommands = next(action for action in cli.build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction)).choices
    unread = set()
    for command, parser in subcommands.items():
        func = parser.get_default("func")
        reads = {node.attr for node in ast.walk(ast.parse(inspect.getsource(func)))
                 if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                 and node.value.id == "args"}
        unread |= {(command, action.option_strings[-1]) for action in parser._actions
                   if action.option_strings and action.dest != "help"
                   and action.dest not in reads}
    assert unread == UNREAD_FLAGS


def test_every_config_field_has_a_known_kind():
    """Each config field's annotation names a kind that manifest.KINDS
    tests, so a field of another kind fails here instead of going
    unchecked."""
    classes = (CampaignConfig, CbmConfig, SynthesisConfig)
    assert sorted(cls.__name__ for cls in classes) == sorted(CONFIG_CLASSES)
    assert [f"{cls.__name__}.{item.name}: {item.type}" for cls in classes
            for item in dataclasses.fields(cls) if item.type not in KINDS] == []


# the keys a config file must hold besides its defaults
CONFIG_FILE_NEEDS = {CampaignConfig: {"glance_file": "glances.csv",
                                      "decel_file": "decels.csv"},
                     SynthesisConfig: {}}


@pytest.mark.parametrize("cls", list(CONFIG_FILE_NEEDS), ids=lambda cls: cls.__name__)
def test_config_file_of_every_default_loads_the_defaults(cls, tmp_path):
    # every field written out, ranges as JSON lists and cbm as an object: no
    # check rejects a value the program uses by default
    needs = CONFIG_FILE_NEEDS[cls]
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**dataclasses.asdict(cls()), **needs}))
    assert cls.from_json(path) == cls(**needs)


# values of another kind, by the annotation of the field they are given to
WRONG_KINDS = {
    "int": [2.5, "5", True, math.nan],
    "float": [math.nan, math.inf, -math.inf, "0.5", True],
    "float | None": [math.nan, math.inf, "0.5", True],
    "str": [5, True, None],
    "str | None": [5, True, ["a"]],
    "tuple[float, float]": [[1.0, 2.0, 3.0], [math.nan, 1.0], [1.0, math.inf],
                            ["1", "2"], [True, False], 1.0],
    "dict[str, float]": [{"braking": math.nan}, {"braking": "1"},
                         {"braking": True}, [1.0], 1.0],
    "CbmConfig": [5, "cbm", True, [1.0]],
}


def _wrong_kinds():
    for cls in (CampaignConfig, CbmConfig, SynthesisConfig):
        for item in dataclasses.fields(cls):
            for value in WRONG_KINDS[item.type]:
                yield pytest.param(cls, item.name, value,
                                   id=f"{cls.__name__}.{item.name}={value!r}")


@pytest.mark.parametrize("cls, key, value", _wrong_kinds())
def test_every_config_field_rejects_a_value_of_another_kind(cls, key, value,
                                                           tmp_path):
    """Built in Python and read from JSON alike, a value of another kind
    than the field's annotation raises ValidationError naming the field.
    The CbmConfig fields are read from the campaign config's cbm object."""
    with pytest.raises(ValidationError, match=f"^{key} must be "):
        cls(**{key: tuple(value) if type(value) is list else value})
    path = tmp_path / "config.json"
    nested = cls is CbmConfig
    path.write_text(json.dumps({"cbm": {key: value}} if nested else {key: value}))
    reader = SynthesisConfig if cls is SynthesisConfig else CampaignConfig
    prefix = "cbm: " if nested else ""
    with pytest.raises(ValidationError,
                       match=rf"config\.json: \w+ config {prefix}{key} must be "):
        reader.from_json(path)


def test_cli_import_loads_only_what_every_stage_runs():
    """Each stage imports the modules only it runs: importing the CLI
    loads neither the engine, the driver models, the glance and
    deceleration distributions, the validation code nor the reports."""
    src = str(Path(rearsim.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    stage_only = ["engine", "looming", "drivers", "distributions", "validation",
                  "report"]
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, rearsim.cli; print(sorted(m for m in sys.modules "
         "if m.startswith('rearsim.')))"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = ast.literal_eval(proc.stdout)
    assert "rearsim.cli" in loaded
    assert not [m for m in loaded if m.split(".")[1] in stage_only], loaded


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


def test_weight_never_loads_the_bias_correction(pipeline, tmp_path):
    """Only fit-bias and apply-bias import rearsim.bias: a weight process
    runs without it. -X importtime lists every module the process imports."""
    _, _, out = pipeline
    src = str(Path(rearsim.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "rearsim.cli", "weight",
         "--simulate-out", str(out["simulate"]), "--out", str(tmp_path / "weight")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    imported = {line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    assert {"rearsim.outcome", "rearsim.engine"} <= imported
    assert "rearsim.bias" not in imported


def test_only_table_imports_csv():
    """The CSV dialect lives in one module: no other module of the package
    imports csv."""
    package = Path(rearsim.__file__).parent
    importers = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom)
                     and not node.level else [])
            if any(name.split(".")[0] == "csv" for name in names):
                importers.append(path.stem)
    assert set(importers) == {"table"}, importers


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
        glances = shrp2_like_glances()
        # another support, and the same support with other probabilities
        tilted = type(glances)(glances.on_road_mass, glances.durations,
                               glances.probs[::-1])
        with chdir(root):
            campaign = json.loads(Path(paths["campaign"]).read_text())
            for name, other in (("cut", cut_glances(glances, 3.0)),
                                ("tilted", tilted)):
                save_glances(other, f"{name}_glances.csv")
                self._simulate(dict(campaign, glance_file=f"{name}_glances.csv"),
                               f"sim_{name}_glances")
                assert _assess(paths, f"sim_{name}_glances") == 2, name

    def test_truncated_matrices(self, pipeline):
        root, paths, out = pipeline
        with chdir(root):
            shutil.copytree(out["simulate"], "sim_truncated")
            matrices = Path("sim_truncated/matrices.npy")
            data = matrices.read_bytes()
            matrices.write_bytes(data[:len(data) // 2])
            assert _assess(paths, "sim_truncated") == 2
            assert main(["weight", "--simulate-out", "sim_truncated",
                         "--out", "weight_truncated"]) == 2


def test_assess_dms_reads_decelerations_from_the_baseline(pipeline):
    """assess-dms takes the deceleration bins and marginal from the
    baseline's summary.json, never from the config's decel_file."""
    root, paths, out = pipeline
    with chdir(root):
        campaign = json.loads(Path(paths["campaign"]).read_text())
        Path("campaign_no_decels.json").write_text(json.dumps(
            dict(campaign, decel_file="missing.csv")))
        assert main(["assess-dms", "--config", "campaign_no_decels.json",
                     "--baseline", "out_simulate", "--cuts", "3.0", "2.0", "inf",
                     "--out", "assess_no_decels", "--curves", paths["curve"]]) == 0
        manifest = json.loads(Path("assess_no_decels/manifest.json").read_text())
        got = Path("assess_no_decels/assess.json").read_bytes()
    assert got == (out["assess"] / "assess.json").read_bytes()
    assert sorted(manifest["inputs"]) == ["baseline", "config", "glances"]


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
                     "--seeds-summary", "sim_f25/seeds_summary.csv",
                     "--out", "validate_f25"]) == 0
        weighted = json.loads(Path("weight_f25/summary.json").read_text())
        crash_mass = sum(_column(Path("weight_f25/weights.csv"), "contribution"))
        campaign = _recovered(load_campaign("sim_f25"))
        with open("validate_f25/percentiles.csv", newline="") as fh:
            got = {row["seed_id"]: row["percentile"] for row in csv.DictReader(fh)}
    assert weighted["no_response_fraction"] == campaign.no_response_fraction == 0.25
    assert crash_mass == pytest.approx(0.75, abs=1e-9)
    want = seed_percentiles(weigh(campaign))
    assert got == {sid: repr(float(v)) for sid, v in want.items()}
    assert want != seed_percentiles(
        weigh(dataclasses.replace(campaign, no_response_fraction=0.10)))


def test_blom_weight_and_validate_are_pinned(pipeline):
    """simulate -> weight -> validate under the brake-light model, whose
    campaign mixes in no no-response share: the outputs are the bytes they
    were when weight and validate skipped the mix at a share of 0, except
    that summary.json counts no no-response sample (n_no_response 0), and
    weight's hist.csv and contribution column are the bytes they became
    when weight summed them from the row statistics."""
    root, paths, _ = pipeline
    with chdir(root):
        assert main(["simulate", "--seeds", "out_synth/seeds", "--config",
                     paths["blom"], "--out", "sim_blom_pinned"]) == 0
        assert main(["weight", "--simulate-out", "sim_blom_pinned",
                     "--out", "weight_blom_pinned"]) == 0
        assert main(["validate", "--model-hist", "weight_blom_pinned/hist.csv",
                     "--reference", "out_synth/seeds",
                     "--seeds-summary", "sim_blom_pinned/seeds_summary.csv",
                     "--out", "validate_blom_pinned"]) == 0
        got = {name: hashlib.sha256(Path(name).read_bytes()).hexdigest()
               for name in ("weight_blom_pinned/hist.csv",
                            "weight_blom_pinned/weights.csv",
                            "weight_blom_pinned/summary.json",
                            "validate_blom_pinned/percentiles.csv",
                            "validate_blom_pinned/percentile_report.json")}
    assert got == {
        "weight_blom_pinned/hist.csv":
            "5162c4238bef83ab61e68be7b42611926c141e910d4f1112c8c036868c40eaea",
        "weight_blom_pinned/weights.csv":
            "d5d7f9df5d6f1ee8a439406cb620f68f9768e3de7c93ffe3022d22bdffda55f0",
        "weight_blom_pinned/summary.json":
            "c707b278abe58f14270d0b31bc5dca7ebdf431b6f6bbad83ea21d1b692292b36",
        "validate_blom_pinned/percentiles.csv":
            "7e33e2ffbe7d643f2af02c8f79990e18cdfb0a9d4151b3f7b1b80b7a63c1be76",
        "validate_blom_pinned/percentile_report.json":
            "964ba187c6038cd1e350af4394a4dc831bbfc62cdad65d971ac7a3ee9c8fec36",
    }


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


_SYNTH = ["synth", "--config", "inputs/synth.json", "--out", "bad_synth"]
_SIMULATE = ["simulate", "--seeds", "out_synth/seeds", "--config",
             "inputs/campaign.json", "--out", "bad_simulate"]
_SIMULATE_BLOM = ["simulate", "--seeds", "out_synth/seeds", "--config",
                  "inputs/blom.json", "--out", "bad_simulate"]
_WEIGHT = ["weight", "--simulate-out", "out_simulate", "--out", "bad_weight"]
_FIT_BIAS = ["fit-bias", "--occupants", "inputs/occupants.csv",
             "--injury-hist", "out_synth/seeds", "--out", "bad_fit"]
_APPLY = ["apply-bias", "--hist", "out_weight/hist.csv",
          "--transfer", "out_fit/transfer.json", "--out", "bad_apply"]
_VALIDATE = ["validate", "--model-hist", "out_apply/transformed.csv",
             "--reference", "out_synth/seeds", "--seeds-summary",
             "out_simulate/seeds_summary.csv", "--out", "bad_validate"]
_VALIDATE_HIST = ["validate", "--model-hist", "out_weight/hist.csv",
                  "--reference", "out_synth/seeds", "--out", "bad_validate"]
_ASSESS = ["assess-dms", "--config", "inputs/campaign.json", "--baseline",
           "out_simulate", "--cuts", "2.0", "--out", "bad_assess"]
_CURVES = ["--curves", "inputs/mais1.json"]
_REPORT_HIST = ["report", "--hist", "model=out_weight/hist.csv", "--out",
                "bad_report"]
_REPORT_PERCENTILES = ["report", "--percentiles",
                       "cbm=out_validate/percentile_report.json", "--out",
                       "bad_report"]
_REPORT_ASSESS = ["report", "--assess", "out_assess/assess.json", "--out",
                  "bad_report"]

def _set_json(**changes):
    return lambda text: json.dumps(dict(json.loads(text), **changes))


def _as_counts(text: str) -> str:
    """Text edit: a histogram CSV's weights as counts out of 1000."""
    header, *rows = text.split("\r\n")
    bins = [row.rsplit(",", 1) for row in rows if row]
    return "\r\n".join([header] + [f"{edges},{round(1000 * float(weight))}.0"
                                   for edges, weight in bins]) + "\r\n"


def _load_campaign_of(path: Path):
    """The campaign in the simulate output directory that holds `path`."""
    return load_campaign(path.parent)


def _histogram_of(path: Path):
    """weight's histogram of the campaign in the simulate output directory
    that holds `path`."""
    return weigh(_recovered(load_campaign(path.parent))).histogram()


def _edit_records(edit):
    """Record edit: matrices.npy with its records (a writable copy) as
    `edit` returns them."""
    def apply(data: bytes) -> bytes:
        records = edit(np.load(io.BytesIO(data)).copy())
        out = io.BytesIO()
        np.save(out, records, allow_pickle=records.dtype.hasobject)
        return out.getvalue()
    return apply


def _set_first_cell(crashed: bool, **values):
    """Record edit: the fields of the first cell that crashes, or of the
    first that does not, set to `values`."""
    def edit(records):
        k, j = np.argwhere(~np.isnan(records["v1"]) == crashed)[0]
        for field, value in values.items():
            records[field][k, j] = value
        return records
    return _edit_records(edit)


def _retyped(**changes):
    """Record edit: the records with each named field as its (format,
    shape) in `changes`, or without it where None."""
    def edit(records):
        spec = {name: (records.dtype[name].base.str, records.dtype[name].shape)
                for name in records.dtype.names}
        spec.update(changes)
        out = np.zeros(records.shape, [(name, *rest) for name, rest in spec.items()
                                       if rest is not None])
        for name in out.dtype.names:
            shape = out.dtype[name].shape
            out[name] = records[name][:, :shape[0]] if shape else records[name]
        return out
    return _edit_records(edit)


def _bad_records(file: str, edit, where):
    """simulate's record file `file` after `edit`, of its bytes or of its
    records."""
    return (f"out_simulate/{file}", _load_campaign_of, edit,
            rf"{re.escape(file)}: {where}", (_WEIGHT, _VALIDATE, _ASSESS))


def _bad_matrices(edit, where):
    return _bad_records("matrices.npy", edit, where)


def _bad_seeds(edit, where):
    return _bad_records("seeds.npy", edit, where)


def _truncations(file: str, what: str) -> dict:
    """MALFORMED_INPUTS entries for simulate's record file `file` of
    `what` records: the file empty; cut inside its magic, its header and
    its data (its last byte dropped); without its last record; and with a
    byte appended. The header declares the record count, so a file cut at
    a record's end is refused too."""
    unreadable = rf"not a \.npy file of {what} records: "
    last_record = lambda data: data[:-np.load(io.BytesIO(data)).dtype.itemsize]
    return {f"{file.removesuffix('.npy')}_{name}": _bad_records(file, edit, where)
            for name, edit, where in (
                ("empty", lambda data: b"", unreadable + "EOF"),
                ("truncated_in_magic", lambda data: data[:3], unreadable + "EOF"),
                ("truncated_in_header", lambda data: data[:20], unreadable + "EOF"),
                ("truncated_by_one_byte", lambda data: data[:-1],
                 unreadable + "Failed to read"),
                ("last_record_dropped", last_record, unreadable + "Failed to read"),
                ("byte_appended", lambda data: data + b"\0",
                 "bytes follow the records"))}


def _bad_speeds(crashed: bool, **values):
    """matrices.npy with the speeds of its first cell that crashes, or of
    its first that does not, set to `values`."""
    return _bad_matrices(
        _set_first_cell(crashed, **values),
        r"record \d+ \(seed s\d+, axis1 row \d+\): a cell's v1 and v2 must be "
        r"both NaN \(no crash\) or both finite with v1 > v2 \(a crash\)")


def _flagged_layout(records):
    """The records in the layout whose cells carried a crashed and a
    max_severity flag beside their speeds."""
    n2 = records.dtype["v1"].shape[0]
    out = np.zeros(records.shape, [
        ("seed_id", records.dtype["seed_id"]), ("axis1_index", "<i8"),
        ("crashed", "u1", (n2,)), ("v1", "<f8", (n2,)), ("v2", "<f8", (n2,)),
        ("max_severity", "u1", (n2,))])
    for name in records.dtype.names:
        out[name] = records[name]
    out["crashed"] = ~np.isnan(records["v1"])
    return out


def _set_seed(**values):
    """Record edit: seeds.npy with `values` in the record of the first
    eligible seed whose no-response run crashed."""
    def edit(records):
        k = np.flatnonzero(records["eligible"] & ~np.isnan(records["no_resp_v1"]))[0]
        for field, value in values.items():
            records[field][k] = value
        return records
    return _edit_records(edit)


def _repeat_first_seed_id(records):
    records["seed_id"][1] = records["seed_id"][0]
    return records


# a seeds.npy record, as a refusal names it
_SEED_RECORD = r"record \d+ \(seed s\d+\): "
# a no-response cell that is neither both NaN nor a crash's
_NO_RESPONSE_CELL = (_SEED_RECORD + r"the no-response cell's v1 and v2 must be both "
                     r"NaN \(no crash\) or both finite with v1 > v2 \(a crash\), got ")


_SEEDS_DIR = (_SIMULATE, _FIT_BIAS, _VALIDATE)  # every stage that reads seeds


def _bad_delta_v(value):
    return ("out_synth/seeds/s0000.json", lambda path: load_seed_refs(path.parent),
            _set_json(seed_delta_v_kmh=value), r"s0000\.json: seed_delta_v_kmh",
            _SEEDS_DIR)


def _with_vehicle_key(role, key, value):
    """A seed sidecar whose `role` vehicle records `value` as `key`."""
    def edit(text):
        meta = json.loads(text)
        return json.dumps({**meta, role: {**meta[role], key: value}})
    return edit


def _bad_vehicle(role, field, value):
    return ("out_synth/seeds/s0000.json", lambda path: load_seed_refs(path.parent),
            _with_vehicle_key(role, field, value),
            rf"s0000\.json: vehicle 's0000/{role}': {field} must be", _SEEDS_DIR)


def _without_vehicle_key(role, key):
    """A seed sidecar whose `role` vehicle lacks `key`."""
    def edit(text):
        meta = json.loads(text)
        return json.dumps({**meta, role: {k: v for k, v in meta[role].items() if k != key}})
    return edit


def _bad_occupants(edit, where):
    return ("inputs/occupants.csv", load_occupants, edit,
            rf"occupants\.csv:{where}", (_FIT_BIAS,))


def _bad_glances(edit, where):
    return ("inputs/glances.csv", load_glances, edit, rf"glances\.csv:{where}",
            (_SIMULATE, _ASSESS))


def _bad_summary(edit, where):
    return ("out_simulate/summary.json", _load_campaign_of, edit, rf"summary\.json: simulate summary {where}",
            (_WEIGHT, _VALIDATE, _ASSESS))


def _bad_curve(edit, where):
    return ("inputs/mais1.json", load_injury_curve, edit,
            rf"mais1\.json: injury curve {where}",
            (_VALIDATE_HIST + _CURVES, _ASSESS + _CURVES))


def _bad_decels(edit, where):
    return ("inputs/decels.csv", load_decels, edit, rf"decels\.csv:{where}",
            (_SIMULATE,))


def _negative_axis1_probability(text: str) -> str:
    """Text edit: simulate's summary.json with a grid probability < 0."""
    summary = json.loads(text)
    summary["grid"]["axis1_probs"][0] = -0.05
    return json.dumps(summary)


def _bad_flag(flag, value, check, where, commands):
    """A flag value out of range: no file is edited, and `check(value)` is
    the call that rejects it."""
    return ("inputs/campaign.json", lambda path: check(value), lambda text: text,
            where, tuple(command + [flag, value] for command in commands),
            ValidationError)


def _bad_config(file, loader, command, key, value):
    return (f"inputs/{file}", loader, _set_json(**{key: value}),
            rf"{re.escape(file)}: \w+ config .*{key}", (command,), ValidationError)


# name: (file, loader, edit of its text, error location, commands reading it
# [, the error the loader raises, if not ParseError])
MALFORMED_INPUTS = {
    "occupants_short_row": _bad_occupants(
        _edit_row(3, lambda f: f[:-1]), "3: expected 3 fields, got 2"),
    "occupants_extra_field": _bad_occupants(
        _edit_row(3, lambda f: f + ["x"]), "3: expected 3 fields, got 4"),
    "occupants_delta_v_text": _bad_occupants(
        _edit_row(4, _set_field(0, "fast")), "4: delta_v_kmh"),
    **{f"occupants_delta_v_{name}": _bad_occupants(
        _edit_row(4, _set_field(0, value)), "4: delta_v_kmh")
       for name, value in (("nan", "nan"), ("infinite", "inf"), ("negative", "-1.0"))},
    **{f"occupants_mais_{name}": _bad_occupants(
        _edit_row(5, _set_field(1, value)), "5: mais")
       for name, value in (("text", "x"), ("out_of_range", "9"), ("negative", "-1"))},
    "occupants_empty": _bad_occupants(lambda text: "", "1: expected header"),
    "occupants_header_only": _bad_occupants(
        lambda text: text[:text.index("\r\n") + 2], "1: no occupant records"),
    # the step is the seeds' 10 ms grid, and the brake jerk's spread is not
    # sampled: neither is a setting
    **{f"campaign_{name}": (
        "inputs/campaign.json", CampaignConfig.from_json, edit,
        rf"campaign\.json: campaign config has no key '{key}'", (_SIMULATE,),
        ValidationError)
       for name, key, edit in (("dt", "dt", _set_json(dt=0.01)),
                               ("cbm_jerk_sd", "jerk_sd",
                                _set_json(cbm={"jerk_sd": 0.74})))},
    # a glance cut is assess-dms's: simulate runs the glance file uncut
    "campaign_glance_cut_at": (
        "inputs/campaign.json", CampaignConfig.from_json, _set_json(glance_cut_at=3.0),
        r"campaign\.json: campaign config has no key 'glance_cut_at'",
        (_SIMULATE, _ASSESS), ValidationError),
    **{f"campaign_{key}_{name}": _bad_config(
        "campaign.json", CampaignConfig.from_json, _SIMULATE, key, value)
       for key, name, value in (("horizon_extension", "negative", -40),
                                ("horizon_extension", "infinite", math.inf),
                                ("decel_file", "number", 123),
                                ("glance_file", "number", 5))},
    # run_campaign takes the distributions the config names unchecked
    **{f"campaign_without_{key}": (
        "inputs/campaign.json", CampaignConfig.from_json,
        lambda text, key=key: json.dumps({k: v for k, v in json.loads(text).items()
                                          if k != key}),
        rf"campaign\.json: campaign config needs {key}", (_SIMULATE, _ASSESS),
        ValidationError)
       for key in ("glance_file", "decel_file")},
    "campaign_not_an_object": (
        "inputs/campaign.json", CampaignConfig.from_json, lambda text: "[1, 2]",
        r"campaign\.json: campaign config must be a JSON object", (_SIMULATE, _ASSESS)),
    "synth_not_an_object": (
        "inputs/synth.json", SynthesisConfig.from_json, lambda text: "[1, 2]",
        r"synth\.json: synthesis config must be a JSON object", (_SYNTH,)),
    "synth_unknown_key": _bad_config(
        "synth.json", SynthesisConfig.from_json, _SYNTH, "bogus_key", 1),
    **{f"campaign_{key}_{name}": _bad_config(
        "blom.json", CampaignConfig.from_json, _SIMULATE_BLOM, key, value)
       for key, name, value in (("reaction_m", "text", "a"),
                                ("reaction_v", "infinite", math.inf),
                                # discretize_reaction_time takes them unchecked
                                ("reaction_m", "zero", 0),
                                ("reaction_v", "zero", 0.0))},
    **{f"campaign_cbm_{key}_nan": (
        "inputs/campaign.json", CampaignConfig.from_json, _set_json(cbm={key: math.nan}),
        rf"campaign\.json: campaign config cbm: {key}", (_SIMULATE,), ValidationError)
       for key in ("response_delay", "inv_tau_threshold", "jerk_mean")},
    # find_anchor takes the threshold unchecked
    "campaign_cbm_inv_tau_threshold_zero": (
        "inputs/campaign.json", CampaignConfig.from_json,
        _set_json(cbm={"inv_tau_threshold": 0}),
        r"campaign\.json: campaign config cbm: inv_tau_threshold must be positive",
        (_SIMULATE,), ValidationError),
    **{f"synth_{key}_{name}": _bad_config(
        "synth.json", SynthesisConfig.from_json, _SYNTH, key, value)
       for key, name, value in (("n_seeds", "text", "5"), ("n_seeds", "zero", 0),
                                ("n_seeds", "fraction", 2.5),
                                ("follower_speed", "text", "x"),
                                ("follower_speed", "low_above_high", [30.0, 10.0]),
                                ("follower_no_response_prob", "text", "a"),
                                ("max_attempts", "text", "a"),
                                ("max_sim_time", "zero", 0),
                                ("lead_mix", "unknown_mode", {"braking": 1, "trucks": 1}))},
    "decels_short_row": _bad_decels(_edit_row(3, lambda f: f[:-1]),
                                    "3: expected 2 fields, got 1"),
    "decels_non_numeric": _bad_decels(_edit_row(2, _set_field(1, "x")),
                                      "2: probability"),
    "decels_empty": _bad_decels(lambda text: "", "1: expected header"),
    "decels_header_only": _bad_decels(
        lambda text: text[:text.index("\r\n") + 2], "1: no bins"),
    "glances_short_row": _bad_glances(_edit_row(4, lambda f: f[:-1]),
                                      "4: expected 2 fields, got 1"),
    "glances_non_numeric": _bad_glances(_edit_row(3, _set_field(1, "x")),
                                        "3: probability"),
    "glances_on_road_mass_text": _bad_glances(_edit_row(1, _set_field(1, "x")),
                                              "1: expected on_road_mass"),
    "summary_not_an_object": _bad_summary(lambda text: "[]",
                                          "must be a JSON object"),
    "summary_not_json": _bad_summary(lambda text: text[:-3], "is not JSON"),
    "summary_no_response_fraction_text": _bad_summary(
        _set_json(no_response_fraction="abc"), "no_response_fraction must be a number"),
    "summary_no_response_fraction_missing": _bad_summary(
        lambda text: json.dumps({k: v for k, v in json.loads(text).items()
                                 if k != "no_response_fraction"}),
        "lacks key 'no_response_fraction'"),
    "percentile_report_empty": (
        "out_validate/percentile_report.json", _load_percentile_report,
        lambda text: "{}", r"percentile_report\.json: percentile report lacks key",
        (_REPORT_PERCENTILES,)),
    "assessment_empty": (
        "out_assess/assess.json", _load_assessment_cuts, lambda text: "{}",
        r"assess\.json: assessment lacks key 'cuts'", (_REPORT_ASSESS,)),
    "assessment_cut_without_rate": (
        "out_assess/assess.json", _load_assessment_cuts,
        lambda text: json.dumps({"cuts": [{"cut_at_s": 2.0}]}),
        r"assess\.json: assessment cut lacks key 'avoidance_rate'", (_REPORT_ASSESS,)),
    "histogram_of_counts": (
        "out_weight/hist.csv", load_histogram, _as_counts,
        r"hist\.csv: histogram weights sum to", (_APPLY, _VALIDATE_HIST, _REPORT_HIST)),
    "seed_short_row": (
        "out_synth/seeds/s0000.csv", load_seed,
        _edit_row(3, lambda f: f[:-1]), r"s0000\.csv:3:", (_SIMULATE,)),
    "seed_extra_field": (
        "out_synth/seeds/s0000.csv", load_seed,
        _edit_row(3, lambda f: f + ["0.0"]), r"s0000\.csv:3:", (_SIMULATE,)),
    # a non-finite sample passes every range check of a seed, since NaN
    # compares false; 1e400 reads as inf
    **{f"seed_{column}_{name}": (
        "out_synth/seeds/s0000.csv", load_seed,
        _edit_row(50, _set_field(scenario.SEED_CSV_HEADER.index(column), value)),
        rf"seed s0000: {column} in data row 49 is {shown}, not a finite number",
        (_SIMULATE,), ValidationError)
       for column, name, value, shown in (
           *((column, "nan", "nan", "nan") for column in scenario.SEED_CSV_HEADER),
           *((column, name, value, shown) for column in ("lead_pos", "foll_speed")
             for name, value, shown in (("inf", "inf", "inf"),
                                        ("negative_inf", "-inf", "-inf"),
                                        ("overflow", "1e400", "inf"))))},
    "seed_duplicate_id": (
        "out_synth/seeds/s0001.json", lambda path: load_seed_refs(path.parent),
        _set_json(id="s0000"), r"s0000\.json and \S*s0001\.json", _SEEDS_DIR),
    "seed_sidecar_not_an_object": (
        "out_synth/seeds/s0000.json", lambda path: load_seed_refs(path.parent),
        lambda text: "[]", r"s0000\.json: seed sidecar must be a JSON object, got a list",
        _SEEDS_DIR),
    "seed_sidecar_empty_object": (
        "out_synth/seeds/s0000.json", lambda path: load_seed_refs(path.parent),
        lambda text: "{}", r"s0000\.json: seed sidecar lacks key 'id'$", _SEEDS_DIR),
    "seed_lead_without_length": (
        "out_synth/seeds/s0000.json", lambda path: load_seed_refs(path.parent),
        _without_vehicle_key("lead", "length"), r"s0000\.json: lead lacks key 'length'$",
        _SEEDS_DIR),
    "seed_lead_with_unknown_key": (
        "out_synth/seeds/s0000.json", lambda path: load_seed_refs(path.parent),
        _with_vehicle_key("lead", "foo", 2),
        r"s0000\.json: lead has no key 'foo'; a vehicle's keys are mass, width, length$",
        _SEEDS_DIR),
    **{f"seed_delta_v_{name}": _bad_delta_v(value)
       for name, value in (("text", "abc"), ("nan", math.nan),
                           ("infinite", math.inf), ("negative", -5.0))},
    # an infinite mass passes a bare > 0 check, and simulate would write an
    # empty no-response delta-v that weight then rejects
    **{f"seed_{role}_{field}_{name}": _bad_vehicle(role, field, value)
       for role, field, name, value in (("lead", "mass", "infinite", math.inf),
                                        ("follower", "width", "nan", math.nan),
                                        ("lead", "length", "flag", True),
                                        ("follower", "mass", "zero", 0),
                                        # optical_angle takes it unchecked
                                        ("lead", "width", "zero", 0))},
    "matrices_flagged_layout": _bad_matrices(
        _edit_records(_flagged_layout),
        r"expected a 1-D array of records \[\('seed_id', '<U5'\), \('axis1_index', "
        r"'<i8'\), \('v1', '<f8', \(6,\)\), \('v2', '<f8', \(6,\)\)\] on the grid's "
        r"6 deceleration bins, got a 1-D array of .*'crashed', 'u1'"),
    **_truncations("matrices.npy", "outcome"),
    "matrices_object_dtype": _bad_matrices(
        _edit_records(lambda r: np.array([None], dtype=object)),
        r"not a \.npy file of outcome records: Object arrays"),
    "matrices_two_dimensional": _bad_matrices(
        _edit_records(lambda r: np.stack([r, r])),
        r"expected a 1-D array of records .*, got a 2-D"),
    "matrices_fortran_order": _bad_matrices(
        _edit_records(lambda r: np.asfortranarray(np.stack([r, r], axis=1))),
        r"expected a 1-D array of records .*, got a 2-D"),
    "matrices_missing_field": _bad_matrices(
        _retyped(v2=None), r"expected a 1-D array of records .*, got a 1-D"),
    "matrices_wrong_dtype": _bad_matrices(
        _retyped(v1=("<f4", (6,))), r"expected a 1-D array of records .*, got a 1-D"),
    "matrices_other_n2": _bad_matrices(
        _retyped(**{name: ("<f8", (5,)) for name in ("v1", "v2")}),
        r"expected .* on the grid's 6 deceleration bins, got .*'v1', '<f8', \(5,\)"),
    **{f"matrices_{name}": _bad_speeds(crashed, **values)
       for name, crashed, values in (
           ("v1_nan", True, dict(v1=math.nan)),
           ("v2_nan", True, dict(v2=math.nan)),
           ("v1_infinite", True, dict(v1=math.inf)),
           ("v1_below_v2", True, dict(v1=-1.0)),
           ("v1_equal_v2", True, dict(v1=0.0, v2=0.0)),
           ("no_crash_with_v1", False, dict(v1=1.0)),
           ("no_crash_with_v2", False, dict(v2=1.0)))},
    # finite speeds whose delta-v overflows
    "matrices_v1_overflow": (
        "out_simulate/matrices.npy", _histogram_of, _set_first_cell(True, v1=1e308),
        r"seed s\d+: a crash's delta-v is not finite", (_WEIGHT, _VALIDATE, _ASSESS),
        ValidationError),
    **{f"seeds_{field}_{name}": _bad_seeds(
        _set_seed(**{field: value}),
        _SEED_RECORD + rf"{field} must be a finite number > 0, got {value!r}")
       for field, name, value in (("follower_mass_kg", "nan", math.nan),
                                  ("follower_mass_kg", "zero", 0.0),
                                  ("lead_mass_kg", "nan", math.nan),
                                  ("lead_mass_kg", "infinite", math.inf),
                                  ("lead_mass_kg", "negative", -1500.0))},
    **{f"seeds_no_resp_{name}": _bad_seeds(_set_seed(**values), _NO_RESPONSE_CELL + got)
       for name, values, got in (
           ("v1_nan", dict(no_resp_v1=math.nan), r"nan and \S+"),
           ("v2_nan", dict(no_resp_v2=math.nan), r"\S+ and nan"),
           ("v1_infinite", dict(no_resp_v1=math.inf), r"inf and \S+"),
           ("speeds_swapped", dict(no_resp_v1=1.0, no_resp_v2=9.0), r"1\.0 and 9\.0"),
           ("speeds_equal", dict(no_resp_v1=5.0, no_resp_v2=5.0), r"5\.0 and 5\.0"))},
    # no_resp_dv_kmh is not read: a no-response delta-v that overflows is
    # refused where the weighting computes it, as a crash cell's is
    "seeds_no_resp_v1_overflow": (
        "out_simulate/seeds.npy", _histogram_of, _set_seed(no_resp_v1=1e308),
        r"seed s\d+: a crash's delta-v is not finite", (_WEIGHT, _VALIDATE, _ASSESS),
        ValidationError),
    **{f"seeds_theoretical_cells_{name}": _bad_seeds(
        _set_seed(theoretical_cells=value),
        _SEED_RECORD + rf"theoretical_cells must be in 0\.\.408, got {value}")
       for name, value in (("negative", -1), ("beyond_the_grid", 409))},
    "seeds_seed_id_repeated": _bad_seeds(
        _edit_records(_repeat_first_seed_id),
        r"record 1 \(seed s0000\): an earlier record holds the same seed id"),
    "seeds_record_dropped": _bad_seeds(
        _edit_records(lambda records: records[:-1]),
        r"7 records, not the 8 seeds of summary\.json"),
    "seeds_eligible_not_a_flag": _bad_seeds(
        _retyped(eligible=("<i8", ())),
        r"expected a 1-D array of records .*'eligible', '\?'.*, got a 1-D array "
        r"of .*'eligible', '<i8'"),
    "seeds_mass_as_text": _bad_seeds(
        _retyped(follower_mass_kg=("<U8", ())),
        r"expected a 1-D array of records .*, got a 1-D array of "
        r".*'follower_mass_kg', '<U8'"),
    "seeds_object_dtype": _bad_seeds(
        _edit_records(lambda r: np.array([None], dtype=object)),
        r"not a \.npy file of seed records: Object arrays"),
    **_truncations("seeds.npy", "seed"),
    "histogram_non_numeric_weight": (
        "out_weight/hist.csv", load_histogram,
        _edit_row(3, _set_field(2, "x")), r"hist\.csv:3:", (_APPLY,)),
    "histogram_nan_weight": (
        "out_weight/hist.csv", load_histogram, _edit_row(3, _set_field(2, "nan")),
        r"hist\.csv: histogram weights must be numbers >= 0",
        (_APPLY, _VALIDATE_HIST, _REPORT_HIST)),
    "histogram_zero_width": (
        "out_weight/hist.csv", load_histogram, _edit_row(2, _set_field(0, "2.0")),
        r"hist\.csv:2: bin width must be a finite number > 0, got 0\.0",
        (_APPLY, _VALIDATE_HIST, _REPORT_HIST)),
    "histogram_bins_not_adjacent": (
        "out_weight/hist.csv", load_histogram,
        _edit_row(3, lambda f: ["7.0", "9.0"] + f[2:]),
        r"hist\.csv:3: bin 1 spans \[7\.0, 9\.0\], not \[2\.0, 4\.0\]",
        (_APPLY, _VALIDATE_HIST, _REPORT_HIST)),
    "transfer_c1_nan": (
        "out_fit/transfer.json", load_transfer, _set_json(C1=math.nan),
        r"transfer\.json: transfer function C1 must be a finite number", (_APPLY,)),
    "curve_intercept_nan": _bad_curve(_set_json(intercept=math.nan),
                                      "intercept must be a finite number"),
    "curve_level_not_a_string": _bad_curve(_set_json(level=[1]),
                                           "level must be a string"),
    "summary_no_response_fraction_nan": _bad_summary(
        _set_json(no_response_fraction=math.nan),
        r"no_response_fraction must be in \[0, 1\), got nan"),
    # the row statistics and the crash samples take the cells' weights,
    # cell probabilities times seed weights, as >= 0 unchecked
    "summary_grid_probability_negative": (
        "out_simulate/summary.json", _load_campaign_of, _negative_axis1_probability,
        r"summary\.json: campaign grid probabilities must be >= 0",
        (_WEIGHT, _VALIDATE, _ASSESS)),
    "summary_no_response_fraction_one": _bad_summary(
        _set_json(no_response_fraction=1.0),
        r"no_response_fraction must be in \[0, 1\), got 1\.0"),
    "percentile_report_counts_text": (
        "out_validate/percentile_report.json", _load_percentile_report,
        lambda text: json.dumps({**json.loads(text), "counts": list(
            map(str, json.loads(text)["counts"]))}),
        r"percentile_report\.json: percentile report counts must be 10 integers",
        (_REPORT_PERCENTILES,)),
    **{f"bin_width_{name}": _bad_flag(
        "--bin-width", value,
        lambda value: build_histogram([1.0], [1.0], float(value)),
        rf"bin width must be a finite number > 0, got {value}",
        (_WEIGHT, _FIT_BIAS, _ASSESS))
       for name, value in (("zero", "0"), ("negative", "-1"), ("nan", "nan"))},
    # a bin index past int64's range, and a histogram of hundreds of GiB
    **{f"bin_width_{name}": _bad_flag(
        "--bin-width", value,
        lambda value: build_histogram([50.0], [1.0], float(value)),
        rf"bin width {value} km/h makes a histogram of more than 1000000 bins",
        (_WEIGHT, _FIT_BIAS, _ASSESS))
       for name, value in (("tiny", "1e-300"), ("too_fine", "1e-09"))},
    # the PDO histogram's bins, with a reference that is a histogram file
    "pdo_bin_width_too_fine": _bad_flag(
        "--bin-width", "1e-09",
        lambda value: build_pdo(folksam_like_records(n=400), bin_width=float(value)),
        r"bin width 1e-09 km/h makes a histogram of more than 1000000 bins",
        ([*_FIT_BIAS[:4], "out_weight/hist.csv", *_FIT_BIAS[5:]],)),
    # validate takes its bin width from the model histogram
    "model_hist_bin_width_too_fine": (
        "out_weight/hist.csv",
        lambda path: _reference_histogram(str(path.parents[1] / "out_synth" / "seeds"),
                                          load_histogram(path).bin_width),
        lambda text: ",".join(HISTOGRAM_CSV_HEADER) + "\r\n0.0,1e-09,1.0\r\n",
        r"bin width 1e-09 km/h makes a histogram of more than 1000000 bins",
        (_VALIDATE_HIST,), ValidationError),
    **{f"workers_{name}": _bad_flag(
        "--workers", value,
        lambda value: run_campaign([], CampaignConfig(), decels=shrp2_like_decels(),
                                   workers=int(value)),
        rf"workers must be >= 1, got {value}", (_SIMULATE,))
       for name, value in (("zero", "0"), ("negative", "-3"))},
    **{f"n_fill_bins_{name}": _bad_flag(
        "--n-fill-bins", value,
        lambda value: build_pdo(folksam_like_records(n=400), n_fill_bins=int(value)),
        rf"n_fill_bins must be >= 1, got {value}", (_FIT_BIAS,))
       for name, value in (("zero", "0"), ("negative", "-2"))},
    "n_fill_bins_huge": _bad_flag(
        "--n-fill-bins", "1000000000000",
        lambda value: build_pdo(folksam_like_records(n=400), n_fill_bins=int(value)),
        r"n_fill_bins 1000000000000 makes a histogram of more than 1000000 bins",
        (_FIT_BIAS,)),
    # the transfer fit's bins, at most MAX_FIT_BINS
    "bin_width_fit_too_fine": _bad_flag(
        "--bin-width", "0.001",
        lambda value: fit_transfer(*[build_histogram([50.0], [1.0], float(value))] * 2),
        r"bin width 0\.001 km/h makes the transfer fit \d+ bins wide, more than 4096",
        (_FIT_BIAS,)),
    # augment_reference takes p_pdo unchecked
    **{f"p_pdo_{name}": _bad_flag(
        "--p-pdo", value,
        lambda value: build_pdo(folksam_like_records(n=400), p_pdo=float(value)),
        r"p_pdo must be in \(0, 1\)", (_FIT_BIAS,))
       for name, value in (("zero", "0"), ("one", "1"))},
    "p_pdo_above_one": _bad_flag(
        "--p-pdo", "1.5",
        lambda value: build_pdo(folksam_like_records(n=400), p_pdo=float(value)),
        r"p_pdo must be in \(0, 1\), got 1\.5", (_FIT_BIAS,)),
    # chi2_sf takes n_bins - 1 degrees of freedom unchecked
    "n_bins_one": _bad_flag(
        "--n-bins", "1", lambda value: percentile_histogram([50.0], int(value)),
        r"n_bins must be >= 2", (_VALIDATE,)),
    "n_bins_zero": _bad_flag(
        "--n-bins", "0", lambda value: percentile_histogram([50.0], int(value)),
        r"n_bins must be >= 2, got 0", (_VALIDATE,)),
    **{f"cuts_{name}": _bad_flag(
        "--cuts", value, lambda value: cut_glances(shrp2_like_glances(), float(value)),
        rf"cut_at must be > 0, got {value}", (_ASSESS,))
       for name, value in (("nan", "nan"), ("zero", "0.0"), ("negative", "-1.0"))},
    # only +inf is the uncut baseline; argparse takes -inf only after "="
    "cuts_negative_infinite": (
        "inputs/campaign.json", lambda path: cut_glances(shrp2_like_glances(), -math.inf),
        lambda text: text, r"cut_at must be > 0, got -inf", (_ASSESS + ["--cuts=-inf"],),
        ValidationError),
    "transfer_without_c2": (
        "out_fit/transfer.json", load_transfer,
        lambda text: json.dumps({k: v for k, v in json.loads(text).items()
                                 if k != "C2"}),
        r"transfer\.json", (_APPLY,)),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_INPUTS))
def test_malformed_input_is_parse_error_and_exits_two(name, pipeline, tmp_path,
                                                      capsys):
    root, _, _ = pipeline
    copy = tmp_path / "copy"
    shutil.copytree(root, copy, ignore=shutil.ignore_patterns("bad_*"))
    file, loader, edit, where, commands, *error = MALFORMED_INPUTS[name]
    path = copy / file
    # a .npy file is edited as bytes or records, any other as text
    data = path.read_bytes()
    path.write_bytes(edit(data) if path.suffix == ".npy"
                     else edit(data.decode()).encode())
    with pytest.raises(error[0] if error else ParseError, match=where):
        loader(path)
    for command in commands:
        capsys.readouterr()
        with chdir(copy):
            assert main(command) == 2, command[0]
        err = capsys.readouterr().err
        assert err.startswith("error: ") and re.search(where, err), (command[0], err)
        assert "Traceback" not in err


# each file that MALFORMED_INPUTS edits but the .npy files, whose
# truncations `_truncations` makes, and the commands that read it
TRUNCATED_READERS = {
    "inputs/blom.json": (_SIMULATE_BLOM,),
    "inputs/campaign.json": (_SIMULATE, _ASSESS),
    "inputs/decels.csv": (_SIMULATE,),
    "inputs/glances.csv": (_SIMULATE, _ASSESS),
    "inputs/mais1.json": (_VALIDATE_HIST + _CURVES, _ASSESS + _CURVES),
    "inputs/occupants.csv": (_FIT_BIAS,),
    "inputs/synth.json": (_SYNTH,),
    "out_assess/assess.json": (_REPORT_ASSESS,),
    "out_fit/transfer.json": (_APPLY,),
    "out_simulate/summary.json": (_WEIGHT, _VALIDATE, _ASSESS),
    "out_synth/seeds/s0000.csv": (_SIMULATE,),
    "out_synth/seeds/s0000.json": _SEEDS_DIR,
    "out_synth/seeds/s0001.json": _SEEDS_DIR,
    "out_validate/percentile_report.json": (_REPORT_PERCENTILES,),
    "out_weight/hist.csv": (_APPLY, _VALIDATE_HIST, _REPORT_HIST),
}

# a CSV file empty, with its header only (every line before the first
# that starts with a number), cut to half its bytes, and without its last
# line; a JSON file as an empty object or list, or null
TRUNCATIONS = {
    ".csv": {"empty": lambda data: b"",
             "header_only": lambda data: data[:re.search(rb"^[-\d]", data, re.M).start()],
             "half": lambda data: data[:len(data) // 2],
             "last_line_dropped": lambda data: data[:data.rstrip(b"\r\n").rfind(b"\r\n") + 2]},
    ".json": {"empty_object": lambda data: b"{}", "empty_list": lambda data: b"[]",
              "null": lambda data: b"null"},
}
# (file, cut): the error every command that reads the cut file exits 2 with
TRUNCATION_ERRORS = {
    ("inputs/glances.csv", "empty"): r"glances\.csv:1: expected on_road_mass,<number>$",
    ("out_synth/seeds/s0000.json", "empty_object"):
        r"s0000\.json: seed sidecar lacks key 'id'$",
}


def test_truncated_readers_cover_every_malformed_input_file():
    assert set(TRUNCATED_READERS) == {entry[0] for entry in MALFORMED_INPUTS.values()
                                      if not entry[0].endswith(".npy")}


@pytest.mark.parametrize("file,cut", [(file, cut) for file in sorted(TRUNCATED_READERS)
                                      for cut in TRUNCATIONS[Path(file).suffix]])
def test_truncated_input_runs_or_exits_with_its_code(file, cut, pipeline, tmp_path,
                                                     capsys):
    """Each command that reads the cut file either runs, where the cut left
    a valid file, or exits 2 (fit-bias may exit 4 on a fit failure, and
    simulate 3 where the model is undefined) with its error first, and
    never with a traceback."""
    copy = _pipeline_copy(pipeline, tmp_path)
    path = copy / file
    path.write_bytes(TRUNCATIONS[path.suffix][cut](path.read_bytes()))
    for command in TRUNCATED_READERS[file]:
        capsys.readouterr()
        with chdir(copy):
            code = main(command)
        err = capsys.readouterr().err
        allowed = {0, 2, 4} if command[0] == "fit-bias" else {0, 2, 3} if (
            command[0] == "simulate") else {0, 2}
        assert code in allowed, (command[0], code, err)
        assert code == 0 or err.startswith("error: "), (command[0], err)
        assert "Traceback" not in err
        if (file, cut) in TRUNCATION_ERRORS:
            assert code == 2 and re.search(TRUNCATION_ERRORS[file, cut], err, re.M), err


# the header of each file that simulate wrote before its record files
OLD_HEADERS = {
    "matrices.csv": ("seed_id", "axis1_index", "decel_index", "crashed", "v1", "v2",
                     "max_severity"),
    "seeds_summary.csv": OLD_SEEDS_SUMMARY_HEADER,
}


@pytest.mark.parametrize("name,old", [("matrices.npy", "matrices.csv"),
                                      ("seeds.npy", "seeds_summary.csv")])
def test_simulate_output_without_a_record_file_exits_two(name, old, pipeline,
                                                         tmp_path, capsys):
    """A simulate directory written before matrices.npy, with its
    matrices.csv, or before seeds.npy, with its seeds_summary.csv, is
    refused by every stage that reads it, naming the missing file."""
    root, _, _ = pipeline
    copy = tmp_path / "copy"
    shutil.copytree(root, copy, ignore=shutil.ignore_patterns("bad_*"))
    (copy / "out_simulate" / name).unlink()
    (copy / "out_simulate" / old).write_text(",".join(OLD_HEADERS[old]) + "\r\n")
    for command in (_WEIGHT, _VALIDATE, _ASSESS):
        capsys.readouterr()
        with chdir(copy):
            assert main(command) == 2, command[0]
        err = capsys.readouterr().err
        assert err.startswith("error: ") and name in err, err
        assert "Traceback" not in err


def _leave_old_seeds_summary(sim_dir: Path) -> None:
    """Write into `sim_dir` the seeds_summary.csv of an older simulate, a
    row per seed of seeds.npy, with every derived field made up: anchor
    absence, no-response crash and delta-v, crash cells, q_raw and kernel
    calls."""
    derived = {"anchor_absent": 1, "no_resp_crashed": 1, "no_resp_dv_kmh": 99.0,
               "n_crash_cells": 3, "q_raw": 0.5, "kernel_calls": 7}
    seeds = np.load(sim_dir / "seeds.npy")
    with open(sim_dir / "seeds_summary.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(OLD_SEEDS_SUMMARY_HEADER)
        writer.writerows([derived[name] if name in derived else seed[name].item()
                          for name in OLD_SEEDS_SUMMARY_HEADER] for seed in seeds)


def test_nothing_reads_seeds_summary(pipeline, tmp_path):
    """The pipeline runs without seeds_summary.csv. With one that an older
    simulate left in simulate's directory, weight, validate and assess-dms
    write the pipeline's artifacts byte for byte. Their manifests are left
    out, because they digest simulate's directory."""
    root, paths, out = pipeline
    copy = tmp_path / "copy"
    shutil.copytree(root, copy, ignore=shutil.ignore_patterns("bad_*"))
    _leave_old_seeds_summary(copy / "out_simulate")
    seeds_dir = "out_synth/seeds"
    commands = {
        "weight": ["weight", "--simulate-out", "out_simulate"],
        "validate": ["validate", "--model-hist", "out_apply/transformed.csv",
                     "--reference", seeds_dir,
                     "--seeds-summary", "out_simulate/seeds_summary.csv",
                     "--curves", paths["curve"]],
        "assess": ["assess-dms", "--config", paths["campaign"],
                   "--baseline", "out_simulate", "--cuts", "3.0", "2.0", "inf",
                   "--curves", paths["curve"]],
    }
    with chdir(copy):
        for stage, command in commands.items():
            assert main(command + ["--out", f"again_{stage}"]) == 0, stage
    for stage in commands:
        got, want = _files(copy / f"again_{stage}"), _files(out[stage])
        got.pop("manifest.json"), want.pop("manifest.json")
        assert got == want and len(want) >= 2, stage


def _truncate_matrices(root: Path) -> None:
    path = root / "out_simulate" / "matrices.npy"
    path.write_bytes(path.read_bytes()[:-1])


def _edit_text(path: str, edit):
    """An edit of the pipeline's copy: the text edit `edit` of its file
    `path`."""
    def apply(root: Path) -> None:
        file = root / path
        file.write_bytes(edit(file.read_bytes().decode()).encode())
    return apply


_VALIDATE_WEIGHT_HIST = ["validate", "--model-hist", "out_weight/hist.csv",
                         "--reference", "out_synth/seeds",
                         "--seeds-summary", "out_simulate/seeds_summary.csv"]
# name: (command refused after its other inputs were read, the pipeline
# output it would overwrite, an edit of the pipeline's copy or None)
REFUSED_RUNS = {
    "apply_bias_malformed_transfer": (
        ["apply-bias", "--hist", "out_weight/hist.csv",
         "--transfer", "out_fit/transfer.json"], "out_apply",
        _edit_text("out_fit/transfer.json", _set_json(C1=math.nan))),
    # the last cut removes every off-road glance
    "assess_dms_last_cut": (
        ["assess-dms", "--config", "inputs/campaign.json", "--baseline",
         "out_simulate", "--cuts", "2.5", "0.01"], "out_assess", None),
    "fit_bias_p_pdo": (
        ["fit-bias", "--occupants", "inputs/occupants.csv",
         "--injury-hist", "out_synth/seeds", "--p-pdo", "1.5"], "out_fit", None),
    # the histogram is read and checked before the percentile report is
    "report_malformed_percentiles": (
        ["report", "--hist", "model=out_weight/hist.csv",
         "--percentiles", "cbm=empty.json"], "out_report",
        lambda root: (root / "empty.json").write_text("{}")),
    # a worker refuses the seed while the campaign runs
    "simulate_malformed_seed": (
        ["simulate", "--seeds", "out_synth/seeds", "--config", "inputs/campaign.json"],
        "out_simulate",
        _edit_text("out_synth/seeds/s0000.csv", _edit_row(3, lambda f: f[:-1]))),
    "synth_malformed_config": (
        ["synth", "--config", "bad.json"], "out_synth",
        lambda root: (root / "bad.json").write_text(json.dumps({"n_seeds": -1}))),
    "validate_malformed_matrices": (_VALIDATE_WEIGHT_HIST, "out_validate",
                                    _truncate_matrices),
    "validate_n_bins_one": (_VALIDATE_WEIGHT_HIST + ["--n-bins", "1"],
                            "out_validate", None),
    "weight_malformed_matrices": (["weight", "--simulate-out", "out_simulate"],
                                  "out_weight", _truncate_matrices),
}


@pytest.mark.parametrize("existing", [False, True], ids=["new_out", "existing_out"])
@pytest.mark.parametrize("name", sorted(REFUSED_RUNS))
def test_refused_run_writes_nothing(name, existing, pipeline, tmp_path, capsys):
    """Every stage reads every input before it writes an output: a refused
    run exits 2, makes no new --out, and leaves an existing --out (one with
    other outputs of the same stage) with the same files and bytes."""
    root, _, _ = pipeline
    copy = tmp_path / "copy"
    shutil.copytree(root, copy, ignore=shutil.ignore_patterns("bad_*"))
    command, pipeline_out, edit = REFUSED_RUNS[name]
    if edit is not None:
        edit(copy)
    out = copy / (pipeline_out if existing else "fresh_out")
    before = _files(out) if existing else {}
    capsys.readouterr()
    with chdir(copy):
        assert main(command + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err, err
    assert out.exists() == existing
    if existing:
        assert _files(out) == before


def test_assess_dms_rejects_a_repeated_cut(pipeline, tmp_path, capsys):
    """A cut given twice, even spelled differently, exits 2 naming it, and
    nothing is written."""
    root, paths, _ = pipeline
    capsys.readouterr()
    with chdir(root):
        assert main(["assess-dms", "--config", paths["campaign"], "--baseline",
                     "out_simulate", "--cuts", "3", "2", "3.0", "inf", "inf",
                     "--out", str(tmp_path / "assess")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --cuts repeats 3, inf"), err
    assert "Traceback" not in err and not (tmp_path / "assess").exists()


@pytest.mark.parametrize("flag,pairs", [
    ("--hist", ["m=out_weight/hist.csv", "m=out_apply/transformed.csv"]),
    ("--percentiles", ["cbm=out_validate/percentile_report.json"] * 2)])
def test_report_rejects_a_repeated_label(flag, pairs, pipeline, tmp_path, capsys):
    """A label given twice exits 2 naming it, and nothing is written: the
    manifest would list one of its two files, and stats.csv would compare
    the label with itself."""
    root, _, _ = pipeline
    capsys.readouterr()
    with chdir(root):
        assert main(["report", flag, *pairs, "--out", str(tmp_path / "report")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} repeats label "), err
    assert re.search(rf"{flag} repeats label '{pairs[0].split('=')[0]}'", err), err
    assert "Traceback" not in err and not (tmp_path / "report").exists()


def test_cut_with_overshoots_the_baseline_lacks_exits_two(pipeline, tmp_path,
                                                         capsys):
    """Subnormal glance masses can vanish from the uncut overshoot axis
    and not from the cut one: 5e-324 / 3 rounds to 0, but the cut at
    0.2 s doubles the 0.2 s glance's mass, and 1e-323 / 2 does not. The
    baseline then has overshoot 0 only, and reweight refuses the cut."""
    root, paths, _ = pipeline
    copy = tmp_path / "copy"
    shutil.copytree(root, copy, ignore=shutil.ignore_patterns("bad_*"))
    with chdir(copy):
        Path("inputs/glances.csv").write_text(
            "on_road_mass,0.99999999999\r\nduration_s,probability\r\n"
            "0.1,0\r\n0.2,5e-324\r\n0.3,5e-324\r\n")
        assert main(_SIMULATE[:-1] + ["sub_simulate"]) == 0
        assert json.loads(Path("sub_simulate/summary.json").read_text())[
            "grid"]["axis1"] == [0.0]
        capsys.readouterr()
        assert main(["assess-dms", "--config", paths["campaign"], "--baseline",
                     "sub_simulate", "--cuts", "0.2", "--out", "sub_assess"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the target's axis1 values are not a subset "
                          "of the simulated grid's"), err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", [
    ["validate", "--model-hist", "out_apply/transformed.csv",
     "--reference", "out_synth/seeds"],
    ["assess-dms", "--config", "inputs/campaign.json",
     "--baseline", "out_simulate", "--cuts", "3.0", "inf"]])
def test_two_curves_of_one_level_exit_two(command, pipeline, tmp_path, capsys):
    """Two --curves files without a level key and with one file stem give
    one level: validate and assess-dms exit 2 naming it and both files,
    and write nothing."""
    root, _, _ = pipeline
    curves = []
    for name in ("c2", "c3"):
        path = tmp_path / name / "curve.json"
        path.parent.mkdir()
        path.write_text(json.dumps({"intercept": -4.0, "slope": 0.2}))
        curves.append(str(path))
    capsys.readouterr()
    with chdir(root):
        assert main(command + ["--curves", *curves,
                               "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --curves repeats level 'curve': "
                          f"{curves[0]} and {curves[1]}"), err
    assert "Traceback" not in err and not (tmp_path / "out").exists()


def test_malformed_seed_fails_simulate_from_a_worker(pipeline, tmp_path, capfd):
    """Workers parse the seeds, and a worker's ParseError still exits 2
    naming path:line."""
    root, paths, _ = pipeline
    shutil.copytree(root / "inputs", tmp_path / "inputs")
    shutil.copytree(root / "out_synth" / "seeds", tmp_path / "seeds")
    path = tmp_path / "seeds" / "s0000.csv"
    path.write_bytes(_edit_row(3, lambda f: f[:-1])(path.read_bytes().decode()).encode())
    capfd.readouterr()
    with chdir(tmp_path):
        code = main(["simulate", "--seeds", "seeds", "--config", paths["campaign"],
                     "--out", "sim", "--workers", "2"])
    err = capfd.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and re.search(r"s0000\.csv:3:", err), err
    assert "Traceback" not in err


def test_simulate_opens_each_sidecar_once(pipeline, monkeypatch, tmp_path):
    """The seed refs carry the vehicle records, so building a seed does not
    open its sidecar again, and the manifest takes each seed file's digest
    from the bytes parsed: simulate opens every seed file once. The
    outputs are those of the pipeline."""
    root, paths, out = pipeline
    opened = []

    def counted_open(file, *args, **kwargs):
        opened.append(Path(file).name)
        return open(file, *args, **kwargs)

    for module in (scenario, rearsim.manifest):
        monkeypatch.setattr(module, "open", counted_open, raising=False)
    with chdir(root):
        assert main(["simulate", "--seeds", "out_synth/seeds", "--config",
                     paths["campaign"], "--out", str(tmp_path)]) == 0
    seed_files = sorted(p.name for p in (root / "out_synth" / "seeds").iterdir())
    assert len(seed_files) == 16
    assert sorted(name for name in opened if name in seed_files) == seed_files
    for name in SIMULATE_ARTIFACTS:
        assert (tmp_path / name).read_bytes() == (out["simulate"] / name).read_bytes()


def test_synth_memory_does_not_grow_with_seeds(tmp_path):
    """Seeds are written a batch at a time as they are made, so four
    batches of seeds take about the memory of one."""
    def synth(n, out):
        config = tmp_path / f"synth{n}.json"
        config.write_text(json.dumps({"n_seeds": n}))
        assert main(["synth", "--config", str(config),
                     "--out", str(tmp_path / out), "--seed", "5"]) == 0

    synth(SYNTH_BATCH, "warm")  # first-call allocations are not per seed
    _, one = traced_peak(synth, SYNTH_BATCH, "one")
    _, four = traced_peak(synth, 4 * SYNTH_BATCH, "four")
    assert four <= 1.2 * one, four / one


def _synth(root: Path, n_seeds: int, out: str = "synth") -> int:
    config = root / f"synth{n_seeds}.json"
    config.write_text(json.dumps({"n_seeds": n_seeds}))
    return main(["synth", "--config", str(config), "--out", str(root / out),
                 "--seed", "5"])


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


class TestSynthWritesWhole:
    def test_rerun_replaces_the_seeds(self, tmp_path):
        """A rerun into the same --out leaves only the new run's seeds."""
        assert _synth(tmp_path, 5) == 0
        assert _synth(tmp_path, 3) == 0
        assert _synth(tmp_path, 3, "fresh") == 0
        got, want = _files(tmp_path / "synth"), _files(tmp_path / "fresh")
        got.pop("manifest.json"), want.pop("manifest.json")
        assert got == want and len(want) == 2 * 3 + 1
        assert sorted(p.name for p in (tmp_path / "synth").iterdir()) == [
            "manifest.json", "seeds", "summary.json"]

    def test_failure_leaves_the_old_output(self, tmp_path, monkeypatch, capsys):
        """A GenerationError after some seeds were written keeps the old
        seeds, summary and manifest, and leaves no partial directory."""
        assert _synth(tmp_path, 5) == 0
        before = _files(tmp_path / "synth")

        def failing(config, rng_seed):
            yield from itertools.islice(scenario.synthesize_seeds(config, rng_seed), 2)
            raise GenerationError("could not synthesize a colliding seed")

        monkeypatch.setattr(cli, "synthesize_seeds", failing)
        capsys.readouterr()
        assert _synth(tmp_path, 5) == 2
        assert capsys.readouterr().err.startswith("error: could not synthesize")
        assert _files(tmp_path / "synth") == before
        assert sorted(p.name for p in (tmp_path / "synth").iterdir()) == [
            "manifest.json", "seeds", "summary.json"]

    def test_negative_seed_exits_two_before_writing(self, tmp_path, capsys):
        """NumPy's generators take no negative seed: synth refuses one
        before it creates the seeds directory."""
        config = tmp_path / "synth.json"
        config.write_text(json.dumps({"n_seeds": 2}))
        capsys.readouterr()
        assert main(["synth", "--config", str(config), "--out",
                     str(tmp_path / "synth"), "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --seed must be >= 0, got -1"), err
        assert "Traceback" not in err
        assert not (tmp_path / "synth").exists()

    @pytest.mark.parametrize("manifest", [None, {"command": "simulate"}])
    def test_refuses_seeds_it_did_not_write(self, tmp_path, manifest, capsys):
        """An existing seeds/ is replaced only under a synth manifest."""
        seeds = tmp_path / "synth" / "seeds"
        seeds.mkdir(parents=True)
        (seeds / "mine.csv").write_text("keep\n")
        if manifest is not None:
            (tmp_path / "synth" / "manifest.json").write_text(json.dumps(manifest))
        before = _files(tmp_path / "synth")
        capsys.readouterr()
        assert _synth(tmp_path, 2) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "no synth manifest" in err, err
        assert _files(tmp_path / "synth") == before


class TestSynthWriters:
    """synth draws every seed in this process and hands them, SYNTH_TASK
    at a time, to a pool of writer processes."""

    def test_files_do_not_depend_on_the_cpu_count(self, tmp_path, monkeypatch):
        """Nine seeds are five tasks: one CPU writes them in this process,
        two and three in as many writer processes, and every file but the
        manifest's timestamp is the same."""
        published = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(cli, "usable_cpus", lambda: cpus)
            assert _synth(tmp_path, 9, f"cpus{cpus}") == 0
            published.append(_published(tmp_path / f"cpus{cpus}"))
        assert published[0] == published[1] == published[2]
        assert len(published[0]) == 2 * 9 + 2

    @pytest.mark.parametrize("cpus,n_seeds,want", [
        (3, 12, 3), (64, 5, 3), (64, 40, SYNTH_BATCH // (2 * SYNTH_TASK)),
        (1, 12, None), (64, SYNTH_TASK, None), (64, 1, None)])
    def test_pool_is_no_larger_than_the_cpus_or_the_tasks(
            self, cpus, n_seeds, want, tmp_path, monkeypatch):
        """A pool starts all its processes at its first task, so it gets
        min(usable CPUs, tasks) writers, and no more than it is handed
        tasks at once; one CPU or one task gets no pool. The pool is a
        stand-in that starts no process and runs a task when its result
        is read, so it also shows that synth never hands out more than
        SYNTH_BATCH // 2 seeds that are not yet written."""
        import concurrent.futures
        sizes, queued, most = [], [], [0]

        class Deferred:
            def __init__(self, fn, args):
                self.fn, self.args = fn, args

            def result(self):
                if self in queued:
                    queued.remove(self)
                    self.fn(*self.args)

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                queued.append(Deferred(fn, args))
                most[0] = max(most[0], sum(len(f.args[0]) for f in queued))
                return queued[-1]

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(cli, "usable_cpus", lambda: cpus)
        assert _synth(tmp_path, n_seeds) == 0
        assert sizes == ([want] if want else [])
        assert not queued and most[0] <= SYNTH_BATCH // 2
        summary = json.loads((tmp_path / "synth" / "summary.json").read_text())
        assert sorted(p.stem for p in (tmp_path / "synth" / "seeds").glob("*.csv")
                      ) == summary["seed_ids"] == [f"s{k:04d}" for k in range(n_seeds)]

    def test_a_failed_write_in_a_writer_leaves_the_old_output(
            self, tmp_path, monkeypatch, capsys):
        """A writer process that cannot write a seed file makes synth exit
        2 with the error on stderr and no traceback; the old --out stays
        and no <out>.partial is left. The file's path is taken by a
        directory before the first seed is drawn, so any start method's
        writers meet it."""
        assert _synth(tmp_path, 9) == 0
        before = _files(tmp_path / "synth")
        drawn = cli.synthesize_seeds

        def blocked(config, rng_seed):
            (tmp_path / "synth.partial" / "seeds" / "s0005.csv").mkdir()
            yield from drawn(config, rng_seed)

        monkeypatch.setattr(cli, "synthesize_seeds", blocked)
        monkeypatch.setattr(cli, "usable_cpus", lambda: 2)
        capsys.readouterr()
        assert _synth(tmp_path, 9) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "s0005.csv" in err, err
        assert "Traceback" not in err
        assert _files(tmp_path / "synth") == before
        assert not (tmp_path / "synth.partial").exists()


def test_process_pools_run_clean_under_dev_mode(tmp_path):
    """synth's writer pool and simulate's worker pool, run as processes
    under -X dev with ResourceWarning as an error: both exit 0 and write
    nothing to stderr, so no file is left unclosed and no pool unjoined.
    Six seeds are three synth tasks, so synth starts a pool wherever two
    CPUs are usable."""
    paths = write_inputs(tmp_path / "inputs", n_seeds=6)
    src = str(Path(rearsim.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    for command in (["synth", "--config", paths["synth"], "--out", "synth"],
                    ["simulate", "--seeds", "synth/seeds", "--config",
                     paths["campaign"], "--out", "simulate", "--workers", "2"]):
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error::ResourceWarning",
             "-m", "rearsim.cli", *command],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, ""), command


def _pipeline_copy(pipeline, tmp_path: Path) -> Path:
    """A copy of the pipeline's root, without the refused runs' outputs."""
    copy = tmp_path / "copy"
    shutil.copytree(pipeline[0], copy, ignore=shutil.ignore_patterns("bad_*"))
    return copy


def _published(root: Path) -> dict[str, bytes]:
    """`_files` of the output directory `root`, its manifest without the
    timestamp."""
    files = _files(root)
    manifest = json.loads(files["manifest.json"])
    manifest.pop("timestamp")
    return {**files, "manifest.json": json.dumps(manifest, sort_keys=True).encode()}


# a rerun of the stage that writes fewer files than the pipeline's run;
# few.json is a synth config of 3 seeds
FEWER_OUTPUTS = {
    "synth": ["synth", "--config", "few.json", "--seed", "5"],
    "validate": ["validate", "--model-hist", "out_apply/transformed.csv",
                 "--reference", "out_synth/seeds"],
    "assess": ["assess-dms", "--config", "inputs/campaign.json",
               "--baseline", "out_simulate", "--cuts", "inf"],
    "report": ["report", "--hist", "model=out_apply/transformed.csv"],
}


class TestEveryStageWritesWhole:
    """Each stage of the pipeline publishes its --out whole: a fresh
    <out>.partial replaces an --out that is empty or holds a manifest of
    the same command, and only such an --out."""

    @pytest.mark.parametrize("stage", sorted(FEWER_OUTPUTS))
    def test_rerun_with_fewer_outputs_leaves_no_stale_ones(self, stage, pipeline,
                                                           tmp_path):
        """A rerun into the pipeline's --out that writes fewer files, such
        as validate without --seeds-summary and --curves, leaves the files
        of a run into a new --out, and none of the first run's others."""
        copy = _pipeline_copy(pipeline, tmp_path)
        (copy / "few.json").write_text(json.dumps({"n_seeds": 3}))
        out = copy / f"out_{stage}"
        before = _files(out)
        with chdir(copy):
            assert main(FEWER_OUTPUTS[stage] + ["--out", str(out)]) == 0
            assert main(FEWER_OUTPUTS[stage] + ["--out", "fresh"]) == 0
        got = _published(out)
        assert got == _published(copy / "fresh")
        assert len(got) < len(before)

    @pytest.mark.parametrize("stage", STAGES)
    def test_failure_leaves_the_old_output(self, stage, pipeline, tmp_path,
                                           monkeypatch, capsys):
        """An OSError after the stage wrote its outputs, as its manifest is
        written, exits 2, leaves the old --out byte for byte, and leaves no
        <out>.partial."""
        copy = _pipeline_copy(pipeline, tmp_path)
        out = copy / f"out_{stage}"
        before = _files(out)
        written = []

        def failing(out_dir, *args):
            written.extend(p.name for p in Path(out_dir).rglob("*") if p.is_file())
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(rearsim.manifest, "write_manifest", failing)
        capsys.readouterr()
        with chdir(copy):
            assert main(pipeline_commands(INPUT_PATHS)[stage]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno 28] No space left"), err
        assert written
        assert _files(out) == before
        assert not list(copy.glob("*.partial"))

    @pytest.mark.parametrize("stage", STAGES)
    def test_refuses_another_stages_output(self, stage, pipeline, tmp_path, capsys):
        """An --out that holds the output of the stage before, such as
        weight's naming simulate's, exits 2 and is left byte for byte."""
        copy = _pipeline_copy(pipeline, tmp_path)
        other = STAGES[STAGES.index(stage) - 1]
        before = _files(copy / f"out_{other}")
        command = pipeline_commands(INPUT_PATHS)[stage][:-1] + [f"out_{other}"]
        capsys.readouterr()
        with chdir(copy):
            assert main(command) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: out_{other} holds no {command[0]} manifest"), err
        assert "Traceback" not in err
        assert _files(copy / f"out_{other}") == before
        assert not list(copy.glob("*.partial"))

    @pytest.mark.parametrize("stage", STAGES)
    def test_existing_empty_out_is_accepted(self, stage, pipeline, tmp_path):
        """An existing empty --out is replaced by the stage's outputs, the
        pipeline's bytes."""
        copy = _pipeline_copy(pipeline, tmp_path)
        (copy / "empty").mkdir()
        with chdir(copy):
            assert main(pipeline_commands(INPUT_PATHS)[stage][:-1] + ["empty"]) == 0
        assert _published(copy / "empty") == _published(copy / f"out_{stage}")

    @pytest.mark.parametrize("target", ["a_file", "."])
    @pytest.mark.parametrize("stage", STAGES)
    def test_refuses_a_file_or_the_working_directory(self, stage, target, pipeline,
                                                     tmp_path, capsys):
        """An --out that is a file, or the working directory when it holds
        other files, exits 2 naming it, and nothing is written."""
        copy = _pipeline_copy(pipeline, tmp_path)
        (copy / "a_file").write_text("keep\n")
        before = _files(copy)
        capsys.readouterr()
        with chdir(copy):
            assert main(pipeline_commands(INPUT_PATHS)[stage][:-1] + [target]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {target} holds no "), err
        assert "Traceback" not in err
        assert _files(copy) == before
        assert not list(tmp_path.rglob("*.partial"))


def test_rerun_over_its_own_outputs_keeps_every_byte(pipeline, tmp_path):
    """perfbench's repeated rounds run stages again over their own --out,
    and a refused rerun would stop the benchmark. Every stage of the
    pipeline, run again so, rewrites each artifact with the same bytes
    (manifests without their timestamp), and each --out holds exactly its
    manifest's outputs and manifest.json."""
    copy = _pipeline_copy(pipeline, tmp_path)
    before = {stage: _published(copy / f"out_{stage}") for stage in STAGES}
    run_pipeline(copy, pipeline[1])
    for stage in STAGES:
        files = _published(copy / f"out_{stage}")
        assert files == before[stage], stage
        outputs = json.loads(files["manifest.json"])["outputs"]
        assert sorted(Path(name).name for name in files) == sorted(
            [*outputs, "manifest.json"]), stage


def test_weight_pipeline_memory_follows_its_samples():
    """The crash samples that validate's percentiles read are filled once,
    and build_histogram sorts them without an (n, 2) copy or a list of
    per-seed parts."""
    rng = np.random.default_rng(9)
    n1, n2 = 68, 6
    p1, p2 = rng.random(n1), rng.random(n2)
    grid = CampaignGrid(0.1 * np.arange(n1), p1 / p1.sum(),
                        1.5 * np.arange(1, n2 + 1), p2 / p2.sum())
    results = []
    for k in range(200):
        crashed = rng.random((n1, n2)) < 0.6
        v2 = np.where(crashed, rng.uniform(0, 10, (n1, n2)), np.nan)
        v1 = v2 + rng.uniform(0, 10, (n1, n2))
        results.append(swept_result(f"s{k:03d}", grid, v1, v2, Outcome(20.0, 5.0),
                                    follower_mass=1500.0, lead_mass=1200.0,
                                    seed_delta_v_kmh=10.0))
    campaign = CampaignResult("cbm", grid, results, 0.1)

    def weigh_and_sort():
        weighting = weigh(campaign)
        samples = weighted_crash_samples(weighting.seeds, weighting.weights, grid)
        build_histogram(samples.delta_v, samples.weight, 2.0)
        return samples

    cells, peak = traced_peak(weigh_and_sort)
    held = cells.delta_v.nbytes + cells.weight.nbytes
    assert len(cells) == sum(int(r.crashed.sum()) for r in campaign.swept)
    assert peak <= 4 * held, peak / held


def test_weight_memory_does_not_follow_the_crash_samples(monkeypatch):
    """weight's histogram and contributions build no crash sample: they
    sum the row statistics of ROW_BLOCK seeds at a time. On seeds whose
    rows mostly take the no-response outcome, their peak stays far below
    the samples' (a delta-v and a weight per crash cell). validate's
    per-seed percentiles build the samples of ROW_BLOCK seeds at a time,
    and their peak follows one block's samples, not the campaign's."""
    rng = np.random.default_rng(9)
    n1, n2, n_live = 68, 6, 4
    p1, p2 = rng.random(n1), rng.random(n2)
    grid = CampaignGrid(0.1 * np.arange(n1), p1 / p1.sum(),
                        1.5 * np.arange(1, n2 + 1), p2 / p2.sum())
    results = []
    for k in range(8 * ROW_BLOCK):
        crashed = rng.random((n_live, n2)) < 0.6
        v2 = np.where(crashed, rng.uniform(0, 10, (n_live, n2)), np.nan)
        v1 = v2 + rng.uniform(0, 10, (n_live, n2))
        rows = np.sort(rng.choice(n1, n_live, replace=False))
        results.append(swept_result(f"s{k:04d}", grid, v1, v2, Outcome(20.0, 5.0),
                                    rows=rows, follower_mass=1500.0, lead_mass=1200.0,
                                    seed_delta_v_kmh=10.0))
    weighting = weigh(CampaignResult("cbm", grid, results, 0.1))

    def never_built(*args):
        raise AssertionError("weight built crash samples")

    monkeypatch.setattr(outcome, "weighted_crash_samples", never_built)
    _, peak = traced_peak(lambda: (weighting.histogram(), weighting.contributions()))
    monkeypatch.undo()
    cells = [r.n_crash_cells(grid) for r in results]
    samples = 16 * sum(cells)
    assert peak <= samples / 8, peak / samples

    block = 64
    monkeypatch.setattr(outcome, "ROW_BLOCK", block)
    percentiles, peak = traced_peak(seed_percentiles, weighting)
    block_samples = 16 * max(sum(cells[k:k + block]) for k in range(0, len(cells), block))
    assert len(percentiles) == len(results)
    assert peak <= 4 * block_samples, peak / block_samples


def _one_seed(crashed_cell: bool, nr_crashed: bool, fraction: float,
              seed_dv: float = 20.0) -> CampaignResult:
    """A campaign of one eligible seed, mixing in a no-response share of
    `fraction`: its 1 x 2 grid crashes in cell (0, 0) or in none, and its
    no-response run crashes at a delta-v of exactly 20 km/h or does not
    crash."""
    grid = CampaignGrid([0.0], [1.0], [3.0, 6.0], [0.5, 0.5])
    crashed = np.array([[crashed_cell, False]])
    v1, v2 = (np.where(crashed, v, np.nan) for v in (10.0, 5.0))
    nr = Outcome(17.5, 5.0) if nr_crashed else Outcome(math.nan, math.nan)
    seed = swept_result("a", grid, v1, v2, nr, follower_mass=1500.0, lead_mass=1200.0,
                        seed_delta_v_kmh=seed_dv)
    assert math.isnan(seed.no_response_dv) or seed.no_response_dv == 20.0
    return CampaignResult("cbm", grid, [seed], fraction)


@pytest.mark.parametrize("seed_dv,want", [(20.0, 50.0), (19.0, "below-min"),
                                          (21.0, "above-max")])
def test_seed_with_only_its_no_response_crash(seed_dv, want):
    """A seed without crash cells whose no-response run crashed is placed
    in that one sample: it carries the weight f, which seed_percentile
    normalizes to exactly 1. Such a seed is not weighted; the other seed
    of its campaign, b, is."""
    def with_weighted_seed(fraction):
        campaign = _one_seed(False, True, fraction, seed_dv)
        b = _one_seed(True, False, fraction).results[0]
        b = dataclasses.replace(b, seed_id="b")
        return dataclasses.replace(campaign, results=campaign.results + [b])

    weighting = weigh(with_weighted_seed(0.1))
    assert [r.seed_id for r in weighting.seeds] == ["b"]
    assert seed_percentiles(weighting)["a"] == want
    assert "a" not in seed_percentiles(weigh(with_weighted_seed(0.0)))


def test_seed_whose_crash_weights_underflowed_has_no_percentile(monkeypatch):
    """seed_percentile takes weights with a positive sum unchecked: a seed
    whose crash samples all carry weight 0, as after an underflow, is left
    out like a seed without samples."""
    cells = CrashSamples(["a"], [1], np.array([20.0]), np.zeros(1))
    monkeypatch.setattr(outcome, "weighted_crash_samples",
                        lambda seeds, weights, grid, total: cells)
    assert seed_percentiles(weigh(_one_seed(True, False, 0.1))) == {}


def test_mixing_without_a_no_response_crash():
    """A positive no-response fraction needs a no-response crash to mix
    in, and mix_no_response rejects a mix without one (exit 2). At a
    fraction of 0 the histogram is the crash samples' own."""
    with pytest.raises(ValidationError, match="no-response delta-vs required"):
        weigh(_one_seed(True, False, 0.1)).histogram()
    weighting = weigh(_one_seed(True, False, 0.0))
    final = weighting.histogram()
    assert weighting.no_response_dvs == []
    assert (final.mean, final.count) == (
        scenario.delta_v(10.0, 5.0, 1500.0, 1200.0), 1)


@pytest.mark.parametrize("fraction,mixed", [(0.0, 0), (0.1, 1)])
def test_no_response_count_is_the_samples_mixed_in(fraction, mixed):
    """A crashing no-response run counts in n_no_response and n_samples
    only where the fraction mixes it in."""
    weighting = weigh(_one_seed(True, True, fraction))
    final = weighting.histogram()
    assert len(weighting.no_response_dvs) == mixed
    assert final.count == 1 + mixed


def test_reference_histogram_reads_only_the_sidecars(pipeline, monkeypatch):
    """The reference from a seeds directory is the histogram of the loaded
    seeds' delta-v, bitwise, and no trajectory CSV is read for it. What it
    read is each sidecar's digest, taken from the bytes it parsed."""
    root, _, _ = pipeline
    seeds_dir = root / "out_synth" / "seeds"
    dvs = [s.seed_delta_v_kmh for s in load_seed_dir(seeds_dir)]
    want = build_histogram(dvs, np.ones(len(dvs)), DEFAULT_BIN_WIDTH_KMH)

    def no_csv(path, header, *args):
        raise AssertionError(f"read {path}")

    monkeypatch.setattr(table, "read_csv", no_csv)
    monkeypatch.setattr(table, "read_floats", no_csv)
    got, read = _reference_histogram(str(seeds_dir), DEFAULT_BIN_WIDTH_KMH)
    assert got.weights.tobytes() == want.weights.tobytes()
    assert (got.bin_width, got.mean, got.count) == (
        want.bin_width, want.mean, want.count)
    assert read == {p.name: file_digest(p) for p in sorted(seeds_dir.glob("*.json"))}


def test_seeds_directory_manifests_digest_what_the_stage_read(pipeline):
    """fit-bias and validate list only the sidecars they read under their
    seeds-directory input, each with the digest simulate records for it;
    simulate, which parses the trajectories, digests the whole tree."""
    root, _, out = pipeline
    tree = digest_tree(root / "out_synth" / "seeds")
    sidecars = {name: d for name, d in tree.items() if name.endswith(".json")}
    assert len(sidecars) == 8 and len(tree) == 16

    def inputs(stage):
        return json.loads((out[stage] / "manifest.json").read_text())["inputs"]

    assert inputs("simulate")["seeds"] == tree
    assert inputs("fit")["injury_hist"] == sidecars
    assert inputs("validate")["reference"] == sidecars
