"""Tests of the benchmark's own checks and accounting.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
import run as bench  # noqa: E402
import stages  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def write_artifacts(out: Path, c1: float = -3.25, counts=(3, 4, 5)) -> None:
    """The artifacts the result check reads, as the CLI writes them."""
    for stage in ("weight", "fit_bias", "validate"):
        (out / stage).mkdir(parents=True, exist_ok=True)
    (out / "weight" / "summary.json").write_text(json.dumps({"mean_kmh": 11.5}))
    (out / "weight" / "hist.csv").write_text(
        "bin_low_kmh,bin_high_kmh,weight\n0.0,2.0,0.25\n2.0,4.0,0.75\n")
    (out / "fit_bias" / "transfer.json").write_text(json.dumps({"C1": c1, "C2": 0.125}))
    (out / "validate" / "comparison.json").write_text(
        json.dumps({"tv_distance": 0.1, "ks_distance": 0.2}))
    (out / "validate" / "percentile_report.json").write_text(json.dumps(
        {"counts": list(counts), "below_min": 1, "above_max": 0, "chi2": 2.0}))
    (out / "validate" / "injury_risk.json").write_text(
        json.dumps({"mais1+": {"model": 0.5, "reference": 0.25}}))
    for stage in ("weight", "fit_bias", "validate"):
        (out / stage / "manifest.json").write_text(
            json.dumps({"outputs": {"summary.json": "ab"}}))


@pytest.fixture
def bench_run(tmp_path):
    (tmp_path / "src").mkdir()
    reference_out = tmp_path / "reference"
    write_artifacts(reference_out)
    run = bench.Run(WORKLOADS["paper-cbm"], 0, 1.0, tmp_path)
    run.reference = checks.headline(reference_out)
    return run


class TestResultCheck:
    def test_identical_artifacts_pass(self, bench_run, tmp_path):
        write_artifacts(tmp_path / "out")
        bench_run.check_chain(tmp_path / "out")
        assert bench_run.ledger.failures == []

    def test_doctored_float_fails(self, bench_run, tmp_path):
        write_artifacts(tmp_path / "out", c1=-3.25 * (1 + 1e-7))
        bench_run.check_chain(tmp_path / "out")
        assert bench_run.ledger.failed == 1
        assert "transfer.C1" in bench_run.ledger.failures[0]

    def test_doctored_count_fails(self, bench_run, tmp_path):
        write_artifacts(tmp_path / "out", counts=(3, 5, 4))
        bench_run.check_chain(tmp_path / "out")
        assert bench_run.ledger.failed == 1
        assert "percentiles.counts[1]" in bench_run.ledger.failures[0]

    def test_format_only_change_passes(self, bench_run, tmp_path):
        out = tmp_path / "out"
        write_artifacts(out)
        # reordered and extra columns, an extra JSON field, rounding noise
        (out / "weight" / "hist.csv").write_text(
            "weight,bin_low_kmh,bin_high_kmh,note\n0.25,0.0,2.0,x\n"
            f"{0.75 * (1 + 1e-12)!r},2.0,4.0,y\n")
        (out / "fit_bias" / "transfer.json").write_text(
            json.dumps({"C2": 0.125, "C1": -3.25, "cost": 1.0}))
        bench_run.check_chain(out)
        assert bench_run.ledger.failures == []

    def test_missing_artifact_is_a_failure_not_a_crash(self, bench_run, tmp_path):
        write_artifacts(tmp_path / "out")
        (tmp_path / "out" / "fit_bias" / "transfer.json").unlink()
        bench_run.check_chain(tmp_path / "out")
        assert bench_run.ledger.failed == 1
        assert bench_run.ledger.failures[0].startswith("result check: unreadable artifact")

    def test_missing_value_fails(self):
        assert checks.compare_values({"a": {"b": 1.0}}, {"a": {}}) == ["a.b: missing"]

    def test_int_is_not_float(self):
        assert checks.compare_values({"n": 3}, {"n": 3.0}) != []


class TestDeterminism:
    def test_record_then_compare(self, tmp_path):
        record = tmp_path / "state" / "r.json"
        assert checks.check_record(record, {"digest a": "1"}) == []
        assert checks.check_record(record, {"digest a": "1"}) == []
        assert checks.check_record(record, {"digest a": "2"}) == ["digest a"]

    def test_repeat_with_other_digest_fails(self, bench_run, tmp_path):
        for name, digest in (("one", "ab"), ("two", "cd")):
            write_artifacts(tmp_path / name)
            (tmp_path / name / "weight" / "manifest.json").write_text(
                json.dumps({"outputs": {"summary.json": digest}}))
            bench_run.check_chain(tmp_path / name)
        assert bench_run.ledger.failures == [
            "determinism across repeats: digest weight/summary.json"]


class TestStageFailures:
    def test_nonzero_exit_counts_in_error_rate(self, tmp_path):
        ledger = checks.Ledger()
        ledger.record("result check", [])
        result = stages.run_process(
            "simulate", [], tmp_path, tmp_path, 30.0,
            prog=[sys.executable, "-c", "import sys; sys.exit(3)"])
        assert result.returncode == 3
        assert not ledger.stage(result)
        assert ledger.error_rate == 0.5
        assert ledger.failures == ["stage simulate: exit code 3"]

    def test_traceback_is_a_failure(self, tmp_path):
        result = stages.run_process(
            "weight", [], tmp_path, tmp_path, 30.0,
            prog=[sys.executable, "-c", "raise KeyError('C2')"])
        assert result.traceback and not result.ok

    def test_failing_chain_exits_nonzero(self, tmp_path, monkeypatch, capsys):
        # a program whose synth works and whose simulate exits 3
        pkg = tmp_path / "src" / "rearsim"
        pkg.mkdir(parents=True)
        (pkg / "__init__.py").write_text("")
        (pkg / "cli.py").write_text(
            "import json, pathlib, sys\n"
            "args = sys.argv[1:]\n"
            "if args[0] != 'synth':\n"
            "    sys.exit(3)\n"
            "out = pathlib.Path(args[args.index('--out') + 1])\n"
            "out.mkdir(parents=True)\n"
            "(out / 'manifest.json').write_text(json.dumps({'outputs': {}}))\n")
        monkeypatch.chdir(tmp_path)
        code = bench.main(["--workload", "paper-cbm", "--seed", "1",
                           "--seconds", "1", "--trace", "0"])
        last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert code == 1
        assert last["correct"] is False
        assert last["failed"] == 1 and last["attempted"] == 6  # 3 synth, 2 checks
        assert list((tmp_path / ".perfbench").glob("work-*")) == []

    def test_no_program_exits_nonzero_without_result(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code = bench.main(["--workload", "blom-mixed", "--seed", "1",
                           "--seconds", "1", "--trace", "0"])
        assert code != 0
        assert capsys.readouterr().out == ""


@pytest.fixture
def fake_package(monkeypatch):
    engine = types.ModuleType("fakepkg.engine")
    engine.run_campaign = lambda seeds: types.SimpleNamespace(
        kernel_calls=7, theoretical_cells=20, crash_cells=5)
    engine.sweep_seed = lambda: None
    user = types.ModuleType("fakepkg.cli")
    user.run_campaign = engine.run_campaign  # imported by name elsewhere
    monkeypatch.setitem(sys.modules, "fakepkg", types.ModuleType("fakepkg"))
    monkeypatch.setitem(sys.modules, "fakepkg.engine", engine)
    monkeypatch.setitem(sys.modules, "fakepkg.cli", user)
    return engine, user


class TestTracing:
    def test_missing_function_is_reported(self, fake_package):
        engine, user = fake_package
        tracer = tracing.Tracer()
        tracer.install(targets=[("engine", "run_campaign"), ("engine", "save_matrices"),
                                ("nomodule", "gone")], package="fakepkg")
        try:
            with tracer.span("cli.simulate"):
                user.run_campaign([])
        finally:
            tracer.uninstall()
        assert tracer.missing == {"engine.save_matrices", "nomodule.gone"}
        values, missing = tracing.layer_metrics(tracer, {"cli.import_s": None})
        assert "engine.save_matrices_s" in missing and "cli.import_s" in missing
        assert values["engine.save_matrices_s"] == 0
        assert values["engine.run_campaign_calls"] == 1
        assert values["engine.kernel_calls"] == 7
        assert values["engine.calls_per_cell"] == pytest.approx(0.35)

    def test_wrapped_where_looked_up_and_restored(self, fake_package):
        engine, user = fake_package
        original = engine.run_campaign
        tracer = tracing.Tracer()
        tracer.install(targets=[("engine", "run_campaign")], package="fakepkg")
        assert user.run_campaign is engine.run_campaign is not original
        tracer.uninstall()
        assert user.run_campaign is engine.run_campaign is original

    def test_changed_result_marks_counter_missing(self, fake_package):
        engine, _ = fake_package
        engine.run_campaign = lambda seeds: object()  # no counters any more
        tracer = tracing.Tracer()
        tracer.install(targets=[("engine", "run_campaign")], package="fakepkg")
        try:
            engine.run_campaign([])
        finally:
            tracer.uninstall()
        _, missing = tracing.layer_metrics(tracer, {})
        assert {"engine.kernel_calls", "engine.kernel_us"} <= set(missing)

    def test_self_time_subtracts_children(self):
        tracer = tracing.Tracer()
        tracer.spans = [["cli.weight", 0.0, 10.0, None],
                        ["engine.load_matrices", 1.0, 4.0, 0],
                        ["outcome.build_histogram", 5.0, 6.0, 0],
                        ["manifest.file_digest", 5.2, 5.5, 2]]
        assert tracer.self_time("cli.weight") == pytest.approx(6.0)
        assert tracer.self_time("outcome.build_histogram") == pytest.approx(0.7)
        assert tracer.total("engine.load_matrices") == pytest.approx(3.0)
