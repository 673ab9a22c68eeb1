"""The CLI chain of a workload and the two ways it is run: each stage as a
fresh `python -m rearsim.cli` process (end to end), or in this process
through `rearsim.cli.main` (traced)."""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from workloads import CUTS, Workload

TRACEBACK_MARK = "Traceback (most recent call last)"


def synth_command(paths: dict, seed: int, out: str) -> list[str]:
    return ["synth", "--config", paths["synth"], "--out", out,
            "--seed", str(seed)]


def chain_commands(w: Workload, paths: dict, seeds: str, out: str,
                   workers: int) -> list[tuple[str, list[str]]]:
    """(stage, argv) from simulate through report; outputs go to
    `out/<stage>`, and paths are relative to the directory the chain runs
    in."""
    def o(stage: str, name: str = "") -> str:
        return f"{out}/{stage}/{name}" if name else f"{out}/{stage}"

    cmds = [
        ("simulate", ["simulate", "--seeds", seeds, "--config", paths["campaign"],
                      "--out", o("simulate"), "--workers", str(workers)]),
        ("weight", ["weight", "--simulate-out", o("simulate"),
                    "--out", o("weight")]),
        ("fit_bias", ["fit-bias", "--occupants", paths["occupants"],
                      "--injury-hist", seeds, "--out", o("fit_bias")]),
        ("apply_bias", ["apply-bias", "--hist", o("weight", "hist.csv"),
                        "--transfer", o("fit_bias", "transfer.json"),
                        "--out", o("apply_bias")]),
        ("validate", ["validate", "--model-hist", o("apply_bias", "transformed.csv"),
                      "--reference", seeds,
                      "--samples", o("weight", "samples.csv"),
                      "--seeds-summary", o("simulate", "seeds_summary.csv"),
                      "--curves", paths["curve"], "--out", o("validate")]),
    ]
    report = ["report",
              "--hist", f"reference={o('fit_bias', 'augmented_reference.csv')}",
              f"model={o('apply_bias', 'transformed.csv')}",
              "--percentiles", f"{w.model}={o('validate', 'percentile_report.json')}"]
    if w.assess_dms:
        cmds.append(("assess_dms", [
            "assess-dms", "--seeds", seeds, "--config", paths["campaign"],
            "--baseline", o("simulate"), "--cuts", *CUTS, "--out", o("assess_dms"),
            "--workers", str(workers), "--curves", paths["curve"]]))
        report += ["--assess", o("assess_dms", "assess.json")]
    cmds.append(("report", report + ["--out", o("report")]))
    return cmds


@dataclass
class StageRun:
    stage: str
    seconds: float
    returncode: int
    traceback: bool
    max_rss_mb: float = 0.0

    @property
    def ok(self) -> bool:
        return self.returncode == 0 and not self.traceback


def run_process(stage: str, args: list[str], cwd: Path, src: Path,
                timeout: float, prog: list[str] | None = None) -> StageRun:
    """Run one stage as a fresh interpreter and wait for it; a stage that
    outlives `timeout` is killed. stderr goes to `cwd/<stage>.stderr`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    argv = (prog or [sys.executable, "-m", "rearsim.cli"]) + args
    err_path = cwd / f"{stage}.stderr"
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(max(timeout, 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = err_path.read_text(errors="replace")
    return StageRun(stage, seconds, proc.returncode, TRACEBACK_MARK in stderr,
                    usage.ru_maxrss / 1024.0)


def run_inprocess(main, stage: str, args: list[str], cwd: Path) -> StageRun:
    """Call `main(args)` with `cwd` as working directory and the stage's
    output captured; an exception counts as a traceback."""
    old = os.getcwd()
    sink = io.StringIO()
    os.chdir(cwd)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = main(args)
        failed = False
    except Exception:  # a crashing stage is a counted failure, not a crash
        code, failed = 1, True
        sink.write(traceback.format_exc())
    finally:
        seconds = time.perf_counter() - start
        os.chdir(old)
    (cwd / f"{stage}.stderr").write_text(sink.getvalue())
    return StageRun(stage, seconds, code, failed)


def run_chain_inprocess(main, w: Workload, paths: dict, seed: int, cwd: Path,
                        name: str, ledger, tracer=None) -> float | None:
    """Synth and the whole chain in this process on one worker, outputs
    under `cwd/name`. Returns the wall time, or None if a stage failed."""
    stages = [("synth", synth_command(paths, seed, f"{name}/synth"))]
    stages += chain_commands(w, paths, f"{name}/synth/seeds", f"{name}/out", 1)
    start = time.perf_counter()
    for stage, args in stages:
        with tracer.span(f"cli.{stage}") if tracer else contextlib.nullcontext():
            run = run_inprocess(main, stage, args, cwd)
        if not ledger.stage(run):
            return None
    return time.perf_counter() - start
