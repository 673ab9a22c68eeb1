"""Benchmark of the rearsim CLI chain.

    python3 perfbench/run.py --workload paper-cbm --seed 1 --seconds 10 --trace 0

Run from the repository root. With --trace 0 every stage runs as a fresh
`python -m rearsim.cli` process, one after another (a closed loop with one
client), and the end-to-end metrics are printed. With --trace 1 the chain
runs in this process through `rearsim.cli.main` on one worker, once to
warm up, then untraced and traced, and the per-layer metrics are printed. Both
check the results against the committed reference values and the
artifacts' digests across repeats. The last line of standard output is
the result as JSON; the exit code is 0 only if every check passed.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

import checks
import stages
import tracing
from workloads import WORKLOADS, Workload, input_index, workers_for, write_inputs

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
RUN_BUDGET_S = 170.0  # a run must end within 180 s
SETUP_REPEATS = 3
MIN_ROUNDS = 2  # one sample per stage would carry every scheduling hiccup
REPEATED_STAGES = ("simulate", "weight", "fit_bias", "validate")
IMPORT_REPEATS = 3

END_TO_END = {  # metric -> unit, as declared in BENCHMARK.json
    "setup_s": "s", "chain_s": "s", "simulate_s": "s", "weight_s": "s",
    "fit_bias_s": "s", "validate_s": "s", "peak_rss_mb": "MB",
}


class Run:
    """State of one benchmark run: workload, paths, deadline, ledger."""

    def __init__(self, w: Workload, seed: int, seconds: float, root: Path):
        self.w, self.seed, self.seconds = w, seed, seconds
        self.index = input_index(seed)
        self.src = root / "src"
        self.work = root / ".perfbench" / f"work-{w.name}-s{seed}-{os.getpid()}"
        self.results = root / ".perfbench" / "results"
        self.state = root / ".perfbench" / "state"
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.ledger = checks.Ledger()
        self.fingerprint = checks.tree_fingerprint(self.src)
        self.reference = load_reference(w.name, self.index)
        self._first: dict | None = None

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def check_chain(self, out: Path) -> dict:
        """Result check against the reference, and determinism against the
        first repeat (or, for the first, the record of earlier runs)."""
        try:
            got = checks.headline(out)
            problems = (checks.compare_values(self.reference, got) if self.reference
                        else [f"no reference values for input set {self.index}"])
        except (OSError, KeyError, ValueError) as exc:
            problems = [f"unreadable artifact: {exc!r}"]
        self.ledger.record("result check", problems)
        try:
            observed = {f"digest {k}": v for k, v in checks.output_digests(out).items()}
            counters = checks.counters(out)
        except (OSError, KeyError, ValueError) as exc:
            self.ledger.record("determinism", [f"unreadable manifest: {exc!r}"])
            return {}
        observed.update({f"counter {k}": v for k, v in counters.items()})
        if self._first is None:
            self._first = observed
            record = self.state / f"{self.w.name}-{self.index}-{self.fingerprint[:16]}.json"
            self.ledger.record("determinism against earlier runs",
                               checks.check_record(record, observed))
        else:
            self.ledger.record("determinism across repeats",
                               checks.differing(self._first, observed))
        return counters


def load_reference(workload: str, index: int) -> dict | None:
    path = REFERENCE_DIR / f"{workload}.json"
    if not path.exists():
        return None
    with open(path) as fh:
        return json.load(fh)["input_sets"].get(str(index))


def environment(root: Path, run: Run) -> dict:
    def version(dist: str) -> str:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(), "numpy": version("numpy"),
        "scipy": version("scipy"), "nproc": os.cpu_count(), "cpu": cpu,
        "commit": git_commit(root), "src_sha256": run.fingerprint,
        "workload": run.w.name, "seed": run.seed, "input_set": run.index,
    }


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read without running git; 'unknown' outside a
    git work tree."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ------------------------------------------------------------- end to end

def run_end_to_end(run: Run) -> tuple[dict, dict]:
    w, ledger = run.w, run.ledger
    setup_times, rss = [], []
    first_synth = None
    base = run.work / "setup0"
    for k in range(SETUP_REPEATS):
        d = run.work / f"setup{k}"
        d.mkdir(parents=True)
        start = time.perf_counter()
        paths = write_inputs(w, run.seed, d / "inputs")
        synth = stages.run_process("synth", stages.synth_command(paths, run.index, "synth"),
                                   d, run.src, run.remaining())
        setup_times.append(time.perf_counter() - start)
        rss.append(synth.max_rss_mb)
        if not ledger.stage(synth):
            return {}, {}
        digests = checks.output_digests(d)
        if first_synth is None:
            first_synth = digests
        else:
            ledger.record("determinism across set-ups", checks.differing(first_synth, digests))
            shutil.rmtree(d)

    # The whole chain runs once. Then the stages that have a metric of their
    # own run again over its outputs, which they rewrite byte for byte, so
    # each of them gets a second sample without a second full chain.
    chain = stages.chain_commands(w, paths, "synth/seeds", "chain", workers_for(w))
    samples: dict[str, list[float]] = {}
    chain_s = None
    counters = {}
    rounds = 0
    start = time.perf_counter()
    while True:
        todo = chain if rounds == 0 else [c for c in chain if c[0] in REPEATED_STAGES]
        round_start = time.perf_counter()
        for stage, args in todo:
            result = stages.run_process(stage, args, base, run.src, run.remaining())
            rss.append(result.max_rss_mb)
            if not ledger.stage(result):
                break
            samples.setdefault(stage, []).append(result.seconds)
        else:
            if rounds == 0:
                chain_s = time.perf_counter() - round_start
            counters = run.check_chain(base / "chain")
            rounds += 1
            last = time.perf_counter() - round_start
            if run.remaining() > 1.5 * last and (
                    rounds < MIN_ROUNDS or time.perf_counter() - start < run.seconds):
                continue
        break

    metrics = {"setup_s": statistics.median(setup_times), "peak_rss_mb": max(rss)}
    if chain_s is not None:
        metrics["chain_s"] = chain_s
    for stage, values in samples.items():
        if stage in REPEATED_STAGES or stage == "assess_dms":
            metrics[f"{stage}_s"] = statistics.median(values)
    info = {"rounds": rounds, "setups": len(setup_times),
            "counters": counters, "stage_s": samples}
    return metrics, info


# ------------------------------------------------------------------ traced

def run_traced(run: Run) -> tuple[dict, dict]:
    w, ledger = run.w, run.ledger
    sys.path.insert(0, str(run.src))
    from rearsim import cli

    run.work.mkdir(parents=True)
    import_times = []
    for _ in range(IMPORT_REPEATS):
        result = stages.run_process("import", [], run.work, run.src, run.remaining(),
                                    prog=[sys.executable, "-c", "import rearsim.cli"])
        if ledger.stage(result):
            import_times.append(result.seconds)
    paths = write_inputs(w, run.seed, run.work / "inputs")
    # the first in-process chain pays for lazy imports and warm-up, so it is
    # checked but not timed
    if stages.run_chain_inprocess(cli.main, w, paths, run.index, run.work,
                                  "warm", ledger) is None:
        return {}, {}
    run.check_chain(run.work / "warm" / "out")

    passes, overheads, tracers = 0, [], []
    start = time.perf_counter()
    while True:
        untraced = stages.run_chain_inprocess(cli.main, w, paths, run.index, run.work,
                                              f"u{passes}", ledger)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = stages.run_chain_inprocess(cli.main, w, paths, run.index, run.work,
                                                f"t{passes}", ledger, tracer)
        finally:
            tracer.uninstall()
        if untraced is None or traced is None:
            break
        for name in (f"u{passes}", f"t{passes}"):
            counters = run.check_chain(run.work / name / "out")
        overheads.append(traced - untraced)
        tracers.append(tracer)
        passes += 1
        last = time.perf_counter() - start
        if time.perf_counter() - start >= run.seconds or run.remaining() < 1.2 * last / passes:
            break
    if not tracers:
        return {}, {}
    tracers[0].write(run.results / f"spans-{w.name}-s{run.seed}.json")

    # the same simulate stage on two workers: its run_campaign time against
    # the traced one-worker run_campaign, and its outputs against theirs
    par = tracing.Tracer()
    par.install(targets=[("engine", "run_campaign")])
    try:
        args = stages.chain_commands(w, paths, "t0/synth/seeds", "t0/par", 2)[0][1]
        with par.span("cli.simulate"):
            result = stages.run_inprocess(cli.main, "simulate", args, run.work)
    finally:
        par.uninstall()
    efficiency = None
    if ledger.stage(result):
        one = tracers[0].first_child("cli.simulate", "engine.run_campaign")
        two = par.first_child("cli.simulate", "engine.run_campaign")
        if one and two:
            efficiency = one / (2.0 * two)
        single = {k: v for k, v in checks.output_digests(run.work / "t0" / "out").items()
                  if k.startswith("simulate/")}
        ledger.record("determinism across worker counts",
                      checks.differing(single, checks.output_digests(run.work / "t0" / "par")))

    matrices = run.work / "t0" / "out" / "simulate" / "matrices.csv"
    extra = {
        "cli.import_s": statistics.median(import_times) if import_times else None,
        "engine.parallel_efficiency": efficiency,
        "engine.matrices_bytes": matrices.stat().st_size if matrices.exists() else None,
        "trace.overhead_s": statistics.median(overheads),
    }
    per_pass, missing = [], set()
    for t in tracers:
        values, gone = tracing.layer_metrics(t, extra)
        per_pass.append(values)
        missing.update(gone)
    metrics = {name: statistics.median([v[name] for v in per_pass])
               for name in tracing.PER_LAYER}
    return metrics, {"passes": passes, "counters": counters, "missing": sorted(missing)}


# -------------------------------------------------------------------- main

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="repeat the measured stages (at least twice) until this long has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind through the handlers that kill the running stage
    # and remove the work directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "rearsim" / "cli.py").is_file():
        print("perfbench: ./src/rearsim not found; run from the repository root",
              file=sys.stderr)
        return 2
    run = Run(WORKLOADS[args.workload], args.seed, args.seconds, root)
    try:
        if args.trace:
            metrics, info = run_traced(run)
            declared = {n: unit for n, (unit, _) in tracing.PER_LAYER.items()}
        else:
            metrics, info = run_end_to_end(run)
            declared = END_TO_END
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    ledger = run.ledger
    correct = ledger.failed == 0 and set(declared) <= set(metrics)
    result = {
        "correct": correct, "attempted": max(ledger.attempted, 1),
        "failed": ledger.failed if correct else max(ledger.failed, 1),
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit}
                    for name, unit in declared.items()},
    }
    detail = {"env": environment(root, run), "trace": args.trace,
              "seconds": args.seconds, "error_rate": ledger.error_rate,
              "failures": ledger.failures, **info,
              "extra_metrics": {k: v for k, v in metrics.items() if k not in declared},
              "result": result}
    run.results.mkdir(parents=True, exist_ok=True)
    (run.results / f"{run.w.name}-s{run.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1, sort_keys=True))

    print(f"perfbench {run.w.name} seed {run.seed} (input set {run.index}), "
          f"trace {args.trace}")
    for name, unit in declared.items():
        print(f"  {name:36s} {metrics.get(name, float('nan')):14.6g} {unit}")
    for name, value in detail["extra_metrics"].items():
        print(f"  {name:36s} {value:14.6g} s")
    print(f"  {'error_rate':36s} {ledger.error_rate:14.6g} "
          f"({ledger.failed} of {ledger.attempted} operations failed)")
    if info.get("missing"):
        print(f"  missing (reported as 0): {', '.join(info['missing'])}")
    for failure in ledger.failures:
        print(f"  FAILED {failure}")
    print(json.dumps({k: v for k, v in detail.items() if k != "result"}, sort_keys=True))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
