"""Spans around calls into the program's layers, and the per-layer
metrics computed from them.

Each public function named in WRAPPED is replaced, in every `rearsim`
module that holds it, by a wrapper that records a span (name, start, end,
parent) in memory; the benchmark itself opens one span per CLI stage.
A name the program no longer defines is reported as missing.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

WRAPPED = (
    ("scenario", "load_seed_dir"), ("scenario", "remove_evasive_maneuver"),
    ("scenario", "synthesize_seeds"),
    ("looming", "looming_series"), ("looming", "find_anchor"),
    ("engine", "run_campaign"), ("engine", "sweep_seed"),
    ("engine", "save_matrices"), ("engine", "load_matrices"),
    ("outcome", "prevalence_weights"), ("outcome", "weighted_crash_samples"),
    ("outcome", "build_histogram"),
    ("bias", "build_pdo"), ("bias", "fit_transfer"),
    ("validation", "seed_percentile"), ("validation", "compare"),
    ("validation", "crash_avoidance_rate"),
    ("manifest", "write_manifest"), ("manifest", "file_digest"),
    ("report", "histogram_svg"), ("report", "percentile_svg"),
    ("report", "bar_svg"),
)


def _fit_points(result, args, kwargs):
    from rearsim import bias
    with_pdo = args[0] if args else kwargs["with_pdo"]
    return len(bias.C1_GRID) * len(bias.C2_GRID) * len(with_pdo.weights)


# counter name -> (wrapped function, amount a call adds given its result)
COUNTERS = {
    "looming.anchor_absent": ("looming.find_anchor",
                              lambda r, a, k: int(r is None)),
    "engine.kernel_calls": ("engine.run_campaign", lambda r, a, k: r.kernel_calls),
    "engine.theoretical_cells": ("engine.run_campaign",
                                 lambda r, a, k: r.theoretical_cells),
    "engine.crash_cells": ("engine.run_campaign", lambda r, a, k: r.crash_cells),
    "outcome.samples": ("outcome.weighted_crash_samples", lambda r, a, k: len(r)),
    "bias.pdo_iterations": ("bias.build_pdo", lambda r, a, k: r[2]["iterations"]),
    "bias.fit_transfer_points": ("bias.fit_transfer", _fit_points),
    "manifest.bytes_digested": ("manifest.file_digest",
                                lambda r, a, k: os.path.getsize(a[0] if a else k["path"])),
}


class Tracer:
    """In-memory spans plus counters observed at the same boundaries."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: set[str] = set()
        self._patched: list[tuple] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else None])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def _wrap(self, name: str, fn):
        observers = [(c, f) for c, (target, f) in COUNTERS.items() if target == name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            for counter, amount in observers:
                try:
                    self.counts[counter] += amount(result, args, kwargs)
                except Exception:  # the result changed shape: report, go on
                    self.missing.add(counter)
            return result
        return wrapper

    def install(self, targets=WRAPPED, package: str = "rearsim") -> None:
        """Wrap each target wherever a module of `package` refers to it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for module_name, func in targets:
            name = f"{module_name}.{func}"
            home = sys.modules.get(f"{package}.{module_name}")
            original = getattr(home, func, None)
            if not callable(original):
                self.missing.add(name)
                continue
            wrapper = self._wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # ------------------------------------------------------------ queries

    def total(self, *names: str) -> float:
        return sum(e - s for n, s, e, _ in self.spans if n in names)

    def calls(self, name: str) -> int:
        return sum(1 for n, *_ in self.spans if n == name)

    def self_time(self, name: str) -> float:
        """Summed duration of `name` spans minus that of their children."""
        child_time: dict[int, float] = defaultdict(float)
        for _, s, e, parent in self.spans:
            if parent is not None:
                child_time[parent] += e - s
        return sum(e - s - child_time[i]
                   for i, (n, s, e, _) in enumerate(self.spans) if n == name)

    def first_child(self, parent_name: str, name: str) -> float | None:
        for n, s, e, parent in self.spans:
            if n == name and parent is not None and self.spans[parent][0] == parent_name:
                return e - s
        return None

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)


# metric -> (unit, better)
PER_LAYER = {
    "cli.import_s": ("s", "lower"),
    "cli.simulate.self_s": ("s", "lower"),
    "cli.weight.self_s": ("s", "lower"),
    "cli.validate.self_s": ("s", "lower"),
    "cli.assess_dms.self_s": ("s", "lower"),
    "scenario.load_seed_dir_s": ("s", "lower"),
    "scenario.load_seed_dir_calls": ("count", "lower"),
    "scenario.remove_evasive_maneuver_s": ("s", "lower"),
    "scenario.synthesize_seeds_s": ("s", "lower"),
    "looming.anchor_s": ("s", "lower"),
    "looming.anchor_absent": ("count", "lower"),
    "engine.run_campaign_s": ("s", "lower"),
    "engine.run_campaign_calls": ("count", "lower"),
    "engine.sweep_seed_s": ("s", "lower"),
    "engine.kernel_us": ("us", "lower"),
    "engine.kernel_calls": ("count", "lower"),
    "engine.theoretical_cells": ("count", "lower"),
    "engine.crash_cells": ("count", "lower"),
    "engine.calls_per_cell": ("ratio", "lower"),
    "engine.parallel_efficiency": ("ratio", "higher"),
    "engine.save_matrices_s": ("s", "lower"),
    "engine.load_matrices_s": ("s", "lower"),
    "engine.matrices_bytes": ("bytes", "lower"),
    "outcome.prevalence_weights_s": ("s", "lower"),
    "outcome.weighted_crash_samples_s": ("s", "lower"),
    "outcome.build_histogram_s": ("s", "lower"),
    "outcome.samples": ("count", "lower"),
    "bias.build_pdo_s": ("s", "lower"),
    "bias.pdo_iterations": ("count", "lower"),
    "bias.fit_transfer_s": ("s", "lower"),
    "bias.fit_transfer_points": ("count", "lower"),
    "validation.seed_percentile_s": ("s", "lower"),
    "validation.compare_s": ("s", "lower"),
    "validation.crash_avoidance_rate_s": ("s", "lower"),
    "manifest.write_manifest_s": ("s", "lower"),
    "manifest.bytes_digested": ("bytes", "lower"),
    "report.svg_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# metric -> wrapped functions whose spans it sums
SPAN_TOTALS = {
    "scenario.load_seed_dir_s": ("scenario.load_seed_dir",),
    "scenario.remove_evasive_maneuver_s": ("scenario.remove_evasive_maneuver",),
    "scenario.synthesize_seeds_s": ("scenario.synthesize_seeds",),
    "looming.anchor_s": ("looming.looming_series", "looming.find_anchor"),
    "engine.run_campaign_s": ("engine.run_campaign",),
    "engine.sweep_seed_s": ("engine.sweep_seed",),
    "engine.save_matrices_s": ("engine.save_matrices",),
    "engine.load_matrices_s": ("engine.load_matrices",),
    "outcome.prevalence_weights_s": ("outcome.prevalence_weights",),
    "outcome.weighted_crash_samples_s": ("outcome.weighted_crash_samples",),
    "outcome.build_histogram_s": ("outcome.build_histogram",),
    "bias.build_pdo_s": ("bias.build_pdo",),
    "bias.fit_transfer_s": ("bias.fit_transfer",),
    "validation.seed_percentile_s": ("validation.seed_percentile",),
    "validation.compare_s": ("validation.compare",),
    "validation.crash_avoidance_rate_s": ("validation.crash_avoidance_rate",),
    "manifest.write_manifest_s": ("manifest.write_manifest",),
    "report.svg_s": ("report.histogram_svg", "report.percentile_svg",
                     "report.bar_svg"),
}


def layer_metrics(tracer: Tracer, extra: dict[str, float | None]) -> tuple[dict, list[str]]:
    """Per-layer values from a traced chain, plus values measured outside
    it (`extra`, None when unmeasured). Returns (values, missing names);
    a missing metric, or one neither traced nor in `extra`, reads 0."""
    values: dict[str, float] = {}
    missing: set[str] = set()
    for metric, names in SPAN_TOTALS.items():
        values[metric] = tracer.total(*names)
        if any(n in tracer.missing for n in names):
            missing.add(metric)
    for stage in ("simulate", "weight", "validate", "assess_dms"):
        values[f"cli.{stage}.self_s"] = tracer.self_time(f"cli.{stage}")
    for metric in COUNTERS:
        values[metric] = tracer.counts.get(metric, 0)
        if metric in tracer.missing or COUNTERS[metric][0] in tracer.missing:
            missing.add(metric)
    for metric, name in (("scenario.load_seed_dir_calls", "scenario.load_seed_dir"),
                         ("engine.run_campaign_calls", "engine.run_campaign")):
        values[metric] = tracer.calls(name)
        if name in tracer.missing:
            missing.add(metric)
    calls = values["engine.kernel_calls"]
    values["engine.kernel_us"] = 1e6 * values["engine.sweep_seed_s"] / calls if calls else 0.0
    cells = values["engine.theoretical_cells"]
    values["engine.calls_per_cell"] = calls / cells if cells else 0.0
    if "engine.kernel_calls" in missing or "engine.sweep_seed_s" in missing:
        missing.add("engine.kernel_us")
    if {"engine.kernel_calls", "engine.theoretical_cells"} & missing:
        missing.add("engine.calls_per_cell")
    for metric, value in extra.items():
        values[metric] = value if value is not None else 0.0
        if value is None:
            missing.add(metric)
    for metric, (unit, _) in PER_LAYER.items():
        if metric not in values:
            values[metric] = 0
            missing.add(metric)
        if unit in ("count", "bytes"):
            values[metric] = int(round(values[metric]))
    return values, sorted(missing)
