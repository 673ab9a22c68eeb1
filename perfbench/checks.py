"""Result and determinism checks on a chain's artifacts.

The result check reads the values a user reads (weight mean and
histogram, transfer C1/C2, comparison statistics, percentile counts,
injury risks, per-cut avoidance and mean delta-v) and compares them with
the committed reference values: floats at a relative tolerance of 1e-9,
integers exactly. It compares values, not bytes, so a change of file
format alone does not fail it.

The determinism check compares the manifests' output digests and the
counters of every repeat of a workload, within a run and, through a
record kept in the checkout, across runs of the same code.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

REL_TOL = 1e-9
ABS_TOL = 1e-12  # values that are zero up to rounding, e.g. avoidance at no cut


def _json(path: Path):
    with open(path) as fh:
        return json.load(fh)


def _column(path: Path, name: str) -> list[float]:
    with open(path, newline="") as fh:
        return [float(row[name]) for row in csv.DictReader(fh)]


def headline(root: Path) -> dict:
    """Headline values of one chain whose stage outputs live in
    `root/<stage>`."""
    out: dict = {}
    weight = _json(root / "weight" / "summary.json")
    out["weight"] = {"mean_kmh": weight["mean_kmh"],
                     "hist": _column(root / "weight" / "hist.csv", "weight")}
    transfer = _json(root / "fit_bias" / "transfer.json")
    out["transfer"] = {"C1": transfer["C1"], "C2": transfer["C2"]}
    out["comparison"] = _json(root / "validate" / "comparison.json")
    pct = _json(root / "validate" / "percentile_report.json")
    out["percentiles"] = {k: pct[k] for k in ("counts", "below_min", "above_max")}
    out["injury_risk"] = _json(root / "validate" / "injury_risk.json")
    assess = root / "assess_dms" / "assess.json"
    if assess.exists():
        out["cuts"] = {
            str(row["cut_at_s"]): {k: row[k] for k in
                                   ("avoidance_rate", "mean_dv_kmh", "injury_risk")
                                   if k in row}
            for row in _json(assess)["cuts"]}
    return out


def compare_values(ref, got, path: str = "") -> list[str]:
    """Paths at which `got` differs from `ref`. Keys only `got` has are
    ignored."""
    where = path or "<root>"
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            return [f"{where}: expected a mapping"]
        out = []
        for key, value in ref.items():
            sub = f"{path}.{key}" if path else str(key)
            if key not in got:
                out.append(f"{sub}: missing")
            else:
                out += compare_values(value, got[key], sub)
        return out
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{where}: expected {len(ref)} values"]
        out = []
        for i, (r, g) in enumerate(zip(ref, got)):
            out += compare_values(r, g, f"{path}[{i}]")
        return out
    if isinstance(ref, bool) or isinstance(ref, int) or ref is None or isinstance(ref, str):
        same = type(got) is type(ref) and got == ref
        return [] if same else [f"{where}: {got!r} != {ref!r}"]
    if isinstance(got, (int, float)) and not isinstance(got, bool) and math.isclose(
            got, ref, rel_tol=REL_TOL, abs_tol=ABS_TOL):
        return []
    return [f"{where}: {got!r} != {ref!r}"]


def output_digests(root: Path) -> dict[str, str]:
    """Output digests recorded in each stage manifest under `root`."""
    return {f"{m.parent.name}/{name}": digest
            for m in sorted(root.glob("*/manifest.json"))
            for name, digest in _json(m)["outputs"].items()}


COUNTER_FILES = {
    "simulate": ("summary.json", ("n_seeds", "n_excluded", "theoretical_cells",
                                  "kernel_calls", "crash_cells")),
    "weight": ("summary.json", ("n_samples", "n_weighted_seeds", "n_no_response")),
}


def counters(root: Path) -> dict[str, int]:
    """Deterministic counters the program writes, keyed `stage.name`."""
    out = {}
    for stage, (name, keys) in COUNTER_FILES.items():
        path = root / stage / name
        if path.exists():
            payload = _json(path)
            out.update({f"{stage}.{k}": payload[k] for k in keys if k in payload})
    pdo = root / "fit_bias" / "pdo.json"
    if pdo.exists():
        iterations = _json(pdo).get("diagnostics", {}).get("iterations")
        if iterations is not None:
            out["fit_bias.pdo_iterations"] = iterations
    return out


def differing(first: dict, other: dict) -> list[str]:
    return sorted(k for k in first.keys() | other.keys()
                  if first.get(k) != other.get(k))


def tree_fingerprint(src: Path) -> str:
    """Digest of the program's source tree, naming the code a record
    belongs to when the checkout carries no commit."""
    h = hashlib.sha256()
    for p in sorted(src.rglob("*.py")):
        h.update(str(p.relative_to(src)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def check_record(path: Path, observed: dict) -> list[str]:
    """Compare with the record an earlier run of the same code and inputs
    left at `path`; the first run writes it. Returns differing keys."""
    if path.exists():
        return differing(_json(path), observed)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(observed, sort_keys=True, indent=1))
    tmp.replace(path)
    return []


class Ledger:
    """Operations attempted and failed in one run: stage processes,
    result checks and determinism comparisons."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, operation: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            shown = "; ".join(problems[:5])
            more = f" (+{len(problems) - 5} more)" if len(problems) > 5 else ""
            self.failures.append(f"{operation}: {shown}{more}")
        return not problems

    def stage(self, run) -> bool:
        problems = []
        if run.returncode != 0:
            problems.append(f"exit code {run.returncode}")
        if run.traceback:
            problems.append("traceback on stderr")
        return self.record(f"stage {run.stage}", problems)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
