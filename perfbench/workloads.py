"""Workload definitions and the input files each one is built from.

Every input is generated from the workload seed, so the program under test
sees only files. The recipes mirror the naturalistic-scale fixtures of the
test suite (a 4,604-glance off-road sample, 45 maximum decelerations over
six 1.5 m/s^2 bins, threshold-censored insurance records) and are written in
the documented input formats without importing the program.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Inputs repeat with period N_INPUT_SETS in the seed: seed k and seed
# k + N_INPUT_SETS build the same files, so every seed has committed
# reference values to be checked against.
N_INPUT_SETS = 16

PAPER_MIX = {"braking": 68, "non_braking": 15, "standstill": 20}
CUTS = ("3.0", "2.0", "inf")
CURVE = {"level": "mais1+", "intercept": -4.0, "slope": 0.2}

N_GLANCES = 4604
N_GLANCE_BINS = 67
MAX_GLANCE = 6.7
ON_ROAD = 0.8
N_DECEL_CRASHES = 45
DECEL_BIN_WIDTH = 1.5
N_OCCUPANTS = 400


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_seeds: int
    model: str
    workers: int
    assess_dms: bool
    lead_mix: dict | None = None  # None keeps the synthesizer's default mix


WORKLOADS = {w.name: w for w in (
    Workload("paper-cbm",
             "the paper's 103-seed case mix on one worker; start-up and "
             "assess-dms re-simulation dominate",
             103, "cbm", 1, True, PAPER_MIX),
    Workload("scale-cbm",
             "400 CBM seeds on two workers, the only pool user; kernel, "
             "matrices I/O and seed parsing are half the chain, no assess-dms",
             400, "cbm", 2, False),
    Workload("blom-mixed",
             "400 seeds under the brake-light model; a third are excluded and "
             "the sweep makes twice the kernel calls per cell",
             400, "blom", 1, False),
)}


def input_index(seed: int) -> int:
    return seed % N_INPUT_SETS


def workers_for(w: Workload) -> int:
    """The workload's worker count, never more than the machine's cores."""
    return max(1, min(w.workers, os.cpu_count() or 1))


def glance_durations(rng: np.random.Generator) -> np.ndarray:
    """Off-road glance sample with every 0.1 s bin up to 6.7 s occupied."""
    draws = np.clip(rng.exponential(0.9, N_GLANCES - N_GLANCE_BINS),
                    0.05, MAX_GLANCE)
    forced = 0.1 * np.arange(1, N_GLANCE_BINS + 1)
    return np.concatenate([draws, forced])


def _glance_bin(duration: float) -> int:
    x = duration / 0.1
    nearest = round(x)
    if abs(x - nearest) < 1e-9 and nearest >= 1:
        return int(nearest)
    return int(math.ceil(x))


def write_glances(rng: np.random.Generator, path: Path) -> None:
    counts: dict[int, int] = {}
    for d in glance_durations(rng):
        j = _glance_bin(float(d))
        counts[j] = counts.get(j, 0) + 1
    total = sum(counts.values())
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["on_road_mass", repr(ON_ROAD)])
        writer.writerow(["duration_s", "probability"])
        for j in sorted(counts):
            writer.writerow([repr(j * 0.1),
                             repr(counts[j] * ((1.0 - ON_ROAD) / total))])


def write_decels(rng: np.random.Generator, path: Path) -> None:
    """45 maximum decelerations; 1.6 and 10.3 pin the span to six bins."""
    d = np.concatenate([rng.uniform(1.7, 10.2, N_DECEL_CRASHES - 2),
                        [1.6, 10.3]])
    idx = np.maximum(np.floor((d - d.min()) / DECEL_BIN_WIDTH - 1e-12), 0)
    counts = np.bincount(idx.astype(int)).astype(float)
    centers = d.min() + DECEL_BIN_WIDTH * (np.arange(len(counts)) + 0.5)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["d_max_ms2", "probability"])
        for c, n in zip(centers, counts):
            if n > 0:
                writer.writerow([repr(float(c)), repr(float(n / counts.sum()))])


def write_occupants(rng: np.random.Generator, path: Path) -> None:
    """43% uninjured with the low delta-v part missing, the rest injured."""
    n_pdo = int(0.43 * N_OCCUPANTS)
    pdo_dv = rng.gamma(4.0, 3.0, n_pdo) + 3.0
    inj_dv = rng.gamma(6.0, 3.0, N_OCCUPANTS - n_pdo) + 5.0
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["delta_v_kmh", "mais", "role"])
        for d in pdo_dv:
            writer.writerow([repr(float(min(d, 59.0))), 0, "driver"])
        for d in inj_dv:
            writer.writerow([repr(float(min(d, 69.0))),
                             int(rng.integers(1, 4)), "driver"])


def write_inputs(w: Workload, seed: int, inputs: Path) -> dict[str, str]:
    """Write every input file of the workload under `inputs`; return the
    paths the stage commands use, relative to the parent of `inputs`."""
    index = input_index(seed)
    inputs.mkdir(parents=True, exist_ok=True)
    write_glances(np.random.default_rng([index, 1]), inputs / "glances.csv")
    write_decels(np.random.default_rng([index, 2]), inputs / "decels.csv")
    write_occupants(np.random.default_rng([index, 3]), inputs / "occupants.csv")
    synth = {"n_seeds": w.n_seeds}
    if w.lead_mix is not None:
        synth["lead_mix"] = w.lead_mix
    campaign = {"model": w.model, "decel_file": f"{inputs.name}/decels.csv"}
    if w.model == "cbm":
        campaign["glance_file"] = f"{inputs.name}/glances.csv"
    for name, payload in (("synth", synth), ("campaign", campaign),
                          ("curve", CURVE)):
        (inputs / f"{name}.json").write_text(json.dumps(payload, sort_keys=True))
    return {name: f"{inputs.name}/{file}" for name, file in (
        ("synth", "synth.json"), ("campaign", "campaign.json"),
        ("occupants", "occupants.csv"), ("curve", "curve.json"))}
