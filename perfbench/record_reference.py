"""Record the reference values the result check compares against.

    python3 perfbench/record_reference.py --workload paper-cbm

Runs the workload's chain in this process for every input set and writes
the headline values to perfbench/reference/<workload>.json. Run it from
the repository root, and only on a commit whose outputs are known good: a
later commit is checked against what this records.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

import checks
import stages
from run import REFERENCE_DIR, git_commit
from workloads import N_INPUT_SETS, WORKLOADS, write_inputs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    from rearsim import cli

    w = WORKLOADS[args.workload]
    work = root / ".perfbench" / f"reference-{w.name}"
    values = {}
    try:
        for index in range(N_INPUT_SETS):
            shutil.rmtree(work, ignore_errors=True)
            paths = write_inputs(w, index, work / "inputs")
            ledger = checks.Ledger()
            if stages.run_chain_inprocess(cli.main, w, paths, index, work,
                                          "ref", ledger) is None:
                print(f"input set {index}: {ledger.failures}", file=sys.stderr)
                return 1
            values[str(index)] = checks.headline(work / "ref" / "out")
            print(f"{w.name}: input set {index} recorded", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    payload = {"workload": w.name, "commit": git_commit(root),
               "src_sha256": checks.tree_fingerprint(root / "src"),
               "input_sets": values}
    REFERENCE_DIR.mkdir(exist_ok=True)
    (REFERENCE_DIR / f"{w.name}.json").write_text(
        json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
