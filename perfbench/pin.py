"""Regenerate ``pinned.json``: the fingerprints the checker compares against.

    python3 perfbench/pin.py

Runs the program once over every pinned input and records what it answered:
the node count of each verdict rung, the node and restart counts of each
witness rand-seed in the population, and ``bound --upto`` up to the largest
modulus the bounds workload draws.  A change that moves any of these on
purpose regenerates the file and says why.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import harness
import workloads

PINNED = Path(__file__).with_name("pinned.json")


def main() -> int:
    cli = harness.import_cli()

    def call(argv, expect):
        res = harness.run_cli(cli, argv)
        if res.code != expect:
            raise SystemExit(f"{' '.join(argv)}: exit {res.code}\n{res.stderr}")
        return json.loads(res.stdout)

    verdict = {}
    for k, s in workloads.VERDICT_RUNGS:
        verdict[f"{k},{s}"] = call(workloads.verdict_argv(k, s, 1), 1)["nodes"]
    witness = []
    for r in range(workloads.WITNESS_POPULATION):
        out = call(workloads.witness_argv(r), 0)
        witness.append([out["nodes"], out["restarts_used"]])
    reports = call(["bound", "--upto", str(workloads.BOUNDS_MAX_K), "--json"], 0)["reports"]
    bounds = {str(r["k"]): r["lower_bound"] for r in reports}
    PINNED.write_text(
        json.dumps({"verdict_nodes": verdict, "witness": witness, "bounds": bounds}) + "\n"
    )
    print(f"wrote {PINNED}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
