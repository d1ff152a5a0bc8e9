"""Self-tests for the benchmark's own logic: checker, span arithmetic, generator.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

import checker
import harness
import run
import spans
import workloads

PINNED = json.loads(Path(__file__).with_name("pinned.json").read_text())


def _violations(table: np.ndarray, row: int) -> list[dict]:
    """Real collision witnesses for every pair through ``row``, by direct arithmetic."""
    m, k = table.shape
    out = []
    for other in range(m):
        if other == row:
            continue
        s, t = min(row, other), max(row, other)
        diff = (table[t] - table[s]) % k
        first = {}
        for j, d in enumerate(diff.tolist()):
            if d in first:
                out.append({"row_s": s, "row_t": t, "point_a": first[d], "point_b": j, "value": d})
                break
            first[d] = j
    return out


def test_checker_accepts_constructions():
    checker.require_bundled()
    checker.require_clique(workloads.prime_table(11), 11, 11)
    prod = workloads.product_table(workloads.bundled_table(15), workloads.prime_table(7))
    checker.require_clique(prod, 105, 4)


def test_checker_rejects_one_corrupted_cell():
    good = workloads.prime_table(13)
    bad = workloads.corrupt(good, 5, 7, 3)
    with pytest.raises(checker.CheckError):
        checker.require_clique(bad, 13, 13)
    # equality with a known-good table is the only shortcut; a mismatch is checked in full
    with pytest.raises(checker.CheckError):
        checker.require_clique(bad, 13, 13, known=good)
    assert {p for p in checker.violating_pairs(bad)} == {
        (min(5, s), max(5, s)) for s in range(13) if s != 5
    }


def test_checker_rechecks_reported_violations():
    bad = workloads.corrupt(workloads.prime_table(11), 3, 4, 2)
    real = _violations(bad, 3)
    checker.require_violations(bad, real, 3)

    false_value = [dict(v) for v in real]
    false_value[0]["value"] = (false_value[0]["value"] + 1) % 11
    with pytest.raises(checker.CheckError, match="false violation"):
        checker.require_violations(bad, false_value, 3)

    with pytest.raises(checker.CheckError):
        checker.require_violations(bad, real[1:], 3)  # one pair missing


def test_read_table_round_trip():
    table = workloads.prime_table(7, 3)
    assert np.array_equal(checker.read_table("# comment\n" + workloads.table_text(table)), table)
    with pytest.raises(checker.CheckError):
        checker.read_table("7 3\n0 1 2\n")


def _span(i, start, end, parent=None, core=0.0, name="parse"):
    return spans.Span(i, name, start, end, parent=parent, core_s=core)


def test_self_time_of_nested_spans():
    tree = [
        _span(0, 0.0, 10.0, core=1.0, name="cli.main"),
        _span(1, 1.0, 4.0, parent=0),
        _span(2, 3.0, 6.0, parent=0),  # overlaps span 1, as threads can
        _span(3, 2.0, 3.0, parent=1),
        _span(4, 9.0, 12.0, parent=0),  # runs past its parent: only 9..10 counts
    ]
    own = spans.self_times(tree)
    assert own[0] == pytest.approx(10.0 - 5.0 - 1.0 - 1.0)
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(1.0)
    assert own[4] == pytest.approx(3.0)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic(workload):
    def jobs(seed):
        plan = workloads.Plan(workload, seed, PINNED)
        return [(j.argv, j.expect) for c in range(3) for j in plan.cycle(c)]

    assert jobs(7) == jobs(7)
    if workload != "verdict":  # verdict has no random input, only a random order
        assert jobs(7) != jobs(8)


def test_generated_files_are_deterministic():
    def files(seed):
        plan = workloads.Plan("certs", seed, PINNED)
        out = {}
        for job in plan.cycle(0):
            for name, build in job.inputs.items():
                out[name] = workloads.table_text(build())
        return out

    assert files(3) == files(3)


def test_every_cycle_takes_one_job_per_stratum():
    plan = workloads.Plan("bounds", 1, PINNED)
    cycle = plan.cycle(0)
    assert len(cycle) == len(plan.strata)
    assert sum(j.kind == "upto" for j in cycle) == 1


def test_tail_has_ten_samples_beyond():
    walls = [float(i) for i in range(100)]
    value, pct = run.tail(walls)
    assert sum(w > value for w in walls) == 10
    assert pct == pytest.approx(90.0)


def test_tracer_restores_what_it_rebinds():
    cli = harness.import_cli()
    import modclique.core as core

    before = (cli.parse, cli.search, core.ModFunction.__post_init__)
    tracer = spans.Tracer()
    with tracer.installed(cli):
        res = harness.run_cli(cli, ["bound", "35", "--json"])
    assert res.code == 0
    assert (cli.parse, cli.search, core.ModFunction.__post_init__) == before
    assert any(s.name == "lower_bound" for s in tracer.spans)
