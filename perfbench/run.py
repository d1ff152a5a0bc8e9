"""modclique benchmark: seeded CLI workloads, checked outputs, traced layers.

    python3 perfbench/run.py --workload verdict --seed 1 --seconds 20 --trace 0

Jobs run one after another through ``modclique.cli.main(argv)`` in this
process: a closed loop with one client.  With ``--trace 0`` the run times
the named workload untraced and prints the end-to-end metrics; with
``--trace 1`` it runs all four workloads, each untraced and then traced
over the same jobs, and prints the per-layer metrics.  The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  See README.md for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

if __name__ == "__main__":
    # numpy's BLAS pool is never used by modclique, but starting it adds a
    # thread per core and 50-150 ms of jitter to every fresh interpreter; pin
    # it to one thread here and in every child, before numpy is first imported.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"

import checker  # noqa: E402
import harness  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

PINNED = Path(__file__).with_name("pinned.json")
OUT_DIR = harness.ROOT / ".perfbench-out"

SETUP_REPEATS = 9
SETUP_CODE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import modclique.cli\n"
    "from modclique.constructions import CertificateRegistry\n"
    "CertificateRegistry.builtin()\n"
    "print(time.perf_counter() - t)\n"
)

# Known hangs (see ROADMAP): a probe passes only on a correct answer or exit 2
# within the deadline.  Both fail at the commit that introduced the benchmark.
PROBE_DEADLINE_S = 3.0
PROBE_MEMORY = 384 << 20
PROBE_FILE_SIZE = 64 << 20
MERSENNE_61 = 2**61 - 1
PROBE_CODE = (
    "import resource, sys\n"
    "mem, fsize = int(sys.argv[1]), int(sys.argv[2])\n"
    "resource.setrlimit(resource.RLIMIT_AS, (mem, mem))\n"
    "resource.setrlimit(resource.RLIMIT_FSIZE, (fsize, fsize))\n"
    "sys.path.insert(0, sys.argv[3])\n"
    "from modclique.cli import main\n"
    "sys.exit(main(sys.argv[4:]))\n"
)


def environment(seed: int) -> dict:
    import numpy

    return {
        "seed": seed,
        "commit": git_commit(harness.ROOT),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repo."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ---------------------------------------------------------------------------
# measurement


def measure_setup() -> float:
    """Median time for a fresh interpreter to import the CLI and load the registry."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(harness.SRC)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(done.stdout.strip()))
    return statistics.median(times)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, reaped) / 1024.0


class Runner:
    """Runs jobs in batches: write every input, time the CLI calls back to
    back, then check every output, so no checking runs between timed calls."""

    def __init__(self, cli, work: Path, pinned: dict):
        self.cli, self.work, self.pinned = cli, work, pinned
        self.tracer: spans.Tracer | None = None
        self.attempted = 0
        self.failures: list[str] = []
        self.flags: list[str] = []

    def run_batch(self, jobs: list[workloads.Job], workers: int | None = None) -> list[float]:
        """Run ``jobs`` in order; ``workers`` overrides a ``--workers`` flag."""
        calls = []
        for job in jobs:
            workloads.write_inputs(job, self.work)
            out = self.work / f"out-{self.attempted + len(calls)}.cert"
            argv = job.materialized_argv(self.work, out)
            if workers is not None:
                argv[argv.index("--workers") + 1] = str(workers)
            calls.append((job, argv, out))
        gc.collect()
        results = []
        for job, argv, out in calls:
            if self.tracer is None:
                results.append(harness.run_cli(self.cli, argv))
                continue
            self.tracer.job = self.attempted + len(results)
            with self.tracer.span("cli.main"):
                results.append(harness.run_cli(self.cli, argv))
        for (job, argv, out), res in zip(calls, results):
            outcome = checker.check(job, res, out, self.pinned)
            out.unlink(missing_ok=True)
            if not outcome.ok:
                self.failures.append(outcome.reason)
            self.flags.extend(outcome.flags)
        self.attempted += len(calls)
        return [res.wall_s for res in results]

    def run_cycles(self, plan: workloads.Plan, seconds: float):
        """Whole antithetic cycle pairs, at least one, for as close to
        ``seconds`` of timed total as whole pairs allow; returns (jobs, walls)."""
        jobs, walls, last = [], [], 0.0
        cycle = 0
        while not walls or sum(walls) + last / 2 < seconds:
            pair = plan.cycle(cycle) + plan.cycle(cycle + 1)
            jobs.extend(pair)
            pair_walls = self.run_batch(pair)
            walls.extend(pair_walls)
            last = sum(pair_walls)
            cycle += 2
        return jobs, walls


def tail(walls: list[float]) -> tuple[float, float]:
    """The sample with exactly ten beyond it, and its percentile rank."""
    ordered = sorted(walls)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def run_probes(work: Path) -> list[dict]:
    probes = [
        ("bound-2^61-1", ["bound", str(MERSENNE_61), "--json"]),
        ("gen-20011", ["gen", "-k", "20011", "-o", str(work / "probe-gen.cert")]),
    ]
    start = time.perf_counter()
    procs = [
        (name, subprocess.Popen(
            [sys.executable, "-c", PROBE_CODE, str(PROBE_MEMORY), str(PROBE_FILE_SIZE),
             str(harness.SRC), *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        ))
        for name, argv in probes
    ]
    results = []
    for name, proc in procs:
        try:
            out, _ = proc.communicate(timeout=max(0.0, start + PROBE_DEADLINE_S - time.perf_counter()))
            code = proc.returncode
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            out, code = "", None
        results.append({"probe": name, **_judge_probe(name, code, out)})
    (work / "probe-gen.cert").unlink(missing_ok=True)
    return results


def _judge_probe(name: str, code: int | None, stdout: str) -> dict:
    if code is None:
        return {"ok": False, "why": f"no answer within {PROBE_DEADLINE_S} s (killed)"}
    if code == 2:
        return {"ok": True, "why": "refused with exit 2"}
    if name.startswith("bound") and code == 0:
        try:
            got = json.loads(stdout).get("lower_bound")
        except json.JSONDecodeError:
            got = None
        # 2^61 - 1 is prime, so its clique number is the modulus itself
        if got == MERSENNE_61:
            return {"ok": True, "why": "correct bound"}
        return {"ok": False, "why": f"exit 0 with bound {got!r}, expected {MERSENNE_61}"}
    return {"ok": False, "why": f"exit {code}"}


# ---------------------------------------------------------------------------
# the two kinds of run


def untraced(cli, workload: str, seed: int, seconds: float, work: Path, pinned: dict, report):
    setup_s = measure_setup()
    runner = Runner(cli, work, pinned)
    plan = workloads.Plan(workload, seed, pinned)
    _, walls = runner.run_cycles(plan, seconds)
    tail_s, tail_pct = tail(walls)
    metrics = {
        "setup_s": (setup_s, "s"),
        "jobs_per_s": (len(walls) / sum(walls), "1/s"),
        "job_s.p50": (statistics.median(walls), "s"),
        "job_s.tail": (tail_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    report["jobs"] = {"count": len(walls), "timed_s": sum(walls),
                      "cycles": len(walls) // len(plan.strata)}
    report["tail"] = {"percentile": tail_pct, "samples": len(walls), "beyond": min(10, len(walls) - 1)}
    if workload == "bounds":
        report["probes"] = run_probes(work)
    return runner, metrics


def traced(cli, seed: int, seconds: float, work: Path, pinned: dict, report):
    """All four workloads: untraced slice, the same jobs traced, and for
    ``verdict`` the same jobs again at one worker."""
    tracer = spans.Tracer()
    runner = Runner(cli, work, pinned)
    overhead, w2_speedup = {}, 0.0
    for workload in workloads.WORKLOADS:
        plan = workloads.Plan(workload, seed, pinned)
        jobs, walls = runner.run_cycles(plan, seconds / len(workloads.WORKLOADS))
        runner.tracer = tracer
        with tracer.installed(cli):
            traced_walls = runner.run_batch(jobs)
        runner.tracer = None
        overhead[workload] = sum(traced_walls) / sum(walls) - 1.0
        if workload == "verdict":
            w2_speedup = sum(runner.run_batch(jobs, workers=1)) / sum(walls)
    values = spans.layer_metrics(tracer)
    values["search.w2_speedup"] = w2_speedup
    for workload, value in overhead.items():
        values[f"trace.overhead.{workload}"] = value
    OUT_DIR.mkdir(exist_ok=True)
    tracer.dump(OUT_DIR / f"spans-seed{seed}.json")
    units = {m["name"]: m["unit"] for m in _declared("per_layer")}
    return runner, {name: (values[name], units[name]) for name in units}


def _declared(section: str) -> list[dict]:
    return json.loads((harness.ROOT / "BENCHMARK.json").read_text())[section]


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        cli = harness.import_cli()
    except harness.MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    pinned = json.loads(PINNED.read_text())
    checker.require_bundled()

    report = {"workload": args.workload, "trace": args.trace, **environment(args.seed)}
    work = OUT_DIR / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            runner, metrics = traced(cli, args.seed, args.seconds, work, pinned, report)
        else:
            runner, metrics = untraced(cli, args.workload, args.seed, args.seconds, work, pinned, report)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(" ".join(f"{k}={report[k]}" for k in ("workload", "trace", "seed", "commit", "nproc",
                                                "python", "numpy")))
    for name, (value, unit) in metrics.items():
        extra = ""
        if name == "job_s.tail":
            t = report["tail"]
            extra = f"  (p{t['percentile']:.1f}: {t['beyond']} of {t['samples']} samples beyond)"
        print(f"{name:36s} {value:.6g} {unit}{extra}")
    probes = report.get("probes", [])
    for p in probes:
        print(f"probe {p['probe']}: {'pass' if p['ok'] else 'FAIL'} ({p['why']})")
    probe_failed = sum(not p["ok"] for p in probes)
    total = runner.attempted + len(probes)
    print(f"fail_ratio {(len(runner.failures) + probe_failed) / total:.6g} "
          f"({len(runner.failures)} of {runner.attempted} jobs, {probe_failed} of {len(probes)} probes)")
    for reason in runner.failures[:20]:
        print(f"FAILED {reason}")
    for flag in sorted(set(runner.flags)):
        print(f"fingerprint changed (not a failure): {flag}")

    report.update(failures=runner.failures, fingerprint_changes=sorted(set(runner.flags)),
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n")
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
