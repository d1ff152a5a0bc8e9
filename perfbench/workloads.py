"""Seeded job lists and certificate files for the four workloads.

Everything here is built from the workload seed with the benchmark's own
arithmetic (prime rows ``i*j mod k``, products ``f(i)*m + g(j)``, one-cell
corruptions at recorded positions); nothing calls into modclique.

Each workload is a population of jobs with a cost estimate.  The population
is sorted by cost and cut into equal-count strata, and a run is a sequence of
cycles that take one job from every stratum, in seeded order (see ``Plan``).  Job costs are
heavy-tailed (large primes dominate ``bounds``; restart counts are geometric
in ``witness``), so a plain random sample of ~50 jobs would let the seed, not
the program, decide the throughput.  Stratified cycles keep the mix of cheap
and expensive jobs the same for every seed while the seed still picks every
input.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("verdict", "witness", "bounds", "certs")

# (k, s) rungs with no s-clique in G_k, cheapest first
VERDICT_RUNGS = ((8, 3), (10, 3), (9, 4), (12, 3))
# witness rand-seeds are drawn from range(WITNESS_POPULATION)
WITNESS_POPULATION = 512
BOUNDS_MAX_K = 1000
BOUNDS_UPTO_MIN = 500
# certs: composed tables stay below this modulus, prime tables below the next
CERTS_MAX_COMPOSED_K = 3000
CERTS_MAX_PRIME = 500
CERTS_MAX_COMPOSE_RIGHT = 200

STRATA = {"verdict": len(VERDICT_RUNGS), "witness": 12, "bounds": 96, "certs": 48}

# Own copies of the three known 4-cliques (rows 0 and 1 are zero and identity).
BUNDLED = {
    15: (
        (0, 9, 3, 2, 13, 11, 10, 12, 4, 6, 8, 14, 7, 5, 1),
        (0, 12, 4, 11, 10, 9, 5, 2, 6, 14, 7, 3, 13, 1, 8),
    ),
    21: (
        (13, 11, 14, 0, 2, 1, 5, 7, 3, 10, 15, 17, 16, 20, 4, 18, 9, 19, 12, 6, 8),
        (14, 5, 4, 13, 9, 18, 2, 15, 6, 10, 17, 1, 11, 19, 8, 3, 7, 12, 0, 16, 20),
    ),
    27: (
        (12, 17, 11, 20, 5, 19, 1, 9, 0, 13, 15, 18, 6, 10, 22, 3, 2, 8, 14,
         25, 4, 24, 21, 16, 7, 23, 26),
        (4, 6, 5, 15, 19, 18, 3, 13, 24, 16, 20, 1, 7, 0, 8, 11, 9, 17, 26,
         21, 2, 12, 14, 22, 25, 23, 10),
    ),
}


def verdict_argv(k: int, s: int, workers: int) -> list[str]:
    return ["search", "-k", str(k), "-s", str(s), "--exhaustive",
            "--workers", str(workers), "--json"]


def witness_argv(rand_seed: int) -> list[str]:
    return ["search", "-k", "15", "-s", "4", "--first-found", "--node-limit", "2000000",
            "--restarts", "40", "--rand-seed", str(rand_seed), "--json"]


# ---------------------------------------------------------------------------
# arithmetic


def primes_upto(n: int) -> list[int]:
    return [p for p in range(2, n + 1) if smallest_factor(p) == p]


def smallest_factor(k: int) -> int:
    d = 2
    while d * d <= k:
        if k % d == 0:
            return d
        d += 1
    return k


def prime_table(k: int, rows: int | None = None) -> np.ndarray:
    """Rows j -> i*j mod k for i < rows (default: smallest prime factor of k)."""
    m = smallest_factor(k) if rows is None else rows
    return (np.arange(m, dtype=np.int64)[:, None] * np.arange(k, dtype=np.int64)) % k


def bundled_table(n: int) -> np.ndarray:
    zero, ident = [0] * n, list(range(n))
    return np.array([zero, ident, *BUNDLED[n]], dtype=np.int64)


def product_table(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Row t maps i*m + j to left[t][i]*m + right[t][j]; keeps min(row counts) rows."""
    s = min(len(left), len(right))
    m = right.shape[1]
    out = left[:s, :, None] * m + right[:s, None, :]
    return out.reshape(s, -1)


def corrupt(table: np.ndarray, row: int, col: int, delta: int) -> np.ndarray:
    k = table.shape[1]
    bad = table.copy()
    bad[row, col] = (bad[row, col] + delta) % k
    return bad


def table_text(table: np.ndarray) -> str:
    m, k = table.shape
    lines = [f"{k} {m}"]
    lines.extend(" ".join(map(str, row)) for row in table.tolist())
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# jobs


@dataclass
class Job:
    """One CLI invocation, the inputs to write before it and what to expect.

    ``argv`` may hold ``{work}`` (the run's work directory) and ``{out}`` (a
    file path unique to one execution); ``inputs`` maps a file name in the
    work directory to a builder of its table.
    """

    kind: str
    argv: tuple[str, ...]
    expect: dict
    cost: float
    inputs: dict = field(default_factory=dict)

    def materialized_argv(self, work: Path, out: Path) -> list[str]:
        return [a.format(work=work, out=out) for a in self.argv]


def _verdict_population(rng, pinned):
    return [
        Job("verdict", tuple(verdict_argv(k, s, 2)),
            {"k": k, "size": s, "nodes": pinned["verdict_nodes"][f"{k},{s}"]},
            float(pinned["verdict_nodes"][f"{k},{s}"]))
        for k, s in VERDICT_RUNGS
    ]


def _witness_population(rng, pinned):
    jobs = []
    for r, (nodes, restarts) in enumerate(pinned["witness"][:WITNESS_POPULATION]):
        jobs.append(Job("witness", tuple(witness_argv(r)),
                        {"k": 15, "size": 4, "rand_seed": r, "nodes": nodes,
                         "restarts": restarts}, float(nodes)))
    return jobs


def _bounds_population(rng, pinned):
    jobs = []
    for k in range(2, BOUNDS_MAX_K + 1):
        m = pinned["bounds"][str(k)]
        # verification is m^2 k vectorized pair-cells; building and writing
        # the rows is m k Python-level cells, roughly 150 times dearer each
        cost = m * m * k + 150.0 * m * k
        jobs.append(Job("materialize",
                        ("bound", str(k), "--materialize", "{out}", "--json"),
                        {"k": k, "bound": m}, cost))
    return jobs


def _upto_stratum():
    return [
        Job("upto", ("bound", "--upto", str(n), "--json"), {"upto": n}, 0.0)
        for n in range(BOUNDS_UPTO_MIN, BOUNDS_MAX_K + 1)
    ]


def _cost_check(m: int, k: int) -> float:
    # parse is ~1 us per cell in Python; the pairwise check ~6 ns per pair-cell
    return m * k + 0.003 * m * m * k


def _certs_population(rng, pinned):
    jobs = []
    primes = [p for p in primes_upto(CERTS_MAX_PRIME) if p >= 5]

    def verify(name, build, m, k, corrupted=None):
        cost = _cost_check(m, k) + (0.2 * m * k if corrupted else 0.0)
        return Job("verify", ("verify", "{work}/" + name, "--json"),
                   {"file": name, "k": k, "rows": m, "corrupted": corrupted},
                   cost, {name: build})

    def corruption(m, k):
        return {"row": rng.randrange(m), "col": rng.randrange(k), "delta": rng.randrange(1, k)}

    for n in BUNDLED:
        jobs.append(verify(f"bundled-{n}.cert", lambda n=n: bundled_table(n), 4, n))
    for p in primes:
        build = lambda p=p: prime_table(p)
        jobs.append(verify(f"prime-{p}.cert", build, p, p))
        c = corruption(p, p)
        bad = lambda p=p, c=c: corrupt(prime_table(p), c["row"], c["col"], c["delta"])
        name = f"bad-prime-{p}-{c['row']}-{c['col']}-{c['delta']}.cert"
        jobs.append(verify(name, bad, p, p, c))
    for n in BUNDLED:
        for p in primes:
            if n * p > CERTS_MAX_COMPOSED_K:
                break
            k = n * p
            build = lambda n=n, p=p: product_table(bundled_table(n), prime_table(p, 4))
            jobs.append(verify(f"comp-{n}x{p}.cert", build, 4, k))
            c = corruption(4, k)
            bad = lambda b=build, c=c: corrupt(b(), c["row"], c["col"], c["delta"])
            name = f"bad-comp-{n}x{p}-{c['row']}-{c['col']}-{c['delta']}.cert"
            jobs.append(verify(name, bad, 4, k, c))
            if p <= CERTS_MAX_COMPOSE_RIGHT:
                left, right = f"bundled-{n}.cert", f"prime-{p}.cert"
                jobs.append(Job(
                    "compose",
                    ("compose", "{work}/" + left, "{work}/" + right, "-o", "{out}"),
                    {"left": n, "right": p, "k": k, "rows": 4},
                    _cost_check(4, n) + _cost_check(p, p) + 2 * _cost_check(4, k),
                    {left: lambda n=n: bundled_table(n), right: lambda p=p: prime_table(p)},
                ))
    return jobs


_POPULATIONS = {
    "verdict": _verdict_population,
    "witness": _witness_population,
    "bounds": _bounds_population,
    "certs": _certs_population,
}


def split_strata(jobs: list[Job], count: int) -> list[list[Job]]:
    """Sort by cost and cut into ``count`` contiguous, near-equal strata."""
    ranked = sorted(jobs, key=lambda j: j.cost)
    size, extra = divmod(len(ranked), count)
    out, start = [], 0
    for i in range(count):
        end = start + size + (1 if i < extra else 0)
        out.append(ranked[start:end])
        start = end
    return out


class Plan:
    """The seeded job sequence of one workload, handed out a cycle at a time.

    Cycles come in antithetic pairs: where cycle 2j takes the job at cost
    rank x of a stratum, cycle 2j+1 takes the one at rank L-1-x.  A pair's
    cost in each stratum is then nearly the same whatever x the seed drew.
    """

    def __init__(self, workload: str, seed: int, pinned: dict):
        if workload not in _POPULATIONS:
            raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
        self.key = f"{workload}:{seed}"
        rng = random.Random(self.key)
        self.strata = split_strata(_POPULATIONS[workload](rng, pinned), STRATA[workload])
        if workload == "bounds":
            self.strata.append(_upto_stratum())
        # per stratum, the seeded lower-half ranks that successive pairs start from
        self.ranks = [rng.sample(range((len(s) + 1) // 2), (len(s) + 1) // 2) for s in self.strata]

    def cycle(self, index: int) -> list[Job]:
        pair, mirrored = divmod(index, 2)
        jobs = []
        for stratum, ranks in zip(self.strata, self.ranks):
            x = ranks[pair % len(ranks)]
            jobs.append(stratum[len(stratum) - 1 - x if mirrored else x])
        random.Random(f"{self.key}:{index}").shuffle(jobs)
        return jobs


def write_inputs(job: Job, work: Path):
    for name, build in job.inputs.items():
        path = work / name
        if not path.exists():
            path.write_text(table_text(build()))
