import os
import re
import signal
import sys
import time

import pytest

from modclique import (
    CertificateError,
    ModFunction,
    OutcomeKind,
    SearchConfig,
    SearchMode,
    builtin_certificate,
    column_candidates,
    identity_function,
    is_normalized,
    normalize,
    prime_construction,
    search,
    verify,
    zero_function,
)
from modclique.search import _Engine, _fixed_rows, _restart_orders

from conftest import OMEGA


K15 = normalize(builtin_certificate(15)).table
P5 = normalize(prime_construction(5)).table
P7 = normalize(prime_construction(7)).table
P11 = normalize(prime_construction(11)).table

# (nodes, restarts_used) of `search -k 15 -s 4 --first-found --node-limit
# 2000000 --restarts 40 --rand-seed R` for R = 0..5, as the benchmark's
# ``witness`` entries in perfbench/pinned.json also pin them
K15_FIRST_FOUND = [(259_024, 6), (383_442, 8), (189_797, 4), (67_673, 2), (148_472, 3), (41_763, 1)]


def run(k, size, **kwargs):
    return search(SearchConfig(k=k, target_size=size, **kwargs))


class TestColumnCandidates:
    def test_column_zero_pinned(self):
        rows = [(0,) * 5, tuple(range(5)), (0,)]
        assert column_candidates(5, rows, 2, 0) == {0}

    def test_k3_forced_cell(self):
        # rows fixed {zero, identity}, row 2 starts with 0; at column 1 the
        # difference with zero must avoid 0 and with identity must avoid 0,
        # leaving only the value 2 -- confirmed by enumerating all residues
        rows = [(0, 0, 0), (0, 1, 2), (0,)]
        got = column_candidates(3, rows, 2, 1)
        brute = set()
        for v in range(3):
            if (v - 0) % 3 != 0 and (v - 1) % 3 != 0:
                brute.add(v)
        assert got == brute == {2}

    def test_exhausted_pair_gives_empty_set(self):
        rows = [(0, 0), (0, 1), (0,)]
        assert column_candidates(2, rows, 2, 1) == set()

    def test_independent_of_assignment_order(self):
        # same partial content gives the same set however it was produced
        rows_a = [(0, 0, 0, 0, 0), (0, 1, 2, 3, 4), (0, 2, 4), (0, 3)]
        got = column_candidates(5, rows_a, 3, 2)
        used = {
            s: {(rows_a[3][c] - rows_a[s][c]) % 5 for c in range(2)} for s in range(3)
        }
        expected = {
            v for v in range(5) if all((v - rows_a[s][2]) % 5 not in used[s] for s in range(3))
        }
        assert got == expected

    def test_bad_indices(self):
        rows = [(0, 0, 0), (0, 1, 2), (0,)]
        with pytest.raises(ValueError):
            column_candidates(3, rows, 0, 1)
        with pytest.raises(ValueError):
            column_candidates(3, rows, 2, 3)


class _Limit(Exception):
    pass


def reference_search(k, size, seeds=(), mode=SearchMode.EXHAUSTIVE, node_limit=None,
                     restarts=1, rng_seed=0):
    """What ``search`` returns, (kind, nodes, max_depth, restarts_used,
    witness rows), from a plain recursive DFS over ``column_candidates``, the
    column-1 lex rule and each cell's value order: the reference semantics the
    engine's inlined mask arithmetic must reproduce.  Only for runs that
    reach the engine: 2 + len(seeds) < size <= k."""
    base = 2 + len(seeds)
    cells = [(t, j) for j in range(1, k) for t in range(base, size)]
    if mode is SearchMode.EXHAUSTIVE:
        passes, budget = 1, node_limit
    else:
        passes = restarts
        budget = None if node_limit is None else node_limit // passes
    total = depth = 0
    for idx in range(passes):
        orders = None
        if mode is SearchMode.FIRST_FOUND:
            orders = _restart_orders(k, size, base, rng_seed, idx)
        rows = [[0] * k, list(range(k)), *map(list, seeds)]
        rows += [[0] * k for _ in range(size - base)]
        nodes = max_depth = 0

        def dfs(ci):
            nonlocal nodes, max_depth
            if ci == len(cells):
                return True
            t, j = cells[ci]
            allowed = column_candidates(k, rows, t, j)
            if j == 1 and t >= 3:
                allowed = {v for v in allowed if v > rows[t - 1][1]}
            for v in range(k) if orders is None else orders[ci]:
                if v in allowed:
                    # one node per value tried, counted before the budget check
                    nodes += 1
                    if budget is not None and nodes > budget:
                        raise _Limit
                    max_depth = max(max_depth, ci + 1)
                    rows[t][j] = v
                    if dfs(ci + 1):
                        return True
            return False

        try:
            found = dfs(0)
        except _Limit:
            found = None
        total += nodes
        depth = max(depth, max_depth)
        if found:
            return OutcomeKind.FOUND, total, depth, idx + 1, rows
        if found is False:
            kind = OutcomeKind.EXHAUSTED_NONE_UNDER_SEED if seeds else OutcomeKind.EXHAUSTED_NONE
            return kind, total, depth, idx + 1, None
    return OutcomeKind.LIMIT_REACHED, total, depth, passes, None


class TestMatchesReferenceDFS:
    def check(self, k, size, seeds=(), **kwargs):
        outcome = run(k, size, seed_rows=seeds or None, **kwargs)
        cert = outcome.certificate
        got = (
            outcome.kind,
            outcome.stats.nodes,
            outcome.stats.max_depth,
            outcome.stats.restarts_used,
            None if cert is None else cert.table.tolist(),
        )
        assert got == reference_search(k, size, seeds, **kwargs)

    # (10, 4) walks 1,163,135 nodes, some 25 s for the reference: its first
    # 200,000 stand in for it, ending in LIMIT
    @pytest.mark.parametrize("k,size", [(k, s) for k in range(3, 11) for s in (3, 4) if s <= k])
    def test_exhaustive(self, k, size):
        self.check(k, size, node_limit=200_000 if (k, size) == (10, 4) else None)

    @pytest.mark.parametrize(
        "k,size,seeds",
        [(15, 4, K15[2:3]), (15, 4, K15[3:4]), (15, 5, K15[2:4]), (7, 7, P7[2:3])],
    )
    def test_seeded(self, k, size, seeds):
        self.check(k, size, seeds.tolist())

    @pytest.mark.parametrize(
        "k,size,node_limit,restarts,rng_seed",
        [
            (7, 7, None, 1, 1),
            (7, 7, None, 1, 4),
            (11, 4, None, 1, 1),
            (11, 4, 3_000, 3, 0),
            (15, 4, 6_000, 3, 0),
            (15, 4, 6_000, 3, 2),
            (15, 4, 2_000_000, 40, 3),
            (9, 4, None, 3, 7),
            # walks the whole (10,3) tree, the exhaustive 9,356 nodes
            (10, 3, None, 2, 5),
            # LIMIT at k >= 31, s = 3, whose first cells hold over 20 values
            (31, 3, 600, 3, 0),
            (32, 3, 6_000, 2, 4),
            # a witness in the third restart
            (17, 4, 60_000, 3, 0),
        ],
    )
    def test_first_found(self, k, size, node_limit, restarts, rng_seed):
        self.check(
            k, size, mode=SearchMode.FIRST_FOUND,
            node_limit=node_limit, restarts=restarts, rng_seed=rng_seed,
        )


def reference_trace(k, size, seeds=(), orders=None, limit=None):
    """One pass of the reference DFS with no budget, stopped after ``limit``
    + 1 nodes if given: ``peak[n]``, the deepest node among the first n, for
    every n up to the nodes walked, and the witness rows or None."""
    base = 2 + len(seeds)
    cells = [(t, j) for j in range(1, k) for t in range(base, size)]
    rows = [[0] * k, list(range(k)), *map(list, seeds)]
    rows += [[0] * k for _ in range(size - base)]
    peak = [0]

    def dfs(ci):
        if ci == len(cells):
            return True
        t, j = cells[ci]
        allowed = column_candidates(k, rows, t, j)
        if j == 1 and t >= 3:
            allowed = {v for v in allowed if v > rows[t - 1][1]}
        for v in range(k) if orders is None else orders[ci]:
            if v in allowed:
                peak.append(max(peak[-1], ci + 1))
                if limit is not None and len(peak) > limit + 1:
                    raise _Limit
                rows[t][j] = v
                if dfs(ci + 1):
                    return True
        return False

    try:
        found = dfs(0)
    except _Limit:
        found = False
    return peak, rows if found else None


def expected_under_budget(traces, budget, seeded=False):
    """What ``search`` returns, as ``reference_search`` does, for passes
    whose reference traces are ``traces``, each with ``budget`` nodes: a
    pass stops at the node past its budget and counts it."""
    nodes = depth = 0
    for i, (peak, witness) in enumerate(traces):
        walked = len(peak) - 1
        if budget is not None and budget < walked:
            nodes, depth = nodes + budget + 1, max(depth, peak[budget])
            continue
        nodes, depth = nodes + walked, max(depth, peak[walked])
        if witness is not None:
            return OutcomeKind.FOUND, nodes, depth, i + 1, witness
        kind = OutcomeKind.EXHAUSTED_NONE_UNDER_SEED if seeded else OutcomeKind.EXHAUSTED_NONE
        return kind, nodes, depth, i + 1, None
    return OutcomeKind.LIMIT_REACHED, nodes, depth, len(traces), None


class TestBudgetSweep:
    """LIMIT at every budget agrees with the reference DFS, including
    budgets that run out on a value the engine drops by looking ahead."""

    def sweep(self, k, size, limits, seeds=()):
        traces = [reference_trace(k, size, seeds)]
        for limit in limits:
            outcome = run(k, size, seed_rows=seeds or None, node_limit=limit)
            assert TestWorkers.summary(outcome) == expected_under_budget(traces, limit, bool(seeds)), limit

    def test_every_budget_k8(self):
        self.sweep(8, 3, range(1, 463))

    def test_strided_budgets_k9(self):
        self.sweep(9, 4, [*range(1, 84_703, 997), 84_702, 84_703])

    def test_seeded(self):
        self.sweep(15, 4, [1, 2, 100, 1_000, 2_500, 4_769, 4_770], K15[2:3].tolist())

    @pytest.mark.parametrize("rng_seed", [0, 3])
    def test_first_found_short_budgets(self, rng_seed):
        restarts, most = 3, 1_200
        traces = [reference_trace(15, 4, orders=_restart_orders(15, 4, 2, rng_seed, i), limit=most)
                  for i in range(restarts)]
        for limit in [*range(3, 60), *range(60, restarts * most, 73)]:
            outcome = run(15, 4, mode=SearchMode.FIRST_FOUND, node_limit=limit,
                          restarts=restarts, rng_seed=rng_seed)
            assert TestWorkers.summary(outcome) == expected_under_budget(traces, limit // restarts), limit

    def test_progress_stream(self, capsys):
        # one line per 256 nodes at interval 0, each with the depth reached
        # before that node
        peak, _ = reference_trace(9, 4)
        run(9, 4, progress_interval=0.0)
        pattern = re.compile(r"progress: nodes=(\d+) depth=(\d+)/16 elapsed=\S+s")
        pairs = [tuple(map(int, pattern.fullmatch(line).groups()))
                 for line in capsys.readouterr().err.splitlines()]
        assert pairs == [(n, peak[n - 1]) for n in range(256, len(peak), 256)]


class TestLargeK:
    """The engine's per-cell state is a few ints and shared lists: building
    it at k = 1021 stays small and a short run stays fast."""

    @pytest.mark.parametrize("size,seeds", [(3, None), (4, [[2 * x % 1021 for x in range(1021)]])])
    def test_engine_memory(self, size, seeds):
        import tracemalloc

        fixed = _fixed_rows(SearchConfig(k=1021, target_size=size, seed_rows=seeds))
        rows = fixed.table.tolist()
        tracemalloc.start()
        try:
            _Engine(1021, size, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

    def test_short_run_is_fast(self, capsys):
        from modclique.cli import main

        start = time.perf_counter()
        assert main(["search", "-k", "1021", "-s", "3", "--node-limit", "2000"]) == 3
        assert time.perf_counter() - start < 1.0
        assert "nodes=2001" in capsys.readouterr().out


class TestVerdictsAgainstOracle:
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_existence_matches_brute_force(self, k):
        for size in range(2, k + 2):
            outcome = run(k, size)
            if size <= OMEGA[k]:
                assert outcome.kind is OutcomeKind.FOUND
                assert verify(outcome.certificate).ok
            else:
                assert outcome.kind is OutcomeKind.EXHAUSTED_NONE

    def test_k9_has_no_4_clique(self):
        outcome = run(9, 4)
        assert outcome.kind is OutcomeKind.EXHAUSTED_NONE
        assert outcome.stats.nodes > 0

    def test_nonexistence_is_monotone_in_size(self):
        assert run(9, 4).kind is OutcomeKind.EXHAUSTED_NONE
        assert run(9, 5).kind is OutcomeKind.EXHAUSTED_NONE

    # node counts of full exhaustion are a fingerprint of the tree and its
    # pruning; a change to either must say why they moved
    @pytest.mark.parametrize(
        "k,size,nodes", [(8, 3, 462), (10, 3, 9_356), (9, 4, 84_703), (12, 3, 260_954)]
    )
    def test_pinned_exhaustive_node_counts(self, k, size, nodes):
        outcome = run(k, size)
        assert outcome.kind is OutcomeKind.EXHAUSTED_NONE
        assert outcome.stats.nodes == nodes

    # more of the same fingerprint, incl. seeded runs whose row t - 1 is a
    # seed; seeds are rows of normalized cliques, every run is exhaustive
    @pytest.mark.parametrize(
        "k,size,seeds,kind,nodes",
        [
            (15, 4, K15[2:3], OutcomeKind.FOUND, 4_770),
            (15, 4, K15[3:4], OutcomeKind.FOUND, 13_155),
            (15, 5, K15[2:4], OutcomeKind.EXHAUSTED_NONE_UNDER_SEED, 4_242),
            (7, 7, P7[2:3], OutcomeKind.FOUND, 26),
            (11, 6, P11[2:4], OutcomeKind.FOUND, 266),
            (11, 5, P11[5:6], OutcomeKind.FOUND, 76),
            (13, 4, None, OutcomeKind.FOUND, 75_043),
            (11, 4, None, OutcomeKind.FOUND, 8_610),
            (7, 7, None, OutcomeKind.FOUND, 37),
        ],
    )
    def test_pinned_node_counts(self, k, size, seeds, kind, nodes):
        outcome = run(k, size, seed_rows=seeds)
        assert outcome.kind is kind
        assert outcome.stats.nodes == nodes

    @pytest.mark.parametrize(
        "kwargs",
        [{}, dict(mode=SearchMode.FIRST_FOUND), dict(seed_rows=P5[2:])],
    )
    def test_more_rows_than_k_needs_no_search(self, kwargs):
        # rows of a clique differ pairwise at column 1, so s <= k: a global
        # verdict even under seeds
        outcome = run(5, 6, **kwargs)
        assert outcome.kind is OutcomeKind.EXHAUSTED_NONE
        assert outcome.stats.nodes == 0


class TestFoundWitnesses:
    def test_witness_is_normalized(self):
        for k, size in ((7, 7), (15, 4), (11, 5)):
            outcome = run(k, size)
            assert outcome.found
            cert = outcome.certificate
            assert is_normalized(cert)
            assert normalize(cert).rows == cert.rows

    def test_size_two_is_immediate(self):
        outcome = run(6, 2)
        assert outcome.found
        assert outcome.certificate.rows == (zero_function(6), identity_function(6))
        assert outcome.stats.nodes == 0


class TestDeterminism:
    def test_exhaustive_single_worker_is_reproducible(self):
        a = run(9, 4)
        b = run(9, 4)
        assert a.stats.nodes == b.stats.nodes
        assert a.stats.max_depth == b.stats.max_depth

    def test_found_witness_is_reproducible(self):
        a = run(15, 4)
        b = run(15, 4)
        assert a.certificate.rows == b.certificate.rows
        assert a.stats.nodes == b.stats.nodes

    def test_found_verdict_verifies(self):
        outcome = run(7, 7)
        assert outcome.found
        assert verify(outcome.certificate).ok


class TestFirstFound:
    def test_k15_with_fixed_seed(self):
        outcome = run(
            15, 4,
            mode=SearchMode.FIRST_FOUND,
            node_limit=2_000_000,
            restarts=40,
            rng_seed=0,
        )
        assert outcome.found
        assert is_normalized(outcome.certificate)
        assert outcome.stats.nodes <= 2_000_000

    def test_reproducible_for_fixed_seed(self):
        kwargs = dict(
            mode=SearchMode.FIRST_FOUND, node_limit=400_000, restarts=8, rng_seed=3
        )
        a = run(15, 4, **kwargs)
        b = run(15, 4, **kwargs)
        assert a.kind is b.kind
        assert a.stats.nodes == b.stats.nodes
        if a.found:
            assert a.certificate.rows == b.certificate.rows

    def test_prime_clique_found(self):
        outcome = run(7, 7, mode=SearchMode.FIRST_FOUND, rng_seed=1)
        assert outcome.found
        assert outcome.certificate.row_count == 7

    def test_budget_exhaustion_reports_limit(self):
        outcome = run(
            15, 4,
            mode=SearchMode.FIRST_FOUND,
            node_limit=64,
            restarts=4,
            rng_seed=0,
        )
        assert outcome.kind is OutcomeKind.LIMIT_REACHED
        assert outcome.stats.restarts_used == 4

    @pytest.mark.parametrize("rng_seed", [0, 1, 7])
    def test_exhaustive_count_independent_of_value_order(self, rng_seed):
        # the tree's node set does not depend on value order, so one pass
        # in any order that walks it all proves the verdict and stops
        outcome = run(
            9, 4, mode=SearchMode.FIRST_FOUND, restarts=3, rng_seed=rng_seed
        )
        assert outcome.kind is OutcomeKind.EXHAUSTED_NONE
        assert outcome.stats.nodes == 84_703
        assert outcome.stats.restarts_used == 1


class TestLimits:
    def test_exhaustive_node_limit(self):
        outcome = run(10, 3, node_limit=100)
        assert outcome.kind is OutcomeKind.LIMIT_REACHED
        assert outcome.stats.nodes <= 101


class TestSeeds:
    def seed_row(self):
        return normalize(builtin_certificate(15)).rows[2]

    def test_seeded_completion(self):
        outcome = run(15, 4, seed_rows=(self.seed_row(),))
        assert outcome.found
        cert = outcome.certificate
        assert cert.rows[2] == self.seed_row()
        assert verify(cert).ok
        assert is_normalized(cert)

    def test_full_seeding_returns_immediately(self):
        rows = normalize(builtin_certificate(15)).rows
        outcome = run(15, 4, seed_rows=rows[2:])
        assert outcome.found
        assert outcome.stats.nodes == 0
        assert outcome.certificate.rows == rows

    @pytest.mark.parametrize(
        "size,kwargs", [(4, {}), (5, dict(mode=SearchMode.FIRST_FOUND, node_limit=2000))]
    )
    def test_seed_rows_as_plain_integer_rows(self, size, kwargs):
        table = normalize(builtin_certificate(15)).table
        expected = run(15, size, seed_rows=(self.seed_row(),), **kwargs)
        for seeds in ([table[2].tolist()], table[2:3], [tuple(table[2])]):
            outcome = run(15, size, seed_rows=seeds, **kwargs)
            assert outcome.kind is expected.kind
            assert outcome.certificate == expected.certificate
            assert outcome.stats.nodes == expected.stats.nodes

    def test_full_seeding_returns_exactly_the_fixed_rows(self):
        table = normalize(builtin_certificate(15)).table
        outcome = run(15, 4, seed_rows=table[2:].tolist())
        assert outcome.found and outcome.stats.nodes == 0
        assert outcome.certificate.table.tolist() == [
            [0] * 15, list(range(15)), *table[2:].tolist()
        ]

    def test_equal_seeds_rejected(self):
        row = self.seed_row()
        with pytest.raises(ValueError, match="not adjacent"):
            run(15, 5, seed_rows=(row, row))

    def test_exhaustion_under_seed_is_not_a_global_verdict(self):
        # omega(9) = 3, so any orthomorphism row of Z_9 seeds an impossible
        # size-4 completion
        three = run(9, 3)
        assert three.found
        seed = three.certificate.rows[2]
        outcome = run(9, 4, seed_rows=(seed,))
        assert outcome.kind is OutcomeKind.EXHAUSTED_NONE_UNDER_SEED
        outcome = run(9, 4, seed_rows=(seed,), mode=SearchMode.FIRST_FOUND)
        assert outcome.kind is OutcomeKind.EXHAUSTED_NONE_UNDER_SEED

    def test_seed_with_nonzero_start_rejected(self):
        bad = ModFunction(15, tuple((x + 1) % 15 for x in range(15)))
        with pytest.raises(ValueError, match="normalization"):
            run(15, 4, seed_rows=(bad,))

    def test_unsorted_seeds_rejected(self):
        rows = normalize(builtin_certificate(15)).rows
        with pytest.raises(ValueError, match="increasing"):
            run(15, 4, seed_rows=(rows[3], rows[2]))

    def test_non_clique_seed_rejected(self):
        # a bijection vanishing at 0 that repeats a difference with identity
        bad = ModFunction(9, (0, 2, 1, 3, 4, 5, 6, 7, 8))
        with pytest.raises(CertificateError):
            run(9, 4, seed_rows=(bad,))

    def test_too_many_seeds_rejected(self):
        rows = normalize(builtin_certificate(15)).rows
        with pytest.raises(ValueError, match="seed rows"):
            run(15, 3, seed_rows=rows[2:])


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(k=1, target_size=3),
            dict(k=5, target_size=1),
            dict(k=5, target_size=3, node_limit=0),
            dict(k=5, target_size=3, restarts=0),
            dict(k=5, target_size=3, mode=SearchMode.FIRST_FOUND, node_limit=4, restarts=5),
            dict(k=5, target_size=3, progress_interval=float("nan")),
            dict(k=5, target_size=3, workers=0),
        ],
    )
    def test_rejected(self, kwargs):
        with pytest.raises(ValueError):
            search(SearchConfig(**kwargs))

    def test_order_draws_capped(self):
        # every restart shuffles a k-value order per free cell before its
        # first node, whatever its budget
        with pytest.raises(ValueError, match="over the cap"):
            run(1021, 3, mode=SearchMode.FIRST_FOUND, node_limit=20, restarts=20)
        # the README's reference budgets stay admitted
        for k, node_limit, restarts in ((15, 2_000_000, 40), (21, 12_000_000, 40),
                                        (27, 400_000_000, 400)):
            config = SearchConfig(k=k, target_size=4, mode=SearchMode.FIRST_FOUND,
                                  node_limit=node_limit, restarts=restarts)
            _fixed_rows(config)


class TestProgress:
    def test_progress_lines_stream(self, capsys):
        outcome = run(9, 4, progress_interval=0.0)
        assert outcome.kind is OutcomeKind.EXHAUSTED_NONE
        lines = capsys.readouterr().err.splitlines()
        assert lines
        assert all(line.startswith("progress") for line in lines)
        assert "nodes=" in lines[0] and "depth=" in lines[0] and "elapsed=" in lines[0]

    def test_first_found_lines_name_the_restart(self, capsys):
        outcome = run(15, 4, mode=SearchMode.FIRST_FOUND, node_limit=2_000_000,
                      restarts=40, progress_interval=0.0)
        assert outcome.found and outcome.stats.restarts_used > 1
        lines = capsys.readouterr().err.splitlines()
        pattern = re.compile(r"progress restart=(\d+): nodes=(\d+) depth=(\d+)/28 elapsed=\S+s")
        fields = [tuple(map(int, pattern.fullmatch(line).groups())) for line in lines]
        restarts = [r for r, _, _ in fields]
        assert restarts == sorted(restarts)
        assert restarts[-1] == outcome.stats.restarts_used - 1
        # the clock is read once per 256 nodes of a pass
        assert all(nodes % 256 == 0 and 0 < depth <= 28 for _, nodes, depth in fields)


class TestStats:
    def test_fields_are_sane(self):
        outcome = run(9, 4)
        stats = outcome.stats
        assert stats.nodes > 0
        assert 0 < stats.max_depth <= 2 * 8
        assert stats.wall_time >= 0


_search_module = sys.modules["modclique.search"]


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def two_cpus(monkeypatch):
    # fork two workers whatever this machine's CPU count, and fail a search
    # that waits on its workers for over a minute instead of hanging
    monkeypatch.setattr(_search_module, "_usable_cpus", lambda: 2)

    def timed_out(signum, frame):
        raise TimeoutError("search with two workers took over 60 s")

    previous = signal.signal(signal.SIGALRM, timed_out)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.usefixtures("two_cpus")
class TestWorkers:
    """Two forked workers give exactly the one-worker outcome: the root
    tasks' subtrees are disjoint and their results merge in root order."""

    @staticmethod
    def summary(outcome):
        cert = outcome.certificate
        return (outcome.kind, outcome.stats.nodes, outcome.stats.max_depth,
                outcome.stats.restarts_used, None if cert is None else cert.table.tolist())

    def check(self, k, size, **kwargs):
        got = []
        for workers in (1, 2):
            got.append(self.summary(run(k, size, workers=workers, **kwargs)))
            _no_child_left()
        assert got[0] == got[1]
        return got[0]

    @pytest.mark.parametrize("k,size", [(8, 3), (10, 3), (9, 4), (12, 3)])
    def test_verdict_rungs(self, k, size):
        assert self.check(k, size)[0] is OutcomeKind.EXHAUSTED_NONE

    @pytest.mark.parametrize("k,size", [(11, 4), (13, 4), (15, 4)])
    def test_exhaustive_witnesses(self, k, size):
        assert self.check(k, size)[0] is OutcomeKind.FOUND

    @pytest.mark.parametrize("k,size", [(3, 3), (5, 3), (7, 3), (7, 7)])
    def test_tiny_trees(self, k, size):
        # prime k: the i*j rows form a k-clique, so every tree has a witness
        assert self.check(k, size)[0] is OutcomeKind.FOUND
        assert self.check(k, size, mode=SearchMode.FIRST_FOUND, restarts=3)[0] is OutcomeKind.FOUND

    @pytest.mark.parametrize(
        "k,size,kwargs",
        [(8, 3, {}), (10, 3, {}),
         (15, 4, dict(mode=SearchMode.FIRST_FOUND, node_limit=2_000_000, restarts=40))],
    )
    def test_parent_walks_no_node(self, monkeypatch, k, size, kwargs):
        # with two workers the search forks before its first node: this
        # process only merges the workers' results
        parent = os.getpid()
        engine_run = _search_module._Engine.run
        calls = []

        def recording_run(self, *args):
            if os.getpid() == parent:
                calls.append(args)
            return engine_run(self, *args)

        expected = self.check(k, size, **kwargs)
        monkeypatch.setattr(_search_module._Engine, "run", recording_run)
        outcome = run(k, size, workers=2, **kwargs)
        assert calls == []
        assert self.summary(outcome) == expected
        _no_child_left()

    @pytest.mark.parametrize(
        "size,seeds,kind",
        [(5, K15[2:4], OutcomeKind.EXHAUSTED_NONE_UNDER_SEED), (4, K15[3:4], OutcomeKind.FOUND)],
    )
    def test_seeded(self, size, seeds, kind):
        assert self.check(15, size, seed_rows=seeds)[0] is kind

    # (12,3)'s root tasks walk 23,833-28,269 nodes each: these budgets run
    # out in the first forked task, inside later ones, or just short of the
    # whole tree (260,954 nodes)
    @pytest.mark.parametrize(
        "node_limit", [10_000, 10_001, 50_000, 100_000, 200_000, 260_953, 260_954]
    )
    def test_exhaustive_node_limit(self, node_limit):
        kind, nodes, *_ = self.check(12, 3, node_limit=node_limit)
        if node_limit < 260_954:
            assert (kind, nodes) == (OutcomeKind.LIMIT_REACHED, node_limit + 1)
        else:
            assert kind is OutcomeKind.EXHAUSTED_NONE

    @pytest.mark.parametrize("rng_seed", range(6))
    def test_first_found(self, rng_seed):
        kind, nodes, _, used, _ = self.check(15, 4, mode=SearchMode.FIRST_FOUND,
                                             node_limit=2_000_000, restarts=40, rng_seed=rng_seed)
        assert kind is OutcomeKind.FOUND
        assert (nodes, used) == K15_FIRST_FOUND[rng_seed]

    def test_first_found_k21(self):
        # each restart has a budget of 15,000 nodes; the fifth finds the witness
        kind, nodes, _, used, _ = self.check(21, 4, mode=SearchMode.FIRST_FOUND,
                                             node_limit=240_000, restarts=16, rng_seed=9)
        assert (kind, nodes, used) == (OutcomeKind.FOUND, 63_195, 5)

    # many short restarts (shares of 3,000 and 9,000 nodes), each one task
    @pytest.mark.parametrize(
        "node_limit,restarts,rng_seed,expected",
        [(48_000, 16, 0, (OutcomeKind.LIMIT_REACHED, 48_016, 25, 16)),
         (360_000, 40, 1, (OutcomeKind.FOUND, 85_334, 28, 10))],
    )
    def test_first_found_short_restarts(self, node_limit, restarts, rng_seed, expected):
        kind, nodes, depth, used, _ = self.check(15, 4, mode=SearchMode.FIRST_FOUND,
                                                 node_limit=node_limit, restarts=restarts,
                                                 rng_seed=rng_seed)
        assert (kind, nodes, depth, used) == expected

    def test_first_found_limit(self):
        kind, nodes, _, used, _ = self.check(15, 4, mode=SearchMode.FIRST_FOUND,
                                             node_limit=60_000, restarts=3)
        assert (kind, nodes, used) == (OutcomeKind.LIMIT_REACHED, 60_003, 3)

    def test_first_found_exhaustion(self):
        kind, nodes, *_ = self.check(9, 4, mode=SearchMode.FIRST_FOUND, restarts=3)
        assert (kind, nodes) == (OutcomeKind.EXHAUSTED_NONE, 84_703)

    def test_one_cpu_never_forks(self, monkeypatch):
        monkeypatch.setattr(_search_module, "_usable_cpus", lambda: 1)

        def no_fork():
            raise AssertionError("forked with one usable CPU")

        monkeypatch.setattr(os, "fork", no_fork)
        assert run(9, 4, workers=2).stats.nodes == 84_703

    def test_sigchld_ignored(self):
        # the kernel reaps every worker itself, so waitpid finds none
        previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
        try:
            outcome = run(9, 4, workers=2)
        finally:
            signal.signal(signal.SIGCHLD, previous)
        stats = outcome.stats
        assert (outcome.kind, stats.nodes, stats.max_depth) == (OutcomeKind.EXHAUSTED_NONE, 84_703, 13)
        _no_child_left()

    def test_dead_worker_raises(self, monkeypatch):
        from multiprocessing.connection import Connection

        parent = os.getpid()
        engine_run = _search_module._Engine.run
        send = Connection.send

        def run_then_die(self, orders, budget, *args):
            if os.getpid() != parent:
                # a worker walks part of its task, then dies without a result
                engine_run(self, orders, 100, *args)
                os._exit(3)
            return engine_run(self, orders, budget, *args)

        def send_then_die(self, obj):
            if os.getpid() != parent:
                # a worker dies partway through its result: a frame header
                # announcing 64 bytes, then 3 of them
                os.write(self.fileno(), (64).to_bytes(4, "big") + b"abc")
                os._exit(3)
            send(self, obj)

        # with SIGCHLD ignored the kernel reaps a dead worker before this
        # process kills and waits for it
        for sigchld in (signal.SIG_DFL, signal.SIG_IGN):
            for owner, name, dying in ((_search_module._Engine, "run", run_then_die),
                                       (Connection, "send", send_then_die)):
                previous = signal.signal(signal.SIGCHLD, sigchld)
                try:
                    with monkeypatch.context() as patch:
                        patch.setattr(owner, name, dying)
                        with pytest.raises(RuntimeError, match="without a result"):
                            run(9, 4, workers=2)
                finally:
                    signal.signal(signal.SIGCHLD, previous)
                _no_child_left()

    def test_coordinator_progress_lines(self, capsys):
        outcome = run(9, 4, workers=2, progress_interval=0.0)
        assert outcome.stats.nodes == 84_703
        lines = capsys.readouterr().err.splitlines()
        pattern = re.compile(r"progress: nodes=(\d+) depth=(\d+)/16 elapsed=\S+s")
        assert all(pattern.fullmatch(line) for line in lines)
        # the last line comes from the coordinator once every task is in
        assert lines[-1].startswith("progress: nodes=84703 depth=13/16")

    def test_coordinator_progress_lines_first_found(self, capsys):
        outcome = run(15, 4, workers=2, mode=SearchMode.FIRST_FOUND, node_limit=2_000_000,
                      restarts=40, rng_seed=0, progress_interval=0.0)
        assert (outcome.stats.nodes, outcome.stats.restarts_used) == K15_FIRST_FOUND[0]
        lines = capsys.readouterr().err.splitlines()
        pattern = re.compile(r"progress restart=(\d+): nodes=(\d+) depth=(\d+)/28 elapsed=\S+s")
        matches = [pattern.fullmatch(line) for line in lines]
        assert matches and all(matches)
        # each line names the first restart not yet merged; its nodes count
        # every finished restart, speculative later ones too, so the last
        # line need not equal stats.nodes
        restarts = [int(m[1]) for m in matches]
        nodes = [int(m[2]) for m in matches]
        assert restarts == sorted(restarts) and restarts[-1] < outcome.stats.restarts_used
        assert nodes == sorted(nodes)
