"""Symmetry-reduced backtracking search for size-s cliques in G_k.

Every clique maps, by the certificate module's normalization, to one whose
first two rows are the zero and identity functions, whose later rows vanish
at 0, and whose later rows are lexicographically sorted.  The search
therefore fixes rows 0 and 1, pins column 0 of every later row to 0, and
assigns the remaining cells in column-major order (column j: row 2, then
row 3, ..., then column j+1), so the pairwise difference constraints inside
a column fail as early as possible.  No row pair repeats a difference, so
rows differ pairwise at column 1 (hence a clique has at most k rows) and the
lexicographic order of rows 2.. is their column-1 order: the engine keeps
row t's column-1 value above row t-1's for t >= 3, and tracks no ties.

For every unordered row pair the engine keeps a bitmask of difference values
already consumed by earlier columns, stored doubled (see ``_Engine``); a
candidate value survives only if its difference with every earlier row at
that column is still unused for the pair.  An exhausted tree is therefore a
proof that no clique of the target size exists anywhere in G_k -- unless
seed rows were supplied, in which case only the seeded subtree was searched
and the verdict says so.

Each search builds one engine, whose per-cell tables serve every pass (one
exhaustive pass, or one per first-found restart).  ``_Engine.run`` is the
only code that opens a cell, assigns a value or undoes one.

Passes run in this process, in order.  With more than one worker
(``SearchConfig.workers``), the in-process passes may spend only
``FORK_AFTER_NODES`` nodes in all; a search that needs more drops that work
and runs again from the start as ordered tasks on forked worker processes.
An exhaustive task is one value of the root cell (row 2, or the first free
row, at column 1): the subtrees under different root values are disjoint,
so node counts add, depths take their maximum and the first task in root
order that finds a witness finds the one-pass witness.  A first-found task
is one restart.  Results are merged in task order, so every output equals
that of one worker.

Found witnesses are re-verified through the certificate module and come out
already in normalized form.
"""

from __future__ import annotations

import os
import random
import sys
import time
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .certificate import CliqueCertificate, UncheckedCertificate, certify, is_normalized
from .constructions import MAX_ORDER_DRAWS, check_table_size
from .core import validate_modulus


class SearchMode(Enum):
    EXHAUSTIVE = "exhaustive"
    FIRST_FOUND = "first-found"


class OutcomeKind(Enum):
    FOUND = "found"
    EXHAUSTED_NONE = "exhausted-none"
    EXHAUSTED_NONE_UNDER_SEED = "exhausted-none-under-seed"
    LIMIT_REACHED = "limit-reached"


@dataclass(frozen=True)
class SearchStats:
    nodes: int
    max_depth: int
    wall_time: float
    restarts_used: int = 1


@dataclass(frozen=True)
class SearchOutcome:
    kind: OutcomeKind
    certificate: CliqueCertificate | None
    stats: SearchStats

    @property
    def found(self) -> bool:
        return self.kind is OutcomeKind.FOUND


@dataclass
class SearchConfig:
    """Parameters for one search run.

    node_limit caps the values tried (nodes).  In first-found mode it is
    split evenly across ``restarts`` (at most node_limit) randomized passes
    seeded from ``rng_seed``.  A pass stops at the node that would exceed
    its share and counts that node, so a LIMIT verdict reports node_limit + 1
    nodes when exhaustive, and restarts * (node_limit // restarts + 1) when
    first-found.  seed_rows (any integer rows of length k) are fixed as rows
    2.. and must extend {zero, identity} to a verified, normalized prefix;
    with seeds present an exhausted tree yields the weaker "none under seed"
    verdict.  With progress_interval set (seconds, at least 0), progress
    lines go to stderr at most that often.  workers (at least 1, clamped to
    the usable CPUs) is the number of forked worker processes a search that
    outgrows ``FORK_AFTER_NODES`` nodes may use; it changes no output.
    """

    k: int
    target_size: int
    mode: SearchMode = SearchMode.EXHAUSTIVE
    node_limit: int | None = None
    restarts: int = 1
    rng_seed: int = 0
    seed_rows: Sequence[Sequence[int]] | None = None
    progress_interval: float | None = None
    workers: int = 1


# Nodes a multi-worker search may spend in-process; one that needs more
# discards them and forks.  Forking, sending tasks to the workers and
# reaping them takes about 4 ms, the time of some 3,000-6,000 nodes, so a
# tree much smaller than this gains nothing: the (8,3) and (10,3) trees (462
# and 9,356 nodes) never fork.
FORK_AFTER_NODES = 10_000


def _fixed_rows(config: SearchConfig) -> CliqueCertificate:
    """Check the config and return the searched table's fixed rows -- zero,
    identity, then the seeds -- as one verified, normalized certificate."""
    if config.workers < 1:
        raise ValueError("worker count must be at least 1")
    k, size = config.k, config.target_size
    validate_modulus(k)
    if size < 2:
        raise ValueError(f"target size must be at least 2, got {size}")
    if config.node_limit is not None and config.node_limit < 1:
        raise ValueError("node limit must be positive")
    if config.restarts < 1:
        raise ValueError("restart count must be at least 1")
    limit = config.node_limit
    if config.mode is SearchMode.FIRST_FOUND and limit is not None and config.restarts > limit:
        # each pass gets node_limit // restarts nodes: refuse a pass with none
        raise ValueError(f"restart count {config.restarts} exceeds node limit {limit}")
    interval = config.progress_interval
    if interval is not None and not interval >= 0:
        # NaN compares false and would never print; a negative one, every 256 nodes
        raise ValueError(f"progress interval must be at least 0 seconds, got {interval}")
    seeds = [] if config.seed_rows is None else list(config.seed_rows)
    if len(seeds) > size - 2:
        raise ValueError(f"{len(seeds)} seed rows cannot fit in a size-{size} target")
    # zero, identity and the seeds are built even when no row is left free
    check_table_size(2 + len(seeds), k)
    free = size - 2 - len(seeds)
    if free:
        # before its first node the engine holds one difference mask per row
        # pair and, when first-found, a k-value order per free cell: refuse
        # what the table cap would refuse
        check_table_size(free * k, k)
        check_table_size(size, size)
    draws = config.restarts * free * (k - 1) * k
    if config.mode is SearchMode.FIRST_FOUND and draws > MAX_ORDER_DRAWS:
        # every restart shuffles a k-value order per free cell before its
        # first node, whatever its budget
        raise ValueError(
            f"{config.restarts} restarts x {free * (k - 1)} free cells x {k} values "
            f"is {draws} value-order draws, over the cap of {MAX_ORDER_DRAWS}"
        )
    fixed = UncheckedCertificate(k, [[0] * k, range(k), *seeds])
    if not is_normalized(fixed):
        raise ValueError(
            "seed rows inconsistent with normalization: each must vanish at 0 "
            "and the rows must be strictly increasing lexicographically"
        )
    return certify(fixed)


# internal DFS verdicts
_FOUND, _EXHAUSTED, _LIMIT = range(3)


class _Progress:
    """Progress lines to stderr, at most one per ``interval`` seconds, on a
    clock started at construction."""

    def __init__(self, interval: float, ncells: int, label: str = ""):
        self.interval, self.ncells, self.label = interval, ncells, label
        self.started = self.last = time.perf_counter()

    def report(self, nodes: int, depth: int):
        now = time.perf_counter()
        if now - self.last >= self.interval:
            self.last = now
            sys.stderr.write(
                f"progress{self.label}: nodes={nodes} depth={depth}/{self.ncells} "
                f"elapsed={now - self.started:.1f}s\n"
            )
            sys.stderr.flush()


class _Engine:
    """Backtracking state for one search: one mutable grid whose first rows
    are the fixed ones, and per-cell tables built once.  Every pass of the
    search is one or more calls of ``run``, the only code that opens a cell,
    assigns a value and undoes one.  Column 0 is pre-assigned: every row
    vanishes there, so every pair starts with difference 0 consumed.

    A pair's used differences are kept doubled, as ``used | used << k``.
    Value v at a cell is blocked by the pair with earlier row src exactly
    when the difference (v - src[j]) mod k is used, and bit v of
    ``used2 >> (k - src[j])`` is that bit of ``used`` for every v < k: for
    v >= src[j] it comes from the upper copy, for v < src[j] from the lower
    one, which is the wrap-around.  So a cell's allowed set is one shift and
    OR per pair, with no rotation and no branch on src[j]."""

    def __init__(self, k: int, size: int, fixed: Sequence[Sequence[int]]):
        self.k = k
        base = len(fixed)
        self.rows = list(fixed) + [[0] * k for _ in range(size - base)]
        # free cells in column-major order
        cells = [(t, j) for j in range(1, k) for t in range(base, size)]
        # row pair (s, t), s < t, keeps its used differences in mask slot
        # t(t-1)/2 + s; per unfixed row t, its (earlier row, slot) pairs
        row_pairs = {t: [(self.rows[s], t * (t - 1) // 2 + s) for s in range(t)]
                     for t in range(base, size)}
        # per cell: its row, column and pairs, and the row above when the
        # column-1 lex rule applies there (rows 2.. sorted by column 1)
        self.cell_row = [self.rows[t] for t, _ in cells]
        self.cell_col = [j for _, j in cells]
        self.cell_pairs = [row_pairs[t] for t, _ in cells]
        self.cell_lex = [self.rows[t - 1] if j == 1 and t >= 3 else None for t, j in cells]
        # the root cell (row base, column 1) has one more pair, against row
        # 0 (0 at column 1, so no shift) in the slot after the last row
        # pair's: ``run`` puts there the root values its call leaves out
        self.cell_pairs[0] = row_pairs[base] + [(self.rows[0], size * (size - 1) // 2)]

    def run(self, orders: list[list[int]] | None, budget: int | None,
            progress: _Progress | None = None, roots: int = -1) -> tuple[int, int, int]:
        """One pass, or the part of one under the root values in ``roots``
        (a bitmask): a depth-first search from fresh masks, in one loop over
        per-depth arrays, so depth is bounded by the cell count, not the
        interpreter's recursion limit.  Value order and node accounting
        match a plain recursive DFS over ``column_candidates`` and the
        column-1 lex rule: one node per value tried, counted before the
        budget check of at most ``budget`` nodes, values ascending or, with
        ``orders`` (one value order per cell), in the cell's order.  A cell's
        untried values are a bitmask in both modes: the lowest bit is tried
        next or, with ``orders``, the bit of least rank in the cell's order,
        read from the order's inverse.  Progress lines go to ``progress``,
        one per 256 nodes at most.  Returns (verdict, nodes, max_depth) with
        the grid as it stands, so a witness stays in ``rows``.  Free cells
        keep an earlier call's values until assigned, but no cell is read
        before this call assigns it."""
        k, size = self.k, len(self.rows)
        cell_row, cell_col, cell_pairs, cell_lex = (
            self.cell_row, self.cell_col, self.cell_pairs, self.cell_lex)
        ncells = len(cell_col)
        full = (1 << k) - 1
        # bit2[d] marks difference d in both halves of a doubled mask; an
        # index d - k .. -1 wraps to d mod k
        bit2 = [(1 | 1 << k) << d for d in range(k)]
        skip = full & ~roots
        used2 = [bit2[0]] * (size * (size - 1) // 2) + [skip | skip << k]
        # first-found: per cell, rank[v] is v's position in the cell's order,
        # built when the cell first picks among two or more values.  Each
        # costs O(k), so a short pass at large k builds only the few it uses.
        ranks = None if orders is None else [None] * ncells
        # the budget is checked, and the clock read once per 256 nodes of
        # the pass, only when the node count reaches ``check``
        stop = sys.maxsize if budget is None else budget + 1
        check = stop if progress is None else min(stop, 256)
        nodes = max_depth = 0
        # per depth, the open cell's untried values as a bitmask; its
        # assigned value is read back from the grid
        untried = [0] * ncells
        ci = 0
        while True:
            # open cell ci
            j = cell_col[ci]
            blocked = 0
            for src, slot in cell_pairs[ci]:
                blocked |= used2[slot] >> (k - src[j])
            lex = cell_lex[ci]
            if lex is not None:
                blocked |= (2 << lex[1]) - 1
            rest = ~blocked & full
            # back up past cells with no untried value, undoing their values
            while not rest:
                ci -= 1
                if ci < 0:
                    return _EXHAUSTED, nodes, max_depth
                j = cell_col[ci]
                v = cell_row[ci][j]
                for src, slot in cell_pairs[ci]:
                    used2[slot] ^= bit2[v - src[j]]
                rest = untried[ci]
            # assign the next untried value: the lowest, or the only one
            if ranks is None or not rest & (rest - 1):
                low = rest & -rest
                untried[ci] = rest ^ low
                v = low.bit_length() - 1
            else:
                # first-found: the untried value of least rank
                rank = ranks[ci]
                if rank is None:
                    rank = ranks[ci] = [0] * k
                    for r, w in enumerate(orders[ci]):
                        rank[w] = r
                best = k
                bits = rest
                while bits:
                    low = bits & -bits
                    r = rank[low.bit_length() - 1]
                    if r < best:
                        best = r
                    bits ^= low
                v = orders[ci][best]
                untried[ci] = rest ^ 1 << v
            nodes += 1
            if nodes >= check:
                if nodes >= stop:
                    return _LIMIT, nodes, max_depth
                progress.report(nodes, max_depth)
                check = min(stop, nodes + 256)
            if ci >= max_depth:
                max_depth = ci + 1
            # j is cell ci's column on both paths above
            cell_row[ci][j] = v
            for src, slot in cell_pairs[ci]:
                used2[slot] |= bit2[v - src[j]]
            ci += 1
            if ci == ncells:
                return _FOUND, nodes, max_depth


def column_candidates(
    k: int, rows: Sequence[Sequence[int]], t: int, j: int
) -> set[int]:
    """Values still assignable to cell (t, j) of a partial clique table.

    ``rows`` holds the table's value sequences: rows before t assigned at
    least through column j, row t through column j-1.  A value v survives
    exactly when, for every earlier row s, the difference (v - rows[s][j])
    mod k has not already been used by the pair (s, t) in columns < j.
    Recomputed from scratch, so membership is independent of any enumeration
    order; this is the reference semantics for the engine's incremental
    masks.  Column 0 is {0}, pinned by the normalization every searched row
    obeys; the engine's lexicographic rule (at j == 1 and t >= 3, only values
    above rows[t - 1][1]) is separate and not applied here.
    """
    validate_modulus(k)
    if t < 1 or t >= len(rows):
        raise ValueError(f"row index {t} out of range for {len(rows)} rows")
    if not 0 <= j < k:
        raise ValueError(f"column {j} out of range [0, {k})")
    if j == 0:
        return {0}
    used = []
    for s in range(t):
        used.append({(rows[t][c] - rows[s][c]) % k for c in range(j)})
    return {
        v
        for v in range(k)
        if all((v - rows[s][j]) % k not in used[s] for s in range(t))
    }


def _restart_orders(k: int, size: int, base: int, rng_seed: int, restart: int):
    """One shuffled value order per free cell, indexed like the engine's
    cells (column-major: cell (j - 1) * free + t for free row t, column j)
    but drawn row by row."""
    rng = random.Random(f"{rng_seed}:{restart}")
    free = size - base
    orders: list[list[int]] = [[]] * ((k - 1) * free)
    for t in range(free):
        for j in range(1, k):
            o = list(range(k))
            rng.shuffle(o)
            orders[(j - 1) * free + t] = o
    return orders


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _passes(eng: _Engine, config: SearchConfig, base: int, workers: int):
    """Run the search's passes in turn: one when exhaustive, ``restarts``
    when first-found (each in its seeded random value orders), each with an
    even share of the budget.  With more than one worker the passes here may
    spend only FORK_AFTER_NODES nodes in all; a pass that would cross it
    drops every node spent here, and the whole search runs again on forked
    workers as ordered tasks, one per root value when exhaustive and one per
    restart when first-found.  A worker's exhaustive task that takes the
    merged count past the budget is walked here again on the exact
    remainder, so LIMIT reports the one-pass nodes and depth.  Returns
    (verdict, nodes, max_depth, rows, restarts_used), rows holding the
    witness if one was found."""
    k, size, limit = eng.k, len(eng.rows), config.node_limit
    first_found = config.mode is SearchMode.FIRST_FOUND
    passes = config.restarts if first_found else 1
    share = None if limit is None else limit // passes
    # a pass's verdict that lets the next pass or task run
    keep = _LIMIT if first_found else _EXHAUSTED
    interval, ncells = config.progress_interval, len(eng.cell_col)

    def orders(i):
        return _restart_orders(k, size, base, config.rng_seed, i) if first_found else None

    def label(i):
        return f" restart={i}" if first_found else ""

    nodes = depth = 0
    for i in range(passes):
        room = FORK_AFTER_NODES - nodes
        cap = share if workers == 1 or share is not None and share <= room else room
        progress = None if interval is None else _Progress(interval, ncells, label(i))
        res, n, d = eng.run(orders(i), cap, progress)
        if res == _LIMIT and cap != share:
            break
        nodes, depth = nodes + n, max(depth, d)
        if res != keep:
            return res, nodes, depth, eng.rows, i + 1
    else:
        return keep, nodes, depth, None, passes
    if progress is not None:
        progress.label = label(0)

    def work(i):
        res, n, d = eng.run(orders(i), share, None, -1 if first_found else 1 << i)
        return res, n, d, eng.rows if res == _FOUND else None

    def merge(i, result):
        nonlocal nodes, depth
        res, n, d, rows = result
        if not first_found and limit is not None and nodes + n > limit:
            # this root's subtree crosses the budget: walk it again on the rest
            res, n, d = eng.run(None, limit - nodes, None, 1 << i)
        nodes, depth = nodes + n, max(depth, d)
        if res != keep:
            return res, nodes, depth, rows, i + 1 if first_found else 1
        if progress is not None:
            progress.label = label(i + 1)
        return None

    # the work done here is dropped: the tasks cover the whole search
    nodes = depth = 0
    done = _forked(passes if first_found else k, work, keep, merge, workers, progress)
    return done or (keep, nodes, depth, None, passes)


def _forked(count: int, work, keep: int, merge, workers: int, progress: _Progress | None):
    """Run ``work(i)`` for tasks i = 0 .. count - 1 on forked worker
    processes (at most ``workers``, while this process only coordinates) and
    pass each result, a (verdict, nodes, max_depth, rows) tuple, to
    ``merge(i, result)`` in task order.  Returns the first value ``merge`` returns other than None,
    or None once every task is merged; ``merge`` must return a value for a
    result whose verdict is not ``keep``.

    Each worker holds one end of a duplex pipe.  Tasks go out in order, one
    to each idle worker.  Once a result's verdict is not ``keep`` no later
    task goes out, and once ``merge`` returns, the workers still running are
    killed.  Every worker is reaped before this returns or raises.  A worker
    that dies without sending a whole result raises RuntimeError: a subtree
    nobody walked must never become a verdict.  With ``progress``, the
    progress lines count every finished task."""
    import signal
    from multiprocessing.connection import Pipe, wait

    pids = {}  # per worker: this process's end of its pipe -> its pid
    running = {}  # per busy worker: its pipe end -> index of the task it holds
    try:
        for _ in range(min(workers, count)):
            conn, child = Pipe()
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    for other in [*pids, conn]:
                        other.close()
                    while True:
                        try:
                            task = child.recv()
                        except EOFError:  # the parent closed its end
                            break
                        child.send(work(task))
                    code = 0
                finally:
                    os._exit(code)
            child.close()
            pids[conn] = pid
        idle = list(pids)
        done = {}  # task index -> result, until merged
        sent = merged = nodes = depth = 0
        end = count  # tasks from ``end`` on are not needed
        while True:
            while idle and sent < end:
                conn = idle.pop()
                running[conn] = sent
                try:
                    conn.send(sent)
                except OSError:
                    raise RuntimeError(f"search worker {pids[conn]} exited early") from None
                sent += 1
            if sent >= end:
                # nothing more to hand out: let idle workers exit now
                for conn in idle:
                    conn.close()
                idle = []
            while merged in done:
                out = merge(merged, done.pop(merged))
                merged += 1
                if out is not None:
                    return out
            if merged == count:
                return None
            timeout = None if progress is None else max(progress.interval, 0.1)
            for conn in wait(list(running), timeout):
                try:
                    result = conn.recv()
                except (EOFError, OSError):  # OSError: a result cut short
                    raise RuntimeError(f"search worker {pids[conn]} exited without a result") from None
                i = running.pop(conn)
                done[i] = result
                idle.append(conn)
                nodes, depth = nodes + result[1], max(depth, result[2])
                if result[0] != keep:
                    end = min(end, i + 1)
            if progress is not None:
                progress.report(nodes, depth)
    finally:
        for conn in running:
            os.kill(pids[conn], signal.SIGKILL)
        # a worker whose pipe closes reads its end and exits
        for conn, pid in pids.items():
            conn.close()
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:  # already reaped: SIGCHLD is ignored
                pass


def search(config: SearchConfig) -> SearchOutcome:
    """Run the configured search and return a verdict with statistics.

    Found certificates are verified again through the certificate module,
    never trusted from search state.  A pass that walks the whole
    tree without hitting its budget proves nonexistence in either mode: the
    set of nodes does not depend on value order.  That verdict is
    ExhaustedNone without seed rows, ExhaustedNoneUnderSeed with them.
    """
    fixed = _fixed_rows(config)
    k, size = config.k, config.target_size
    base = fixed.row_count
    start = time.perf_counter()

    def finish(kind, cert, nodes, depth, restarts_used=1):
        return SearchOutcome(
            kind, cert, SearchStats(nodes, depth, time.perf_counter() - start, restarts_used)
        )

    if base >= size:
        # every row already pinned by normalization and seeds
        return finish(OutcomeKind.FOUND, fixed, 0, 0)
    if size > k:
        # rows differ pairwise at column 1, so a clique has at most k rows
        return finish(OutcomeKind.EXHAUSTED_NONE, None, 0, 0)
    eng = _Engine(k, size, fixed.table.tolist())
    workers = min(config.workers, _usable_cpus()) if hasattr(os, "fork") else 1
    res, nodes, depth, rows, used = _passes(eng, config, base, workers)
    if res == _FOUND:
        return finish(OutcomeKind.FOUND, CliqueCertificate(k, rows), nodes, depth, used)
    if res == _EXHAUSTED:
        kind = OutcomeKind.EXHAUSTED_NONE_UNDER_SEED if base > 2 else OutcomeKind.EXHAUSTED_NONE
        return finish(kind, None, nodes, depth, used)
    return finish(OutcomeKind.LIMIT_REACHED, None, nodes, depth, used)
