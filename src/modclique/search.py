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
exhaustive pass, or one per first-found restart).  A pass is one call of
``_Engine.run``, whose loop is the only code that opens a cell, assigns a
value or undoes one.

Found witnesses are re-verified through the certificate module and come out
already in normalized form.
"""

from __future__ import annotations

import random
import sys
import time
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .certificate import CliqueCertificate, UncheckedCertificate, certify, is_normalized
from .constructions import check_table_size
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

    node_limit caps total assignments; in first-found mode it is split evenly
    across ``restarts`` (at most node_limit) randomized passes seeded from
    ``rng_seed``.  seed_rows (any integer rows of length k) are fixed as rows
    2.. and must extend {zero, identity} to a verified, normalized prefix;
    with seeds present an exhausted tree yields the weaker "none under seed"
    verdict.  With progress_interval set (seconds, at least 0), progress
    lines go to stderr at most that often.
    """

    k: int
    target_size: int
    mode: SearchMode = SearchMode.EXHAUSTIVE
    node_limit: int | None = None
    restarts: int = 1
    rng_seed: int = 0
    seed_rows: Sequence[Sequence[int]] | None = None
    progress_interval: float | None = None


def _fixed_rows(config: SearchConfig) -> CliqueCertificate:
    """Check the config and return the searched table's fixed rows -- zero,
    identity, then the seeds -- as one verified, normalized certificate."""
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
    fixed = UncheckedCertificate(k, [[0] * k, range(k), *seeds])
    if not is_normalized(fixed):
        raise ValueError(
            "seed rows inconsistent with normalization: each must vanish at 0 "
            "and the rows must be strictly increasing lexicographically"
        )
    return certify(fixed)


# internal DFS verdicts
_FOUND, _EXHAUSTED, _LIMIT = range(3)


class _Engine:
    """Backtracking state for one search: one mutable grid whose first rows
    are the fixed ones, and per-cell tables built once.  Every pass of the
    search is one call of ``run``, the only code that opens a cell, assigns
    a value and undoes one.  Column 0 is pre-assigned: every row vanishes
    there, so every pair starts with difference 0 consumed.

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

    def run(self, orders: list[list[int]] | None, budget: int | None,
            progress_interval: float | None, label: str) -> tuple[int, int, int]:
        """One pass: a depth-first search of the whole tree, from fresh
        masks, in one loop over per-depth arrays, so depth is bounded by the
        cell count, not the interpreter's recursion limit.  Value order and
        node accounting match a plain recursive DFS over
        ``column_candidates`` and the column-1 lex rule: one node per value
        tried, counted before the budget check of at most ``budget`` nodes,
        values ascending or, with ``orders`` (one value order per cell), in
        the cell's order.  With ``progress_interval`` set, a progress line
        tagged with ``label`` goes to stderr at most that often.  Returns
        (verdict, nodes, max_depth) with the grid as it stands, so a
        witness stays in ``rows``.  Free cells keep an earlier pass's values
        until assigned, but no cell is read before this pass assigns it."""
        k, size = self.k, len(self.rows)
        cell_row, cell_col, cell_pairs, cell_lex = (
            self.cell_row, self.cell_col, self.cell_pairs, self.cell_lex)
        ncells = len(cell_col)
        full = (1 << k) - 1
        # bit2[d] marks difference d in both halves of a doubled mask; an
        # index d - k .. -1 wraps to d mod k
        bit2 = [(1 | 1 << k) << d for d in range(k)]
        used2 = [bit2[0]] * (size * (size - 1) // 2)
        # first-found cells pop from the end of their order, so reverse it
        if orders is not None:
            orders = [o[::-1] for o in orders]
        # the budget is checked, and the clock read once per 256 nodes, only
        # when the node count reaches ``check``
        never = sys.maxsize
        stop = never if budget is None else budget + 1
        check = min(stop, never if progress_interval is None else 256)
        started = last_progress = time.perf_counter()
        nodes = max_depth = 0
        # per depth, the open cell's untried values (a bitmask, or a list
        # first-found); its assigned value is read back from the grid
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
            if rest and orders is not None:
                rest = untried[ci] = [w for w in orders[ci] if rest >> w & 1]
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
            # assign the next untried value
            if orders is None:
                low = rest & -rest
                untried[ci] = rest ^ low
                v = low.bit_length() - 1
            else:
                v = rest.pop()
            nodes += 1
            if nodes >= check:
                if nodes >= stop:
                    return _LIMIT, nodes, max_depth
                now = time.perf_counter()
                if now - last_progress >= progress_interval:
                    last_progress = now
                    sys.stderr.write(
                        f"progress{label}: nodes={nodes} depth={max_depth}/{ncells} "
                        f"elapsed={now - started:.1f}s\n"
                    )
                    sys.stderr.flush()
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
    exhausted_kind = (
        OutcomeKind.EXHAUSTED_NONE_UNDER_SEED if base > 2 else OutcomeKind.EXHAUSTED_NONE
    )
    # exhaustive: one pass in natural value order; first-found: ``restarts``
    # passes in seeded random value orders, splitting the budget evenly
    first_found = config.mode is SearchMode.FIRST_FOUND
    passes = config.restarts if first_found else 1
    budget = config.node_limit
    if first_found and budget is not None:
        budget //= passes

    total_nodes = 0
    depth = 0
    eng = _Engine(k, size, fixed.table.tolist())
    for idx in range(passes):
        orders = _restart_orders(k, size, base, config.rng_seed, idx) if first_found else None
        label = f" restart={idx}" if first_found else ""
        res, nodes, max_depth = eng.run(orders, budget, config.progress_interval, label)
        total_nodes += nodes
        depth = max(depth, max_depth)
        if res == _FOUND:
            # run returns at the witness without undoing it: the grid holds it
            cert = CliqueCertificate(k, eng.rows)
            return finish(OutcomeKind.FOUND, cert, total_nodes, depth, idx + 1)
        if res == _EXHAUSTED:
            return finish(exhausted_kind, None, total_nodes, depth, idx + 1)
    return finish(OutcomeKind.LIMIT_REACHED, None, total_nodes, depth, passes)
