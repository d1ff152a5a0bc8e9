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
    verdict.  With progress_interval set, progress lines go to stderr at
    most that often.
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
    seeds = [] if config.seed_rows is None else list(config.seed_rows)
    if len(seeds) > size - 2:
        raise ValueError(f"{len(seeds)} seed rows cannot fit in a size-{size} target")
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
    """Backtracking state for one pass: one mutable grid whose first rows are
    the fixed ones, and per-pair used difference masks.  Column 0 is
    pre-assigned: every row vanishes there, so every pair starts with
    difference 0 consumed.

    A pair's used differences are kept doubled, as ``used | used << k``.
    Value v at a cell is blocked by the pair with earlier row src exactly
    when the difference (v - src[j]) mod k is used, and bit v of
    ``used2 >> (k - src[j])`` is that bit of ``used`` for every v < k: for
    v >= src[j] it comes from the upper copy, for v < src[j] from the lower
    one, which is the wrap-around.  So a cell's allowed set is one shift and
    OR per pair, with no rotation and no branch on src[j]."""

    def __init__(self, k: int, size: int, fixed: Sequence[Sequence[int]]):
        self.k = k
        self.full = (1 << k) - 1
        # bit2[d] marks difference d in both halves of a doubled mask; an
        # index d - k .. -1 wraps to d mod k
        self.bit2 = [(1 | 1 << k) << d for d in range(k)]
        base = len(fixed)
        self.rows = list(fixed) + [[0] * k for _ in range(size - base)]
        self.cells = [(t, j) for j in range(1, k) for t in range(base, size)]
        self.ncells = len(self.cells)
        # per unfixed row t, the (earlier row, mask slot) pairs it constrains
        row_pairs = {}
        slot = 0
        for t in range(base, size):
            row_pairs[t] = [(self.rows[s], slot + s) for s in range(t)]
            slot += t
        self.used2 = [self.bit2[0]] * slot
        # per cell: its row, column and pairs, and the row above when the
        # column-1 lex rule applies there (rows 2.. sorted by column 1)
        self.cell_row = [self.rows[t] for t, _ in self.cells]
        self.cell_col = [j for _, j in self.cells]
        self.cell_pairs = [row_pairs[t] for t, _ in self.cells]
        self.cell_lex = [self.rows[t - 1] if j == 1 and t >= 3 else None for t, j in self.cells]
        self.nodes = 0
        self.max_depth = 0
        self.value_orders: list[list[int]] | None = None
        self.node_budget: int | None = None
        self.progress_interval: float | None = None
        self.progress_label = ""
        self._started = time.perf_counter()
        self._last_progress = self._started

    def allowed_mask(self, ci: int) -> int:
        j = self.cell_col[ci]
        k = self.k
        blocked = 0
        for src, slot in self.cell_pairs[ci]:
            blocked |= self.used2[slot] >> (k - src[j])
        lex = self.cell_lex[ci]
        if lex is not None:
            blocked |= (2 << lex[1]) - 1
        return ~blocked & self.full

    def assign(self, ci: int, v: int):
        j = self.cell_col[ci]
        self.cell_row[ci][j] = v
        for src, slot in self.cell_pairs[ci]:
            self.used2[slot] |= self.bit2[v - src[j]]

    def unassign(self, ci: int, v: int):
        j = self.cell_col[ci]
        for src, slot in self.cell_pairs[ci]:
            self.used2[slot] ^= self.bit2[v - src[j]]

    def _report_progress(self, nodes: int, depth: int):
        """Print a progress line if the interval has passed."""
        now = time.perf_counter()
        if now - self._last_progress >= self.progress_interval:
            self._last_progress = now
            sys.stderr.write(
                f"progress{self.progress_label}: nodes={nodes} "
                f"depth={depth}/{self.ncells} "
                f"elapsed={now - self._started:.1f}s\n"
            )
            sys.stderr.flush()

    def run(self) -> int:
        """Depth-first search of the whole tree in one loop over per-depth
        arrays, so depth is bounded by the cell count, not the interpreter's
        recursion limit.  Value order and node accounting match a plain
        recursive DFS over ``allowed_mask``: one node per value tried,
        counted before the budget check, values ascending or, first-found,
        in the cell's value order.  The loop inlines ``assign``,
        ``unassign`` and ``allowed_mask`` and reads only locals and the
        per-cell lists.  Returns with grid and masks as they stand, so a
        witness stays in the grid."""
        k, full, bit2, used2 = self.k, self.full, self.bit2, self.used2
        cell_row, cell_col, cell_pairs, cell_lex = (
            self.cell_row, self.cell_col, self.cell_pairs, self.cell_lex)
        ncells = self.ncells
        # first-found frames pop from the end of the cell's order, reversed
        orders = None if self.value_orders is None else [o[::-1] for o in self.value_orders]
        budget, interval = self.node_budget, self.progress_interval
        # the budget is checked, and the clock read once per 256 nodes, only
        # when the node count reaches ``check``
        never = sys.maxsize
        stop = never if budget is None else budget + 1
        check = min(stop, never if interval is None else 256)
        nodes = max_depth = 0
        # per depth, the open cell's untried values (a bitmask, or a list
        # first-found); its assigned value is read back from the grid
        untried = [0] * ncells
        allowed = self.allowed_mask(0)
        untried[0] = allowed if orders is None else [v for v in orders[0] if allowed >> v & 1]
        ci = 0
        try:
            while True:
                rest = untried[ci]
                if rest:
                    if orders is None:
                        low = rest & -rest
                        untried[ci] = rest ^ low
                        v = low.bit_length() - 1
                    else:
                        v = rest.pop()
                    nodes += 1
                    if nodes >= check:
                        if nodes >= stop:
                            return _LIMIT
                        self._report_progress(nodes, max_depth)
                        check = min(stop, nodes + 256)
                    if ci >= max_depth:
                        max_depth = ci + 1
                    j = cell_col[ci]
                    cell_row[ci][j] = v
                    for src, slot in cell_pairs[ci]:
                        used2[slot] |= bit2[v - src[j]]
                    nci = ci + 1
                    if nci == ncells:
                        return _FOUND
                    j = cell_col[nci]
                    blocked = 0
                    for src, slot in cell_pairs[nci]:
                        blocked |= used2[slot] >> (k - src[j])
                    lex = cell_lex[nci]
                    if lex is not None:
                        blocked |= (2 << lex[1]) - 1
                    allowed = ~blocked & full
                    if allowed:
                        untried[nci] = (
                            allowed if orders is None
                            else [w for w in orders[nci] if allowed >> w & 1]
                        )
                        ci = nci
                        continue
                    # empty child: undo v below, then try the next value here
                else:
                    ci -= 1
                    if ci < 0:
                        return _EXHAUSTED
                # undo the value at cell ci
                j = cell_col[ci]
                v = cell_row[ci][j]
                for src, slot in cell_pairs[ci]:
                    used2[slot] ^= bit2[v - src[j]]
        finally:
            self.nodes, self.max_depth = nodes, max_depth


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
    """One shuffled value order per free cell, indexed like ``_Engine.cells``
    (column-major) but drawn row by row."""
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
    if config.mode is SearchMode.EXHAUSTIVE:
        passes, budget = 1, config.node_limit
    else:
        passes = config.restarts
        budget = None if config.node_limit is None else config.node_limit // passes

    total_nodes = 0
    depth = 0
    fixed_rows = fixed.table.tolist()
    for idx in range(passes):
        eng = _Engine(k, size, fixed_rows)
        eng.node_budget = budget
        eng.progress_interval = config.progress_interval
        if config.mode is SearchMode.FIRST_FOUND:
            eng.value_orders = _restart_orders(k, size, base, config.rng_seed, idx)
            eng.progress_label = f" restart={idx}"
        res = eng.run()
        total_nodes += eng.nodes
        depth = max(depth, eng.max_depth)
        if res == _FOUND:
            # run returns at the witness without undoing it: the grid holds it
            cert = CliqueCertificate(k, eng.rows)
            return finish(OutcomeKind.FOUND, cert, total_nodes, depth, idx + 1)
        if res == _EXHAUSTED:
            return finish(exhausted_kind, None, total_nodes, depth, idx + 1)
    return finish(OutcomeKind.LIMIT_REACHED, None, total_nodes, depth, passes)
