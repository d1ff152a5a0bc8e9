"""Symmetry-reduced backtracking search for size-s cliques in G_k.

Every clique maps, by the certificate module's normalization, to one whose
first two rows are the zero and identity functions, whose later rows vanish
at 0, and whose later rows are lexicographically sorted.  The search
therefore fixes rows 0 and 1, pins column 0 of every later row to 0, and
assigns the remaining cells in column-major order (column j: row 2, then
row 3, ..., then column j+1), so the pairwise difference constraints inside
a column fail as early as possible.

For every unordered row pair the engine keeps a bitmask of difference values
already consumed by earlier columns; a candidate value survives only if its
difference with every earlier row at that column is still unused for the
pair.  An exhausted tree is therefore a proof that no clique of the target
size exists anywhere in G_k -- unless seed rows were supplied, in which case
only the seeded subtree was searched and the verdict says so.

Found witnesses are re-verified through the certificate module and come out
already in normalized form.
"""

from __future__ import annotations

import random
import sys
import time
from dataclasses import dataclass, replace
from enum import Enum
from typing import Sequence, TextIO

from .certificate import CliqueCertificate
from .constructions import check_table_size
from .core import ModFunction, validate_modulus


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
    across ``restarts`` randomized passes seeded from ``rng_seed``.  seed_rows
    are fixed as rows 2.. and must extend {zero, identity} to a verified,
    normalized prefix; with seeds present an exhausted tree yields the
    weaker "none under seed" verdict.
    """

    k: int
    target_size: int
    mode: SearchMode = SearchMode.EXHAUSTIVE
    node_limit: int | None = None
    restarts: int = 1
    rng_seed: int = 0
    seed_rows: tuple[ModFunction, ...] | None = None
    progress_interval: float | None = None
    progress_stream: TextIO | None = None

    def validated(self) -> "SearchConfig":
        validate_modulus(self.k)
        if self.target_size < 2:
            raise ValueError(f"target size must be at least 2, got {self.target_size}")
        if self.node_limit is not None and self.node_limit < 1:
            raise ValueError("node limit must be positive")
        if self.restarts < 1:
            raise ValueError("restart count must be at least 1")
        seeds = tuple(self.seed_rows or ())
        if seeds:
            if len(seeds) > self.target_size - 2:
                raise ValueError(
                    f"{len(seeds)} seed rows cannot fit in a size-{self.target_size} target"
                )
            for r in seeds:
                if r.k != self.k:
                    raise ValueError(f"seed row modulus {r.k} != {self.k}")
                if r.values[0] != 0:
                    raise ValueError(
                        "seed row inconsistent with normalization: value at 0 is "
                        f"{r.values[0]}, expected 0"
                    )
            for a, b in zip(seeds, seeds[1:]):
                if not a.values < b.values:
                    raise ValueError(
                        "seed rows must be strictly increasing lexicographically"
                    )
            # seeds must extend {zero, identity} to a verified clique
            _build_certificate(self.k, seeds, ())
        return replace(self, seed_rows=seeds)


# internal DFS verdicts
_FOUND, _EXHAUSTED, _LIMIT = range(3)


class _Engine:
    """Backtracking state for one pass: one mutable grid, per-pair used
    difference bitmasks, and lexicographic tie tracking between consecutive
    rows.  Column 0 is pre-assigned: every row vanishes there, so every pair
    starts with difference 0 consumed."""

    def __init__(self, k: int, size: int, seed_values: Sequence[Sequence[int]] = ()):
        self.k = k
        self.size = size
        self.full = (1 << k) - 1
        fixed = [[0] * k, list(range(k))] + [list(v) for v in seed_values]
        self.base = len(fixed)
        self.rows = fixed + [[0] * k for _ in range(size - self.base)]
        self.cells = [(t, j) for j in range(1, k) for t in range(self.base, size)]
        self.ncells = len(self.cells)
        # per unfixed row t, the (earlier row, mask slot) pairs it constrains
        self.row_pairs: list[list[tuple[list[int], int]]] = []
        slot = 0
        for t in range(self.base, size):
            pairs = []
            for s in range(t):
                pairs.append((self.rows[s], slot))
                slot += 1
            self.row_pairs.append(pairs)
        self.masks = [1] * slot
        self.ge_mask = [(self.full >> w) << w for w in range(k)]
        # row t is lex-constrained against t-1 while their assigned prefixes agree
        self.tied = [t >= 3 for t in range(size)]
        self.nodes = 0
        self.max_depth = 0
        self.value_orders: dict[tuple[int, int], list[int]] | None = None
        self.node_budget: int | None = None
        self.progress_interval: float | None = None
        self.progress_stream: TextIO | None = None
        self.progress_label = ""
        self._last_sync = 0
        self._started = time.perf_counter()
        self._last_progress = self._started
        self.witness: tuple[tuple[int, ...], ...] | None = None

    def allowed_mask(self, ci: int) -> int:
        t, j = self.cells[ci]
        k = self.k
        full = self.full
        allowed = full
        for src, slot in self.row_pairs[t - self.base]:
            free = ~self.masks[slot] & full
            r = src[j]
            if r:
                free = ((free << r) | (free >> (k - r))) & full
            allowed &= free
            if not allowed:
                return 0
        if self.tied[t]:
            allowed &= self.ge_mask[self.rows[t - 1][j]]
        return allowed

    def assign(self, ci: int, v: int):
        t, j = self.cells[ci]
        k = self.k
        self.rows[t][j] = v
        for src, slot in self.row_pairs[t - self.base]:
            self.masks[slot] |= 1 << ((v - src[j]) % k)
        if self.tied[t] and v > self.rows[t - 1][j]:
            self.tied[t] = False
            return True
        return False

    def unassign(self, ci: int, v: int, cleared_tie: bool):
        t, j = self.cells[ci]
        k = self.k
        for src, slot in self.row_pairs[t - self.base]:
            self.masks[slot] &= ~(1 << ((v - src[j]) % k))
        if cleared_tie:
            self.tied[t] = True

    def _report_progress(self):
        """Print a progress line if the interval has passed; the clock is
        read at most once per 256 nodes."""
        if self.nodes - self._last_sync < 256:
            return
        self._last_sync = self.nodes
        now = time.perf_counter()
        if now - self._last_progress >= self.progress_interval:
            self._last_progress = now
            stream = self.progress_stream or sys.stderr
            stream.write(
                f"progress{self.progress_label}: nodes={self.nodes} "
                f"depth={self.max_depth}/{self.ncells} "
                f"elapsed={now - self._started:.1f}s\n"
            )
            stream.flush()

    def _values(self, ci: int, allowed: int) -> list[int]:
        if self.value_orders is None:
            values = []
            m = allowed
            while m:
                b = m & -m
                values.append(b.bit_length() - 1)
                m ^= b
            return values
        return [v for v in self.value_orders[self.cells[ci]] if (allowed >> v) & 1]

    def run(self) -> int:
        """Depth-first search of the whole tree with an explicit stack, so
        depth is bounded by the cell count, not the interpreter's recursion
        limit.  Value order and node accounting match a plain recursive DFS:
        one node per value tried, counted before the budget check."""
        # frame: [ci, candidate values, next index, assigned value, tie undo]
        stack = [[0, self._values(0, self.allowed_mask(0)), 0, None, False]]
        result = _EXHAUSTED
        while stack:
            frame = stack[-1]
            ci = frame[0]
            if frame[3] is not None:
                self.unassign(ci, frame[3], frame[4])
                frame[3] = None
            values = frame[1]
            if frame[2] >= len(values):
                stack.pop()
                continue
            v = values[frame[2]]
            frame[2] += 1
            self.nodes += 1
            if self.node_budget is not None and self.nodes > self.node_budget:
                result = _LIMIT
                break
            if self.progress_interval is not None:
                self._report_progress()
            if ci >= self.max_depth:
                self.max_depth = ci + 1
            frame[4] = self.assign(ci, v)
            frame[3] = v
            nci = ci + 1
            if nci == self.ncells:
                self.witness = tuple(tuple(r) for r in self.rows[self.base :])
                result = _FOUND
                break
            allowed = self.allowed_mask(nci)
            if allowed:
                stack.append([nci, self._values(nci, allowed), 0, None, False])
            # empty child: stay on this frame, next value after the undo above
        for frame in reversed(stack):
            if frame[3] is not None:
                self.unassign(frame[0], frame[3], frame[4])
        return result


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
    obeys; the lexicographic-order constraint is separate and not applied
    here.
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


def _build_certificate(
    k: int, seeds: Sequence[ModFunction], witness: Sequence[Sequence[int]]
) -> CliqueCertificate:
    table = [[0] * k, list(range(k)), *(r.values for r in seeds), *witness]
    return CliqueCertificate(k, table)


def _restart_orders(k: int, size: int, base: int, rng_seed: int, restart: int):
    rng = random.Random(f"{rng_seed}:{restart}")
    orders = {}
    for t in range(base, size):
        for j in range(1, k):
            o = list(range(k))
            rng.shuffle(o)
            orders[(t, j)] = o
    return orders


def search(config: SearchConfig) -> SearchOutcome:
    """Run the configured search and return a verdict with statistics.

    Found certificates are rebuilt and re-verified through the certificate
    module, never trusted from search state.  A pass that walks the whole
    tree without hitting its budget proves nonexistence in either mode: the
    set of nodes does not depend on value order.  That verdict is
    ExhaustedNone without seed rows, ExhaustedNoneUnderSeed with them.
    """
    config = config.validated()
    k, size = config.k, config.target_size
    seeds = config.seed_rows or ()
    base = 2 + len(seeds)
    start = time.perf_counter()

    def finish(kind, cert, nodes, depth, restarts_used=1):
        return SearchOutcome(
            kind, cert, SearchStats(nodes, depth, time.perf_counter() - start, restarts_used)
        )

    if base >= size:
        # every row already pinned by normalization and seeds
        cert = _build_certificate(k, seeds, ())
        return finish(OutcomeKind.FOUND, cert, 0, 0)
    # before its first node the engine holds k lex masks of k bits and, when
    # first-found, a k-value order per free cell: refuse what the table cap
    # would refuse
    check_table_size((size - base) * k, k)

    exhausted_kind = (
        OutcomeKind.EXHAUSTED_NONE_UNDER_SEED if seeds else OutcomeKind.EXHAUSTED_NONE
    )
    # exhaustive: one pass in natural value order; first-found: ``restarts``
    # passes in seeded random value orders, splitting the budget evenly
    if config.mode is SearchMode.EXHAUSTIVE:
        passes, budget = 1, config.node_limit
    else:
        passes = config.restarts
        budget = None if config.node_limit is None else max(1, config.node_limit // passes)

    total_nodes = 0
    depth = 0
    for idx in range(passes):
        eng = _Engine(k, size, [s.values for s in seeds])
        eng.node_budget = budget
        eng.progress_interval = config.progress_interval
        eng.progress_stream = config.progress_stream
        if config.mode is SearchMode.FIRST_FOUND:
            eng.value_orders = _restart_orders(k, size, base, config.rng_seed, idx)
            eng.progress_label = f" restart={idx}"
        res = eng.run()
        total_nodes += eng.nodes
        depth = max(depth, eng.max_depth)
        if res == _FOUND:
            cert = _build_certificate(k, seeds, eng.witness)
            return finish(OutcomeKind.FOUND, cert, total_nodes, depth, idx + 1)
        if res == _EXHAUSTED:
            return finish(exhausted_kind, None, total_nodes, depth, idx + 1)
    return finish(OutcomeKind.LIMIT_REACHED, None, total_nodes, depth, passes)
