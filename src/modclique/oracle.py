"""Brute-force reference answers for small k (hard-capped at k <= 5).

Everything here is deliberately naive: exact clique numbers by plain clique
expansion inside the zero function's neighborhood, triangle counts by two
unrelated counting arguments, degrees by direct enumeration.  These answers
validate the clever modules; nothing here shares pruning logic with the
search engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, permutations, product

import numpy as np

from .core import ModFunction, is_edge, validate_modulus, zero_function

ORACLE_CAP = 5


def check_cap(k: int):
    """Raise ValueError unless 2 <= k <= ORACLE_CAP."""
    validate_modulus(k)
    if k > ORACLE_CAP:
        raise ValueError(
            f"oracle is capped at k <= {ORACLE_CAP} (cost grows as k^k); got {k}"
        )


@dataclass(frozen=True)
class CensusReport:
    k: int
    vertex_count: int
    degree: int
    triangle_count: int
    omega: int | None


def brute_force_omega(k: int) -> int:
    """Exact clique number of G_k for k <= 5.

    G_k is vertex-transitive under translation, so some maximum clique
    contains the zero function; its other members lie in zero's
    neighborhood, which is exactly the k! bijections.  Enumerate cliques of
    the bijection subgraph by plain candidate-set expansion and add 1.
    """
    check_cap(k)
    perms = list(permutations(range(k)))
    n = len(perms)
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            seen = [False] * k
            edge = True
            for a, b in zip(perms[i], perms[j]):
                d = (a - b) % k
                if seen[d]:
                    edge = False
                    break
                seen[d] = True
            if edge:
                adj[i] |= 1 << j
                adj[j] |= 1 << i

    best = 0

    def extend(count: int, cand: int, lowest: int):
        nonlocal best
        if count > best:
            best = count
        m = cand >> lowest << lowest
        while m:
            b = m & -m
            v = b.bit_length() - 1
            m ^= b
            extend(count + 1, cand & adj[v], v + 1)

    extend(0, (1 << n) - 1, 0)
    return 1 + best


def ordered_bijection_pairs(k: int) -> int:
    """N(k): ordered pairs (u, v) of distinct bijections with u - v bijective."""
    check_cap(k)
    perms = np.array(list(permutations(range(k))), dtype=np.int64)
    diffs = (perms[:, None, :] - perms[None, :, :]) % k
    is_perm = (np.sort(diffs, axis=2) == np.arange(k)).all(axis=2)
    return int(is_perm.sum())  # diagonal differences are constant 0, never counted


def triangle_count_by_pairs(k: int) -> int:
    """Method A: every triangle {f, g, h} corresponds 6-to-1 to a base point f
    (free over all k^k vertices) plus an ordered pair (g - f, h - f) of
    bijections with bijective difference, so the count is k^k * N(k) / 6."""
    check_cap(k)
    n = ordered_bijection_pairs(k)
    total = k**k * n
    if total % 6 != 0:
        raise AssertionError(f"6-to-1 triangle correspondence violated at k={k}")
    return total // 6


def triangle_count_by_enumeration(k: int) -> int:
    """Method B: walk all vertex triples directly.  Only viable for k <= 3."""
    check_cap(k)
    if k > 3:
        raise ValueError(f"direct triple enumeration is capped at k <= 3, got {k}")
    verts = [ModFunction(k, v) for v in product(range(k), repeat=k)]
    count = 0
    for f, g, h in combinations(verts, 3):
        if is_edge(f, g) and is_edge(f, h) and is_edge(g, h):
            count += 1
    return count


def triangle_count(k: int) -> int:
    """Exact triangle count of G_k, cross-validated between the two methods
    wherever the direct one can run."""
    check_cap(k)
    by_pairs = triangle_count_by_pairs(k)
    if k <= 3:
        direct = triangle_count_by_enumeration(k)
        if direct != by_pairs:
            raise AssertionError(
                f"triangle counting methods disagree at k={k}: "
                f"pairs={by_pairs}, direct={direct}"
            )
    return by_pairs


def degree_check(k: int, sample=None) -> bool:
    """True iff every sampled vertex has exactly k! neighbors, counted by
    testing all k^k candidate vertices (3,125 at k = 5)."""
    check_cap(k)
    if sample is None:
        sample = [zero_function(k), ModFunction(k, tuple(range(k)))]
    target = math.factorial(k)
    for f in sample:
        if f.k != k:
            raise ValueError(f"sampled vertex has modulus {f.k}, expected {k}")
        degree = sum(
            1
            for vals in product(range(k), repeat=k)
            if vals != f.values and is_edge(f, ModFunction(k, vals))
        )
        if degree != target:
            return False
    return True


def census(k: int, with_omega: bool = True) -> CensusReport:
    """Full small-k census: vertex count, uniform degree, triangles, and
    (optionally) the exact clique number."""
    check_cap(k)
    if not degree_check(k):
        raise AssertionError(f"degree check failed at k={k}")
    return CensusReport(
        k=k,
        vertex_count=k**k,
        degree=math.factorial(k),
        triangle_count=triangle_count(k),
        omega=brute_force_omega(k) if with_omega else None,
    )
