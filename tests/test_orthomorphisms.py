"""A cross-check of the search's small verdicts that shares no code with it.

A normalized 3-clique {zero, identity, theta} in G_k is exactly a normalized
orthomorphism of Z_k: theta(0) = 0, theta a permutation, and theta - id a
permutation.  A normalized 4-clique adds a second one whose difference with
the first is a permutation too.  So counting orthomorphisms and such pairs
with itertools alone decides (k, 3) and (k, 4) by a second path -- among
them "no 4-clique in G_9".
"""

from itertools import combinations, permutations

import pytest

from modclique import OutcomeKind, SearchConfig, search


def is_bijective(values, k):
    return len(set(values)) == k


def orthomorphisms(k):
    """Every normalized orthomorphism of Z_k, as a tuple of values."""
    found = []
    for tail in permutations(range(1, k)):
        theta = (0, *tail)
        if is_bijective([(theta[x] - x) % k for x in range(k)], k):
            found.append(theta)
    return found


def orthogonal_pairs(thetas, k):
    """Unordered pairs of orthomorphisms whose difference is a permutation."""
    return [
        (a, b)
        for a, b in combinations(thetas, 2)
        if is_bijective([(a[x] - b[x]) % k for x in range(k)], k)
    ]


# k: (normalized orthomorphisms, pairs with a bijective difference)
COUNTS = {3: (1, 0), 4: (0, 0), 5: (3, 3), 6: (0, 0), 7: (19, 10), 8: (0, 0), 9: (225, 0)}


@pytest.mark.parametrize("k", sorted(COUNTS))
def test_counts(k):
    thetas = orthomorphisms(k)
    assert (len(thetas), len(orthogonal_pairs(thetas, k))) == COUNTS[k]


@pytest.mark.parametrize("k", sorted(COUNTS))
def test_search_verdicts_agree(k):
    thetas, pairs = COUNTS[k]
    for size, exists in ((3, thetas > 0), (4, pairs > 0)):
        outcome = search(SearchConfig(k=k, target_size=size))
        expected = OutcomeKind.FOUND if exists else OutcomeKind.EXHAUSTED_NONE
        assert outcome.kind is expected, (k, size)
