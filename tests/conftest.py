"""Shared fixtures: the bundled 4-clique tables and frozen oracle values."""

from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
CERTS_DIR = REPO_ROOT / "src" / "modclique" / "certs"

# the three bundled 4-cliques, row by row
K15_ROWS = (
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14),
    (0, 9, 3, 2, 13, 11, 10, 12, 4, 6, 8, 14, 7, 5, 1),
    (0, 12, 4, 11, 10, 9, 5, 2, 6, 14, 7, 3, 13, 1, 8),
)
K21_ROW2 = (13, 11, 14, 0, 2, 1, 5, 7, 3, 10, 15, 17, 16, 20, 4, 18, 9, 19, 12, 6, 8)
K21_ROW3 = (14, 5, 4, 13, 9, 18, 2, 15, 6, 10, 17, 1, 11, 19, 8, 3, 7, 12, 0, 16, 20)
K27_ROW2 = (12, 17, 11, 20, 5, 19, 1, 9, 0, 13, 15, 18, 6, 10, 22, 3, 2, 8, 14,
            25, 4, 24, 21, 16, 7, 23, 26)
K27_ROW3 = (4, 6, 5, 15, 19, 18, 3, 13, 24, 16, 20, 1, 7, 0, 8, 11, 9, 17, 26,
            21, 2, 12, 14, 22, 25, 23, 10)

# row 3 minus row 2 of the k=15 table, reduced mod 15 (a permutation;
# computed independently by direct arithmetic)
K15_ROW3_MINUS_ROW2 = (0, 3, 1, 9, 12, 13, 10, 5, 2, 8, 14, 4, 6, 11, 7)

# normalization of the bundled k=21 certificate: rows 0 and 1 are already
# zero and identity, so each later row is shifted by its value at 0 and the
# two results are sorted lexicographically (the shifted K21_ROW3 sorts first)
K21_NORMALIZED_ROW2 = (0, 12, 11, 20, 16, 4, 9, 1, 13, 17, 3, 8, 18, 5, 15,
                       10, 14, 19, 7, 2, 6)
K21_NORMALIZED_ROW3 = (0, 19, 1, 8, 10, 9, 13, 15, 11, 18, 2, 4, 3, 7, 12, 5,
                       17, 6, 20, 14, 16)

# brute-force oracle values, frozen from direct enumeration
OMEGA = {2: 2, 3: 3, 4: 2, 5: 5}
TRIANGLES = {2: 0, 3: 81, 4: 0, 5: 937500}
ORDERED_BIJECTION_PAIRS = {2: 0, 3: 18, 4: 0, 5: 1800}


@pytest.fixture(scope="session")
def k15_cert():
    from modclique import builtin_certificate

    return builtin_certificate(15)


@pytest.fixture(scope="session")
def k21_cert():
    from modclique import builtin_certificate

    return builtin_certificate(21)


@pytest.fixture(scope="session")
def k27_cert():
    from modclique import builtin_certificate

    return builtin_certificate(27)
