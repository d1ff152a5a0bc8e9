"""Randomized properties of the edge predicate, normalization, composition,
and the serializer.

The file name does not match pytest's ``test_*.py`` pattern, so a plain
``pytest`` run does not collect this module: criterion 12 of the acceptance
suite (``tests/test_acceptance.py``) is its only runner, with one test case
per hypothesis test defined here, so each property is written to stand
alone.  ``pytest tests/properties.py`` runs the module directly."""

import re

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from itertools import combinations

from modclique import (
    CliqueCertificate,
    ModFunction,
    UncheckedCertificate,
    compose,
    is_edge,
    is_normalized,
    mod_function,
    normalize,
    parse,
    prime_construction,
    serialize,
    verify,
)

CASES = settings(
    max_examples=1000,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def function_family(draw, count: int, max_k: int = 10):
    k = draw(st.integers(2, max_k))
    funcs = tuple(
        ModFunction(
            k, tuple(draw(st.lists(st.integers(0, k - 1), min_size=k, max_size=k)))
        )
        for _ in range(count)
    )
    return (k, *funcs)


@st.composite
def verified_certificates(draw, max_k: int = 12):
    """Random verified cliques: a constructed clique scrambled by the
    adjacency-preserving transformations (global translation, per-row
    constant shifts, domain relabeling, row reordering)."""
    cert = prime_construction(draw(st.integers(2, max_k)))
    if cert.k <= 6 and draw(st.booleans()):
        cert = compose(cert, prime_construction(draw(st.integers(2, 5))))
    k, m = cert.k, cert.row_count
    translation = draw(st.lists(st.integers(0, k - 1), min_size=k, max_size=k))
    sigma = tuple(draw(st.permutations(range(k))))
    constants = draw(st.lists(st.integers(0, k - 1), min_size=m, max_size=m))
    order = draw(st.permutations(range(m)))
    rows = cert.table.tolist()
    table = [
        [(rows[i][x] + translation[x] + constants[i]) % k for x in sigma] for i in order
    ]
    return CliqueCertificate(k, table)


@st.composite
def unchecked_certificates(draw, max_k: int = 9):
    k = draw(st.integers(2, max_k))
    m = draw(st.integers(1, 5))
    table = [
        draw(st.lists(st.integers(0, k - 1), min_size=k, max_size=k)) for _ in range(m)
    ]
    return UncheckedCertificate(k, table)


@CASES
@given(function_family(2))
def test_edge_symmetry(family):
    _, f, g = family
    assert is_edge(f, g) == is_edge(g, f)


@CASES
@given(function_family(3))
def test_translation_invariance(family):
    k, f, g, h = family
    fh, gh = (mod_function(k, (a + b for a, b in zip(r, h))) for r in (f, g))
    assert is_edge(fh, gh) == is_edge(f, g)


@CASES
@given(function_family(2), st.integers(-30, 30))
def test_constant_shift_invariance(family, c):
    k, f, g = family
    assert is_edge(mod_function(k, (v + c for v in f)), g) == is_edge(f, g)


@CASES
@given(function_family(2), st.data())
def test_domain_relabeling_invariance(family, data):
    k, f, g = family
    sigma = tuple(data.draw(st.permutations(range(k))))
    f_sigma, g_sigma = (ModFunction(k, tuple(r[x] for x in sigma)) for r in (f, g))
    assert is_edge(f_sigma, g_sigma) == is_edge(f, g)


@CASES
@given(verified_certificates())
def test_normalize_preserves_validity_and_shape(cert):
    normalized = normalize(cert)  # construction re-verifies
    assert verify(normalized).ok
    assert normalized.k == cert.k
    assert normalized.row_count == cert.row_count


@CASES
@given(verified_certificates())
def test_normalize_idempotent(cert):
    once = normalize(cert)
    assert normalize(once).rows == once.rows


def naive_normalize(k, rows):
    """Per-row reference for normalize: subtract row 0, relabel the domain by
    the inverse of row 1, shift each later row to vanish at 0, sort them."""
    shifted = [[(a - b) % k for a, b in zip(r, rows[0])] for r in rows]
    inverse = [0] * k
    for x, v in enumerate(shifted[1]):
        inverse[v] = x
    relabeled = [[r[inverse[j]] for j in range(k)] for r in shifted]
    tail = sorted([(v - r[0]) % k for v in r] for r in relabeled[2:])
    return [relabeled[0], relabeled[1], *tail]


@CASES
@given(verified_certificates())
def test_normalize_matches_naive_reference(cert):
    expected = naive_normalize(cert.k, cert.table.tolist())
    normalized = normalize(cert)
    assert normalized.table.tolist() == expected
    assert is_normalized(normalized)
    assert is_normalized(cert) == (cert.table.tolist() == expected)


@CASES
@given(verified_certificates(max_k=8), verified_certificates(max_k=8))
def test_compose_projection_identities(left, right):
    n, m = left.k, right.k
    combined = compose(left, right)
    assert combined.k == n * m
    assert combined.row_count == min(left.row_count, right.row_count)
    for t in range(combined.row_count):
        q = combined.rows[t].values
        for i in range(n):
            for j in range(m):
                # reducing mod m recovers the right factor; dividing out m
                # recovers the left one
                assert q[i * m + j] % m == right.rows[t][j]
                assert (q[i * m + j] - right.rows[t][j]) // m == left.rows[t][i]


@CASES
@given(unchecked_certificates())
def test_verify_matches_pairwise_edge_predicate(cert):
    report = verify(cert)
    bad_pairs = {
        (s, t)
        for (s, fs), (t, ft) in combinations(enumerate(cert.rows), 2)
        if not is_edge(fs, ft)
    }
    assert report.ok == (not bad_pairs)
    assert {(v.row_s, v.row_t) for v in report.violations} == bad_pairs
    for v in report.violations:
        diff_a = (cert.rows[v.row_t][v.point_a] - cert.rows[v.row_s][v.point_a]) % cert.k
        diff_b = (cert.rows[v.row_t][v.point_b] - cert.rows[v.row_s][v.point_b]) % cert.k
        assert diff_a == diff_b == v.value


@CASES
@given(unchecked_certificates())
def test_serialize_parse_round_trip(cert):
    again = parse(serialize(cert))
    assert again.k == cert.k
    assert again.rows == cert.rows


@CASES
@given(unchecked_certificates(), st.data())
def test_parse_normalizes_messy_text(cert, data):
    canonical = serialize(cert)
    lines = canonical.splitlines()
    messy = []
    for i, line in enumerate(lines):
        if data.draw(st.booleans(), label=f"comment before line {i}"):
            messy.append("# scribble")
        pad = data.draw(st.integers(1, 3), label=f"spacing for line {i}")
        messy.append(re.sub(" ", " " * pad, line))
    text = "\n".join(messy)
    if data.draw(st.booleans(), label="trailing newline"):
        text += "\n"
    assert serialize(parse(text)) == canonical

