"""Acceptance suite: one test per release criterion, each timed against its
stated budget and printing a PASS/FAIL line (run with ``pytest -s`` to see
them).  Budgets are wall-clock seconds on an ordinary desk machine.
"""

import math
import time
from contextlib import contextmanager

import pytest
from hypothesis import is_hypothesis_test

from modclique import (
    CertificateRegistry,
    OutcomeKind,
    SearchConfig,
    SearchMode,
    brute_force_omega,
    builtin_certificate,
    compose,
    difference,
    lower_bound,
    materialize_bound,
    normalize,
    parse,
    prime_construction,
    search,
    smallest_prime_factor,
    verify,
)
from modclique.oracle import triangle_count_by_enumeration, triangle_count_by_pairs

import properties
from conftest import CERTS_DIR

# node budget documented in the README for the unseeded k=15 rediscovery
K15_RESTARTS = 40
K15_NODE_BUDGET = 2_000_000
K15_RNG_SEED = 0

# criterion 12: every hypothesis test in tests/properties.py, a module pytest
# does not collect by itself, each with an even share of the 900 s budget
PROPERTIES = [f for f in vars(properties).values() if is_hypothesis_test(f)]
PROPERTY_BUDGET_S = 900.0 / len(PROPERTIES)


@contextmanager
def criterion(number, name, budget_s):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        assert elapsed < budget_s, (
            f"criterion {number} took {elapsed:.2f}s, budget {budget_s}s"
        )
    except BaseException:
        print(f"ACCEPTANCE {number:>2} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number:>2} {name}: PASS ({elapsed:.2f}s / {budget_s:.0f}s)")


def test_c01_bundled_k15_verifies():
    with criterion(1, "bundled k=15 certificate verifies", 1.0):
        cert = parse((CERTS_DIR / "k15.cert").read_text())
        assert cert.k == 15 and cert.row_count == 4
        report = verify(cert)
        assert report.ok and report.violations == ()
        # independent pure-Python route: all 6 pairwise differences are
        # permutations of {0..14}
        pairs = 0
        for s in range(4):
            for t in range(s + 1, 4):
                d = difference(cert.rows[t], cert.rows[s])
                assert sorted(d.values) == list(range(15))
                pairs += 1
        assert pairs == 6


def test_c02_bundled_k21_k27_verify():
    with criterion(2, "bundled k=21 and k=27 certificates verify", 1.0):
        for k in (21, 27):
            cert = parse((CERTS_DIR / f"k{k}.cert").read_text())
            assert cert.k == k and cert.row_count == 4
            assert verify(cert).ok


def test_c03_prime_construction_sweep():
    with criterion(3, "prime construction verifies for 2 <= k <= 200", 5.0):
        for k in range(2, 201):
            cert = prime_construction(k)
            assert cert.row_count == smallest_prime_factor(k)
            assert verify(cert).ok


def test_c04_compositions():
    c15 = builtin_certificate(15)
    with criterion(4, "compositions over 105 and 225 verify", 2.0):
        start = time.perf_counter()
        over105 = compose(c15, prime_construction(7))
        assert time.perf_counter() - start < 1.0
        assert over105.k == 105 and over105.row_count == 4
        assert verify(over105).ok

        start = time.perf_counter()
        over225 = compose(c15, c15)
        assert time.perf_counter() - start < 1.0
        assert over225.k == 225 and over225.row_count == 4
        assert verify(over225).ok


def test_c05_lower_bound_sweep_materializes():
    with criterion(5, "lower-bound sweep 2 <= k <= 500 with witnesses", 30.0):
        registry = CertificateRegistry.builtin()
        for k in range(2, 501):
            report = lower_bound(k, registry)
            bound = report.lower_bound
            spf = smallest_prime_factor(k)
            assert bound >= spf
            if spf == k:
                assert bound == k and report.exact
            if k % 2 == 0:
                assert bound == 2 and report.exact
            for d in (15, 21, 27):
                if k % d == 0 and math.gcd(k // d, 6) == 1:
                    assert bound >= 4, f"k={k} is {d}*{k // d}"
            witness = materialize_bound(report, registry)
            assert witness.k == k
            assert witness.row_count == bound
            assert verify(witness).ok


def test_c06_even_k_triangle_free():
    for k in (2, 4, 6, 8, 10):
        with criterion(6, f"exhaustive: no triangle in G_{k}", 60.0):
            outcome = search(SearchConfig(k=k, target_size=3))
            assert outcome.kind is OutcomeKind.EXHAUSTED_NONE


def test_c07_k9_has_no_4_clique():
    with criterion(7, "exhaustive: no 4-clique in G_9", 600.0):
        outcome = search(SearchConfig(k=9, target_size=4))
        assert outcome.kind is OutcomeKind.EXHAUSTED_NONE


def test_c08_k15_seeded_rediscovery():
    with criterion(8, "seeded k=15 rediscovery", 60.0):
        seed = normalize(builtin_certificate(15)).rows[2]
        outcome = search(SearchConfig(k=15, target_size=4, seed_rows=(seed,)))
        assert outcome.found
        assert outcome.certificate.row_count == 4
        assert verify(outcome.certificate).ok


def test_c09_k15_unseeded_rediscovery():
    with criterion(9, "unseeded k=15 rediscovery, fixed seed", 3600.0):
        outcome = search(
            SearchConfig(
                k=15,
                target_size=4,
                mode=SearchMode.FIRST_FOUND,
                node_limit=K15_NODE_BUDGET,
                restarts=K15_RESTARTS,
                rng_seed=K15_RNG_SEED,
            )
        )
        assert outcome.found
        assert outcome.stats.nodes <= K15_NODE_BUDGET
        assert verify(outcome.certificate).ok


def test_c10_oracle_agreement():
    with criterion(10, "brute-force omega matches exhaustive search", 300.0):
        expected = {2: 2, 3: 3, 4: 2, 5: 5}
        for k, omega in expected.items():
            assert brute_force_omega(k) == omega
            for size in range(2, omega + 2):
                outcome = search(SearchConfig(k=k, target_size=size))
                if size <= omega:
                    assert outcome.kind is OutcomeKind.FOUND
                else:
                    assert outcome.kind is OutcomeKind.EXHAUSTED_NONE


def test_c11_triangle_cross_validation():
    with criterion(11, "triangle-count methods cross-validate", 300.0):
        assert triangle_count_by_pairs(3) == triangle_count_by_enumeration(3)
        assert triangle_count_by_pairs(2) == 0
        assert triangle_count_by_pairs(4) == 0
        assert triangle_count_by_pairs(5) > 0


def test_c12_property_suite():
    # every test function in tests/properties.py is a hypothesis test under
    # CASES, so the filter above drops none and test_c12_property runs them all
    tests = [f for name, f in vars(properties).items() if name.startswith("test_")]
    assert tests and tests == PROPERTIES
    for f in tests:
        assert f._hypothesis_internal_use_settings is properties.CASES, f.__name__


@pytest.mark.parametrize("prop", PROPERTIES, ids=lambda f: f.__name__)
def test_c12_property(prop):
    with criterion(12, f"randomized property {prop.__name__}", PROPERTY_BUDGET_S):
        prop()
