import math
import time

import pytest

from modclique import (
    BoundReport,
    CertificateError,
    CertificateRegistry,
    PrimeConstruction,
    Product,
    StoredCertificate,
    builtin_certificate,
    compose,
    identity_function,
    lower_bound,
    materialize_bound,
    prime_construction,
    smallest_prime_factor,
    verify,
    zero_function,
)

from modclique.constructions import MAX_DIVISORS, factorize, is_prime


def reference_lower_bound(k, registry):
    """The top-down divisor DP: every candidate of every divisor becomes a
    full BoundReport, ranked by walking its derivation tree."""

    def product_nodes(report):
        prov = report.provenance
        if isinstance(prov, Product):
            return 1 + product_nodes(prov.left) + product_nodes(prov.right)
        return 0

    kind_rank = {PrimeConstruction: 0, StoredCertificate: 1, Product: 2}

    def key(report):
        prov = report.provenance
        pair = (prov.n, prov.m) if isinstance(prov, Product) else (0, 0)
        return (-report.lower_bound, product_nodes(report), kind_rank[type(prov)], pair)

    memo = {}

    def best(n):
        if n not in memo:
            p = smallest_prime_factor(n)
            exact = p == 2 or p == n
            candidates = [BoundReport(n, p, PrimeConstruction(p), exact)]
            stored = registry.get(n)
            if stored is not None:
                m = stored.row_count
                candidates.append(BoundReport(n, m, StoredCertificate(n, m), exact))
            for d in range(2, math.isqrt(n) + 1):
                if n % d == 0:
                    ra, rb = best(d), best(n // d)
                    if (rb.lower_bound, rb.k) < (ra.lower_bound, ra.k):
                        ra, rb = rb, ra
                    bound = min(ra.lower_bound, rb.lower_bound)
                    candidates.append(
                        BoundReport(n, bound, Product(ra.k, rb.k, ra, rb), exact)
                    )
            memo[n] = min(candidates, key=key)
        return memo[n]

    return best(k)

from conftest import CERTS_DIR


class TestSmallestPrimeFactor:
    @pytest.mark.parametrize(
        "k,expected", [(15, 3), (49, 7), (27, 3), (2, 2), (97, 97), (100, 2), (91, 7)]
    )
    def test_values(self, k, expected):
        assert smallest_prime_factor(k) == expected

    def test_rejects_below_two(self):
        with pytest.raises(ValueError):
            smallest_prime_factor(1)

    def test_agrees_with_trial_division(self):
        for k in range(2, 10_001):
            spf = next((d for d in range(2, math.isqrt(k) + 1) if k % d == 0), k)
            assert smallest_prime_factor(k) == spf
            assert is_prime(k) == (spf == k)

    @pytest.mark.parametrize(
        "factors",
        [
            ((2**61 - 1, 1),),
            ((3, 1), (2**61 - 1, 1)),
            ((2, 200), (2**61 - 1, 1)),
            ((1009, 2),),
            ((2147483647, 2),),
            ((4294967279, 1), (4294967291, 1)),
            ((1009, 1), (1013, 1), (1019, 1), (1021, 1), (1031, 1), (1033, 1)),
        ],
    )
    def test_factorize_large(self, factors):
        k = math.prod(p**e for p, e in factors)
        assert factorize(k) == factors
        assert is_prime(k) == (factors == ((k, 1),))

    def test_factorize_refuses_large_cofactor(self):
        with pytest.raises(ValueError, match="cannot factor"):
            factorize(5 * (2**64 + 13))


class TestPrimeConstruction:
    def test_k5_full_multiplication_table(self):
        cert = prime_construction(5)
        assert cert.row_count == 5
        for i, row in enumerate(cert.rows):
            assert row.values == tuple((i * j) % 5 for j in range(5))
        assert verify(cert).ok

    def test_k15_has_three_rows(self):
        cert = prime_construction(15)
        assert cert.row_count == 3
        assert verify(cert).ok

    def test_k2_is_zero_identity(self):
        cert = prime_construction(2)
        assert cert.rows == (zero_function(2), identity_function(2))

    @pytest.mark.parametrize("k", range(2, 61))
    def test_sweep_verifies(self, k):
        cert = prime_construction(k)
        assert cert.row_count == smallest_prime_factor(k)
        assert verify(cert).ok


class TestCompose:
    def test_prime_3_times_prime_5(self):
        cert = compose(prime_construction(3), prime_construction(5))
        assert cert.k == 15
        assert cert.row_count == 3
        assert verify(cert).ok

    def test_k15_squared(self, k15_cert):
        cert = compose(k15_cert, k15_cert)
        assert cert.k == 225
        assert cert.row_count == 4
        assert verify(cert).ok

    def test_single_row_collapses(self, k15_cert):
        single = prime_construction(2).rows[:1]
        from modclique import CliqueCertificate

        one = CliqueCertificate(2, single)
        cert = compose(one, k15_cert)
        assert cert.row_count == 1
        assert cert.k == 30

    def test_projection_identities(self, k15_cert):
        left = prime_construction(7)
        right = k15_cert
        n, m = left.k, right.k
        cert = compose(left, right)
        for t in range(cert.row_count):
            q = cert.rows[t].values
            for i in range(n):
                for j in range(m):
                    assert q[i * m + j] % m == right.rows[t][j]
                    assert (q[i * m + j] - right.rows[t][j]) // m == left.rows[t][i]

    def test_table_size_guard(self):
        from modclique.certificate import MAX_TABLE_CELLS, check_table_size

        check_table_size(4, MAX_TABLE_CELLS // 4)
        with pytest.raises(ValueError, match="cap"):
            check_table_size(2**32, 2**32)  # the old word-size limit is far beyond the cap
        with pytest.raises(ValueError, match="cap"):
            prime_construction(20011)  # a 20011 x 20011 table, refused before allocation
        wide = prime_construction(MAX_TABLE_CELLS // 2)  # 2 rows, exactly at the cap
        assert wide.row_count * wide.k == MAX_TABLE_CELLS
        with pytest.raises(ValueError, match="cap"):
            compose(wide, prime_construction(3))


class TestRegistry:
    def test_builtin_moduli(self):
        reg = CertificateRegistry.builtin()
        assert reg.moduli() == (15, 21, 27)
        assert reg.get(15).row_count == 4
        assert reg.get(16) is None

    def test_from_directory(self):
        reg = CertificateRegistry.from_directory(CERTS_DIR)
        assert reg.moduli() == (15, 21, 27)

    def test_from_empty_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            CertificateRegistry.from_directory(tmp_path)

    def test_rejects_unverified(self):
        reg = CertificateRegistry()
        with pytest.raises(TypeError):
            reg.add("not a certificate")

    def test_keeps_larger_certificate(self, k15_cert):
        reg = CertificateRegistry([prime_construction(15)])
        assert reg.get(15).row_count == 3
        reg.add(k15_cert)
        assert reg.get(15).row_count == 4
        reg.add(prime_construction(15))
        assert reg.get(15).row_count == 4


class TestLowerBound:
    def test_k15_stored(self):
        report = lower_bound(15)
        assert report.lower_bound == 4
        assert report.provenance == StoredCertificate(15, 4)
        assert not report.exact

    def test_k105_product(self):
        report = lower_bound(105)
        assert report.lower_bound == 4
        prov = report.provenance
        assert isinstance(prov, Product)
        assert (prov.n, prov.m) == (15, 7)
        assert prov.left.provenance == StoredCertificate(15, 4)
        assert prov.right.provenance == PrimeConstruction(7)

    def test_k7_exact(self):
        report = lower_bound(7)
        assert report.lower_bound == 7
        assert report.exact

    def test_k4_exact(self):
        report = lower_bound(4)
        assert report.lower_bound == 2
        assert report.exact

    def test_k225_product_of_stored(self):
        report = lower_bound(225)
        assert report.lower_bound == 4
        assert isinstance(report.provenance, Product)
        assert (report.provenance.n, report.provenance.m) == (15, 15)

    def test_rejects_below_two(self):
        with pytest.raises(ValueError):
            lower_bound(1)

    @pytest.mark.parametrize("k", range(2, 101))
    def test_sweep_consistency(self, k):
        report = lower_bound(k)
        assert report.lower_bound >= smallest_prime_factor(k)
        if k % 2 == 0:
            assert report.lower_bound == 2
            assert report.exact
        if smallest_prime_factor(k) == k:
            assert report.lower_bound == k
            assert report.exact

    def test_four_clique_products_with_coprime_cofactor(self):
        # every k = P * n <= 500 with P a product of 15/21/27 factors and n
        # coprime to 6 admits a 4-clique by repeated composition
        products = set()

        def grow(p):
            if p > 500 or p in products:
                return
            products.add(p)
            for d in (15, 21, 27):
                grow(p * d)

        for d in (15, 21, 27):
            grow(d)
        hits = 0
        for p in sorted(products):
            for n in range(1, 500 // p + 1):
                if math.gcd(n, 6) != 1:
                    continue
                assert lower_bound(p * n).lower_bound >= 4, f"k={p}*{n}"
                hits += 1
        assert hits == 29  # 7 pure products of {15,21,27} up to 500, 29 pairs

    def test_registry_growth_never_decreases(self):
        empty = CertificateRegistry()
        full = CertificateRegistry.builtin()
        for k in range(2, 201):
            sparse = lower_bound(k, empty).lower_bound
            rich = lower_bound(k, full).lower_bound
            assert rich >= sparse
        assert lower_bound(15, empty).lower_bound == 3
        assert lower_bound(15, full).lower_bound == 4

    def test_deterministic(self):
        assert lower_bound(315) == lower_bound(315)

    def test_matches_reference_dp(self):
        # the two composed 4-cliques at 315 and 135 tie with the product
        # derivations 15 x 21 and 27 x 5 and win on fewer Product nodes
        extended = CertificateRegistry.builtin()
        extended.add(compose(builtin_certificate(15), builtin_certificate(21)))
        extended.add(compose(builtin_certificate(27), prime_construction(5)))
        assert lower_bound(315, extended).provenance == StoredCertificate(315, 4)
        assert lower_bound(135, extended).provenance == StoredCertificate(135, 4)
        for registry in (CertificateRegistry.builtin(), CertificateRegistry(), extended):
            for k in range(2, 2001):
                assert lower_bound(k, registry) == reference_lower_bound(k, registry), k

    def test_highly_composite_modulus_is_fast(self):
        start = time.perf_counter()
        report = lower_bound(720720**2)  # 3,645 divisors
        assert time.perf_counter() - start < 1.5
        assert report.lower_bound == 2 and report.exact

    def test_divisor_cap(self):
        # 2^2730 * 3^2 has 2731 * 3 = 8,193 divisors, one over the cap, and
        # is refused before any is listed: the DP is quadratic in their count
        assert MAX_DIVISORS == 8192
        start = time.perf_counter()
        with pytest.raises(ValueError, match="has 8193 divisors, over the cap of 8192"):
            lower_bound(2**2730 * 3**2)
        assert time.perf_counter() - start < 1.0


class TestMaterialize:
    @pytest.mark.parametrize("k", [2, 9, 105, 225, 315])
    def test_replay_matches_report(self, k):
        report = lower_bound(k)
        cert = materialize_bound(report)
        assert cert.k == k
        assert cert.row_count == report.lower_bound
        assert verify(cert).ok

    def test_k9_is_prime_construction(self):
        report = lower_bound(9)
        assert report.lower_bound == 3
        cert = materialize_bound(report)
        assert cert.rows == prime_construction(9).rows

    def test_k2_is_zero_identity(self):
        cert = materialize_bound(lower_bound(2))
        assert cert.rows == (zero_function(2), identity_function(2))

    def test_registry_mutation_detected(self, k15_cert):
        reg = CertificateRegistry.builtin()
        report = lower_bound(15, reg)
        smaller = CertificateRegistry([prime_construction(15)])
        with pytest.raises(CertificateError):
            materialize_bound(report, smaller)
