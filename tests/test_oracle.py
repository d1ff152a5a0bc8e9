import math

import pytest

from modclique import (
    ModFunction,
    brute_force_omega,
    census,
    degree_check,
    identity_function,
    prime_construction,
    triangle_count,
    zero_function,
)
from modclique.oracle import (
    ordered_bijection_pairs,
    triangle_count_by_enumeration,
    triangle_count_by_pairs,
)

from conftest import OMEGA, ORDERED_BIJECTION_PAIRS, TRIANGLES


class TestOmega:
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_frozen_values(self, k):
        assert brute_force_omega(k) == OMEGA[k]

    def test_even_k_means_no_triangles(self):
        assert brute_force_omega(2) == 2
        assert brute_force_omega(4) == 2

    def test_prime_k_attains_k(self):
        assert brute_force_omega(3) == 3
        assert brute_force_omega(5) == 5

    def test_k5_matches_prime_construction_size(self):
        assert brute_force_omega(5) == prime_construction(5).row_count

    @pytest.mark.parametrize("k", [1, 6, 9])
    def test_cap(self, k):
        with pytest.raises(ValueError):
            brute_force_omega(k)


class TestTriangles:
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_frozen_values(self, k):
        assert triangle_count(k) == TRIANGLES[k]

    @pytest.mark.parametrize("k", [2, 3])
    def test_methods_agree(self, k):
        assert triangle_count_by_pairs(k) == triangle_count_by_enumeration(k)

    def test_even_k_triangle_free(self):
        assert triangle_count(2) == 0
        assert triangle_count(4) == 0

    def test_k5_positive(self):
        assert triangle_count(5) > 0

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_pair_counts(self, k):
        assert ordered_bijection_pairs(k) == ORDERED_BIJECTION_PAIRS[k]

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_six_to_one_divisibility(self, k):
        assert (k**k * ordered_bijection_pairs(k)) % 6 == 0

    def test_direct_enumeration_capped(self):
        with pytest.raises(ValueError):
            triangle_count_by_enumeration(4)

    def test_cap(self):
        with pytest.raises(ValueError):
            triangle_count(6)


class TestDegree:
    def test_k3_all_vertices(self):
        from itertools import product

        sample = [ModFunction(3, v) for v in product(range(3), repeat=3)]
        assert degree_check(3, sample)

    def test_k4_zero_vertex(self):
        assert degree_check(4, [zero_function(4)])

    def test_k2(self):
        assert degree_check(2)

    def test_k5_parameterization(self):
        assert degree_check(5, [identity_function(5)])

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_fails_when_every_pair_is_an_edge(self, monkeypatch, k):
        # every candidate then counts: k^k - 1 neighbors, never k!
        monkeypatch.setattr("modclique.oracle.is_edge", lambda f, g: True)
        assert not degree_check(k)

    def test_wrong_modulus_sample(self):
        with pytest.raises(ValueError):
            degree_check(3, [zero_function(4)])

    def test_cap(self):
        with pytest.raises(ValueError):
            degree_check(7)


class TestCensus:
    def test_k3_report(self):
        report = census(3)
        assert report.vertex_count == 27
        assert report.degree == math.factorial(3)
        assert report.triangle_count == 81
        assert report.omega == 3

    def test_omega_optional(self):
        report = census(4, with_omega=False)
        assert report.omega is None
        assert report.triangle_count == 0
