import time
from collections import Counter

import numpy as np
import pytest

from modclique import (
    CertificateError,
    CertificateFormatError,
    CliqueCertificate,
    ModFunction,
    UncheckedCertificate,
    builtin_certificate,
    certify,
    identity_function,
    is_bijection,
    is_normalized,
    normalize,
    parse,
    prime_construction,
    serialize,
    verify,
    zero_function,
)
from modclique.certificate import (
    MAX_VERIFIED_ROWS,
    PairViolation,
    VerificationReport,
    _parse_row,
    _scalar_fit,
    _verification_report,
)
from modclique.constructions import compose, smallest_prime_factor

from conftest import (
    CERTS_DIR,
    K21_NORMALIZED_ROW2,
    K21_NORMALIZED_ROW3,
    K15_ROWS,
    K21_ROW2,
)


def bad_k4_certificate():
    """rows {zero, identity, 2x mod 4}: the third row is not adjacent to zero."""
    doubled = ModFunction(4, tuple((2 * x) % 4 for x in range(4)))
    return UncheckedCertificate(4, (zero_function(4), identity_function(4), doubled))


class TestVerify:
    def test_bundled_k15_ok(self, k15_cert):
        report = verify(k15_cert)
        assert report.ok
        assert report.violations == ()
        assert report.summary() == "OK: 4-clique in G_15"

    def test_bundled_k21_k27_ok(self, k21_cert, k27_cert):
        assert verify(k21_cert).ok
        assert verify(k27_cert).ok

    def test_k4_violation_with_witness(self):
        report = verify(bad_k4_certificate())
        assert not report.ok
        assert len(report.violations) == 1
        v = report.violations[0]
        assert (v.row_s, v.row_t) == (0, 2)
        assert (v.point_a, v.point_b) == (0, 2)
        # witness is re-checkable from the certificate alone
        assert (2 * v.point_a) % 4 == (2 * v.point_b) % 4 == v.value

    def test_repeated_row_never_verifies(self):
        row = ModFunction(5, (0, 2, 4, 1, 3))
        report = verify(UncheckedCertificate(5, (row, row)))
        assert not report.ok
        assert report.violations[0].value == 0

    def test_single_row_is_vacuously_ok(self):
        assert verify(UncheckedCertificate(7, (zero_function(7),))).ok

    def test_all_violating_pairs_reported(self):
        # three pairwise-identical rows: all three pairs violate
        row = identity_function(5)
        report = verify(UncheckedCertificate(5, (row, row, row)))
        assert {(v.row_s, v.row_t) for v in report.violations} == {(0, 1), (0, 2), (1, 2)}

    def test_rows_adjacent_to_zero_are_bijections(
        self, k15_cert, k21_cert, k27_cert
    ):
        for cert in (k15_cert, k21_cert, k27_cert):
            assert cert.rows[0] == zero_function(cert.k)
            for row in cert.rows[1:]:
                assert is_bijection(row)

    def test_every_single_cell_corruption_is_caught(self, k15_cert):
        # any one-cell change breaks at least the pair with the zero row
        k = k15_cert.k
        for t in range(1, k15_cert.row_count):
            for j in range(k):
                for v in range(k):
                    if v == k15_cert.rows[t][j]:
                        continue
                    rows = [list(r.values) for r in k15_cert.rows]
                    rows[t][j] = v
                    mutated = UncheckedCertificate(
                        k, tuple(ModFunction(k, tuple(r)) for r in rows)
                    )
                    assert not verify(mutated).ok

    def test_row_cap(self):
        # 1031 is prime, so every i*j table over it is a clique
        k = 1031
        table = np.outer(np.arange(MAX_VERIFIED_ROWS + 1), np.arange(k)) % k
        assert MAX_VERIFIED_ROWS == 1024
        assert verify(UncheckedCertificate(k, table[:-1])).ok
        assert CliqueCertificate(k, table[:-1]).row_count == 1024
        message = "a table of 1025 rows is over the cap of 1024 rows that verification admits"
        for check in (verify, certify):
            with pytest.raises(ValueError) as info:
                check(UncheckedCertificate(k, table))
            assert str(info.value) == message
            # nothing was verified: no report, and compose's handler stays out
            assert not isinstance(info.value, CertificateError)

    def test_row_cap_on_read_names_the_file(self, tmp_path):
        from modclique import read_certificate

        path = tmp_path / "tall.cert"
        path.write_text("3 1024\n" + "0 1 2\n" * 1024)
        assert read_certificate(path).row_count == 1024
        path.write_text("3 1025\n" + "0 1 2\n" * 1025)
        with pytest.raises(ValueError) as info:
            read_certificate(path)
        assert str(info.value) == (
            f"{path}: a table of 1025 rows is over the cap of 1024 rows that verification admits"
        )


SCALAR_MODULI = (*range(2, 17), 21, 25, 27, 49)


def scalar_cases(seed=15, per_modulus=200):
    """Seeded tables f_i = b + a_i*g (mod k) with flags (corrupted, bijective g,
    repeated coefficient).  About half draw coefficients b' + c*i for distinct
    i < spf(k) and a unit c, whose differences are all units; the rest draw
    them at random, so repeats and non-unit differences occur.  A quarter
    take a random, usually non-bijective g, and 30% get one corrupted cell."""
    rng = np.random.default_rng(seed)
    for k in SCALAR_MODULI:
        p = smallest_prime_factor(k)
        units = [u for u in range(1, k) if np.gcd(u, k) == 1]
        for _ in range(per_modulus):
            if p >= 3 and rng.random() < 0.5:
                m = int(rng.integers(3, min(p, 7) + 1))
                idx = rng.choice(p, size=m, replace=False)
                a = (int(rng.integers(k)) + int(rng.choice(units)) * idx) % k
            else:
                m = int(rng.integers(3, 8))
                a = rng.integers(0, k, m)
            g = rng.permutation(k) if rng.random() < 0.75 else rng.integers(0, k, k)
            table = (rng.integers(0, k, k) + a[:, None] * g) % k
            corrupted = rng.random() < 0.3
            if corrupted:
                i, j = rng.integers(m), rng.integers(k)
                table[i, j] = (table[i, j] + rng.integers(1, k)) % k
            bijective = len(set(g.tolist())) == k
            yield k, table, corrupted, bijective, len(set(a.tolist())) < m


def pairwise_violations(k, table):
    """The pure O(m^2 k) check, one row pair at a time: every pair (s, t),
    s < t, in (t, s) order, whose difference repeats a value, with the first
    point b at which a value repeats and the point a < b where it was seen."""
    found = []
    for t in range(1, len(table)):
        for s in range(t):
            diff = ((table[t] - table[s]) % k).tolist()
            if len(set(diff)) == k:
                continue
            first_at = {}
            for b, value in enumerate(diff):
                if value in first_at:
                    found.append(PairViolation(s, t, first_at[value], b, value))
                    break
                first_at[value] = b
    return tuple(found)


def assert_exact(k, table):
    """The report equals the pure pairwise check's; returns it."""
    report = _verification_report(k, table)
    assert report == VerificationReport(k, len(table), pairwise_violations(k, table)), (
        k, table.tolist())
    return report


def corrupted(table, cells, rng):
    """A copy of table with each (row, column) cell moved by a nonzero shift."""
    k = table.shape[1]
    table = table.copy()
    for row, col in cells:
        table[row, col] = (table[row, col] + rng.integers(1, k)) % k
    return table


class TestScalarProof:
    """Rows that fit the scalar form f_i = f_b + a_i*g are decided by their
    coefficients; the report must equal the pure pairwise check's exactly."""

    def test_agrees_with_pairwise_kernel(self):
        seen = Counter()
        for k, table, corrupted_, bijective, repeated in scalar_cases():
            report = assert_exact(k, table)
            proved = _scalar_fit(k, table)[1].all() and report.ok
            if not corrupted_ and report.ok:
                assert proved, f"scalar-form clique not proved: k={k} {table.tolist()}"
            seen["proved" if proved else "corrupted" if corrupted_ else
                 "non-bijective g" if not bijective else
                 "repeated" if repeated else "non-unit"] += 1
        # every way in and out of the proof is exercised
        assert seen["proved"] > 500, seen
        for way in ("corrupted", "non-bijective g", "repeated", "non-unit"):
            assert seen[way] > 20, seen

    def test_prime_construction_is_proved_by_scalar_path(self):
        for k in (3, 5, 7, 9, 25, 31, 15 * 7):
            assert _scalar_fit(k, prime_construction(k).table)[1].all()
        # two rows are left to the pairwise kernel
        assert not _scalar_fit(5, prime_construction(5).table[:2])[1].any()

    def test_non_scalar_clique_is_proved_by_pairwise_kernel(self):
        k = 101
        shifts = np.random.default_rng(7).integers(0, k, (k, 1))
        table = (prime_construction(k).table + shifts) % k
        assert not _scalar_fit(k, table)[1].all()
        assert assert_exact(k, table).ok
        assert verify(UncheckedCertificate(k, table)).ok
        assert CliqueCertificate(k, table).row_count == k

    def test_corrupted_prime_table_reports_as_pairwise_kernel(self):
        k = 31
        table = prime_construction(k).table.copy()
        table[5, 7] = (table[5, 7] + 1) % k
        report = verify(UncheckedCertificate(k, table))
        assert report == assert_exact(k, table)
        assert {(v.row_s, v.row_t) for v in report.violations} == {
            tuple(sorted((5, r))) for r in range(k) if r != 5
        }
        with pytest.raises(CertificateError, match="rows 0 and 5 are not adjacent") as exc:
            CliqueCertificate(k, table)
        assert exc.value.report == report

    def test_prime_tables_with_bad_cells(self):
        # one bad row spoils at most two of the basis pairs (0, 1), (0, 2),
        # (1, 2); column 1 is g^-1(1), where the coefficients are read
        rng = np.random.default_rng(17)
        for k in (*range(5, 102), 105):
            table = prime_construction(k).table
            m = len(table)
            for row in range(min(m, 3)):
                assert not assert_exact(k, corrupted(table, [(row, 1)], rng)).ok
            for n_bad in (1, 2, 3):
                cells = [(rng.integers(m), rng.integers(k)) for _ in range(n_bad)]
                assert not assert_exact(k, corrupted(table, cells, rng)).ok
            both = corrupted(table, [(0, rng.integers(k)), (1, rng.integers(k))], rng)
            assert not assert_exact(k, both).ok

    def test_more_rows_than_the_prime_construction(self):
        # rows i*j for every i < k: fitted pairs with non-unit differences
        rng = np.random.default_rng(18)
        for k in (4, 9, 12, 15, 21, 25, 27, 35, 49):
            table = np.outer(np.arange(k), np.arange(k)) % k
            assert _scalar_fit(k, table)[1].all()
            assert not assert_exact(k, table).ok
            shuffled = table[rng.permutation(k)]
            assert not assert_exact(k, shuffled).ok
            assert not assert_exact(k, corrupted(shuffled, [(k // 2, 3)], rng)).ok

    def test_bundled_and_product_tables(self, k15_cert, k21_cert, k27_cert):
        rng = np.random.default_rng(19)
        for cert in (k15_cert, k21_cert, k27_cert):
            for right in (prime_construction(5), prime_construction(7), cert):
                table = compose(cert, right).table
                assert assert_exact(table.shape[1], table).ok
                for row in range(4):
                    bad = corrupted(table, [(row, rng.integers(table.shape[1]))], rng)
                    assert not assert_exact(bad.shape[1], bad).ok
            assert assert_exact(cert.k, cert.table).ok

    def test_largest_prime_construction_is_fast(self):
        start = time.perf_counter()
        cert = prime_construction(1021)
        assert time.perf_counter() - start < 1.0
        assert cert.row_count == 1021

    def test_corrupted_large_prime_table_is_fast(self):
        k = 997
        table = prime_construction(k).table.copy()
        table[500, 7] = (table[500, 7] + 1) % k
        start = time.perf_counter()
        report = verify(UncheckedCertificate(k, table))
        assert time.perf_counter() - start < 1.0
        assert {(v.row_s, v.row_t) for v in report.violations} == {
            tuple(sorted((500, r))) for r in range(k) if r != 500
        }

    @pytest.mark.parametrize("rows", [(0,), (1,), (2,), (-1,), (0, 1), (1, 2), (5, 6), (-2, -1)])
    def test_loose_rows_anywhere(self, rows):
        # a row that breaks the scalar form, alone or next to another, at
        # the basis rows, in the middle or at the end, replaced or nudged
        rng = np.random.default_rng(20 + sum(rows))
        for k in (7, 11, 13, 23, 31, 37):
            table = prime_construction(k).table
            m = len(table)
            for nudge in (False, True):
                loose = table.copy()
                for row in rows:
                    loose[row] = (
                        corrupted(table, [(row, rng.integers(k))], rng)[row]
                        if nudge else rng.integers(0, k, k)
                    )
                assert not _scalar_fit(k, loose)[1][list(rows)].any()
                assert_exact(k, loose)
                assert_exact(k, loose[rng.permutation(m)])

    def test_loose_rows_among_non_unit_fitted_pairs(self):
        # repeated coefficients and ones equal mod 3, 5 or 7 make fitted
        # pairs whose difference is a non-unit, beside loose rows
        rng = np.random.default_rng(21)
        seen = Counter()
        for k in (15, 21, 25, 35, 45):
            units = [u for u in range(1, k) if np.gcd(u, k) == 1]
            for _ in range(40):
                m = int(rng.integers(4, 16))
                a = rng.integers(0, k, m)
                a[:2] = 0, 1 if rng.random() < 0.5 else int(rng.choice(units))
                g = rng.permutation(k)
                table = (rng.integers(0, k, k) + a[:, None] * g) % k
                for row in rng.choice(np.arange(2, m), size=int(rng.integers(1, 3)), replace=False):
                    table[row] = rng.integers(0, k, k)
                fitted = _scalar_fit(k, table)[1]
                report = assert_exact(k, table)
                fitted_bad = sum(fitted[v.row_s] and fitted[v.row_t] for v in report.violations)
                seen["fitted non-unit"] += fitted_bad > 0
                seen["loose"] += len(report.violations) > fitted_bad
        assert seen["fitted non-unit"] > 50 and seen["loose"] > 50, seen

    def test_random_tables(self):
        rng = np.random.default_rng(22)
        for _ in range(60):
            k = int(rng.integers(2, 62))
            m = int(rng.integers(1, 61))
            assert_exact(k, rng.integers(0, k, (m, k)))

    @pytest.mark.parametrize("bad_cell", [False, True])
    def test_verification_memory_is_bounded(self, bad_cell):
        # blocks and O(m + k) beyond the 7.6 MiB table, also while every
        # pair through the corrupted row goes to the pairwise kernel
        import tracemalloc

        k = 997
        table = prime_construction(k).table.copy()
        if bad_cell:
            table[500, 7] = (table[500, 7] + 1) % k
        tracemalloc.start()
        try:
            report = _verification_report(k, table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert len(report.violations) == (996 if bad_cell else 0)
        assert {(v.row_s, v.row_t) for v in report.violations} == (
            {tuple(sorted((500, r))) for r in range(k) if r != 500} if bad_cell else set()
        )


class TestTypedStates:
    def test_constructor_rejects_non_clique(self):
        bad = bad_k4_certificate()
        with pytest.raises(CertificateError):
            CliqueCertificate(bad.k, bad.rows)

    def test_certify_promotes(self, k15_cert):
        unchecked = UncheckedCertificate(15, k15_cert.rows)
        assert isinstance(certify(unchecked), CliqueCertificate)

    def test_certify_is_identity_on_verified(self, k15_cert):
        assert certify(k15_cert) is k15_cert

    def test_modulus_mismatch_in_rows(self):
        with pytest.raises(CertificateError):
            UncheckedCertificate(5, (zero_function(5), zero_function(7)))

    def test_empty_certificate_rejected(self):
        with pytest.raises(CertificateError):
            UncheckedCertificate(5, ())


class TestTable:
    def test_table_is_read_only(self, k15_cert):
        assert k15_cert.table.dtype == np.int64
        assert k15_cert.table.shape == (4, 15)
        assert not k15_cert.table.flags.writeable
        with pytest.raises(ValueError):
            k15_cert.table[2, 1] = 0

    def test_source_array_changes_do_not_reach_the_certificate(self):
        source = np.array(K15_ROWS)
        cert = CliqueCertificate(15, source)
        unchecked = UncheckedCertificate(15, source)
        source[2, 1] = source[2, 2]  # rows 0 and 2 are no longer adjacent
        for c in (cert, unchecked):
            assert c.table.tolist() == [list(r) for r in K15_ROWS]
        assert verify(cert).ok  # the no-recheck shortcut stays sound
        assert verify(unchecked).ok
        assert verify(UncheckedCertificate(15, cert.table)).ok

    def test_equal_text_gives_equal_hashable_certificates(self, k21_cert):
        text = serialize(k21_cert)
        a, b = parse(text), parse(text)
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert certify(a) == certify(b) == k21_cert
        assert hash(certify(a)) == hash(k21_cert)
        assert a != certify(a)  # an unchecked and a verified state never compare equal
        assert a != parse(serialize(normalize(k21_cert)))

    def test_rows_are_built_once_from_the_table(self, k15_cert):
        assert k15_cert.rows is k15_cert.rows
        assert [r.values for r in k15_cert.rows] == list(K15_ROWS)

    @pytest.mark.parametrize(
        "table",
        [
            [[0.0, 1.0, 2.0]],  # float
            [[False, True, True]],  # bool
            [[0, 1, 2], [0, 1]],  # ragged
            [[0, 1, 3]],  # value k
            [[0, -1, 2]],  # negative value
            [[0, 1, 2**70]],  # beyond int64
            [[0, 1]],  # wrong width
            [0, 1, 2],  # one-dimensional
            [],  # no rows
        ],
    )
    def test_rejects_bad_tables(self, table):
        with pytest.raises(CertificateError):
            UncheckedCertificate(3, table)
        with pytest.raises(CertificateError):
            CliqueCertificate(3, table)


class TestNormalize:
    def test_k15_is_fixed_point_up_to_sort(self, k15_cert):
        # rows 2 and 3 already vanish at 0 and are already sorted
        assert normalize(k15_cert).rows == k15_cert.rows
        assert is_normalized(k15_cert)

    def test_k21_shifts_and_sorts(self, k21_cert):
        normalized = normalize(k21_cert)
        assert normalized.rows[0] == zero_function(21)
        assert normalized.rows[1] == identity_function(21)
        assert normalized.rows[2].values == K21_NORMALIZED_ROW2
        assert normalized.rows[3].values == K21_NORMALIZED_ROW3
        # the shifted first nontrivial row sorts second
        shift = K21_ROW2[0]
        assert normalized.rows[3].values == tuple((v - shift) % 21 for v in K21_ROW2)
        assert verify(normalized).ok

    def test_two_row_certificate_collapses(self):
        f = ModFunction(5, (3, 0, 2, 4, 1))
        g = ModFunction(5, (3, 1, 4, 2, 0))  # f plus the identity, pointwise
        cert = certify(UncheckedCertificate(5, (f, g)))
        normalized = normalize(cert)
        assert normalized.rows == (zero_function(5), identity_function(5))

    def test_idempotent(self, k21_cert, k27_cert):
        for cert in (k21_cert, k27_cert):
            once = normalize(cert)
            assert normalize(once).rows == once.rows
            assert is_normalized(once)

    def test_preserves_shape(self, k27_cert):
        normalized = normalize(k27_cert)
        assert normalized.k == k27_cert.k
        assert normalized.row_count == k27_cert.row_count

    def test_needs_two_rows(self):
        single = CliqueCertificate(5, (identity_function(5),))
        with pytest.raises(CertificateError):
            normalize(single)


class TestFileFormat:
    def test_serialize_k15_matches_data_file(self, k15_cert):
        assert serialize(k15_cert) == (CERTS_DIR / "k15.cert").read_text()

    def test_parse_trivial(self):
        cert = parse("2 2\n0 0\n0 1\n")
        assert cert.k == 2
        assert cert.rows == (zero_function(2), identity_function(2))

    def test_round_trip(self, k15_cert, k21_cert, k27_cert):
        for cert in (k15_cert, k21_cert, k27_cert):
            again = parse(serialize(cert))
            assert again.k == cert.k
            assert again.rows == cert.rows

    def test_accepts_comments_and_loose_spacing(self):
        text = "# a comment\n5  3\n0 0 0 0 0\n# interior comment\n0 1 2 3 4\n0  2 4 1 3\n"
        cert = parse(text)
        assert cert.k == 5 and cert.row_count == 3
        assert serialize(cert) == "5 3\n0 0 0 0 0\n0 1 2 3 4\n0 2 4 1 3\n"

    def test_missing_final_newline_accepted(self):
        assert parse("2 1\n0 1").row_count == 1

    def test_out_of_range_value_names_the_line(self):
        text = "15 2\n" + " ".join("0" for _ in range(15)) + "\n" + \
            " ".join(["15"] + ["0"] * 14) + "\n"
        with pytest.raises(CertificateFormatError) as exc:
            parse(text)
        assert exc.value.line == 3
        assert "out of range" in str(exc.value)

    def test_malformed_header(self):
        with pytest.raises(CertificateFormatError) as exc:
            parse("5\n0 1 2 3 4\n")
        assert exc.value.line == 1

    def test_non_integer_token(self):
        with pytest.raises(CertificateFormatError) as exc:
            parse("3 1\n0 x 2\n")
        assert exc.value.line == 2
        assert exc.value.column == 3

    def test_wrong_row_length(self):
        with pytest.raises(CertificateFormatError) as exc:
            parse("3 1\n0 1\n")
        assert "must have 3 values" in str(exc.value)

    def test_missing_rows(self):
        with pytest.raises(CertificateFormatError):
            parse("3 2\n0 1 2\n")

    def test_extra_rows(self):
        with pytest.raises(CertificateFormatError) as exc:
            parse("3 1\n0 1 2\n0 2 1\n")
        assert "extra data" in str(exc.value)

    def test_interior_blank_line_rejected(self):
        with pytest.raises(CertificateFormatError, match="unexpected blank line") as exc:
            parse("3 2\n0 1 2\n\n \n0 2 1\n\n")
        assert exc.value.line == 3

    def test_many_trailing_blank_lines_parse_fast(self):
        text = serialize(builtin_certificate(15)) + "\n" * 100_000
        start = time.perf_counter()
        assert parse(text).row_count == 4
        assert time.perf_counter() - start < 1.0

    def test_degenerate_modulus_rejected(self):
        with pytest.raises(CertificateFormatError):
            parse("1 1\n0\n")

    def test_canonical_rows_match_token_path(self, k15_cert, k27_cert):
        rng = np.random.default_rng(20)
        for cert in (k15_cert, prime_construction(97), compose(k27_cert, prime_construction(7)),
                     UncheckedCertificate(1000, rng.integers(0, 1000, (3, 1000)))):
            lines = serialize(cert).splitlines()
            by_token = [_parse_row(line, n, cert.k) for n, line in enumerate(lines[1:], 2)]
            assert np.array_equal(parse("\n".join(lines)).table, by_token)

    def test_loose_rows_parse_as_before(self, tmp_path):
        from modclique import read_certificate

        text = "5 4\n0\t1 2 3 4\n 0  2 4  1 3 \n+0 +3 +1 +4 +2\n000 004 003 002 001\n"
        rows = [[0, 1, 2, 3, 4], [0, 2, 4, 1, 3], [0, 3, 1, 4, 2], [0, 4, 3, 2, 1]]
        assert parse(text).table.tolist() == rows
        path = tmp_path / "crlf.cert"
        path.write_bytes(text.replace("\n", "\r\n").encode())
        assert read_certificate(path).table.tolist() == rows

    @pytest.mark.parametrize("token, message", [
        ("-1", "value -1 out of range [0, 5)"),
        ("5", "value 5 out of range [0, 5)"),
        ("x", "value: 'x' is not an integer"),
        ("1.5", "value: '1.5' is not an integer"),
        # numpy would clamp this token to the int64 maximum
        ("99999999999999999999", "value 99999999999999999999 out of range [0, 5)"),
    ])
    def test_bad_value_names_line_and_column(self, token, message):
        text = f"5 3\n0 1 2 3 4\n0 2 {token} 1 3\n0 3 1 4 2\n"
        with pytest.raises(CertificateFormatError) as exc:
            parse(text)
        assert (str(exc.value), exc.value.line, exc.value.column) == (
            f"{message} (line 3, column 5)", 3, 5)

    def test_first_bad_row_is_reported(self):
        # a canonical row out of range comes before a later malformed row
        with pytest.raises(CertificateFormatError, match="value 7 out of range") as exc:
            parse("5 3\n0 1 2 3 4\n0 7 4 1 3\n0 3 1 x 2\n")
        assert (exc.value.line, exc.value.column) == (3, 3)
        # ... and before a later short row, which is looked for first
        with pytest.raises(CertificateFormatError, match="value 7 out of range") as exc:
            parse("5 3\n0 1 2 3 4\n0 7 4 1 3\n0 3\n")
        assert (exc.value.line, exc.value.column) == (3, 3)

    def test_short_rows_under_a_huge_header(self):
        # the m x k table is not allocated before the short row is found
        k = 2**61 - 1
        with pytest.raises(CertificateFormatError, match=f"must have {k} values, got 2") as exc:
            parse(f"{k} 3\n0 0\n0 1\n0 2\n")
        assert exc.value.line == 2

    def test_large_canonical_file_reads_fast(self, tmp_path):
        from modclique import read_certificate

        path = tmp_path / "p997.cert"
        path.write_text(serialize(prime_construction(997)))
        start = time.perf_counter()
        cert = read_certificate(path)
        assert time.perf_counter() - start < 0.25
        assert cert.table.shape == (997, 997)


class TestFileHelpers:
    def test_write_read_round_trip(self, tmp_path, k15_cert):
        from modclique import read_certificate, write_certificate

        path = tmp_path / "out.cert"
        write_certificate(path, k15_cert)
        again = read_certificate(path)
        assert again.rows == k15_cert.rows
        assert path.read_text() == serialize(k15_cert)

    def test_read_takes_the_file_size_not_the_cap(self, tmp_path):
        import tracemalloc

        from modclique import read_certificate

        path = tmp_path / "p97.cert"
        path.write_text(serialize(prime_construction(97)))
        assert 20_000 < path.stat().st_size < 30_000
        tracemalloc.start()
        try:
            cert = read_certificate(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert cert.table.shape == (97, 97)


class TestBundledData:
    def test_unknown_modulus(self):
        with pytest.raises(KeyError):
            builtin_certificate(13)

    def test_k21_k27_carry_zero_and_identity_rows(self, k21_cert, k27_cert):
        for cert in (k21_cert, k27_cert):
            assert cert.row_count == 4
            assert cert.rows[0] == zero_function(cert.k)
            assert cert.rows[1] == identity_function(cert.k)
