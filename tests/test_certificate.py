import time

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
    serialize,
    verify,
    zero_function,
)

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


class TestFileHelpers:
    def test_write_read_round_trip(self, tmp_path, k15_cert):
        from modclique import read_certificate, write_certificate

        path = tmp_path / "out.cert"
        write_certificate(path, k15_cert)
        again = read_certificate(path)
        assert again.rows == k15_cert.rows
        assert path.read_text() == serialize(k15_cert)


class TestBundledData:
    def test_unknown_modulus(self):
        with pytest.raises(KeyError):
            builtin_certificate(13)

    def test_k21_k27_carry_zero_and_identity_rows(self, k21_cert, k27_cert):
        for cert in (k21_cert, k27_cert):
            assert cert.row_count == 4
            assert cert.rows[0] == zero_function(cert.k)
            assert cert.rows[1] == identity_function(cert.k)
