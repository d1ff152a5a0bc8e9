"""Clique certificates: verification, normalization, and a line-oriented file format.

A clique certificate is a modulus k together with m functions Z_k -> Z_k that
are pairwise adjacent in G_k.  Read row-wise it is exactly an m x k difference
matrix over Z_k, and that is how it is stored: one read-only (m, k) int64
array, ``table``, validated in a single vectorized pass (integer dtype, shape
(m, k) with m >= 1, every value in [0, k)).  ``rows`` presents the same data
as a tuple of ``ModFunction`` vertices, built on first access.  Certificates
arrive in two states:

* ``UncheckedCertificate`` -- a shape-valid table of the right modulus, no
  claim about adjacency.  This is what ``parse`` returns.
* ``CliqueCertificate`` -- constructing one proves the rows pairwise
  adjacent and raises ``CertificateError`` on any violation, so holding an
  instance is proof the rows really form a clique.  Downstream operations
  (composition, the bound registry, normalization) only accept this type.

Verification is one pass with two exact proofs.  It fits the scalar form
f_i = f_b + a_i*g, g a bijection, on a basis pair of the first three rows
(the prime rows j -> i*j mod k and their products have this form) and marks
the rows that fit it exactly, in O(m*k) time and O(m + k) extra memory.  Two
fitted rows differ by (a_t - a_s)*g, a bijection iff a_t - a_s is a unit
mod k.  Every pair through a row that does not fit goes to the O(k)-per-pair
kernel, so a scalar table with a few corrupted rows costs O(m*k) per bad row
rather than O(m^2 k), and a table of no scalar form is checked pair by pair.
Either way a violation is reported, in (t, s) order, with the first
collision of its difference.  A table of more than MAX_VERIFIED_ROWS rows is
refused with a ValueError before any of this work, and ``read_certificate``
refuses a file of such a table with its path in the message.

The file format is plain text: optional '#' comment lines, a "k m" header
line, then m rows of k residues.  Canonical output uses single spaces, one
row per line, and a trailing newline.  A row of ASCII digits and blanks is
read by one numpy call; any other row, and every row that holds an error,
is read token by token, so each error names its line and column.

Three known 4-cliques (k = 15, 21, 27) ship as package data; the two
nontrivial rows for 21 and 27 are stored together with the zero and identity
rows they extend.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from importlib import resources
from pathlib import Path
from typing import Sequence, Union

import numpy as np

from .core import ModFunction, validate_modulus

BUILTIN_MODULI = (15, 21, 27)
# Largest table (rows x modulus) the package builds: 8 MiB of int64 cells.
# A scalar-multiple table of that size verifies in O(m k), about 0.03 s; any
# other table takes the O(m^2 k) pairwise check, still only seconds at this
# size.  It admits every prime modulus up to 1021 and bounds k, hence every
# value, by 2^20, far from int64 overflow in composition and verification.
MAX_TABLE_CELLS = 1 << 20
# Most rows a verified table may have, 1024: the pairwise check's cost grows
# as m x m, kept within MAX_TABLE_CELLS as search keeps s x s.  The tallest
# table the package builds, prime_construction(1021), has 1021 rows.
MAX_VERIFIED_ROWS = math.isqrt(MAX_TABLE_CELLS)
# the largest file the package writes, 2^20 cells of at most 7 characters
# each, is about 7 MiB
MAX_FILE_BYTES = 16 << 20


class CertificateError(ValueError):
    """A certificate failed verification or structural validation; a failed
    verification carries its report."""

    def __init__(self, message: str, report: VerificationReport | None = None):
        super().__init__(message)
        self.report = report


class CertificateFormatError(ValueError):
    """Malformed certificate text; carries 1-based line (and column) info."""

    def __init__(self, message: str, line: int, column: int | None = None):
        loc = f"line {line}" if column is None else f"line {line}, column {column}"
        super().__init__(f"{message} ({loc})")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class PairViolation:
    """Witness that rows s and t are not adjacent: their difference takes the
    same value at two domain points."""

    row_s: int
    row_t: int
    point_a: int
    point_b: int
    value: int


@dataclass(frozen=True)
class VerificationReport:
    k: int
    row_count: int
    violations: tuple[PairViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        if self.ok:
            return f"OK: {self.row_count}-clique in G_{self.k}"
        return (
            f"FAIL: {len(self.violations)} non-adjacent row pair(s) "
            f"in G_{self.k}"
        )


def _as_table(k: int, table: np.typing.ArrayLike) -> np.ndarray:
    """A read-only int64 copy of an (m, k) table of residues mod k."""
    validate_modulus(k)
    try:
        arr = np.array(table)  # always a fresh array, never the caller's
    except ValueError:
        raise CertificateError("rows have unequal lengths") from None
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] != k:
        raise CertificateError(
            f"a certificate needs an m x {k} table with m >= 1, got shape {arr.shape}"
        )
    if arr.dtype.kind not in "iu":
        raise CertificateError(f"table values must be integers, got dtype {arr.dtype}")
    if arr.min() < 0 or arr.max() >= k:
        i, j = np.argwhere((arr < 0) | (arr >= k))[0]
        raise CertificateError(
            f"value {arr[i, j]} at row {i}, column {j} is not a residue in [0, {k})"
        )
    arr = arr.astype(np.int64, copy=False)
    arr.flags.writeable = False
    return arr


def check_table_size(m: int, k: int):
    """Refuse, before allocating, an m x k table over MAX_TABLE_CELLS."""
    if m * k > MAX_TABLE_CELLS:
        raise ValueError(
            f"a {m} x {k} table has {m * k} cells, over the cap of "
            f"{MAX_TABLE_CELLS}"
        )


@dataclass(frozen=True, eq=False)
class _Certificate:
    """Modulus k and a read-only (m, k) int64 table; the constructor accepts
    any integer array-like of that shape (such as a sequence of ModFunction
    rows) and always stores its own copy."""

    k: int
    table: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "table", _as_table(self.k, self.table))

    @property
    def row_count(self) -> int:
        return len(self.table)

    @cached_property
    def rows(self) -> tuple[ModFunction, ...]:
        """The table's rows as ModFunction vertices, built on first access."""
        return tuple(ModFunction(self.k, tuple(r)) for r in self.table.tolist())

    def _key(self) -> tuple[int, bytes]:
        return self.k, self.table.tobytes()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


class UncheckedCertificate(_Certificate):
    """A table of the right shape and modulus, adjacency not yet checked."""


class CliqueCertificate(_Certificate):
    """A verified clique in G_k.  Construction proves every row pair adjacent
    (in O(m k) for a scalar-multiple table, plus O(m k) for each row that
    breaks the scalar form) and refuses any certificate that is not actually
    a clique, raising a CertificateError that carries the report.  A table of
    more than MAX_VERIFIED_ROWS rows raises a plain ValueError unverified."""

    def __post_init__(self):
        super().__post_init__()
        report = _verification_report(self.k, self.table)
        if not report.ok:
            first = report.violations[0]
            raise CertificateError(
                f"rows {first.row_s} and {first.row_t} are not adjacent: "
                f"difference takes value {first.value} at both "
                f"{first.point_a} and {first.point_b} "
                f"({len(report.violations)} violating pair(s) total)",
                report,
            )


CertificateLike = Union[UncheckedCertificate, CliqueCertificate]


def _collision_witness(diff_values: Sequence[int], k: int) -> tuple[int, int, int]:
    """First (a, b, value) with diff[a] == diff[b] == value, a < b."""
    first_at = [-1] * k
    for j, d in enumerate(diff_values):
        if first_at[d] >= 0:
            return first_at[d], j, d
        first_at[d] = j
    raise AssertionError("no collision in a non-bijective difference")


def _scalar_fit(k: int, table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients a and the mask of rows f_i that equal f_b + a_i*g (mod k)
    exactly, for g = f_c - f_b and the first row pair (b, c) of (0, 1),
    (0, 2), (1, 2) whose difference g is a bijection; one bad row spoils at
    most two of those pairs.  No row fits when m < 3 or no pair qualifies.
    Allocates O(m + k) beyond the table."""
    m = len(table)
    a = np.zeros(m, dtype=np.int64)
    fitted = np.zeros(m, dtype=bool)
    for b, c in ((0, 1), (0, 2), (1, 2)) if m >= 3 else ():
        g = (table[c] - table[b]) % k
        if np.bincount(g, minlength=k).all():
            break
    else:
        return a, fitted
    fb = table[b]
    x = int(np.argmax(g == 1))  # g^-1(1)
    a[:] = (table[:, x] - fb[x]) % k
    for i in range(m):
        # row by row: an m x k residual would double the table's memory
        fitted[i] = not ((table[i] - fb - a[i] * g) % k).any()
    return a, fitted


def _not_bijective(k: int, table: np.ndarray, t: int, rows) -> np.ndarray:
    """Mask over table[rows], rows before t, of those whose difference with
    row t is not a bijection."""
    diffs = table[t] - table[rows]
    n = len(diffs)
    # Row t minus row s has entries in (-k, k); shifting the i-th block by
    # 2k*i + k drops every difference into the half-open band
    # (2k*i, 2k*(i+1)), residue r landing at in-band offset r or r + k.
    # k entries of a difference row cover all k residue classes iff the
    # difference is a permutation.
    diffs += np.arange(n, dtype=diffs.dtype)[:, None] * (2 * k) + k
    hit = np.zeros(2 * k * n, dtype=bool)
    hit[diffs.ravel()] = True
    bands = hit.reshape(n, 2 * k)
    return ~(bands[:, :k] | bands[:, k:]).all(axis=1)


def _check_verified_rows(m: int):
    """Refuse, with a ValueError, a table of more rows than verification
    admits."""
    if m > MAX_VERIFIED_ROWS:
        raise ValueError(
            f"a table of {m} rows is over the cap of {MAX_VERIFIED_ROWS} rows "
            "that verification admits"
        )


def _verification_report(k: int, table: np.ndarray) -> VerificationReport:
    """Every non-adjacent row pair (s, t), s < t, in (t, s) order, each with
    one collision witness.  Two rows that fit the scalar form differ by
    (a_t - a_s)*g, a bijection iff a_t - a_s is a unit mod k, so only pairs
    through a row that does not fit go to the pairwise kernel: O(m k) for a
    scalar-multiple table plus O(m k) per row that breaks the form.  A table
    of more than MAX_VERIFIED_ROWS rows raises a ValueError (not a
    CertificateError: nothing was verified) before any pair work."""
    m = len(table)
    _check_verified_rows(m)
    a, fitted = _scalar_fit(k, table)
    non_unit = np.gcd(np.arange(k), k) != 1
    loose = np.flatnonzero(~fitted)
    loose_before = np.searchsorted(loose, np.arange(m)).tolist()
    violations: list[PairViolation] = []
    for t in range(1, m):
        if fitted[t]:
            # a_t - a_s lies in (-k, k); a negative index wraps to its residue
            bad = non_unit[a[t] - a[:t]]
            rest = loose[: loose_before[t]]  # rows s < t that do not fit
            if len(rest):
                bad[rest] = _not_bijective(k, table, t, rest)
        else:
            bad = _not_bijective(k, table, t, slice(0, t))
        for s in np.flatnonzero(bad).tolist():
            pa, pb, d = _collision_witness(((table[t] - table[s]) % k).tolist(), k)
            violations.append(PairViolation(s, t, pa, pb, d))
    return VerificationReport(k, m, tuple(violations))


def verify(cert: CertificateLike) -> VerificationReport:
    """Check every unordered row pair for adjacency.

    Returns a report listing, for each violating pair, one collision witness
    (two domain points where the pair's difference repeats a value); the
    witness is re-checkable from the certificate alone.  A CliqueCertificate
    already ran this exact check when it was constructed, so its report is
    returned without recomputation; re-check from scratch by wrapping the
    table in an UncheckedCertificate.  A table of more than
    MAX_VERIFIED_ROWS rows raises ValueError.
    """
    if isinstance(cert, CliqueCertificate):
        return VerificationReport(cert.k, cert.row_count, ())
    return _verification_report(cert.k, cert.table)


def certify(cert: CertificateLike) -> CliqueCertificate:
    """Promote to a verified certificate, raising CertificateError on failure."""
    if isinstance(cert, CliqueCertificate):
        return cert
    return CliqueCertificate(cert.k, cert.table)


def _normal_form(k: int, table: np.ndarray) -> np.ndarray:
    t = (table - table[0]) % k
    t = t[:, np.argsort(t[1])]  # the inverse of the bijective row 1
    t = (t - t[:, :1]) % k
    tail = t[2:]
    return np.concatenate((t[:2], tail[np.lexsort(tail.T[::-1])]))


def normalize(cert: CliqueCertificate) -> CliqueCertificate:
    """Canonical form of a verified clique with at least two rows.

    Subtract row 0 from everything (row 0 becomes zero), relabel the domain
    by the inverse of the now-bijective row 1 (row 1 becomes the identity),
    shift each later row so it vanishes at 0, and sort rows 2.. into strictly
    increasing lexicographic order.  Each step preserves pairwise adjacency,
    so the result verifies; idempotent by construction.
    """
    if cert.row_count < 2:
        raise CertificateError("normalization needs at least two rows")
    return CliqueCertificate(cert.k, _normal_form(cert.k, cert.table))


def is_normalized(cert: CertificateLike) -> bool:
    """True iff cert's table is a fixed point of normalize; any table is
    accepted, adjacency is not checked."""
    return cert.row_count >= 2 and np.array_equal(
        _normal_form(cert.k, cert.table), cert.table
    )


# ---------------------------------------------------------------------------
# file format


def serialize(cert: CertificateLike) -> str:
    """Canonical text form: "k m" header, one row per line, single spaces,
    trailing newline."""
    lines = [f"{cert.k} {cert.row_count}"]
    names = [str(v) for v in range(cert.k)]
    # row by row: a whole-table tolist() would hold m*k Python ints at once
    lines.extend(" ".join([names[v] for v in r.tolist()]) for r in cert.table)
    return "\n".join(lines) + "\n"


_INT = re.compile(r"[+-]?\d+")
_TOKEN = re.compile(r"\S+")
_DIGITS_AND_BLANKS = b"0123456789 \t"


def _parse_int(token: str, lineno: int, column: int, what: str) -> int:
    if not _INT.fullmatch(token):
        raise CertificateFormatError(f"{what}: {token!r} is not an integer", lineno, column)
    return int(token)


def _parse_row(line: str, lineno: int, k: int) -> list[int]:
    """One row token by token, so the first bad token is reported with its
    column."""
    tokens = line.split()
    if len(tokens) != k:
        raise CertificateFormatError(
            f"row must have {k} values, got {len(tokens)}", lineno
        )
    values = []
    for t in _TOKEN.finditer(line):
        col = t.start() + 1
        v = _parse_int(t.group(), lineno, col, "value")
        if not 0 <= v < k:
            raise CertificateFormatError(
                f"value {v} out of range [0, {k})", lineno, col
            )
        values.append(v)
    return values


def _read_row(line: str, lineno: int, k: int):
    """One row: a row of ASCII digits, spaces and tabs (serialize writes
    digits and single spaces) is one numpy call; any other row, and every row
    that holds an error, goes to _parse_row, so an error and its line and
    column do not depend on the path.  numpy clamps an overlong token to the
    int64 maximum, which the range check sends to _parse_row too."""
    if not line.encode().translate(None, _DIGITS_AND_BLANKS):
        row = np.fromstring(line, dtype=np.int64, sep=" ")
        if len(row) == k and row.max() < k:
            return row
    return _parse_row(line, lineno, k)


def _parse_body(body: list[tuple[int, str]], k: int) -> np.ndarray:
    """The (m, k) table of the m row lines, read into one preallocated array."""
    if sum(len(line) for _, line in body) < len(body) * (2 * k - 1):
        # k values take at least 2k - 1 characters, so some row falls short:
        # raise its error (or an earlier row's) before allocating m x k
        for lineno, line in body:
            _read_row(line, lineno, k)
    table = np.empty((len(body), k), dtype=np.int64)
    for i, (lineno, line) in enumerate(body):
        table[i] = _read_row(line, lineno, k)
    return table


def parse(text: str) -> UncheckedCertificate:
    """Parse certificate text into an unchecked certificate.

    Lines starting with '#' are comments.  Raises CertificateFormatError with
    line/column diagnostics for a malformed header, wrong row count or length,
    or an out-of-range value.
    """
    data: list[tuple[int, str]] = []
    lines = text.split("\n")
    end = len(lines)
    while end and not lines[end - 1].strip():
        end -= 1  # trailing blank region
    for i, raw in enumerate(lines[:end], start=1):
        stripped = raw.strip()
        if stripped.startswith("#"):
            continue
        if not stripped:
            raise CertificateFormatError("unexpected blank line", i)
        data.append((i, raw))

    if not data:
        raise CertificateFormatError("empty input: missing \"k m\" header", 1)

    header_line, header = data[0]
    tokens = list(_TOKEN.finditer(header))
    if len(tokens) != 2:
        raise CertificateFormatError(
            f"header must be \"k m\", got {len(tokens)} token(s)", header_line
        )
    k = _parse_int(tokens[0].group(), header_line, tokens[0].start() + 1, "modulus")
    m = _parse_int(tokens[1].group(), header_line, tokens[1].start() + 1, "row count")
    if k < 2:
        raise CertificateFormatError(
            f"modulus must be at least 2, got {k}", header_line, tokens[0].start() + 1
        )
    if m < 1:
        raise CertificateFormatError(
            f"row count must be at least 1, got {m}", header_line, tokens[1].start() + 1
        )

    body = data[1:]
    if len(body) < m:
        last = body[-1][0] if body else header_line
        raise CertificateFormatError(f"expected {m} rows, found {len(body)}", last)
    if len(body) > m:
        raise CertificateFormatError(
            f"expected {m} rows, found extra data", body[m][0]
        )

    return UncheckedCertificate(k, _parse_body(body, k))


def read_certificate(path: str | Path) -> UncheckedCertificate:
    """Parse a certificate file of at most MAX_FILE_BYTES bytes and at most
    MAX_VERIFIED_ROWS rows.  Every ValueError -- oversized, undecodable,
    malformed or too tall input -- names the path; only the cap plus one
    byte is ever read."""
    try:
        with open(path, "rb") as fh:
            data = fh.read(MAX_FILE_BYTES + 1)
        if len(data) > MAX_FILE_BYTES:
            raise ValueError(f"file is over the cap of {MAX_FILE_BYTES} bytes")
        # universal newlines, as text-mode reading would give
        cert = parse(data.decode().replace("\r\n", "\n").replace("\r", "\n"))
        _check_verified_rows(cert.row_count)
        return cert
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def write_certificate(path: str | Path, cert: CertificateLike):
    Path(path).write_text(serialize(cert))


@lru_cache(maxsize=None)
def builtin_certificate(k: int) -> CliqueCertificate:
    """One of the bundled 4-cliques (k in 15, 21, 27), parsed and verified."""
    if k not in BUILTIN_MODULI:
        raise KeyError(f"no bundled certificate for k={k}; have {BUILTIN_MODULI}")
    text = (resources.files(__package__) / "certs" / f"k{k}.cert").read_text()
    return certify(parse(text))


def builtin_certificates() -> tuple[CliqueCertificate, ...]:
    return tuple(builtin_certificate(k) for k in BUILTIN_MODULI)
