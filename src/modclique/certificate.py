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

Verification is one pass with two exact proofs, run as whole-table numpy
passes over row blocks of at most about 2^14 cells.  It fits the scalar form
f_i = f_b + a_i*g, g a bijection, on a basis pair of the first three rows
(the prime rows j -> i*j mod k and their products have this form) and marks
the rows that fit it exactly, in O(m*k) time.  Two fitted rows differ by
(a_t - a_s)*g, a bijection iff a_t - a_s is a unit mod k, that is iff a_s and
a_t differ mod every prime p of k: one bincount of the residues per prime
clears all fitted pairs in O(m*omega(k) + k), and only residues that collide
send the fitted rows to a blocked pair matrix.  Each row that does not fit
goes to the O(k)-per-pair kernel once, against every row before it and every
fitted row after it, so a scalar table with a few corrupted rows costs
O(m*k) per bad row rather than O(m^2 k), and a table of no scalar form is
checked pair by pair.  The violating pairs are sorted into (t, s) order and
each gets the first collision of its difference from one blocked pass.
Beyond the table and the report, memory stays O(m + k) plus one block
(about 0.4 MB for a 997-row prime table, 0.8 MB with one bad cell).  A table
of more than MAX_VERIFIED_ROWS rows is refused with a ValueError before any
of this work, and ``read_certificate`` refuses a file of such a table with
its path in the message.

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
import os
import re
import stat
from dataclasses import dataclass
from functools import cached_property, lru_cache
from importlib import resources
from pathlib import Path
from typing import Union

import numpy as np

from .core import ModFunction, validate_modulus

BUILTIN_MODULI = (15, 21, 27)
# Largest table (rows x modulus) the package builds: 8 MiB of int64 cells.
# A scalar-multiple table of that size verifies in O(m k), about 0.006 s; any
# other table takes the O(m^2 k) pairwise check, still only seconds at this
# size.  It admits every prime modulus up to 1021 and bounds k, hence every
# value, by 2^20, far from int64 overflow in composition and verification.
MAX_TABLE_CELLS = 1 << 20
# Most rows a verified table may have, 1024: the pairwise check's cost grows
# as m x m, kept within MAX_TABLE_CELLS as search keeps s x s.  The tallest
# table the package builds, prime_construction(1021), has 1021 rows.
MAX_VERIFIED_ROWS = math.isqrt(MAX_TABLE_CELLS)
# Cells in one temporary block of the verification passes, so their memory
# beyond the table stays bounded at every table size.
_BLOCK_CELLS = 1 << 14
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
    breaks the scalar form, with O(m + k) memory and bounded blocks beyond
    the table) and refuses any certificate that is not actually a clique,
    raising a CertificateError that carries the report.  A table of more
    than MAX_VERIFIED_ROWS rows raises a plain ValueError unverified."""

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


def _block_rows(width: int, n: int) -> int:
    """Rows of width cells, of n rows in all, in one block of at most
    _BLOCK_CELLS cells (one row at least)."""
    return max(1, min(n, _BLOCK_CELLS // width))


def _scalar_fit(k: int, table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients a and the mask of rows f_i that equal f_b + a_i*g (mod k)
    exactly, for g = f_c - f_b and the first row pair (b, c) of (0, 1),
    (0, 2), (1, 2) whose difference g is a bijection; one bad row spoils at
    most two of those pairs.  No row fits when m < 3 or no pair qualifies.
    Rows are compared a block at a time, so this allocates O(m + k) and one
    block beyond the table."""
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
    step = _block_rows(k, m)
    for i in range(0, m, step):
        fit = a[i : i + step, None] * g
        fit += fb
        fit %= k
        fitted[i : i + step] = (fit == table[i : i + step]).all(axis=1)
    return a, fitted


def _prime_factors(k: int) -> list[int]:
    """The distinct primes dividing k, by trial division: O(sqrt(k)) steps,
    within the O(k) cost of one row."""
    primes = []
    p = 2
    while p * p <= k:
        if k % p == 0:
            primes.append(p)
            while k % p == 0:
                k //= p
        p += 1
    if k > 1:
        primes.append(k)
    return primes


def _bad_fitted_pairs(k: int, a: np.ndarray, fitted: np.ndarray) -> list[np.ndarray]:
    """Row arrays [s, t], s < t, in (t, s) order, of the fitted pairs whose
    a_t - a_s is not a unit mod k, that is a_s = a_t (mod p) for some prime
    p dividing k.  Coefficients distinct mod every such p (one bincount
    each, O(m + k)) prove there are none; the pair matrix of the fitted rows
    is built, a block of rows at a time, only when some residues collide."""
    rows = np.flatnonzero(fitted)
    if len(rows) < 2:
        return [rows[:0], rows[:0]]
    coef = a[rows]
    non_unit = np.zeros(k, dtype=bool)
    for p in _prime_factors(k):
        if np.bincount(coef % p, minlength=p).max() > 1:
            non_unit[::p] = True  # only primes whose residues collide matter
    if not non_unit.any():
        return [rows[:0], rows[:0]]
    n = len(rows)
    earlier = np.arange(n)
    s, t = [], []
    step = _block_rows(n, n)
    for i in range(0, n, step):
        # a_t - a_s lies in (-k, k); a negative index wraps to its residue
        bad = non_unit[coef[i : i + step, None] - coef]
        bad &= earlier < earlier[i : i + step, None]
        ti, si = np.nonzero(bad)  # row-major, so in (t, s) order
        s.append(rows[si])
        t.append(rows[ti + i])
    return [np.concatenate(s), np.concatenate(t)]


def _not_bijective(k: int, table: np.ndarray, t: int, rows: np.ndarray) -> np.ndarray:
    """Mask over table[rows], increasing rows other than t, of those whose
    difference with row t is not a bijection, decided a block of rows at a
    time."""
    step = _block_rows(2 * k, len(rows))
    # Row t minus row s has entries in (-k, k); shifting the i-th row of a
    # block by 2k*i + k drops every difference into the half-open band
    # (2k*i, 2k*(i+1)), residue r landing at in-band offset r or r + k.
    # k entries of a difference row cover all k residue classes iff the
    # difference is a permutation.
    shifted = table[t] + (np.arange(step)[:, None] * (2 * k) + k)
    bad = np.empty(len(rows), dtype=bool)
    for i in range(0, len(rows), step):
        block = rows[i : i + step]
        n, lo = len(block), block[0]
        # a run of consecutive rows is read as a view, not gathered
        others = table[lo : lo + n] if block[-1] - lo == n - 1 else table[block]
        diffs = shifted[:n] - others
        hit = np.zeros((n, 2 * k), dtype=bool)
        hit.ravel()[diffs.ravel()] = True
        hit[:, :k] |= hit[:, k:]
        bad[i : i + n] = ~hit[:, :k].all(axis=1)
    return bad


def _collision_witnesses(k: int, table: np.ndarray, s: np.ndarray, t: np.ndarray):
    """Arrays (a, b, value), one entry per pair (s, t) whose difference is
    not a bijection: b is the least point whose value row t - row s took
    already, at the point a < b.  A block of pairs at a time scatters every
    value's first point (np.minimum.at, so repeated values resolve by
    definition, not by write order) and takes b as the first column whose
    value first occurred earlier."""
    witnesses = np.empty((3, len(s)), dtype=np.int64)
    step = _block_rows(k, len(s))
    cols = np.arange(k)
    points = np.tile(cols, step)
    for i in range(0, len(s), step):
        cells = table[t[i : i + step]]
        cells -= table[s[i : i + step]]
        cells %= k
        n = len(cells)
        # cell (r, j) holding value v becomes r*k + v, the slot of v in first
        offsets = np.arange(0, n * k, k)
        cells += offsets[:, None]
        first = np.full(n * k, k)
        np.minimum.at(first, cells.ravel(), points[: n * k])
        first_at = first[cells]
        b = (first_at < cols).argmax(axis=1)
        r = np.arange(n)
        witnesses[:, i : i + n] = first_at[r, b], b, cells[r, b] - offsets
    return witnesses


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
    its first collision witness.  Two rows that fit the scalar form differ
    by (a_t - a_s)*g, a bijection iff a_t - a_s is a unit mod k; the
    coefficients' residues mod the primes of k decide every fitted pair at
    once, in O(m*omega(k) + k) when they do not collide.  Each row r that
    does not fit goes to the pairwise kernel once, against every row before
    r and every fitted row after it: O(m k) for a scalar-multiple table plus
    O(m k) per row that breaks the form.  The bad pairs are then sorted and
    their witnesses found in one blocked pass.  Beyond the table and the
    report this takes O(m + k) memory and blocks of about _BLOCK_CELLS
    cells.  A table of more than MAX_VERIFIED_ROWS rows raises a ValueError
    (not a CertificateError: nothing was verified) before any pair work."""
    m = len(table)
    _check_verified_rows(m)
    a, fitted = _scalar_fit(k, table)
    pairs = [_bad_fitted_pairs(k, a, fitted)]
    fit_rows = np.flatnonzero(fitted)
    for r in np.flatnonzero(~fitted).tolist():
        rows = np.concatenate((np.arange(r), fit_rows[np.searchsorted(fit_rows, r) :]))
        bad = rows[_not_bijective(k, table, r, rows)]
        pairs.append([np.minimum(bad, r), np.maximum(bad, r)])
    s, t = np.concatenate(pairs, axis=1)
    if not len(s):
        return VerificationReport(k, m, ())
    order = np.lexsort((s, t))
    s, t = s[order], t[order]
    columns = (s, t, *_collision_witnesses(k, table, s, t))
    violations: list[PairViolation] = []
    for i in range(0, len(s), _BLOCK_CELLS):
        # a block of Python ints at a time, not five lists of every pair
        violations.extend(map(PairViolation, *(c[i : i + _BLOCK_CELLS].tolist() for c in columns)))
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


def _read_capped(fh) -> bytes:
    """All of the binary file fh, or a ValueError once it passes
    MAX_FILE_BYTES.  A regular file whose fstat size is over the cap is
    refused unread; any other file is read in pieces of that size plus one
    byte, at least 64 KiB, up to the first short read, which a buffered read
    returns only at end of file.  A regular file that does not grow is one
    piece, no read reserves the whole cap, and at most the cap plus one byte
    is read."""
    st = os.fstat(fh.fileno())
    chunks, size = [], 0
    if not (stat.S_ISREG(st.st_mode) and st.st_size > MAX_FILE_BYTES):
        piece = max(st.st_size + 1, 1 << 16)
        while size <= MAX_FILE_BYTES:
            want = min(piece, MAX_FILE_BYTES + 1 - size)
            chunks.append(fh.read(want))
            size += len(chunks[-1])
            if len(chunks[-1]) < want:
                return b"".join(chunks)  # one piece is returned, not copied
    raise ValueError(f"file is over the cap of {MAX_FILE_BYTES} bytes")


def read_certificate(path: str | Path) -> UncheckedCertificate:
    """Parse a certificate file of at most MAX_FILE_BYTES bytes and at most
    MAX_VERIFIED_ROWS rows.  Every ValueError -- oversized, undecodable,
    malformed or too tall input -- names the path; at most the cap plus one
    byte is ever read."""
    try:
        with open(path, "rb") as fh:
            data = _read_capped(fh)
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
