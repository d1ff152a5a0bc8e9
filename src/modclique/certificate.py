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
* ``CliqueCertificate`` -- constructing one runs the full pairwise check and
  raises ``CertificateError`` on any violation, so holding an instance is
  proof the rows really form a clique.  Downstream operations (composition,
  the bound registry, normalization) only accept this type.

The file format is plain text: optional '#' comment lines, a "k m" header
line, then m rows of k residues.  Canonical output uses single spaces, one
row per line, and a trailing newline.

Three known 4-cliques (k = 15, 21, 27) ship as package data; the two
nontrivial rows for 21 and 27 are stored together with the zero and identity
rows they extend.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from importlib import resources
from pathlib import Path
from typing import Sequence, Union

import numpy as np

from .core import ModFunction, validate_modulus

BUILTIN_MODULI = (15, 21, 27)


class CertificateError(ValueError):
    """A certificate failed verification or structural validation."""


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
    """A verified clique in G_k.  Construction performs the O(m^2 k) pairwise
    check and refuses any certificate that is not actually a clique."""

    def __post_init__(self):
        super().__post_init__()
        report = _verification_report(self.k, self.table)
        if not report.ok:
            first = report.violations[0]
            raise CertificateError(
                f"rows {first.row_s} and {first.row_t} are not adjacent: "
                f"difference takes value {first.value} at both "
                f"{first.point_a} and {first.point_b} "
                f"({len(report.violations)} violating pair(s) total)"
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


def _verification_report(k: int, table: np.ndarray) -> VerificationReport:
    m = len(table)
    if m < 2:
        return VerificationReport(k, m, ())
    table = table.astype(np.int32 if 2 * k * m < 2**31 else np.int64, copy=False)
    # Row t minus row s has entries in (-k, k); shifting row s's block by
    # 2k*s + k drops every difference into the half-open band
    # (2k*s, 2k*(s+1)), residue r landing at in-band offset r or r + k.
    # k entries of a difference row cover all k residue classes iff the
    # difference is a permutation, so a clique shows every class hit.
    band_base = np.arange(m, dtype=table.dtype)[:, None] * (2 * k) + k
    violations: list[PairViolation] = []
    for t in range(1, m):
        diffs = table[t] - table[:t]
        diffs += band_base[:t]
        hit = np.zeros(2 * k * t, dtype=bool)
        hit[diffs.ravel()] = True
        bands = hit.reshape(t, 2 * k)
        good = (bands[:, :k] | bands[:, k:]).all(axis=1)
        for s in np.nonzero(~good)[0]:
            a, b, d = _collision_witness(((table[t] - table[s]) % k).tolist(), k)
            violations.append(PairViolation(int(s), t, a, b, d))
    return VerificationReport(k, m, tuple(violations))


def verify(cert: CertificateLike) -> VerificationReport:
    """Check every unordered row pair for adjacency.

    Returns a report listing, for each violating pair, one collision witness
    (two domain points where the pair's difference repeats a value); the
    witness is re-checkable from the certificate alone.  A CliqueCertificate
    already ran this exact check when it was constructed, so its report is
    returned without recomputation; re-check from scratch by wrapping the
    table in an UncheckedCertificate.
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


def is_normalized(cert: CliqueCertificate) -> bool:
    """True iff cert is a fixed point of normalize."""
    return cert.row_count >= 2 and np.array_equal(
        _normal_form(cert.k, cert.table), cert.table
    )


# ---------------------------------------------------------------------------
# file format


def serialize(cert: CertificateLike) -> str:
    """Canonical text form: "k m" header, one row per line, single spaces,
    trailing newline."""
    lines = [f"{cert.k} {cert.row_count}"]
    # row by row: a whole-table tolist() would hold m*k Python ints at once
    lines.extend(" ".join(map(str, r.tolist())) for r in cert.table)
    return "\n".join(lines) + "\n"


_INT = r"[+-]?\d+"
_INT_ROW = re.compile(rf"\s*{_INT}(?:\s+{_INT})*\s*")


def _parse_int(token: str, lineno: int, column: int, what: str) -> int:
    if not re.fullmatch(_INT, token):
        raise CertificateFormatError(f"{what}: {token!r} is not an integer", lineno, column)
    return int(token)


def _parse_row(line: str, lineno: int, k: int) -> list[int]:
    tokens = line.split()
    if len(tokens) != k:
        raise CertificateFormatError(
            f"row must have {k} values, got {len(tokens)}", lineno
        )
    if _INT_ROW.fullmatch(line):
        values = list(map(int, tokens))
        if min(values) >= 0 and max(values) < k:
            return values
    # token by token, so the first bad one is reported with its column
    values = []
    for t in re.finditer(r"\S+", line):
        col = t.start() + 1
        v = _parse_int(t.group(), lineno, col, "value")
        if not 0 <= v < k:
            raise CertificateFormatError(
                f"value {v} out of range [0, {k})", lineno, col
            )
        values.append(v)
    return values


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
    tokens = list(re.finditer(r"\S+", header))
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

    table = [_parse_row(line, lineno, k) for lineno, line in body]
    return UncheckedCertificate(k, table)


def read_certificate(path: str | Path) -> UncheckedCertificate:
    return parse(Path(path).read_text())


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
