"""Clique constructions and lower bounds on the clique number of G_k.

Three sources of cliques, each yielding a verified certificate:

* the multiplication table rows j -> i*j mod k for i = 0 .. spf(k)-1, a
  clique of size the smallest prime factor of k;
* composition: cliques over n and over m combine into a clique over n*m of
  size min(m_n, m_m), via q(i*m + j) = f(i)*m + g(j);
* a registry of stored certificates (the bundled 4-cliques by default).

``lower_bound`` maximizes over these by dynamic programming on the divisor
lattice of k and records a replayable provenance tree; ``materialize_bound``
replays that tree back into an explicit certificate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np

from .certificate import (
    CertificateError,
    CliqueCertificate,
    builtin_certificates,
    certify,
    read_certificate,
)
from .core import validate_modulus

# Largest table (rows x modulus) a construction will build: 8 MiB of int64
# cells, whose O(m^2 k) verification still takes only seconds.  It admits
# every prime modulus up to 1021 and bounds k, hence every value, by 2^20,
# far from int64 overflow in composition and verification.
MAX_TABLE_CELLS = 1 << 20
# Most values a first-found search may shuffle into value orders, one k-value
# order per free cell per restart, whatever the node budget: about 2.5 s of
# random draws on one core.  Every search the table cap admits may take 4
# restarts.
MAX_ORDER_DRAWS = 1 << 22


# factorize trial-divides by the primes below _TRIAL_LIMIT; what is left
# (the cofactor) is split by Miller-Rabin and Pollard rho only below
# MAX_COFACTOR.  There the Miller-Rabin bases are exact, and rho finds the
# smallest prime factor, at most 2^32, in about 2^16 steps.
_TRIAL_LIMIT = 1000
_SMALL_PRIMES = [
    p for p in range(2, _TRIAL_LIMIT) if all(p % q for q in range(2, math.isqrt(p) + 1))
]
MAX_COFACTOR = 1 << 64
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime_cofactor(n: int) -> bool:
    """Miller-Rabin for odd n > 37 with the first twelve prime bases; exact
    for n < 3 * 10^23, hence for every n < MAX_COFACTOR."""
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho_divisor(n: int) -> int:
    """A nontrivial divisor of the odd composite n: Pollard rho with Brent's
    cycle detection, taking gcds over batches of 64 steps."""
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            done = 0
            while done < r and g == 1:
                ys = y
                for _ in range(min(64, r - done)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                done += 64
            r *= 2
        if g == n:
            # the batch overshot: replay it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def factorize(k: int) -> tuple[tuple[int, int], ...]:
    """The prime factorization of k as (prime, exponent) pairs, primes
    increasing.  Raises ValueError when the part of k without prime factors
    below 1000 is not below MAX_COFACTOR."""
    validate_modulus(k)
    factors: dict[int, int] = {}
    n = k
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    if n >= MAX_COFACTOR:
        raise ValueError(
            f"cannot factor modulus {k}: its part without prime factors below "
            f"{_TRIAL_LIMIT} is not below 2^64"
        )
    pending = [n] if n > 1 else []
    while pending:
        n = pending.pop()
        # every prime p < _TRIAL_LIMIT with p * p <= n is divided out, so an
        # n below _TRIAL_LIMIT**2 is prime
        if n < _TRIAL_LIMIT**2 or _is_prime_cofactor(n):
            factors[n] = factors.get(n, 0) + 1
        else:
            d = _rho_divisor(n)
            pending += [d, n // d]
    return tuple(sorted(factors.items()))


def smallest_prime_factor(k: int) -> int:
    """Least prime dividing k."""
    return factorize(k)[0][0]


def is_prime(k: int) -> bool:
    return k >= 2 and factorize(k) == ((k, 1),)


def check_table_size(m: int, k: int):
    """Refuse, before allocating, an m x k table over MAX_TABLE_CELLS."""
    if m * k > MAX_TABLE_CELLS:
        raise ValueError(
            f"a {m} x {k} table has {m * k} cells, over the cap of "
            f"{MAX_TABLE_CELLS}"
        )


def prime_construction(k: int) -> CliqueCertificate:
    """The clique {j -> i*j mod k : 0 <= i < spf(k)}.

    Any two rows differ by j -> (i - i')*j with 0 < |i - i'| < spf(k), which
    is coprime to k and hence a bijection, so the certificate verifies.
    """
    validate_modulus(k)
    p = smallest_prime_factor(k)
    check_table_size(p, k)
    return CliqueCertificate(k, np.outer(np.arange(p), np.arange(k)) % k)


def compose(left: CliqueCertificate, right: CliqueCertificate) -> CliqueCertificate:
    """Combine a clique over n and a clique over m into one over n*m.

    Row t sends the unique decomposition i*m + j (0 <= i < n, 0 <= j < m) to
    left[t](i)*m + right[t](j); the output keeps min(row counts) rows and is
    re-verified on construction.
    """
    n, m = left.k, right.k
    s = min(left.row_count, right.row_count)
    check_table_size(s, n * m)
    f, g = left.table[:s], right.table[:s]
    table = f[:, :, None] * m + g[:, None, :]  # [t, i, j] = f[t][i]*m + g[t][j]
    return CliqueCertificate(n * m, table.reshape(s, n * m))


class CertificateRegistry:
    """Verified certificates keyed by exact modulus.

    Lookup happens only at the query modulus itself; products of registry
    entries are reached through the divisor DP, never by implicit lookup.
    When two certificates share a modulus the one with more rows wins.
    """

    def __init__(self, certs=()):
        self._by_k: dict[int, CliqueCertificate] = {}
        for c in certs:
            self.add(c)

    def add(self, cert: CliqueCertificate):
        if not isinstance(cert, CliqueCertificate):
            raise TypeError("registry only accepts verified CliqueCertificate values")
        cur = self._by_k.get(cert.k)
        if cur is None or cert.row_count > cur.row_count:
            self._by_k[cert.k] = cert

    def get(self, k: int) -> CliqueCertificate | None:
        return self._by_k.get(k)

    def moduli(self) -> tuple[int, ...]:
        return tuple(sorted(self._by_k))

    def __len__(self) -> int:
        return len(self._by_k)

    @classmethod
    def builtin(cls) -> "CertificateRegistry":
        return cls(builtin_certificates())

    @classmethod
    def from_directory(cls, path: str | Path) -> "CertificateRegistry":
        """Load every *.cert file in a directory; all must verify."""
        reg = cls()
        files = sorted(Path(path).glob("*.cert"))
        if not files:
            raise FileNotFoundError(f"no *.cert files in {path}")
        for f in files:
            unchecked = read_certificate(f)  # its errors name the file
            try:
                reg.add(certify(unchecked))
            except CertificateError as exc:
                raise CertificateError(f"{f}: {exc}") from exc
        return reg


@dataclass(frozen=True)
class PrimeConstruction:
    p: int


@dataclass(frozen=True)
class StoredCertificate:
    k: int
    m: int


@dataclass(frozen=True)
class Product:
    n: int
    m: int
    left: "BoundReport"
    right: "BoundReport"


Provenance = Union[PrimeConstruction, StoredCertificate, Product]


@dataclass(frozen=True)
class BoundReport:
    """A lower bound on the clique number of G_k with a replayable derivation.

    ``exact`` is set only where the bound is known to be the clique number:
    even k (the graph is triangle-free, bound 2) and prime k (bound k).
    """

    k: int
    lower_bound: int
    provenance: Provenance
    exact: bool


def lower_bound(k: int, registry: CertificateRegistry | None = None) -> BoundReport:
    """Best lower bound on the clique number of G_k from the three sources.

    Dynamic programming over the divisors of k, smallest first: at each
    divisor take the max of spf, a stored certificate at exactly that
    modulus, and min over all factorizations n*m of the factor bounds.  Ties
    go to the derivation with fewer Product nodes, then to the leaf kind
    (prime construction before stored certificate), then to the
    lexicographically smallest presented (n, m); a Product is presented
    binding-side first (the factor whose bound equals the min comes first,
    matching the composition order used on replay).
    """
    factors = factorize(k)
    if registry is None:
        registry = CertificateRegistry.builtin()
    primes = [p for p, _ in factors]
    # every factor of a divisor of k divides k, so k's divisors hold them all
    divisors = [1]
    for p, e in factors:
        divisors = [d * p**i for d in divisors for i in range(e + 1)]
    divisors.sort()
    # divisor -> (key, report) of its best derivation, where the key
    # (-bound, Product nodes, kind, presented n, presented m) is smallest for
    # the winner; kind is 0 for a prime construction, 1 for a stored
    # certificate, 2 for a product
    memo: dict[int, tuple[tuple, BoundReport]] = {}
    for n in divisors[1:]:
        p = next(q for q in primes if n % q == 0)
        best = (-p, 0, 0, 0, 0)
        stored = registry.get(n)
        if stored is not None:
            best = min(best, (-stored.row_count, 0, 1, 0, 0))
        for d in divisors[1:]:
            e = n // d
            if d > e:
                break
            if n % d:
                continue
            ka, kb = memo[d][0], memo[e][0]
            # binding side (smaller bound) first; tie -> smaller modulus
            if kb[0] > ka[0]:
                key = (kb[0], 1 + ka[1] + kb[1], 2, e, d)
            else:
                key = (ka[0], 1 + ka[1] + kb[1], 2, d, e)
            if key < best:
                best = key
        neg_bound, _, kind, a, b = best
        if kind == 0:
            prov = PrimeConstruction(p)
        elif kind == 1:
            prov = StoredCertificate(n, -neg_bound)
        else:
            prov = Product(a, b, memo[a][1], memo[b][1])
        memo[n] = (best, BoundReport(n, -neg_bound, prov, p == 2 or p == n))
    return memo[k][1]


def provenance_label(report: BoundReport) -> str:
    """One-line name of the top step of a bound's derivation."""
    prov = report.provenance
    if isinstance(prov, PrimeConstruction):
        return f"prime construction (p={prov.p})"
    if isinstance(prov, StoredCertificate):
        return f"stored certificate ({prov.m} rows)"
    return f"product {prov.n} x {prov.m}"


def provenance_lines(report: BoundReport, indent: int = 0) -> list[str]:
    """Plain-text rendering of a bound's derivation tree, one node per line."""
    prov = report.provenance
    tag = " (exact)" if report.exact else ""
    lines = [
        f"{'  ' * indent}G_{report.k}: clique number >= "
        f"{report.lower_bound}{tag} via {provenance_label(report)}"
    ]
    if isinstance(prov, Product):
        lines.extend(provenance_lines(prov.left, indent + 1))
        lines.extend(provenance_lines(prov.right, indent + 1))
    return lines


def provenance_json(report: BoundReport) -> dict:
    """JSON-ready form of a bound and its derivation tree."""
    prov = report.provenance
    if isinstance(prov, PrimeConstruction):
        node = {"kind": "prime", "p": prov.p}
    elif isinstance(prov, StoredCertificate):
        node = {"kind": "stored", "k": prov.k, "m": prov.m}
    else:
        node = {
            "kind": "product",
            "n": prov.n,
            "m": prov.m,
            "left": provenance_json(prov.left),
            "right": provenance_json(prov.right),
        }
    return {
        "k": report.k,
        "lower_bound": report.lower_bound,
        "exact": report.exact,
        "provenance": node,
    }


def materialize_bound(
    report: BoundReport, registry: CertificateRegistry | None = None
) -> CliqueCertificate:
    """Replay a bound's provenance into an explicit verified certificate of
    exactly ``report.lower_bound`` rows over ``report.k``."""
    if registry is None:
        registry = CertificateRegistry.builtin()
    prov = report.provenance
    if isinstance(prov, PrimeConstruction):
        cert = prime_construction(report.k)
    elif isinstance(prov, StoredCertificate):
        stored = registry.get(prov.k)
        if stored is None or stored.row_count != prov.m:
            raise CertificateError(
                f"registry no longer holds a {prov.m}-row certificate at k={prov.k}"
            )
        cert = stored
    else:
        cert = compose(
            materialize_bound(prov.left, registry),
            materialize_bound(prov.right, registry),
        )
    if cert.k != report.k or cert.row_count != report.lower_bound:
        raise CertificateError(
            f"replayed certificate is {cert.row_count} rows over {cert.k}, "
            f"report claims {report.lower_bound} over {report.k}"
        )
    return cert
