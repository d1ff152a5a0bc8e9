"""Functions Z_k -> Z_k as residue vectors, and the bijective-difference edge test.

G_k is the graph whose vertices are all k^k functions f : Z_k -> Z_k, with
{f, g} an edge exactly when (f - g) mod k is a bijection of Z_k.
``ModFunction`` is the vertex type: the brute-force oracle, search seeds and
the edge predicate work on it.  The operations here are bijection testing,
pointwise difference and the edge predicate.  Certificates store their rows
as one integer table instead (see ``certificate``) and build ModFunction
rows only on request.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator


def validate_modulus(k: int) -> int:
    """Check a modulus is usable; k = 1 is rejected as degenerate."""
    if not isinstance(k, int) or isinstance(k, bool):
        raise ValueError(f"modulus must be an integer, got {k!r}")
    if k < 2:
        raise ValueError(f"modulus must be at least 2, got {k}")
    return k


@dataclass(frozen=True)
class ModFunction:
    """A function Z_k -> Z_k stored as its k values, each reduced into [0, k).

    Immutable and hashable, so instances can serve as dict keys.
    """

    k: int
    values: tuple[int, ...]

    def __post_init__(self):
        validate_modulus(self.k)
        values = tuple(self.values)
        object.__setattr__(self, "values", values)
        if len(values) != self.k:
            raise ValueError(
                f"expected {self.k} values for modulus {self.k}, got {len(values)}"
            )
        for j, v in enumerate(values):
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < self.k:
                raise ValueError(
                    f"value {v!r} at position {j} is not a residue in [0, {self.k})"
                )

    def __getitem__(self, j: int) -> int:
        return self.values[j]

    def __len__(self) -> int:
        return self.k

    def __iter__(self) -> Iterator[int]:
        return iter(self.values)

    def __str__(self) -> str:
        return " ".join(str(v) for v in self.values)


def mod_function(k: int, values: Iterable[int]) -> ModFunction:
    """Build a ModFunction, reducing arbitrary integers mod k."""
    validate_modulus(k)
    return ModFunction(k, tuple(int(v) % k for v in values))


def zero_function(k: int) -> ModFunction:
    return ModFunction(validate_modulus(k), (0,) * k)


def identity_function(k: int) -> ModFunction:
    return ModFunction(validate_modulus(k), tuple(range(k)))


def is_bijection(f: ModFunction) -> bool:
    """True iff f's values are a permutation of {0, ..., k-1}.

    Single O(k) sweep over a seen-marker table; no sorting.
    """
    seen = bytearray(f.k)
    for v in f.values:
        if seen[v]:
            return False
        seen[v] = 1
    return True


def _require_same_modulus(f: ModFunction, g: ModFunction):
    if f.k != g.k:
        raise ValueError(f"modulus mismatch: {f.k} != {g.k}")


def difference(f: ModFunction, g: ModFunction) -> ModFunction:
    """(f - g) mod k, pointwise."""
    _require_same_modulus(f, g)
    k = f.k
    return ModFunction(k, tuple((a - b) % k for a, b in zip(f.values, g.values)))


def is_edge(f: ModFunction, g: ModFunction) -> bool:
    """True iff {f, g} is an edge of G_k, i.e. f - g is a bijection.

    Symmetric in its arguments: negating a bijection mod k is a bijection.
    """
    _require_same_modulus(f, g)
    k = f.k
    seen = bytearray(k)
    for a, b in zip(f.values, g.values):
        d = (a - b) % k
        if seen[d]:
            return False
        seen[d] = 1
    return True
