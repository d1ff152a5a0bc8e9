"""Cliques in the graph of Z_k -> Z_k functions with bijective differences.

Vertices are all k^k functions Z_k -> Z_k; two functions are adjacent when
their pointwise difference mod k is a bijection.  An m-clique is equivalent
to an m x k difference matrix over Z_k, and its size bounds the graph's
clique number from below.  The package provides:

* core        -- residue-vector functions (the vertex type), the edge predicate
* certificate -- clique certificates as one read-only m x k table:
                 verification, normalization, file format
* constructions -- prime-factor cliques, products, divisor-DP lower bounds
* search      -- symmetry-reduced exhaustive / randomized backtracking
* oracle      -- brute-force reference answers for k <= 5
* cli         -- the ``modclique`` command-line tool
"""

from .certificate import (
    CertificateError,
    CertificateFormatError,
    CliqueCertificate,
    PairViolation,
    UncheckedCertificate,
    VerificationReport,
    builtin_certificate,
    builtin_certificates,
    certify,
    is_normalized,
    normalize,
    parse,
    read_certificate,
    serialize,
    verify,
    write_certificate,
)
from .constructions import (
    BoundReport,
    CertificateRegistry,
    PrimeConstruction,
    Product,
    StoredCertificate,
    compose,
    lower_bound,
    materialize_bound,
    prime_construction,
    provenance_json,
    provenance_label,
    provenance_lines,
    smallest_prime_factor,
)
from .core import (
    ModFunction,
    difference,
    identity_function,
    is_bijection,
    is_edge,
    mod_function,
    zero_function,
)
from .oracle import (
    CensusReport,
    brute_force_omega,
    census,
    degree_check,
    triangle_count,
)
from .search import (
    OutcomeKind,
    SearchConfig,
    SearchMode,
    SearchOutcome,
    SearchStats,
    column_candidates,
    search,
)

__version__ = "0.1.0"
