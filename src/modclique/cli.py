"""Command-line interface: verify, gen, compose, search, bound, census.

Batch tool, no interactivity.  Data goes to stdout or --out files,
diagnostics to stderr.  Exit codes are stable:

  0  success: certificate verified / witness found / report produced
  1  negative verdict: verification failed, exhaustive search proved
     nonexistence, or an oracle self-check failed
  2  usage or input error (bad flags, malformed files, out-of-cap k)
  3  search hit its node budget without reaching a verdict
  141  stdout's reader closed the pipe (the code a shell reports for SIGPIPE)

Every subcommand accepts --json for machine-readable output with the field
names documented in the README.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path

from . import oracle
from .certificate import CertificateError, certify, read_certificate, serialize, verify
from .certificate import parse  # noqa: F401  (uncalled; perfbench/spans.py rebinds cli.parse)
from .constructions import (
    CertificateRegistry,
    compose,
    lower_bound,
    materialize_bound,
    prime_construction,
    provenance_json,
    provenance_label,
    provenance_lines,
)
from .search import OutcomeKind, SearchConfig, SearchMode, search

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_LIMIT = 3
EXIT_BROKEN_PIPE = 141
# Largest K of `bound --upto K`, which builds every report before printing:
# 32,768 reports take about 2.2 s and 42 MB on one core.
MAX_UPTO = 1 << 15


def _emit(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _cert_json(cert) -> dict:
    return {"k": cert.k, "rows": cert.table.tolist()}


# ---------------------------------------------------------------------------
# verify


def _cmd_verify(args) -> int:
    report = verify(read_certificate(args.path))
    if args.json:
        payload = {
            "k": report.k,
            "rows": report.row_count,
            "ok": report.ok,
            "violations": [vars(v) for v in report.violations],
        }
        print(json.dumps(payload))
    else:
        print(report.summary())
        for v in report.violations:
            print(
                f"  rows ({v.row_s},{v.row_t}): difference repeats value "
                f"{v.value} at points {v.point_a} and {v.point_b}"
            )
    return EXIT_OK if report.ok else EXIT_NEGATIVE


# ---------------------------------------------------------------------------
# gen


def _cmd_gen(args) -> int:
    cert = prime_construction(args.k)
    _emit(serialize(cert), args.out)
    print(
        f"wrote {cert.row_count}-clique in G_{cert.k} (prime construction)",
        file=sys.stderr,
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# compose


def _cmd_compose(args) -> int:
    certs = []
    for path in (args.left, args.right):
        try:
            certs.append(certify(read_certificate(path)))
        except CertificateError as exc:
            print(f"{path}: {exc.report.summary()}", file=sys.stderr)
            return EXIT_NEGATIVE
    combined = compose(certs[0], certs[1])
    _emit(serialize(combined), args.out)
    print(
        f"wrote {combined.row_count}-clique in G_{combined.k} "
        f"(= G_{certs[0].k} x G_{certs[1].k})",
        file=sys.stderr,
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# search


def _load_seed_rows(path: str, k: int):
    unchecked = read_certificate(path)
    if unchecked.k != k:
        raise ValueError(f"seed file {path} has modulus {unchecked.k}, expected {k}")
    rows = unchecked.table.tolist()
    if rows and rows[0] == [0] * k:
        rows = rows[1:]
    if rows and rows[0] == list(range(k)):
        rows = rows[1:]
    if not rows:
        raise ValueError(f"seed file {path} contains no rows beyond zero/identity")
    return rows


def _cmd_search(args) -> int:
    mode = SearchMode.FIRST_FOUND if args.first_found else SearchMode.EXHAUSTIVE
    seeds = None if args.seed is None else _load_seed_rows(args.seed, args.k)
    config = SearchConfig(
        k=args.k,
        target_size=args.size,
        mode=mode,
        node_limit=args.node_limit,
        restarts=args.restarts,
        rng_seed=args.rand_seed,
        seed_rows=seeds,
        progress_interval=args.progress,
        workers=args.workers,
    )
    outcome = search(config)
    stats = outcome.stats
    if args.json:
        payload = {
            "outcome": outcome.kind.value,
            "k": args.k,
            "size": args.size,
            "mode": mode.value,
            "nodes": stats.nodes,
            "max_depth": stats.max_depth,
            "wall_time": stats.wall_time,
            "restarts_used": stats.restarts_used,
            "certificate": _cert_json(outcome.certificate) if outcome.found else None,
        }
        print(json.dumps(payload))
    if outcome.found:
        if args.out is not None:
            Path(args.out).write_text(serialize(outcome.certificate))
        if not args.json:
            print(
                f"FOUND: {outcome.certificate.row_count}-clique in G_{args.k} "
                f"(nodes={stats.nodes}, {stats.wall_time:.2f}s)"
            )
            for row in outcome.certificate.table.tolist():
                print("  " + " ".join(map(str, row)))
        return EXIT_OK
    if outcome.kind is OutcomeKind.EXHAUSTED_NONE:
        if not args.json:
            print(
                f"NONE: no {args.size}-clique exists in G_{args.k} "
                f"(exhaustive, nodes={stats.nodes}, {stats.wall_time:.2f}s)"
            )
        return EXIT_NEGATIVE
    if outcome.kind is OutcomeKind.EXHAUSTED_NONE_UNDER_SEED:
        if not args.json:
            print(
                f"NONE UNDER SEED: no completion of the seeded rows to a "
                f"{args.size}-clique in G_{args.k} (nodes={stats.nodes}); "
                f"nonexistence is NOT claimed for the whole graph"
            )
        return EXIT_NEGATIVE
    if not args.json:
        print(
            f"LIMIT: no verdict for G_{args.k} size {args.size} within the "
            f"node budget (nodes={stats.nodes}, restarts={stats.restarts_used})"
        )
    return EXIT_LIMIT


# ---------------------------------------------------------------------------
# bound


def _cmd_bound(args) -> int:
    if (args.k is None) == (args.upto is None):
        raise ValueError("give exactly one of K or --upto K")
    registry = (
        CertificateRegistry.from_directory(args.registry)
        if args.registry
        else CertificateRegistry.builtin()
    )
    if args.upto is not None:
        if args.materialize:
            raise ValueError("--materialize needs a single K")
        if args.upto < 2:
            raise ValueError("--upto must be at least 2")
        if args.upto > MAX_UPTO:
            raise ValueError(f"--upto must be at most {MAX_UPTO}, got {args.upto}")
        reports = [lower_bound(k, registry) for k in range(2, args.upto + 1)]
        if args.json:
            print(json.dumps({"reports": [provenance_json(r) for r in reports]}))
        else:
            print(f"{'k':>5}  {'bound':>5}  {'exact':>5}  derivation")
            for r in reports:
                print(
                    f"{r.k:>5}  {r.lower_bound:>5}  "
                    f"{'yes' if r.exact else 'no':>5}  {provenance_label(r)}"
                )
        return EXIT_OK
    report = lower_bound(args.k, registry)
    witness = materialize_bound(report, registry) if args.materialize else None
    if args.json:
        print(json.dumps(provenance_json(report)))
    else:
        print("\n".join(provenance_lines(report)))
    if witness is not None:
        Path(args.materialize).write_text(serialize(witness))
        print(
            f"wrote {witness.row_count}-row witness over G_{witness.k} "
            f"to {args.materialize}",
            file=sys.stderr,
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# census


def _cmd_census(args) -> int:
    oracle.check_cap(args.k)  # before k**k, which alone is slow for huge k
    want_all = not (args.omega or args.triangles or args.degree)
    payload: dict = {"k": args.k, "vertex_count": args.k**args.k}
    try:
        if args.degree or want_all:
            ok = oracle.degree_check(args.k)
            payload["degree"] = math.factorial(args.k)
            payload["degree_uniform"] = ok
            if not ok:
                print(f"oracle mismatch: degree check failed at k={args.k}")
                return EXIT_NEGATIVE
        if args.triangles or want_all:
            payload["triangle_count"] = oracle.triangle_count(args.k)
        if args.omega or want_all:
            payload["omega"] = oracle.brute_force_omega(args.k)
    except AssertionError as exc:
        print(f"oracle mismatch: {exc}")
        return EXIT_NEGATIVE
    if args.json:
        print(json.dumps(payload))
    else:
        parts = [f"G_{args.k}: vertices={payload['vertex_count']}"]
        if "degree" in payload:
            parts.append(f"degree={payload['degree']}")
        if "triangle_count" in payload:
            parts.append(f"triangles={payload['triangle_count']}")
        if "omega" in payload:
            parts.append(f"omega={payload['omega']}")
        print(" ".join(parts))
    return EXIT_OK


# ---------------------------------------------------------------------------


@functools.cache  # built once per process, on the first call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modclique",
        description=(
            "Cliques of Z_k -> Z_k functions whose pairwise differences are "
            "bijections: verify certificates, generate and compose cliques, "
            "search exhaustively, compute lower bounds, and cross-check "
            "against a brute-force oracle."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="verify a certificate file")
    p.add_argument("path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gen", help="generate a construction certificate")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-o", "--out", default=None, help="output file (default stdout)")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("compose", help="compose two certificates over n and m into one over n*m")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("-o", "--out", default=None, help="output file (default stdout)")
    p.set_defaults(func=_cmd_compose)

    p = sub.add_parser("search", help="backtracking search for a size-s clique")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-s", "--size", type=int, required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--exhaustive", action="store_true", default=True)
    mode.add_argument("--first-found", action="store_true")
    p.add_argument("--node-limit", type=int, default=None)
    p.add_argument("--restarts", type=int, default=1)
    p.add_argument("--rand-seed", type=int, default=0)
    p.add_argument("--seed", default=None, metavar="PATH",
                   help="certificate file whose non-trivial rows are fixed as rows 2..")
    p.add_argument("--workers", type=int, default=1, metavar="W",
                   help="fork up to W worker processes (clamped to the usable CPUs); "
                        "every output matches W = 1")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="write the found witness here")
    p.add_argument("--progress", type=float, default=None, metavar="SECONDS",
                   help="stream progress lines to stderr at this interval")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("bound", help="lower bound on the clique number, with provenance")
    p.add_argument("k", type=int, nargs="?", default=None)
    p.add_argument("--upto", type=int, default=None, metavar="K",
                   help="print a table for every modulus 2..K")
    p.add_argument("--registry", default=None, metavar="DIR",
                   help="directory of *.cert files (default: bundled certificates)")
    p.add_argument("--materialize", default=None, metavar="PATH",
                   help="write an explicit witness certificate for the bound")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("census", help="brute-force census for small k (k <= 5)")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--omega", action="store_true")
    p.add_argument("--triangles", action="store_true")
    p.add_argument("--degree", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_census)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # the reader went away, which is not an input error: entry handles it
        raise
    except (OSError, ValueError) as exc:
        # the one boundary for input errors: unreadable, undecodable or
        # malformed files, out-of-cap moduli, bad flag combinations and
        # unwritable --out/--materialize destinations
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry():
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout's reader closed the pipe (``modclique bound --upto N | head``):
        # exit as a process killed by SIGPIPE does, and point stdout at
        # devnull so the interpreter's last flush finds no broken pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    sys.exit(code)


if __name__ == "__main__":
    entry()
