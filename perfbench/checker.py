"""Output checker: the benchmark's own judgement of every job's result.

It runs outside the timed region and never calls modclique's verifier.  A
table is a clique exactly when every row pair differs, column by column, by a
permutation of Z_k; that is checked pair by pair here, except for tables equal
to one the benchmark built itself from a construction that is a clique by
arithmetic (prime rows, products of cliques), where equality is the proof.

Node counts and bounds above the pinned table are fingerprints: a change is
flagged, never counted as a failure.  A bound below the pinned one is a
failure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import workloads


class CheckError(ValueError):
    """An output that is wrong; the message says how."""


@dataclass
class Outcome:
    ok: bool
    reason: str | None = None
    flags: list[str] = field(default_factory=list)


def read_table(text: str) -> np.ndarray:
    """Parse the certificate format: '#' comments, a "k m" header, m rows of k residues."""
    lines = [l for l in text.splitlines() if l.strip() and not l.lstrip().startswith("#")]
    if not lines:
        raise CheckError("empty certificate")
    head = lines[0].split()
    if len(head) != 2:
        raise CheckError(f"bad header {lines[0]!r}")
    k, m = int(head[0]), int(head[1])
    if len(lines) - 1 != m:
        raise CheckError(f"header says {m} rows, found {len(lines) - 1}")
    # row by row, so that no more than one row is ever held as Python strings:
    # the checker shares the process whose peak memory the run reports
    rows = [np.array(l.split(), dtype=np.int64) for l in lines[1:]]
    if any(len(r) != k for r in rows):
        raise CheckError(f"a row does not have {k} values")
    table = np.array(rows, dtype=np.int64).reshape(m, k)
    if table.size and (table.min() < 0 or table.max() >= k):
        raise CheckError(f"a value is outside [0, {k})")
    return table


def violating_pairs(table: np.ndarray) -> list[tuple[int, int]]:
    """Every row pair (s, t), s < t, whose difference is not a permutation of Z_k."""
    m, k = table.shape
    ident = np.arange(k)
    bad = []
    for s in range(m - 1):
        diffs = np.sort((table[s + 1:] - table[s]) % k, axis=1)
        for i in np.nonzero(~(diffs == ident).all(axis=1))[0]:
            bad.append((s, s + 1 + int(i)))
    return bad


def require_clique(table: np.ndarray, k: int, rows: int, known: np.ndarray | None = None):
    """Raise unless ``table`` is a ``rows`` x ``k`` difference matrix.

    ``known`` is a table proven a clique by construction; equality with it
    stands in for the pairwise check.
    """
    if table.shape != (rows, k):
        raise CheckError(f"expected a {rows} x {k} table, got {table.shape[0]} x {table.shape[1]}")
    if known is not None and known.shape == table.shape and np.array_equal(known, table):
        return
    bad = violating_pairs(table)
    if bad:
        raise CheckError(f"rows {bad[0]} are not adjacent ({len(bad)} bad pair(s))")


def require_bundled():
    """The embedded 4-cliques must be cliques, or every product built on them is suspect."""
    for n in workloads.BUNDLED:
        require_clique(workloads.bundled_table(n), n, 4)


def _load_json(stdout: str) -> dict:
    try:
        return json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise CheckError(f"stdout is not JSON: {exc}") from exc


def _require(cond: bool, message: str):
    if not cond:
        raise CheckError(message)


def _check_verdict(job, res, out_path, flags):
    e = job.expect
    _require(res.code == 1, f"exit {res.code}, expected 1")
    reply = _load_json(res.stdout)
    _require(reply.get("outcome") == "exhausted-none", f"outcome {reply.get('outcome')!r}")
    _require((reply.get("k"), reply.get("size")) == (e["k"], e["size"]), "k/size echo mismatch")
    if reply.get("nodes") != e["nodes"]:
        flags.append(f"nodes k={e['k']} s={e['size']}: {reply.get('nodes')} (pinned {e['nodes']})")


def _check_witness(job, res, out_path, flags):
    e = job.expect
    _require(res.code == 0, f"exit {res.code}, expected 0")
    reply = _load_json(res.stdout)
    _require(reply.get("outcome") == "found", f"outcome {reply.get('outcome')!r}")
    cert = reply.get("certificate") or {}
    _require(cert.get("k") == e["k"], "witness has the wrong modulus")
    require_clique(np.array(cert.get("rows") or [[]], dtype=np.int64), e["k"], e["size"])
    if (reply.get("nodes"), reply.get("restarts_used")) != (e["nodes"], e["restarts"]):
        flags.append(
            f"witness R={e['rand_seed']}: nodes={reply.get('nodes')} restarts="
            f"{reply.get('restarts_used')} (pinned {e['nodes']}, {e['restarts']})"
        )


def _check_bound_value(k, got, pinned, flags, witnessed):
    _require(isinstance(got, int), f"bound for k={k} is not an integer")
    _require(got >= pinned, f"bound for k={k} fell to {got} (pinned {pinned})")
    if got > pinned:
        how = "with a verified witness" if witnessed else "no witness in this job"
        flags.append(f"bound k={k}: {got} > pinned {pinned} ({how})")


def _check_upto(job, res, out_path, flags, pinned_bounds):
    _require(res.code == 0, f"exit {res.code}, expected 0")
    reports = _load_json(res.stdout).get("reports") or []
    n = job.expect["upto"]
    _require([r.get("k") for r in reports] == list(range(2, n + 1)), "report moduli are not 2..N")
    for r in reports:
        _check_bound_value(r["k"], r.get("lower_bound"), pinned_bounds[str(r["k"])], flags, False)


def _check_materialize(job, res, out_path, flags, pinned_bounds):
    e = job.expect
    path = out_path
    try:
        _require(res.code == 0, f"exit {res.code}, expected 0")
        reply = _load_json(res.stdout)
        _require(reply.get("k") == e["k"], "k echo mismatch")
        m = reply.get("lower_bound")
        _check_bound_value(e["k"], m, e["bound"], flags, True)
        _require(path.is_file(), "no witness file written")
        k = e["k"]
        known = workloads.prime_table(k, m) if m <= workloads.smallest_factor(k) else None
        require_clique(read_table(path.read_text()), k, m, known)
    finally:
        path.unlink(missing_ok=True)


def _check_verify(job, res, out_path, flags):
    e = job.expect
    reply = _load_json(res.stdout)
    _require((reply.get("k"), reply.get("rows")) == (e["k"], e["rows"]), "k/rows echo mismatch")
    bad = e["corrupted"]
    if bad is None:
        _require(res.code == 0, f"exit {res.code}, expected 0")
        _require(reply.get("ok") is True and not reply.get("violations"), "valid table rejected")
        return
    _require(res.code == 1, f"exit {res.code} on a corrupted table, expected 1")
    _require(reply.get("ok") is False, "corrupted table accepted")
    table = job.inputs[e["file"]]()
    require_violations(table, reply.get("violations") or [], bad["row"])


def require_violations(table: np.ndarray, violations: list[dict], bad_row: int):
    """Every reported violation must be real, and one bad cell in row r must
    yield exactly the pairs that contain r."""
    m, k = table.shape
    expected = {(min(bad_row, s), max(bad_row, s)) for s in range(m) if s != bad_row}
    seen = set()
    for v in violations:
        s, t, a, b, value = (v.get(x) for x in ("row_s", "row_t", "point_a", "point_b", "value"))
        _require(all(isinstance(x, int) for x in (s, t, a, b, value)), f"malformed violation {v}")
        _require(0 <= s < t < m and 0 <= a < k and 0 <= b < k and a != b,
                 f"violation indices out of range: {v}")
        da = (table[t, a] - table[s, a]) % k
        db = (table[t, b] - table[s, b]) % k
        _require(da == value == db, f"false violation {v}: differences are {da} and {db}")
        seen.add((s, t))
    _require(len(seen) == len(violations), "a row pair is reported twice")
    _require(seen == expected, f"violating pairs {sorted(seen - expected) or sorted(expected - seen)} "
                               "differ from the pairs through the corrupted row")


def _check_compose(job, res, out_path, flags):
    e = job.expect
    path = out_path
    try:
        _require(res.code == 0, f"exit {res.code}, expected 0")
        _require(path.is_file(), "no composed file written")
        known = workloads.product_table(
            workloads.bundled_table(e["left"]), workloads.prime_table(e["right"])
        )
        require_clique(read_table(path.read_text()), e["k"], e["rows"], known)
    finally:
        path.unlink(missing_ok=True)


def check(job, res, out: Path, pinned: dict) -> Outcome:
    """Judge one job's result, ``out`` being the file its ``{out}`` named;
    never raises for a wrong output."""
    flags: list[str] = []
    try:
        if job.kind == "verdict":
            _check_verdict(job, res, out, flags)
        elif job.kind == "witness":
            _check_witness(job, res, out, flags)
        elif job.kind == "upto":
            _check_upto(job, res, out, flags, pinned["bounds"])
        elif job.kind == "materialize":
            _check_materialize(job, res, out, flags, pinned["bounds"])
        elif job.kind == "verify":
            _check_verify(job, res, out, flags)
        elif job.kind == "compose":
            _check_compose(job, res, out, flags)
        else:
            raise CheckError(f"unknown job kind {job.kind!r}")
    except (CheckError, AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        return Outcome(False, f"{' '.join(res.argv)}: {exc}", flags)
    return Outcome(True, None, flags)
