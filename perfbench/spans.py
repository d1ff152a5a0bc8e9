"""Traced runs: spans around each layer's public entry points, from outside.

``Tracer.installed(cli)`` rebinds the names the program calls through to
timing wrappers and restores them on exit; nothing in modclique changes.
Each span records its name, start, end, parent span and job id, plus a few
counts read from arguments and results.  ``ModFunction.__post_init__`` runs
once per row, so it is a counter with accumulated time instead of a span;
its time is charged to the innermost open span so that self times add up.
"""

from __future__ import annotations

import contextlib
import json
import resource
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

LAYER = {
    "cli.main": "cli",
    "search": "search",
    "lower_bound": "constructions",
    "materialize_bound": "constructions",
    "compose": "constructions",
    "prime_construction": "constructions",
    "parse": "certificate",
    "verify": "certificate",
    "certify": "certificate",
    "serialize": "certificate",
    "CliqueCertificate": "certificate",
}
CHECK_SPANS = ("verify", "CliqueCertificate")

# names rebound in modclique.cli and modclique.constructions
CLI_NAMES = ("search", "lower_bound", "materialize_bound", "compose", "prime_construction",
             "parse", "verify", "certify", "serialize")
CONSTRUCTIONS_NAMES = ("prime_construction", "compose")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    job: int | None = None
    core_s: float = 0.0
    info: dict = field(default_factory=dict)


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.core_rows = 0
        self.core_cells = 0
        self.core_s = 0.0
        self.job: int | None = None
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        with self._lock:
            sp = Span(len(self.spans), name, 0.0,
                      parent=stack[-1].id if stack else None, job=self.job)
            self.spans.append(sp)
        stack.append(sp)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            stack.pop()

    def wrap(self, name: str, fn, note=None):
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                if name == "search":
                    cpu0 = time.process_time() + _children_cpu()
                result = fn(*args, **kwargs)
                if name == "search":
                    sp.info["cpu_s"] = time.process_time() + _children_cpu() - cpu0
                if note is not None:
                    note(sp.info, args, result)
                return result

        return traced

    def _row_hook(self, original):
        tracer = self

        def __post_init__(row):
            t0 = time.perf_counter()
            original(row)
            dt = time.perf_counter() - t0
            stack = tracer._stack()
            with tracer._lock:
                tracer.core_rows += 1
                tracer.core_cells += row.k
                tracer.core_s += dt
            if stack:
                stack[-1].core_s += dt

        return __post_init__

    def _clique_hook(self, original):
        tracer = self

        def __post_init__(cert):
            with tracer.span("CliqueCertificate") as sp:
                original(cert)
                m = len(cert.rows)
                sp.info["pair_cells"] = m * (m - 1) // 2 * cert.k

        return __post_init__

    @contextlib.contextmanager
    def installed(self, cli):
        """Rebind the traced names for the duration of the block."""
        import modclique.certificate as certificate
        import modclique.constructions as constructions
        import modclique.core as core

        saved = []

        def rebind(owner, name, value):
            saved.append((owner, name, getattr(owner, name)))
            setattr(owner, name, value)

        for name in CLI_NAMES:
            rebind(cli, name, self.wrap(name, getattr(cli, name), _NOTES.get(name)))
        for name in CONSTRUCTIONS_NAMES:
            rebind(constructions, name,
                   self.wrap(name, getattr(constructions, name), _NOTES.get(name)))
        rebind(certificate.CliqueCertificate, "__post_init__",
               self._clique_hook(certificate.CliqueCertificate.__post_init__))
        rebind(core.ModFunction, "__post_init__",
               self._row_hook(core.ModFunction.__post_init__))
        try:
            yield self
        finally:
            for owner, name, value in reversed(saved):
                setattr(owner, name, value)

    def dump(self, path: Path):
        path.write_text(json.dumps({
            "spans": [vars(s) for s in self.spans],
            "core": {"rows": self.core_rows, "cells": self.core_cells, "s": self.core_s},
        }))


# -- counts read from arguments and results -----------------------------------


def _note_search(info, args, outcome):
    config = args[0]
    info["nodes"] = outcome.stats.nodes
    info["first_found"] = config.mode.value == "first-found"
    info["restarts_used"] = outcome.stats.restarts_used
    info["found"] = outcome.found


def _note_cells(info, args, cert):
    info["cells"] = cert.row_count * cert.k


def _note_verify(info, args, report):
    cert = args[0]
    checked = type(cert).__name__ != "CliqueCertificate"
    m = report.row_count
    info["pair_cells"] = m * (m - 1) // 2 * report.k if checked else 0
    info["violations"] = len(report.violations)


def _note_serialize(info, args, text):
    info["bytes"] = len(text.encode())


_NOTES = {
    "search": _note_search,
    "parse": _note_cells,
    "materialize_bound": _note_cells,
    "compose": _note_cells,
    "prime_construction": _note_cells,
    "verify": _note_verify,
    "serialize": _note_serialize,
}


# -- analysis -------------------------------------------------------------------


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part its child spans cover and minus the
    row-validation time charged to it directly."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: max(0.0, (s.end - s.start) - _covered(children.get(s.id, []), s.start, s.end) - s.core_s)
        for s in spans
    }


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers from one traced pass (see README.md for definitions)."""
    spans = tracer.spans
    by_id = {s.id: s for s in spans}
    own = self_times(spans)

    def dur(s):
        return s.end - s.start

    def outermost(names):
        """Spans named in ``names`` with no ancestor also named in ``names``."""
        out = []
        for s in spans:
            if s.name not in names:
                continue
            p = by_id.get(s.parent) if s.parent is not None else None
            while p is not None and p.name not in names:
                p = by_id.get(p.parent) if p.parent is not None else None
            if p is None:
                out.append(s)
        return out

    def named(name):
        return [s for s in spans if s.name == name]

    layer_self = {layer: 0.0 for layer in set(LAYER.values())}
    for s in spans:
        layer_self[LAYER[s.name]] += own[s.id]

    jobs = named("cli.main")
    job_s = sum(dur(s) for s in jobs)
    searches = named("search")
    search_wall = sum(dur(s) for s in searches)
    nodes = sum(s.info.get("nodes", 0) for s in searches)
    firsts = [s for s in searches if s.info.get("first_found")]
    restarts = sum(s.info["restarts_used"] for s in firsts)
    found = sum(1 for s in firsts if s.info["found"])

    parses = named("parse")
    parse_s = sum(dur(s) for s in parses)
    checks = [s for s in spans if s.name in CHECK_SPANS]
    check_s = sum(dur(s) for s in checks)
    pair_cells = sum(s.info.get("pair_cells", 0) for s in checks)
    serial = named("serialize")

    cons_names = {n for n, layer in LAYER.items() if layer == "constructions"}
    cons_top = outermost(cons_names)
    cons_s = sum(dur(s) for s in cons_top)
    cells_out = sum(s.info.get("cells", 0) for s in cons_top)

    return {
        "cli.jobs": len(jobs),
        "cli.self_s": layer_self["cli"],
        "cli.self_share": _ratio(layer_self["cli"], job_s),
        "search.calls": len(searches),
        "search.self_s": layer_self["search"],
        "search.nodes": nodes,
        "search.nodes_per_s": _ratio(nodes, layer_self["search"]),
        "search.restarts_used": restarts,
        "search.failed_restarts": restarts - found,
        "search.witness_per_restart": _ratio(found, restarts),
        "search.cpu_per_wall": _ratio(sum(s.info.get("cpu_s", 0.0) for s in searches), search_wall),
        "certificate.self_s": layer_self["certificate"],
        "certificate.parse.calls": len(parses),
        "certificate.parse_s": parse_s,
        "certificate.parse_cells_per_s": _ratio(sum(s.info.get("cells", 0) for s in parses), parse_s),
        "certificate.check.calls": len(checks),
        "certificate.check_s": check_s,
        "certificate.pair_cells_per_s": _ratio(pair_cells, check_s),
        "certificate.serialize_s": sum(dur(s) for s in serial),
        "certificate.bytes_out": sum(s.info.get("bytes", 0) for s in serial),
        "certificate.violations": sum(s.info.get("violations", 0) for s in named("verify")),
        "core.rows_built": tracer.core_rows,
        "core.cells_validated": tracer.core_cells,
        "core.self_s": tracer.core_s,
        "constructions.self_s": layer_self["constructions"],
        "constructions.lower_bound.calls": len(named("lower_bound")),
        "constructions.lower_bound_s": sum(dur(s) for s in named("lower_bound")),
        "constructions.materialize_s": sum(dur(s) for s in named("materialize_bound")),
        "constructions.prime_construction_s": sum(dur(s) for s in outermost({"prime_construction"})),
        "constructions.compose_s": sum(dur(s) for s in outermost({"compose"})),
        "constructions.cells_out": cells_out,
        "constructions.cells_per_s": _ratio(cells_out, cons_s),
    }
