"""In-memory spans around gracetree's public functions.

A traced pass replaces each function at the module attribute its caller
looks it up through (``gracetree.sweep.find_graceful`` is what
``evaluate_sequence`` calls, ``gracetree.search.find_graceful`` is what
``is_zero_rotatable`` calls) with a wrapper that records one span per
call: id, parent id, item index, name, start and end.  A span's self
time is its duration minus the time its direct child spans cover.
Spans are named after the module that defines the function, so both
lookup sites of ``find_graceful`` add up under ``search.find_graceful``.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from collections import Counter

# (module the caller looks the name up in, attribute, span name)
WRAP_SITES = (
    ("sweep", "evaluate_sequence", "sweep.evaluate_sequence"),
    ("sweep", "build", "model.build"),
    ("sweep", "to_general", "model.to_general"),
    ("sweep", "vertex_orbits", "model.vertex_orbits"),
    ("sweep", "zero_at", "construct.zero_at"),
    ("sweep", "find_graceful", "search.find_graceful"),
    ("search", "is_zero_rotatable", "search.is_zero_rotatable"),
    ("search", "find_graceful", "search.find_graceful"),
    ("search", "vertex_orbits", "model.vertex_orbits"),
    ("search", "to_general", "model.to_general"),
    ("search", "automorphism_mapping", "model.automorphism_mapping"),
    ("search", "is_graceful", "labelling.is_graceful"),
    ("search", "complement", "labelling.complement"),
    ("search", "relabel_vertices", "labelling.relabel_vertices"),
    ("construct", "zero_at", "construct.zero_at"),
    ("construct", "theorem1_label", "construct.theorem1_label"),
    ("construct", "compose_theorem2", "construct.compose_theorem2"),
    ("construct", "decompose", "model.decompose"),
    ("construct", "to_general", "model.to_general"),
    ("construct", "automorphism_mapping", "model.automorphism_mapping"),
    ("construct", "is_graceful", "labelling.is_graceful"),
    ("construct", "complement", "labelling.complement"),
    ("construct", "relabel_vertices", "labelling.relabel_vertices"),
    ("model", "build", "model.build"),
    ("model", "to_general", "model.to_general"),
    ("model", "classify", "model.classify"),
    ("labelling", "is_graceful", "labelling.is_graceful"),
)

ITEM_SPAN = "bench.item"


class Tracer:
    """Records spans and the counters read off the results they return.

    Counters named ``...@<module>`` count by the module the caller looked
    the function up in, e.g. ``search.find_graceful@sweep``.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, parent, item, name, start, end, self)
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.events: Counter = Counter()
        self._stack: list[list] = []  # [span id, time covered by children]
        self._item = -1

    def _enter(self) -> tuple[int, int | None]:
        sid = len(self.spans) + len(self._stack)
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append([sid, 0.0])
        return sid, parent

    def _exit(self, sid: int, parent: int | None, name: str, t0: float, t1: float) -> float:
        _, covered = self._stack.pop()
        duration = t1 - t0
        own = duration - covered
        if self._stack:
            self._stack[-1][1] += duration
        self.spans.append((sid, parent, self._item, name, t0, t1, own))
        self.self_s[name] += own
        self.calls[name] += 1
        return duration

    def run_item(self, index: int, fn, *args):
        """Call ``fn(*args)`` as the root span of item ``index``."""
        self._item = index
        sid, parent = self._enter()
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self._exit(sid, parent, ITEM_SPAN, t0, time.perf_counter())

    def wrap(self, site: str, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = self._enter()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                duration = self._exit(sid, parent, name, t0, time.perf_counter())
                self._observe_error(name, exc, duration)
                raise
            self._exit(sid, parent, name, t0, time.perf_counter())
            self._observe(site, name, result)
            return result

        return traced

    def _observe(self, site: str, name: str, result) -> None:
        if name == "search.find_graceful":
            self.events[f"search.find_graceful@{site}"] += 1
            self.events["search.nodes"] += result.nodes
            self.events[f"search.{result.status}"] += 1
            if result.status == "timeout":
                self.events["search.timeout_nodes"] += result.nodes
        elif name == "sweep.evaluate_sequence":
            self.events["sweep.orbits"] += len(result.verdicts)
        elif name == "construct.zero_at":
            self.events["construct.constructed"] += 1
            self.events[f"construct.constructed@{site}"] += 1

    def _observe_error(self, name: str, exc: BaseException, duration: float) -> None:
        if name == "construct.zero_at" and type(exc).__name__ == "UnsupportedConstruction":
            self.events["construct.zero_at.unsupported"] += 1
            self.events["construct.unsupported_s"] += duration

    def install(self, pkg) -> list[tuple]:
        """Wrap every site; returns what ``uninstall`` needs to undo it."""
        undo = []
        for module_name, attr, name in WRAP_SITES:
            module = getattr(pkg, module_name)
            original = getattr(module, attr)
            undo.append((module, attr, original))
            setattr(module, attr, self.wrap(module_name, name, original))
        return undo

    @staticmethod
    def uninstall(undo: list[tuple]) -> None:
        for module, attr, original in reversed(undo):
            setattr(module, attr, original)


def write_spans(path, tracers: list[Tracer]) -> None:
    """Write the spans of every traced pass as JSON lines, gzip-compressed."""
    with gzip.open(path, "wt", encoding="utf-8") as out:
        for pass_index, tracer in enumerate(tracers):
            for sid, parent, item, name, t0, t1, own in sorted(tracer.spans):
                record = {"pass": pass_index, "id": sid, "parent": parent, "item": item,
                          "name": name, "start": t0, "end": t1, "self_s": own}
                out.write(json.dumps(record) + "\n")
