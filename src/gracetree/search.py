"""Exhaustive search for graceful labellings, with pins and budgets.

The core is a backtracker over edge differences taken in descending
order: difference d is realized either by an edge whose endpoints were
already labelled (then there is no choice) or by explicitly labelling
an endpoint of some edge so that the difference comes out to d.  Every
implied difference must stay strictly below the one being placed and
collide with nothing, which prunes hard and, more importantly, makes
the enumeration visit each graceful labelling exactly once, so the
same engine both finds witnesses and counts.

On top of the engine sits the per-orbit 0-rotatability decider, which
can try closed-form constructions before it searches.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Mapping, Union

from .construct import METHOD_COMPLEMENT, METHOD_SEARCH
from .labelling import Labelling, complement, is_graceful, relabel_vertices
from .model import Tree, UnsupportedConstruction, automorphism_mapping, vertex_orbits

# Unused here, but perfbench/spans.py wraps it at this module's lookup site.
from .model import to_general  # noqa: F401

DEFAULT_NODE_BUDGET = 100_000_000
DEFAULT_TIME_BUDGET = 60.0

STATUS_FOUND = "found"
STATUS_EXHAUSTED = "exhausted"
STATUS_TIMEOUT = "timeout"

VERDICT_YES = "yes"
VERDICT_NO = "no"
VERDICT_TIMEOUT = "timeout"


class _Stop(Exception):
    """Internal: a budget ran out mid-search."""


PairsLike = Union[Mapping[int, int], Iterable[tuple[int, int]]]


def _as_pairs(value: PairsLike) -> tuple[tuple[int, int], ...]:
    if isinstance(value, Mapping):
        items = value.items()
    else:
        items = value
    return tuple(sorted((int(a), int(b)) for a, b in items))


@dataclass(frozen=True)
class SearchConstraints:
    """Pins, forbidden assignments, and budgets for one search run.

    ``pins`` fixes vertex -> label; ``forbid`` rules single (vertex,
    label) pairs out.  A budget of None means unlimited.
    """

    pins: PairsLike = ()
    forbid: PairsLike = ()
    node_budget: int | None = DEFAULT_NODE_BUDGET
    time_budget: float | None = DEFAULT_TIME_BUDGET

    def __post_init__(self) -> None:
        object.__setattr__(self, "pins", _as_pairs(self.pins))
        object.__setattr__(self, "forbid", _as_pairs(self.forbid))

    def validate(self, n: int) -> None:
        seen_v: set[int] = set()
        seen_x: set[int] = set()
        for v, x in self.pins:
            if not (0 <= v < n and 0 <= x < n):
                raise ValueError(f"pin {v}->{x} out of range for n={n}")
            if v in seen_v:
                raise ValueError(f"vertex {v} pinned twice")
            if x in seen_x:
                raise ValueError(f"label {x} pinned twice")
            seen_v.add(v)
            seen_x.add(x)
        for v, x in self.forbid:
            if not (0 <= v < n and 0 <= x < n):
                raise ValueError(f"forbidden pair {v}->{x} out of range for n={n}")
        if self.node_budget is not None and self.node_budget < 1:
            raise ValueError("node budget must be positive or None")
        if self.time_budget is not None and self.time_budget <= 0:
            raise ValueError("time budget must be positive or None")

    def with_pin(self, v: int, x: int) -> "SearchConstraints":
        return replace(self, pins=self.pins + ((v, x),))


@dataclass(frozen=True)
class SearchOutcome:
    """Result of one witness search."""

    status: str
    labelling: Labelling | None
    nodes: int
    elapsed: float


def _run(
    t: Tree, cons: SearchConstraints, count_mode: bool
) -> tuple[str, tuple[int, ...] | None, int, int, float]:
    """Shared engine.  Returns (status, labels, count, nodes, elapsed)."""
    n = t.n
    start = time.perf_counter()
    forbidden: set[tuple[int, int]] = set(cons.forbid)

    if n == 1:
        ok = all(x == 0 for _, x in cons.pins) and (0, 0) not in forbidden
        elapsed = time.perf_counter() - start
        if ok:
            return STATUS_FOUND, (0,), 1, 0, elapsed
        return STATUS_EXHAUSTED, None, 0, 0, elapsed

    adj = t.adjacency
    edges = t.edges
    label = [-1] * n
    used = [False] * n

    pending: dict[int, tuple[int, int]] = {}
    feasible = True
    for v, x in cons.pins:
        if (v, x) in forbidden or used[x] or label[v] >= 0:
            feasible = False
            break
        label[v] = x
        used[x] = True
    if feasible:
        for u, v in edges:
            if label[u] >= 0 and label[v] >= 0:
                d = abs(label[u] - label[v])
                if d == 0 or d in pending:
                    feasible = False
                    break
                pending[d] = (u, v)
    if not feasible:
        return STATUS_EXHAUSTED, None, 0, 0, time.perf_counter() - start

    sym_break = not count_mode and not cons.pins and not cons.forbid
    node_budget = cons.node_budget
    time_budget = cons.time_budget
    deadline = start + time_budget if time_budget is not None else None
    nodes = 0
    count = 0
    found: tuple[int, ...] | None = None

    def note_node() -> None:
        nonlocal nodes
        nodes += 1
        if node_budget is not None and nodes > node_budget:
            raise _Stop
        if deadline is not None and (nodes & 255) == 0 and time.perf_counter() > deadline:
            raise _Stop

    def assign(pairs: tuple[tuple[int, int], ...], d: int, skip: tuple[int, int]):
        """Label the given vertices; queue implied differences.

        Returns the list of queued differences, or None (state restored)
        when any implied difference is >= d, zero, or already queued.
        """
        for v, x in pairs:
            label[v] = x
            used[x] = True
        added: list[int] = []
        ok = True
        for v, x in pairs:
            for w in adj[v]:
                lw = label[w]
                if lw < 0:
                    continue
                e = (v, w) if v < w else (w, v)
                if e == skip:
                    continue
                dd = abs(x - lw)
                if dd == 0 or dd >= d or dd in pending:
                    ok = False
                    break
                pending[dd] = e
                added.append(dd)
            if not ok:
                break
        if ok:
            return added
        for dd in added:
            del pending[dd]
        for v, x in pairs:
            label[v] = -1
            used[x] = False
        return None

    def place(d: int) -> bool:
        nonlocal count, found
        note_node()
        if d == 0:
            count += 1
            if count_mode:
                return False
            found = tuple(label)
            return True
        if d in pending:
            e = pending.pop(d)
            hit = place(d - 1)
            pending[d] = e
            return hit
        for u, v in edges:
            lu, lv = label[u], label[v]
            if lu >= 0 and lv >= 0:
                continue
            cands: list[tuple[tuple[int, int], ...]] = []
            if lu >= 0:
                for x in (lu - d, lu + d):
                    if 0 <= x < n and not used[x] and (v, x) not in forbidden:
                        cands.append(((v, x),))
            elif lv >= 0:
                for x in (lv - d, lv + d):
                    if 0 <= x < n and not used[x] and (u, x) not in forbidden:
                        cands.append(((u, x),))
            elif sym_break and d == n - 1:
                cands.append(((u, 0), (v, n - 1)))
            else:
                for a in range(n - d):
                    b = a + d
                    if used[a] or used[b]:
                        continue
                    if (u, a) not in forbidden and (v, b) not in forbidden:
                        cands.append(((u, a), (v, b)))
                    if (u, b) not in forbidden and (v, a) not in forbidden:
                        cands.append(((u, b), (v, a)))
            for pairs in cands:
                added = assign(pairs, d, (u, v))
                if added is None:
                    continue
                if place(d - 1):
                    return True
                for dd in added:
                    del pending[dd]
                for vtx, val in pairs:
                    label[vtx] = -1
                    used[val] = False
        return False

    status = STATUS_EXHAUSTED
    try:
        if place(n - 1):
            status = STATUS_FOUND
    except _Stop:
        status = STATUS_TIMEOUT
    elapsed = time.perf_counter() - start
    return status, found, count, nodes, elapsed


def find_graceful(t: Tree, constraints: SearchConstraints | None = None) -> SearchOutcome:
    """Search for one graceful labelling honouring the constraints.

    Status is "found" with a verified witness, "exhausted" when no
    labelling satisfies the constraints, or "timeout" when a budget ran
    out first (inconclusive).
    """
    cons = constraints if constraints is not None else SearchConstraints()
    cons.validate(t.n)
    status, labels, _, nodes, elapsed = _run(t, cons, count_mode=False)
    witness = None
    if status == STATUS_FOUND:
        witness = Labelling(labels)
        if not is_graceful(t, witness):
            raise RuntimeError("search returned a non-graceful labelling; this is a bug")
        for v, x in cons.pins:
            if witness[v] != x:
                raise RuntimeError("search witness violates a pin; this is a bug")
        for v, x in cons.forbid:
            if witness[v] == x:
                raise RuntimeError("search witness violates a forbidden pair; this is a bug")
    return SearchOutcome(status, witness, nodes, elapsed)


def count_graceful(t: Tree, bound: int = 10, force: bool = False) -> int:
    """Exact number of graceful labellings of ``t``.

    The count grows roughly like n!, so trees larger than ``bound``
    vertices are rejected unless ``force`` is set.  Runs unbudgeted.
    """
    if t.n > bound and not force:
        raise ValueError(
            f"counting on {t.n} vertices exceeds the bound {bound}; pass force=True"
        )
    cons = SearchConstraints(node_budget=None, time_budget=None)
    status, _, count, _, _ = _run(t, cons, count_mode=True)
    if status == STATUS_TIMEOUT:
        raise RuntimeError("unbudgeted count stopped early; this is a bug")
    return count


@dataclass(frozen=True)
class OrbitVerdict:
    """Outcome for one vertex orbit: can its vertices carry label 0?"""

    representative: int
    orbit: tuple[int, ...]
    verdict: str
    method: str
    witness: Labelling | None
    nodes: int
    elapsed: float

    def to_dict(self, include_timing: bool = True) -> dict:
        return {
            "representative": self.representative,
            "orbit": list(self.orbit),
            "verdict": self.verdict,
            "method": self.method,
            "witness": list(self.witness.labels) if self.witness else None,
            "nodes": self.nodes,
            "elapsed": self.elapsed if include_timing else None,
        }


@dataclass(frozen=True)
class RotatabilityReport:
    """Per-orbit answers to "is there a graceful labelling with 0 here?".

    A tree is 0-rotatable exactly when every orbit answers yes.  A sweep
    also records the tree's family and level count; ``elapsed_s`` covers
    the whole decision, orbit computation included.
    """

    tree_id: str
    n: int
    entries: tuple[OrbitVerdict, ...]
    family: str = ""
    q: int = 0
    elapsed_s: float = 0.0

    @property
    def verdict(self) -> str:
        if any(e.verdict == VERDICT_NO for e in self.entries):
            return VERDICT_NO
        if any(e.verdict == VERDICT_TIMEOUT for e in self.entries):
            return VERDICT_TIMEOUT
        return VERDICT_YES

    @property
    def all_yes(self) -> bool:
        return self.verdict == VERDICT_YES

    @property
    def nodes(self) -> int:
        return sum(e.nodes for e in self.entries)

    @property
    def orbit_reps(self) -> tuple[int, ...]:
        return tuple(e.representative for e in self.entries)

    @property
    def verdicts(self) -> tuple[str, ...]:
        return tuple(e.verdict for e in self.entries)

    @property
    def methods(self) -> tuple[str, ...]:
        return tuple(e.method for e in self.entries)

    @property
    def witnesses(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """(representative, labels) for each yes orbit, in orbit order."""
        return tuple((e.representative, e.witness.labels) for e in self.entries if e.witness)

    def to_dict(self, include_timing: bool = True) -> dict:
        return {
            "tree": self.tree_id,
            "n": self.n,
            "verdict": self.verdict,
            "orbits": [e.to_dict(include_timing) for e in self.entries],
        }

    def to_json(self, include_timing: bool = True) -> str:
        return json.dumps(self.to_dict(include_timing), indent=2)


def _stash_complement(
    t: Tree,
    orbits,
    cache: dict[int, Labelling],
    witness: Labelling,
) -> None:
    # The complement of a witness is graceful and moves 0 to wherever
    # n-1 sat, which settles that vertex's whole orbit for free.
    top_holder = witness.vertex_with_label(t.n - 1)
    rep = orbits.representative_of(top_holder)
    if rep in cache:
        return
    flipped = complement(witness)
    if top_holder != rep:
        flipped = relabel_vertices(flipped, automorphism_mapping(t, top_holder, rep))
    if flipped[rep] != 0:
        raise RuntimeError("complement transport misplaced label 0; this is a bug")
    cache[rep] = flipped


_VERDICT_OF_STATUS = {
    STATUS_FOUND: VERDICT_YES,
    STATUS_EXHAUSTED: VERDICT_NO,
    STATUS_TIMEOUT: VERDICT_TIMEOUT,
}


def is_zero_rotatable(
    t: Tree,
    constraints: SearchConstraints | None = None,
    tree_id: str = "",
    construct: Callable[[int], tuple[Labelling, str]] | None = None,
) -> RotatabilityReport:
    """Decide, orbit by orbit, whether every vertex can carry label 0.

    Per orbit: a cached complement witness wins, then ``construct(rep)``
    when given (it returns ``(witness, method)`` or raises
    UnsupportedConstruction), then a search pinning the orbit's smallest
    vertex to 0.  Complements of new witnesses settle other orbits
    without searching.  Budgets from ``constraints`` apply per orbit.
    """
    start = time.perf_counter()
    base = constraints if constraints is not None else SearchConstraints()
    base.validate(t.n)
    orbits = vertex_orbits(t)
    # The constructive route names its methods as the sweep CSV always has.
    by_complement, by_search = (
        ("complement", "search") if construct is None else (METHOD_COMPLEMENT, METHOD_SEARCH)
    )
    cache: dict[int, Labelling] = {}
    entries = []
    for orbit in orbits.orbits:
        rep = orbit[0]
        if t.n == 1:
            entries.append(
                OrbitVerdict(rep, orbit, VERDICT_YES, "trivial", Labelling((0,)), 0, 0.0)
            )
            continue
        cached = cache.get(rep)
        if cached is not None:
            entries.append(OrbitVerdict(rep, orbit, VERDICT_YES, by_complement, cached, 0, 0.0))
            continue
        entry = None
        if construct is not None:
            t0 = time.perf_counter()
            try:
                witness, method = construct(rep)
            except UnsupportedConstruction:
                pass
            else:
                elapsed = time.perf_counter() - t0
                entry = OrbitVerdict(rep, orbit, VERDICT_YES, method, witness, 0, elapsed)
        if entry is None:
            out = find_graceful(t, base.with_pin(rep, 0))
            entry = OrbitVerdict(
                rep, orbit, _VERDICT_OF_STATUS[out.status], by_search, out.labelling,
                out.nodes, out.elapsed,
            )
        if entry.witness is not None:
            _stash_complement(t, orbits, cache, entry.witness)
        entries.append(entry)
    elapsed_s = time.perf_counter() - start
    return RotatabilityReport(tree_id or f"n{t.n}", t.n, tuple(entries), elapsed_s=elapsed_s)
