"""Exhaustive search for graceful labellings, with pins and budgets.

The core is a backtracker over edge differences taken in descending
order: difference d is realized either by an edge whose endpoints were
already labelled (then there is no choice) or by explicitly labelling
an endpoint of some edge so that the difference comes out to d.  Every
implied difference must stay strictly below the one being placed and
collide with nothing, which prunes hard and, more importantly, makes
the enumeration visit each graceful labelling exactly once, so the
same engine both finds witnesses and counts.

The search state is four Python ints handed down each call as bit
sets: the free labels, the pending differences (realized by edges whose
endpoints are both labelled, still to be reached on the way down), the
open edges (at least one endpoint unlabelled) and, among those, the
touched ones (at least one endpoint labelled).  A child gets new ints,
so backtracking only resets the vertex labels it set.  Candidate edges
are the set bits of the open mask, so edges already closed cost
nothing.  The label pairs for an edge with no labelled endpoint are the
set bits of ``free & (free >> d)``, listed at most once per node and
only when such an edge is reached; when there are none, such an edge
has no child, and the node scans only ``opened & touched``.  Labelling
a vertex is one step, ``close`` in ``_run``: one loop over its
neighbours closes its edges to labelled ones and touches those to
unlabelled ones.  Each pin takes that step, and so does each vertex a
child labels, but a leaf: its one edge is the edge being realized.  An
edge with one labelled endpoint tests its two candidate labels, at d
either side of that endpoint's, and whether the other endpoint is a
leaf once, then loops over the free ones.

The edge order, the neighbour lists and a leaf flag per vertex depend
only on the tree.  ``_tables`` builds them and ``_run`` takes them as
an argument: ``find_graceful`` and ``count_graceful`` build them once
per call, ``is_zero_rotatable`` once per edge order for all the orbit
searches of its tree, and nothing stays cached between calls.  They are
linear in n; a bit mask of incident edges per vertex would be
quadratic.

The edges are tried in a fixed order: pendant edges (one endpoint a
leaf) first, then the rest, each group from the highest edge index
down.  Large differences then go onto leaves first, as in Rosa's
caterpillar labellings, and witnesses turn up in far fewer nodes.  The
order only permutes the children of each node; the set of states under
a node does not depend on it.  So an exhausted search visits the same
nodes in any order, labelling counts are unchanged, and a search with
no witness still times out at its budget; only which witness comes
first, and when, depends on the order.  No one order finds every
witness soonest: some rooted symmetric trees need more than 50,000
nodes for 0 on one vertex in this order but a few dozen with each group
taken from the lowest index up, so ``_tables`` can build either order.

Two unlabelled leaves of one labelled vertex are interchangeable:
swapping them fixes every labelled vertex, pins included.  So when a
node gives a leaf the label that a leaf of the same neighbour was given
at that node before, the new subtree is the mirror of the earlier one,
which was exhausted (a witness would have ended the search).  Each
node keeps, keyed by neighbour and label, the nodes and count of the
subtrees it walked under a leaf, and adds them for each mirror instead
of walking it again, unless the node budget would run out inside the
mirror: that one is walked, so a timeout still stops at the budget's
node with the count of a full walk.  The memo dies with its node.
``nodes`` and node budgets therefore count the nodes of the search
tree, not the calls made; on the broom ``(1,1,1,k)`` with vertex 2
pinned to 0 the two differ by orders of magnitude.

``find_graceful`` and the decider hand out each witness the engine
finds through ``labelling._proven``: graceful, with its pins.

On top of the engine sits the per-orbit 0-rotatability decider, which
offers each orbit of a rooted symmetric tree to the paper's
constructions before it searches, and runs each orbit search as a table
of stages, each an edge order and a node budget (see
``is_zero_rotatable``).
"""

from __future__ import annotations

import sys
import time
from typing import Mapping, NamedTuple

from . import construct
from .labelling import Labelling, _proven, complement, relabel_vertices
from .model import (
    RootedSymmetricTree,
    Tree,
    _Frozen,
    _is_int,
    _tree,
    automorphism_mapping,
    sequence_label,
    vertex_orbits,
)

# Unused here, but perfbench/spans.py wraps them at this module's lookup site.
from .labelling import is_graceful  # noqa: F401
from .model import to_general  # noqa: F401

DEFAULT_NODE_BUDGET = 100_000_000
DEFAULT_TIME_BUDGET = 60.0
# Stack room for the search's callers, on top of its own n frames.
_RECURSION_MARGIN = 1000

STATUS_FOUND = "found"
STATUS_EXHAUSTED = "exhausted"
STATUS_TIMEOUT = "timeout"

VERDICT_YES = "yes"
VERDICT_NO = "no"
VERDICT_TIMEOUT = "timeout"


class _Stop(Exception):
    """Internal: a budget ran out mid-search."""


def _as_pairs(pins: Mapping[int, int]) -> tuple[tuple[int, int], ...]:
    """The (vertex, label) items of ``pins`` in vertex order; ValueError
    naming ``pins`` unless it is a mapping, or naming a pin that is not
    from an int vertex to an int label."""
    if not isinstance(pins, Mapping):
        raise ValueError(f"pins {pins!r} are not a mapping from vertex to label")
    for v, x in pins.items():
        if not (_is_int(v) and _is_int(x)):
            raise ValueError(f"pin {v!r}->{x!r} must map an int vertex to an int label")
    return tuple(sorted(pins.items()))


class SearchConstraints(_Frozen):
    """Pins and budgets for one search run.

    ``pins`` is a mapping from vertex to label; the ``pins`` attribute
    holds its (vertex, label) items sorted by vertex.  A budget of None
    means unlimited.
    """

    _fields = ("pins", "node_budget", "time_budget")

    def __init__(
        self,
        pins: Mapping[int, int] = {},  # only read, so one shared {} is safe
        node_budget: int | None = DEFAULT_NODE_BUDGET,
        time_budget: float | None = DEFAULT_TIME_BUDGET,
    ) -> None:
        self.__dict__.update(pins=_as_pairs(pins), node_budget=node_budget, time_budget=time_budget)

    def validate(self, n: int) -> None:
        seen_x: set[int] = set()
        for v, x in self.pins:
            if not (0 <= v < n and 0 <= x < n):
                raise ValueError(f"pin {v}->{x} out of range for n={n}")
            if x in seen_x:
                raise ValueError(f"label {x} pinned twice")
            seen_x.add(x)
        # The search stops when its node count equals budget + 1, which
        # a fraction never does.
        budget = self.node_budget
        if budget is not None and (not _is_int(budget) or budget < 1):
            raise ValueError(f"node budget must be a positive integer or None, not {budget!r}")
        # NaN compares false with everything, so it would never expire.
        seconds = self.time_budget
        if seconds is not None and (
            type(seconds) is bool or not isinstance(seconds, (int, float)) or not seconds > 0
        ):
            raise ValueError(f"time budget must be positive or None, not {seconds!r}")


def _constraints(c: SearchConstraints | None) -> SearchConstraints:
    """``c``, or the defaults for None; ValueError naming anything else."""
    if c is not None and not isinstance(c, SearchConstraints):
        raise ValueError(f"constraints {c!r} are not SearchConstraints")
    return SearchConstraints() if c is None else c


class SearchOutcome(NamedTuple):
    """Result of one witness search."""

    status: str
    labelling: Labelling | None
    nodes: int
    elapsed: float


def _tables(
    t: Tree, ascending: bool = False
) -> tuple[tuple[int, ...], tuple[int, ...], tuple, tuple[bool, ...]]:
    """The edge order and neighbour lists of ``t``.

    Returns ``(eu, ev, nbrs, leaf)``: edge i of the search order joins
    ``eu[i]`` and ``ev[i]``; ``nbrs[v]`` holds (neighbour, edge index)
    for each neighbour of v; ``leaf[v]`` says whether v has degree 1.
    Pendant edges come first, each group from the highest index down,
    or from the lowest up if ``ascending``.  Everything is linear in n
    and read-only, so searches of one tree can share it.
    """
    n = t.n
    deg = [0] * n
    for u, v in t.edges:
        deg[u] += 1
        deg[v] += 1
    order = t.edges if ascending else t.edges[::-1]
    edges = [e for e in order if deg[e[0]] == 1 or deg[e[1]] == 1]
    edges += [e for e in order if deg[e[0]] > 1 and deg[e[1]] > 1]
    nbrs: list = [[] for _ in range(n)]
    for i, (u, v) in enumerate(edges):
        nbrs[u].append((v, i))
        nbrs[v].append((u, i))
    # One vertex at a time, so the lists and the tuples never all coexist.
    for v in range(n):
        nbrs[v] = tuple(nbrs[v])
    return (
        tuple(u for u, _ in edges),
        tuple(v for _, v in edges),
        tuple(nbrs),
        tuple(k == 1 for k in deg),
    )


def _run(
    tables: tuple,
    pins: tuple[tuple[int, int], ...],
    node_budget: int | None,
    deadline: float | None,
    count_mode: bool,
) -> tuple[str, tuple[int, ...] | None, int, int]:
    """Shared engine on the tree whose ``_tables`` are ``tables``.

    Stops after ``node_budget`` nodes or once ``time.perf_counter()``
    passes ``deadline``; None means no limit.  No two ``pins`` share a
    vertex or a label: ``SearchConstraints`` takes them from a mapping
    and ``validate`` refuses a label pinned twice, and the decider's two
    put 0 and n-1 on neighbouring vertices.
    Returns (status, labels, count, nodes).
    """
    eu, ev, nbrs, leaf = tables
    n = len(leaf)
    # The one pin validate(1) admits is (0, 0).
    if n == 1:
        return STATUS_FOUND, (0,), 1, 0

    label = [-1] * n

    def close(vtx: int, x: int, skip: int, d: int, pending: int, shut: int, touched: int) -> tuple:
        """Close the edges of ``vtx``, labelled ``x``, to labelled
        neighbours other than ``skip``, and touch those to unlabelled
        ones.  Returns the new (pending, shut, touched), with pending -1
        if a closed edge's difference is ``d`` or more or already pending."""
        for w, j in nbrs[vtx]:
            lw = label[w]
            if lw < 0:
                touched |= 1 << j
                continue
            if w == skip:
                continue
            dd = x - lw if x > lw else lw - x
            b = 1 << dd
            if dd >= d or pending & b:
                return -1, shut, touched
            pending |= b
            shut |= 1 << j
        return pending, shut, touched

    free = (1 << n) - 1
    pending = 0
    opened = (1 << (n - 1)) - 1
    touched = 0
    # Each pin takes a child's step, close, with no difference too large
    # (d = n); an edge to a later pin is touched until that pin closes it.
    for v, x in pins:
        label[v] = x
        free ^= 1 << x
        pending, shut, touched = close(v, x, -1, n, pending, 0, touched)
        if pending < 0:
            return STATUS_EXHAUSTED, None, 0, 0
        opened ^= shut

    top = n - 1
    sym_break = not count_mode and not pins
    stop_at = node_budget + 1 if node_budget is not None else 0
    clock = time.perf_counter
    nodes = 0
    count = 0
    found: tuple[int, ...] | None = None

    def place(d: int, free: int, pending: int, opened: int, touched: int) -> bool:
        """Realize differences d..1 from the state bit sets: ``free``
        labels, ``pending`` differences, ``opened`` edge indices and,
        among those, the ``touched`` ones with a labelled endpoint."""
        nonlocal nodes, count, found
        nodes += 1
        if nodes == stop_at:
            raise _Stop
        if deadline is not None and not nodes & 255 and clock() > deadline:
            raise _Stop
        if d == 0:
            count += 1
            if count_mode:
                return False
            found = tuple(label)
            return True
        bit = 1 << d
        if pending & bit:
            return place(d - 1, free, pending ^ bit, opened, touched)
        # With no free pair at distance d, an edge with no labelled
        # endpoint has no child, so only touched edges are scanned.
        pairs = free & (free >> d)
        rest = opened if pairs else opened & touched
        cands = None
        mirrors = None
        while rest:
            ebit = rest & -rest
            rest ^= ebit
            i = ebit.bit_length() - 1
            u = eu[i]
            v = ev[i]
            lu = label[u]
            lv = label[v]
            if lu >= 0 or lv >= 0:
                # Label the free endpoint at distance d from the other.
                if lu >= 0:
                    vtx, near, skip = v, lu, u
                else:
                    vtx, near, skip = u, lv, v
                # The free labels at distance d from near, each tested once
                # per edge; near + d >= n is never free.
                lo = near - d
                hi = near + d
                if lo >= 0 and free >> lo & 1:
                    at_d = (lo, hi) if free >> hi & 1 else (lo,)
                elif free >> hi & 1:
                    at_d = (hi,)
                else:
                    continue
                if not leaf[vtx]:
                    for x in at_d:
                        label[vtx] = x
                        p, shut, tch = close(vtx, x, skip, d, pending, ebit, touched)
                        if p >= 0 and place(d - 1, free ^ (1 << x), p, opened ^ shut, tch):
                            return True
                    label[vtx] = -1
                    continue
                # A leaf's one edge is this one: nothing else closes.  If a
                # leaf of the same neighbour took x at this node, this
                # subtree mirrors its exhausted one: add that one's nodes
                # and count (see the module doc).
                for x in at_d:
                    key = skip * n + x
                    seen = mirrors.get(key) if mirrors else None
                    if seen is not None and (not stop_at or nodes + seen[0] < stop_at):
                        before = nodes
                        nodes += seen[0]
                        count += seen[1]
                        # As often as a walk would look at the clock.
                        if deadline is not None and before >> 8 != nodes >> 8:
                            if clock() > deadline:
                                raise _Stop
                        continue
                    before = nodes
                    counted = count
                    label[vtx] = x
                    if place(d - 1, free ^ (1 << x), pending, opened ^ ebit, touched):
                        return True
                    if mirrors is None:
                        mirrors = {}
                    mirrors[key] = (nodes - before, count - counted)
                label[vtx] = -1
                continue
            # Neither endpoint is labelled: try each free pair at distance d,
            # listed once per node.  Unpinned, the complement of a witness
            # is one too, so the edge taking 0 and n-1 is tried in one
            # orientation only.
            if cands is None:
                if sym_break and d == top:
                    cands = ((0, top),)
                else:
                    cands = []
                    while pairs:
                        low = pairs & -pairs
                        pairs ^= low
                        a = low.bit_length() - 1
                        cands.append((a, a + d))
                        cands.append((a + d, a))
            for xu, xv in cands:
                label[u] = xu
                label[v] = xv
                p, shut, tch = pending, ebit, touched
                if not leaf[u]:
                    p, shut, tch = close(u, xu, v, d, p, shut, tch)
                if p >= 0 and not leaf[v]:
                    p, shut, tch = close(v, xv, u, d, p, shut, tch)
                if p >= 0 and place(d - 1, free ^ (1 << xu) ^ (1 << xv), p, opened ^ shut, tch):
                    return True
            label[u] = -1
            label[v] = -1
        return False

    status = STATUS_EXHAUSTED
    # place() nests one call per difference, so up to n deep.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, n + _RECURSION_MARGIN))
    try:
        if place(top, free, pending, opened, touched):
            status = STATUS_FOUND
    except _Stop:
        status = STATUS_TIMEOUT
    finally:
        sys.setrecursionlimit(limit)
        # place() reaches itself through its closure; unbound, the
        # closure and label list go with this frame, not the collector.
        del place
    return status, found, count, nodes


def find_graceful(t: Tree, constraints: SearchConstraints | None = None) -> SearchOutcome:
    """Search for one graceful labelling honouring the constraints.

    Status is "found" with a verified witness, "exhausted" when no
    labelling satisfies the constraints, or "timeout" when a budget ran
    out first (inconclusive).
    """
    start = time.perf_counter()
    cons = _constraints(constraints)
    cons.validate(_tree(t).n)
    deadline = None if cons.time_budget is None else start + cons.time_budget
    status, labels, _, nodes = _run(_tables(t), cons.pins, cons.node_budget, deadline, False)
    witness = None if labels is None else _proven(t, labels, cons.pins)
    return SearchOutcome(status, witness, nodes, time.perf_counter() - start)


def count_graceful(t: Tree, bound: int | None = 10) -> int:
    """Exact number of graceful labellings of ``t``.

    The count grows roughly like n!, so trees larger than ``bound``
    vertices are rejected; None means no bound.  Runs unbudgeted.
    """
    if bound is not None and not _is_int(bound):
        raise ValueError(f"count bound must be an integer or None, not {bound!r}")
    if bound is not None and _tree(t).n > bound:
        raise ValueError(
            f"counting on {t.n} vertices exceeds the bound {bound}; pass bound=None"
        )
    _, _, count, _ = _run(_tables(_tree(t)), (), None, None, True)
    return count


class OrbitVerdict(NamedTuple):
    """Outcome for one vertex orbit: can its vertices carry label 0?"""

    representative: int
    orbit: tuple[int, ...]
    verdict: str
    method: str
    witness: Labelling | None
    nodes: int
    elapsed: float


class RotatabilityReport(NamedTuple):
    """Per-orbit answers to "is there a graceful labelling with 0 here?".

    A tree is 0-rotatable exactly when every orbit answers yes.  A
    rooted symmetric tree is named by its daughter degree sequence and
    records its level count ``q``; any other tree is named ``n<n>`` and
    has ``q`` 0.  A sweep also records the tree's family; ``elapsed_s``
    covers the whole decision, orbit computation included.
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
    def nodes(self) -> int:
        return sum(e.nodes for e in self.entries)

    @property
    def searched(self) -> int:
        """Orbits whose decision ran a search; every search visits at
        least one node, and no other route counts any."""
        return sum(1 for e in self.entries if e.nodes)

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


# Node budget of each short stage of an orbit search (see is_zero_rotatable).
_STAGE_NODES = 100


def _passed(deadline: float | None) -> bool:
    return deadline is not None and time.perf_counter() >= deadline


_VERDICT_OF_STATUS = {
    STATUS_FOUND: VERDICT_YES,
    STATUS_EXHAUSTED: VERDICT_NO,
    STATUS_TIMEOUT: VERDICT_TIMEOUT,
}


def is_zero_rotatable(
    t: Tree,
    constraints: SearchConstraints | None = None,
    tree_id: str = "",
) -> RotatabilityReport:
    """Decide, orbit by orbit, whether every vertex can carry label 0.

    In a graceful labelling 0 and n-1 sit on adjacent vertices, and the
    complement of a witness moves 0 to wherever n-1 sat, so every new
    witness settles the orbit of that neighbour for free.  Three passes
    use this:

    1. On a rooted symmetric tree, in orbit order, each orbit on a level
       of ``construct.zero_at_levels(t)`` that no complement has settled
       yet gets its witness from ``construct.zero_at``'s core, the
       paper's constructions.  A GeneralTree skips this pass.
    2. The orbits left over are searched with their smallest vertex
       pinned to 0, lowest degree first and, within a degree, highest
       index first, so each leaf's witness settles its neighbour before
       that neighbour's search would start.  An orbit settled by a
       complement in the meantime is skipped.  Each search tries one
       neighbour at a time for n-1: first those whose orbit has no
       verdict yet and is not the one searched, so that a witness
       settles a second orbit, then the rest (settled, timed out or its
       own), each group in the search's edge order.  The tries are the
       children of the root of one search with only 0 pinned, and share
       its budgets: a try gets the nodes the search has left, the first
       witness or timeout ends the search, and the search is exhausted
       only when every try is.  Its nodes are those of that one search
       (the root once, then each try's nodes below it).
    3. A complement that lands on an orbit whose search timed out makes
       it yes; the entry keeps the nodes and time the search spent.

    Each orbit runs that search as a table of stages, all under the
    orbit's one deadline, and reports the sum of their nodes.  A stage
    is an edge order and a node budget; the table is

        (descending, _STAGE_NODES), (ascending, _STAGE_NODES), (descending, budget)

    or the one stage ``(descending, budget)`` when the orbit's node
    budget is at most ``_STAGE_NODES``.  The first stage is a prefix of
    the search in the engine's edge order (descending), the second a
    probe in the order that takes each group from the lowest index up
    (ascending); the descending tables are built once per tree when an
    orbit is left for pass 2, the ascending ones when a probe first runs.
    A stage that finds or exhausts ends the orbit, as does a
    deadline passed mid-stage; one that runs out of nodes hands on to
    the next.

    No verdict can be lost.  The last stage is exactly the one-stage
    search with the same budget, so it finds what that search finds and
    exhausts what it exhausts.  Every exhausted search visits the same
    nodes in any order, so an exhaust within ``_STAGE_NODES`` nodes ends
    in the first stage, and the second, with the same budget, never
    exhausts: every no is a whole search in one order.  A budget of at
    most ``_STAGE_NODES`` is node for node the one-stage search.  Above
    it, each short stage that runs out stops at ``_STAGE_NODES + 1``
    nodes, so a no reports its exhaust count, plus
    ``2 * (_STAGE_NODES + 1)`` if that is over ``_STAGE_NODES``, and a
    timeout on nodes reports the budget plus 1 plus
    ``2 * (_STAGE_NODES + 1)``.

    Budgets from ``constraints`` apply per orbit; pins are rejected, as
    each search sets its own pin.  Entries come back in orbit order.
    The report names the tree ``tree_id`` if one is given, and by
    default ``sequence_label(t.degrees)`` for a rooted symmetric tree
    and ``n<n>`` for any other.
    """
    start = time.perf_counter()
    base = _constraints(constraints)
    base.validate(_tree(t).n)
    if base.pins:
        raise ValueError("is_zero_rotatable sets its own pins; pass budgets only")
    orbits = vertex_orbits(t)
    orbit_of = {orbit[0]: orbit for orbit in orbits}
    rep_of = {v: orbit[0] for orbit in orbits for v in orbit}
    settled: dict[int, OrbitVerdict] = {}
    if t.n == 1:
        settled[0] = OrbitVerdict(0, (0,), VERDICT_YES, "trivial", Labelling((0,)), 0, 0.0)

    def settle(entry: OrbitVerdict) -> None:
        settled[entry.representative] = entry
        if entry.witness is None:
            return
        top_holder = entry.witness.vertex_with_label(t.n - 1)
        rep = rep_of[top_holder]
        prior = settled.get(rep)
        nodes, elapsed = 0, 0.0
        if prior is not None:
            if prior.verdict == VERDICT_YES:
                return
            if prior.verdict == VERDICT_NO:
                raise RuntimeError(
                    f"a complement puts 0 on vertex {rep}, whose search was exhausted; "
                    "this is a bug"
                )
            nodes, elapsed = prior.nodes, prior.elapsed
        flipped = complement(entry.witness)
        if top_holder != rep:
            flipped = relabel_vertices(flipped, automorphism_mapping(t, top_holder, rep))
        if flipped.labels[rep] != 0:
            raise RuntimeError("complement transport misplaced label 0; this is a bug")
        settled[rep] = OrbitVerdict(
            rep, orbit_of[rep], VERDICT_YES, construct.METHOD_COMPLEMENT, flipped, nodes, elapsed
        )

    name, q = f"n{t.n}", 0
    if isinstance(t, RootedSymmetricTree):
        name, q = sequence_label(t.degrees), t.q
        levels = construct.zero_at_levels(t)
        for rep, orbit in orbit_of.items():
            level = t.level_of_index(rep)
            if rep in settled or level not in levels:
                continue
            t0 = time.perf_counter()
            witness, trace = construct._zero_at(t, rep, level, 0)
            elapsed = time.perf_counter() - t0
            settle(OrbitVerdict(rep, orbit, VERDICT_YES, trace.method, witness, 0, elapsed))
    unsettled = [rep for rep in orbit_of if rep not in settled]
    tables: dict[bool, tuple] = {}
    if unsettled:
        tables[False] = _tables(t)
        adj = tables[False][2]
        # 0 on a leaf forces n-1 onto its neighbour, so leaves go first.
        unsettled.sort(key=lambda rep: (len(adj[rep]), -rep))
    top = t.n - 1
    budget = base.node_budget
    if budget is not None and budget <= _STAGE_NODES:
        stages = ((False, budget),)
    else:
        stages = ((False, _STAGE_NODES), (True, _STAGE_NODES), (False, budget))
    for rep in unsettled:
        if rep in settled:
            continue
        start_rep = time.perf_counter()
        deadline = None if base.time_budget is None else start_rep + base.time_budget
        nodes = 0
        for ascending, stage_budget in stages:
            if ascending not in tables:
                tables[ascending] = _tables(t, ascending)
            order = tables[ascending]
            # One try per neighbour w with n-1 pinned on w; the complement
            # of a try's witness settles w's orbit, so neighbours in orbits
            # with no verdict yet go first, each group in the edge order.
            # Each try's first node stands for the shared root, counted once.
            fresh, rest = [], []
            for w, _ in order[2][rep]:
                w_rep = rep_of[w]
                (rest if w_rep in settled or w_rep == rep else fresh).append(w)
            status, labels, spent = STATUS_EXHAUSTED, None, 1
            for w in fresh + rest:
                if _passed(deadline):
                    status = STATUS_TIMEOUT
                    break
                pins = ((rep, 0), (w, top))
                left = None if stage_budget is None else stage_budget - spent + 1
                status, labels, _, tried = _run(order, pins, left, deadline, False)
                spent += tried - 1
                if status != STATUS_EXHAUSTED:
                    break
            nodes += spent
            if status != STATUS_TIMEOUT or _passed(deadline):
                break
        witness = None if labels is None else _proven(t, labels, pins)
        settle(
            OrbitVerdict(
                rep, orbit_of[rep], _VERDICT_OF_STATUS[status], construct.METHOD_SEARCH,
                witness, nodes, time.perf_counter() - start_rep,
            )
        )
    entries = tuple(settled[rep] for rep in orbit_of)
    elapsed_s = time.perf_counter() - start
    return RotatabilityReport(tree_id or name, t.n, entries, q=q, elapsed_s=elapsed_s)
