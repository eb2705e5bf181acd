"""Slow reference implementations used only by the tests.

Everything here answers the same questions as the package by the most
direct means available (raw permutation enumeration, full automorphism
listing), sharing no machinery with the code under test.  The one
exception is ``run_reference``, the search engine as it was before its
state became bit sets: it is kept to check that the faster engine visits
the same nodes in the same order.
"""

from __future__ import annotations

import itertools
import time
from typing import Iterator

import networkx as nx

from gracetree import GeneralTree, RootedSymmetricTree, SearchConstraints, to_general
from gracetree.model import Tree
from gracetree.search import STATUS_EXHAUSTED, STATUS_FOUND, STATUS_TIMEOUT


def enumerate_graceful(t: GeneralTree) -> Iterator[tuple[int, ...]]:
    """Yield every graceful labelling of ``t`` by trying all permutations."""
    n = t.n
    if n == 1:
        yield (0,)
        return
    want = list(range(1, n))
    for perm in itertools.permutations(range(n)):
        diffs = sorted(abs(perm[u] - perm[v]) for u, v in t.edges)
        if diffs == want:
            yield perm


def count_graceful_naive(t, bound: int = 9, force: bool = False) -> int:
    """Count graceful labellings by trying every permutation.

    Independent of the backtracking engine on purpose: it shares no
    state machinery, only the definition.  Feasible to about 9 vertices.
    """
    g = to_general(t) if isinstance(t, RootedSymmetricTree) else t
    n = g.n
    if n > bound and not force:
        raise ValueError(
            f"naive counting on {n} vertices exceeds the bound {bound}; pass force=True"
        )
    if n == 1:
        return 1
    edges = g.edges
    full = (1 << n) - 2
    count = 0
    for perm in itertools.permutations(range(n)):
        mask = 0
        for u, v in edges:
            bit = 1 << abs(perm[u] - perm[v])
            if mask & bit:
                break
            mask |= bit
        else:
            if mask == full:
                count += 1
    return count


def zero_positions(t: GeneralTree) -> set[int]:
    """Vertices that carry label 0 in at least one graceful labelling."""
    return {f.index(0) for f in enumerate_graceful(t)}


def brute_automorphisms(t: GeneralTree) -> list[tuple[int, ...]]:
    """All adjacency-preserving vertex permutations, degree-pruned."""
    n = t.n
    adj = [set(a) for a in t.adjacency]
    deg = [len(a) for a in adj]
    perm = [-1] * n
    used = [False] * n
    out: list[tuple[int, ...]] = []

    def extend(v: int) -> None:
        if v == n:
            out.append(tuple(perm))
            return
        for w in range(n):
            if used[w] or deg[w] != deg[v]:
                continue
            if all((u in adj[v]) == (perm[u] in adj[w]) for u in range(v)):
                perm[v] = w
                used[w] = True
                extend(v + 1)
                used[w] = False
        perm[v] = -1

    extend(0)
    return out


def brute_orbits(t: GeneralTree) -> list[tuple[int, ...]]:
    """Vertex orbits from the full automorphism list, sorted."""
    parent = list(range(t.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p in brute_automorphisms(t):
        for a, b in enumerate(p):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
    groups: dict[int, list[int]] = {}
    for v in range(t.n):
        groups.setdefault(find(v), []).append(v)
    return sorted(tuple(sorted(g)) for g in groups.values())


def all_trees(n: int) -> Iterator[GeneralTree]:
    """Every unlabelled tree on n vertices, one representative each."""
    if n == 1:
        yield GeneralTree(1, ())
        return
    for g in nx.nonisomorphic_trees(n):
        yield GeneralTree(n, tuple(g.edges()))


def random_tree(rnd, n: int) -> GeneralTree:
    """Uniform-ish random labelled tree from a parent array."""
    edges = tuple((rnd.randrange(i), i) for i in range(1, n))
    return GeneralTree(n, edges)


def _nested_codes(t: GeneralTree, root: int) -> tuple:
    """Nested-tuple canonical code of ``t`` rooted at ``root``."""
    adj = t.adjacency
    parent = [-1] * t.n
    parent[root] = root
    order = [root]
    for v in order:
        for w in adj[v]:
            if parent[w] < 0:
                parent[w] = v
                order.append(w)
    codes: list = [None] * t.n
    for v in reversed(order):
        codes[v] = tuple(sorted(codes[w] for w in adj[v] if parent[w] == v))
    return codes[root]


def orbits_by_rooted_codes(t: GeneralTree) -> list[tuple[int, ...]]:
    """Vertex orbits: vertices whose rootings have equal codes, sorted.

    Re-roots the tree at every vertex, so it is quadratic, and deep
    trees overflow the stack when the nested codes are compared.
    """
    groups: dict = {}
    for v in range(t.n):
        groups.setdefault(_nested_codes(t, v), []).append(v)
    return sorted(tuple(vs) for vs in groups.values())


def theorem1_label_by_addresses(t: RootedSymmetricTree) -> tuple[int, ...]:
    """The direct labelling, decoding each vertex's address digits."""
    hs = t.level_numbers
    k1 = t.degrees[0]
    labels = [0] * t.n
    for i in range(1, t.n):
        digits = t.address_of(i)
        r = len(digits) + 1
        if r % 2 == 0:
            acc = (k1 - digits[0]) * hs[1]
            for j in range(1, r - 1):
                acc -= digits[j] * hs[j + 1]
            labels[i] = acc - (r - 2) // 2
        else:
            acc = 0
            for j in range(r - 1):
                acc += digits[j] * hs[j + 1]
            labels[i] = acc + (r - 1) // 2
    return tuple(labels)


def decompose_by_addresses(
    t: RootedSymmetricTree,
) -> tuple[GeneralTree, tuple[int, ...], tuple[int, ...]]:
    """``(P, p_map, h_map)`` of the last-branch split, from address digits.

    P is the root plus every vertex whose first digit is the last one,
    on local indices in ``p_map`` order; H's vertex with address ``a``
    is the tree's vertex with address ``a``.
    """
    k1 = t.degrees[0]
    p_map = (0,) + tuple(i for i in range(1, t.n) if t.address_of(i)[0] == k1 - 1)
    local = {g: i for i, g in enumerate(p_map)}
    p = GeneralTree(len(p_map), tuple((local[t.parent_index(g)], local[g]) for g in p_map[1:]))
    if k1 == 1:
        return p, p_map, (0,)
    h = RootedSymmetricTree((k1 - 1,) + t.degrees[1:])
    return p, p_map, tuple(t.index_of(h.address_of(i)) for i in range(h.n))


def is_caterpillar(t: GeneralTree) -> bool:
    """Whether deleting the leaves leaves a path (or nothing)."""
    g = nx.Graph(t.edges)
    g.add_nodes_from(range(t.n))
    spine = g.subgraph([v for v in g if g.degree(v) >= 2])
    return all(d <= 2 for _, d in spine.degree())


class _Stop(Exception):
    """A budget ran out mid-search."""


def run_reference(
    t: Tree, cons: SearchConstraints, count_mode: bool
) -> tuple[str, tuple[int, ...] | None, int, int, float]:
    """The recursive engine as it was before the bitset kernel.

    Returns (status, labels, count, nodes, elapsed) like
    ``gracetree.search._run``, which must match it field for field
    except elapsed: same nodes, same order, same timeout node count.
    """
    n = t.n
    start = time.perf_counter()

    if n == 1:
        ok = all(x == 0 for _, x in cons.pins)
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
        if used[x] or label[v] >= 0:
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

    sym_break = not count_mode and not cons.pins
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
                    if 0 <= x < n and not used[x]:
                        cands.append(((v, x),))
            elif lv >= 0:
                for x in (lv - d, lv + d):
                    if 0 <= x < n and not used[x]:
                        cands.append(((u, x),))
            elif sym_break and d == n - 1:
                cands.append(((u, 0), (v, n - 1)))
            else:
                for a in range(n - d):
                    b = a + d
                    if used[a] or used[b]:
                        continue
                    cands.append(((u, a), (v, b)))
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
