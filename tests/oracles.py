"""Slow reference implementations used only by the tests.

Everything here answers the same questions as the package by the most
direct means available (raw permutation enumeration, full automorphism
listing), sharing no machinery with the code under test.
"""

from __future__ import annotations

import itertools
from typing import Iterator

import networkx as nx

from gracetree import GeneralTree, RootedSymmetricTree, to_general


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
