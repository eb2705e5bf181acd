"""Output checks that share no code with gracetree.

Every check here works from the benchmark's own description of a tree
(an edge list it built itself) and from the definition of a graceful
labelling: labels are a permutation of 0..n-1 and the edge differences
are exactly 1..n-1.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Sequence


def rst_edges(seq: Sequence[int]) -> list[tuple[int, int]]:
    """Edges (parent, child) of the rooted symmetric tree with daughter
    degrees ``seq``, vertices numbered breadth-first with each vertex's
    children in order, as gracetree documents its indexing."""
    edges: list[tuple[int, int]] = []
    level_start, level_size, nxt = 0, 1, 1
    for k in seq:
        for j in range(level_size * k):
            edges.append((level_start + j // k, nxt))
            nxt += 1
        level_start += level_size
        level_size *= k
    return edges


def rst_level_ranges(seq: Sequence[int]) -> list[range]:
    """Vertex index range of each level, root level first."""
    ranges, start, size = [], 0, 1
    for k in (*seq, None):
        ranges.append(range(start, start + size))
        start += size
        if k is not None:
            size *= k
    return ranges


def prufer_edges(code: Sequence[int], n: int) -> list[tuple[int, int]]:
    """Decode a Prüfer sequence of length n-2 into the tree's edges."""
    degree = [1] * n
    for x in code:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in code:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def is_graceful(n: int, edges: Sequence[tuple[int, int]], labels: Sequence[int]) -> bool:
    if len(labels) != n or len(edges) != n - 1:
        return False
    seen = bytearray(n)
    for x in labels:
        if not 0 <= x < n or seen[x]:
            return False
        seen[x] = 1
    hit = bytearray(n)
    for u, v in edges:
        d = abs(labels[u] - labels[v])
        if d == 0 or hit[d]:
            return False
        hit[d] = 1
    # n-1 distinct differences in 1..n-1 cover all of them.
    return True


def witness_ok(
    n: int, edges: Sequence[tuple[int, int]], labels: Sequence[int], vertex: int, label: int
) -> bool:
    """A graceful labelling that puts ``label`` on ``vertex``."""
    return 0 <= vertex < len(labels) and labels[vertex] == label and is_graceful(n, edges, labels)


def zero_impossible(n: int, edges: Sequence[tuple[int, int]], vertex: int) -> bool:
    """True when no graceful labelling puts 0 on ``vertex``, decided by
    trying all (n-1)! placements of the other labels.  Use for n <= 9."""
    others = [v for v in range(n) if v != vertex]
    labels = [0] * n
    for perm in itertools.permutations(range(1, n)):
        for v, x in zip(others, perm):
            labels[v] = x
        if is_graceful(n, edges, labels):
            return False
    return True


def zero_impossible_by_search(
    n: int, edges: Sequence[tuple[int, int]], vertex: int, node_cap: int = 1_000_000
) -> bool | None:
    """True when no graceful labelling puts 0 on ``vertex``, decided by an
    exhaustive search that places the edge differences n-1, n-2, ..., 1 in
    turn; None when it gives up after ``node_cap`` nodes.

    Difference d goes on some edge whose labels are a and a+d.  If both
    labels are placed, their vertices must share an unused edge; if one
    is, the other goes on an unlabelled neighbour; if neither is, both go
    on an edge with two unlabelled ends, either way round.
    """
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for e, (u, v) in enumerate(edges):
        adj[u].append((v, e))
        adj[v].append((u, e))
    label = [-1] * n  # vertex -> label
    where = [-1] * n  # label -> vertex
    used = [False] * len(edges)
    label[vertex], where[0] = 0, vertex
    nodes = 0

    def put(x: int, a: int) -> None:
        label[x], where[a] = a, x

    def take(x: int) -> None:
        where[label[x]], label[x] = -1, -1

    def place(d: int) -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > node_cap:
            raise TimeoutError
        if d == 0:
            return True
        for a in range(n - d):
            xa, xb = where[a], where[a + d]
            if xa >= 0 and xb >= 0:
                for y, e in adj[xa]:
                    if y == xb and not used[e]:
                        used[e] = True
                        if place(d - 1):
                            return True
                        used[e] = False
            elif xa >= 0 or xb >= 0:
                x, other = (xa, a + d) if xa >= 0 else (xb, a)
                for y, e in adj[x]:
                    if label[y] < 0:
                        put(y, other)
                        used[e] = True
                        if place(d - 1):
                            return True
                        used[e] = False
                        take(y)
            else:
                for e, (u, v) in enumerate(edges):
                    if label[u] < 0 and label[v] < 0:
                        for p, q in ((u, v), (v, u)):
                            put(p, a)
                            put(q, a + d)
                            used[e] = True
                            if place(d - 1):
                                return True
                            used[e] = False
                            take(p)
                            take(q)
        return False

    try:
        return not place(n - 1)
    except TimeoutError:
        return None
