"""Slow reference implementations used only by the tests.

Everything here answers the same questions as the package by the most
direct means available (raw permutation enumeration, full automorphism
listing), sharing no machinery with the code under test.  The one
exception is ``run_reference``, the search engine as it was before its
state became bit sets: it is kept to check that the faster engine visits
the same nodes in the same order.
"""

from __future__ import annotations

import functools
import itertools
import time
from typing import Iterator

import networkx as nx

from gracetree import GeneralTree, SearchConstraints
from gracetree.model import RootedSymmetricTree, Tree, to_general
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


@functools.cache
def zero_positions(t: GeneralTree) -> frozenset[int]:
    """Vertices that carry label 0 in at least one graceful labelling.

    Tries all n! permutations, so each tree's answer is kept for the
    rest of the session: several tests ask it of every tree with n <= 8.
    """
    return frozenset(f.index(0) for f in enumerate_graceful(t))


def zero_possible_by_vertex_order(n: int, edges, v: int, cap: int | None = None) -> tuple[str, int]:
    """Whether a graceful labelling of the tree ``(n, edges)`` puts 0 on
    ``v``: ``(verdict, nodes)``, the verdict ``yes``, ``no`` or, past
    ``cap`` nodes, ``timeout``.

    Labels vertices, where the package's search places edge differences:
    in breadth-first order from v, which gets 0, each vertex takes a free
    label whose difference to its parent is free, the largest such
    difference first, one node per label placed, v's 0 included.  Two
    leaves of one parent can swap labels, so such leaves take increasing
    labels in that order; v, the order's root, is none of them.  An
    exhausted search visits the same nodes in any try order.
    """
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    parent, order = {v: v}, [v]
    for u in order:
        for w in adj[u]:
            if w not in parent:
                parent[w] = u
                order.append(w)
    prev, last = {}, {}
    for u in order[1:]:
        if len(adj[u]) == 1:
            prev[u], last[parent[u]] = last.get(parent[u]), u
    label = {v: 0}
    used, diffs = {0}, set()
    nodes = 1

    def extend(i: int) -> bool | None:
        nonlocal nodes
        if i == n:
            return True
        u = order[i]
        up = label[parent[u]]
        low = label[prev[u]] if prev.get(u) is not None else 0
        for d in range(n - 1, 0, -1):
            if d in diffs:
                continue
            for b in (up + d, up - d):
                if b in used or not low < b < n:
                    continue
                nodes += 1
                if cap is not None and nodes > cap:
                    return None
                label[u] = b
                used.add(b)
                diffs.add(d)
                found = extend(i + 1)
                used.discard(b)
                diffs.discard(d)
                if found is not False:
                    return found
        return False

    return {True: "yes", False: "no", None: "timeout"}[extend(1)], nodes


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


def rst_parents(degrees) -> list[int | None]:
    """Each vertex's parent (None for the root) in the rooted symmetric
    tree with daughter degrees ``degrees`` ((0,) is one vertex), its
    vertices numbered level by level with each parent's children in a
    row; enumerated from the degree sequence alone."""
    parents, level = [None], range(1)
    for k in degrees:
        parents += [p for p in level for _ in range(k)]
        level = range(level.stop, len(parents))
    return parents


# Rooted symmetric trees whose degree sequences hold long runs of 1s,
# q up to about 300: paths, spiders (k,1^L), brooms (1^j,k), (3,1^m,3),
# bananas (a,1,b) and mixed runs.
UNIT_RUN_SEQUENCES = (
    (1,),
    (1,) * 49,
    (1,) * 300,
    (2,) + (1,) * 199,
    (5,) + (1,) * 60,
    (1,) * 150 + (4,),
    (1,) * 37 + (9,),
    (3,) + (1,) * 250 + (3,),
    (3,) + (1,) * 31 + (3,),
    (4, 1, 5),
    (7, 1, 2),
    (2, 1, 9),
    (2, 1, 1, 3, 1, 1, 2),
    (1, 1, 2, 1, 1, 1, 3, 1, 2),
    (1,) * 20 + (2,) + (1,) * 20,
    (2, 2, 2) + (1,) * 40 + (2, 2) + (1,) * 30,
)


def rst_addresses(degrees) -> list[tuple[int, ...]]:
    """Each vertex's address, its child indices from the root, in the
    numbering of ``rst_parents``; enumerated from the degree sequence
    alone."""
    addresses, level = [()], [()]
    for k in degrees:
        level = [a + (x,) for a in level for x in range(k)]
        addresses += level
    return addresses


def theorem1_label_by_addresses(degrees) -> tuple[int, ...]:
    """The direct labelling of the rooted symmetric tree with daughter
    degrees ``degrees``, decoding each vertex's address digits."""
    hs = [1]  # hs[r - 1]: the vertex count of a subtree rooted on level r
    for k in reversed(degrees):
        hs.insert(0, 1 + k * hs[0])
    k1 = degrees[0]
    addresses = rst_addresses(degrees)
    labels = [0] * len(addresses)
    for i, digits in enumerate(addresses[1:], 1):
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


def graceful_on_rst(degrees, labels) -> bool:
    """Whether ``labels`` is a graceful labelling of the rooted symmetric
    tree with daughter degrees ``degrees`` ((0,) is one vertex), its
    vertices numbered level by level with each parent's children in a
    row; its edges are the parent links of ``rst_parents``."""
    labels, parents = list(labels), rst_parents(degrees)
    n = len(parents)
    if sorted(labels) != list(range(n)):
        return False
    return sorted(abs(labels[parents[v]] - labels[v]) for v in range(1, n)) == list(range(1, n))


def decompose_by_addresses(degrees) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """``(h_degrees, p_map, h_map)`` of the first-branch split of the
    rooted symmetric tree with daughter degrees ``degrees``, from address
    digits.

    P is the root plus every vertex whose first digit is 0, in index
    order.  H is the tree with one root branch fewer, or the one-vertex
    tree (0,); its vertex with address ``(a_1, ...)`` is the tree's
    vertex with address ``(a_1 + 1, ...)``, and its root the tree's.
    """
    k1 = degrees[0]
    addresses = rst_addresses(degrees)
    p_map = (0,) + tuple(i for i, a in enumerate(addresses) if a[:1] == (0,))
    if k1 == 1:
        return (0,), p_map, (0,)
    h_degrees = (k1 - 1,) + tuple(degrees[1:])
    index = {a: i for i, a in enumerate(addresses)}
    shifted = ((a[0] + 1,) + a[1:] if a else () for a in rst_addresses(h_degrees))
    return h_degrees, p_map, tuple(index[a] for a in shifted)


def broom_labels(leaf_count: int, spine_length: int, n: int) -> list[int]:
    """The broom's extreme-value labels as its documentation states them:
    leaves 0..leaf_count-1, and the spine from its deep end up to the
    root alternating between the largest unused high label and the
    smallest unused low label; listed root, spine downwards, leaves."""
    # From the deep end: n-1, leaf_count, n-2, leaf_count+1, ...
    deep_to_root = [(n - 1 - pos // 2, leaf_count + pos // 2)[pos % 2] for pos in range(spine_length)]
    return deep_to_root[::-1] + list(range(leaf_count))


# The parameters each trace op records besides its name and its output:
# the split for decompose, a label snapshot for every other op.
_TRACE_PARAMS = {
    "theorem1": (),
    "apply_permutation": ("swaps",),
    "complement": (),
    "relabel_vertices": ("perm",),
    "decompose": (),
    "broom": ("leaf_count", "spine_length", "n"),
    "subtree": (),
    "shift": ("amount",),
    "reflect": ("pivot",),
    "merge": (),
}


def check_trace(degrees, trace: dict) -> list[int]:
    """Recompute a construction trace, in its ``--explain`` shape
    ``{"method", "steps"}``, on the rooted symmetric tree with daughter
    degrees ``degrees``, and return its final labels.

    Each step is recomputed from the earlier steps and its own
    parameters by the definitions above: the direct formula and the
    split by addresses, the broom's documented labels, and the plain
    meaning of each label map.  The merge checks that the broom and the
    subtree fill P and H and agree on the root.  A step that does not
    recompute, or a final labelling that is not graceful, raises
    ValueError naming it.
    """
    n = len(rst_parents(degrees))
    labels = broom = subtree = split = None
    for i, step in enumerate(trace["steps"]):
        op = step["op"]
        if op not in _TRACE_PARAMS:
            raise ValueError(f"trace step {i} has an unknown op {op!r}")
        redone = {"op": op, **{k: step[k] for k in _TRACE_PARAMS[op]}}
        if op == "theorem1":
            out = labels = list(theorem1_label_by_addresses(degrees))
        elif op == "apply_permutation":
            swap = dict(step["swaps"])
            swap.update((b, a) for a, b in step["swaps"])
            out = labels = [swap.get(x, x) for x in labels]
        elif op == "complement":
            out = labels = [n - 1 - x for x in labels]
        elif op == "relabel_vertices":
            if sorted(step["perm"]) != list(range(n)):
                raise ValueError(f"trace step {i} moves vertices by no permutation")
            out = [0] * n
            for old, new in enumerate(step["perm"]):
                out[new] = labels[old]
            labels = out
        elif op == "decompose":
            split = decompose_by_addresses(degrees)
            redone.update(zip(("h_degrees", "p_map", "h_map"), map(list, split)))
        elif op == "broom":
            out = broom = broom_labels(step["leaf_count"], step["spine_length"], step["n"])
        elif op == "subtree":
            out = subtree = list(theorem1_label_by_addresses(split[0]))
        elif op == "shift":
            out = subtree = [x + step["amount"] for x in subtree]
        elif op == "reflect":
            out = subtree = [step["pivot"] - x for x in subtree]
        else:  # merge
            _, p_map, h_map = split
            if (len(broom), len(subtree)) != (len(p_map), len(h_map)) or broom[0] != subtree[0]:
                raise ValueError(f"trace step {i} merges a broom and a subtree that do not fit")
            out = labels = [0] * n
            for v, x in zip(p_map + h_map, broom + subtree):
                labels[v] = x
        if op != "decompose":
            redone["labels"] = out
        if redone != step:
            raise ValueError(f"trace step {i} ({op!r}) does not recompute")
    if labels is None or not graceful_on_rst(degrees, labels):
        raise ValueError("trace ends in no graceful labelling")
    return labels


def tree_edges_by_union_find(n: int, edges) -> tuple[tuple[int, int], ...]:
    """``GeneralTree(n, edges).edges`` for int pairs, by union-find alone.

    Raises the ValueError GeneralTree raises, with its message: pairs
    are checked in the order given, then the edge count, then the
    sorted edges in order, naming the first that joins two vertices
    already connected.
    """
    norm = []
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range")
        norm.append((min(u, v), max(u, v)))
    norm.sort()
    if len(norm) != n - 1:
        raise ValueError(f"a tree on {n} vertices needs {n - 1} edges, got {len(norm)}")
    root = list(range(n))

    def find(x: int) -> int:
        while root[x] != x:
            x = root[x]
        return x

    for u, v in norm:
        ru, rv = find(u), find(v)
        if ru == rv:
            raise ValueError(f"edge ({u},{v}) closes a cycle")
        root[rv] = ru
    return tuple(norm)


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
