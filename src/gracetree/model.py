"""Rooted symmetric trees, vertex addressing, and tree structure analysis.

A rooted symmetric tree is a rooted tree in which all vertices at the
same level have the same number of children.  It is fully described by
its daughter degree sequence ``(k_1, ..., k_{q-1})``: every level-``i``
vertex has exactly ``k_i`` children, and level ``q`` holds the leaves.

Vertices are indexed breadth-first, root first, with addresses in
lexicographic order inside each level, so conversion between an index
and an address is pure mixed-radix arithmetic (no stored tables beyond
the per-level offsets).

Everything in this module is immutable after construction and safe to
share across threads and worker processes.

This module also holds the package's two integer rules.  Library
arguments follow ``operator.index`` (``_as_int``, ``_as_ints``): a
float or a string is refused where ``int()`` would truncate or parse
it, and a bool passes as 0 or 1.  Values read from JSON documents,
search pins and node budgets must be exactly ``int`` (``_is_int``), so
a bool is refused too.  Either way a refusal is a ValueError.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from functools import cached_property
from itertools import accumulate, chain, compress, cycle, groupby, repeat
from operator import add, index, mul, not_, sub
from typing import Iterable, NamedTuple, Sequence, Union


class _Frozen:
    """Base of the immutable classes that validate their fields.

    ``__init__`` writes the names in ``_fields`` into ``__dict__`` once;
    equality, hashing and repr go over those fields only, so
    ``cached_property`` values stay out.  No ``__slots__``: unpickling
    fills ``__dict__`` without calling ``__setattr__``.
    """

    _fields: tuple[str, ...] = ()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"


def _as_int(value, what: str) -> int:
    """``value`` as an int by the index rule; ValueError naming it if not."""
    try:
        return index(value)
    except TypeError:
        raise ValueError(f"{what} {value!r} is not an integer") from None


def _as_tuple(values, what: str) -> tuple:
    """``tuple(values)``; ValueError naming ``values`` if not iterable."""
    try:
        return tuple(values)
    except TypeError:
        raise ValueError(f"{what} {values!r} is not iterable") from None


def _as_ints(values: Iterable[int], what: str) -> tuple[int, ...]:
    """``values`` as a tuple of ints by the index rule.

    A non-integer raises ValueError naming it.  A one-shot iterator is
    read once, so that the scan for the culprit sees the same values.
    """
    values = _as_tuple(values, f"{what} list")
    try:
        return tuple(map(index, values))
    except TypeError:
        for x in values:
            _as_int(x, what)
        raise


def _is_int(x) -> bool:
    """The exact rule: bool is an int subclass, and int() truncates floats."""
    return type(x) is int


def _degree_sequence(degrees: Sequence[int]) -> tuple[int, ...]:
    """Validate per-level child counts ``(k_1, ..., k_{q-1})``.

    The leaf level ``q`` is implicit and never stored.  A leading 0
    denotes the degenerate single-vertex tree; it only arises when a
    decomposition strips the final branch from a root with one child.
    All later entries must be positive.
    """
    degrees = _as_ints(degrees, "daughter degree")
    if not degrees:
        raise ValueError("daughter degree sequence must be non-empty")
    if degrees[0] < 0:
        raise ValueError("first entry must be >= 0")
    if degrees[0] == 0 and len(degrees) > 1:
        raise ValueError("a leading 0 must be the only entry")
    if min(degrees[1:], default=1) < 1:
        raise ValueError("entries after the first must be positive")
    return degrees


def level_numbers(degrees: Sequence[int]) -> tuple[int, ...]:
    """Vertex count of the subtree hanging below each level.

    ``h_q = 1`` and ``h_i = 1 + k_i * h_{i+1}``, so ``h_1`` is the size
    of the whole tree.  Exact integer arithmetic throughout.
    """
    degrees = _degree_sequence(degrees)
    if degrees[0] == 0:
        return (1,)
    hs = [1]
    for k in reversed(degrees):
        hs.append(1 + k * hs[-1])
    hs.reverse()
    return tuple(hs)


def sequence_label(degrees: Sequence[int]) -> str:
    """The paper's name of a rooted symmetric tree, its daughter degree
    sequence: ``"2,1,3"`` for (2, 1, 3)."""
    return ",".join(map(str, degrees))


class RootedSymmetricTree(_Frozen):
    """A tree built from a daughter degree sequence.

    Vertices are numbered level by level, each parent's children in a
    row; level r holds ``level_offsets[r-1]`` up to ``level_offsets[r]``.
    ``runs`` holds ``(k, m)`` for each maximal run of m equal daughter
    degrees k, from the root down; the one-vertex tree (0,) has none.
    A run of 1s is w paths side by side, each level the one above
    shifted by its width w, so the level arithmetic here and in
    ``construct`` takes a long run of 1s whole, not level by level.
    Exposes address-to-index conversion, per-vertex level and degree,
    and the same ``edges`` and ``adjacency`` as the equal GeneralTree,
    each built on first use.  Instances are immutable.
    """

    _fields = ("degrees",)

    def __init__(self, degrees: Sequence[int]) -> None:
        degrees = _degree_sequence(degrees)
        sizes = accumulate(degrees if degrees[0] else (), mul, initial=1)
        offsets = tuple(accumulate(sizes, initial=0))
        self.__dict__.update(
            degrees=degrees,
            runs=tuple([(k, len(tuple(g))) for k, g in groupby(degrees) if k]),
            q=len(offsets) - 1,
            n=offsets[-1],
            level_offsets=offsets,
        )

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """(parent, child) for every child in index order, one run at a
        time; this is the sorted order GeneralTree normalises to."""
        off = self.level_offsets
        edges: list[tuple[int, int]] = []
        i = 0
        for k, m in self.runs:
            # The parents on levels i+1..i+m are in a row, and so are
            # their children, k each.
            parents = range(off[i], off[i + m])
            if k > 1:
                parents = chain.from_iterable(map(repeat, parents, repeat(k)))
            edges.extend(zip(parents, range(off[i + 1], off[i + m + 1])))
            i += m
        return tuple(edges)

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        return _adjacency(self.n, self.edges)

    def level_of_index(self, i: int) -> int:
        i = _as_int(i, "vertex index")
        if not 0 <= i < self.n:
            raise ValueError(f"vertex index {i} out of range")
        return bisect_right(self.level_offsets, i)

    def degree(self, i: int) -> int:
        """k_r children, plus the parent below the root (k_q = 0)."""
        r = self.level_of_index(i)
        return (self.degrees[r - 1] if r < self.q else 0) + (r > 1)

    def index_of(self, address: Sequence[int]) -> int:
        address = _as_tuple(address, "address")
        r = len(address) + 1
        if r > self.q:
            raise ValueError(f"address {address} deeper than the tree")
        rank = 0
        for j, x in enumerate(address):
            x = _as_int(x, "address digit")
            k = self.degrees[j]
            if not 0 <= x < k:
                raise ValueError(f"address digit {x} out of range for level {j + 1}")
            rank = rank * k + x
        return self.level_offsets[r - 1] + rank


def build(degrees: Sequence[int]) -> RootedSymmetricTree:
    """Construct the rooted symmetric tree for a daughter degree sequence."""
    return RootedSymmetricTree(degrees)


def path_sequence(n: int) -> tuple[int, ...]:
    """Daughter degree sequence of the n-vertex path rooted at one end."""
    if n < 2:
        raise ValueError("a path needs at least 2 vertices")
    return (1,) * (n - 1)


class GeneralTree(_Frozen):
    """An unrooted tree on vertices ``0..n-1`` given by its edge list."""

    _fields = ("n", "edges")

    def __init__(self, n: int, edges: Sequence[tuple[int, int]]) -> None:
        n = _as_int(n, "vertex count")
        if n < 1:
            raise ValueError("a tree needs at least one vertex")
        norm = []
        for e in _as_tuple(edges, "edge list"):
            try:
                u, v = map(index, e)
            except (TypeError, ValueError):
                raise ValueError(f"edge {e!r} is not a pair of integers") from None
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range")
            norm.append((u, v) if u < v else (v, u))
        norm.sort()
        if len(norm) != n - 1:
            raise ValueError(f"a tree on {n} vertices needs {n - 1} edges, got {len(norm)}")
        # Union-find with path halving; hanging the later endpoint's root
        # under the earlier one keeps parent-first lists one level deep.
        parent = list(range(n))
        for u, v in norm:
            ru, rv = u, v
            while parent[ru] != ru:
                parent[ru] = ru = parent[parent[ru]]
            while parent[rv] != rv:
                parent[rv] = rv = parent[parent[rv]]
            if ru == rv:
                raise ValueError(f"edge ({u},{v}) closes a cycle")
            parent[rv] = ru
        self.__dict__.update(n=n, edges=tuple(norm))

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        return _adjacency(self.n, self.edges)

    def degree(self, v: int) -> int:
        v = _as_int(v, "vertex index")
        if not 0 <= v < self.n:
            raise ValueError(f"vertex index {v} out of range")
        return len(self.adjacency[v])


def _adjacency(n: int, edges: Sequence[tuple[int, int]]) -> tuple[tuple[int, ...], ...]:
    # Edges come sorted with u < v, so every (w, v) with w < v precedes
    # every (v, w) and each neighbour list is built in ascending order.
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return tuple(map(tuple, adj))


Tree = Union[GeneralTree, RootedSymmetricTree]


def _tree(t) -> Tree:
    """``t`` itself; ValueError naming it unless it is a tree."""
    if not isinstance(t, (GeneralTree, RootedSymmetricTree)):
        raise ValueError(f"tree {t!r} is not a GeneralTree or RootedSymmetricTree")
    return t


def _rooted(t, who: str) -> RootedSymmetricTree:
    """``t`` itself; ValueError naming ``who`` unless it is a rooted symmetric tree."""
    if not isinstance(t, RootedSymmetricTree):
        raise ValueError(f"{who} needs a rooted symmetric tree, not {type(t).__name__}")
    return t


def to_general(t: Tree) -> GeneralTree:
    """Forget the rooting; keeps the breadth-first vertex indexing.

    A rooted symmetric tree is one by construction, so its ``edges`` are
    shared, not checked again.  A GeneralTree comes back as it is."""
    if not isinstance(t, RootedSymmetricTree):
        return _tree(t)
    g = object.__new__(GeneralTree)
    g.__dict__.update(n=t.n, edges=t.edges)
    return g


class StructureFlags(NamedTuple):
    """Shape classification of an unrooted tree."""

    is_path: bool
    is_caterpillar: bool
    is_spider: bool
    is_symmetric_spider: bool
    is_symmetric_banana: bool


def rooted_sequence_at(t: Tree, root: int) -> tuple[int, ...] | None:
    """Daughter degree sequence of ``t`` rooted at ``root``.

    Returns None unless every level is child-count uniform with all
    leaves on the last level.  The single-vertex tree yields ``()``.
    """
    adj = _tree(t).adjacency
    level = [-1] * t.n
    level[root] = 0
    order = [root]
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if level[w] < 0:
                level[w] = level[v] + 1
                order.append(w)
                queue.append(w)
    depth = max(level)
    counts: list[set[int]] = [set() for _ in range(depth + 1)]
    for v in range(t.n):
        kids = len(adj[v]) - (0 if v == root else 1)
        counts[level[v]].add(kids)
    if counts[depth] != ({0} if t.n > 0 else set()):
        return None
    seq = []
    for lev in range(depth):
        if len(counts[lev]) != 1:
            return None
        seq.append(next(iter(counts[lev])))
    return tuple(seq)


def classify(t: Tree) -> StructureFlags:
    """Classify the shape of ``t``.

    A path with an odd vertex count (or with n <= 2) counts as a
    symmetric spider: its centre splits it into equal legs.
    """
    n = _tree(t).n
    adj = t.adjacency
    deg = [len(a) for a in adj]
    is_path = all(d <= 2 for d in deg)
    # Deleting the leaves leaves a path when no inner vertex has more
    # than two inner neighbours.
    is_caterpillar = all(
        deg[v] < 2 or sum(1 for w in adj[v] if deg[w] >= 2) <= 2 for v in range(n)
    )

    branch_points = [v for v in range(n) if deg[v] > 2]
    is_spider = len(branch_points) <= 1
    is_symmetric_spider = False
    if is_spider:
        if branch_points:
            b = branch_points[0]
            lengths = set()
            for start in adj[b]:
                prev, cur, length = b, start, 1
                while deg[cur] == 2:
                    nxt = adj[cur][0] if adj[cur][0] != prev else adj[cur][1]
                    prev, cur, length = cur, nxt, length + 1
                lengths.add(length)
            is_symmetric_spider = len(lengths) == 1
        else:
            is_symmetric_spider = n <= 2 or n % 2 == 1

    is_symmetric_banana = False
    for v in range(n):
        seq = rooted_sequence_at(t, v)
        if seq is not None and len(seq) == 3 and seq[1] == 1:
            is_symmetric_banana = True
            break

    return StructureFlags(
        is_path=is_path,
        is_caterpillar=is_caterpillar,
        is_spider=is_spider,
        is_symmetric_spider=is_symmetric_spider,
        is_symmetric_banana=is_symmetric_banana,
    )


class BroomDecomposition(NamedTuple):
    """Split of a rooted symmetric tree into P, the root plus the last
    root branch, and the remaining rooted symmetric subtree H.

    ``p_map[local]`` is the original vertex of P's local vertex (0 is
    the shared root, then the branch vertices in breadth-first order).
    ``subtree_h`` keeps all root branches except the last; its vertices
    map into the original tree through ``h_map``.
    """

    p_map: tuple[int, ...]
    subtree_h: RootedSymmetricTree
    h_map: tuple[int, ...]


def decompose(t: RootedSymmetricTree) -> BroomDecomposition:
    """Strip the last root branch (highest first digit) plus the root as P.

    Defined on every tree of two or more levels.  When the root has a
    single child, H degenerates to the one-vertex tree (sequence with
    first entry 0).
    """
    if _rooted(t, "decompose").q < 2:
        raise ValueError("decomposition needs at least 2 levels")
    degrees = t.degrees
    k1 = degrees[0]
    off = t.level_offsets
    # On every level below the root the last root branch is the last
    # 1/k1 of the level and H is the rest, both in index order.
    p_map, h_map = [0], [0]
    i = 0
    for k, m in t.runs:
        w = off[i + 1] - off[i]
        if k == 1 and 2 * w < m:  # a long run: the m levels below have width w
            in_p = (False,) * (w - w // k1) + (True,) * (w // k1)
            below = range(off[i + 1], off[i + m + 1])
            p_map += compress(below, cycle(in_p))
            h_map += compress(below, cycle(map(not_, in_p)))
        else:
            for j in range(i + 1, i + m + 1):
                lo, hi = off[j], off[j + 1]
                split = hi - (hi - lo) // k1
                p_map += range(split, hi)
                h_map += range(lo, split)
        i += m
    subtree_h = RootedSymmetricTree((k1 - 1,) + degrees[1:] if k1 > 1 else (0,))
    return BroomDecomposition(tuple(p_map), subtree_h, tuple(h_map))


def _intern(ids: dict, key: tuple) -> int:
    return ids.setdefault(key, len(ids))


def _subtree_codes(
    adj: Sequence[Sequence[int]], root: int, ids: dict
) -> tuple[list[int], list[int], list[int]]:
    """Interned AHU codes for the rooting at ``root``.

    code(v) is the id, in the caller's table ``ids``, of the sorted
    tuple of its children's codes.  Rootings coded against one table
    are isomorphic exactly when their root codes are equal.  Returns
    (codes, parent, breadth-first order).
    """
    parent = [-1] * len(adj)
    parent[root] = root
    order = [root]
    for v in order:
        for w in adj[v]:
            if parent[w] < 0:
                parent[w] = v
                order.append(w)
    parent[root] = -1
    codes = [0] * len(adj)
    for v in reversed(order):
        codes[v] = _intern(ids, tuple(sorted(codes[w] for w in adj[v] if parent[w] == v)))
    return codes, parent, order


def _centre(adj: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """The one or two vertices left after peeling leaves layer by layer."""
    deg = [len(a) for a in adj]
    layer = [v for v, d in enumerate(deg) if d <= 1]
    left = len(adj)
    while left > 2:
        left -= len(layer)
        nxt = []
        for v in layer:
            for w in adj[v]:
                deg[w] -= 1
                if deg[w] == 1:
                    nxt.append(w)
        layer = nxt
    return tuple(layer)


def vertex_orbits(t: Tree) -> tuple[tuple[int, ...], ...]:
    """Vertex orbits under the automorphism group, in linear time.

    Each orbit is sorted ascending, and the orbits come in the order of
    their smallest vertices.

    In a rooted symmetric tree with degrees ``ks`` and ``q`` levels the
    orbits come from the degree sequence alone.  Each level is an
    orbit, except when q > 1 and every k_i is 1 apart from, for odd q,
    the middle entry ``ks[(q-1)//2]``: a path, or a symmetric spider
    rooted at the end of a leg.  Then level r and level q+1-r form one
    orbit, and the middle level of an odd q stands alone.

    Proof: every automorphism of a tree fixes its centre, a vertex or
    an edge (Jordan, 1869).  If k_1 >= 2, the centre is the root, so
    every level is kept.  If k_1 = 1 and the tree is not a path, let j
    be the first level with k_j >= 2 and v its vertex.  The centre is
    on the leg from the root to v.  Above v it parts a bare path from a
    side holding v, which no automorphism swaps, so the root and every
    level are kept.  At v an automorphism may swap the leg above v with
    a branch below it; the two are alike only when every k after k_j is
    1 and q = 2j-1.

    In any other tree, every automorphism fixes the centre, or maps the
    central edge onto itself.  So the tree is coded once from the
    centre, each half of a central edge from its own end, and a vertex's
    orbit id interns its parent's orbit id with its own code: two
    vertices share an orbit exactly when their ids are equal.
    """
    if isinstance(t, RootedSymmetricTree):
        ks, q, off = t.degrees, t.q, t.level_offsets
        levels = [range(off[r], off[r + 1]) for r in range(q)]
        mid = (q - 1) // 2
        if any(k != 1 for k in ks[:mid] + ks[mid + q % 2 :]):
            return tuple(map(tuple, levels))
        return tuple(
            tuple(levels[r]) + tuple(levels[q - 1 - r]) if 2 * r < q - 1 else tuple(levels[r])
            for r in range(mid + 1)
        )
    adj = _tree(t).adjacency
    centre = _centre(adj)
    ids: dict = {}
    codes, parent, order = _subtree_codes(adj, centre[0], ids)
    if len(centre) == 2:
        a, b = centre
        codes[a] = _intern(ids, tuple(sorted(codes[w] for w in adj[a] if w != b)))
        parent[b] = -1
    orbit_ids: dict = {}
    orbit = [0] * t.n
    for v in order:
        p = parent[v]
        orbit[v] = _intern(orbit_ids, (orbit[p] if p >= 0 else -1, codes[v]))
    groups: dict[int, list[int]] = {}
    for v in range(t.n):
        groups.setdefault(orbit[v], []).append(v)
    # Each orbit enters ``groups`` at its smallest vertex, so in order.
    return tuple(tuple(vs) for vs in groups.values())


def _level_mapping(t: RootedSymmetricTree, src: int, dst: int) -> tuple[int, ...]:
    """``automorphism_mapping`` for two vertices on one level, built one
    run of equal daughter degrees at a time from the degree sequence.

    Rooted at ``src``, an ancestor's children are its parent and its
    children off the path to ``src``; every other vertex keeps its own
    children.  Pairing those in (code, index) order on both sides sends
    each ancestor of ``src`` to the ancestor of ``dst`` on its level, the
    off-path children of an ancestor in order onto the off-path children
    of its image, and the children of any other vertex by index.  A level
    with k > 1 children each is one slice assignment, then the
    ancestors' children reordered.  A run of 1s is one slice assignment
    in all: each of its vertices moves as far as its ancestor on the
    run's top level, and an ancestor's one child needs no reordering.
    """
    off = t.level_offsets
    r = t.level_of_index(src)
    width = off[r] - off[r - 1]
    xs, xd = src - off[r - 1], dst - off[r - 1]  # their ranks on level r
    perm = [0] * t.n
    i = 0
    for k, m in t.runs:
        if k == 1:
            lo, nlo = off[i], off[i + 1]
            moves = list(map(sub, perm[lo:nlo], range(lo, nlo)))
            perm[nlo : off[i + m + 1]] = map(add, range(nlo, off[i + m + 1]), cycle(moves))
        else:
            for j in range(i, i + m):
                lo, nlo = off[j], off[j + 1]
                # The children of vertex p on level j+1 start at nlo + k (p - lo).
                firsts = [k * p + nlo - k * lo for p in perm[lo:nlo]]
                ends = map(add, firsts, repeat(k))
                perm[nlo : off[j + 2]] = chain.from_iterable(map(range, firsts, ends))
                if j + 1 < r:
                    # a, b: the ranks of the ancestors of src and dst on
                    # level j+1, each with level-r descendants ``span``.
                    span = width // (nlo - lo)
                    a, b = xs // span, xd // span
                    kids = list(range(nlo + k * b, nlo + k * b + k))
                    kids.insert(xs // (span // k) - k * a, kids.pop(xd // (span // k) - k * b))
                    perm[nlo + k * a : nlo + k * a + k] = kids
        i += m
    return tuple(perm)


def automorphism_mapping(t: Tree, src: int, dst: int) -> tuple[int, ...]:
    """A tree automorphism (as an index permutation) sending src to dst.

    Children with equal subtree codes are paired in (code, index) order,
    so the mapping is deterministic.  Raises ValueError when either
    vertex is not an index of ``t`` or the two are not in the same
    orbit.  Two vertices on one level of a rooted symmetric tree are
    mapped by level arithmetic (``_level_mapping``), with the same result.
    """
    src, dst = _as_int(src, "vertex index"), _as_int(dst, "vertex index")
    for v in (src, dst):
        if not 0 <= v < _tree(t).n:
            raise ValueError(f"vertex index {v} out of range")
    if isinstance(t, RootedSymmetricTree) and t.level_of_index(src) == t.level_of_index(dst):
        return _level_mapping(t, src, dst)
    adj = t.adjacency
    ids: dict = {}
    cs, ps, _ = _subtree_codes(adj, src, ids)
    cd, pd, _ = _subtree_codes(adj, dst, ids)
    if cs[src] != cd[dst]:
        raise ValueError(f"vertices {src} and {dst} are not automorphism-equivalent")
    perm = [-1] * t.n
    stack = [(src, dst)]
    while stack:
        a, b = stack.pop()
        perm[a] = b
        ka = sorted((w for w in adj[a] if ps[w] == a), key=lambda w: (cs[w], w))
        kb = sorted((w for w in adj[b] if pd[w] == b), key=lambda w: (cd[w], w))
        for x, y in zip(ka, kb):
            if cs[x] != cd[y]:
                raise RuntimeError("child pairing failed despite equal parent codes")
            stack.append((x, y))
    return tuple(perm)


# ---------------------------------------------------------------------------
# serialization

def tree_to_dict(t: Tree) -> dict:
    if isinstance(t, RootedSymmetricTree):
        return {"kind": "rst", "degrees": list(t.degrees)}
    return {"kind": "general", "n": _tree(t).n, "edges": [list(e) for e in t.edges]}


def tree_from_dict(d: dict) -> Tree:
    if not isinstance(d, dict) or "kind" not in d:
        raise ValueError('tree document needs a "kind" field')
    kind = d["kind"]
    if kind == "rst":
        degrees = d.get("degrees")
        if not isinstance(degrees, list) or not degrees or not all(map(_is_int, degrees)):
            raise ValueError('rst document needs a non-empty "degrees" list of integers')
        return RootedSymmetricTree(degrees)
    if kind == "general":
        if "n" not in d or "edges" not in d:
            raise ValueError('general document needs "n" and "edges"')
        n, edges = d["n"], d["edges"]
        if not _is_int(n):
            raise ValueError('"n" must be an integer')
        if not isinstance(edges, list) or not all(
            isinstance(e, list) and len(e) == 2 and all(map(_is_int, e)) for e in edges
        ):
            raise ValueError('"edges" must be a list of [u, v] integer pairs')
        return GeneralTree(n, tuple(map(tuple, edges)))
    raise ValueError(f"unknown tree kind {kind!r}")


def to_dot(t: Tree, labels: Sequence[int] | None = None) -> str:
    """Graphviz DOT text, with vertex and edge annotations when a
    labelling is supplied."""
    _tree(t)
    if labels is not None:
        labels = _as_ints(labels, "label")
        if len(labels) != t.n:
            raise ValueError("labelling size does not match the tree")
    lines = ["graph gracetree {", "  node [shape=circle];"]
    for v in range(t.n):
        if labels is None:
            lines.append(f"  {v};")
        else:
            lines.append(f'  {v} [label="{labels[v]}"];')
    for u, v in t.edges:
        if labels is None:
            lines.append(f"  {u} -- {v};")
        else:
            lines.append(f'  {u} -- {v} [label="{abs(labels[u] - labels[v])}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
