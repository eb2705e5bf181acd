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
"""

from __future__ import annotations

import json
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence, Union


class UnsupportedConstruction(Exception):
    """Raised when a constructive labelling method does not apply.

    ``reason`` is one of the constants below; ``detail`` elaborates.
    """

    NOT_CATERPILLAR = "NotCaterpillar"
    NOT_BROOM = "NotBroom"
    NO_CONSTRUCTION = "NoConstruction"
    WRONG_LEVELS = "WrongLevelCount"

    def __init__(self, reason: str, detail: str = "") -> None:
        self.reason = reason
        self.detail = detail
        super().__init__(f"{reason}: {detail}" if detail else reason)


@dataclass(frozen=True)
class DaughterDegreeSequence:
    """Per-level child counts ``(k_1, ..., k_{q-1})``.

    The leaf level ``q`` is implicit and never stored.  A leading 0
    denotes the degenerate single-vertex tree; it only arises when a
    decomposition strips the final branch from a root with one child.
    All later entries must be positive.
    """

    degrees: tuple[int, ...]

    def __post_init__(self) -> None:
        degrees = tuple(int(k) for k in self.degrees)
        object.__setattr__(self, "degrees", degrees)
        if not degrees:
            raise ValueError("daughter degree sequence must be non-empty")
        if degrees[0] < 0:
            raise ValueError("first entry must be >= 0")
        if degrees[0] == 0 and len(degrees) > 1:
            raise ValueError("a leading 0 must be the only entry")
        if any(k < 1 for k in degrees[1:]):
            raise ValueError("entries after the first must be positive")

    @property
    def is_trivial(self) -> bool:
        return self.degrees[0] == 0

    @property
    def q(self) -> int:
        """Number of levels including the root level."""
        return 1 if self.is_trivial else len(self.degrees) + 1

    def __iter__(self) -> Iterator[int]:
        return iter(self.degrees)

    def __len__(self) -> int:
        return len(self.degrees)


SequenceLike = Union[DaughterDegreeSequence, Sequence[int]]


def _coerce_sequence(seq: SequenceLike) -> DaughterDegreeSequence:
    if isinstance(seq, DaughterDegreeSequence):
        return seq
    return DaughterDegreeSequence(tuple(seq))


def level_numbers(seq: SequenceLike) -> tuple[int, ...]:
    """Vertex count of the subtree hanging below each level.

    ``h_q = 1`` and ``h_i = 1 + k_i * h_{i+1}``, so ``h_1`` is the size
    of the whole tree.  Exact integer arithmetic throughout.
    """
    seq = _coerce_sequence(seq)
    if seq.is_trivial:
        return (1,)
    hs = [1]
    for k in reversed(seq.degrees):
        hs.append(1 + k * hs[-1])
    hs.reverse()
    return tuple(hs)


@dataclass(frozen=True)
class VertexAddress:
    """Child indices ``(x_1, ..., x_{r-1})`` locating a level-``r`` vertex.

    The empty address is the root.
    """

    indices: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        indices = tuple(int(x) for x in self.indices)
        object.__setattr__(self, "indices", indices)
        if any(x < 0 for x in indices):
            raise ValueError("address digits must be non-negative")

    @property
    def level(self) -> int:
        return len(self.indices) + 1

    def parent(self) -> "VertexAddress":
        if not self.indices:
            raise ValueError("the root has no parent")
        return VertexAddress(self.indices[:-1])

    def child(self, i: int) -> "VertexAddress":
        return VertexAddress(self.indices + (i,))


AddressLike = Union[VertexAddress, Sequence[int]]


def _coerce_address(address: AddressLike) -> tuple[int, ...]:
    if isinstance(address, VertexAddress):
        return address.indices
    return tuple(int(x) for x in address)


class RootedSymmetricTree:
    """A tree built from a daughter degree sequence.

    Exposes arithmetic index/address conversion, parent/child lookup,
    per-level bookkeeping, and the same ``edges`` and ``adjacency`` as
    the equal GeneralTree, each built on first use.  Instances are
    immutable.
    """

    def __init__(self, seq: SequenceLike) -> None:
        seq = _coerce_sequence(seq)
        hs = level_numbers(seq)
        object.__setattr__(self, "seq", seq)
        object.__setattr__(self, "level_numbers", hs)
        object.__setattr__(self, "q", seq.q)
        object.__setattr__(self, "n", hs[0])
        sizes = [1]
        if not seq.is_trivial:
            for k in seq.degrees:
                sizes.append(sizes[-1] * k)
        sizes = sizes[: self.q]
        offsets = [0]
        for s in sizes:
            offsets.append(offsets[-1] + s)
        object.__setattr__(self, "level_sizes", tuple(sizes))
        object.__setattr__(self, "level_offsets", tuple(offsets))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("RootedSymmetricTree is immutable")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RootedSymmetricTree) and self.seq == other.seq
        )

    def __hash__(self) -> int:
        return hash(("RootedSymmetricTree", self.seq))

    def __repr__(self) -> str:
        return f"RootedSymmetricTree({self.seq.degrees!r})"

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """(parent, child) for every child in index order, one level at a
        time; this is the sorted order GeneralTree normalises to."""
        edges: list[tuple[int, int]] = []
        for r in range(1, self.q):
            k = self.seq.degrees[r - 1]
            lo, first = self.level_offsets[r - 1], self.level_offsets[r]
            edges.extend((lo + j // k, first + j) for j in range(self.level_sizes[r]))
        return tuple(edges)

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        return _adjacency(self.n, self.edges)

    def level_of_index(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise ValueError(f"vertex index {i} out of range")
        return bisect_right(self.level_offsets, i)

    def vertices_at_level(self, r: int) -> range:
        if not 1 <= r <= self.q:
            raise ValueError(f"level {r} out of range")
        return range(self.level_offsets[r - 1], self.level_offsets[r])

    def index_of(self, address: AddressLike) -> int:
        digits = _coerce_address(address)
        r = len(digits) + 1
        if r > self.q:
            raise ValueError(f"address {digits} deeper than the tree")
        rank = 0
        for j, x in enumerate(digits):
            k = self.seq.degrees[j]
            if not 0 <= x < k:
                raise ValueError(f"address digit {x} out of range for level {j + 1}")
            rank = rank * k + x
        return self.level_offsets[r - 1] + rank

    def address_of(self, i: int) -> VertexAddress:
        r = self.level_of_index(i)
        rank = i - self.level_offsets[r - 1]
        digits = [0] * (r - 1)
        for j in range(r - 2, -1, -1):
            rank, digits[j] = divmod(rank, self.seq.degrees[j])
        return VertexAddress(tuple(digits))

    def parent_index(self, i: int) -> int:
        r = self.level_of_index(i)
        if r == 1:
            raise ValueError("the root has no parent")
        rank = i - self.level_offsets[r - 1]
        return self.level_offsets[r - 2] + rank // self.seq.degrees[r - 2]

    def children_indices(self, i: int) -> range:
        r = self.level_of_index(i)
        if r >= self.q:
            return range(0)
        k = self.seq.degrees[r - 1]
        rank = i - self.level_offsets[r - 1]
        first = self.level_offsets[r] + rank * k
        return range(first, first + k)


def build(seq: SequenceLike) -> RootedSymmetricTree:
    """Construct the rooted symmetric tree for a daughter degree sequence."""
    return RootedSymmetricTree(seq)


def path_sequence(n: int) -> DaughterDegreeSequence:
    """Daughter degree sequence of the n-vertex path rooted at one end."""
    if n < 2:
        raise ValueError("a path needs at least 2 vertices")
    return DaughterDegreeSequence((1,) * (n - 1))


@dataclass(frozen=True)
class GeneralTree:
    """An unrooted tree on vertices ``0..n-1`` given by its edge list."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        n = int(self.n)
        if n < 1:
            raise ValueError("a tree needs at least one vertex")
        norm = []
        for e in self.edges:
            u, v = int(e[0]), int(e[1])
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range")
            norm.append((u, v) if u < v else (v, u))
        norm.sort()
        if len(norm) != n - 1:
            raise ValueError(f"a tree on {n} vertices needs {n - 1} edges, got {len(norm)}")
        parent = list(range(n))

        def find(a: int) -> int:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for u, v in norm:
            ru, rv = find(u), find(v)
            if ru == rv:
                raise ValueError(f"edge ({u},{v}) closes a cycle")
            parent[ru] = rv
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(norm))

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        return _adjacency(self.n, self.edges)

    def degree(self, v: int) -> int:
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


def to_general(t: RootedSymmetricTree) -> GeneralTree:
    """Forget the rooting; keeps the breadth-first vertex indexing."""
    return GeneralTree(t.n, t.edges)


@dataclass(frozen=True)
class StructureFlags:
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
    adj = t.adjacency
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


def _is_caterpillar(adj: Sequence[Sequence[int]]) -> bool:
    """True when no inner vertex has more than two inner neighbours,
    that is, when deleting the leaves leaves a path."""
    deg = [len(a) for a in adj]
    return all(
        deg[v] < 2 or sum(1 for w in adj[v] if deg[w] >= 2) <= 2
        for v in range(len(adj))
    )


def classify(t: Tree) -> StructureFlags:
    """Classify the shape of ``t``.

    A path with an odd vertex count (or with n <= 2) counts as a
    symmetric spider: its centre splits it into equal legs.
    """
    n = t.n
    adj = t.adjacency
    deg = [len(a) for a in adj]
    is_path = all(d <= 2 for d in deg)
    is_caterpillar = _is_caterpillar(adj)

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


@dataclass(frozen=True)
class BroomDecomposition:
    """Split of a rooted symmetric tree into a pendant caterpillar P and
    the remaining rooted symmetric subtree H, sharing the root.

    ``caterpillar_p`` is P on its own local indices (0 is the shared
    root, then the branch vertices in breadth-first order);
    ``p_map[local]`` is the corresponding vertex of the original tree.
    ``subtree_h`` keeps all root branches except the last; its vertices
    map into the original tree through ``h_map``.
    """

    tree: RootedSymmetricTree
    caterpillar_p: GeneralTree
    p_map: tuple[int, ...]
    p: int
    subtree_h: RootedSymmetricTree
    h_map: tuple[int, ...]
    root_identification: int = 0


def decompose(t: RootedSymmetricTree) -> BroomDecomposition:
    """Strip the last root branch (highest first digit) plus the root as P.

    Raises UnsupportedConstruction(NotCaterpillar) when P is not a
    caterpillar.  When the root has a single child, H degenerates to the
    one-vertex tree (sequence with first entry 0).
    """
    if t.q < 2:
        raise ValueError("decomposition needs at least 2 levels")
    degrees = t.seq.degrees
    k1 = degrees[0]
    # On every level the last root branch is the last 1/k1 of the level
    # and H is the rest, both in index order.  P on its local indices is
    # the tree whose root has that one branch.
    p_map = [0]
    h_map = [0]
    for r in range(2, t.q + 1):
        lo, hi = t.level_offsets[r - 1], t.level_offsets[r]
        split = hi - (hi - lo) // k1
        p_map.extend(range(split, hi))
        h_map.extend(range(lo, split))
    caterpillar_p = to_general(RootedSymmetricTree((1,) + degrees[1:]))
    if not _is_caterpillar(caterpillar_p.adjacency):
        raise UnsupportedConstruction(
            UnsupportedConstruction.NOT_CATERPILLAR,
            f"last branch of {degrees} plus the root is not a caterpillar",
        )

    subtree_h = RootedSymmetricTree((k1 - 1,) + degrees[1:] if k1 > 1 else (0,))
    p = len(p_map)
    if p != t.level_numbers[1] + 1 or p + subtree_h.n != t.n + 1:
        raise RuntimeError("decomposition size bookkeeping failed")
    return BroomDecomposition(
        tree=t,
        caterpillar_p=caterpillar_p,
        p_map=tuple(p_map),
        p=p,
        subtree_h=subtree_h,
        h_map=tuple(h_map),
        root_identification=0,
    )


@dataclass(frozen=True)
class OrbitPartition:
    """Vertex orbits under the automorphism group, each sorted ascending."""

    orbits: tuple[tuple[int, ...], ...]

    @cached_property
    def _index(self) -> dict[int, int]:
        return {v: o[0] for o in self.orbits for v in o}

    def representative_of(self, v: int) -> int:
        return self._index[v]

    def __len__(self) -> int:
        return len(self.orbits)


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


def vertex_orbits(t: Tree) -> OrbitPartition:
    """Vertex orbits under the automorphism group, in linear time.

    Every automorphism fixes the centre, or maps the central edge onto
    itself.  So the tree is coded once from the centre, each half of a
    central edge from its own end, and a vertex's orbit id interns its
    parent's orbit id with its own code: two vertices share an orbit
    exactly when their ids are equal.
    """
    adj = t.adjacency
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
    return OrbitPartition(tuple(tuple(vs) for vs in groups.values()))


def automorphism_mapping(t: Tree, src: int, dst: int) -> tuple[int, ...]:
    """A tree automorphism (as an index permutation) sending src to dst.

    Children with equal subtree codes are paired in (code, index) order,
    so the mapping is deterministic.  Raises ValueError when the two
    vertices are not in the same orbit.
    """
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
        return {"kind": "rst", "degrees": list(t.seq.degrees)}
    return {"kind": "general", "n": t.n, "edges": [list(e) for e in t.edges]}


def tree_to_json(t: Tree) -> str:
    return json.dumps(tree_to_dict(t))


def _is_int(x) -> bool:
    # JSON integers only: bool is an int subclass, and int() truncates floats.
    return type(x) is int


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


def tree_from_json(text: str) -> Tree:
    return tree_from_dict(json.loads(text))


def to_dot(
    t: Tree,
    labels: Sequence[int] | None = None,
    name: str = "gracetree",
) -> str:
    """Graphviz DOT text, with vertex and edge annotations when a
    labelling is supplied."""
    if labels is not None and len(labels) != t.n:
        raise ValueError("labelling size does not match the tree")
    lines = [f"graph {name} {{", "  node [shape=circle];"]
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
