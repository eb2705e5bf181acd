"""Vertex labellings, gracefulness checking, and label transforms.

A labelling of an n-vertex tree assigns the integers 0..n-1 bijectively
to the vertices.  It is graceful when the edge differences
``|label(u) - label(v)|`` hit each of 1..n-1 exactly once.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence, Union

from .model import Tree, _Frozen, _as_ints, _as_tuple


class Labelling(_Frozen):
    """A bijective assignment of 0..n-1 to vertex indices 0..n-1."""

    _fields = ("labels",)

    def __init__(self, labels: Iterable[int]) -> None:
        labels = _as_ints(labels, "label")
        n = len(labels)
        if n == 0:
            raise ValueError("a labelling cannot be empty")
        if not _is_permutation(labels, n):
            raise ValueError("labels must be a permutation of 0..n-1")
        self.__dict__.update(labels=labels)

    @property
    def n(self) -> int:
        return len(self.labels)

    def __getitem__(self, v: int) -> int:
        return self.labels[v]

    def __iter__(self) -> Iterator[int]:
        return iter(self.labels)

    def __len__(self) -> int:
        return len(self.labels)

    def vertex_with_label(self, value: int) -> int:
        return self.labels.index(value)


LabelsLike = Union[Labelling, Sequence[int]]


def _raw(labels: LabelsLike) -> tuple[int, ...]:
    if isinstance(labels, Labelling):
        return labels.labels
    return _as_ints(labels, "label")


def edge_labels(t: Tree, labels: LabelsLike) -> tuple[int, ...]:
    """Edge differences in the tree's canonical edge order."""
    raw = _raw(labels)
    if len(raw) != t.n:
        raise ValueError(f"labelling has {len(raw)} entries for a {t.n}-vertex tree")
    return tuple(abs(raw[u] - raw[v]) for u, v in t.edges)


def _is_permutation(raw: Sequence[int], n: int) -> bool:
    # n distinct integers between 0 and n-1 are exactly 0..n-1.
    return len(raw) == len(set(raw)) == n and min(raw) == 0 and max(raw) == n - 1


def is_graceful(t: Tree, labels: LabelsLike) -> bool:
    """True when ``labels`` is a graceful labelling of ``t``.

    Non-bijective label sequences of the right length are merely
    ungraceful, not errors; a length mismatch raises.
    """
    raw = _raw(labels)
    if len(raw) != t.n:
        raise ValueError(f"labelling has {len(raw)} entries for a {t.n}-vertex tree")
    if not _is_permutation(raw, t.n):
        return False
    # Distinct labels in 0..n-1 give differences in 1..n-1, so n-1
    # distinct ones are all of them.
    return len({abs(raw[u] - raw[v]) for u, v in t.edges}) == t.n - 1


def graceful_defect(t: Tree, labels: LabelsLike) -> str | None:
    """None for a graceful labelling, else a one-line reason naming the
    smallest repeated and the smallest missing edge difference."""
    if is_graceful(t, labels):
        return None
    raw = _raw(labels)
    if not _is_permutation(raw, t.n):
        return "labels are not a permutation of 0..n-1"
    seen: set[int] = set()
    repeated: set[int] = set()
    for d in edge_labels(t, raw):
        (repeated if d in seen else seen).add(d)
    missing = min(d for d in range(1, t.n) if d not in seen)
    return f"edge difference {min(repeated)} repeats and {missing} is missing"


def complement(f: Labelling) -> Labelling:
    """Replace each label b with n-1-b.  Preserves gracefulness."""
    top = f.n - 1
    return Labelling(tuple(top - b for b in f.labels))


def shift(labels: LabelsLike, amount: int) -> tuple[int, ...]:
    """Add a constant to every label.  The result is a raw tuple since
    it generally leaves the 0..n-1 range."""
    return tuple(b + amount for b in _raw(labels))


def reflect(labels: LabelsLike, pivot: int) -> tuple[int, ...]:
    """Replace each label b with pivot - b.  Raw tuple out, as with shift."""
    return tuple(pivot - b for b in _raw(labels))


class TranspositionProduct(_Frozen):
    """A permutation of label values given as disjoint transpositions."""

    _fields = ("swaps",)

    def __init__(self, swaps: Iterable[tuple[int, int]]) -> None:
        swaps = _as_tuple(swaps, "transposition list")
        swaps = tuple(_as_ints(pair, "label value") for pair in swaps)
        seen: set[int] = set()
        for a, b in swaps:
            if a == b:
                raise ValueError(f"transposition ({a},{b}) is degenerate")
            if a in seen or b in seen:
                raise ValueError("transpositions must be disjoint")
            seen.update((a, b))
        if any(x < 0 for x in seen):
            raise ValueError("label values must be non-negative")
        self.__dict__.update(swaps=swaps)


def apply_permutation(f: Labelling, perm: TranspositionProduct) -> Labelling:
    """Permute label values (not vertices) by a transposition product."""
    swap = dict(perm.swaps)
    swap.update((b, a) for a, b in perm.swaps)
    if any(x >= f.n for x in swap):
        raise ValueError("transposition moves a value outside the label range")
    return Labelling(tuple(swap.get(b, b) for b in f.labels))


def relabel_vertices(f: Labelling, vertex_perm: Sequence[int]) -> Labelling:
    """Carry a labelling across a vertex permutation.

    ``vertex_perm[old] = new``; the new vertex inherits the old vertex's
    label, so automorphisms of the tree preserve gracefulness.
    """
    vertex_perm = _as_ints(vertex_perm, "vertex")
    if not _is_permutation(vertex_perm, f.n):
        raise ValueError("vertex permutation must be a bijection on 0..n-1")
    out = [0] * f.n
    for old, new in enumerate(vertex_perm):
        out[new] = f.labels[old]
    return Labelling(tuple(out))

