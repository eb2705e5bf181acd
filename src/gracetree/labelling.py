"""Vertex labellings, gracefulness checking, and label transforms.

A labelling of an n-vertex tree assigns the integers 0..n-1 bijectively
to the vertices.  It is graceful when the edge differences
``|label(u) - label(v)|`` hit each of 1..n-1 exactly once.

Arguments are checked once, at the public boundary.  ``Labelling(...)``
checks labels that come from outside.  The label bijections
(``complement``, ``apply_permutation``, ``relabel_vertices``) map a
``Labelling`` onto 0..n-1 again, so they build their result through
``_trusted`` without checking it a second time; each still checks what
its caller passes, and refuses anything but a ``Labelling``.  The
constructions call ``relabel_vertices``'s core ``_relabel`` with an
automorphism they built, and build their own labellings through
``_trusted``.  Each function of ``construct`` and ``search`` that hands
out a whole-tree labelling proves it through ``_proven``: a permutation
and graceful at once, with its pins, on the tuple it hands out, not a
copy.  ``is_graceful`` checks a raw label sequence for being a
permutation and trusts a ``Labelling``; the edge differences it checks
in full either way.  Trees are proven once too: ``to_general`` shares a
rooted symmetric tree's edges unchecked.  The transforms map whole label
tuples.
"""

from __future__ import annotations

from itertools import repeat
from operator import add, sub
from typing import Iterable, Sequence, Union

from .model import Tree, _Frozen, _as_int, _as_ints, _as_tuple, _tree


class Labelling(_Frozen):
    """A bijective assignment of 0..n-1 to vertex indices 0..n-1: vertex
    v has label ``labels[v]``, and ``vertex_with_label`` reads it back."""

    _fields = ("labels",)

    def __init__(self, labels: Iterable[int]) -> None:
        labels = _as_ints(labels, "label")
        n = len(labels)
        if n == 0:
            raise ValueError("a labelling cannot be empty")
        if not _is_permutation(labels, n):
            raise ValueError("labels must be a permutation of 0..n-1")
        self.__dict__.update(labels=labels)

    def vertex_with_label(self, value: int) -> int:
        value = _as_int(value, "label")
        try:
            return self.labels.index(value)
        except ValueError:
            raise ValueError(f"label {value} is not in the labelling") from None


def _trusted(labels: tuple[int, ...]) -> Labelling:
    """A Labelling of ``labels`` without ``Labelling``'s check.

    Only for the image of a Labelling under a bijection of 0..n-1, for
    labels ``_proven`` has proven, and for a construction's labels, which
    it proves where they are handed out.
    """
    f = object.__new__(Labelling)
    f.__dict__["labels"] = labels
    return f


def _labelling(f) -> Labelling:
    """``f`` itself; ValueError naming it unless it is a Labelling."""
    if not isinstance(f, Labelling):
        raise ValueError(f"labelling {f!r} is not a Labelling")
    return f


LabelsLike = Union[Labelling, Sequence[int]]


def _raw(labels: LabelsLike) -> tuple[int, ...]:
    if isinstance(labels, Labelling):
        return labels.labels
    return _as_ints(labels, "label")


def _sized(t: Tree, labels: LabelsLike) -> tuple[int, ...]:
    """``labels`` as ints; ValueError unless there is one per vertex of ``t``."""
    raw = _raw(labels)
    if len(raw) != _tree(t).n:
        raise ValueError(f"labelling has {len(raw)} entries for a {t.n}-vertex tree")
    return raw


def edge_labels(t: Tree, labels: LabelsLike) -> tuple[int, ...]:
    """Edge differences in the tree's canonical edge order."""
    raw = _sized(t, labels)
    return tuple(abs(raw[u] - raw[v]) for u, v in t.edges)


def _is_permutation(raw: Sequence[int], n: int) -> bool:
    # n distinct integers between 0 and n-1 are exactly 0..n-1.
    return len(raw) == len(set(raw)) == n and min(raw) == 0 and max(raw) == n - 1


def is_graceful(t: Tree, labels: LabelsLike) -> bool:
    """True when ``labels`` is a graceful labelling of ``t``.

    Non-bijective label sequences of the right length are merely
    ungraceful, not errors; a length mismatch raises.  A Labelling was
    proven a permutation when it was made, so only raw sequences are
    checked for one here.
    """
    return _graceful_ints(t, _sized(t, labels), isinstance(labels, Labelling))


def _graceful_ints(t: Tree, raw: Sequence[int], permutation: bool = False) -> bool:
    """``is_graceful`` on ints, read as they are.  ``permutation`` says
    ``raw`` is proven one already, as a Labelling's labels are."""
    if not (permutation or _is_permutation(raw, t.n)):
        return False
    # Distinct labels in 0..n-1 give differences in 1..n-1, so n-1
    # distinct ones are all of them.
    # A comprehension: itemgetter or raw.__getitem__ maps over the edges run slower.
    return len({abs(raw[u] - raw[v]) for u, v in t.edges}) == t.n - 1


def _proven(t: Tree, labels: tuple[int, ...], pins: Iterable[tuple[int, int]] = ()) -> Labelling:
    """A Labelling of ``labels`` itself, proven a graceful labelling of
    ``t`` with label x on vertex v for each (v, x) of ``pins``: the one
    proof of each labelling ``construct`` and ``search`` hand out."""
    if not _graceful_ints(t, labels) or any(labels[v] != x for v, x in pins):
        raise RuntimeError("a labelling handed out is not graceful or misses a pin; this is a bug")
    return _trusted(labels)


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
    top = len(_labelling(f).labels) - 1
    return _trusted(tuple(map(sub, repeat(top), f.labels)))


def shift(labels: LabelsLike, amount: int) -> tuple[int, ...]:
    """Add a constant to every label.  The result is a raw tuple since
    it generally leaves the 0..n-1 range."""
    amount = _as_int(amount, "shift amount")
    return tuple(map(add, _raw(labels), repeat(amount)))


def reflect(labels: LabelsLike, pivot: int) -> tuple[int, ...]:
    """Replace each label b with pivot - b.  Raw tuple out, as with shift."""
    pivot = _as_int(pivot, "reflect pivot")
    return tuple(map(sub, repeat(pivot), _raw(labels)))


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
    n = len(_labelling(f).labels)
    swap = dict(perm.swaps)
    swap.update((b, a) for a, b in perm.swaps)
    if any(x >= n for x in swap):
        raise ValueError("transposition moves a value outside the label range")
    return _trusted(tuple(swap.get(b, b) for b in f.labels))


def relabel_vertices(f: Labelling, vertex_perm: Sequence[int]) -> Labelling:
    """Carry a labelling across a vertex permutation.

    ``vertex_perm[old] = new``; the new vertex inherits the old vertex's
    label, so automorphisms of the tree preserve gracefulness.
    """
    n = len(_labelling(f).labels)
    vertex_perm = _as_ints(vertex_perm, "vertex")
    if not _is_permutation(vertex_perm, n):
        raise ValueError("vertex permutation must be a bijection on 0..n-1")
    return _relabel(f, vertex_perm)


def _relabel(f: Labelling, vertex_perm: Sequence[int]) -> Labelling:
    """``relabel_vertices`` for a ``vertex_perm`` known to be a bijection
    on 0..n-1."""
    out = [0] * len(f.labels)
    for new, b in zip(vertex_perm, f.labels):
        out[new] = b
    return _trusted(tuple(out))

