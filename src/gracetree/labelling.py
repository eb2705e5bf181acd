"""Vertex labellings, gracefulness checking, and label transforms.

A labelling of an n-vertex tree assigns the integers 0..n-1 bijectively
to the vertices.  It is graceful when the edge differences
``|label(u) - label(v)|`` hit each of 1..n-1 exactly once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterator, Sequence, Union

from .model import Tree


@dataclass(frozen=True)
class Labelling:
    """A bijective assignment of 0..n-1 to vertex indices 0..n-1."""

    labels: tuple[int, ...]

    def __post_init__(self) -> None:
        labels = tuple(int(x) for x in self.labels)
        object.__setattr__(self, "labels", labels)
        n = len(labels)
        if n == 0:
            raise ValueError("a labelling cannot be empty")
        if sorted(labels) != list(range(n)):
            raise ValueError("labels must be a permutation of 0..n-1")

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
    return tuple(int(x) for x in labels)


def edge_labels(t: Tree, labels: LabelsLike) -> tuple[int, ...]:
    """Edge differences in the tree's canonical edge order."""
    raw = _raw(labels)
    if len(raw) != t.n:
        raise ValueError(f"labelling has {len(raw)} entries for a {t.n}-vertex tree")
    return tuple(abs(raw[u] - raw[v]) for u, v in t.edges)


def is_graceful(t: Tree, labels: LabelsLike) -> bool:
    """True when ``labels`` is a graceful labelling of ``t``.

    Non-bijective label sequences of the right length are merely
    ungraceful, not errors; a length mismatch raises.
    """
    raw = _raw(labels)
    if len(raw) != t.n:
        raise ValueError(f"labelling has {len(raw)} entries for a {t.n}-vertex tree")
    if sorted(raw) != list(range(t.n)):
        return False
    diffs = edge_labels(t, raw)
    return sorted(diffs) == list(range(1, t.n))


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


@dataclass(frozen=True)
class TranspositionProduct:
    """A permutation of label values given as disjoint transpositions."""

    swaps: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        swaps = tuple((int(a), int(b)) for a, b in self.swaps)
        object.__setattr__(self, "swaps", swaps)
        seen: set[int] = set()
        for a, b in swaps:
            if a == b:
                raise ValueError(f"transposition ({a},{b}) is degenerate")
            if a in seen or b in seen:
                raise ValueError("transpositions must be disjoint")
            seen.update((a, b))
        if any(x < 0 for x in seen):
            raise ValueError("label values must be non-negative")

    def apply_to_value(self, value: int) -> int:
        for a, b in self.swaps:
            if value == a:
                return b
            if value == b:
                return a
        return value


def apply_permutation(f: Labelling, perm: TranspositionProduct) -> Labelling:
    """Permute label values (not vertices) by a transposition product."""
    if any(x >= f.n for pair in perm.swaps for x in pair):
        raise ValueError("transposition moves a value outside the label range")
    return Labelling(tuple(perm.apply_to_value(b) for b in f.labels))


def relabel_vertices(f: Labelling, vertex_perm: Sequence[int]) -> Labelling:
    """Carry a labelling across a vertex permutation.

    ``vertex_perm[old] = new``; the new vertex inherits the old vertex's
    label, so automorphisms of the tree preserve gracefulness.
    """
    if sorted(vertex_perm) != list(range(f.n)):
        raise ValueError("vertex permutation must be a bijection on 0..n-1")
    out = [0] * f.n
    for old, new in enumerate(vertex_perm):
        out[new] = f.labels[old]
    return Labelling(tuple(out))


def labelling_to_json(f: Labelling, extra: dict | None = None) -> str:
    doc: dict = {"labels": list(f.labels)}
    if extra:
        doc.update(extra)
    return json.dumps(doc)


def labelling_from_json(text: str) -> Labelling:
    doc = json.loads(text)
    if not isinstance(doc, dict) or "labels" not in doc:
        raise ValueError('labelling document needs a "labels" field')
    return Labelling(tuple(doc["labels"]))
