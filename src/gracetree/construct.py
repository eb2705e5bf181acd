"""Closed-form graceful labellings of rooted symmetric trees.

Three constructions are implemented:

* a direct alternating formula that labels any rooted symmetric tree,
  placing 0 on the root: defined on vertex addresses, it is computed
  level by level from the labels of the level above;
* a transposition product that moves 0 from the root to a deepest leaf
  on three-level trees;
* a composition that splits off the last root branch as a broom,
  labels the broom with extreme values and the remaining subtree with
  a shifted or reflected copy of the direct formula, putting 0 on a
  deepest leaf and n-1 one level up.

``zero_at`` places 0 or n-1 on a chosen vertex: it picks the direct
formula or the composition as the base by the vertex's level, and it
alone decides whether to complement the base, which swaps 0 and n-1.

Each public entry checks its arguments, refusing what it cannot label
with a ValueError, and calls a private core that trusts them
(``_zero_at``, ``_compose``, ``_theorem1_labels``).  ``zero_at_levels``
says beforehand where ``zero_at`` reaches; the sweep calls ``_zero_at``
only there, with the level it already has.  No step of a construction
checks its parameters, proves what an earlier one built, or copies the
labels it was handed.  Each function that hands out a whole-tree
labelling proves it through ``labelling._proven``, a permutation and
graceful with 0 or n-1 where asked, on the tuple it hands out: a failure
is a bug in the construction and raises RuntimeError.

Every public entry point that performs a multi-step construction also
returns a trace: the steps it ran, each with its parameters and the
label snapshot it produced.  Each construction is straight-line code
that computes its labellings in turn and records each one with
``_step``; the ``decompose`` step records index maps, not labels.  A
step holds the construction's own immutable tuples, not copies:
``ConstructionTrace.to_dict`` writes them out as fresh lists.
"""

from __future__ import annotations

from itertools import chain, repeat
from operator import add, sub
from typing import NamedTuple

from .labelling import (
    Labelling,
    TranspositionProduct,
    _proven,
    _relabel,
    _trusted,
    apply_permutation,
    complement,
)
from .model import (
    RootedSymmetricTree,
    _as_int,
    _level_mapping,
    _rooted,
    decompose,
)

# Unused here, but perfbench/spans.py wraps them at this module's lookup site.
from .labelling import is_graceful, relabel_vertices  # noqa: F401
from .model import automorphism_mapping, to_general  # noqa: F401

METHOD_THEOREM1 = "theorem1"
METHOD_THEOREM2_ODD = "theorem2_odd"
METHOD_THEOREM2_EVEN = "theorem2_even"
METHOD_LEMMA1 = "lemma1"
METHOD_COMPLEMENT = "complement_of"
METHOD_STAR = "star_direct"
METHOD_SEARCH = "search_fallback"


class ConstructionTrace(NamedTuple):
    """How a labelling was produced: a method name plus the steps run.

    Each step is a dict in the ``--explain`` shape: an ``op`` key, the
    op's parameters, and the label snapshot it produced.  A snapshot, an
    index map or a permutation is the very tuple the construction built,
    not a copy; ``to_dict`` writes each as a fresh list.  Treat steps as
    read-only.  Dicts are unhashable, so a trace with steps is too.
    """

    method: str
    steps: tuple[dict, ...]

    def to_dict(self) -> dict:
        steps = [{key: _lists(value) for key, value in step.items()} for step in self.steps]
        return {"method": self.method, "steps": steps}


def _lists(value: object) -> object:
    """``value`` with each tuple in it, at any depth, a fresh list."""
    return [_lists(x) for x in value] if isinstance(value, tuple) else value


def theorem1_label(t: RootedSymmetricTree) -> Labelling:
    """Graceful labelling straight from vertex addresses.

    The root gets 0.  A vertex at level r with address (x_1, ..., x_{r-1})
    has the sum A = sum_j x_j h_{j+1}, with h_j the per-level subtree
    sizes, and gets

        even r:  k_1 h_2 - A - (r - 2)/2
        odd  r:  A + (r - 1)/2

    Let top = k_1 h_2 = n - 1.  A parent on level s - 1 with the sum A
    has the label p = A + (s - 2)/2 if s - 1 is odd and p = top - A -
    (s - 3)/2 if it is even; its child at digit x has the sum A + x h_s,
    so that child gets

        even s:  top - p - x h_s
        odd  s:  top + 1 - p + x h_s

    Each level is built from its parents' labels, without any address
    sum: one ``range`` per parent, or one ``map`` over the parents where
    each has one child.  Two levels down a run of 1s every label of an
    even level is 1 less and every label of an odd level 1 more, so a
    run of 1s more than twice as long as its levels are wide is filled
    by columns instead: two ``range`` slices per vertex of the level
    above it.
    """
    return _proven(t, tuple(_theorem1_labels(_rooted(t, "theorem1_label"))))


def _theorem1_labels(t: RootedSymmetricTree) -> list[int]:
    """``theorem1_label``'s labels as a list, unproven."""
    n, off = t.n, t.level_offsets
    labels, row = [0], [0]  # row: the labels of the last level filled
    r = 2  # the top level of the run
    for k, m in t.runs:
        if k == 1 and 2 * len(row) < m:  # fewer columns than levels
            # Under a parent labelled p, level r gets c - p and level r+1
            # p - dr; down a column the labels of levels r, r+2, ... step
            # by dr and those of levels r+1, r+3, ... by -dr.
            w, c, dr = len(row), n - 1 + r % 2, r % 2 * 2 - 1
            run = [0] * (m * w)
            for col, p in enumerate(row):
                run[col :: 2 * w] = range(c - p, c - p + dr * ((m + 1) // 2), dr)
                run[col + w :: 2 * w] = range(p - dr, p - dr * (m // 2 + 1), -dr)
            labels += run
            row = run[-w:]
        else:
            for s in range(r, r + m):
                # Under a parent labelled p the child at digit x gets c - p + x d:
                # c, d = top, -h_s on an even level s and top + 1, h_s on an odd one.
                c = n - 1 + s % 2
                if k > 1:
                    h = (n - off[s - 1]) // (off[s] - off[s - 1])  # h_s
                    d = h if s % 2 else -h
                    starts, stops = map(sub, repeat(c), row), map(sub, repeat(c + k * d), row)
                    row = list(chain.from_iterable(map(range, starts, stops, repeat(d))))
                else:
                    row = list(map(sub, repeat(c), row))
                labels += row
        r += m
    return labels


def lemma1_product(t: RootedSymmetricTree) -> TranspositionProduct:
    """Value swaps that move 0 to a deepest leaf on a three-level tree.

    For daughter degrees (k_1, k_2) the product swaps i*h_2 with
    i*h_2 + k_2 for each i < k_1.  Applied to the direct labelling it
    stays graceful and sends 0 to the leaf at address (0, k_2 - 1).
    """
    if _rooted(t, "lemma1_product").q != 3:
        raise ValueError(f"the swap product needs exactly 3 levels, tree has {t.q}")
    k1 = t.degrees[0]
    k2 = t.degrees[1]
    h2 = (t.n - 1) // k1
    return TranspositionProduct(tuple((i * h2, i * h2 + k2) for i in range(k1)))


def lemma1_label(t: RootedSymmetricTree) -> tuple[Labelling, ConstructionTrace]:
    """Label a three-level tree gracefully with 0 at a deepest leaf."""
    product = lemma1_product(_rooted(t, "lemma1_label"))
    base = _trusted(tuple(_theorem1_labels(t)))
    f = apply_permutation(base, product)
    steps = (
        _step("theorem1", base.labels),
        _step("apply_permutation", f.labels, swaps=product.swaps),
    )
    return _proven(t, f.labels), ConstructionTrace(METHOD_LEMMA1, steps)


def _broom_labels(leaf_count: int, spine_length: int, n: int) -> tuple[int, ...]:
    """Extreme-value labelling of a broom inside an n-label budget.

    The broom is a spine of ``spine_length`` >= 1 vertices (root
    included) whose deepest vertex carries ``leaf_count`` >= 1 pendant
    leaves, and n is at least its vertex count.  Leaves take
    0..leaf_count-1; the spine, walked from its deep end up to the root,
    alternates between the largest unused high label and the smallest
    unused low label.  The edge differences then form one contiguous run
    at the very top of 1..n-1; a composition proves that with the rest
    of its labelling, where it hands the labelling out.

    Returns labels in local order: root, spine down to the deep vertex,
    then the leaves.
    """
    deep_to_root = [0] * spine_length
    deep_to_root[::2] = range(n - 1, n - 1 - (spine_length + 1) // 2, -1)
    deep_to_root[1::2] = range(leaf_count, leaf_count + spine_length // 2)
    return tuple(reversed(deep_to_root)) + tuple(range(leaf_count))


def compose_theorem2(t: RootedSymmetricTree) -> tuple[Labelling, ConstructionTrace]:
    """Graceful labelling with 0 on a deepest leaf and n-1 on that leaf's
    neighbour one level up.

    Works when the last root branch is a broom: either the tree has
    exactly three levels, or every intermediate daughter degree is 1.
    The branch is labelled with the extreme values, the rest of the tree
    with the direct formula shifted (odd level count) or reflected (even
    level count) onto the remaining middle values.  ``zero_at``
    complements the result when it needs the two extremes swapped.
    Any other tree raises ValueError.
    """
    q = _rooted(t, "compose_theorem2").q
    if q < 3:
        raise ValueError(f"branch composition needs at least 3 levels, tree has {q}")
    if q not in zero_at_levels(t):
        raise ValueError(f"intermediate daughter degrees of {t.degrees} are not all 1")
    labels, trace = _compose(t)
    return _proven(t, labels), trace


def _compose(t: RootedSymmetricTree) -> tuple[tuple[int, ...], ConstructionTrace]:
    """``compose_theorem2``'s labels, unproven, and trace on a tree it accepts."""
    q, n, k = t.q, t.n, t.degrees[-1]
    dec = decompose(t)
    broom = _broom_labels(k, q - 1, n)
    h = tuple(_theorem1_labels(dec.subtree_h))
    # Move the subtree's root onto the broom's root label.
    if q % 2 == 1:
        amount = k + (q - 3) // 2
        moved = tuple(map(add, h, repeat(amount)))
        move = _step("shift", moved, amount=amount)
    else:
        pivot = n - q // 2
        moved = tuple(map(sub, repeat(pivot), h))
        move = _step("reflect", moved, pivot=pivot)
    # The broom's labels on P's vertices, the subtree's on H's; both give
    # the root, vertex 0, the same label.
    full = [-1] * n
    for gi, x in zip(chain(dec.p_map, dec.h_map), chain(broom, moved)):
        full[gi] = x
    full = tuple(full)
    steps = (
        {"op": "decompose", "h_degrees": dec.subtree_h.degrees, "p_map": dec.p_map, "h_map": dec.h_map},
        _step("broom", broom, leaf_count=k, spine_length=q - 1, n=n),
        _step("subtree", h),
        move,
        _step("merge", full),
    )
    method = METHOD_THEOREM2_ODD if q % 2 == 1 else METHOD_THEOREM2_EVEN
    return full, ConstructionTrace(method, steps)


class ZeroAtRequest(NamedTuple):
    """Ask for a graceful labelling with a chosen extreme label at a
    chosen vertex.

    ``target`` is a vertex index (``tree.index_of`` gives the one at an
    address); ``desired_label`` must be 0 or n-1.
    """

    tree: RootedSymmetricTree
    target: int
    desired_label: int = 0


def zero_at_levels(t: RootedSymmetricTree) -> tuple[int, ...]:
    """Levels ``zero_at`` reaches, ascending and each once: 1 and 2, and
    q-1 and q when degrees[1:-1] are all 1, as far as the tree has them."""
    q = _rooted(t, "zero_at_levels").q
    if q > 3 and max(t.degrees[1:-1]) > 1:
        return (1, 2)
    return (1, 2, 3, 4)[:q] if q < 5 else (1, 2, q - 1, q)


def zero_at(req: ZeroAtRequest) -> tuple[Labelling, ConstructionTrace]:
    """Constructive placement of an extreme label at a target vertex.

    The base is the direct formula (0 on level 1, n-1 on level 2) for
    the two top levels and the broom composition (0 on level q, n-1 on
    level q-1) for the two deepest, where ``zero_at_levels`` has them;
    any other level raises ValueError.  The base is complemented
    when it puts the other extreme on the target's level, and the result
    is moved onto the target vertex by a tree automorphism when needed.
    """
    t = _rooted(req.tree, "zero_at")
    if isinstance(req.target, bool):  # else True would pass as vertex 1
        raise ValueError("target must be a vertex index, not a bool")
    target = _as_int(req.target, "target")
    desired = _as_int(req.desired_label, "desired label")
    if desired not in (0, t.n - 1):
        raise ValueError(f"desired label must be 0 or {t.n - 1}, got {desired}")
    level = t.level_of_index(target)
    if level not in zero_at_levels(t):
        raise ValueError(f"no constructive placement for level {level} of a {t.q}-level tree")
    return _zero_at(t, target, level, desired)


def _zero_at(
    t: RootedSymmetricTree, target: int, level: int, desired: int
) -> tuple[Labelling, ConstructionTrace]:
    """``zero_at`` for a vertex ``target`` of ``t`` on ``level``, one of
    ``zero_at_levels(t)``, and a ``desired`` label of 0 or n-1."""
    q = t.q
    if level <= 2:
        zero_level = 1
        labels = tuple(_theorem1_labels(t))
        steps = [_step("theorem1", labels)]
        method = METHOD_STAR if q <= 2 else METHOD_THEOREM1
    else:
        zero_level = q
        labels, base = _compose(t)
        steps = list(base.steps)
        method = base.method
    f = _trusted(labels)
    if (desired == 0) != (level == zero_level):
        f = complement(f)
        steps.append(_step("complement", f.labels))
        if method == METHOD_THEOREM1:
            method = METHOD_COMPLEMENT

    holder = f.vertex_with_label(desired)
    if holder != target:
        perm = _level_mapping(t, holder, target)
        f = _relabel(f, perm)
        steps.append(_step("relabel_vertices", f.labels, perm=perm))
    return _proven(t, f.labels, ((target, desired),)), ConstructionTrace(method, tuple(steps))


def _step(op: str, out: tuple[int, ...], **params) -> dict:
    """A construction step in the ``--explain`` shape: ``op``, its
    parameters, and the labels ``out`` it produced, uncopied."""
    return {"op": op, **params, "labels": out}
