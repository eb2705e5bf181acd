"""Closed-form graceful labellings of rooted symmetric trees.

Three constructions are implemented:

* a direct alternating formula that labels any rooted symmetric tree
  from vertex addresses alone, placing 0 on the root;
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
labelling proves it once, a permutation and graceful, with
``labelling._graceful_ints`` on the tuple it hands out: a failure is a
bug in the construction and raises RuntimeError.

Every public entry point that performs a multi-step construction also
returns a trace: the steps it ran, each with its parameters and the
label snapshot it produced.  Each construction is straight-line code
that computes its labellings in turn and records each one with
``_step``; the ``decompose`` step records index maps, not labels.
"""

from __future__ import annotations

from itertools import chain, repeat
from operator import add, sub
from typing import NamedTuple, Sequence, Union

from .labelling import (
    Labelling,
    TranspositionProduct,
    _graceful_ints,
    _relabel,
    _trusted,
    apply_permutation,
    complement,
)
from .model import (
    RootedSymmetricTree,
    Tree,
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
    op's parameters, and the label snapshot it produced.  Treat steps as
    read-only.  Dicts are unhashable, so a trace with steps is too.
    """

    method: str
    steps: tuple[dict, ...]

    def to_dict(self) -> dict:
        return {"method": self.method, "steps": list(self.steps)}


def theorem1_label(t: RootedSymmetricTree) -> Labelling:
    """Graceful labelling straight from vertex addresses.

    The root gets 0.  A vertex at level r with address (x_1, ..., x_{r-1})
    has the sum A = sum_j x_j h_{j+1}, with h_j the per-level subtree
    sizes, and gets

        even r:  k_1 h_2 - A - (r - 2)/2
        odd  r:  A + (r - 1)/2

    A child's sum is its parent's plus x_{r-1} h_r, so the labels are
    built without decoding any address: one range per parent and one
    ``map`` per level.  A run of 1s keeps the sums, so two levels down
    every label of an even level is 1 less and every label of an odd
    level 1 more.  A run of 1s more than twice as long as its levels
    are wide is filled by columns instead: two ``range`` slices per
    vertex of its top level.
    """
    return _proven(t, _trusted(tuple(_theorem1_labels(_rooted(t, "theorem1_label")))))


def _theorem1_labels(t: RootedSymmetricTree) -> list[int]:
    """``theorem1_label``'s labels as a list, unproven."""
    n, off = t.n, t.level_offsets
    top = n - 1  # k_1 h_2
    labels = [0]
    sums = [0]
    r = 2  # the top level below the run
    for k, m in t.runs:
        if k == 1 and 2 * len(sums) < m:  # fewer columns than levels
            # Down a column the labels of levels r, r+2, ... step by dr
            # and those of levels r+1, r+3, ... by -dr.
            w, dr = len(sums), -1 if r % 2 == 0 else 1
            run = [0] * (m * w)
            for c, (x, y) in enumerate(zip(_level_labels(top, r, sums), _level_labels(top, r + 1, sums))):
                run[c :: 2 * w] = range(x, x + dr * ((m + 1) // 2), dr)
                run[c + w :: 2 * w] = range(y, y - dr * (m // 2), -dr)
            labels += run
        else:
            for s in range(r, r + m):
                if k > 1:  # the children of sum a: range(a, a + k h, h)
                    h = (n - off[s - 1]) // (off[s] - off[s - 1])  # h_s
                    sums = list(chain.from_iterable(map(range, sums, map(add, sums, repeat(k * h)), repeat(h))))
                labels += _level_labels(top, s, sums)
        r += m
    return labels


def _level_labels(top: int, r: int, sums: list[int]):
    """The direct labels of level r, whose address sums are ``sums``."""
    if r % 2 == 0:
        return map(sub, repeat(top - (r - 2) // 2), sums)
    return map(add, sums, repeat((r - 1) // 2))


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
        _step("theorem1", base),
        _step("apply_permutation", f, swaps=[list(s) for s in product.swaps]),
    )
    return _proven(t, f), ConstructionTrace(METHOD_LEMMA1, steps)


def broom_caterpillar_label(leaf_count: int, spine_length: int, n: int) -> tuple[int, ...]:
    """Extreme-value labelling of a broom inside an n-label budget.

    The broom is a spine of ``spine_length`` vertices (root included)
    whose deepest vertex carries ``leaf_count`` pendant leaves.  Leaves
    take 0..leaf_count-1; the spine, walked from its deep end up to the
    root, alternates between the largest unused high label and the
    smallest unused low label.  The edge differences then form one
    contiguous run at the very top of 1..n-1; a composition proves that
    with the rest of its labelling, where it hands the labelling out.

    Returns labels in local order: root, spine down to the deep vertex,
    then the leaves.
    """
    leaf_count = _as_int(leaf_count, "broom leaf_count")
    spine_length = _as_int(spine_length, "broom spine_length")
    n = _as_int(n, "broom n")
    if leaf_count < 1:
        raise ValueError("a broom needs at least one leaf")
    if spine_length < 1:
        raise ValueError("a broom needs at least one spine vertex")
    p = spine_length + leaf_count
    if n < p:
        raise ValueError(f"label budget {n} too small for {p} vertices")
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
    return _proven(t, _trusted(labels)), trace


def _compose(t: RootedSymmetricTree) -> tuple[tuple[int, ...], ConstructionTrace]:
    """``compose_theorem2``'s labels, unproven, and trace on a tree it accepts."""
    q, n, k = t.q, t.n, t.degrees[-1]
    dec = decompose(t)
    broom = broom_caterpillar_label(k, q - 1, n)
    h = _theorem1_labels(dec.subtree_h)
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
    steps = (
        {"op": "decompose", "h_degrees": list(dec.subtree_h.degrees),
         "p_map": list(dec.p_map), "h_map": list(dec.h_map)},
        _step("broom", broom, leaf_count=k, spine_length=q - 1, n=n),
        _step("subtree", h),
        move,
        _step("merge", full),
    )
    method = METHOD_THEOREM2_ODD if q % 2 == 1 else METHOD_THEOREM2_EVEN
    return tuple(full), ConstructionTrace(method, steps)


TargetLike = Union[int, Sequence[int]]


class ZeroAtRequest(NamedTuple):
    """Ask for a graceful labelling with a chosen extreme label at a
    chosen vertex.

    ``target`` is a vertex index or an address; ``desired_label`` must
    be 0 or n-1.
    """

    tree: RootedSymmetricTree
    target: TargetLike
    desired_label: int = 0


def zero_at_levels(t: RootedSymmetricTree) -> tuple[int, ...]:
    """Levels ``zero_at`` reaches, ascending and each once: 1 and 2, and
    q-1 and q when degrees[1:-1] are all 1, as far as the tree has them."""
    q = _rooted(t, "zero_at_levels").q
    if q > 3 and max(t.degrees[1:-1]) > 1:
        return (1, 2)
    return (1, 2, 3, 4)[:q] if q < 5 else (1, 2, q - 1, q)


def _coerce_target(t: RootedSymmetricTree, target: TargetLike) -> int:
    if isinstance(target, bool):
        raise ValueError("target must be a vertex index or address")
    if isinstance(target, Sequence) and not isinstance(target, str):
        return t.index_of(target)
    return _as_int(target, "target")


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
    target = _coerce_target(t, req.target)
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
        steps.append(_step("complement", f))
        if method == METHOD_THEOREM1:
            method = METHOD_COMPLEMENT

    holder = f.vertex_with_label(desired)
    if holder != target:
        perm = _level_mapping(t, holder, target)
        f = _relabel(f, perm)
        steps.append(_step("relabel_vertices", f, perm=list(perm)))

    if f[target] != desired:
        raise RuntimeError(f"constructed labelling puts {f[target]} on vertex {target}; this is a bug")
    return _proven(t, f), ConstructionTrace(method, tuple(steps))


def _proven(t: Tree, f: Labelling) -> Labelling:
    """``f`` itself, proven a graceful labelling of ``t`` where a
    construction hands it out."""
    if not _graceful_ints(t, f.labels):
        raise RuntimeError("constructed labelling failed its postcondition; this is a bug")
    return f


def _step(op: str, out: Sequence[int], **params) -> dict:
    """A construction step in the ``--explain`` shape: ``op``, its
    parameters, and a snapshot of the labels ``out`` it produced."""
    return {"op": op, **params, "labels": list(out)}
