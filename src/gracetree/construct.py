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

Each public entry checks its arguments and calls a private core that
trusts them (``_zero_at``, ``_compose``, ``_theorem1_labels``); the
sweep calls ``_zero_at`` with the level it already has.  No step of a
construction proves what an earlier one built, or copies the labels
it was handed.  A labelling is proven once, where it leaves a public
function: ``zero_at`` and ``replay_trace`` prove it a permutation and
graceful with ``labelling._graceful_ints`` on the tuple they hand out,
and ``theorem1_label``, ``lemma1_label`` and ``compose_theorem2`` prove
it a permutation only.  ``replay_trace`` checks a recorded ``perm``;
the ops check the step's integers.

Every public entry point that performs a multi-step construction also
returns a trace: a list of replayable steps with recorded label
snapshots, so a result can be audited independently of the code that
produced it.
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
    _vertex_permutation,
    apply_permutation,
    complement,
)
from .model import (
    RootedSymmetricTree,
    Tree,
    UnsupportedConstruction,
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
    """How a labelling was produced: a method name plus replayable steps.

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
    built one level at a time, without decoding any address: one range
    per parent, one ``map`` per level.  Proven a permutation, not graceful.
    """
    return Labelling(_theorem1_labels(_rooted(t, "theorem1_label")))


def _theorem1_labels(t: RootedSymmetricTree) -> list[int]:
    """``theorem1_label``'s labels as a list, unproven."""
    hs = t.level_numbers
    top = t.degrees[0] * hs[1] if t.q > 1 else 0
    labels = [0]
    sums = [0]
    for r in range(2, t.q + 1):
        k, h = t.degrees[r - 2], hs[r - 1]
        if k > 1:  # the children of sum a: range(a, a + k h, h)
            sums = list(chain.from_iterable(map(range, sums, map(add, sums, repeat(k * h)), repeat(h))))
        if r % 2 == 0:
            labels += map(sub, repeat(top - (r - 2) // 2), sums)
        else:
            labels += map(add, sums, repeat((r - 1) // 2))
    return labels


def lemma1_product(t: RootedSymmetricTree) -> TranspositionProduct:
    """Value swaps that move 0 to a deepest leaf on a three-level tree.

    For daughter degrees (k_1, k_2) the product swaps i*h_2 with
    i*h_2 + k_2 for each i < k_1.  Applied to the direct labelling it
    stays graceful and sends 0 to the leaf at address (0, k_2 - 1).
    """
    if _rooted(t, "lemma1_product").q != 3:
        raise UnsupportedConstruction(
            UnsupportedConstruction.WRONG_LEVELS,
            f"the swap product needs exactly 3 levels, tree has {t.q}",
        )
    k1 = t.degrees[0]
    k2 = t.degrees[1]
    h2 = t.level_numbers[1]
    return TranspositionProduct(tuple((i * h2, i * h2 + k2) for i in range(k1)))


def lemma1_label(t: RootedSymmetricTree) -> tuple[Labelling, ConstructionTrace]:
    """Label a three-level tree gracefully with 0 at a deepest leaf.

    Graceful by the lemma; proven a permutation only.
    """
    _rooted(t, "lemma1_label")
    state: dict = {}
    steps = (
        _do(t, state, "theorem1"),
        _do(t, state, "apply_permutation", swaps=lemma1_product(t).swaps),
    )
    return Labelling(state["labelling"].labels), ConstructionTrace(METHOD_LEMMA1, steps)


def broom_caterpillar_label(leaf_count: int, spine_length: int, n: int) -> tuple[int, ...]:
    """Extreme-value labelling of a broom inside an n-label budget.

    The broom is a spine of ``spine_length`` vertices (root included)
    whose deepest vertex carries ``leaf_count`` pendant leaves.  Leaves
    take 0..leaf_count-1; the spine, walked from its deep end up to the
    root, alternates between the largest unused high label and the
    smallest unused low label.  The edge differences then form one
    contiguous run at the very top of 1..n-1.

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
    deep_to_root = []
    high = n - 1
    low = leaf_count
    for pos in range(spine_length):
        if pos % 2 == 0:
            deep_to_root.append(high)
            high -= 1
        else:
            deep_to_root.append(low)
            low += 1
    labels = tuple(reversed(deep_to_root)) + tuple(range(leaf_count))

    spine = labels[:spine_length]
    diffs = sorted(
        [abs(spine[i] - spine[i + 1]) for i in range(spine_length - 1)]
        + [abs(spine[-1] - leaf) for leaf in range(leaf_count)]
    )
    lo = n - (leaf_count + spine_length - 1)
    if diffs != list(range(lo, n)):
        raise RuntimeError("broom edge differences missed the top run; this is a bug")
    return labels


def compose_theorem2(t: RootedSymmetricTree) -> tuple[Labelling, ConstructionTrace]:
    """Graceful labelling with 0 on a deepest leaf and n-1 on that leaf's
    neighbour one level up.

    Works when the last root branch is a broom: either the tree has
    exactly three levels, or every intermediate daughter degree is 1.
    The branch is labelled with the extreme values, the rest of the tree
    with the direct formula shifted (odd level count) or reflected (even
    level count) onto the remaining middle values.  ``zero_at``
    complements the result when it needs the two extremes swapped and
    proves it graceful; here it is proven a permutation only.
    """
    state: dict = {}
    trace = _compose(_rooted(t, "compose_theorem2"), state)
    return Labelling(state["labelling"].labels), trace


def _compose(t: RootedSymmetricTree, state: dict) -> ConstructionTrace:
    """``compose_theorem2``'s steps, run into ``state``; its labelling unproven."""
    q = t.q
    n = t.n
    if q < 3:
        raise UnsupportedConstruction(
            UnsupportedConstruction.WRONG_LEVELS,
            f"branch composition needs at least 3 levels, tree has {q}",
        )
    degrees = t.degrees
    if q not in zero_at_levels(t):
        raise UnsupportedConstruction(
            UnsupportedConstruction.NOT_BROOM,
            f"intermediate daughter degrees of {degrees} are not all 1",
        )

    steps = (
        _do(t, state, "decompose"),
        _do(t, state, "broom", leaf_count=degrees[-1], spine_length=q - 1, n=n),
        _do(t, state, "subtree"),
        # Move the subtree's root onto the broom's root label.
        _do(t, state, "shift", amount=degrees[-1] + (q - 3) // 2)
        if q % 2 == 1
        else _do(t, state, "reflect", pivot=n - q // 2),
        _do(t, state, "merge"),
    )
    method = METHOD_THEOREM2_ODD if q % 2 == 1 else METHOD_THEOREM2_EVEN
    return ConstructionTrace(method, steps)


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
    """Levels ``zero_at`` reaches: 1 and 2, and q-1 and q if degrees[1:-1] are all 1."""
    if all(k == 1 for k in _rooted(t, "zero_at_levels").degrees[1:-1]):
        return (1, 2, t.q - 1, t.q)
    return (1, 2)


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
    level q-1) for the two deepest; any other level raises
    UnsupportedConstruction(NoConstruction).  The base is complemented
    when it puts the other extreme on the target's level, and the result
    is moved onto the target vertex by a tree automorphism when needed.
    """
    t = _rooted(req.tree, "zero_at")
    target = _coerce_target(t, req.target)
    desired = _as_int(req.desired_label, "desired label")
    if desired not in (0, t.n - 1):
        raise ValueError(f"desired label must be 0 or {t.n - 1}, got {desired}")
    return _zero_at(t, target, t.level_of_index(target), desired)


def _zero_at(
    t: RootedSymmetricTree, target: int, level: int, desired: int
) -> tuple[Labelling, ConstructionTrace]:
    """``zero_at`` for a vertex ``target`` of ``t`` on ``level`` and a
    ``desired`` label of 0 or n-1."""
    q = t.q
    state: dict = {}
    if level <= 2:
        zero_level = 1
        steps = [_do(t, state, "theorem1")]
        method = METHOD_STAR if q <= 2 else METHOD_THEOREM1
    elif level in (q - 1, q):
        zero_level = q
        base = _compose(t, state)
        steps = list(base.steps)
        method = base.method
    else:
        raise UnsupportedConstruction(
            UnsupportedConstruction.NO_CONSTRUCTION,
            f"no constructive placement for level {level} of a {q}-level tree",
        )
    if (desired == 0) != (level == zero_level):
        steps.append(_do(t, state, "complement"))
        if method == METHOD_THEOREM1:
            method = METHOD_COMPLEMENT

    holder = state["labelling"].vertex_with_label(desired)
    if holder != target:
        perm = _level_mapping(t, holder, target)
        steps.append(_do(t, state, "relabel_vertices", perm=perm))

    f = state["labelling"]
    if f[target] != desired or not _graceful_ints(t, f.labels):
        raise RuntimeError("constructed labelling failed its postcondition; this is a bug")
    return f, ConstructionTrace(method, tuple(steps))


def _do(t: Tree, state: dict, op: str, **params) -> dict:
    """Run one trace op and return its step in the ``--explain`` shape.

    ``state`` carries what earlier ops produced: the whole-tree
    ``labelling``, the broom ``decomposition``, and the ``broom`` and
    ``subtree`` labels.  No op proves what it makes; the whole-tree
    labelling is a ``Labelling`` built unchecked.  A missing input
    raises KeyError, a bad parameter or an inconsistent merge
    ValueError; a ``perm`` must already be a vertex permutation.
    """
    step: dict = {"op": op}
    if op == "theorem1":
        labels = _theorem1_labels(_rooted(t, "theorem1_label"))
        out = state["labelling"] = _trusted(tuple(labels))
    elif op == "apply_permutation":
        prod = TranspositionProduct(params["swaps"])
        step["swaps"] = [list(s) for s in prod.swaps]
        out = state["labelling"] = apply_permutation(state["labelling"], prod)
    elif op == "complement":
        out = state["labelling"] = complement(state["labelling"])
    elif op == "relabel_vertices":
        perm = params["perm"]
        step["perm"] = list(perm)
        out = state["labelling"] = _relabel(state["labelling"], perm)
    elif op == "decompose":
        dec = state["decomposition"] = decompose(t)
        step["h_degrees"] = list(dec.subtree_h.degrees)
        step["p_map"] = list(dec.p_map)
        step["h_map"] = list(dec.h_map)
        return step
    elif op == "broom":
        step.update((k, params[k]) for k in ("leaf_count", "spine_length", "n"))
        out = state["broom"] = broom_caterpillar_label(
            step["leaf_count"], step["spine_length"], step["n"]
        )
    elif op == "subtree":
        out = state["subtree"] = _theorem1_labels(state["decomposition"].subtree_h)
    elif op == "shift":
        step["amount"], h = params["amount"], state["subtree"]
        out = state["subtree"] = tuple(map(add, h, repeat(_as_int(step["amount"], "shift amount"))))
    elif op == "reflect":
        step["pivot"], h = params["pivot"], state["subtree"]
        out = state["subtree"] = tuple(map(sub, repeat(_as_int(step["pivot"], "reflect pivot")), h))
    elif op == "merge":
        # The broom's labels on P's vertices, the subtree's on H's.  A
        # recomputed decomposition's P and H share only the root, vertex 0.
        dec, b, h = state["decomposition"], state["broom"], state["subtree"]
        for part, got, name, vs in (("broom", b, "P", dec.p_map), ("subtree", h, "H", dec.h_map)):
            if len(got) != len(vs):
                raise ValueError(f"{part} has {len(got)} labels for {name}'s {len(vs)} vertices")
        if b[0] != h[0]:
            raise ValueError("broom and subtree disagree on vertex 0")
        full = [-1] * t.n
        for gi, x in zip(chain(dec.p_map, dec.h_map), chain(b, h)):
            full[gi] = x
        out = state["labelling"] = _trusted(tuple(full))
    else:
        raise ValueError(f"unknown trace op {op!r}")
    step["labels"] = list(out)
    return step


# Step keys that are not parameters of the op.
_OUTPUTS = ("op", "labels", "h_degrees", "p_map", "h_map")


def replay_trace(t: Tree, trace: ConstructionTrace) -> Labelling:
    """Re-execute a construction trace and cross-check every snapshot.

    Raises ValueError, naming the step, on a malformed step or on any
    mismatch between a recorded step and its recomputation.  A step's
    integers are checked by the function its op calls, and a ``perm``
    here, before the op runs.  Returns the final labelling, verified
    graceful.
    """
    state: dict = {}
    for i, step in enumerate(trace.steps):
        try:
            params = {k: v for k, v in step.items() if k not in _OUTPUTS}
            if "perm" in params:
                params["perm"] = _vertex_permutation(params["perm"], t.n)
            redone = _do(t, state, step["op"], **params)
        except KeyError as exc:
            raise ValueError(f"trace step {i} lacks its input {exc}") from None
        except (AttributeError, TypeError, ValueError) as exc:
            raise ValueError(f"trace step {i} does not replay: {exc}") from None
        if redone != step:
            raise ValueError(f"trace step {i} ({step['op']!r}) does not replay")

    if "labelling" not in state:
        raise ValueError("trace produced no labelling")
    f = state["labelling"]
    if not _graceful_ints(t, f.labels):
        raise ValueError("trace replays to a non-graceful labelling")
    return f
