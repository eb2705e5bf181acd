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
The three constructions return their formula's labelling, proven a
permutation and nothing more.  Gracefulness is proven once, where a
labelling is handed out: ``zero_at``, ``replay_trace``, the CLI's
``label`` command and the search's ``_witness``.

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
    apply_permutation,
    complement,
    is_graceful,
    reflect,
    relabel_vertices,
    shift,
)
from .model import (
    RootedSymmetricTree,
    Tree,
    UnsupportedConstruction,
    _as_int,
    _rooted,
    automorphism_mapping,
    decompose,
)

# Unused here, but perfbench/spans.py wraps it at this module's lookup site.
from .model import to_general  # noqa: F401

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
    hs = _rooted(t, "theorem1_label").level_numbers
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
    return Labelling(labels)


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
    """Label a three-level tree gracefully with 0 at a deepest leaf."""
    _rooted(t, "lemma1_label")
    state: dict = {}
    steps = (
        _do(t, state, "theorem1"),
        _do(t, state, "apply_permutation", swaps=lemma1_product(t).swaps),
    )
    return state["labelling"], ConstructionTrace(METHOD_LEMMA1, steps)


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
    q = _rooted(t, "compose_theorem2").q
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

    state: dict = {}
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
    return state["labelling"], ConstructionTrace(method, steps)


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
    n = t.n
    q = t.q
    target = _coerce_target(t, req.target)
    level = t.level_of_index(target)
    desired = _as_int(req.desired_label, "desired label")
    if desired not in (0, n - 1):
        raise ValueError(f"desired label must be 0 or {n - 1}, got {desired}")

    state: dict = {}
    if level <= 2:
        zero_level = 1
        steps = [_do(t, state, "theorem1")]
        method = METHOD_STAR if q <= 2 else METHOD_THEOREM1
    elif level in (q - 1, q):
        zero_level = q
        state["labelling"], base = compose_theorem2(t)
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
    if t.level_of_index(holder) != level:
        raise RuntimeError("desired label landed on the wrong level; this is a bug")
    if holder != target:
        perm = automorphism_mapping(t, holder, target)
        steps.append(_do(t, state, "relabel_vertices", perm=perm))

    f = state["labelling"]
    if f[target] != desired or not is_graceful(t, f):
        raise RuntimeError("constructed labelling failed its postcondition; this is a bug")
    return f, ConstructionTrace(method, tuple(steps))


def _do(t: Tree, state: dict, op: str, **params) -> dict:
    """Run one trace op and return its step in the ``--explain`` shape.

    ``state`` carries what earlier ops produced: the whole-tree
    ``labelling``, the broom ``decomposition``, and the ``broom`` and
    ``subtree`` labels.  A missing input raises KeyError, a bad
    parameter or an inconsistent merge ValueError.
    """
    step: dict = {"op": op}
    if op == "theorem1":
        out = state["labelling"] = theorem1_label(t)
    elif op == "apply_permutation":
        prod = TranspositionProduct(params["swaps"])
        step["swaps"] = [list(s) for s in prod.swaps]
        out = state["labelling"] = apply_permutation(state["labelling"], prod)
    elif op == "complement":
        out = state["labelling"] = complement(state["labelling"])
    elif op == "relabel_vertices":
        perm = params["perm"]
        step["perm"] = list(perm)
        out = state["labelling"] = relabel_vertices(state["labelling"], perm)
    elif op == "decompose":
        dec = state["decomposition"] = decompose(t)
        step["h_degrees"] = list(dec.subtree_h.degrees)
        step["p_map"] = list(dec.p_map)
        step["h_map"] = list(dec.h_map)
        return step
    elif op == "broom":
        for k in ("leaf_count", "spine_length", "n"):
            step[k] = _as_int(params[k], f"broom {k}")
        out = state["broom"] = broom_caterpillar_label(
            step["leaf_count"], step["spine_length"], step["n"]
        )
    elif op == "subtree":
        out = state["subtree"] = theorem1_label(state["decomposition"].subtree_h)
    elif op == "shift":
        step["amount"] = _as_int(params["amount"], "shift amount")
        out = state["subtree"] = shift(state["subtree"], step["amount"])
    elif op == "reflect":
        step["pivot"] = _as_int(params["pivot"], "reflect pivot")
        out = state["subtree"] = reflect(state["subtree"], step["pivot"])
    elif op == "merge":
        # The broom's labels on P's vertices, the subtree's on H's.
        dec, h = state["decomposition"], state["subtree"]
        full = [-1] * t.n
        for gi, b in zip(dec.p_map, state["broom"], strict=True):
            full[gi] = b
        for gi, b in zip(dec.h_map, h, strict=True):
            if full[gi] >= 0 and full[gi] != b:
                raise ValueError(f"broom and subtree disagree on vertex {gi}")
            full[gi] = b
        out = state["labelling"] = Labelling(full)
    else:
        raise ValueError(f"unknown trace op {op!r}")
    step["labels"] = list(out)
    return step


# Step keys that are not parameters of the op.
_OUTPUTS = ("op", "labels", "h_degrees", "p_map", "h_map")


def replay_trace(t: Tree, trace: ConstructionTrace) -> Labelling:
    """Re-execute a construction trace and cross-check every snapshot.

    Raises ValueError, naming the step, on a malformed step or on any
    mismatch between a recorded step and its recomputation.  Returns the
    final labelling, verified graceful.
    """
    state: dict = {}
    for i, step in enumerate(trace.steps):
        try:
            params = {k: v for k, v in step.items() if k not in _OUTPUTS}
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
    if not is_graceful(t, f):
        raise ValueError("trace replays to a non-graceful labelling")
    return f
