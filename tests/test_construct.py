import hashlib
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gracetree import (
    UnsupportedConstruction,
    ZeroAtRequest,
    build,
    is_graceful,
    theorem1_label,
    zero_at,
)
import gracetree.construct
import gracetree.labelling
from gracetree.construct import (
    METHOD_COMPLEMENT,
    METHOD_STAR,
    METHOD_THEOREM1,
    METHOD_THEOREM2_EVEN,
    METHOD_THEOREM2_ODD,
    ConstructionTrace,
    _compose,
    _do,
    broom_caterpillar_label,
    compose_theorem2,
    lemma1_label,
    lemma1_product,
    replay_trace,
    zero_at_levels,
)
from gracetree.labelling import relabel_vertices
from gracetree.model import RootedSymmetricTree, path_sequence, to_general
from gracetree.sweep import SweepSpec, enumerate_family
from oracles import theorem1_label_by_addresses

sequences = (
    st.lists(st.integers(1, 5), min_size=1, max_size=5)
    .map(tuple)
    .filter(lambda s: RootedSymmetricTree(s).n <= 250)
)

broom_sequences = (
    st.tuples(st.integers(1, 5), st.integers(1, 5))
    .map(tuple)
    | st.tuples(
        st.integers(1, 4),
        st.integers(1, 3),
        st.integers(2, 4),
    ).map(lambda t: (t[0],) + (1,) * t[1] + (t[2],))
)


def test_theorem1_goldens():
    assert theorem1_label(build(path_sequence(7))).labels == (0, 6, 1, 5, 2, 4, 3)
    assert theorem1_label(build((3,))).labels == (0, 3, 2, 1)
    assert theorem1_label(build((2, 2))).labels == (0, 6, 3, 1, 2, 4, 5)
    t = build((2, 3, 4))
    f = theorem1_label(t)
    assert f[t.index_of((1, 2, 3))] == 2


def test_theorem1_matches_address_definition():
    for seq in enumerate_family(SweepSpec("rst_all", nmax=40)):
        t = build(seq)
        assert theorem1_label(t).labels == theorem1_label_by_addresses(t), seq


@given(sequences)
@settings(max_examples=150)
def test_theorem1_always_graceful(seq):
    t = build(seq)
    f = theorem1_label(t)
    assert is_graceful(to_general(t), f)
    assert f[0] == 0
    assert f[1] == t.n - 1  # first child of the root takes the top label


def test_lemma1_product_golden():
    assert lemma1_product(build((3, 4))).swaps == ((0, 4), (5, 9), (10, 14))
    assert lemma1_product(build((2, 2))).swaps == ((0, 2), (3, 5))


def test_lemma1_golden():
    t = build((2, 2))
    f, trace = lemma1_label(t)
    assert f.labels == (2, 6, 5, 1, 0, 4, 3)
    assert trace.method == "lemma1"
    assert replay_trace(t, trace).labels == f.labels


@given(st.tuples(st.integers(1, 8), st.integers(1, 8)))
@settings(max_examples=60)
def test_lemma1_moves_zero_to_deepest_level(seq):
    t = build(seq)
    f, trace = lemma1_label(t)
    assert is_graceful(to_general(t), f)
    assert t.level_of_index(f.vertex_with_label(0)) == 3
    assert replay_trace(t, trace).labels == f.labels


def test_lemma1_needs_three_levels():
    for seq in [(4,), (2, 1, 1)]:
        with pytest.raises(UnsupportedConstruction) as exc:
            lemma1_label(build(seq))
        assert exc.value.reason == UnsupportedConstruction.WRONG_LEVELS


def test_broom_label_goldens():
    assert broom_caterpillar_label(4, 2, 16) == (4, 15, 0, 1, 2, 3)
    assert broom_caterpillar_label(1, 3, 10) == (8, 1, 9, 0)
    assert broom_caterpillar_label(1, 1, 2) == (1, 0)


@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 40))
def test_broom_label_shape(leaves, spine, slack):
    n = leaves + spine + slack
    labels = broom_caterpillar_label(leaves, spine, n)
    assert len(labels) == leaves + spine
    assert len(set(labels)) == len(labels)
    assert labels[spine:] == tuple(range(leaves))
    # differences along the broom are the top run of 1..n-1
    diffs = sorted(
        [abs(labels[i] - labels[i + 1]) for i in range(spine - 1)]
        + [abs(labels[spine - 1] - leaf) for leaf in range(leaves)]
    )
    assert diffs == list(range(n - (leaves + spine - 1), n))


def test_broom_label_validation():
    with pytest.raises(ValueError):
        broom_caterpillar_label(0, 2, 10)
    with pytest.raises(ValueError):
        broom_caterpillar_label(2, 0, 10)
    with pytest.raises(ValueError):
        broom_caterpillar_label(4, 4, 5)


@pytest.mark.parametrize(
    "args, name",
    [((2.5, 2, 10), "leaf_count 2.5"), ((2, "2", 10), "spine_length '2'"), ((2, 2, 10.0), "n 10.0")],
)
def test_broom_label_names_a_non_integer_argument(args, name):
    with pytest.raises(ValueError, match=f"^broom {name} is not an integer$"):
        broom_caterpillar_label(*args)


def test_compose_golden_three_levels():
    t = build((3, 4))
    f, trace = compose_theorem2(t)
    g = to_general(t)
    assert is_graceful(g, f)
    assert trace.method == METHOD_THEOREM2_ODD
    # last branch carries the extremes, the rest is the shifted direct formula
    assert f[0] == 4
    assert f[3] == 15
    assert [f[v] for v in (12, 13, 14, 15)] == [0, 1, 2, 3]
    h = build((2, 4))
    h_labels = theorem1_label(h)
    h_map = (0, 1, 2, 4, 5, 6, 7, 8, 9, 10, 11)
    assert [f[v] for v in h_map] == [x + 4 for x in h_labels.labels]


def test_compose_golden_even_levels():
    t = build((3, 1, 1))
    f, trace = compose_theorem2(t)
    assert trace.method == METHOD_THEOREM2_EVEN
    assert f.labels == (8, 2, 5, 1, 7, 4, 9, 3, 6, 0)


@given(broom_sequences, st.data())
@settings(max_examples=120)
def test_compose_covers_both_deep_levels(seq, data):
    t = build(seq)
    g = to_general(t)
    level = data.draw(st.sampled_from((t.q - 1, t.q)))
    target = data.draw(st.sampled_from(t.vertices_at_level(level)))
    desired = data.draw(st.sampled_from((0, t.n - 1)))
    f, trace = zero_at(ZeroAtRequest(t, target, desired))
    assert is_graceful(g, f)
    assert f[target] == desired
    assert replay_trace(t, trace).labels == f.labels


def test_compose_rejections():
    with pytest.raises(UnsupportedConstruction) as exc:
        compose_theorem2(build((2, 3, 4)))
    assert exc.value.reason == UnsupportedConstruction.NOT_BROOM
    with pytest.raises(UnsupportedConstruction) as exc:
        compose_theorem2(build((4,)))
    assert exc.value.reason == UnsupportedConstruction.WRONG_LEVELS


def test_zero_at_dispatch_methods():
    t = build((2, 1, 1))
    cases = {
        (0, 0): METHOD_THEOREM1,
        (0, t.n - 1): METHOD_COMPLEMENT,
        (1, t.n - 1): METHOD_THEOREM1,
        (2, 0): METHOD_COMPLEMENT,
        (3, 0): METHOD_THEOREM2_EVEN,
        (5, 0): METHOD_THEOREM2_EVEN,
        (6, t.n - 1): METHOD_THEOREM2_EVEN,
    }
    for (target, desired), method in cases.items():
        f, trace = zero_at(ZeroAtRequest(t, target, desired))
        assert trace.method == method, (target, desired)
        assert f[target] == desired

    star = build((4,))
    for target in range(star.n):
        f, trace = zero_at(ZeroAtRequest(star, target, 0))
        assert trace.method == METHOD_STAR
        assert f[target] == 0


def test_zero_at_accepts_addresses():
    t = build((2, 3))
    f, _ = zero_at(ZeroAtRequest(t, (1, 2), 0))
    assert f[t.index_of((1, 2))] == 0


def test_zero_at_rejects_middle_levels():
    t = build(path_sequence(8))  # 8 levels; 3..6 have no construction
    with pytest.raises(UnsupportedConstruction) as exc:
        zero_at(ZeroAtRequest(t, t.index_of((0, 0, 0)), 0))
    assert exc.value.reason == UnsupportedConstruction.NO_CONSTRUCTION


@pytest.mark.parametrize(
    "spine, level, end",
    [(600, "q", "first"), (600, "q-1", "first"), (1_150, "2", "last")],
)
def test_zero_at_on_deep_brooms(spine, level, end):
    # Spines deep enough that nested-tuple subtree codes overflowed the
    # stack when the result was moved onto its target.
    t = build((3,) + (1,) * spine + (3,))
    r = {"2": 2, "q-1": t.q - 1, "q": t.q}[level]
    vertices = t.vertices_at_level(r)
    target = vertices[0] if end == "first" else vertices[-1]
    f, trace = zero_at(ZeroAtRequest(t, target, 0))
    assert f[target] == 0
    assert is_graceful(to_general(t), f)
    assert replay_trace(t, trace).labels == f.labels


def test_zero_at_on_a_long_broom_level_four():
    t = build((2, 1, 1, 5000))
    target = t.vertices_at_level(4)[0]
    f, _ = zero_at(ZeroAtRequest(t, target, 0))
    assert f[target] == 0
    assert is_graceful(to_general(t), f)


def test_zero_at_validation():
    t = build((2, 2))
    with pytest.raises(ValueError):
        zero_at(ZeroAtRequest(t, 0, 3))
    with pytest.raises(ValueError):
        zero_at(ZeroAtRequest(t, 99, 0))
    # Non-integers are refused, not truncated to vertex 0 or label 0.
    with pytest.raises(ValueError, match="desired label 0.9 is not an integer"):
        zero_at(ZeroAtRequest(t, 0, 0.9))
    with pytest.raises(ValueError, match="target 2.5 is not an integer"):
        zero_at(ZeroAtRequest(t, 2.5, 0))
    with pytest.raises(ValueError, match="address digit 0.5 is not an integer"):
        zero_at(ZeroAtRequest(t, (0.5,), 0))
    # True would pass as vertex 1.
    with pytest.raises(ValueError, match="^target must be a vertex index or address$"):
        zero_at(ZeroAtRequest(t, True, 0))


def test_constructions_name_a_general_tree_they_cannot_label():
    # Each construction reads the degree sequence, which a GeneralTree
    # lacks; it is refused by name, not by an AttributeError.
    g = to_general(build((2, 2)))
    calls = [
        ("theorem1_label", lambda: theorem1_label(g)),
        ("lemma1_product", lambda: lemma1_product(g)),
        ("lemma1_label", lambda: lemma1_label(g)),
        ("compose_theorem2", lambda: compose_theorem2(g)),
        ("zero_at", lambda: zero_at(ZeroAtRequest(g, 0, 0))),
    ]
    for name, call in calls:
        with pytest.raises(ValueError, match=f"^{name} needs a rooted symmetric tree, not GeneralTree$"):
            call()
    with pytest.raises(ValueError, match="trace step 0 does not replay: theorem1_label needs"):
        replay_trace(g, ConstructionTrace("theorem1", ({"op": "theorem1"},)))


@given(sequences, st.data())
@settings(max_examples=150)
def test_zero_at_postconditions(seq, data):
    t = build(seq)
    target = data.draw(st.integers(0, t.n - 1))
    desired = data.draw(st.sampled_from((0, t.n - 1)))
    level = t.level_of_index(target)
    q = t.q
    try:
        f, trace = zero_at(ZeroAtRequest(t, target, desired))
    except UnsupportedConstruction as exc:
        assert level > 2, exc
        if exc.reason == UnsupportedConstruction.NO_CONSTRUCTION:
            assert level not in (q - 1, q)
        else:
            assert exc.reason == UnsupportedConstruction.NOT_BROOM
            assert level in (q - 1, q) and q >= 4
            assert any(k != 1 for k in seq[1:-1])
        return
    assert f[target] == desired
    assert is_graceful(to_general(t), f)
    assert replay_trace(t, trace).labels == f.labels


def test_replay_rejects_tampering():
    t = build((3, 1, 1))
    f, trace = compose_theorem2(t)
    steps = [dict(s) for s in trace.steps]
    steps[-1] = dict(steps[-1])
    bad = list(steps[-1]["labels"])
    bad[0], bad[1] = bad[1], bad[0]
    steps[-1]["labels"] = bad
    with pytest.raises(ValueError):
        replay_trace(t, ConstructionTrace(trace.method, tuple(steps)))
    # A non-integer pivot is refused, not truncated back to the recorded 8.
    steps = [dict(s) for s in trace.steps]
    (i,) = [i for i, s in enumerate(steps) if s["op"] == "reflect"]
    assert steps[i]["pivot"] == 8
    steps[i]["pivot"] = 8.5
    with pytest.raises(ValueError, match="reflect pivot 8.5 is not an integer"):
        replay_trace(t, ConstructionTrace(trace.method, tuple(steps)))
    # So are a non-integer broom leaf count and, on a tree whose trace
    # shifts, a non-integer shift amount.
    steps = [dict(s) for s in trace.steps]
    (i,) = [i for i, s in enumerate(steps) if s["op"] == "broom"]
    steps[i]["leaf_count"] = 2.5
    with pytest.raises(ValueError, match="broom leaf_count 2.5 is not an integer"):
        replay_trace(t, ConstructionTrace(trace.method, tuple(steps)))
    _, shifted = compose_theorem2(build((2, 2)))
    steps = [dict(s) for s in shifted.steps]
    (i,) = [i for i, s in enumerate(steps) if s["op"] == "shift"]
    steps[i]["amount"] = 2.5
    with pytest.raises(ValueError, match="shift amount 2.5 is not an integer"):
        replay_trace(build((2, 2)), ConstructionTrace(shifted.method, tuple(steps)))
    # A changed decomposition map is refused.
    steps = [dict(s) for s in trace.steps]
    assert steps[0]["op"] == "decompose"
    steps[0]["h_map"] = list(reversed(steps[0]["h_map"]))
    with pytest.raises(ValueError, match=r"trace step 0 \('decompose'\) does not replay"):
        replay_trace(t, ConstructionTrace(trace.method, tuple(steps)))
    # So is a different automorphism, though it is still a permutation.
    t = build((2, 1, 2))
    _, trace = zero_at(ZeroAtRequest(t, 5, 0))
    steps = [dict(s) for s in trace.steps]
    assert steps[-1]["op"] == "relabel_vertices"
    steps[-1]["perm"] = list(range(t.n))
    with pytest.raises(ValueError, match="relabel_vertices'\\) does not replay"):
        replay_trace(t, ConstructionTrace(trace.method, tuple(steps)))
    # A decompose step forged onto a tree whose last branch is no broom
    # names the step and the refusal.
    forged = ConstructionTrace(METHOD_THEOREM2_EVEN, ({"op": "decompose"},))
    with pytest.raises(ValueError, match="^trace step 0 does not replay: NotCaterpillar: "):
        replay_trace(build((2, 3, 2)), forged)

    # A malformed first step names itself and raises ValueError, not
    # TypeError or KeyError.
    t = build((2, 2))
    malformed = [
        ({"op": "complement", "labels": [6, 0, 3, 5, 4, 2, 1]}, "lacks its input 'labelling'"),
        ({"op": "shift", "amount": 1, "labels": [1, 7, 4, 2, 3, 5, 6]}, "lacks its input 'subtree'"),
        (
            {"op": "relabel_vertices", "perm": [0, 2, 1, 5, 6, 3, 4], "labels": [0] * 7},
            "lacks its input 'labelling'",
        ),
        ({"labels": [0, 6, 3, 1, 2, 4, 5]}, "lacks its input 'op'"),
        ({"op": "theorem1"}, r"\('theorem1'\) does not replay"),
    ]
    for bad, message in malformed:
        with pytest.raises(ValueError, match=f"trace step 0 {message}"):
            replay_trace(t, ConstructionTrace("theorem1", (bad,)))


def test_replay_refuses_an_unknown_op_and_a_trace_with_no_labelling():
    t = build((2, 2))
    unknown = ConstructionTrace(METHOD_THEOREM1, ({"op": "mystery"},))
    with pytest.raises(ValueError, match="^trace step 0 does not replay: unknown trace op 'mystery'$"):
        replay_trace(t, unknown)
    # A decompose step replays, but leaves no whole-tree labelling.
    _, trace = compose_theorem2(t)
    assert trace.steps[0]["op"] == "decompose"
    for steps in ((), trace.steps[:1]):
        with pytest.raises(ValueError, match="^trace produced no labelling$"):
            replay_trace(t, ConstructionTrace(trace.method, steps))


@pytest.mark.parametrize(
    "seq, op, key, message",
    [
        ((2, 2), "broom", "leaf_count", "broom has 5 labels for P's 4 vertices"),
        ((2, 2), "shift", "amount", "broom and subtree disagree on vertex 0"),
        ((3, 1, 1), "reflect", "pivot", "broom and subtree disagree on vertex 0"),
    ],
    ids=["broom-size", "shift-root", "reflect-root"],
)
def test_a_forged_compose_trace_is_refused_at_its_merge(seq, op, key, message):
    # The forged step changes one integer and records the labels that
    # integer gives, so it replays; the merge then meets a broom of the
    # wrong size, or a subtree whose root label is not the broom's.
    t = build(seq)
    _, trace = compose_theorem2(t)
    steps = [dict(s) for s in trace.steps]
    (i,) = [i for i, s in enumerate(steps) if s["op"] == op]
    steps[i][key] += 1
    if op == "broom":
        leaf_count, spine_length, n = (steps[i][k] for k in ("leaf_count", "spine_length", "n"))
        steps[i]["labels"] = list(broom_caterpillar_label(leaf_count, spine_length, n))
    else:
        steps[i]["labels"] = [b + 1 for b in steps[i]["labels"]]
    merge = [s["op"] for s in steps].index("merge")
    forged = ConstructionTrace(trace.method, tuple(steps))
    with pytest.raises(ValueError, match=f"^trace step {merge} does not replay: {re.escape(message)}$"):
        replay_trace(t, forged)


def test_merge_names_a_subtree_of_the_wrong_size():
    # No trace step sets the subtree's size, so the merge is run on a
    # composition's state with the subtree's last label dropped.
    t = build((2, 2))
    state: dict = {}
    _compose(t, state)
    state["subtree"] = state["subtree"][:-1]
    with pytest.raises(ValueError, match="^subtree has 3 labels for H's 4 vertices$"):
        _do(t, state, "merge")


def test_trace_dict_roundtrip():
    t = build((2, 2))
    f, trace = lemma1_label(t)
    doc = json.loads(json.dumps(trace.to_dict()))
    back = ConstructionTrace(doc["method"], tuple(doc["steps"]))
    assert back.method == trace.method
    assert replay_trace(t, back).labels == f.labels


def test_golden_trace_replays_from_its_json():
    # decompose, broom, subtree, reflect, merge and relabel_vertices,
    # read back from the checked-in --explain output alone.
    golden = Path(__file__).parent / "golden" / "label_rst_2-1-2_zero_at_5_explain.json"
    doc = json.loads(golden.read_text())
    trace = ConstructionTrace(doc["trace"]["method"], tuple(doc["trace"]["steps"]))
    ops = [s["op"] for s in trace.steps]
    assert ops == ["decompose", "broom", "subtree", "reflect", "merge", "relabel_vertices"]
    t = build(doc["tree"]["degrees"])
    assert list(replay_trace(t, trace).labels) == doc["labels"]


def test_zero_at_is_pinned_byte_for_byte():
    # Labels and trace of every constructible request, and the reason of
    # every refusal, over each vertex and both extreme labels of every
    # rst_all tree up to n = 30; a request succeeds exactly on the levels
    # zero_at_levels names.  The digest was taken from the
    # generator-per-vertex formulas the level-wise bulk ones replaced.
    h = hashlib.sha256()
    for seq in enumerate_family(SweepSpec("rst_all", nmax=30)):
        t = build(seq)
        for v in range(t.n):
            for desired in (0, t.n - 1):
                reached = t.level_of_index(v) in zero_at_levels(t)
                try:
                    f, trace = zero_at(ZeroAtRequest(t, v, desired))
                except UnsupportedConstruction as exc:
                    assert not reached, (seq, v, desired)
                    out = [seq, v, desired, exc.reason]
                else:
                    assert reached, (seq, v, desired)
                    out = [seq, v, desired, f.labels, trace.to_dict()]
                h.update(json.dumps(out).encode())
    assert h.hexdigest() == "59f76793432faf3b66d4b353a275710369b66d452aca710eddbda6695fb0ebd7"


@pytest.mark.parametrize(
    "seq, target, top, method",
    [
        ((4,), 2, False, METHOD_STAR),
        ((2, 1, 1), 1, True, METHOD_THEOREM1),
        ((2, 1, 1), 0, True, METHOD_COMPLEMENT),
        ((2, 2), 5, False, METHOD_THEOREM2_ODD),
        ((2, 1, 1), 5, True, METHOD_THEOREM2_EVEN),
    ],
)
def test_zero_at_proves_its_labelling_graceful_once(monkeypatch, seq, target, top, method):
    # Inside zero_at no step proves what it makes; its postcondition is
    # the one check on the way out, a permutation and graceful at once,
    # on the very tuple it hands out.  No other permutation proof runs.
    calls, permutations = [], []
    check = gracetree.construct._graceful_ints
    is_permutation = gracetree.labelling._is_permutation

    def counted(t, raw):
        calls.append(raw)
        return check(t, raw)

    def counted_permutation(raw, n):
        permutations.append(raw)
        return is_permutation(raw, n)

    monkeypatch.setattr(gracetree.construct, "_graceful_ints", counted)
    monkeypatch.setattr(gracetree.labelling, "_is_permutation", counted_permutation)
    t = build(seq)
    desired = t.n - 1 if top else 0
    f, trace = zero_at(ZeroAtRequest(t, target, desired))
    assert (trace.method, f[target]) == (method, desired)
    assert calls == permutations == [f.labels]
    assert calls[0] is f.labels


def _repeat_a_label(monkeypatch):
    """Make the direct formula give its last vertex its neighbour's label."""
    real = gracetree.construct._theorem1_labels

    def broken(t):
        labels = real(t)
        labels[-1] = labels[-2]
        return labels

    monkeypatch.setattr(gracetree.construct, "_theorem1_labels", broken)
    return broken


def test_a_labelling_that_is_no_permutation_is_caught_where_it_is_handed_out(monkeypatch):
    # The construction steps build their labellings unchecked, so a fault
    # in one surfaces at the hand-out point, not as a wrong labelling.
    t = build((3, 3))
    broken = _repeat_a_label(monkeypatch)
    with pytest.raises(RuntimeError, match="failed its postcondition"):
        zero_at(ZeroAtRequest(t, 0, 0))
    with pytest.raises(RuntimeError, match="failed its postcondition"):
        zero_at(ZeroAtRequest(t, 12, 0))
    for construction in (theorem1_label, lemma1_label, compose_theorem2):
        with pytest.raises(ValueError, match="labels must be a permutation"):
            construction(t)
    # A trace that records the faulty labels replays step for step, and
    # its final check refuses it.
    forged = ConstructionTrace(METHOD_THEOREM1, ({"op": "theorem1", "labels": broken(t)},))
    with pytest.raises(ValueError, match="^trace replays to a non-graceful labelling$"):
        replay_trace(t, forged)


@pytest.mark.parametrize(
    "perm, message",
    [
        ([0, 1, 2, 3, 4, 5, 6, 7, 7], "vertex permutation must be a bijection on 0..n-1"),
        ([0, 1, 2, 3, 4, 5, 6, 7, 9], "vertex permutation must be a bijection on 0..n-1"),
        ([0, 1, 2, 3, 4, 5, 6, 7, 8.0], "vertex 8.0 is not an integer"),
    ],
    ids=["repeated", "out-of-range", "float"],
)
def test_replay_checks_a_recorded_perm_as_relabel_vertices_does(perm, message):
    t = build((2, 1, 2))
    f, trace = zero_at(ZeroAtRequest(t, 5, 0))
    steps = [dict(s) for s in trace.steps]
    assert steps[5]["op"] == "relabel_vertices"
    steps[5]["perm"] = perm
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        relabel_vertices(f, perm)
    with pytest.raises(ValueError, match=f"^trace step 5 does not replay: {re.escape(message)}$"):
        replay_trace(t, ConstructionTrace(trace.method, tuple(steps)))
