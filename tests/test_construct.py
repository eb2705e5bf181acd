import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gracetree import (
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
    _broom_labels,
    compose_theorem2,
    lemma1_label,
    lemma1_product,
    zero_at_levels,
)
from gracetree.model import RootedSymmetricTree, path_sequence, to_general
from gracetree.sweep import SweepSpec, enumerate_family
from oracles import UNIT_RUN_SEQUENCES, check_trace, theorem1_label_by_addresses

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
    assert f.labels[t.index_of((1, 2, 3))] == 2


def test_theorem1_matches_address_definition():
    for seq in enumerate_family(SweepSpec("rst_all", nmax=40)):
        t = build(seq)
        assert theorem1_label(t).labels == theorem1_label_by_addresses(seq), seq


def _assert_matches_the_oracles(seq):
    # theorem1_label against address decoding, and zero_at's trace, step
    # by step, on each level zero_at_levels names, at one end of the level.
    t = build(seq)
    assert theorem1_label(t).labels == theorem1_label_by_addresses(seq), seq
    for i, r in enumerate(zero_at_levels(t)):
        v = t.level_offsets[r - 1] if i % 2 == 0 else t.level_offsets[r] - 1
        f, trace = zero_at(ZeroAtRequest(t, v, (0, t.n - 1)[i // 2 % 2]))
        assert check_trace(seq, trace.to_dict()) == list(f.labels), (seq, v)


def test_long_unit_runs_match_the_oracles():
    # The run arithmetic of the direct formula on trees of up to about
    # 300 levels.
    for seq in UNIT_RUN_SEQUENCES:
        _assert_matches_the_oracles(seq)


def test_wide_and_binary_levels_match_the_oracles():
    # Levels with k > 1, each built from its parents' labels: one wide
    # level, wide levels under short runs of 1s, and eleven binary or
    # seven ternary levels.
    for seq in (
        (2999,),
        (1500, 1),
        (600, 2),
        (60, 35),
        (31, 1, 76),
        (57, 1, 1, 1, 1, 35),
        (2,) * 11,
        (3,) * 7,
    ):
        _assert_matches_the_oracles(seq)


def test_zero_at_levels_names_each_level_once_in_order():
    assert zero_at_levels(build((0,))) == (1,)
    assert zero_at_levels(build((5,))) == (1, 2)
    assert zero_at_levels(build((2, 3))) == (1, 2, 3)
    assert zero_at_levels(build((1, 1))) == (1, 2, 3)
    assert zero_at_levels(build((2, 1, 3))) == (1, 2, 3, 4)
    assert zero_at_levels(build((2, 1, 1, 3))) == (1, 2, 4, 5)
    assert zero_at_levels(build((2, 2, 3))) == (1, 2)
    assert zero_at_levels(build((2, 3, 1))) == (1, 2)
    assert zero_at_levels(build(path_sequence(7))) == (1, 2, 6, 7)


@given(sequences)
@settings(max_examples=150)
def test_theorem1_always_graceful(seq):
    t = build(seq)
    f = theorem1_label(t)
    assert is_graceful(to_general(t), f)
    assert f.labels[0] == 0
    assert f.labels[1] == t.n - 1  # first child of the root takes the top label


def test_lemma1_product_golden():
    assert lemma1_product(build((3, 4))).swaps == ((0, 4), (5, 9), (10, 14))
    assert lemma1_product(build((2, 2))).swaps == ((0, 2), (3, 5))


def test_lemma1_golden():
    t = build((2, 2))
    f, trace = lemma1_label(t)
    assert f.labels == (2, 6, 5, 1, 0, 4, 3)
    assert trace.method == "lemma1"
    assert check_trace(t.degrees, trace.to_dict()) == list(f.labels)


@given(st.tuples(st.integers(1, 8), st.integers(1, 8)))
@settings(max_examples=60)
def test_lemma1_moves_zero_to_deepest_level(seq):
    t = build(seq)
    f, trace = lemma1_label(t)
    assert is_graceful(to_general(t), f)
    assert t.level_of_index(f.vertex_with_label(0)) == 3
    assert check_trace(t.degrees, trace.to_dict()) == list(f.labels)


def test_lemma1_needs_three_levels():
    for seq, q in [((4,), 2), ((2, 1, 1), 4)]:
        with pytest.raises(ValueError, match=f"^the swap product needs exactly 3 levels, tree has {q}$"):
            lemma1_label(build(seq))


def test_broom_label_goldens():
    assert _broom_labels(4, 2, 16) == (4, 15, 0, 1, 2, 3)
    assert _broom_labels(1, 3, 10) == (8, 1, 9, 0)
    assert _broom_labels(1, 1, 2) == (1, 0)


@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 40))
def test_broom_label_shape(leaves, spine, slack):
    n = leaves + spine + slack
    labels = _broom_labels(leaves, spine, n)
    assert len(labels) == leaves + spine
    assert len(set(labels)) == len(labels)
    assert labels[spine:] == tuple(range(leaves))
    # differences along the broom are the top run of 1..n-1
    diffs = sorted(
        [abs(labels[i] - labels[i + 1]) for i in range(spine - 1)]
        + [abs(labels[spine - 1] - leaf) for leaf in range(leaves)]
    )
    assert diffs == list(range(n - (leaves + spine - 1), n))


def test_compose_golden_three_levels():
    t = build((3, 4))
    f, trace = compose_theorem2(t)
    g = to_general(t)
    assert is_graceful(g, f)
    assert trace.method == METHOD_THEOREM2_ODD
    # last branch carries the extremes, the rest is the shifted direct formula
    assert f.labels[0] == 4
    assert f.labels[3] == 15
    assert [f.labels[v] for v in (12, 13, 14, 15)] == [0, 1, 2, 3]
    h = build((2, 4))
    h_labels = theorem1_label(h)
    h_map = (0, 1, 2, 4, 5, 6, 7, 8, 9, 10, 11)
    assert [f.labels[v] for v in h_map] == [x + 4 for x in h_labels.labels]


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
    target = data.draw(st.sampled_from(range(t.level_offsets[level - 1], t.level_offsets[level])))
    desired = data.draw(st.sampled_from((0, t.n - 1)))
    f, trace = zero_at(ZeroAtRequest(t, target, desired))
    assert is_graceful(g, f)
    assert f.labels[target] == desired
    assert check_trace(t.degrees, trace.to_dict()) == list(f.labels)


def test_compose_rejections():
    with pytest.raises(ValueError, match=r"^intermediate daughter degrees of \(2, 3, 4\) are not all 1$"):
        compose_theorem2(build((2, 3, 4)))
    with pytest.raises(ValueError, match="^branch composition needs at least 3 levels, tree has 2$"):
        compose_theorem2(build((4,)))


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
        assert f.labels[target] == desired

    star = build((4,))
    for target in range(star.n):
        f, trace = zero_at(ZeroAtRequest(star, target, 0))
        assert trace.method == METHOD_STAR
        assert f.labels[target] == 0


def test_zero_at_rejects_middle_levels():
    t = build(path_sequence(8))  # 8 levels; 3..6 have no construction
    with pytest.raises(ValueError, match="^no constructive placement for level 4 of a 8-level tree$"):
        zero_at(ZeroAtRequest(t, t.index_of((0, 0, 0)), 0))
    # The deep levels of a tree that is not a broom are refused alike.
    t = build((2, 3, 2))
    with pytest.raises(ValueError, match="^no constructive placement for level 4 of a 4-level tree$"):
        zero_at(ZeroAtRequest(t, t.n - 1, 0))


@pytest.mark.parametrize(
    "spine, level, end",
    [(600, "q", "first"), (600, "q-1", "first"), (1_150, "2", "last")],
)
def test_zero_at_on_deep_brooms(spine, level, end):
    # Spines deep enough that nested-tuple subtree codes overflowed the
    # stack when the result was moved onto its target.
    t = build((3,) + (1,) * spine + (3,))
    r = {"2": 2, "q-1": t.q - 1, "q": t.q}[level]
    vertices = range(t.level_offsets[r - 1], t.level_offsets[r])
    target = vertices[0] if end == "first" else vertices[-1]
    f, trace = zero_at(ZeroAtRequest(t, target, 0))
    assert f.labels[target] == 0
    assert is_graceful(to_general(t), f)
    assert check_trace(t.degrees, trace.to_dict()) == list(f.labels)


def test_zero_at_on_a_long_broom_level_four():
    t = build((2, 1, 1, 5000))
    target = t.level_offsets[3]
    f, _ = zero_at(ZeroAtRequest(t, target, 0))
    assert f.labels[target] == 0
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
    # True would pass as vertex 1.
    with pytest.raises(ValueError, match="^target must be a vertex index, not a bool$"):
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
    except ValueError as exc:
        assert str(exc) == f"no constructive placement for level {level} of a {q}-level tree"
        assert level > 2
        if level in (q - 1, q):
            assert q >= 4 and any(k != 1 for k in seq[1:-1])
        return
    assert f.labels[target] == desired
    assert is_graceful(to_general(t), f)
    assert check_trace(t.degrees, trace.to_dict()) == list(f.labels)


def test_check_trace_refuses_a_swapped_snapshot():
    # The oracle recomputes every step of a composition, its complement
    # and its automorphism; two entries swapped in any one step's labels,
    # or in the decompose step's map of H, are caught at that step.
    t = build((3, 1, 2))
    f, trace = zero_at(ZeroAtRequest(t, 12, t.n - 1))
    doc = trace.to_dict()
    assert check_trace(t.degrees, doc) == list(f.labels)
    for i, step in enumerate(doc["steps"]):
        key = "h_map" if step["op"] == "decompose" else "labels"
        bad = list(step[key])
        bad[0], bad[1] = bad[1], bad[0]
        steps = doc["steps"][:i] + [{**step, key: bad}] + doc["steps"][i + 1 :]
        with pytest.raises(ValueError, match=rf"^trace step {i} \('{step['op']}'\) does not recompute$"):
            check_trace(t.degrees, {**doc, "steps": steps})
    # A reflect pivot moved by one, with the snapshot it gives, recomputes,
    # and the merge then finds the subtree's root off the broom's.
    (i,) = [i for i, s in enumerate(doc["steps"]) if s["op"] == "reflect"]
    step = doc["steps"][i]
    forged = {**step, "pivot": step["pivot"] + 1, "labels": [b + 1 for b in step["labels"]]}
    steps = doc["steps"][:i] + [forged] + doc["steps"][i + 1 :]
    misfit = f"^trace step {i + 1} merges a broom and a subtree that do not fit$"
    with pytest.raises(ValueError, match=misfit):
        check_trace(t.degrees, {**doc, "steps": steps})


def test_trace_dict_roundtrip():
    t = build((2, 2))
    f, trace = lemma1_label(t)
    doc = json.loads(json.dumps(trace.to_dict()))
    assert doc == trace.to_dict()
    assert check_trace(t.degrees, doc) == list(f.labels)
    # A step holds the construction's own tuple, uncopied; to_dict writes
    # fresh lists, so changing one result changes neither the steps nor
    # the next result, down to the swap pairs.
    fresh = trace.to_dict()
    fresh["steps"][1]["labels"][0] = fresh["steps"][1]["swaps"][0][0] = -1
    assert trace.to_dict() == doc
    f, trace = zero_at(ZeroAtRequest(build((3, 2)), 0, 0))
    assert trace.steps[0]["labels"] is f.labels
    fresh = trace.to_dict()
    fresh["steps"][0]["labels"][0] = -1
    assert trace.steps[0]["labels"] == f.labels == tuple(trace.to_dict()["steps"][0]["labels"])


def test_golden_trace_replays_from_its_json():
    # decompose, broom, subtree, reflect, merge and relabel_vertices,
    # read back from the checked-in --explain output alone.
    golden = Path(__file__).parent / "golden" / "label_rst_2-1-2_zero_at_5_explain.json"
    doc = json.loads(golden.read_text())
    ops = [s["op"] for s in doc["trace"]["steps"]]
    assert ops == ["decompose", "broom", "subtree", "reflect", "merge", "relabel_vertices"]
    assert check_trace(doc["tree"]["degrees"], doc["trace"]) == doc["labels"]


def test_zero_at_is_pinned_byte_for_byte():
    # Labels and trace of every constructible request, and for each
    # refusal the reason code refusals carried when the digest was taken
    # (NotBroom on the two deepest levels, NoConstruction elsewhere),
    # over each vertex and both extreme labels of every rst_all tree up
    # to n = 30; a request succeeds exactly on the levels zero_at_levels
    # names.  The digest was taken from the
    # generator-per-vertex formulas the level-wise bulk ones replaced.
    h = hashlib.sha256()
    for seq in enumerate_family(SweepSpec("rst_all", nmax=30)):
        t = build(seq)
        for v in range(t.n):
            for desired in (0, t.n - 1):
                reached = t.level_of_index(v) in zero_at_levels(t)
                try:
                    f, trace = zero_at(ZeroAtRequest(t, v, desired))
                except ValueError:
                    assert not reached, (seq, v, desired)
                    deep = t.level_of_index(v) >= t.q - 1
                    out = [seq, v, desired, "NotBroom" if deep else "NoConstruction"]
                else:
                    assert reached, (seq, v, desired)
                    out = [seq, v, desired, f.labels, trace.to_dict()]
                h.update(json.dumps(out).encode())
    assert h.hexdigest() == "59f76793432faf3b66d4b353a275710369b66d452aca710eddbda6695fb0ebd7"


def test_lemma1_and_compose_are_pinned_byte_for_byte():
    # Labels and trace of lemma1_label on every three-level rst_all tree,
    # and of compose_theorem2 on every rst_all tree it accepts, up to
    # n = 30: the steps zero_at's digest above never runs (apply_permutation)
    # or runs only under a complement or a relabelling.  The digest was
    # taken from the step interpreter the straight-line constructions
    # replaced.
    h = hashlib.sha256()
    for seq in enumerate_family(SweepSpec("rst_all", nmax=30)):
        t = build(seq)
        if t.q == 3:
            f, trace = lemma1_label(t)
            h.update(json.dumps([seq, f.labels, trace.to_dict()]).encode())
        try:
            f, trace = compose_theorem2(t)
        except ValueError:
            continue
        h.update(json.dumps([seq, f.labels, trace.to_dict()]).encode())
    assert h.hexdigest() == "203ecd3db58aa2eea58724f577517f0eb44dea75115f83646e0eef7fa7c98a06"


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
    # Inside zero_at no step proves what it makes; labelling._proven is
    # the one check on the way out, a permutation and graceful at once,
    # on the very tuple it hands out.  No other permutation proof runs.
    calls, permutations = [], []
    check = gracetree.labelling._graceful_ints
    is_permutation = gracetree.labelling._is_permutation

    def counted(t, raw):
        calls.append(raw)
        return check(t, raw)

    def counted_permutation(raw, n):
        permutations.append(raw)
        return is_permutation(raw, n)

    monkeypatch.setattr(gracetree.labelling, "_graceful_ints", counted)
    monkeypatch.setattr(gracetree.labelling, "_is_permutation", counted_permutation)
    t = build(seq)
    desired = t.n - 1 if top else 0
    f, trace = zero_at(ZeroAtRequest(t, target, desired))
    assert (trace.method, f.labels[target]) == (method, desired)
    assert calls == permutations == [f.labels]
    assert calls[0] is f.labels


# The one bug report of labelling._proven, for any labelling handed out.
BUG = "^a labelling handed out is not graceful or misses a pin; this is a bug$"


def _repeat_a_label(monkeypatch):
    """Make the direct formula give its last vertex its neighbour's label."""
    real = gracetree.construct._theorem1_labels

    def broken(t):
        labels = real(t)
        labels[-1] = labels[-2]
        return labels

    monkeypatch.setattr(gracetree.construct, "_theorem1_labels", broken)


def test_a_labelling_that_is_no_permutation_is_caught_where_it_is_handed_out(monkeypatch):
    # The construction steps build their labellings unchecked, so a fault
    # in one surfaces at the hand-out point, not as a wrong labelling.
    t = build((3, 3))
    _repeat_a_label(monkeypatch)
    with pytest.raises(RuntimeError, match=BUG):
        zero_at(ZeroAtRequest(t, 0, 0))
    with pytest.raises(RuntimeError, match=BUG):
        zero_at(ZeroAtRequest(t, 12, 0))
    for construction in (theorem1_label, lemma1_label, compose_theorem2):
        with pytest.raises(RuntimeError, match=BUG):
            construction(t)


def test_a_labelling_that_misses_its_target_is_caught_where_it_is_handed_out(monkeypatch):
    # A transport that leaves every vertex where it is keeps the labelling
    # graceful but leaves 0 on vertex 1, where the direct formula put n-1:
    # it misses its pin (2, 0).
    monkeypatch.setattr(gracetree.construct, "_level_mapping", lambda t, src, dst: tuple(range(t.n)))
    with pytest.raises(RuntimeError, match=BUG):
        zero_at(ZeroAtRequest(build((2, 2)), 2, 0))
