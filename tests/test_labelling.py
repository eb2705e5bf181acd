import re
from itertools import product

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gracetree import GeneralTree, build, is_graceful, theorem1_label
from gracetree.labelling import (
    Labelling,
    TranspositionProduct,
    _is_permutation,
    apply_permutation,
    complement,
    edge_labels,
    graceful_defect,
    reflect,
    relabel_vertices,
    shift,
)
from gracetree.model import RootedSymmetricTree, path_sequence, to_general

sequences = (
    st.lists(st.integers(1, 4), min_size=1, max_size=4)
    .map(tuple)
    .filter(lambda s: RootedSymmetricTree(s).n <= 120)
)


def test_labelling_validation():
    with pytest.raises(ValueError):
        Labelling(())
    with pytest.raises(ValueError):
        Labelling((0, 0, 1))
    with pytest.raises(ValueError):
        Labelling((1, 2, 3))
    f = Labelling((2, 0, 1))
    assert f.labels == (2, 0, 1)
    assert f.vertex_with_label(0) == 1
    assert f.vertex_with_label(True) == 2
    # 99 leaked tuple.index's message, and 1.0 found the label 1.
    with pytest.raises(ValueError, match="^label 99 is not in the labelling$"):
        f.vertex_with_label(99)
    for bad in (1.0, "1", None):
        with pytest.raises(ValueError, match=re.escape(f"label {bad!r} is not an integer")):
            f.vertex_with_label(bad)
    # The one-sort permutation proof against a three-pass reference (n
    # distinct ints, the least 0 and the greatest n-1), on every int
    # sequence of length 0 to 5 with entries in -1..5 and every n from 0
    # to 6: duplicates, gaps, negatives, out-of-range values and wrong
    # lengths.  min and max need an entry; () is the permutation of 0..-1.
    for length in range(6):
        for raw in product(range(-1, 6), repeat=length):
            for n in range(7):
                three_pass = len(raw) == len(set(raw)) == n and (not raw or (min(raw), max(raw)) == (0, n - 1))
                assert _is_permutation(raw, n) == three_pass, (raw, n)


@pytest.mark.parametrize("labels", [(0, 2.7, 1), (0, 1.0, 2), ("0", 1, 2), (0, None, 1)])
def test_labelling_rejects_non_integer_labels(labels):
    # int() turned (0, 2.7, 1) into (0, 2, 1) and "0" into 0.
    # A one-shot iterator must name the culprit too, not fail re-reading.
    bad = next(x for x in labels if type(x) is not int)
    for given in (labels, iter(labels)):
        with pytest.raises(ValueError, match=re.escape(f"label {bad!r} is not an integer")):
            Labelling(given)


def test_labelling_rejects_a_non_iterable():
    with pytest.raises(ValueError, match="label list 5 is not iterable"):
        Labelling(5)


def test_labelling_takes_bools_as_zero_and_one():
    assert Labelling((True, 0, 2)).labels == (1, 0, 2)


def test_edge_labels_golden():
    g = to_general(build(path_sequence(3)))
    assert edge_labels(g, (1, 2, 0)) == (1, 2)
    with pytest.raises(ValueError):
        edge_labels(g, (0, 1))


def test_is_graceful_basics():
    g = to_general(build(path_sequence(3)))
    assert is_graceful(g, (1, 2, 0))
    assert not is_graceful(g, (0, 1, 2))
    assert not is_graceful(g, (0, 0, 1))
    with pytest.raises(ValueError):
        is_graceful(g, (0, 1))


def test_is_graceful_rejects_non_integer_labels():
    # int() truncated 1.9 to 1, and [0, 1, 2] is graceful on the star.
    with pytest.raises(ValueError, match="label 1.9 is not an integer"):
        is_graceful(build((2,)), [0, 1.9, 2])


@st.composite
def trees_and_labels(draw):
    n = draw(st.integers(1, 9))
    g = GeneralTree(n, tuple((draw(st.integers(0, i - 1)), i) for i in range(1, n)))
    labels = draw(
        st.one_of(
            st.permutations(range(n)),
            st.lists(st.integers(-2, n + 1), min_size=n, max_size=n),
        )
    )
    return g, tuple(labels)


@given(trees_and_labels())
# Not permutations, but each has n-1 distinct edge differences.
@example((GeneralTree(3, ((0, 1), (1, 2))), (0, 1, 3)))
@example((GeneralTree(4, ((0, 1), (0, 2), (0, 3))), (4, 1, 2, 3)))
@example((GeneralTree(4, ((0, 1), (1, 2), (2, 3))), (-1, 2, 0, 1)))
def test_is_graceful_matches_sorted_formulation(case):
    g, labels = case
    n = g.n
    is_perm = sorted(labels) == list(range(n))
    diffs = sorted(abs(labels[u] - labels[v]) for u, v in g.edges)
    expected = is_perm and diffs == list(range(1, n))
    assert is_graceful(g, labels) == expected
    defect = graceful_defect(g, labels)
    assert (defect is None) == expected
    if not is_perm:
        assert defect == "labels are not a permutation of 0..n-1"
        with pytest.raises(ValueError):
            Labelling(labels)
    elif not expected:
        repeated, missing = map(int, re.fullmatch(
            r"edge difference (\d+) repeats and (\d+) is missing", defect
        ).groups())
        assert repeated == min(d for d in diffs if diffs.count(d) > 1)
        assert missing == min(set(range(1, n)) - set(diffs))


@given(sequences)
def test_complement_involution_preserves_gracefulness(seq):
    t = build(seq)
    g = to_general(t)
    f = theorem1_label(t)
    c = complement(f)
    assert is_graceful(g, c)
    assert complement(c).labels == f.labels
    assert c == Labelling(c.labels)


@st.composite
def labellings_and_bijections(draw):
    """A labelling on n <= 12 vertices, a disjoint transposition product
    on 0..n-1, and a vertex permutation."""
    n = draw(st.integers(1, 12))
    f = Labelling(draw(st.permutations(range(n))))
    values = draw(st.permutations(range(n)))
    pairs = draw(st.integers(0, n // 2))
    swaps = tuple(zip(values[: 2 * pairs : 2], values[1 : 2 * pairs : 2]))
    return f, TranspositionProduct(swaps), tuple(draw(st.permutations(range(n))))


@given(labellings_and_bijections())
def test_bijections_build_valid_labellings(case):
    # The bijections build their result without Labelling's check; each
    # must still be a Labelling that the check would accept unchanged.
    f, prod, vertex_perm = case
    swap = dict(prod.swaps)
    swap.update((b, a) for a, b in prod.swaps)
    moved = [0] * len(f.labels)
    for old, new in enumerate(vertex_perm):
        moved[new] = f.labels[old]
    for out, labels in (
        (complement(f), [len(f.labels) - 1 - b for b in f.labels]),
        (apply_permutation(f, prod), [swap.get(b, b) for b in f.labels]),
        (relabel_vertices(f, vertex_perm), moved),
    ):
        assert type(out) is Labelling
        assert out == Labelling(out.labels)
        assert type(out.labels) is tuple and out.labels == tuple(labels)


@pytest.mark.parametrize(
    "call",
    [
        lambda f: complement(f),
        lambda f: apply_permutation(f, TranspositionProduct(((0, 1),))),
        lambda f: relabel_vertices(f, (0, 1, 2)),
    ],
)
@pytest.mark.parametrize("f", [(0, 1, 2), [2, 1, 0], None])
def test_bijections_refuse_a_non_labelling(call, f):
    # A tuple raised AttributeError: 'tuple' object has no attribute 'n'.
    with pytest.raises(ValueError, match=re.escape(f"labelling {f!r} is not a Labelling")):
        call(f)


def test_shift_reflect_raw():
    assert shift((0, 2, 1), 5) == (5, 7, 6)
    assert shift(Labelling((0, 2, 1)), -1) == (-1, 1, 0)
    assert reflect((0, 2, 1), 4) == (4, 2, 3)
    assert shift((0, 2, 1), True) == (1, 3, 2)
    # "a" raised a raw TypeError, and 1.5 gave float labels.
    for bad in ("a", 1.5, None):
        with pytest.raises(ValueError, match=re.escape(f"shift amount {bad!r} is not an integer")):
            shift((0, 2, 1), bad)
        with pytest.raises(ValueError, match=re.escape(f"reflect pivot {bad!r} is not an integer")):
            reflect((0, 2, 1), bad)


@given(st.lists(st.integers(0, 50), min_size=2, max_size=12, unique=True), st.integers(-20, 20))
def test_shift_preserves_differences(values, amount):
    diffs = [abs(a - b) for a, b in zip(values, values[1:])]
    moved = shift(tuple(values), amount)
    assert [abs(a - b) for a, b in zip(moved, moved[1:])] == diffs


@given(st.lists(st.integers(0, 50), min_size=2, max_size=12, unique=True), st.integers(50, 90))
def test_reflect_preserves_differences_and_involutes(values, pivot):
    diffs = [abs(a - b) for a, b in zip(values, values[1:])]
    flipped = reflect(tuple(values), pivot)
    assert [abs(a - b) for a, b in zip(flipped, flipped[1:])] == diffs
    assert reflect(flipped, pivot) == tuple(values)


def test_transposition_product_validation():
    with pytest.raises(ValueError):
        TranspositionProduct(((1, 1),))
    with pytest.raises(ValueError):
        TranspositionProduct(((0, 1), (1, 2)))
    with pytest.raises(ValueError):
        TranspositionProduct(((-1, 2),))
    with pytest.raises(ValueError, match="label value 1.5 is not an integer"):
        TranspositionProduct(((1.5, 2),))
    with pytest.raises(ValueError, match="transposition list 5 is not iterable"):
        TranspositionProduct(5)
    p = TranspositionProduct(((0, 4), (5, 9)))
    g = apply_permutation(Labelling(range(10)), p)
    assert g.labels[4] == 0
    assert g.labels[7] == 7


def test_apply_permutation():
    f = Labelling((0, 2, 1, 3))
    p = TranspositionProduct(((0, 3),))
    assert apply_permutation(f, p).labels == (3, 2, 1, 0)
    with pytest.raises(ValueError):
        apply_permutation(Labelling((0, 1)), TranspositionProduct(((0, 5),)))


def test_relabel_vertices():
    f = Labelling((0, 2, 1))
    ident = relabel_vertices(f, (0, 1, 2))
    assert ident.labels == f.labels
    swapped = relabel_vertices(f, (2, 1, 0))
    assert swapped.labels == (1, 2, 0)
    with pytest.raises(ValueError):
        relabel_vertices(f, (0, 0, 1))
    # Floats pass the bijection test on values alone, then cannot index.
    for perm, bad in (([1.0, 0.0, 2.0], 1.0), ([1.5, 0, 2], 1.5), (iter([1, 0, 2.5]), 2.5)):
        with pytest.raises(ValueError, match=re.escape(f"vertex {bad!r} is not an integer")):
            relabel_vertices(f, perm)
    with pytest.raises(ValueError, match="vertex list 5 is not iterable"):
        relabel_vertices(f, 5)

