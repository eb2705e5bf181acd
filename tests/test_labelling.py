import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gracetree import GeneralTree, build, is_graceful, theorem1_label
from gracetree.labelling import (
    Labelling,
    TranspositionProduct,
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
    assert f.n == 3
    assert f[0] == 2
    assert f.vertex_with_label(0) == 1
    assert list(f) == [2, 0, 1]


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


def test_shift_reflect_raw():
    assert shift((0, 2, 1), 5) == (5, 7, 6)
    assert shift(Labelling((0, 2, 1)), -1) == (-1, 1, 0)
    assert reflect((0, 2, 1), 4) == (4, 2, 3)


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
    assert g[4] == 0
    assert g[7] == 7


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

