import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gracetree import (
    GeneralTree,
    SearchConstraints,
    build,
    complement,
    count_graceful,
    find_graceful,
    is_graceful,
    is_zero_rotatable,
    path_sequence,
    to_general,
    vertex_orbits,
)
from oracles import (
    all_trees,
    count_graceful_naive,
    enumerate_graceful,
    random_tree,
    zero_positions,
)


def test_constraints_validation():
    c = SearchConstraints(pins={1: 0}, forbid={0: 2})
    assert c.pins == ((1, 0),)
    assert c.forbid == ((0, 2),)
    c.validate(3)
    with pytest.raises(ValueError):
        SearchConstraints(pins={5: 0}).validate(3)
    with pytest.raises(ValueError):
        SearchConstraints(pins=((0, 1), (0, 2))).validate(3)
    with pytest.raises(ValueError):
        SearchConstraints(pins=((0, 1), (1, 1))).validate(3)
    with pytest.raises(ValueError):
        SearchConstraints(node_budget=0).validate(3)
    assert c.with_pin(2, 1).pins == ((1, 0), (2, 1))


def test_find_graceful_basics():
    out = find_graceful(build((2, 2)))
    assert out.status == "found"
    assert is_graceful(to_general(build((2, 2))), out.labelling)
    assert out.nodes > 0

    single = GeneralTree(1, ())
    assert find_graceful(single).labelling.labels == (0,)


def test_first_witness_goldens():
    p4 = build(path_sequence(4))
    out = find_graceful(p4, SearchConstraints(pins={1: 0}))
    assert out.status == "found"
    assert out.labelling.labels == (3, 0, 2, 1)

    star = build((3,))
    out = find_graceful(star, SearchConstraints(pins={1: 0}))
    assert out.status == "found"
    assert out.labelling[0] == 3  # hub forced to the top label


def test_search_is_deterministic():
    t = build((2, 1, 2))
    a = find_graceful(t, SearchConstraints(pins={4: 0}))
    b = find_graceful(t, SearchConstraints(pins={4: 0}))
    assert a.labelling.labels == b.labelling.labels
    assert a.nodes == b.nodes


def test_exhausted_pin():
    # the middle of a 3-path never carries 1 in a graceful labelling
    out = find_graceful(build(path_sequence(3)), SearchConstraints(pins={1: 1}))
    assert out.status == "exhausted"
    assert out.labelling is None


def test_forbid_is_honoured():
    p3 = build(path_sequence(3))
    for x in range(3):
        out = find_graceful(p3, SearchConstraints(forbid={1: x}))
        assert out.status == "found"
        assert out.labelling[1] != x
    # forbidding both feasible middle values leaves nothing
    out = find_graceful(p3, SearchConstraints(forbid=((1, 0), (1, 2))))
    assert out.status == "exhausted"


def test_timeout_status():
    t = build((3, 2, 2))
    out = find_graceful(t, SearchConstraints(pins={2: 0}, node_budget=3))
    assert out.status == "timeout"
    assert out.labelling is None
    assert out.nodes >= 3


def test_pins_against_naive_enumeration_all_small_trees():
    # find_graceful must succeed exactly when the raw enumeration says so
    for n in range(2, 8):
        for g in all_trees(n):
            witnessed = {}
            for f in enumerate_graceful(g):
                for v, x in enumerate(f):
                    witnessed.setdefault((v, x), f)
            for v in range(n):
                for x in range(n):
                    out = find_graceful(g, SearchConstraints(pins={v: x}))
                    assert out.status in ("found", "exhausted")
                    if (v, x) in witnessed:
                        assert out.status == "found", (g.edges, v, x)
                        assert out.labelling[v] == x
                    else:
                        assert out.status == "exhausted", (g.edges, v, x)


def test_count_matches_naive_all_small_trees():
    for n in range(1, 8):
        for g in all_trees(n):
            assert count_graceful(g) == count_graceful_naive(g), g.edges


def test_count_goldens():
    assert count_graceful(build((3,))) == 12
    assert count_graceful(build(path_sequence(3))) == 4
    assert count_graceful(GeneralTree(1, ())) == 1
    assert count_graceful(GeneralTree(2, ((0, 1),))) == 2


def test_count_bound_guard():
    big = build((2, 2, 2))
    with pytest.raises(ValueError):
        count_graceful(big)
    with pytest.raises(ValueError):
        count_graceful_naive(big)
    assert count_graceful(build(path_sequence(11)), bound=10, force=True) > 0


@given(st.integers(2, 8), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_count_matches_naive_random(n, rnd):
    g = random_tree(rnd, n)
    assert count_graceful(g) == count_graceful_naive(g)


def test_complement_of_witness_is_witness():
    out = find_graceful(build((2, 3)))
    flipped = complement(out.labelling)
    assert is_graceful(to_general(build((2, 3))), flipped)


def test_rotatability_golden_yes():
    rep = is_zero_rotatable(build((2, 2)), tree_id="2,2")
    assert rep.verdict == "yes"
    assert rep.all_yes
    assert rep.tree_id == "2,2"
    assert [e.representative for e in rep.entries] == [0, 1, 3]
    methods = [e.method for e in rep.entries]
    assert "complement" in methods  # the cache must fire at least once
    for e in rep.entries:
        assert e.witness is not None
        assert e.witness[e.representative] == 0


def test_rotatability_golden_no():
    rep = is_zero_rotatable(build((1, 1, 1, 2)))
    assert rep.verdict == "no"
    by_rep = {e.representative: e.verdict for e in rep.entries}
    assert by_rep[2] == "no"
    assert not rep.all_yes


def test_rotatability_timeout():
    cons = SearchConstraints(node_budget=1)
    rep = is_zero_rotatable(build((2, 2, 2)), cons)
    assert rep.verdict in ("timeout", "no")
    assert any(e.verdict == "timeout" for e in rep.entries)


def test_rotatability_matches_naive_all_small_trees():
    for n in range(2, 9):
        for g in all_trees(n):
            can = zero_positions(g)
            rep = is_zero_rotatable(g)
            for e in rep.entries:
                expected = "yes" if e.representative in can else "no"
                assert e.verdict == expected, (g.edges, e.representative)
                # a vertex can take 0 iff its whole orbit can
                assert all((v in can) == (e.representative in can) for v in e.orbit)


def test_rotatability_report_json():
    rep = is_zero_rotatable(build((2, 2)), tree_id="2,2")
    doc = rep.to_dict()
    assert doc["verdict"] == "yes"
    assert len(doc["orbits"]) == 3
    assert rep.to_json().startswith("{")
    assert rep.nodes >= 0
