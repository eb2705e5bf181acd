import gc
import random
import sys
import tracemalloc
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gracetree.search
from gracetree import (
    GeneralTree,
    SearchConstraints,
    build,
    find_graceful,
    is_graceful,
    is_zero_rotatable,
)
from gracetree.labelling import Labelling, complement
from gracetree.model import path_sequence, to_general, vertex_orbits
from gracetree.search import SearchOutcome, _run, count_graceful
from oracles import (
    all_trees,
    count_graceful_naive,
    enumerate_graceful,
    random_tree,
    run_reference,
    zero_positions,
)


def test_constraints_validation():
    c = SearchConstraints(pins={1: 0})
    assert c.pins == ((1, 0),)
    c.validate(3)
    with pytest.raises(ValueError):
        SearchConstraints(pins={5: 0}).validate(3)
    with pytest.raises(ValueError):
        SearchConstraints(pins=((0, 1), (0, 2))).validate(3)
    with pytest.raises(ValueError):
        SearchConstraints(pins=((0, 1), (1, 1))).validate(3)
    with pytest.raises(ValueError):
        SearchConstraints(node_budget=0).validate(3)
    with pytest.raises(ValueError):
        SearchConstraints(time_budget=float("nan")).validate(3)
    assert c.with_pin(2, 1).pins == ((1, 0), (2, 1))
    assert c.with_pin(0, 2).pins == ((0, 2), (1, 0))
    assert c.with_pin(0, 2) == SearchConstraints(pins={1: 0, 0: 2})
    with pytest.raises(ValueError, match="int vertex to an int label"):
        c.with_pin(2.0, 1)


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


@pytest.mark.parametrize("budget", [2.5, 2.0, True])
def test_node_budget_must_be_an_int(budget):
    # The search stops when its node count reaches budget + 1, so a
    # fractional budget would never stop it: (1,1,1,8) pinned at vertex 2
    # ran 613,369 nodes to exhaustion under a budget of 2.5.
    cons = SearchConstraints(pins={2: 0}, node_budget=budget, time_budget=3.0)
    with pytest.raises(ValueError, match="node budget"):
        find_graceful(build((1, 1, 1, 8)), cons)


@pytest.mark.parametrize("pins", [{2.7: 0.9}, {2: 0.0}, {2.0: 0}, {"2": 0}])
def test_pins_must_be_ints(pins):
    # int() would truncate {2.7: 0.9} to {2: 0} and search that instead.
    with pytest.raises(ValueError, match="int vertex to an int label"):
        SearchConstraints(pins=pins)


@pytest.mark.parametrize("pins", [{True: 0}, {1: False}, ((0, 1), (True, 2))])
def test_pins_must_not_be_bools(pins):
    with pytest.raises(ValueError, match="int vertex to an int label"):
        SearchConstraints(pins=pins)


@pytest.mark.parametrize("seconds", ["5", b"5", 1j, [1.0]])
def test_time_budget_must_be_a_real_number(seconds):
    with pytest.raises(ValueError, match="time budget"):
        SearchConstraints(time_budget=seconds).validate(3)


@pytest.mark.parametrize("seconds", [True, False])
def test_time_budget_must_not_be_a_bool(seconds):
    # True would pass as a 1-second budget.
    with pytest.raises(ValueError, match="time budget"):
        SearchConstraints(time_budget=seconds).validate(3)


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


@pytest.mark.parametrize("node_budget", [1, 10, 100, None])
def test_scheduled_verdicts_are_sound_all_small_trees(node_budget):
    cons = SearchConstraints(node_budget=node_budget, time_budget=None)
    for n in range(1, 9):
        for g in all_trees(n):
            can = zero_positions(g)
            rep = is_zero_rotatable(g, cons)
            assert [e.representative for e in rep.entries] == [o[0] for o in vertex_orbits(g)]
            for e in rep.entries:
                if e.verdict == "yes":
                    assert is_graceful(g, e.witness) and e.witness[e.representative] == 0
                elif e.verdict == "no":
                    assert e.representative not in can, (g.edges, e.representative)
                else:
                    assert node_budget is not None and e.nodes == node_budget + 1


def test_complement_settles_a_timed_out_orbit():
    # Searches run on orbits 5, 1 and 0 (leaves first, then degree 2 from
    # the highest index down).  Orbit 1 runs out of nodes; the witness
    # found at 0 then holds n-1 on vertex 2, so its complement, carried
    # over to vertex 1, settles orbit 1 after all.
    cons = SearchConstraints(node_budget=10, time_budget=None)
    t = build((2, 1, 2))
    rep = is_zero_rotatable(t, cons)
    assert rep.methods == ("search", "complement", "complement", "search")
    e = rep.entries[1]
    assert (e.representative, e.verdict, e.method, e.nodes) == (1, "yes", "complement", 11)
    assert is_graceful(t, e.witness) and e.witness[1] == 0
    assert rep.verdict == "yes" and rep.searched == 3


def test_complement_onto_an_exhausted_orbit_is_a_bug(monkeypatch):
    # (1,1,1,2) searches orbits 4, 0, 2, 1, 3 in that order; vertex 2 is a
    # true no.  A fake search that then returns a "witness" holding n-1 on
    # vertex 2 must trip the guard instead of overturning the no.
    real = gracetree.search.find_graceful

    def fake(t, cons):
        (rep, _), = cons.pins
        if rep == 2:
            return real(t, cons)
        if rep == 1:
            return SearchOutcome("found", Labelling((1, 0, 5, 2, 3, 4)), 1, 0.0)
        return SearchOutcome("timeout", None, 1, 0.0)

    monkeypatch.setattr(gracetree.search, "find_graceful", fake)
    with pytest.raises(RuntimeError, match="exhausted; this is a bug"):
        is_zero_rotatable(build((1, 1, 1, 2)))


def test_rotatability_rejects_pins():
    with pytest.raises(ValueError, match="budgets only"):
        is_zero_rotatable(build((2, 2)), SearchConstraints(pins={1: 3}))


def test_rotatability_report_json():
    rep = is_zero_rotatable(build((2, 2)), tree_id="2,2")
    doc = rep.to_dict()
    assert doc["verdict"] == "yes"
    assert len(doc["orbits"]) == 3
    assert rep.to_json().startswith("{")
    assert rep.nodes >= 0


@pytest.mark.parametrize(
    "seq, pin, node_budget, status, nodes",
    [
        ((1, 1, 1, 2), 2, None, "exhausted", 27),
        ((1, 1, 1, 4), 2, None, "exhausted", 345),
        ((1, 1, 1, 7), 2, None, "exhausted", 100_557),
        ((2, 2, 2), 0, None, "found", 19),
        ((1, 1, 1, 1, 1, 2, 6), 0, 200_000, "found", 20),
        ((1, 1, 1, 9), 2, None, "found", 81),
    ],
)
def test_node_count_goldens(seq, pin, node_budget, status, nodes):
    # The benchmark's tallies depend on the order in which the engine
    # visits nodes, so the found counts pin that order, not just the
    # verdicts.  The exhausted counts hold in any edge order.
    cons = SearchConstraints(pins={pin: 0}, node_budget=node_budget, time_budget=None)
    out = find_graceful(build(seq), cons)
    assert (out.status, out.nodes) == (status, nodes)



def test_search_setup_memory_is_linear():
    # One int bit per edge held for the whole search would need about
    # n^2/16 bytes (6 MB here); the set-up must stay linear in n.
    n = 10_000
    path = GeneralTree(n, tuple((i, i + 1) for i in range(n - 1)))
    path.adjacency
    tracemalloc.start()
    try:
        out = find_graceful(path, SearchConstraints(pins={0: 0}, node_budget=5, time_budget=None))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (out.status, out.nodes) == ("timeout", 6)
    assert peak < 4_000_000


def test_search_tables_kept_after_a_search_are_linear():
    # The search keeps the last tree's tables for the next orbit search;
    # what stays allocated once it returns must be linear in n too.
    n = 10_000
    path = GeneralTree(n, tuple((i, i + 1) for i in range(n - 1)))
    gracetree.search._tables.cache_clear()
    tracemalloc.start()
    try:
        out = find_graceful(path, SearchConstraints(pins={0: 0}, node_budget=5, time_budget=None))
        current = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert (out.status, out.nodes) == ("timeout", 6)
    assert gracetree.search._tables.cache_info().currsize == 1
    assert current < 4_000_000


def test_search_leaves_no_reference_cycle():
    # Whatever a search allocates goes when it returns, found or not,
    # without waiting for the cyclic collector.
    n = 10_000
    path = GeneralTree(n, tuple((i, i + 1) for i in range(n - 1)))
    runs = [
        (SearchConstraints(node_budget=None, time_budget=None), ("found", n)),
        (SearchConstraints(pins={0: 0}, node_budget=5, time_budget=None), ("timeout", 6)),
    ]
    gc.collect()
    gc.disable()
    try:
        for cons, want in runs:
            out = find_graceful(path, cons)
            assert (out.status, out.nodes) == want
            assert gc.collect() == 0
    finally:
        gc.enable()


def _pendant_first(t):
    """A view of ``t`` whose edges come in the engine's order: edges
    with a leaf end first, then the rest, each group by falling index."""
    deg = [len(a) for a in t.adjacency]
    pendant = [e for e in t.edges if min(deg[e[0]], deg[e[1]]) == 1]
    inner = [e for e in t.edges if min(deg[e[0]], deg[e[1]]) > 1]
    edges = tuple(pendant[::-1] + inner[::-1])
    return SimpleNamespace(n=t.n, edges=edges, adjacency=t.adjacency)


def _assert_same_as_reference(t, cons, count_mode):
    # Everything but the elapsed time must agree: status, labels, count
    # and the node count, which also fixes the order of the visits.
    got = _run(t, cons, count_mode)[:4]
    want = run_reference(_pendant_first(t), cons, count_mode)[:4]
    assert got == want, (t.edges, cons, count_mode)


def test_engine_matches_reference_all_small_trees():
    free = dict(node_budget=None, time_budget=None)
    for n in range(1, 10):
        for g in all_trees(n):
            _assert_same_as_reference(g, SearchConstraints(**free), True)
            _assert_same_as_reference(g, SearchConstraints(**free), False)
            _assert_same_as_reference(g, SearchConstraints(node_budget=40, time_budget=None), True)
            _assert_same_as_reference(g, SearchConstraints(node_budget=5, time_budget=None), False)
            for v in range(n):
                _assert_same_as_reference(g, SearchConstraints(pins={v: 0}, **free), False)
                for w in g.adjacency[v]:
                    cons = SearchConstraints(pins={v: 0, w: n - 1}, **free)
                    _assert_same_as_reference(g, cons, False)


def test_exhaustive_work_is_order_independent():
    # An exhausted search visits every state under its pins whatever the
    # order of the children, so counts, exhausted node counts and the
    # timeouts of searches with no witness match the index-order engine.
    free = dict(node_budget=None, time_budget=None)
    for n in range(1, 9):
        for g in all_trees(n):
            cons = SearchConstraints(**free)
            assert _run(g, cons, True)[:4] == run_reference(g, cons, True)[:4]
            for v in range(n):
                cons = SearchConstraints(pins={v: 0}, **free)
                assert _run(g, cons, True)[:4] == run_reference(g, cons, True)[:4]
                got = _run(g, cons, False)
                want = run_reference(g, cons, False)
                assert (got[0] == "found") == (want[0] == "found"), (g.edges, v)
                if want[0] == "found":
                    continue
                assert got[:4] == want[:4], (g.edges, v)
                if want[3] < 2:
                    continue
                budget = want[3] // 2
                cons = SearchConstraints(pins={v: 0}, node_budget=budget, time_budget=None)
                got = _run(g, cons, False)[:4]
                assert got == run_reference(g, cons, False)[:4] == ("timeout", None, 0, budget + 1)


@given(
    st.integers(2, 16),
    st.randoms(use_true_random=False),
    st.booleans(),
    st.integers(1, 3_000),
)
@settings(max_examples=60, deadline=None)
def test_engine_matches_reference_random(n, rnd, count_mode, budget):
    g = random_tree(rnd, n)
    k = rnd.randrange(3)
    pins = dict(zip(rnd.sample(range(n), k), rnd.sample(range(n), k)))
    cons = SearchConstraints(pins=pins, node_budget=budget, time_budget=None)
    _assert_same_as_reference(g, cons, count_mode)


def test_search_on_a_deep_path_returns_a_status():
    # One nested call per difference: 5,000 levels exceed the default
    # recursion limit, which the search raises for its own duration.
    limit = sys.getrecursionlimit()
    t = build(path_sequence(5000))
    out = find_graceful(t, SearchConstraints(node_budget=None, time_budget=None))
    assert (out.status, out.nodes) == ("found", 5000)
    assert sys.getrecursionlimit() == limit


@given(st.integers(16, 24), st.randoms(use_true_random=False), st.integers(1, 2_000))
@settings(max_examples=40, deadline=None)
def test_engine_matches_reference_pinned_larger_trees(n, rnd, budget):
    # The traffic of is_zero_rotatable: one vertex pinned to 0, a small
    # node budget, trees beyond the exhaustive sizes above.
    g = random_tree(rnd, n)
    cons = SearchConstraints(pins={rnd.randrange(n): 0}, node_budget=budget, time_budget=None)
    _assert_same_as_reference(g, cons, False)


def test_table_cache_is_invisible_to_callers():
    # The search keeps the tables of the last tree it ran on.  Whatever
    # ran before, each call must equal a fresh reference run: runs on the
    # same tree back to back, trees of one size taking turns, equal but
    # distinct tree objects, and counts between witness searches.
    rnd = random.Random(7)
    spider = build((2, 1, 2))
    trees = [
        spider,
        build((2, 1, 2)),
        to_general(spider),
        build((8,)),
        build(path_sequence(9)),
        random_tree(rnd, 9),
        random_tree(rnd, 9),
        GeneralTree(9, tuple((i, i + 1) for i in range(8))),
    ]
    assert trees[1] == spider and trees[1] is not spider
    assert trees[7] == to_general(trees[4]) and trees[7] is not to_general(trees[4])
    budgets = dict(node_budget=20_000, time_budget=None)
    small = build((1, 2))

    def pinned(t, v):
        _assert_same_as_reference(t, SearchConstraints(pins={v: 0}, **budgets), False)

    for t in trees:
        for v in range(t.n):
            pinned(t, v)
    for v in range(9):
        for k, t in enumerate(trees):
            pinned(t, v)
            if k % 3 == 0:
                _assert_same_as_reference(small, SearchConstraints(**budgets), True)
    for t in trees:
        _assert_same_as_reference(t, SearchConstraints(**budgets), True)
        pinned(t, t.n - 1)
