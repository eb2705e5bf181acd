import csv
import gc
import io
import random
import re
import sys
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gracetree.search
from gracetree import (
    GeneralTree,
    SearchConstraints,
    build,
    evaluate_sequence,
    find_graceful,
    is_graceful,
    is_zero_rotatable,
)
from gracetree.labelling import complement, edge_labels, graceful_defect
from gracetree.model import (
    automorphism_mapping,
    classify,
    path_sequence,
    rooted_sequence_at,
    to_dot,
    to_general,
    tree_to_dict,
    vertex_orbits,
)
from gracetree.search import _run, _tables, count_graceful
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
    assert SearchConstraints(pins={1: 0, 0: 2}).pins == ((0, 2), (1, 0))
    with pytest.raises(ValueError, match="int vertex to an int label"):
        SearchConstraints(pins={2.0: 1})


def test_constraints_name_pins_that_are_not_pairs():
    with pytest.raises(ValueError, match="^pins None is not iterable$"):
        SearchConstraints(pins=None)
    with pytest.raises(ValueError, match=r"^pin 3 is not a \(vertex, label\) pair$"):
        SearchConstraints(pins=[(1, 0), 3])
    with pytest.raises(ValueError, match=r"^pin \(1, 0, 2\) is not a \(vertex, label\) pair$"):
        SearchConstraints(pins=[(1, 0, 2)])


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
    assert count_graceful(build(path_sequence(11)), bound=None) > 0
    # The bound follows the exact integer rule: "x" raised a raw
    # TypeError, and 2.5 was accepted.
    for bound in ("x", 2.5, True):
        message = f"count bound must be an integer or None, not {bound!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            count_graceful(build((2, 2)), bound=bound)


@pytest.mark.parametrize(
    "call",
    [
        lambda t: vertex_orbits(t),
        lambda t: automorphism_mapping(t, 0, 0),
        lambda t: is_graceful(t, [0]),
        lambda t: edge_labels(t, [0]),
        lambda t: graceful_defect(t, [0]),
        lambda t: find_graceful(t),
        lambda t: count_graceful(t),
        lambda t: is_zero_rotatable(t),
        lambda t: tree_to_dict(t),
        lambda t: to_dot(t),
        lambda t: to_general(t),
        lambda t: classify(t),
        lambda t: rooted_sequence_at(t, 0),
    ],
)
@pytest.mark.parametrize("t", [5, None, (0, 1)])
def test_entry_points_refuse_a_non_tree(call, t):
    # Each escaped as AttributeError: 'int' object has no attribute ...
    message = f"tree {t!r} is not a GeneralTree or RootedSymmetricTree"
    with pytest.raises(ValueError, match=re.escape(message)):
        call(t)


def test_search_entry_points_refuse_bad_constraints():
    t = build((2, 2))
    # A non-constraints argument raised AttributeError: ... 'validate'.
    for call in (find_graceful, is_zero_rotatable):
        with pytest.raises(ValueError, match="^constraints 5 are not SearchConstraints$"):
            call(t, 5)


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
    assert "complement_of" in methods  # the cache must fire at least once
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


@pytest.mark.parametrize("node_budget", [1, 10, 100, 200, None])
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
                    # Split by neighbour, the search still counts the nodes
                    # of one search with 0 pinned on the representative.
                    # An exhaust over 100 nodes first times out the prefix
                    # and the probe, 101 nodes each.
                    alone = find_graceful(
                        g, SearchConstraints(((e.representative, 0),), node_budget, None)
                    )
                    assert alone.status == "exhausted"
                    assert e.nodes == alone.nodes + (202 if alone.nodes > 100 else 0)
                else:
                    assert node_budget is not None
                    assert e.nodes == node_budget + 1 + (202 if node_budget > 100 else 0)


def test_complement_settles_a_timed_out_orbit():
    # (3,1,1) is a root with three paths of length 3; its orbits are
    # {0}, {1,2,3}, {4,5,6} and {7,8,9}.  Searches run on orbits 7, 1 and
    # 0 (leaves first, then degree 2 from the highest index down; 4 is
    # settled by the complement of 7's witness).  Orbit 1 runs out of
    # nodes; the witness found at 0 then holds n-1 on vertex 3, so its
    # complement, carried over to vertex 1, settles orbit 1 after all.
    # As a GeneralTree, no orbit is constructed.
    cons = SearchConstraints(node_budget=10, time_budget=None)
    t = to_general(build((3, 1, 1)))
    rep = is_zero_rotatable(t, cons)
    assert rep.methods == ("search_fallback", "complement_of", "complement_of", "search_fallback")
    e = rep.entries[1]
    assert (e.representative, e.verdict, e.method, e.nodes) == (1, "yes", "complement_of", 11)
    assert is_graceful(t, e.witness) and e.witness[1] == 0
    assert rep.entries[0].witness[3] == t.n - 1
    assert rep.verdict == "yes" and rep.searched == 3


def test_complement_onto_an_exhausted_orbit_is_a_bug(monkeypatch):
    # The path 0-1-2-3 searches its leaf orbit {0,3} first.  A fake engine
    # wrongly reports it exhausted; the search of vertex 1 then finds a
    # real witness with n-1 on vertex 0, and its complement must trip the
    # guard instead of overturning the no.
    real = gracetree.search._run

    def fake(tables, pins, node_budget, deadline, count_mode):
        if (0, 0) in pins:
            return "exhausted", None, 0, 1
        return real(tables, pins, node_budget, deadline, count_mode)

    monkeypatch.setattr(gracetree.search, "_run", fake)
    with pytest.raises(RuntimeError, match="exhausted; this is a bug"):
        is_zero_rotatable(GeneralTree(4, ((0, 1), (1, 2), (2, 3))))


@pytest.mark.parametrize(
    "labels", [(0, 3, 3, 1), (0, 1, 2, 3)], ids=["repeated-label", "not-graceful"]
)
def test_a_search_witness_is_proven_where_it_is_handed_out(monkeypatch, labels):
    # The engine's labels become the witness unchecked by Labelling, so
    # a fault in the engine surfaces at _witness: a repeated label as
    # surely as a permutation whose edge differences repeat.
    monkeypatch.setattr(gracetree.search, "_run", lambda *args: ("found", labels, 0, 1))
    t = GeneralTree(4, ((0, 1), (1, 2), (2, 3)))
    message = r"^search returned a non-graceful labelling; this is a bug$"
    with pytest.raises(RuntimeError, match=message):
        find_graceful(t)
    with pytest.raises(RuntimeError, match=message):
        is_zero_rotatable(t)


def test_orbit_tries_share_the_time_budget(monkeypatch):
    # (2) is a path 1-0-2; orbit {1,2} is searched first, in one try,
    # then vertex 0, in one try per neighbour.  Every try of every stage
    # gets its orbit's one deadline.
    runs = []
    t = to_general(build((2,)))
    tables, ascending = _tables(t), _tables(t, ascending=True)

    # Every try runs out of nodes but vertex 0's first try in each stage,
    # which is exhausted.  So each orbit runs the prefix, the probe and
    # the whole search, and vertex 0 makes two tries in each.
    def fake(tables, pins, node_budget, deadline, count_mode):
        runs.append((pins[0], tables, node_budget, time.perf_counter(), deadline))
        if pins[0] == (0, 0) and pins[1][0] == tables[2][0][0][0]:
            return "exhausted", None, 0, 4
        return "timeout", None, 0, node_budget + 1

    monkeypatch.setattr(gracetree.search, "_run", fake)
    rep = is_zero_rotatable(t, SearchConstraints(node_budget=1_000, time_budget=60.0))
    assert [(e.representative, e.verdict, e.nodes) for e in rep.entries] == [
        (0, "timeout", 1_000 + 1 + 202),
        (1, "timeout", 1_000 + 1 + 202),
    ]
    stages = [tables, ascending, tables]
    assert [(pin, got) for pin, got, *_ in runs] == [((1, 0), want) for want in stages] + [
        ((0, 0), want) for want in stages for _ in range(2)
    ]
    # A second try gets the nodes its stage has left.
    assert [b for _, _, b, _, _ in runs] == [100, 100, 1_000, 100, 97, 100, 97, 1_000, 997]
    for pin in ((1, 0), (0, 0)):
        orbit = [(now, deadline) for p, _, _, now, deadline in runs if p == pin]
        assert len({deadline for _, deadline in orbit}) == 1
        assert all(now < deadline <= orbit[0][0] + 60.0 for now, deadline in orbit)

    # Vertex 0's first try runs past the deadline, so the orbit times out
    # instead of trying the second neighbour or a later stage, and is
    # never a no.
    runs.clear()

    def slow(tables, pins, node_budget, deadline, count_mode):
        runs.append((pins[0], time.perf_counter(), deadline))
        time.sleep(0.05)
        return "exhausted", None, 0, 3

    monkeypatch.setattr(gracetree.search, "_run", slow)
    rep = is_zero_rotatable(t, SearchConstraints(node_budget=None, time_budget=0.04))
    assert [(e.representative, e.verdict, e.nodes) for e in rep.entries] == [
        (0, "timeout", 3),
        (1, "no", 3),
    ]
    assert [pin for pin, _, _ in runs] == [(1, 0), (0, 0)]
    assert all(now < deadline <= now + 0.04 for _, now, deadline in runs)


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
        ((1, 1, 1, 8), 2, None, "exhausted", 613_369),
        ((1, 1, 1, 10), 2, None, "exhausted", 55_462_389),
    ],
)
def test_node_count_goldens(seq, pin, node_budget, status, nodes):
    # The benchmark's tallies depend on the order in which the engine
    # visits nodes, so the found counts pin that order, not just the
    # verdicts.  The exhausted counts hold in any edge order; the last
    # two were walked node by node once, in about 2 s and 100 s.
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


def test_search_keeps_nothing_once_it_returns():
    # Nothing is cached between calls: once a search on the 10,000-vertex
    # path returns, only its result stays allocated, not its tables.  A
    # full collection empties CPython's free lists, which would otherwise
    # keep up to a few hundred kB of the freed tuples traced; cycles are
    # ruled out by test_search_leaves_no_reference_cycle.
    n = 10_000
    path = GeneralTree(n, tuple((i, i + 1) for i in range(n - 1)))
    tracemalloc.start()
    try:
        out = find_graceful(path, SearchConstraints(pins={0: 0}, node_budget=5, time_budget=None))
        gc.collect()
        current = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert (out.status, out.nodes) == ("timeout", 6)
    assert current < 100_000


def test_rotatability_builds_the_tables_once(monkeypatch):
    # One build serves every orbit search of a tree, and a tree whose
    # orbits are all settled without a search builds none.  The ascending
    # tables are built only once a prefix times out, then once for all
    # the probes of the tree.
    built = []
    real = gracetree.search._tables

    def spy(t, ascending=False):
        built.append((t, ascending))
        return real(t, ascending)

    monkeypatch.setattr(gracetree.search, "_tables", spy)
    t = to_general(build((1, 1, 1, 2)))
    assert is_zero_rotatable(t).searched > 1
    assert built == [(t, False)]
    built.clear()
    edges = ((0, 1), (0, 3), (0, 6), (0, 7), (0, 8), (1, 2), (1, 4), (2, 5), (4, 9))
    t = GeneralTree(10, edges)
    assert [e.nodes for e in is_zero_rotatable(t).entries if e.nodes > 100] == [868, 549]
    assert built == [(t, False), (t, True)]
    built.clear()
    # A rooted symmetric tree whose orbits the constructions settle builds
    # none; the same tree as a GeneralTree is searched.
    t = build((2, 2))
    rep = is_zero_rotatable(t)
    assert rep.methods == ("theorem1", "complement_of", "theorem2_odd") and built == []
    assert rep.nodes == 0 and rep.witnesses == evaluate_sequence((2, 2)).witnesses
    g = to_general(t)
    plain = is_zero_rotatable(g)
    assert plain.methods == ("search_fallback", "complement_of", "search_fallback")
    assert plain.orbit_reps == rep.orbit_reps and plain.verdicts == rep.verdicts
    assert built == [(g, False)]


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


def _pendant_first_ascending(t):
    """As ``_pendant_first``, but each group by rising index: the order
    of the probe's tables."""
    deg = [len(a) for a in t.adjacency]
    pendant = [e for e in t.edges if min(deg[e[0]], deg[e[1]]) == 1]
    inner = [e for e in t.edges if min(deg[e[0]], deg[e[1]]) > 1]
    return SimpleNamespace(n=t.n, edges=tuple(pendant + inner), adjacency=t.adjacency)


def _engine(t, cons, count_mode):
    """``_run`` on ``t`` under the pins and node budget of ``cons``."""
    return _run(_tables(t), cons.pins, cons.node_budget, None, count_mode)


def _assert_same_as_reference(t, cons, count_mode):
    # Everything but the elapsed time must agree: status, labels, count
    # and the node count, which also fixes the order of the visits.
    got = _engine(t, cons, count_mode)
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


def test_ascending_tables_match_reference_all_small_trees():
    # The probe's traffic: 0 and n-1 pinned on adjacent vertices.
    for n in range(2, 10):
        for g in all_trees(n):
            tables = _tables(g, ascending=True)
            view = _pendant_first_ascending(g)
            for v in range(n):
                for w in g.adjacency[v]:
                    for budget in (None, 5):
                        cons = SearchConstraints(pins={v: 0, w: n - 1}, node_budget=budget, time_budget=None)
                        got = _run(tables, cons.pins, budget, None, False)
                        assert got == run_reference(view, cons, False)[:4], (g.edges, v, w, budget)


def test_exhaustive_work_is_order_independent():
    # An exhausted search visits every state under its pins whatever the
    # order of the children, so counts, exhausted node counts and the
    # timeouts of searches with no witness match the index-order engine.
    free = dict(node_budget=None, time_budget=None)
    for n in range(1, 9):
        for g in all_trees(n):
            cons = SearchConstraints(**free)
            assert _engine(g, cons, True) == run_reference(g, cons, True)[:4]
            for v in range(n):
                cons = SearchConstraints(pins={v: 0}, **free)
                assert _engine(g, cons, True) == run_reference(g, cons, True)[:4]
                got = _engine(g, cons, False)
                want = run_reference(g, cons, False)
                assert (got[0] == "found") == (want[0] == "found"), (g.edges, v)
                if want[0] == "found":
                    continue
                assert got == want[:4], (g.edges, v)
                if want[3] < 2:
                    continue
                budget = want[3] // 2
                cons = SearchConstraints(pins={v: 0}, node_budget=budget, time_budget=None)
                got = _engine(g, cons, False)
                assert got == run_reference(g, cons, False)[:4] == ("timeout", None, 0, budget + 1)


def test_pins_whose_edges_repeat_a_difference_exhaust_at_once():
    # On the path 0-1-2-3, pins 0, 1 and 2 give both edges 0-1 and 1-2
    # difference 1, so the search stops before its first node.
    path = GeneralTree(4, ((0, 1), (1, 2), (2, 3)))
    cons = SearchConstraints(pins={0: 0, 1: 1, 2: 2}, node_budget=None, time_budget=None)
    assert _engine(path, cons, False) == ("exhausted", None, 0, 0)
    _assert_same_as_reference(path, cons, False)


@given(
    st.integers(2, 16),
    st.randoms(use_true_random=False),
    st.booleans(),
    st.integers(1, 3_000),
)
@settings(max_examples=60, deadline=None)
def test_engine_matches_reference_random(n, rnd, count_mode, budget):
    g = random_tree(rnd, n)
    # Up to three pins, so that two edges between pins can clash.
    k = rnd.randrange(min(n, 3) + 1)
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


def test_searches_keep_nothing_between_calls():
    # Each call builds its own tables.  Whatever ran before, each public
    # call must equal a fresh reference run: runs on the same tree back
    # to back, trees of one size taking turns, equal but distinct tree
    # objects, and counts between witness searches.
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

    unbounded = SearchConstraints(node_budget=None, time_budget=None)
    small_count = run_reference(small, unbounded, True)[2]

    def pinned(t, v):
        cons = SearchConstraints(pins={v: 0}, **budgets)
        out = find_graceful(t, cons)
        status, labels, _, nodes, _ = run_reference(_pendant_first(t), cons, False)
        assert (out.status, out.labelling and out.labelling.labels, out.nodes) == (
            status, labels, nodes
        ), (t.edges, v)

    for t in trees:
        for v in range(t.n):
            pinned(t, v)
    for v in range(9):
        for k, t in enumerate(trees):
            pinned(t, v)
            if k % 3 == 0:
                assert count_graceful(small) == small_count
    for t in trees:
        _assert_same_as_reference(t, SearchConstraints(**budgets), True)
        pinned(t, t.n - 1)


def _rotate0_random_csv():
    """One row per orbit of 100 random trees on 16 to 24 vertices,
    decided with 2,000 nodes per orbit and no time budget."""
    rnd = random.Random(20231226)
    cons = SearchConstraints(node_budget=2_000, time_budget=None)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["tree", "representative", "verdict", "method", "nodes"])
    for i in range(100):
        rep = is_zero_rotatable(random_tree(rnd, rnd.randint(16, 24)), cons)
        writer.writerows((i, e.representative, e.verdict, e.method, e.nodes) for e in rep.entries)
    return out.getvalue()


def test_rotate0_random_trees_golden():
    # The general-tree route: few symmetries, no constructions, many
    # small orbits.  Verdicts, methods and node counts per orbit pin the
    # search order and which orbits a complement settles.
    golden = Path(__file__).parent / "golden" / "rotate0_random_2k.csv"
    assert _rotate0_random_csv().encode() == golden.read_bytes()


def _star(leaves):
    return GeneralTree(leaves + 1, tuple((0, v) for v in range(1, leaves + 1)))


def _calls_to_place(t, cons, count_mode):
    """How many times ``_run`` enters ``place()``: the nodes it walks."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_name == "place":
            calls += 1

    sys.setprofile(profile)
    try:
        _engine(t, cons, count_mode)
    finally:
        sys.setprofile(None)
    return calls


@pytest.mark.parametrize(
    "t, pins, count_mode",
    [
        (_star(6), {}, True),
        (_star(6), {0: 0}, True),
        (_star(5), {1: 0}, True),
        (build((1, 1, 4)), {2: 0}, True),
        (build((1, 1, 1, 4)), {2: 0}, False),
        (build((1, 1, 1, 4)), {2: 0}, True),
        (build((2, 3)), {}, True),
        (build((2, 3)), {0: 1}, False),
        (build((1, 1, 1, 5)), {2: 1}, False),
        (build((1, 1, 1, 5)), {0: 3}, False),
    ],
    ids=lambda v: str(v) if isinstance(v, (dict, bool)) else str(v.edges),
)
def test_budgets_inside_mirrored_subtrees_match_reference(t, pins, count_mode):
    # A hub with 3 or more leaves: each leaf given a label that a sibling
    # took at the same node has its subtree added, not walked, unless the
    # budget runs out inside it.  Budgets from 1 to the whole search must
    # stop where the reference does, with its count.  A star finds a
    # witness before any mirror, so its cases are counts.
    free = SearchConstraints(pins=pins, node_budget=None, time_budget=None)
    total = run_reference(_pendant_first(t), free, count_mode)[3]
    assert _calls_to_place(t, free, count_mode) < total
    budgets = set(range(1, min(total, 300) + 1))
    budgets |= set(range(1, total + 2, max(1, total // 100))) | {total - 1, total, total + 1}
    for budget in sorted(budgets):
        cons = SearchConstraints(pins=pins, node_budget=budget, time_budget=None)
        _assert_same_as_reference(t, cons, count_mode)


def test_deadline_passed_during_mirrors_times_out(monkeypatch):
    # With the clock past the deadline, a walk stops at node 256, its
    # first look at the clock.  Here mirrors carry the count past 256,
    # and the look after that bulk add stops the search, before the
    # next multiple of 256.
    monkeypatch.setattr(time, "perf_counter", lambda: 2.0)
    for k in (4, 7, 10, 14):
        status, labels, count, nodes = _run(_tables(build((1, 1, 1, k))), ((2, 0),), None, 1.0, False)
        assert (status, labels, count) == ("timeout", None, 0)
        assert 256 <= nodes < 512, k


def test_deadline_passed_during_a_plain_walk_times_out(monkeypatch):
    # No two leaves of this tree hang on one neighbour, so no subtree is
    # mirrored and only place()'s own look at the clock can stop the walk:
    # at node 256, its first look, before the witness at node 330.
    tables = _tables(build((1, 1, 1, 1, 1, 1, 1, 3, 1)))
    _, _, nbrs, leaf = tables
    hubs = [nbrs[v][0][0] for v, is_leaf in enumerate(leaf) if is_leaf]
    assert len(hubs) == len(set(hubs)) == 4
    status, _, count, nodes = _run(tables, ((7, 0),), None, None, False)
    assert (status, count, nodes) == ("found", 1, 330)
    monkeypatch.setattr(time, "perf_counter", lambda: 2.0)
    assert _run(tables, ((7, 0),), None, 1.0, False) == ("timeout", None, 0, 256)


def test_broom_zero_at_vertex_two_follows_k_mod_12():
    # (1,1,1,k) can carry 0 on vertex 2 exactly when 3 or 4 divides k+3.
    # Mirrors decide each of these at once; k = 14 alone is 1.3e12 nodes.
    cons = SearchConstraints(pins={2: 0}, node_budget=None, time_budget=None)
    for k in range(2, 41):
        out = find_graceful(build((1, 1, 1, k)), cons)
        want = (k + 3) % 3 == 0 or (k + 3) % 4 == 0
        assert out.status == ("found" if want else "exhausted"), k
