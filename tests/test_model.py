import json
import pickle
import random
import re

import networkx as nx
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gracetree import (
    GeneralTree,
    SearchConstraints,
    ZeroAtRequest,
    build,
    is_zero_rotatable,
    zero_at,
)
from gracetree.cli import _to_dot, _tree_from_dict, _tree_to_dict
from gracetree.construct import ConstructionTrace
from gracetree.labelling import Labelling, TranspositionProduct
from gracetree.model import (
    BroomDecomposition,
    RootedSymmetricTree,
    StructureFlags,
    automorphism_mapping,
    classify,
    decompose,
    level_numbers,
    path_sequence,
    rooted_sequence_at,
    to_general,
    vertex_orbits,
)
from gracetree.search import OrbitVerdict, RotatabilityReport, SearchOutcome
from gracetree.sweep import SweepSpec, enumerate_family
from oracles import (
    UNIT_RUN_SEQUENCES,
    all_trees,
    brute_orbits,
    decompose_by_addresses,
    orbits_by_rooted_codes,
    random_tree,
    rst_addresses,
    rst_parents,
    tree_edges_by_union_find,
)

sequences = (
    st.lists(st.integers(1, 4), min_size=1, max_size=4)
    .map(tuple)
    .filter(lambda s: RootedSymmetricTree(s).n <= 120)
)


@st.composite
def general_trees(draw, min_n=1, max_n=9):
    n = draw(st.integers(min_n, max_n))
    edges = tuple(
        (draw(st.integers(0, i - 1)), i) for i in range(1, n)
    )
    return GeneralTree(n, edges)


def test_level_numbers_golden():
    assert level_numbers((2, 3, 4)) == (33, 16, 5, 1)
    assert level_numbers((3,)) == (4, 1)
    assert level_numbers((0,)) == (1,)
    assert level_numbers((1,) * 6) == (7, 6, 5, 4, 3, 2, 1)


def test_sequence_validation():
    for bad in ((), (-1,), (2, 0), (0, 4)):
        with pytest.raises(ValueError):
            build(bad)
        with pytest.raises(ValueError):
            level_numbers(bad)
    # A float or a string is an error, not truncated or parsed.
    with pytest.raises(ValueError, match="daughter degree 2.7 is not an integer"):
        build((2.7, 1.2))
    with pytest.raises(ValueError, match="daughter degree '3' is not an integer"):
        RootedSymmetricTree(("3",))
    assert (build((0,)).q, build((0,)).n) == (1, 1)
    assert build((2, 3)).q == 3
    assert build([2, 3]).degrees == (2, 3)


def test_tree_shape_golden():
    t = build((2, 3, 4))
    assert t.n == 33
    assert t.q == 4
    assert t.level_offsets == (0, 1, 3, 9, 33)
    levels = [len(a) + 1 for a in rst_addresses(t.degrees)]
    assert [levels.count(r) for r in range(1, t.q + 1)] == [1, 2, 6, 24]
    assert [i for i, r in enumerate(levels) if r == 2] == [1, 2]
    assert [t.level_of_index(i) for i in range(t.n)] == levels
    assert t.level_of_index(0) == 1
    assert t.level_of_index(8) == 3
    assert t.level_of_index(9) == 4
    with pytest.raises(ValueError):
        t.level_of_index(33)


def test_addressing_golden():
    t = build((2, 3, 4))
    assert t.index_of(()) == 0
    assert t.index_of((1,)) == 2
    assert t.index_of((1, 2, 3)) == 9 + (1 * 3 + 2) * 4 + 3
    addresses = rst_addresses(t.degrees)
    assert addresses[0] == ()
    assert addresses[t.index_of((1, 2, 3))] == (1, 2, 3)
    assert t.index_of([1, 2]) == t.index_of(iter((1, 2))) == t.index_of((1, 2))
    with pytest.raises(ValueError):
        t.index_of((2,))
    with pytest.raises(ValueError):
        t.index_of((0, 0, 0, 0))
    with pytest.raises(ValueError, match=re.escape("address (0, 0, 0, 0) deeper than the tree")):
        t.index_of(iter((0, 0, 0, 0)))
    with pytest.raises(ValueError, match="address 5 is not iterable"):
        t.index_of(5)


@given(sequences)
def test_address_roundtrip(seq):
    # Every vertex's address, decoded from the degree sequence alone,
    # leads back to it and is as long as its level is deep.
    t = build(seq)
    for i, a in enumerate(rst_addresses(seq)):
        assert t.index_of(a) == i
        assert len(a) + 1 == t.level_of_index(i)


@given(sequences)
def test_parent_child_consistency(seq):
    # The tree's edges are the decoded parent links, in index order.
    t = build(seq)
    parents, addresses = rst_parents(seq), rst_addresses(seq)
    assert t.edges == tuple((p, i) for i, p in enumerate(parents) if i)
    for i in range(1, t.n):
        assert addresses[i][:-1] == addresses[parents[i]]


def test_path_sequence():
    assert path_sequence(2) == (1,)
    assert path_sequence(5) == (1, 1, 1, 1)
    with pytest.raises(ValueError):
        path_sequence(1)


def test_general_tree_validation():
    with pytest.raises(ValueError):
        GeneralTree(3, ((0, 1),))
    with pytest.raises(ValueError):
        GeneralTree(3, ((0, 1), (0, 1)))
    with pytest.raises(ValueError):
        GeneralTree(3, ((0, 1), (3, 1)))
    with pytest.raises(ValueError):
        GeneralTree(2, ((0, 0),))
    t = GeneralTree(3, ((2, 1), (0, 1)))
    assert t.edges == ((0, 1), (1, 2))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: GeneralTree(0, ()), "a tree needs at least one vertex"),
        (lambda: decompose(build((0,))), "decomposition needs at least 2 levels"),
    ],
    ids=["empty-general-tree", "one-level-decompose"],
)
def test_degenerate_requests_are_refused_by_name(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("edges", [5, None])
def test_general_tree_rejects_non_iterable_edges(edges):
    with pytest.raises(ValueError, match=f"edge list {edges} is not iterable"):
        GeneralTree(3, edges)


def test_build_rejects_non_iterable_degrees():
    with pytest.raises(ValueError, match="daughter degree list 3 is not iterable"):
        build(3)


@st.composite
def edge_lists(draw):
    """n <= 8 and pairs in any orientation and order: often a tree, else
    with an edge missing or repeated, a self-loop, an end out of range,
    or a cycle.  A tree is numbered parent first, or its vertices are
    renumbered so that a vertex may have more than one smaller
    neighbour; the list is kept in order or shuffled."""
    n = draw(st.integers(1, 8))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    if draw(st.booleans()):
        perm = draw(st.permutations(range(n)))
        edges = [(perm[u], perm[v]) for u, v in edges]
    edges = edges[draw(st.integers(0, 1)) :]
    noise = st.tuples(st.integers(-1, n), st.integers(-1, n))
    edges += draw(st.lists(st.one_of(noise, st.sampled_from(edges or [(0, 0)])), max_size=2))
    if draw(st.booleans()):
        edges = draw(st.permutations(edges))
        edges = [e[::-1] if draw(st.booleans()) else e for e in edges]
    return n, edges


@given(edge_lists())
@settings(max_examples=400)
@example((3, [(0, 2), (1, 2)]))
@example((4, [(0, 1), (1, 2), (0, 2)]))
@example((4, [(0, 1), (0, 2), (1, 2)]))
@example((5, [(0, 1), (0, 2), (1, 3), (3, 4)]))
def test_general_tree_accepts_exactly_the_trees(case):
    n, edges = case
    norm = sorted((min(e), max(e)) for e in edges)
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from(norm)
    is_tree = (
        all(0 <= u < v < n for u, v in norm)
        and len(set(norm)) == len(norm)
        and nx.is_tree(graph)
    )
    try:
        g = GeneralTree(n, edges)
    except ValueError:
        assert not is_tree
    else:
        assert is_tree
        assert g.edges == tuple(norm)
    # GeneralTree's union-find with path halving must accept, store and
    # refuse exactly as the oracle's plain union-find does, message for
    # message.
    try:
        expected = tree_edges_by_union_find(n, edges)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            GeneralTree(n, edges)
    else:
        assert GeneralTree(n, edges).edges == expected


@pytest.mark.parametrize(
    "n, edges, closing",
    [
        (4, ((0, 1), (1, 2), (0, 2)), "(1,2)"),
        (4, ((2, 1), (3, 2), (1, 3)), "(2,3)"),
        (3, ((0, 1), (0, 1)), "(0,1)"),
    ],
)
def test_general_tree_names_the_edge_that_closes_a_cycle(n, edges, closing):
    # Sorted, the edges are checked in order; the first that joins two
    # connected vertices is named, whichever way components are merged.
    with pytest.raises(ValueError, match=re.escape(f"edge {closing} closes a cycle")):
        GeneralTree(n, edges)


def test_general_tree_rejects_non_integer_vertices():
    # int() truncated 3.9 to 3 and built the path on three vertices.
    with pytest.raises(ValueError, match="vertex count 3.9 is not an integer"):
        GeneralTree(3.9, ((0, 1), (1, 2)))
    with pytest.raises(ValueError, match=r"edge \(1, 2.5\) is not a pair of integers"):
        GeneralTree(3, ((0, 1), (1, 2.5)))
    # A short edge used to raise IndexError; a long one lost its extra vertex.
    with pytest.raises(ValueError, match=r"edge \(0,\) is not a pair of integers"):
        GeneralTree(3, [(0,), (1, 2)])
    with pytest.raises(ValueError, match=r"edge \(0, 1, 7\) is not a pair of integers"):
        GeneralTree(3, [(0, 1, 7), (1, 2)])


@given(sequences)
@example((0,))
@example(path_sequence(5000))
@example((5, 1, 1, 7))
@example((3,) + (1,) * 600 + (3,))
def test_to_general_preserves_structure(seq):
    t = build(seq)
    g = to_general(t)
    assert g.n == t.n
    assert len(g.edges) == t.n - 1
    edge_set = set(g.edges)
    parents = rst_parents(seq)
    for i in range(1, t.n):
        p = parents[i]
        assert (min(i, p), max(i, p)) in edge_set
    # The tree's own edges are the per-vertex parent links, already in
    # the order GeneralTree normalises to, and its adjacency is the same.
    assert t.edges == tuple((parents[i], i) for i in range(1, t.n))
    assert g.edges == t.edges
    assert t.adjacency == g.adjacency
    # to_general trusts the tree's edges; the validating constructor
    # proves them a tree independently.
    assert g == GeneralTree(t.n, t.edges)


def test_to_general_equals_the_validated_tree_on_rst_all():
    for seq in enumerate_family(SweepSpec("rst_all", nmax=30)):
        t = build(seq)
        assert to_general(t) == GeneralTree(t.n, t.edges), seq


def test_to_general_shares_a_rooted_trees_edges_unchecked(monkeypatch):
    # A rooted symmetric tree is a tree by construction, so its conversion
    # runs none of GeneralTree's per-edge checks and copies no edge.  The
    # tree is wide rather than huge: (3000, 3000) would hold 9 million
    # edge tuples, about 1 GB.
    def refuse(self, n, edges):
        raise AssertionError("to_general re-validated a rooted symmetric tree")

    t = build((3000, 30))
    monkeypatch.setattr(GeneralTree, "__init__", refuse)
    g = to_general(t)
    assert g.edges is t.edges and g.n == t.n == 93_001
    assert to_general(g) is g
    monkeypatch.undo()
    assert g == GeneralTree(t.n, t.edges)
    # Equality, hash, repr, pickling, immutability and the adjacency cache
    # are those of the validated tree with the same fields.
    small = build((2, 1, 3))
    g, v = to_general(small), GeneralTree(small.n, small.edges)
    assert "adjacency" not in vars(g)
    assert (g, hash(g), repr(g)) == (v, hash(v), repr(v))
    assert g.adjacency == v.adjacency == small.adjacency
    assert pickle.loads(pickle.dumps(g)) == v
    with pytest.raises(AttributeError, match="immutable"):
        g.n = 3


def test_build_leaves_edges_unmaterialised():
    t = build((3000, 3000))
    assert t.n == 9_003_001
    assert "edges" not in vars(t) and "adjacency" not in vars(t)


def test_orbits_and_transport_leave_adjacency_unmaterialised():
    wide = build((2000, 3))
    assert len(vertex_orbits(wide)) == 3
    assert "edges" not in vars(wide) and "adjacency" not in vars(wide)
    # Orbits come from the degree sequence also where two levels share one.
    for seq in ((1, 1, 3, 1), path_sequence(9), (0,)):
        t = build(seq)
        vertex_orbits(t)
        assert "edges" not in vars(t) and "adjacency" not in vars(t), seq
    t = build((300, 300))
    f, trace = zero_at(ZeroAtRequest(t, 1500, 0))
    assert f.labels[1500] == 0 and trace.steps[-1]["op"] == "relabel_vertices"
    assert "adjacency" not in vars(t)
    # The decider orders its searches by degree, which is level arithmetic;
    # the search itself reads only the edges.  The constructions settle
    # all but level 3 of the broom, which is searched.
    broom = build((1, 1, 1, 2))
    report = is_zero_rotatable(broom, SearchConstraints(node_budget=1000, time_budget=None))
    assert report.searched == 1
    assert "adjacency" not in vars(broom)


def test_classify_paths_and_stars():
    p4 = to_general(build(path_sequence(4)))
    f = classify(p4)
    assert f.is_path and f.is_caterpillar and f.is_spider
    assert not f.is_symmetric_spider  # even path has no centre vertex

    p5 = to_general(build(path_sequence(5)))
    assert classify(p5).is_symmetric_spider

    p2 = to_general(build(path_sequence(2)))
    assert classify(p2).is_symmetric_spider

    star = to_general(build((5,)))
    f = classify(star)
    assert f.is_caterpillar and f.is_spider and f.is_symmetric_spider
    assert not f.is_path


def test_classify_spiders_and_bananas():
    spider = to_general(build((3, 1)))
    f = classify(spider)
    assert f.is_spider and f.is_symmetric_spider
    assert not f.is_caterpillar  # three internal legs around the centre

    broom = to_general(build((1, 1, 1, 2)))
    f = classify(broom)
    assert f.is_caterpillar and f.is_spider
    assert not f.is_symmetric_spider

    banana = to_general(build((2, 1, 3)))
    f = classify(banana)
    assert f.is_symmetric_banana
    assert not classify(to_general(build((2, 2)))).is_symmetric_banana
    # bananas are recognized regardless of which vertex is index 0
    assert rooted_sequence_at(banana, 0) == (2, 1, 3)
    assert rooted_sequence_at(banana, banana.n - 1) is None


def test_rooted_sequence_at():
    g = to_general(build((2, 3)))
    assert rooted_sequence_at(g, 0) == (2, 3)
    assert rooted_sequence_at(g, 1) is None
    single = GeneralTree(1, ())
    assert rooted_sequence_at(single, 0) == ()


def test_decompose_golden():
    t = build((3, 4))
    dec = decompose(t)
    assert dec.p_map == (0, 1, 4, 5, 6, 7)
    assert dec.subtree_h.degrees == (2, 4)
    assert dec.h_map == (0, 2, 3, 8, 9, 10, 11, 12, 13, 14, 15)


def test_decompose_matches_address_definition():
    for seq in enumerate_family(SweepSpec("rst_all", nmax=40)):
        t = build(seq)
        dec = decompose(t)
        assert (dec.subtree_h.degrees, dec.p_map, dec.h_map) == decompose_by_addresses(seq), seq


def test_decompose_trivial_subtree():
    t = build((1, 1))
    dec = decompose(t)
    assert dec.subtree_h.n == 1
    assert dec.subtree_h.degrees == (0,)
    assert len(dec.p_map) == t.n


@pytest.mark.parametrize(
    "t, kind", [(5, "int"), (to_general(build((2, 1, 2))), "GeneralTree")]
)
def test_decompose_names_a_tree_that_is_not_rooted_symmetric(t, kind):
    # Each escaped as AttributeError: ... has no attribute 'q'.
    with pytest.raises(ValueError, match=f"^decompose needs a rooted symmetric tree, not {kind}$"):
        decompose(t)


def test_orbits_golden():
    p4 = to_general(build(path_sequence(4)))
    assert vertex_orbits(p4) == ((0, 3), (1, 2))
    star = to_general(build((3,)))
    assert vertex_orbits(star) == ((0,), (1, 2, 3))
    t22 = to_general(build((2, 2)))
    assert vertex_orbits(t22) == ((0,), (1, 2), (3, 4, 5, 6))


def test_orbits_match_brute_force_all_small_trees():
    for n in range(1, 9):
        for g in all_trees(n):
            assert list(vertex_orbits(g)) == brute_orbits(g), g.edges


@given(general_trees(max_n=8))
@settings(max_examples=60)
def test_orbits_match_brute_force_random(g):
    assert list(vertex_orbits(g)) == brute_orbits(g)


@st.composite
def shuffled_trees(draw, min_n=2, max_n=80):
    g = draw(general_trees(min_n, max_n))
    perm = draw(st.permutations(range(g.n)))
    return GeneralTree(g.n, tuple((perm[u], perm[v]) for u, v in g.edges))


@st.composite
def bicentral_trees(draw, isomorphic_halves):
    """Two rooted halves of equal height joined root to root, so the
    joining edge is the central edge; vertex indices are shuffled."""

    def half():
        parents = [-1]
        for i in range(1, draw(st.integers(1, 27))):
            parents.append(draw(st.integers(0, i - 1)))
        return parents

    a = half()
    b = list(a) if isomorphic_halves else half()

    def depths(parents):
        d = [0] * len(parents)
        for i in range(1, len(parents)):
            d[i] = d[parents[i]] + 1
        return d

    da, db = depths(a), depths(b)
    short, d = (a, da) if max(da) < max(db) else (b, db)
    tip = d.index(max(d))
    for _ in range(abs(max(da) - max(db))):
        short.append(tip)
        tip = len(short) - 1
    off = len(a)
    edges = [(a[i], i) for i in range(1, off)]
    edges += [(off + b[i], off + i) for i in range(1, len(b))]
    edges.append((0, off))
    n = off + len(b)
    perm = draw(st.permutations(range(n)))
    return GeneralTree(n, tuple((perm[u], perm[v]) for u, v in edges)), (perm[0], perm[off])


@given(shuffled_trees())
@settings(max_examples=80)
def test_orbits_match_rooted_code_oracle(g):
    assert list(vertex_orbits(g)) == orbits_by_rooted_codes(g)


@pytest.mark.parametrize("isomorphic_halves", [True, False])
@given(data=st.data())
@settings(max_examples=40)
def test_orbits_match_oracle_on_bicentral_trees(isomorphic_halves, data):
    g, ends = data.draw(bicentral_trees(isomorphic_halves))
    assert set(nx.center(nx.Graph(g.edges))) == set(ends)
    expected = orbits_by_rooted_codes(g)
    swapped = any(ends[0] in o and ends[1] in o for o in expected)
    assume(swapped == isomorphic_halves)
    assert list(vertex_orbits(g)) == expected


def test_orbits_of_a_deep_path():
    n = 5000
    g = to_general(build(path_sequence(n)))
    assert vertex_orbits(g) == tuple((i, n - 1 - i) for i in range(n // 2))


@given(general_trees(min_n=2, max_n=9), st.data())
def test_automorphism_mapping_properties(g, data):
    orbs = vertex_orbits(g)
    orbit = data.draw(st.sampled_from(orbs))
    src = data.draw(st.sampled_from(orbit))
    dst = data.draw(st.sampled_from(orbit))
    perm = automorphism_mapping(g, src, dst)
    assert perm[src] == dst
    assert sorted(perm) == list(range(g.n))
    edges = {frozenset(e) for e in g.edges}
    assert {frozenset((perm[u], perm[v])) for u, v in g.edges} == edges


def test_automorphism_mapping_rejects_cross_orbit():
    g = to_general(build((3,)))
    with pytest.raises(ValueError):
        automorphism_mapping(g, 0, 1)
    t = build((2, 2))
    for src, dst in ((0, 1), (1, 3), (0, 6)):
        with pytest.raises(ValueError):
            automorphism_mapping(t, src, dst)


def test_automorphism_mapping_checks_general_vertices():
    # These raised IndexError, TypeError, and read -1 as the last vertex.
    g = GeneralTree(4, ((0, 1), (1, 2), (1, 3)))
    with pytest.raises(ValueError, match="vertex index 5 out of range"):
        automorphism_mapping(g, 5, 0)
    with pytest.raises(ValueError, match="vertex index 2.0 is not an integer"):
        automorphism_mapping(g, 2.0, 3)
    with pytest.raises(ValueError, match="vertex index -1 out of range"):
        automorphism_mapping(g, -1, 3)


def test_rst_orbits_match_general_route():
    # The GeneralTree route codes every vertex; the rooted symmetric one
    # works from the degree sequence alone.
    seqs = enumerate_family(SweepSpec("rst_all", nmax=40))
    seqs += enumerate_family(SweepSpec("q3", nmax=200))
    for legs in range(1, 7):
        seqs += enumerate_family(SweepSpec("symmetric_spider", legs=legs, branches=(1, 8)))
    for seq in seqs:
        t = build(seq)
        assert vertex_orbits(t) == vertex_orbits(to_general(t)), seq
    assert vertex_orbits(build((0,))) == ((0,),)


def test_rst_levels_share_an_orbit_only_in_paths_and_leg_rooted_spiders():
    # The rule vertex_orbits applies to rooted symmetric trees, checked on
    # the AHU route alone: every level lies inside one orbit, so there are
    # fewer orbits than levels exactly when two levels share one.  That
    # happens when every entry is 1 except, for odd q, the middle one.
    seqs = enumerate_family(SweepSpec("rst_all", nmax=40))
    for legs in range(1, 7):
        seqs += enumerate_family(SweepSpec("symmetric_spider", legs=legs, branches=(1, 8)))
        # The same spiders with one more leg, rooted at the end of a leg.
        seqs += [(1,) * legs + (b,) + (1,) * (legs - 1) for b in range(1, 9)]
    seqs += [path_sequence(n) for n in range(2, 61)]
    for seq in seqs:
        q = len(seq) + 1
        rest = [k for i, k in enumerate(seq) if not (q % 2 == 1 and i == (q - 1) // 2)]
        assert (len(vertex_orbits(to_general(build(seq)))) < q) == all(k == 1 for k in rest), seq


def test_rst_level_mapping_matches_general_route():
    # Every ordered pair on levels of up to 6 vertices in trees of up to
    # 16 vertices; one seeded pair per other level of two or more
    # vertices, in trees of up to 30.
    rng = random.Random(6)
    for seq in enumerate_family(SweepSpec("rst_all", nmax=30)):
        t = build(seq)
        g = to_general(t)
        for r in range(1, t.q + 1):
            vs = range(t.level_offsets[r - 1], t.level_offsets[r])
            if len(vs) <= 6 and t.n <= 16:
                pairs = [(a, b) for a in vs for b in vs]
            elif len(vs) > 1:
                pairs = [tuple(rng.sample(vs, 2))]
            else:
                continue
            for a, b in pairs:
                assert automorphism_mapping(t, a, b) == automorphism_mapping(g, a, b), (seq, a, b)


def test_long_unit_runs_match_the_oracles():
    # The run arithmetic of edges, decompose and the level mapping on
    # trees of up to about 300 levels, against the per-vertex parent
    # links, the split by addresses and the AHU route of the same edges.
    rng = random.Random(42)
    for seq in UNIT_RUN_SEQUENCES:
        t = build(seq)
        assert t.edges == tuple((p, i) for i, p in enumerate(rst_parents(seq)) if i), seq
        dec = decompose(t)
        assert (dec.subtree_h.degrees, dec.p_map, dec.h_map) == decompose_by_addresses(seq), seq
        g = GeneralTree(t.n, t.edges)
        for r in {2, 3, t.q // 2, t.q - 1, t.q} & set(range(1, t.q + 1)):
            vs = range(t.level_offsets[r - 1], t.level_offsets[r])
            for a, b in {(vs[0], vs[-1]), (vs[-1], vs[0]), (rng.choice(vs), rng.choice(vs))}:
                assert automorphism_mapping(t, a, b) == automorphism_mapping(g, a, b), (seq, a, b)


@pytest.mark.parametrize(
    "seq, src, dst",
    [
        ((1, 3), 0, 2),
        ((1, 3), 4, 0),
        ((1, 1, 1, 1), 0, 4),
        ((1, 1, 3, 1), 0, 7),
        ((1, 1, 3, 1), 4, 1),
    ],
)
def test_rst_cross_level_pairs_still_map(seq, src, dst):
    # Only a path, or a symmetric spider rooted at the end of a leg, has
    # twins on two levels: level r and level q+1-r.  (1, 1, 3, 1) maps
    # level 1 to 5 and level 4 to 2.
    t = build(seq)
    perm = automorphism_mapping(t, src, dst)
    assert perm[src] == dst
    assert {frozenset((perm[u], perm[v])) for u, v in t.edges} == {frozenset(e) for e in t.edges}
    assert perm == automorphism_mapping(to_general(t), src, dst)


def test_tree_json_roundtrip():
    def roundtrip(t):
        return _tree_from_dict(json.loads(json.dumps(_tree_to_dict(t))))

    t = build((2, 3))
    back = roundtrip(t)
    assert isinstance(back, RootedSymmetricTree)
    assert back.degrees == (2, 3)

    g = GeneralTree(4, ((0, 1), (1, 2), (1, 3)))
    back2 = roundtrip(g)
    assert isinstance(back2, GeneralTree)
    assert back2.edges == g.edges

    with pytest.raises(ValueError):
        _tree_from_dict({"kind": "mystery"})
    with pytest.raises(ValueError):
        _tree_from_dict({"degrees": [2]})


def test_to_dot_output():
    g = to_general(build(path_sequence(3)))
    plain = _to_dot(g)
    assert "graph" in plain and "0 -- 1;" in plain
    decorated = _to_dot(g, labels=(0, 2, 1))
    assert '[label="2"]' in decorated
    assert '1 -- 2 [label="1"]' in decorated


def test_rst_immutability_and_identity():
    t = build((2, 2))
    with pytest.raises(AttributeError):
        t.n = 5
    assert t == build((2, 2))
    assert t != build((2, 3))
    assert len({build((2, 2)), build((2, 2))}) == 1


def test_records_of_different_classes_are_unequal():
    # The same tree as a RootedSymmetricTree and as a GeneralTree, and
    # a Labelling and its own labels tuple.
    star = GeneralTree(3, ((0, 1), (0, 2)))
    assert build((2,)).edges == star.edges
    assert build((2,)) != star and star != build((2,))
    assert Labelling((0, 1)) != (0, 1) and (0, 1) != Labelling((0, 1))


def _verdict():
    return OrbitVerdict(0, (0, 2), "yes", "theorem1", Labelling((0, 2, 1)), 0, 0.0)


# name: (build one, build an equal one independently, a field to assign)
RECORDS = {
    "GeneralTree": (lambda: GeneralTree(3, ((1, 2), (0, 1))), None, "edges"),
    "RootedSymmetricTree": (lambda: build((2, 1)), None, "degrees"),
    "Labelling": (lambda: Labelling([0, 2, 1]), None, "labels"),
    "TranspositionProduct": (lambda: TranspositionProduct([(0, 3)]), None, "swaps"),
    "SearchConstraints": (
        lambda: SearchConstraints({0: 3, 1: 0}, node_budget=7, time_budget=2.5),
        lambda: SearchConstraints({1: 0, 0: 3}, 7, 2.5),
        "pins",
    ),
    "SweepSpec": (
        lambda: SweepSpec("symmetric_spider", nmax=20, legs=2, branches=(1, 3)), None, "nmax"
    ),
    "SearchOutcome": (lambda: SearchOutcome("found", Labelling((0, 1)), 3, 0.5), None, "nodes"),
    "OrbitVerdict": (_verdict, None, "verdict"),
    "RotatabilityReport": (
        lambda: RotatabilityReport("2,1", 5, (_verdict(),), family="q3", q=3), None, "family"
    ),
    "ConstructionTrace": (lambda: ConstructionTrace("theorem1", ()), None, "method"),
    "ZeroAtRequest": (lambda: ZeroAtRequest(build((2, 1)), 4), None, "desired_label"),
    "BroomDecomposition": (lambda: decompose(build((2, 1))), None, "subtree_h"),
    "StructureFlags": (lambda: classify(build((2, 1))), None, "is_path"),
}


@pytest.mark.parametrize("make, make_twin, field", RECORDS.values(), ids=RECORDS)
def test_records_pickle_hash_and_stay_immutable(make, make_twin, field):
    obj, twin = make(), (make_twin or make)()
    assert obj is not twin
    assert obj == twin and hash(obj) == hash(twin)
    copy = pickle.loads(pickle.dumps(obj))
    assert type(copy) is type(obj) and copy == obj
    with pytest.raises(AttributeError):
        setattr(obj, field, getattr(obj, field))
    with pytest.raises(AttributeError):
        delattr(obj, field)
    assert obj == twin
