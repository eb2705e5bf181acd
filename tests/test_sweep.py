import csv
import io
import itertools
import re
import time
from collections import Counter
from pathlib import Path

import pytest

import gracetree.construct
import gracetree.model
import gracetree.search
import gracetree.sweep
from gracetree import (
    GeneralTree,
    SearchConstraints,
    UnsupportedConstruction,
    ZeroAtRequest,
    build,
    evaluate_sequence,
    is_graceful,
    is_zero_rotatable,
    zero_at,
)
from gracetree.construct import METHOD_SEARCH
from gracetree.model import RootedSymmetricTree, to_general
from gracetree.sweep import (
    ROTATE0_SCHEMA,
    SWEEP_COLUMNS,
    SWEEP_SCHEMA,
    SweepSpec,
    enumerate_family,
    rotatability_to_csv,
    run_sweep,
    sequence_label,
    sweep_to_csv,
)


def brute_sequences(nmax: int) -> list[tuple[int, ...]]:
    # independent enumeration: filter raw products by total size.
    # the path shows a length-L sequence needs at least L+1 vertices,
    # so lengths beyond nmax-1 cannot fit.
    out = []
    for length in range(1, nmax):
        for seq in itertools.product(range(1, nmax), repeat=length):
            n = 1
            for k in reversed(seq):
                n = 1 + k * n
            if n <= nmax:
                out.append(seq)
    return sorted(out, key=lambda s: (RootedSymmetricTree(s).n, len(s), s))


def test_enumerate_rst_all_matches_product_filter():
    # Below 2 vertices there is no sequence, and both sides give [].
    for nmax in (-3, 0, 1, 2, 5, 8):
        got = enumerate_family(SweepSpec("rst_all", nmax=nmax))
        assert got == brute_sequences(nmax)
        assert len(got) == len(set(got))
        for seq in got:
            assert RootedSymmetricTree(seq).n <= nmax


def test_enumerate_family_goldens():
    spiders = enumerate_family(SweepSpec("symmetric_spider", legs=3, branches=(2, 4)))
    assert spiders == [(2, 1, 1), (3, 1, 1), (4, 1, 1)]

    bananas = enumerate_family(SweepSpec("symmetric_banana", branches=(2, 3)))
    assert bananas == [(2, 1, 2), (2, 1, 3), (3, 1, 2), (3, 1, 3)]

    q3 = enumerate_family(SweepSpec("q3", nmax=7))
    assert q3 == [(1, 1), (1, 2), (1, 3), (2, 1), (1, 4), (1, 5), (2, 2), (3, 1)]

    capped = enumerate_family(SweepSpec("symmetric_spider", legs=3, branches=(2, 4), nmax=8))
    assert capped == [(2, 1, 1)]


def test_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec("mystery_family")
    with pytest.raises(ValueError, match="bad branch range"):
        SweepSpec("q3", branches=(3, 2))
    with pytest.raises(ValueError, match="bad branch range"):
        SweepSpec("symmetric_banana", branches=(3, 2))
    with pytest.raises(ValueError, match="family rst_all needs nmax"):
        SweepSpec("rst_all")
    with pytest.raises(ValueError, match="family symmetric_spider needs branches"):
        SweepSpec("symmetric_spider", legs=2)
    with pytest.raises(ValueError, match="family symmetric_spider needs legs"):
        SweepSpec("symmetric_spider", branches=(1, 2))
    with pytest.raises(ValueError, match="family symmetric_banana needs branches"):
        SweepSpec("symmetric_banana")
    with pytest.raises(ValueError, match="leg length must be positive"):
        SweepSpec("symmetric_spider", legs=0, branches=(1, 2))


@pytest.mark.parametrize(
    "family, kwargs, extra",
    [
        ("rst_all", {"nmax": 12, "legs": 4}, "legs"),
        ("rst_all", {"nmax": 12, "branches": (1, 2)}, "branches"),
        ("q3", {"legs": 4}, "legs"),
        ("q3", {"branches": (1, 2)}, "branches"),
        ("symmetric_banana", {"legs": 4, "branches": (1, 2)}, "legs"),
    ],
)
def test_spec_refuses_parameters_its_family_does_not_read(family, kwargs, extra):
    # Refused, not silently ignored: the sweep would not be the one asked for.
    with pytest.raises(ValueError, match=f"family {family} does not take {extra}"):
        SweepSpec(family, **kwargs)


def test_spec_rejects_non_integer_parameters():
    # Refused up front, not swept with a float bound or left to fail
    # with a TypeError inside enumerate_family.
    for kwargs, message in (
        ({"nmax": 6.5}, "nmax 6.5 is not an integer"),
        ({"nmax": "9"}, "nmax '9' is not an integer"),
        ({"legs": 2.5, "branches": (1, 2)}, "legs 2.5 is not an integer"),
        ({"legs": 2, "branches": (1.5, 2)}, "branch count 1.5 is not an integer"),
        ({"legs": 2, "branches": 3}, "branch count list 3 is not iterable"),
        ({"legs": 2, "branches": (1, 2, 3)}, re.escape("bad branch range (1, 2, 3)")),
        ({"legs": 2, "branches": (2,)}, re.escape("bad branch range (2,)")),
    ):
        with pytest.raises(ValueError, match=message):
            SweepSpec("symmetric_spider", **kwargs)
    spec = SweepSpec("symmetric_spider", nmax=True, legs=3, branches=[2, 4])
    assert (spec.nmax, spec.legs, spec.branches) == (1, 3, (2, 4))


def test_spec_rejects_bad_budgets():
    # Refused up front, as the search would refuse them, not at the first
    # tree (inside a worker under --jobs) or, with no tree, not at all.
    for kwargs, match in (
        ({"node_budget": 2.5}, "node budget"),
        ({"node_budget": -3}, "node budget"),
        ({"node_budget": True}, "node budget"),
        ({"time_budget": float("nan")}, "time budget"),
        ({"time_budget": 0}, "time budget"),
    ):
        with pytest.raises(ValueError, match=match):
            SweepSpec("rst_all", nmax=1, **kwargs)
    spec = SweepSpec("rst_all", nmax=1, node_budget=None, time_budget=None)
    assert run_sweep(spec) == []


def test_evaluate_sequence_constructive():
    row = evaluate_sequence((2, 2), family="q3")
    assert row.tree_id == "2,2"
    assert row.n == 7 and row.q == 3
    assert row.all_yes
    assert METHOD_SEARCH not in row.methods
    assert row.nodes == 0
    for rep, labels in row.witnesses:
        assert is_graceful(to_general(build((2, 2))), labels)
        assert labels[rep] == 0


def test_evaluate_sequence_search_fallback_and_counterexample():
    row = evaluate_sequence((1, 1, 1, 2))
    assert not row.all_yes
    assert "no" in row.verdicts
    idx = row.verdicts.index("no")
    assert row.methods[idx] == METHOD_SEARCH
    # the refusal must agree with the plain search oracle
    rep = is_zero_rotatable(to_general(build((1, 1, 1, 2))))
    assert rep.verdict == "no"


def test_evaluate_matches_search_oracle_per_orbit():
    # The same tree as a GeneralTree is searched orbit by orbit, with no
    # construction: an independent route to every verdict.
    cons = SearchConstraints(node_budget=50_000, time_budget=None)
    tally = Counter()
    for seq in enumerate_family(SweepSpec("rst_all", nmax=14)):
        row = evaluate_sequence(seq, node_budget=50_000, time_budget=None)
        oracle = is_zero_rotatable(to_general(build(seq)), cons)
        assert row.orbit_reps == oracle.orbit_reps, seq
        assert row.verdicts == oracle.verdicts, seq
        tally.update(row.verdicts)
    assert tally == {"yes": 1159, "no": 2, "timeout": 3}


def test_run_sweep_jobs_agree():
    # q3 trees are all constructed; rst_all under a node budget searches.
    strip = lambda r: (r.family, r.tree_id, r.n, r.q, r.orbit_reps, r.verdicts, r.methods, r.nodes, r.witnesses)
    for spec, searched in (
        (SweepSpec("q3", nmax=12), False),
        (SweepSpec("rst_all", nmax=10, node_budget=2000, time_budget=None), True),
    ):
        serial = run_sweep(spec, jobs=1)
        parallel = run_sweep(spec, jobs=2)
        assert [strip(r) for r in serial] == [strip(r) for r in parallel]
        assert any(r.searched for r in serial) == searched


def test_sweep_csv_shape_and_stability():
    spec = SweepSpec("q3", nmax=10)
    rows = run_sweep(spec)
    text = sweep_to_csv(rows, include_timing=False)
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(SWEEP_COLUMNS)
    assert len(lines) == len(rows) + 1
    for line in lines[1:]:
        assert line.startswith(SWEEP_SCHEMA + ",")
        assert line.endswith(",")  # timing column blanked
    # byte-stable across runs once timing is excluded
    again = sweep_to_csv(run_sweep(spec), include_timing=False)
    assert again == text
    timed = sweep_to_csv(rows, include_timing=True)
    assert not timed.strip().split("\n")[1].endswith(",")


def test_sweep_csv_golden_row():
    row = evaluate_sequence((2, 1), family="q3")
    text = sweep_to_csv([row], include_timing=False)
    line = text.strip().split("\n")[1]
    assert line == (
        'gracetree.sweep/1,q3,"2,1",5,3,3,0 1 3,yes yes yes,'
        "theorem1 complement_of theorem2_odd,true,0,"
    )


def test_rotate0_csv():
    rep = is_zero_rotatable(build((2, 2)), tree_id="2,2")
    text = rotatability_to_csv(rep, include_timing=False)
    lines = text.strip().split("\n")
    assert lines[0].startswith("schema,")
    assert len(lines) == 4
    for line in lines[1:]:
        assert line.startswith(ROTATE0_SCHEMA + ',"2,2",7,')


def test_sequence_label():
    assert sequence_label((3, 1, 4)) == "3,1,4"


ROTATE0_HEADER = "schema,tree,n,orbit_rep,orbit_size,verdict,method,witness,nodes,elapsed_s\n"


def assert_witness_rows_graceful(t, text):
    rows = list(csv.DictReader(io.StringIO(text)))
    for row in rows:
        if row["verdict"] == "yes":
            labels = [int(x) for x in row["witness"].split()]
            assert is_graceful(t, labels)
            assert labels[int(row["orbit_rep"])] == 0
    return rows


def test_rotate0_csv_golden_yes():
    # As a GeneralTree, the leaf orbit 3 is searched first and its
    # complement settles orbit 1.
    t = to_general(build((2, 2)))
    text = rotatability_to_csv(is_zero_rotatable(t, tree_id="2,2"), include_timing=False)
    assert text == ROTATE0_HEADER + (
        'gracetree.rotate0/1,"2,2",7,0,1,yes,search_fallback,0 3 6 4 5 2 1,7,\n'
        'gracetree.rotate0/1,"2,2",7,1,2,yes,complement_of,4 0 1 6 5 2 3,0,\n'
        'gracetree.rotate0/1,"2,2",7,3,4,yes,search_fallback,2 6 5 0 1 4 3,7,\n'
    )
    assert len(assert_witness_rows_graceful(t, text)) == 3


def test_rotate0_csv_golden_no():
    # As a GeneralTree, search order 4, 0, 2: the leaf witnesses settle
    # the hub 3 and vertex 1.
    t = to_general(build((1, 1, 1, 2)))
    text = rotatability_to_csv(is_zero_rotatable(t, tree_id="1,1,1,2"), include_timing=False)
    assert text == ROTATE0_HEADER + (
        'gracetree.rotate0/1,"1,1,1,2",6,0,1,yes,search_fallback,0 5 1 4 3 2,6,\n'
        'gracetree.rotate0/1,"1,1,1,2",6,1,1,yes,complement_of,5 0 4 1 2 3,0,\n'
        'gracetree.rotate0/1,"1,1,1,2",6,2,1,no,search_fallback,,27,\n'
        'gracetree.rotate0/1,"1,1,1,2",6,3,1,yes,complement_of,2 1 3 0 5 4,0,\n'
        'gracetree.rotate0/1,"1,1,1,2",6,4,2,yes,search_fallback,3 4 2 5 0 1,6,\n'
    )
    assert len(assert_witness_rows_graceful(t, text)) == 5


def test_sweep_csv_golden_row_search_fallback():
    row = evaluate_sequence((1, 1, 1, 2), family="rst_all")
    line = sweep_to_csv([row], include_timing=False).split("\n")[1]
    assert line == (
        'gracetree.sweep/1,rst_all,"1,1,1,2",6,5,5,0 1 2 3 4,yes yes no yes yes,'
        "theorem1 complement_of search_fallback theorem2_odd complement_of,false,27,"
    )


def test_sweep_elapsed_covers_orbit_computation(monkeypatch):
    real = gracetree.search.vertex_orbits

    def slow_orbits(g):
        time.sleep(0.2)
        return real(g)

    monkeypatch.setattr(gracetree.search, "vertex_orbits", slow_orbits)
    row = evaluate_sequence((2, 2), family="q3")
    assert row.elapsed_s >= 0.2


def test_rooted_symmetric_trees_are_not_converted(monkeypatch):
    # A rooted symmetric tree carries its own edges and adjacency, and
    # decompose tests its broom by arithmetic, so a pass builds no
    # GeneralTree at all: neither a validated one nor, through
    # to_general, one that shares the tree's edges.
    built = []
    init = GeneralTree.__init__
    trusted = gracetree.model._trusted_general

    def counting(self, n, edges):
        init(self, n, edges)
        built.append(self.n)

    def counting_trusted(t):
        built.append(t.n)
        return trusted(t)

    monkeypatch.setattr(GeneralTree, "__init__", counting)
    monkeypatch.setattr(gracetree.model, "_trusted_general", counting_trusted)
    decomposed = []
    real_decompose = gracetree.construct.decompose

    def spy(t):
        decomposed.append(t)
        return real_decompose(t)

    monkeypatch.setattr(gracetree.construct, "decompose", spy)

    # (2,1,2) is fully constructed, (1,1,1,2) also searches.
    for seq in [(2, 1, 2), (1, 1, 1, 2)]:
        evaluate_sequence(seq, node_budget=50_000, time_budget=None)
    t = build((2, 1, 1, 3))
    for target in (0, 1, 5, 12):
        zero_at(ZeroAtRequest(t, target, 0))
    assert decomposed
    assert built == []


def test_sweep_calls_zero_at_only_where_it_reaches(monkeypatch):
    # The decider offers zero_at's core only the orbits on zero_at_levels,
    # so a sweep asks it only for placements it makes: no refusal is raised.
    calls, refused = [], []
    real = gracetree.construct._zero_at

    def spy(*args):
        calls.append(args)
        try:
            return real(*args)
        except UnsupportedConstruction:
            refused.append(args)
            raise

    monkeypatch.setattr(gracetree.construct, "_zero_at", spy)
    run_sweep(SweepSpec("rst_all", nmax=14, node_budget=50_000, time_budget=None))
    assert (len(calls), len(refused)) == (288, 0)


def test_one_method_vocabulary():
    # Every route a sweep row or a rotate0 report names is one of the
    # construct.METHOD_* names, or "trivial" for the one-vertex tree.
    names = {v for k, v in vars(gracetree.construct).items() if k.startswith("METHOD_")}
    names.add("trivial")
    seen = set(is_zero_rotatable(build((0,))).methods)
    for spec in (SweepSpec("rst_all", nmax=12), SweepSpec("q3", nmax=30)):
        for row in run_sweep(spec):
            seen.update(row.methods)
    # test_search pins this golden to is_zero_rotatable on its trees.
    golden = Path(__file__).parent / "golden" / "rotate0_random_2k.csv"
    seen.update(row["method"] for row in csv.DictReader(io.StringIO(golden.read_text())))
    assert seen - names == set()
    assert {"trivial", "theorem1", "complement_of", "search_fallback"} <= seen
