import csv
import functools
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
    ZeroAtRequest,
    build,
    evaluate_sequence,
    is_graceful,
    is_zero_rotatable,
    zero_at,
)
from gracetree.cli import (
    ROTATE0_SCHEMA,
    SWEEP_COLUMNS,
    SWEEP_SCHEMA,
    _rotate0_csv,
    _sweep_csv,
    _untimed,
)
from gracetree.construct import METHOD_SEARCH
from gracetree.model import RootedSymmetricTree, level_numbers, sequence_label, to_general
from gracetree.sweep import SweepSpec, enumerate_family, largest_tree, run_sweep


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


def test_enumerate_q3_matches_product_filter():
    # A plain filter over every (k1, k2) below nmax, in the family's order.
    for nmax in (-3, 0, 1, 2, 5, 8, 60, 130, 200):
        got = enumerate_family(SweepSpec("q3", nmax=nmax))
        sized = [(1 + k1 * (1 + k2), (k1, k2)) for k1, k2 in itertools.product(range(1, nmax), repeat=2)]
        want = [seq for n, seq in sorted(sized) if n <= nmax]
        assert got == want
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


def test_spiders_and_bananas_are_the_filtered_branch_grid():
    # The oracle builds the whole branch grid and drops the trees above
    # nmax; enumerate_family draws only from ranges within the size.
    size = functools.cache(lambda seq: level_numbers(seq)[0])

    def grid_then_filter(spec):
        lo, hi = spec.branches
        if spec.family == "symmetric_spider":
            seqs = [(k,) + (1,) * (spec.legs - 1) for k in range(lo, hi + 1)]
        else:
            seqs = [(a, 1, b) for a in range(lo, hi + 1) for b in range(lo, hi + 1)]
        return [s for s in seqs if spec.nmax is None or size(s) <= spec.nmax]

    shapes = [("symmetric_banana", {})] + [("symmetric_spider", {"legs": legs}) for legs in range(1, 6)]
    for nmax in (None, *range(88)):
        for lo in range(1, 6):
            for hi in range(lo, 25):
                for family, legs in shapes:
                    spec = SweepSpec(family, nmax=nmax, branches=(lo, hi), **legs)
                    assert enumerate_family(spec) == grid_then_filter(spec), spec


def test_a_family_is_enumerated_within_its_largest_tree():
    # A billion branch counts, of which 33 spiders fit in 100 vertices,
    # are never drawn one by one.
    spec = SweepSpec("symmetric_spider", legs=3, branches=(1, 10**9), nmax=100)
    assert largest_tree(spec) == 100
    assert enumerate_family(spec) == [(k, 1, 1) for k in range(1, 34)]
    # nmax bounds the widest tree of the branch range, and the widest tree
    # bounds nmax; q3 has 60 vertices at most by default.
    assert largest_tree(SweepSpec("symmetric_spider", legs=3, branches=(1, 5), nmax=100)) == 16
    assert largest_tree(SweepSpec("symmetric_banana", branches=(1, 3000), nmax=60)) == 60
    assert largest_tree(SweepSpec("symmetric_banana", branches=(1, 3000))) == 9006001
    assert largest_tree(SweepSpec("q3")) == 60
    assert largest_tree(SweepSpec("q3", nmax=130)) == 130
    assert largest_tree(SweepSpec("rst_all", nmax=14)) == 14


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


@pytest.mark.parametrize("jobs, message", [("2", "jobs '2' is not an integer"), (1.5, "jobs 1.5 is not an integer")])
def test_run_sweep_refuses_a_jobs_that_is_no_integer(jobs, message):
    spec = SweepSpec("symmetric_banana", branches=(2, 2))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_sweep(spec, jobs=jobs)


@pytest.mark.parametrize("jobs", [0, -2])
def test_run_sweep_refuses_fewer_than_one_job(jobs):
    spec = SweepSpec("symmetric_banana", branches=(2, 2))
    with pytest.raises(ValueError, match=f"^jobs must be at least 1, got {jobs}$"):
        run_sweep(spec, jobs=jobs)


def test_evaluate_sequence_constructive():
    row = evaluate_sequence((2, 2), family="q3")
    assert row.tree_id == "2,2"
    assert row.n == 7 and row.q == 3
    assert row.verdict == "yes"
    assert METHOD_SEARCH not in row.methods
    assert row.nodes == 0
    for rep, labels in row.witnesses:
        assert is_graceful(to_general(build((2, 2))), labels)
        assert labels[rep] == 0


def test_evaluate_sequence_search_fallback_and_counterexample():
    row = evaluate_sequence((1, 1, 1, 2))
    assert row.verdict != "yes"
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
    text = _sweep_csv([_untimed(row) for row in rows])
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(SWEEP_COLUMNS)
    assert len(lines) == len(rows) + 1
    for line in lines[1:]:
        assert line.startswith(SWEEP_SCHEMA + ",")
        assert line.endswith(",")  # timing column blanked
    # byte-stable across runs once timing is excluded
    again = _sweep_csv([_untimed(row) for row in run_sweep(spec)])
    assert again == text
    timed = _sweep_csv(rows)
    assert not timed.strip().split("\n")[1].endswith(",")


def test_sweep_csv_golden_row():
    row = evaluate_sequence((2, 1), family="q3")
    text = _sweep_csv([_untimed(row)])
    line = text.strip().split("\n")[1]
    assert line == (
        'gracetree.sweep/1,q3,"2,1",5,3,3,0 1 3,yes yes yes,'
        "theorem1 complement_of theorem2_odd,true,0,"
    )


def test_rotate0_csv():
    rep = is_zero_rotatable(build((2, 2)), tree_id="2,2")
    text = _rotate0_csv(_untimed(rep))
    lines = text.strip().split("\n")
    assert lines[0].startswith("schema,")
    assert len(lines) == 4
    for line in lines[1:]:
        assert line.startswith(ROTATE0_SCHEMA + ',"2,2",7,')


def test_sequence_label():
    assert sequence_label((3, 1, 4)) == "3,1,4"


@pytest.mark.parametrize("seq", [(0,), (2, 2), (2, 1, 2), (1, 1, 1, 2), (3, 1, 1, 1, 2)])
def test_evaluate_sequence_is_the_deciders_report_with_its_family(seq):
    def untimed(report):
        entries = tuple(e._replace(elapsed=0.0) for e in report.entries)
        return report._replace(entries=entries, elapsed_s=0.0)

    row = evaluate_sequence(seq, "rst_all", 2_000, None)
    report = is_zero_rotatable(build(seq), SearchConstraints(node_budget=2_000, time_budget=None))
    assert untimed(row) == untimed(report._replace(family="rst_all"))


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
    text = _rotate0_csv(_untimed(is_zero_rotatable(t, tree_id="2,2")))
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
    text = _rotate0_csv(_untimed(is_zero_rotatable(t, tree_id="1,1,1,2")))
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
    line = _sweep_csv([_untimed(row)]).split("\n")[1]
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
    convert = gracetree.model.to_general

    def counting(self, n, edges):
        init(self, n, edges)
        built.append(self.n)

    def counting_convert(t):
        built.append(t.n)
        return convert(t)

    monkeypatch.setattr(GeneralTree, "__init__", counting)
    # Every module that can look to_general up gets the spy.
    for module in (gracetree.model, gracetree.construct, gracetree.search, gracetree.sweep):
        monkeypatch.setattr(module, "to_general", counting_convert)
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
    # The decider offers zero_at's core, which trusts its level, only the
    # orbits on zero_at_levels: the levels where zero_at places a label.
    calls, outside = [], []
    real = gracetree.construct._zero_at

    def spy(t, target, level, desired):
        calls.append(level)
        if level not in gracetree.construct.zero_at_levels(t):
            outside.append((t.degrees, level))
        return real(t, target, level, desired)

    monkeypatch.setattr(gracetree.construct, "_zero_at", spy)
    run_sweep(SweepSpec("rst_all", nmax=14, node_budget=50_000, time_budget=None))
    assert (len(calls), outside) == (288, [])


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


def test_census_lists_the_orbits_that_moved():
    # tests/census.py --against: a method move alone is no fault; a yes
    # that became a timeout is, and so is a no that came or went.
    import census

    before = ["2 0 yes star_direct 0", "1,1,1,2 2 no search_fallback 27", "2,2 3 yes theorem2_odd 0"]
    assert census.moves(before, before) == (["moved orbits: 0"], False)
    after = ["2 0 yes star_direct 0", "1,1,1,2 2 no search_fallback 27", "2,2 3 yes search_fallback 12"]
    assert census.moves(before, after) == (
        [
            "moved orbits: 1",
            "  (2,2)@3: yes theorem2_odd 0 nodes -> yes search_fallback 12 nodes",
            "  yes theorem2_odd -> yes search_fallback: 1",
        ],
        False,
    )
    for moved in (
        ["2 0 timeout search_fallback 50001", "1,1,1,2 2 no search_fallback 27", "2,2 3 yes theorem2_odd 0"],
        ["2 0 yes star_direct 0", "1,1,1,2 2 yes search_fallback 27", "2,2 3 yes theorem2_odd 0"],
        ["2 0 yes star_direct 0", "2,2 3 yes theorem2_odd 0"],
        before + ["1,1,1,4 2 no search_fallback 301"],
    ):
        lines, fault = census.moves(before, moved)
        assert lines[0] == "moved orbits: 1" and fault, moved
    # Same verdict and method with other nodes is no move, but is counted.
    fewer = ["2 0 yes star_direct 0", "1,1,1,2 2 no search_fallback 25", "2,2 3 yes theorem2_odd 0"]
    assert census.moves(before, fewer) == (["moved orbits: 0", "nodes moved: 1"], False)
