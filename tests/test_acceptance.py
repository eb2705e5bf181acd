"""End-to-end acceptance checks for the gracetree package.

Each test covers one numbered acceptance criterion and prints a single
``ACCEPTANCE <n> <name>: PASS|FAIL`` line.  Capture is suspended around
the line so it stays visible in a plain ``pytest -v`` run.
"""

import random
import time
from contextlib import contextmanager

from gracetree import (
    SearchConstraints,
    ZeroAtRequest,
    build,
    evaluate_sequence,
    is_graceful,
    is_zero_rotatable,
    theorem1_label,
)
from gracetree.construct import (
    METHOD_SEARCH,
    compose_theorem2,
    lemma1_label,
    lemma1_product,
)
from gracetree.labelling import (
    Labelling,
    TranspositionProduct,
    apply_permutation,
    complement,
    edge_labels,
    reflect,
    shift,
)
from gracetree.model import decompose, level_numbers, to_general
from gracetree.search import VERDICT_TIMEOUT, VERDICT_YES, count_graceful
from gracetree.sweep import FAMILY_SPIDER, SweepSpec, run_sweep

from oracles import all_trees, count_graceful_naive, random_tree


@contextmanager
def criterion(capsys, num: int, name: str):
    def announce(text: str) -> None:
        with capsys.disabled():
            print(text, flush=True)

    try:
        yield announce
    except BaseException:
        announce(f"ACCEPTANCE {num} {name}: FAIL")
        raise
    announce(f"ACCEPTANCE {num} {name}: PASS")


def best_of(runs: int, fn) -> float:
    best = float("inf")
    for _ in range(runs):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_criterion_1_subtree_sizes_and_address_golden(capsys):
    with criterion(capsys, 1, "subtree sizes and closed-form address golden"):
        t = build((2, 3, 4))

        def body():
            assert level_numbers((2, 3, 4)) == (33, 16, 5, 1)
            f = theorem1_label(t)
            assert f.labels[t.index_of((1, 2, 3))] == 2

        body()
        assert best_of(5, body) < 1e-3


def test_criterion_2_transposition_tweak_golden(capsys):
    with criterion(capsys, 2, "three-level transposition tweak golden"):
        t = build((3, 4))
        product = lemma1_product(t)
        assert product.swaps == ((0, 4), (5, 9), (10, 14))
        f, _ = lemma1_label(t)
        expected = apply_permutation(theorem1_label(t), product)
        assert f.labels == expected.labels
        assert is_graceful(to_general(t), f.labels)
        assert t.level_of_index(f.labels.index(0)) == 3


def test_criterion_3_branch_merge_composition_golden(capsys):
    with criterion(capsys, 3, "branch-merge composition golden"):
        t = build((3, 4))
        f, _ = compose_theorem2(t)
        g = to_general(t)
        assert is_graceful(g, f.labels)
        assert t.level_of_index(f.labels.index(0)) == 3
        # the untouched subtree carries the closed-form labels of the
        # one-branch-smaller tree, shifted up past the caterpillar part
        dec = decompose(t)
        base = theorem1_label(build((2, 4)))
        for local, original in enumerate(dec.h_map):
            assert f.labels[original] == base.labels[local] + 4
        flipped = complement(f)
        assert is_graceful(g, flipped.labels)
        assert t.level_of_index(flipped.labels.index(0)) == 2


def test_criterion_4_closed_form_sweep_stays_graceful(capsys):
    with criterion(capsys, 4, "closed-form labels graceful across the grid"):
        t0 = time.perf_counter()
        checked = 0
        for length in range(1, 5):
            for seq in _grids(length, 4):
                t = build(seq)
                assert is_graceful(to_general(t), theorem1_label(t).labels), seq
                checked += 1
        elapsed = time.perf_counter() - t0
        assert checked == 340
        assert elapsed < 10.0


def _grids(length: int, kmax: int):
    seqs = [()]
    for _ in range(length):
        seqs = [s + (k,) for s in seqs for k in range(1, kmax + 1)]
    return seqs


def test_criterion_5_three_level_rotatability_both_routes(capsys):
    with criterion(capsys, 5, "three-level trees 0-rotatable, both routes agree"):
        t0 = time.perf_counter()
        seqs = [
            (k1, k2)
            for k1 in range(1, 14)
            for k2 in range(1, 14)
            if 1 + k1 * (1 + k2) <= 14
        ]
        assert len(seqs) == 24
        for seq in seqs:
            # As a GeneralTree, every orbit is searched: the second route.
            report = is_zero_rotatable(to_general(build(seq)), SearchConstraints())
            assert report.verdict == VERDICT_YES, seq
            row = evaluate_sequence(seq)
            assert all(v == VERDICT_YES for v in row.verdicts), seq
            assert METHOD_SEARCH not in row.methods, seq
            searched = {e.representative: e.verdict for e in report.entries}
            built = dict(zip(row.orbit_reps, row.verdicts))
            assert searched == built, seq
        assert time.perf_counter() - t0 < 60.0


def test_criterion_6_spiders_and_bananas_constructive(capsys):
    with criterion(capsys, 6, "spiders and bananas label constructively"):
        t0 = time.perf_counter()
        spiders = [(k,) + (1,) * (leg - 1) for leg in (1, 2, 3) for k in range(1, 7)]
        bananas = [(a, 1, b) for a in range(1, 5) for b in range(1, 5)]
        for seq in dict.fromkeys(spiders + bananas):
            row = evaluate_sequence(seq)
            assert METHOD_SEARCH not in row.methods, seq
            assert all(v == VERDICT_YES for v in row.verdicts), seq
            g = to_general(build(seq))
            found = dict(row.witnesses)
            for rep in row.orbit_reps:
                assert found[rep][rep] == 0
                assert is_graceful(g, found[rep])
        assert time.perf_counter() - t0 < 30.0


def test_criterion_7_count_oracles_agree(capsys):
    with criterion(capsys, 7, "backtracking count matches naive enumeration"):
        for n in range(1, 8):
            for g in all_trees(n):
                assert count_graceful(g) == count_graceful_naive(g)


def test_criterion_8_transform_properties(capsys):
    with criterion(capsys, 8, "label transform properties hold"):
        rnd = random.Random(20260819)
        cases = 0

        for _ in range(2600):
            seq = tuple(rnd.randint(1, 4) for _ in range(rnd.randint(1, 3)))
            t = build(seq)
            f = theorem1_label(t)
            flipped = complement(f)
            assert is_graceful(to_general(t), flipped.labels)
            assert complement(flipped).labels == f.labels
            cases += 1

        for _ in range(2600):
            g = random_tree(rnd, rnd.randint(2, 12))
            labels = tuple(rnd.randrange(50) for _ in range(g.n))
            moved = shift(labels, rnd.randint(-20, 20))
            assert sorted(edge_labels(g, moved)) == sorted(edge_labels(g, labels))
            cases += 1

        for _ in range(2600):
            g = random_tree(rnd, rnd.randint(2, 12))
            labels = tuple(rnd.randrange(50) for _ in range(g.n))
            pivot = rnd.randint(-10, 60)
            mirrored = reflect(labels, pivot)
            assert reflect(mirrored, pivot) == labels
            assert sorted(edge_labels(g, mirrored)) == sorted(edge_labels(g, labels))
            cases += 1

        for _ in range(2600):
            n = rnd.randint(2, 12)
            f = Labelling(tuple(rnd.sample(range(n), n)))
            values = rnd.sample(range(n), 2 * rnd.randint(1, n // 2))
            product = TranspositionProduct(
                tuple(zip(values[::2], values[1::2]))
            )
            once = apply_permutation(f, product)
            assert apply_permutation(once, product).labels == f.labels
            cases += 1

        assert cases >= 10_000


def test_criterion_9_deep_spider_probe_completes(capsys):
    with criterion(capsys, 9, "deep spider probe completes definitively") as announce:
        spec = SweepSpec(family=FAMILY_SPIDER, legs=4, branches=(2, 3))
        rows = run_sweep(spec)
        assert len(rows) == 2
        for row in rows:
            assert VERDICT_TIMEOUT not in row.verdicts, row.tree_id
            announce(
                f"  probe {row.tree_id:<8} n={row.n:<3} "
                f"verdicts={' '.join(row.verdicts)} methods={' '.join(row.methods)}"
            )
