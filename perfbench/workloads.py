"""The benchmark's four workloads: inputs from a seed, the timed call,
and the benchmark's own check of each output.

Every search runs under a fixed node budget and no time budget, so
verdicts, tallies and node counts do not depend on machine speed.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field

from checks import prufer_edges, rst_edges, rst_level_ranges, witness_ok

SWEEP_NODE_BUDGET = 50_000
ROTATE0_NODE_BUDGET = 2_000

# (tree, orbit representative) pairs that rst_all up to nmax 14 answers
# "no" for: 0 cannot sit on the third vertex of either broom.  Any other
# "no", or one of these answered otherwise, is a wrong output.
RST_ALL_EXPECTED_NO = frozenset({("1,1,1,2", 2), ("1,1,1,4", 2)})

ROTATE0_TREES = 400
ROTATE0_TREE_SEED = 20231226
# The one vertex of those trees that 0 cannot sit on.  It is a leaf, so
# its neighbour must take n-1, and no graceful labelling follows from
# that; checks.zero_impossible_by_search re-derives it in every run.
ROTATE0_EXPECTED_NO = frozenset({("prufer191", 9)})
ROTATE0_SIZES = range(16, 25)

LABEL_WIDE = 150
LABEL_WIDE_N = (800, 2_400)
# Deep brooms (3, 1 x spine, 3): spine length, target level, which end of
# the level the target is, and the label asked for.  They are the same
# for every seed.  Three of them raise RecursionError from the
# nested-tuple code comparison, which starts at about 485 levels for the
# two deepest levels and about 975 for level 2; the spines stay well
# clear of those depths, so the failures do not hinge on stack depth and
# every pass of every run fails exactly three requests.
LABEL_DEEP = (
    (300, "1", "first", "max"),
    (420, "2", "first", "zero"),
    (600, "q", "first", "zero"),  # RecursionError
    (600, "q-1", "last", "max"),
    (600, "q-1", "first", "zero"),  # RecursionError
    (1_150, "2", "last", "zero"),  # RecursionError
)


@dataclass
class Checked:
    """What the benchmark's own checks made of one item's output."""

    asked: int = 0  # questions: orbits, or 1 for a label request
    decided: int = 0  # answered yes or no (a label request: a verified labelling)
    wrong: list[str] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)  # machine-independent
    nos: list[tuple] = field(default_factory=list)  # (tree, vertex, n, edges)


def _sequence_label(seq) -> str:
    return ",".join(str(k) for k in seq)


class SweepWorkload:
    """``evaluate_sequence`` over a whole family; the seed orders the trees."""

    seed_independent = True

    def __init__(self, name: str, family: str, nmax: int, expected_no=frozenset()) -> None:
        self.name = name
        self.family = family
        self.nmax = nmax
        self.expected_no = expected_no

    def make_inputs(self, pkg, seed: int) -> list:
        seqs = pkg.sweep.enumerate_family(pkg.sweep.SweepSpec(self.family, nmax=self.nmax))
        random.Random(seed).shuffle(seqs)
        return seqs

    def call(self, pkg, seq):
        return pkg.sweep.evaluate_sequence(seq, self.family, SWEEP_NODE_BUDGET, None)

    def key(self, seq) -> str:
        return _sequence_label(seq)

    def check(self, seq, row) -> Checked:
        label = _sequence_label(seq)
        edges = rst_edges(seq)
        n = len(edges) + 1
        out = Checked(asked=len(row.orbit_reps))
        reps = list(row.orbit_reps)
        if row.n != n or reps[:1] != [0] or reps != sorted(set(reps)) or reps[-1] >= n:
            out.wrong.append(f"{label}: bad size or orbit representatives {reps}")
        if not len(row.verdicts) == len(row.methods) == len(reps):
            out.wrong.append(f"{label}: {len(reps)} orbits but {len(row.verdicts)} verdicts")
        witnesses = iter(row.witnesses)
        for rep, verdict, method in zip(reps, row.verdicts, row.methods):
            out.counts[f"verdict.{verdict}"] += 1
            out.counts[f"method.{method}"] += 1
            expected_no = (label, rep) in self.expected_no
            if verdict == "yes":
                out.decided += 1
                w = next(witnesses, None)
                if w is None or w[0] != rep or not witness_ok(n, edges, w[1], rep, 0):
                    out.wrong.append(f"{label}: witness for vertex {rep} fails the check")
            elif verdict == "no":
                out.decided += 1
                out.nos.append((label, rep, n, edges))
                if not expected_no:
                    out.wrong.append(f"{label}: unexpected no at vertex {rep}")
            if expected_no and verdict != "no":
                out.wrong.append(f"{label}: expected no at vertex {rep}, got {verdict}")
        if next(witnesses, None) is not None:
            out.wrong.append(f"{label}: more witnesses than yes verdicts")
        out.counts["search.nodes"] += row.nodes
        return out


class Rotate0Workload:
    """``is_zero_rotatable`` on random labelled trees (Prüfer codes).

    The trees are drawn once, from ROTATE0_TREE_SEED; the seed only
    orders them, as in the sweeps.  Trees drawn afresh for each seed
    change the search work of a pass by about 10% either way, more than
    the benchmark's bound on its times.
    """

    name = "rotate0_general"
    seed_independent = True

    def make_inputs(self, pkg, seed: int) -> list:
        rng = random.Random(ROTATE0_TREE_SEED)
        items = []
        for i in range(ROTATE0_TREES):
            n = ROTATE0_SIZES[i % len(ROTATE0_SIZES)]
            code = [rng.randrange(n) for _ in range(n - 2)]
            items.append((f"prufer{i}", n, tuple(prufer_edges(code, n))))
        random.Random(seed).shuffle(items)
        return items

    def call(self, pkg, item):
        tree_id, n, edges = item
        cons = pkg.search.SearchConstraints(node_budget=ROTATE0_NODE_BUDGET, time_budget=None)
        return pkg.search.is_zero_rotatable(pkg.model.GeneralTree(n, edges), cons, tree_id)

    def key(self, item) -> str:
        return item[0]

    def check(self, item, report) -> Checked:
        tree_id, n, edges = item
        out = Checked(asked=len(report.entries))
        covered = sorted(v for e in report.entries for v in e.orbit)
        if report.n != n or covered != list(range(n)):
            out.wrong.append(f"{tree_id}: orbits do not partition the {n} vertices")
        for e in report.entries:
            rep = e.representative
            out.counts[f"verdict.{e.verdict}"] += 1
            out.counts[f"method.{e.method}"] += 1
            out.counts["search.nodes"] += e.nodes
            if e.orbit[:1] != (rep,) or list(e.orbit) != sorted(e.orbit):
                out.wrong.append(f"{tree_id}: orbit {e.orbit} does not start at {rep}")
            if e.verdict == "yes":
                out.decided += 1
                if e.witness is None or not witness_ok(n, edges, e.witness.labels, rep, 0):
                    out.wrong.append(f"{tree_id}: witness for vertex {rep} fails the check")
            elif e.verdict == "no":
                out.decided += 1
                out.nos.append((tree_id, rep, n, edges))
                if (tree_id, rep) not in ROTATE0_EXPECTED_NO:
                    out.wrong.append(f"{tree_id}: unexpected no at vertex {rep}")
        expected = {v for t, v in ROTATE0_EXPECTED_NO if t == tree_id}
        for e in report.entries:
            if e.representative in expected and e.verdict != "no":
                out.wrong.append(f"{tree_id}: expected no at vertex {e.representative}, got {e.verdict}")
        return out


class LabelWorkload:
    """``label --zero-at`` requests: build, ``zero_at``, then the CLI's
    own verification, on wide trees and on deep brooms."""

    name = "label_large"
    seed_independent = False

    def make_inputs(self, pkg, seed: int) -> list:
        rng = random.Random(seed)
        requests = []
        lo, hi = LABEL_WIDE_N
        for i in range(LABEL_WIDE):
            # One size stratum per request keeps the total work steady
            # from seed to seed; the shape and level mix is fixed too.
            goal = lo * (hi / lo) ** ((i + rng.random()) / LABEL_WIDE)
            shape, slot = i % 3, i // 3
            if shape == 0:
                seq = (round(goal) - 1,)
            elif shape == 1:
                k2 = rng.randint(2, 40)
                seq = (max(1, round((goal - 1) / (1 + k2))), k2)
            else:
                ones = 1 + (slot // 4) % 4
                m = rng.randint(20, 120)
                seq = (max(1, round((goal - 1) / (ones + 1 + m))),) + (1,) * ones + (m,)
            q = len(seq) + 1
            levels = sorted({1, 2, q - 1, q})
            requests.append(self._request(rng, seq, levels[slot % len(levels)]))
        for spine, where, end, label in LABEL_DEEP:
            seq = (3,) + (1,) * spine + (3,)
            q = len(seq) + 1
            level = {"1": 1, "2": 2, "q-1": q - 1, "q": q}[where]
            ranges = rst_level_ranges(seq)
            vertices = ranges[level - 1]
            target = vertices[0] if end == "first" else vertices[-1]
            requests.append((seq, target, 0 if label == "zero" else ranges[-1].stop - 1))
        rng.shuffle(requests)
        return requests

    @staticmethod
    def _request(rng, seq, level: int) -> tuple:
        ranges = rst_level_ranges(seq)
        n = ranges[-1].stop
        return seq, rng.choice(ranges[level - 1]), rng.choice((0, n - 1))

    def call(self, pkg, request):
        seq, target, desired = request
        t = pkg.model.build(seq)
        g = pkg.model.to_general(t)
        f, trace = pkg.construct.zero_at(pkg.construct.ZeroAtRequest(t, target, desired))
        return f.labels, trace.method, pkg.labelling.is_graceful(g, f)

    def key(self, request) -> str:
        seq, target, desired = request
        ones = len(seq) - 2
        shape = f"{seq[0]},1x{ones},{seq[-1]}" if ones > 3 else _sequence_label(seq)
        return f"({shape}) vertex {target} label {desired}"

    def check(self, request, result) -> Checked:
        seq, target, desired = request
        labels, method, verified = result
        edges = rst_edges(seq)
        out = Checked(asked=1)
        out.counts[f"method.{method}"] += 1
        if verified and witness_ok(len(edges) + 1, edges, labels, target, desired):
            out.decided = 1
        else:
            out.wrong.append(f"{self.key(request)}: labelling fails the check")
        return out


WORKLOADS = {
    w.name: w
    for w in (
        SweepWorkload("sweep_search", "rst_all", 14, RST_ALL_EXPECTED_NO),
        SweepWorkload("sweep_construct", "q3", 130),
        LabelWorkload(),
        Rotate0Workload(),
    )
}
