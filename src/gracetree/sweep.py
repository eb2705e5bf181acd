"""Batch evaluation of 0-rotatability over families of trees.

A sweep enumerates a family of daughter degree sequences, and for each
tree asks, orbit by orbit, whether label 0 can sit on that orbit.  The
driver tries the closed-form constructions first and falls back to
search only when no construction applies, recording per orbit which
route answered.  Results serialize to CSV with a stable schema tag so
downstream tooling can detect format drift.
"""

from __future__ import annotations

import csv
import io
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

from .construct import ZeroAtRequest, zero_at
from .labelling import Labelling
from .model import RootedSymmetricTree, build
from .search import (
    DEFAULT_NODE_BUDGET,
    DEFAULT_TIME_BUDGET,
    RotatabilityReport,
    SearchConstraints,
    is_zero_rotatable,
)

# Unused here, but perfbench/spans.py wraps them at this module's lookup site.
from .model import to_general, vertex_orbits  # noqa: F401
from .search import find_graceful  # noqa: F401

FAMILY_RST_ALL = "rst_all"
FAMILY_SPIDER = "symmetric_spider"
FAMILY_BANANA = "symmetric_banana"
FAMILY_Q3 = "q3"
FAMILIES = (FAMILY_RST_ALL, FAMILY_SPIDER, FAMILY_BANANA, FAMILY_Q3)

SWEEP_SCHEMA = "gracetree.sweep/1"
SWEEP_COLUMNS = (
    "schema",
    "family",
    "tree",
    "n",
    "q",
    "orbits",
    "orbit_reps",
    "verdicts",
    "methods",
    "all_yes",
    "nodes",
    "elapsed_s",
)

ROTATE0_SCHEMA = "gracetree.rotate0/1"
ROTATE0_COLUMNS = (
    "schema",
    "tree",
    "n",
    "orbit_rep",
    "orbit_size",
    "verdict",
    "method",
    "witness",
    "nodes",
    "elapsed_s",
)


@dataclass(frozen=True)
class SweepSpec:
    """What to sweep: a family name plus its parameters and budgets."""

    family: str
    nmax: int | None = None
    legs: int | None = None
    branches: tuple[int, int] | None = None
    node_budget: int | None = DEFAULT_NODE_BUDGET
    time_budget: float | None = DEFAULT_TIME_BUDGET

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; choose from {FAMILIES}")
        if self.branches is not None:
            lo, hi = self.branches
            if lo < 1 or hi < lo:
                raise ValueError(f"bad branch range {self.branches}")


def _all_sequences(nmax: int) -> list[tuple[int, ...]]:
    # Build sequences by prepending a level: a suffix with subtree size h
    # extends to (k,)+suffix of size 1+k*h.  Every sequence with total
    # size <= nmax appears exactly once.
    out: list[tuple[int, ...]] = []

    def extend(h: int, suffix: tuple[int, ...]) -> None:
        k = 1
        while 1 + k * h <= nmax:
            seq = (k,) + suffix
            out.append(seq)
            extend(1 + k * h, seq)
            k += 1

    extend(1, ())
    out.sort(key=lambda s: (RootedSymmetricTree(s).n, len(s), s))
    return out


def enumerate_family(spec: SweepSpec) -> list[tuple[int, ...]]:
    """Daughter degree sequences of the requested family, in a stable order."""
    if spec.family == FAMILY_RST_ALL:
        if spec.nmax is None:
            raise ValueError("rst_all needs nmax")
        if spec.nmax < 2:
            return []
        return _all_sequences(spec.nmax)

    if spec.family == FAMILY_SPIDER:
        if spec.legs is None or spec.branches is None:
            raise ValueError("symmetric_spider needs legs and a branch range")
        if spec.legs < 1:
            raise ValueError("leg length must be positive")
        lo, hi = spec.branches
        seqs = [(k,) + (1,) * (spec.legs - 1) for k in range(lo, hi + 1)]

    elif spec.family == FAMILY_BANANA:
        if spec.branches is None:
            raise ValueError("symmetric_banana needs a branch range")
        lo, hi = spec.branches
        seqs = [
            (a, 1, b)
            for a in range(lo, hi + 1)
            for b in range(lo, hi + 1)
        ]

    elif spec.family == FAMILY_Q3:
        nmax = spec.nmax if spec.nmax is not None else 60
        seqs = [
            (k1, k2)
            for k1 in range(1, nmax)
            for k2 in range(1, nmax)
            if 1 + k1 * (1 + k2) <= nmax
        ]
        seqs.sort(key=lambda s: (1 + s[0] * (1 + s[1]), s))
        return seqs

    else:  # pragma: no cover - guarded by SweepSpec
        raise ValueError(f"unknown family {spec.family!r}")

    if spec.nmax is not None:
        seqs = [s for s in seqs if RootedSymmetricTree(s).n <= spec.nmax]
    return seqs


def sequence_label(seq: tuple[int, ...]) -> str:
    return ",".join(str(k) for k in seq)


def evaluate_sequence(
    seq: tuple[int, ...],
    family: str = "",
    node_budget: int | None = DEFAULT_NODE_BUDGET,
    time_budget: float | None = DEFAULT_TIME_BUDGET,
) -> RotatabilityReport:
    """Answer 0-rotatability for one tree, constructions first.

    Per orbit: a cached complement witness wins, then a closed-form
    construction, then pinned search within the budgets.
    """
    t = build(seq)

    def construct(rep: int) -> tuple[Labelling, str]:
        witness, trace = zero_at(ZeroAtRequest(t, rep, 0))
        return witness, trace.method

    cons = SearchConstraints(node_budget=node_budget, time_budget=time_budget)
    report = is_zero_rotatable(t, cons, sequence_label(seq), construct)
    return replace(report, family=family, q=t.q)


def _evaluate_star(args: tuple) -> RotatabilityReport:
    return evaluate_sequence(*args)


def run_sweep(spec: SweepSpec, jobs: int = 1) -> list[RotatabilityReport]:
    """Evaluate the whole family, optionally across worker processes.

    Output order always matches enumerate_family(spec).
    """
    seqs = enumerate_family(spec)
    tasks = [(s, spec.family, spec.node_budget, spec.time_budget) for s in seqs]
    if jobs <= 1:
        return [_evaluate_star(task) for task in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_evaluate_star, tasks))


def _fmt_elapsed(seconds: float, include_timing: bool) -> str:
    return f"{seconds:.3f}" if include_timing else ""


def sweep_to_csv(rows: list[RotatabilityReport], include_timing: bool = True) -> str:
    """Render sweep rows under the gracetree.sweep/1 schema.

    With timing excluded the output is byte-stable across runs.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SWEEP_COLUMNS)
    for row in rows:
        writer.writerow(
            [
                SWEEP_SCHEMA,
                row.family,
                row.tree_id,
                row.n,
                row.q,
                len(row.entries),
                " ".join(str(r) for r in row.orbit_reps),
                " ".join(row.verdicts),
                " ".join(row.methods),
                "true" if row.all_yes else "false",
                row.nodes,
                _fmt_elapsed(row.elapsed_s, include_timing),
            ]
        )
    return buf.getvalue()


def rotatability_to_csv(report: RotatabilityReport, include_timing: bool = True) -> str:
    """Render a rotatability report, one row per orbit, under the
    gracetree.rotate0/1 schema."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(ROTATE0_COLUMNS)
    for e in report.entries:
        writer.writerow(
            [
                ROTATE0_SCHEMA,
                report.tree_id,
                report.n,
                e.representative,
                len(e.orbit),
                e.verdict,
                e.method,
                " ".join(str(x) for x in e.witness.labels) if e.witness else "",
                e.nodes,
                _fmt_elapsed(e.elapsed, include_timing),
            ]
        )
    return buf.getvalue()
