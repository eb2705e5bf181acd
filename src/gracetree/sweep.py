"""Batch evaluation of 0-rotatability over families of trees.

A sweep enumerates a family of daughter degree sequences, and for each
tree asks, orbit by orbit, whether label 0 can sit on that orbit.  The
driver tries the closed-form constructions first and falls back to
search only when no construction applies, recording per orbit which
route answered.  Results serialize to CSV with a stable schema tag so
downstream tooling can detect format drift.
"""

from __future__ import annotations

import io

from .model import _Frozen, _as_int, _as_ints, build, level_numbers
from .search import (
    DEFAULT_NODE_BUDGET,
    DEFAULT_TIME_BUDGET,
    RotatabilityReport,
    SearchConstraints,
    is_zero_rotatable,
)

# Unused here, but perfbench/spans.py wraps them at this module's lookup site.
from .construct import zero_at  # noqa: F401
from .model import to_general, vertex_orbits  # noqa: F401
from .search import find_graceful  # noqa: F401

FAMILY_RST_ALL = "rst_all"
FAMILY_SPIDER = "symmetric_spider"
FAMILY_BANANA = "symmetric_banana"
FAMILY_Q3 = "q3"
FAMILIES = (FAMILY_RST_ALL, FAMILY_SPIDER, FAMILY_BANANA, FAMILY_Q3)

# The parameters each family reads, each mapped to whether it is required.
_FAMILY_PARAMS = {
    FAMILY_RST_ALL: {"nmax": True},
    FAMILY_SPIDER: {"nmax": False, "legs": True, "branches": True},
    FAMILY_BANANA: {"nmax": False, "branches": True},
    FAMILY_Q3: {"nmax": False},
}

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


class SweepSpec(_Frozen):
    """What to sweep: a family name plus its parameters and budgets."""

    _fields = ("family", "nmax", "legs", "branches", "node_budget", "time_budget")

    def __init__(
        self,
        family: str,
        nmax: int | None = None,
        legs: int | None = None,
        branches: tuple[int, int] | None = None,
        node_budget: int | None = DEFAULT_NODE_BUDGET,
        time_budget: float | None = DEFAULT_TIME_BUDGET,
    ) -> None:
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}; choose from {FAMILIES}")
        nmax = None if nmax is None else _as_int(nmax, "nmax")
        legs = None if legs is None else _as_int(legs, "legs")
        if branches is not None:
            branches = _as_ints(branches, "branch count")
            if len(branches) != 2 or not 1 <= branches[0] <= branches[1]:
                raise ValueError(f"bad branch range {branches}")
        reads = _FAMILY_PARAMS[family]
        for name, value in (("nmax", nmax), ("legs", legs), ("branches", branches)):
            if value is None and reads.get(name):
                raise ValueError(f"family {family} needs {name}")
            if value is not None and name not in reads:
                raise ValueError(f"family {family} does not take {name}")
        if legs is not None and legs < 1:
            raise ValueError("leg length must be positive")
        # Every tree's search checks the budgets too, but a bad one should
        # fail here, not at the first tree (in a worker under --jobs).
        SearchConstraints(node_budget=node_budget, time_budget=time_budget).validate(0)
        self.__dict__.update(
            family=family,
            nmax=nmax,
            legs=legs,
            branches=branches,
            node_budget=node_budget,
            time_budget=time_budget,
        )


def _all_sequences(nmax: int) -> list[tuple[int, ...]]:
    # Build sequences by prepending a level: a suffix with subtree size h
    # extends to (k,)+suffix of size 1+k*h.  Every sequence with total
    # size <= nmax appears exactly once.
    out: list[tuple[int, int, tuple[int, ...]]] = []

    def extend(h: int, suffix: tuple[int, ...]) -> None:
        k = 1
        while 1 + k * h <= nmax:
            seq = (k,) + suffix
            out.append((1 + k * h, len(seq), seq))
            extend(1 + k * h, seq)
            k += 1

    extend(1, ())
    out.sort()
    return [seq for _, _, seq in out]


def enumerate_family(spec: SweepSpec) -> list[tuple[int, ...]]:
    """Daughter degree sequences of the requested family, in a stable order."""
    if spec.family == FAMILY_RST_ALL:
        return _all_sequences(spec.nmax)

    if spec.family == FAMILY_SPIDER:
        lo, hi = spec.branches
        seqs = [(k,) + (1,) * (spec.legs - 1) for k in range(lo, hi + 1)]

    elif spec.family == FAMILY_BANANA:
        lo, hi = spec.branches
        seqs = [
            (a, 1, b)
            for a in range(lo, hi + 1)
            for b in range(lo, hi + 1)
        ]

    else:
        nmax = spec.nmax if spec.nmax is not None else 60
        seqs = [
            (k1, k2)
            for k1 in range(1, nmax)
            for k2 in range(1, nmax)
            if 1 + k1 * (1 + k2) <= nmax
        ]
        seqs.sort(key=lambda s: (1 + s[0] * (1 + s[1]), s))
        return seqs

    if spec.nmax is not None:
        seqs = [s for s in seqs if level_numbers(s)[0] <= spec.nmax]
    return seqs


def sequence_label(seq: tuple[int, ...]) -> str:
    return ",".join(str(k) for k in seq)


def evaluate_sequence(
    seq: tuple[int, ...],
    family: str = "",
    node_budget: int | None = DEFAULT_NODE_BUDGET,
    time_budget: float | None = DEFAULT_TIME_BUDGET,
) -> RotatabilityReport:
    """Answer 0-rotatability for one tree, constructions first: the row of
    ``is_zero_rotatable`` on ``build(seq)``, with its family and level count."""
    t = build(seq)
    cons = SearchConstraints(node_budget=node_budget, time_budget=time_budget)
    report = is_zero_rotatable(t, cons, sequence_label(seq))
    return report._replace(family=family, q=t.q)


def run_sweep(spec: SweepSpec, jobs: int = 1) -> list[RotatabilityReport]:
    """Evaluate the whole family, optionally across worker processes.

    Output order always matches enumerate_family(spec).  At most one
    worker per tree is started, none for a single tree.  Workers never see
    SIGINT: on KeyboardInterrupt, from Ctrl-C or from SIGINT sent to this
    process alone, the sweep terminates and joins them and re-raises, so
    none outlives the call.  A worker that dies raises ChildProcessError.
    """
    seqs = enumerate_family(spec)
    tasks = [(s, spec.family, spec.node_budget, spec.time_budget) for s in seqs]
    jobs = min(jobs, len(tasks))
    if jobs <= 1:
        return [evaluate_sequence(*task) for task in tasks]
    # Imported here so that a serial run, and every other command, does
    # not load multiprocessing at startup.
    import multiprocessing
    import signal
    from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

    others = set(multiprocessing.active_children())
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        # The submits start the workers with SIGINT blocked, and they keep
        # it blocked.  Blocked, not ignored: a Ctrl-C meanwhile is held
        # until the mask is restored inside the try, and not lost.
        masked = hasattr(signal, "pthread_sigmask")
        if masked:
            old_mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            try:
                futures = [pool.submit(evaluate_sequence, *task) for task in tasks]
            finally:
                if masked:
                    signal.pthread_sigmask(signal.SIG_SETMASK, old_mask)
            return [f.result() for f in futures]
        except KeyboardInterrupt:
            # Only the pool's own workers, ended before the pool fails their
            # futures: a future cancelled first breaks the pool's cleanup.
            workers = set(multiprocessing.active_children()) - others
            for w in workers:
                w.terminate()
            for w in workers:
                w.join()
            raise
        except BrokenExecutor as exc:
            raise ChildProcessError("a sweep worker process died") from exc


def _fmt_elapsed(seconds: float, include_timing: bool) -> str:
    return f"{seconds:.3f}" if include_timing else ""


def _csv_text(columns: tuple[str, ...], rows) -> str:
    """CSV text: the header row ``columns``, then ``rows``."""
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    return buf.getvalue()


def sweep_to_csv(rows: list[RotatabilityReport], include_timing: bool = True) -> str:
    """Render sweep rows under the gracetree.sweep/1 schema.

    With timing excluded the output is byte-stable across runs.
    """
    return _csv_text(
        SWEEP_COLUMNS,
        (
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
            for row in rows
        ),
    )


def rotatability_to_csv(report: RotatabilityReport, include_timing: bool = True) -> str:
    """Render a rotatability report, one row per orbit, under the
    gracetree.rotate0/1 schema."""
    return _csv_text(
        ROTATE0_COLUMNS,
        (
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
            for e in report.entries
        ),
    )
