"""Time one benchmark workload on two source trees in one process, alternating.

Run from anywhere::

    python tests/pair_time.py OLD_SRC NEW_SRC --workload NAME [--rounds 30]

Each ``*_SRC`` is a ``src`` directory that holds ``gracetree``.  Each
package is copied into a temporary directory under its own name
(``gracetree_old``, ``gracetree_new``) and both are imported into this
process, with no bytecode written.  Each side builds the workload's
inputs and calls the workload's function as ``perfbench/workloads.py``
defines them, which this script only reads.  One untimed warm-up pass
per side checks the outputs with the workload's own checks and compares
the two sides' machine-independent tallies (verdicts, methods, search
nodes).  Then each round times one whole pass per side, the old side
first in even rounds and the new side first in odd ones.  Prints each
side's median and quartiles, the median and quartiles of the per-round
new/old ratio, and in how many rounds the new side was faster.  The
rounds run either way, but the exit status is 1 when either side has a
wrong output or the two sides' tallies differ, else 0.

Both sides share one process, so they see the same machine load at
nearly the same time; separate processes on a shared machine spread
too widely to show a cost of a few percent.  The file name does not
match ``test_*.py``, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import importlib
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from import_time import MODULES  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 1


def load(src: str, name: str, into: Path) -> SimpleNamespace:
    """The package under ``src`` imported as ``name`` from a copy in ``into``."""
    shutil.copytree(Path(src) / "gracetree", into / name, ignore=shutil.ignore_patterns("__pycache__"))
    return SimpleNamespace(**{m: importlib.import_module(f"{name}.{m}") for m in MODULES})


def run_pass(workload, pkg, items) -> float:
    start = time.perf_counter()
    for item in items:
        workload.call(pkg, item)
    return time.perf_counter() - start


def tallies(workload, pkg, items) -> tuple[Counter, int]:
    """The summed check counts of one pass, and how many outputs were wrong."""
    counts: Counter = Counter()
    wrong = 0
    for item in items:
        checked = workload.check(item, workload.call(pkg, item))
        counts.update(checked.counts)
        wrong += len(checked.wrong)
    return counts, wrong


def _quartiles(values: list[float]) -> str:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return f"median {median:.4f} (q1 {q1:.4f}, q3 {q3:.4f})"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old", metavar="OLD_SRC")
    ap.add_argument("new", metavar="NEW_SRC")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--rounds", type=int, default=30, help="alternating rounds of passes (default 30)")
    args = ap.parse_args(argv)
    if args.rounds < 2:
        ap.error("--rounds must be at least 2")
    for src in (args.old, args.new):
        if not (Path(src) / "gracetree" / "__init__.py").is_file():
            ap.error(f"no gracetree package under {src}")
    workload = WORKLOADS[args.workload]

    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        sides = {side: load(getattr(args, side), f"gracetree_{side}", Path(tmp)) for side in ("old", "new")}
        items = {side: workload.make_inputs(pkg, SEED) for side, pkg in sides.items()}
        checked = {side: tallies(workload, pkg, items[side]) for side, pkg in sides.items()}
        for side, (_, wrong) in checked.items():
            print(f"{side}: {len(items[side])} items, {wrong} wrong outputs")
        same = checked["old"][0] == checked["new"][0]
        print(f"same tallies on both sides: {'yes' if same else 'no'}")
        sound = same and not any(wrong for _, wrong in checked.values())

        times: dict[str, list[float]] = {"old": [], "new": []}
        for i in range(args.rounds):
            for side in ("old", "new") if i % 2 == 0 else ("new", "old"):
                times[side].append(run_pass(workload, sides[side], items[side]))
    for side, seconds in times.items():
        print(f"{side}: pass {_quartiles(seconds)} s")
    ratios = [new / old for old, new in zip(times["old"], times["new"])]
    print(f"new/old: {_quartiles(ratios)}")
    wins = sum(r < 1 for r in ratios)
    print(f"new faster in {wins} of {args.rounds} rounds")
    return 0 if sound else 1


if __name__ == "__main__":
    sys.exit(main())
