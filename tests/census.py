"""Score the decider on every rooted symmetric tree up to a size.

Run from anywhere::

    python tests/census.py --nmax 30 [--jobs 2]

Sweeps the ``rst_all`` family to ``--nmax`` vertices with 50,000 nodes
per orbit and no time budget, and prints only numbers that do not
depend on the machine: trees, orbits, verdicts, methods and search
nodes, every ``no`` orbit, and the searched orbits and timeouts split by
the root's degree (1 or more) and by the orbit's level (a middle one or
one of the bottom two; the constructions settle the top two).  Equal
code prints equal output at any ``--jobs``.  The file name does not
match ``test_*.py``, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path

# No bytecode, as in the test suite: a cached import would skew a later
# benchmark's fresh-import timing.
sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from gracetree.model import build, sequence_label  # noqa: E402
from gracetree.sweep import SweepSpec, enumerate_family, run_sweep  # noqa: E402

NODE_BUDGET = 50_000


def census(nmax: int, jobs: int) -> list[str]:
    spec = SweepSpec("rst_all", nmax=nmax, node_budget=NODE_BUDGET, time_budget=None)
    reports = run_sweep(spec, jobs)
    entries = [(seq, e) for seq, rep in zip(enumerate_family(spec), reports) for e in rep.entries]
    verdicts = Counter(e.verdict for _, e in entries)
    methods = Counter(e.method for _, e in entries)
    searched: Counter = Counter()
    timeouts: Counter = Counter()
    for seq, e in entries:
        if e.nodes:
            t = build(seq)
            where = (
                "root degree 1" if seq[0] == 1 else "root degree 2+",
                "bottom two levels" if t.level_of_index(e.representative) >= t.q - 1 else "middle levels",
            )
            searched[where] += 1
            timeouts[where] += e.verdict == "timeout"
    lines = [
        f"rst_all nmax {nmax}, {NODE_BUDGET:,} nodes per orbit, no time budget",
        f"trees: {len(reports):,}",
        f"orbits: {len(entries):,}",
        "verdicts: " + ", ".join(f"{v} {verdicts[v]:,}" for v in ("yes", "no", "timeout")),
        "methods: " + ", ".join(f"{m} {c:,}" for m, c in sorted(methods.items())),
        f"nodes: {sum(e.nodes for _, e in entries):,}",
        "no: " + " ".join(f"({sequence_label(s)})@{e.representative}" for s, e in entries if e.verdict == "no"),
        "searched orbits / timeouts:",
    ]
    for root in ("root degree 1", "root degree 2+"):
        for levels in ("middle levels", "bottom two levels"):
            where = (root, levels)
            lines.append(f"  {root}, {levels}: {searched[where]:,} / {timeouts[where]:,}")
    lines.append(f"  total: {sum(searched.values()):,} / {sum(timeouts.values()):,}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--nmax", type=int, default=30)
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args(argv)
    print("\n".join(census(args.nmax, args.jobs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
