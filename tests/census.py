"""Score the decider on every rooted symmetric tree up to a size.

Run from anywhere::

    python tests/census.py --nmax 30 [--jobs 2] [--orbits FILE] [--against FILE]

Sweeps the ``rst_all`` family to ``--nmax`` vertices with 50,000 nodes
per orbit and no time budget, and prints only numbers that do not
depend on the machine: trees, orbits, verdicts, methods and search
nodes, every ``no`` orbit, and the searched orbits and timeouts split by
the root's degree (1 or more) and by the orbit's level (a middle one or
one of the bottom two; the constructions settle the top two), and again
by broom ``(1^j,k)``, j >= 1 and k >= 2, or not.  Equal
code prints equal output at any ``--jobs``.  The file name does not
match ``test_*.py``, so pytest does not collect it.

``--orbits FILE`` writes one line per orbit: tree, representative,
verdict, method and nodes.  ``--against FILE`` reads such a file, made
by an earlier version of the code, and prints each orbit whose verdict
or method moved, with its nodes on both sides, and a tally per kind of
move, then, when there are any, how many orbits kept their verdict and
method but changed their nodes.  The exit status is 1 when an orbit
moved from yes to timeout or a no appeared or went, else 0.
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


def census(nmax: int, jobs: int) -> tuple[list[str], list[str]]:
    """The printed score, and the orbit lines of ``--orbits``."""
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
            levels = "bottom two levels" if t.level_of_index(e.representative) >= t.q - 1 else "middle levels"
            broom = len(seq) > 1 and seq[-1] > 1 and set(seq[:-1]) == {1}
            for where in (
                ("root degree 1" if seq[0] == 1 else "root degree 2+", levels),
                ("broom" if broom else "not a broom", levels),
                "total",
            ):
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
    for split in (("root degree 1", "root degree 2+"), ("broom", "not a broom")):
        for kind in split:
            for levels in ("middle levels", "bottom two levels"):
                where = (kind, levels)
                lines.append(f"  {kind}, {levels}: {searched[where]:,} / {timeouts[where]:,}")
    lines.append(f"  total: {searched['total']:,} / {timeouts['total']:,}")
    orbits = [f"{sequence_label(s)} {e.representative} {e.verdict} {e.method} {e.nodes}" for s, e in entries]
    return lines, orbits


def moves(before: list[str], after: list[str]) -> tuple[list[str], bool]:
    """The orbits whose verdict or method moved from ``before`` to
    ``after``, both in the ``--orbits`` format, then a tally per kind
    of move and, if nonzero, the count of orbits whose nodes alone
    moved; and whether a yes became a timeout or a no came or went.
    An orbit on one side only is "absent" on the other."""

    def keyed(orbit_lines: list[str]) -> dict[tuple[str, str], list[str]]:
        return {(tree, rep): rest for tree, rep, *rest in map(str.split, orbit_lines)}

    old, new = keyed(before), keyed(after)
    absent = ["absent", "-", "0"]
    lines, tally, fault, nodes_moved = [], Counter(), False, 0
    for key in list(new) + [key for key in old if key not in new]:
        (v0, m0, n0), (v1, m1, n1) = old.get(key, absent), new.get(key, absent)
        if (v0, m0) == (v1, m1):
            nodes_moved += n0 != n1
            continue
        lines.append(f"  ({key[0]})@{key[1]}: {v0} {m0} {n0} nodes -> {v1} {m1} {n1} nodes")
        tally[f"{v0} {m0} -> {v1} {m1}"] += 1
        fault |= (v0, v1) == ("yes", "timeout") or (v0 == "no") != (v1 == "no")
    lines.insert(0, f"moved orbits: {len(lines):,}")
    lines += [f"  {kind}: {count:,}" for kind, count in sorted(tally.items())]
    if nodes_moved:
        lines.append(f"nodes moved: {nodes_moved:,}")
    return lines, fault


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--nmax", type=int, default=30)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--orbits", type=Path, help="write one line per orbit to this file")
    parser.add_argument("--against", type=Path, help="list the orbits that moved since this --orbits file")
    args = parser.parse_args(argv)
    lines, orbits = census(args.nmax, args.jobs)
    print("\n".join(lines))
    if args.orbits:
        args.orbits.write_text("".join(line + "\n" for line in orbits))
    if args.against:
        moved, fault = moves(args.against.read_text().splitlines(), orbits)
        print("\n".join(moved))
        return int(fault)
    return 0


if __name__ == "__main__":
    sys.exit(main())
