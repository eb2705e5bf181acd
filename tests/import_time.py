"""Time fresh imports of the package from two source trees, alternating.

Run from anywhere::

    python tests/import_time.py OLD_SRC NEW_SRC [--pairs 40]

Each ``*_SRC`` is a ``src`` directory that holds ``gracetree``.  A pair
is one new interpreter per side, each run with ``-B`` and timing the
import of the five modules that the benchmark's ``setup_s`` imports
(``PACKAGE_MODULES`` in ``perfbench/run.py``), the old side first in
even pairs and the new side first in odd ones.  Prints each side's
median and quartiles, and in how many pairs the new side was faster.

``-B`` keeps the runs from writing bytecode, but an existing
``gracetree/__pycache__`` is still read, and then the timing is of a
cached import; the script warns about one.  The file name does not
match ``test_*.py``, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import statistics
import subprocess
import sys
from pathlib import Path

MODULES = ("model", "labelling", "construct", "search", "sweep")
CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    + "; ".join(f"import gracetree.{m}" for m in MODULES)
    + "; print(time.perf_counter() - t)"
)


def import_seconds(src: str) -> float:
    done = subprocess.run(
        [sys.executable, "-B", "-c", CODE, src], capture_output=True, text=True, timeout=120, check=True
    )
    return float(done.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old", metavar="OLD_SRC")
    ap.add_argument("new", metavar="NEW_SRC")
    ap.add_argument("--pairs", type=int, default=40, help="alternating pairs of imports (default 40)")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")
    for src in (args.old, args.new):
        package = Path(src) / "gracetree"
        if not (package / "__init__.py").is_file():
            ap.error(f"no gracetree package under {src}")
        if (package / "__pycache__").exists():
            print(f"warning: {package / '__pycache__'} exists, so imports read its bytecode", file=sys.stderr)

    times: dict[str, list[float]] = {"old": [], "new": []}
    for i in range(args.pairs):
        for side in ("old", "new") if i % 2 == 0 else ("new", "old"):
            times[side].append(import_seconds(getattr(args, side)))
    for side, seconds in times.items():
        q1, median, q3 = (1e3 * s for s in statistics.quantiles(seconds, n=4))
        print(f"{side}: median {median:.2f} ms (q1 {q1:.2f}, q3 {q3:.2f})")
    wins = sum(new < old for old, new in zip(times["old"], times["new"]))
    print(f"new faster in {wins} of {args.pairs} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
