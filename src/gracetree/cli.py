"""Command line front end.

Subcommands: ``label`` (closed-form graceful labellings), ``verify``
(check a labelling), ``rotate0`` (0-rotatability of one tree, orbit by
orbit), ``sweep`` (family-wide runs), and ``tree`` (export structure).

Exit codes: 0 success / all-yes, 1 usage or I/O problems or a tree too
deep or too large to process, 2 a checked labelling is not graceful, 3 a
definite counterexample was found, 4 inconclusive because a search
budget ran out, 130 interrupted.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from pathlib import Path

from .construct import ZeroAtRequest, compose_theorem2, lemma1_label, zero_at
from .labelling import graceful_defect, is_graceful
from .model import (
    RootedSymmetricTree,
    Tree,
    _is_int,
    build,
    path_sequence,
    to_dot,
    tree_from_json,
    tree_to_dict,
    tree_to_json,
)
from .search import (
    DEFAULT_NODE_BUDGET,
    DEFAULT_TIME_BUDGET,
    VERDICT_NO,
    VERDICT_TIMEOUT,
    VERDICT_YES,
    SearchConstraints,
    is_zero_rotatable,
)
from .sweep import (
    FAMILIES,
    SweepSpec,
    rotatability_to_csv,
    run_sweep,
    sequence_label,
    sweep_to_csv,
)

ENV_NODES = "GRACEFUL_BUDGET_NODES"
ENV_SECS = "GRACEFUL_BUDGET_SECS"

# Above this many vertices a command would fill n-sized lists until
# memory runs out.  The largest tree in the tests, (3000, 3000), has
# 9,003,001.
MAX_VERTICES = 10_000_000


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; this tool reserves 2 for
    # failed verification, so usage errors exit 1 instead.
    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _parse_sequence(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"cannot parse daughter degree sequence {text!r}") from None


def _parse_branches(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    try:
        return int(lo), int(hi if sep else lo)
    except ValueError:
        raise ValueError(f"cannot parse --branches {text!r} (expected A..B or one count)") from None


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _add_tree_source(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--rst", metavar="K1,K2,...", help="daughter degree sequence")
    group.add_argument("--path", type=int, metavar="N", help="path on N vertices, rooted at an end")
    group.add_argument("--tree", metavar="FILE", help="tree JSON file (- for stdin)")


def _check_size(n: int) -> None:
    if n > MAX_VERTICES:
        raise ValueError(f"tree has {n} vertices; gracetree handles at most {MAX_VERTICES}")


def _load_tree(args) -> Tree:
    """The tree the arguments name, refused if it has more than
    MAX_VERTICES vertices.  ``--rst``, ``--path`` and an ``"rst"``
    document are refused before their edges are built; a ``"general"``
    document, whose text is already linear in n, is parsed and proven
    a tree first."""
    if args.path is not None:
        _check_size(args.path)
        t = build(path_sequence(args.path))
    elif args.rst is not None:
        t = build(_parse_sequence(args.rst))
    else:
        t = tree_from_json(_read_text(args.tree))
    _check_size(t.n)
    return t


def _require_rst(t) -> RootedSymmetricTree:
    if isinstance(t, RootedSymmetricTree):
        return t
    raise ValueError(
        "this command needs a rooted symmetric tree (--rst, --path, or a "
        'tree file with "kind": "rst")'
    )


def _add_budgets(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--budget-nodes",
        type=int,
        default=None,
        metavar="N",
        help=f"search node budget per orbit (0 = unlimited; env {ENV_NODES}; "
        f"default {DEFAULT_NODE_BUDGET})",
    )
    p.add_argument(
        "--budget-secs",
        type=float,
        default=None,
        metavar="S",
        help=f"search time budget per orbit in seconds (0 = unlimited; env "
        f"{ENV_SECS}; default {DEFAULT_TIME_BUDGET})",
    )


def _resolve_budgets(args) -> tuple[int | None, float | None]:
    """Node and time budgets: the flag, else the environment variable,
    else the default.  Zero or negative means unlimited (None)."""
    budgets = []
    for flag, name, parse, default in (
        (args.budget_nodes, ENV_NODES, int, DEFAULT_NODE_BUDGET),
        (args.budget_secs, ENV_SECS, float, DEFAULT_TIME_BUDGET),
    ):
        text = os.environ.get(name)
        if flag is not None:
            value = flag
        elif text:
            try:
                value = parse(text)
            except ValueError:
                raise ValueError(f"{name}={text!r} is not a valid {parse.__name__}") from None
        else:
            value = default
        budgets.append(None if value <= 0 else value)
    return budgets[0], budgets[1]


def _build_parser() -> _Parser:
    parser = _Parser(prog="gracetree", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_label = sub.add_parser("label", parents=[], help="produce a graceful labelling")
    _add_tree_source(p_label)
    p_label.add_argument(
        "--method",
        choices=("theorem1", "lemma1", "theorem2"),
        default=None,
        help="which construction to run (default theorem1; not with --zero-at)",
    )
    p_label.add_argument(
        "--zero-at",
        type=int,
        default=None,
        metavar="V",
        help="place the extreme label on vertex V, choosing the construction automatically",
    )
    p_label.add_argument(
        "--desired",
        choices=("0", "top"),
        default=None,
        help="which extreme label --zero-at places (default 0; top means n-1)",
    )
    p_label.add_argument("--explain", action="store_true", help="include the construction trace")
    p_label.add_argument("--out", metavar="FILE", help="write the labelling JSON here instead of stdout")
    p_label.add_argument("--dot", metavar="FILE", help="also write annotated Graphviz DOT")
    p_label.set_defaults(func=cmd_label)

    p_verify = sub.add_parser("verify", help="check that a labelling is graceful")
    _add_tree_source(p_verify)
    p_verify.add_argument(
        "--labels",
        required=True,
        metavar="FILE",
        help='labelling JSON ({"labels": [...]} or a bare list; - for stdin)',
    )
    p_verify.set_defaults(func=cmd_verify)

    p_rot = sub.add_parser("rotate0", help="decide 0-rotatability orbit by orbit")
    _add_tree_source(p_rot)
    _add_budgets(p_rot)
    p_rot.add_argument("--csv", metavar="FILE", help="write per-orbit CSV here")
    p_rot.add_argument("--json", metavar="FILE", help="write the full report JSON here")
    p_rot.add_argument(
        "--no-timing", action="store_true", help="blank the CSV timing column and JSON timings"
    )
    p_rot.set_defaults(func=cmd_rotate0)

    p_sweep = sub.add_parser("sweep", help="evaluate 0-rotatability over a tree family")
    p_sweep.add_argument("--family", choices=FAMILIES, required=True)
    p_sweep.add_argument("--nmax", type=int, default=None, help="largest vertex count to include")
    p_sweep.add_argument("--legs", type=int, default=None, help="symmetric_spider: leg length")
    p_sweep.add_argument(
        "--branches",
        default=None,
        metavar="A..B",
        help="branch count range (single value allowed)",
    )
    p_sweep.add_argument("--jobs", type=int, default=1, help="worker processes")
    _add_budgets(p_sweep)
    p_sweep.add_argument("--csv", metavar="FILE", help="write the sweep CSV here")
    p_sweep.add_argument(
        "--witnesses",
        metavar="DIR",
        help="write one witness JSON per tree into this directory",
    )
    p_sweep.add_argument("--no-timing", action="store_true", help="blank the CSV timing column")
    p_sweep.set_defaults(func=cmd_sweep)

    p_tree = sub.add_parser("tree", help="export a tree's structure")
    _add_tree_source(p_tree)
    p_tree.add_argument("--json", metavar="FILE", help="write tree JSON here (default stdout)")
    p_tree.add_argument("--dot", metavar="FILE", help="write Graphviz DOT here")
    p_tree.set_defaults(func=cmd_tree)

    return parser


def cmd_label(args) -> int:
    if args.zero_at is None and args.desired is not None:
        raise ValueError("--desired only applies with --zero-at")
    if args.zero_at is not None and args.method is not None:
        raise ValueError("--zero-at chooses the construction; drop --method")
    t = _require_rst(_load_tree(args))
    if args.zero_at is not None:
        desired = t.n - 1 if args.desired == "top" else 0
        f, trace = zero_at(ZeroAtRequest(t, args.zero_at, desired))
    elif args.method == "lemma1":
        f, trace = lemma1_label(t)
    elif args.method == "theorem2":
        f, trace = compose_theorem2(t)
    else:
        f, trace = zero_at(ZeroAtRequest(t, 0, 0))
    if not is_graceful(t, f):
        print("error: produced labelling failed verification", file=sys.stderr)
        return 2
    doc = {
        "tree": tree_to_dict(t),
        "n": t.n,
        "method": trace.method,
        "labels": list(f.labels),
        "graceful": True,
    }
    if args.explain:
        doc["trace"] = trace.to_dict()
    _write_text(args.out or "-", json.dumps(doc, indent=2) + "\n")
    if args.dot:
        _write_text(args.dot, to_dot(t, f.labels))
    return 0


def cmd_verify(args) -> int:
    t = _load_tree(args)
    doc = json.loads(_read_text(args.labels))
    if isinstance(doc, dict) and "labels" not in doc:
        raise ValueError("labelling document has no 'labels' key")
    raw = doc["labels"] if isinstance(doc, dict) else doc
    if not isinstance(raw, list):
        raise ValueError("labelling document must be a list or carry a 'labels' list")
    if len(raw) != t.n:
        raise ValueError(f"labelling has {len(raw)} entries for a {t.n}-vertex tree")
    for x in raw:
        if not _is_int(x):
            raise ValueError(f"labelling entry {json.dumps(x)} is not an integer")
    defect = graceful_defect(t, raw)
    if defect is not None:
        print(f"not graceful: {defect}")
        return 2
    print("graceful")
    return 0


def _exit_code(verdicts: set[str]) -> int:
    if VERDICT_NO in verdicts:
        return 3
    if VERDICT_TIMEOUT in verdicts:
        return 4
    return 0


def cmd_rotate0(args) -> int:
    t = _load_tree(args)
    nodes, secs = _resolve_budgets(args)
    cons = SearchConstraints(node_budget=nodes, time_budget=secs)
    tree_id = sequence_label(t.degrees) if isinstance(t, RootedSymmetricTree) else ""
    report = is_zero_rotatable(t, cons, tree_id=tree_id)
    for e in report.entries:
        line = f"orbit rep={e.representative} size={len(e.orbit)} verdict={e.verdict} [{e.method}]"
        print(line)
    print(f"tree {report.tree_id}: {report.verdict}")
    if args.csv:
        _write_text(args.csv, rotatability_to_csv(report, include_timing=not args.no_timing))
    if args.json:
        _write_text(args.json, report.to_json(include_timing=not args.no_timing) + "\n")
    return _exit_code({report.verdict})


def cmd_sweep(args) -> int:
    nodes, secs = _resolve_budgets(args)
    spec = SweepSpec(
        family=args.family,
        nmax=args.nmax,
        legs=args.legs,
        branches=_parse_branches(args.branches) if args.branches else None,
        node_budget=nodes,
        time_budget=secs,
    )
    rows = run_sweep(spec, jobs=args.jobs)
    for row in rows:
        print(f"{row.tree_id:<16} n={row.n:<5} orbits={len(row.entries):<3} {row.verdict}")
    verdicts = Counter(v for row in rows for v in row.verdicts)
    print(
        f"swept {len(rows)} trees from family {args.family}: "
        f"{sum(verdicts.values())} orbits ({verdicts[VERDICT_YES]} yes, "
        f"{verdicts[VERDICT_NO]} no, {verdicts[VERDICT_TIMEOUT]} timeout), "
        f"{sum(row.searched for row in rows)} searched, {sum(row.nodes for row in rows)} nodes"
    )
    if args.csv:
        _write_text(args.csv, sweep_to_csv(rows, include_timing=not args.no_timing))
    if args.witnesses:
        outdir = Path(args.witnesses)
        outdir.mkdir(parents=True, exist_ok=True)
        for row in rows:
            doc = {
                "tree": tree_to_dict(build(_parse_sequence(row.tree_id))),
                "n": row.n,
                "witnesses": {str(rep): list(labels) for rep, labels in row.witnesses},
            }
            name = row.tree_id.replace(",", "-") + ".json"
            (outdir / name).write_text(json.dumps(doc, indent=2) + "\n")
    return _exit_code({row.verdict for row in rows})


def cmd_tree(args) -> int:
    t = _load_tree(args)
    if args.json or not args.dot:
        _write_text(args.json or "-", tree_to_json(t) + "\n")
    if args.dot:
        _write_text(args.dot, to_dot(t))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except KeyboardInterrupt:
        return 130
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RecursionError:
        print("error: recursion limit reached; the tree is too deep for this command", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
