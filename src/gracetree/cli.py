"""Command line front end.

Subcommands: ``label`` (closed-form graceful labellings), ``verify``
(check a labelling), ``rotate0`` (0-rotatability of one tree, orbit by
orbit), ``sweep`` (family-wide runs), and ``tree`` (export structure).

This module alone writes and reads the file formats: tree documents
(JSON), Graphviz DOT, the labelling and ``rotate0`` report JSON, and
two CSV schemas, ``gracetree.sweep/1`` (a row per tree) and
``gracetree.rotate0/1`` (a row per orbit).  ``--no-timing`` blanks
every time in a report before it is written, so that output is
byte-stable.

Exit codes: 0 success / all-yes, 1 usage or I/O problems or a tree too
deep or too large to process, 2 ``verify`` found the labelling not
graceful, 3 a definite counterexample was found, 4 inconclusive because
a search budget ran out, 130 interrupted.  ``label`` prints what the
constructions hand out, each proven graceful there.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from collections import Counter
from pathlib import Path

from .construct import ZeroAtRequest, compose_theorem2, lemma1_label, zero_at
from .labelling import graceful_defect
from .model import GeneralTree, RootedSymmetricTree, Tree, _is_int, build, path_sequence
from .search import (
    DEFAULT_NODE_BUDGET,
    DEFAULT_TIME_BUDGET,
    VERDICT_NO,
    VERDICT_TIMEOUT,
    VERDICT_YES,
    RotatabilityReport,
    SearchConstraints,
    is_zero_rotatable,
)
from .sweep import FAMILIES, SweepSpec, enumerate_family, largest_tree, run_sweep

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


def _read_json(flag: str, path: str):
    """The JSON document in ``path`` (- for stdin), read for ``flag``;
    ValueError naming both unless it decodes and parses."""
    try:
        return json.loads(sys.stdin.read() if path == "-" else Path(path).read_text())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"{flag} {path} is not JSON: {exc}") from None


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _indented_json(obj, pad: str = "\n") -> str:
    """``json.dumps(obj, indent=2)``, the same text, built faster.

    With an indent, ``json.dumps`` runs its pure-Python encoder on every
    value.  A list whose compact C encoding holds no string and no
    nested list or dict holds only numbers, booleans and nulls, so that
    one encoding is broken into lines at its ``", "`` separators; a list
    that starts with a string, list or dict is not encoded first.  A
    dict, whose keys must be strings, or any other list recurses.
    """
    inner = pad + "  "
    if isinstance(obj, dict) and obj:
        items = (json.dumps(k) + ": " + _indented_json(v, inner) for k, v in obj.items())
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if not isinstance(obj, (list, tuple)) or not obj:
        return json.dumps(obj)  # a scalar, {} or []
    if not isinstance(obj[0], (dict, list, tuple, str)):  # else not flat: encode it once
        flat = json.dumps(obj)
        if flat.find("[", 1) < 0 and "{" not in flat and '"' not in flat:
            return "[" + inner + flat[1:-1].replace(", ", "," + inner) + pad + "]"
    return "[" + inner + ("," + inner).join(_indented_json(x, inner) for x in obj) + pad + "]"


def _tree_to_dict(t: Tree) -> dict:
    if isinstance(t, RootedSymmetricTree):
        return {"kind": "rst", "degrees": list(t.degrees)}
    return {"kind": "general", "n": t.n, "edges": [list(e) for e in t.edges]}


def _tree_from_dict(d) -> Tree:
    if not isinstance(d, dict) or "kind" not in d:
        raise ValueError('tree document needs a "kind" field')
    kind = d["kind"]
    if kind == "rst":
        degrees = d.get("degrees")
        if not isinstance(degrees, list) or not degrees or not all(map(_is_int, degrees)):
            raise ValueError('rst document needs a non-empty "degrees" list of integers')
        return RootedSymmetricTree(degrees)
    if kind == "general":
        if "n" not in d or "edges" not in d:
            raise ValueError('general document needs "n" and "edges"')
        n, edges = d["n"], d["edges"]
        if not _is_int(n):
            raise ValueError('"n" must be an integer')
        if not isinstance(edges, list) or not all(
            isinstance(e, list) and len(e) == 2 and all(map(_is_int, e)) for e in edges
        ):
            raise ValueError('"edges" must be a list of [u, v] integer pairs')
        return GeneralTree(n, tuple(map(tuple, edges)))
    raise ValueError(f"unknown tree kind {kind!r}")


def _to_dot(t: Tree, labels=None) -> str:
    """Graphviz DOT text; with ``labels``, one of the package's own
    labellings of ``t``, each vertex and edge is annotated."""
    lines = ["graph gracetree {", "  node [shape=circle];"]
    if labels is None:
        lines += (f"  {v};" for v in range(t.n))
        lines += (f"  {u} -- {v};" for u, v in t.edges)
    else:
        lines += (f'  {v} [label="{x}"];' for v, x in enumerate(labels))
        lines += (f'  {u} -- {v} [label="{abs(labels[u] - labels[v])}"];' for u, v in t.edges)
    lines.append("}")
    return "\n".join(lines) + "\n"


def _untimed(report: RotatabilityReport) -> RotatabilityReport:
    """``report`` with every time None, as ``--no-timing`` writes it: an
    empty CSV cell and a JSON null."""
    entries = tuple(e._replace(elapsed=None) for e in report.entries)
    return report._replace(entries=entries, elapsed_s=None)


def _report_dict(report: RotatabilityReport) -> dict:
    orbits = [
        {
            "representative": e.representative,
            "orbit": list(e.orbit),
            "verdict": e.verdict,
            "method": e.method,
            "witness": list(e.witness.labels) if e.witness else None,
            "nodes": e.nodes,
            "elapsed": e.elapsed,
        }
        for e in report.entries
    ]
    return {"tree": report.tree_id, "n": report.n, "verdict": report.verdict, "orbits": orbits}


SWEEP_SCHEMA = "gracetree.sweep/1"
SWEEP_COLUMNS = (
    "schema", "family", "tree", "n", "q", "orbits", "orbit_reps", "verdicts", "methods",
    "all_yes", "nodes", "elapsed_s",
)
ROTATE0_SCHEMA = "gracetree.rotate0/1"
ROTATE0_COLUMNS = (
    "schema", "tree", "n", "orbit_rep", "orbit_size", "verdict", "method", "witness", "nodes",
    "elapsed_s",
)


def _fmt_elapsed(seconds: float | None) -> str:
    return "" if seconds is None else f"{seconds:.3f}"


def _csv_text(columns: tuple[str, ...], rows) -> str:
    """CSV text: the header row ``columns``, then ``rows``."""
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    return buf.getvalue()


def _sweep_csv(rows: list[RotatabilityReport]) -> str:
    """Sweep rows under the gracetree.sweep/1 schema, one per tree."""
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
                "true" if row.verdict == VERDICT_YES else "false",
                row.nodes,
                _fmt_elapsed(row.elapsed_s),
            ]
            for row in rows
        ),
    )


def _rotate0_csv(report: RotatabilityReport) -> str:
    """A report under the gracetree.rotate0/1 schema, one row per orbit."""
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
                _fmt_elapsed(e.elapsed),
            ]
            for e in report.entries
        ),
    )


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
        t = _tree_from_dict(_read_json("--tree", args.tree))
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
        default=DEFAULT_NODE_BUDGET,
        metavar="N",
        help=f"search node budget per orbit (0 = unlimited; default {DEFAULT_NODE_BUDGET})",
    )
    p.add_argument(
        "--budget-secs",
        type=float,
        default=DEFAULT_TIME_BUDGET,
        metavar="S",
        help=f"search time budget per orbit in seconds (0 = unlimited; default "
        f"{DEFAULT_TIME_BUDGET})",
    )


def _resolve_budgets(args) -> tuple[int | None, float | None]:
    """Node and time budgets; zero or negative means unlimited (None)."""
    return tuple(None if b <= 0 else b for b in (args.budget_nodes, args.budget_secs))


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
    p_sweep.add_argument("--jobs", type=int, default=1, help="worker processes, at most one per CPU")
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
    if args.method == "lemma1":
        f, trace = lemma1_label(t)
    elif args.method == "theorem2":
        f, trace = compose_theorem2(t)
    else:  # theorem1 is zero_at's base for 0 on the root
        desired = t.n - 1 if args.desired == "top" else 0
        f, trace = zero_at(ZeroAtRequest(t, args.zero_at or 0, desired))
    doc = {
        "tree": _tree_to_dict(t),
        "n": t.n,
        "method": trace.method,
        "labels": list(f.labels),
        "graceful": True,
    }
    if args.explain:
        doc["trace"] = trace.to_dict()
    _write_text(args.out or "-", _indented_json(doc) + "\n")
    if args.dot:
        _write_text(args.dot, _to_dot(t, f.labels))
    return 0


def cmd_verify(args) -> int:
    t = _load_tree(args)
    doc = _read_json("--labels", args.labels)
    if isinstance(doc, dict) and "labels" not in doc:
        raise ValueError("labelling document has no 'labels' key")
    raw = doc["labels"] if isinstance(doc, dict) else doc
    if not isinstance(raw, list):
        raise ValueError("labelling document must be a list or carry a 'labels' list")
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
    report = is_zero_rotatable(t, cons)
    if args.no_timing:
        report = _untimed(report)
    for e in report.entries:
        line = f"orbit rep={e.representative} size={len(e.orbit)} verdict={e.verdict} [{e.method}]"
        print(line)
    print(f"tree {report.tree_id}: {report.verdict}")
    if args.csv:
        _write_text(args.csv, _rotate0_csv(report))
    if args.json:
        _write_text(args.json, _indented_json(_report_dict(report)) + "\n")
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
    _check_size(largest_tree(spec))
    rows = run_sweep(spec, jobs=args.jobs)
    if args.no_timing:
        rows = [_untimed(row) for row in rows]
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
        _write_text(args.csv, _sweep_csv(rows))
    if args.witnesses:
        outdir = Path(args.witnesses)
        outdir.mkdir(parents=True, exist_ok=True)
        for seq, row in zip(enumerate_family(spec), rows):
            doc = {
                "tree": _tree_to_dict(build(seq)),
                "n": row.n,
                "witnesses": {str(rep): list(labels) for rep, labels in row.witnesses},
            }
            name = row.tree_id.replace(",", "-")
            # A file name holds at most 255 bytes.  A longer one keeps 185
            # characters, then the SHA-256 of the whole after a "." that no
            # kept name has: 255 bytes with ".json", and unique.
            if len(name) > 250:
                import hashlib  # only a tree of over 125 levels pays for it

                name = name[:185] + "." + hashlib.sha256(name.encode()).hexdigest()
            (outdir / (name + ".json")).write_text(_indented_json(doc) + "\n")
    return _exit_code({row.verdict for row in rows})


def cmd_tree(args) -> int:
    t = _load_tree(args)
    if args.json or not args.dot:
        _write_text(args.json or "-", json.dumps(_tree_to_dict(t)) + "\n")
    if args.dot:
        _write_text(args.dot, _to_dot(t))
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
    except (OSError, ValueError) as exc:
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
