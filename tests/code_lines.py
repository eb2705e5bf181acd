"""Count the code lines of ``src/gracetree``, per module and in total.

Run from anywhere::

    python tests/code_lines.py

A code line holds at least one token that is not a comment and not part
of a docstring (the leading string of a module, class or function body).
Blank lines, comment lines and docstring lines are not counted; a line
with code and a trailing comment is.  The last line totals the modules
that ``import gracetree`` loads; the benchmark's ``setup_s`` times
importing exactly these, which with no bytecode cached is mostly
compiling them.  A last line counts the names the package imports only
for perfbench's wrap sites, those of an import marked ``# noqa: F401``.
The file name does not match ``test_*.py``, so pytest does not collect
it.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gracetree"

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        first = node.body[0] if node.body else None
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    docstrings = _docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT:
            continue
        lines.update(
            line
            for line in range(tok.start[0], tok.end[0] + 1)
            if line not in docstrings
        )
    return len(lines)


def wrap_site_names(source: str) -> int:
    """How many names ``source`` imports in a ``# noqa: F401`` import."""
    lines = source.splitlines()
    return sum(
        len(node.names)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno])
    )


def imported_modules() -> set[str]:
    """File names of the package modules that ``import gracetree`` loads."""
    sys.dont_write_bytecode = True  # leave no bytecode for a later timed import
    sys.path.insert(0, str(PACKAGE.parent))
    import gracetree  # noqa: F401

    return {Path(m.__file__).name for name, m in sys.modules.items() if name.split(".")[0] == "gracetree"}


def main() -> int:
    counts = {path.name: code_lines(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    for name, count in counts.items():
        print(f"{(PACKAGE / name).relative_to(ROOT)}: {count}")
    print(f"total: {sum(counts.values())}")
    imported = imported_modules()
    left_out = ", ".join(sorted(set(counts) - imported))
    print(f"import gracetree: {sum(counts[name] for name in imported)} (all but {left_out})")
    wrapped = sum(wrap_site_names(path.read_text()) for path in PACKAGE.glob("*.py"))
    print(f"wrap-site imports: {wrapped} names")
    return 0


if __name__ == "__main__":
    sys.exit(main())
