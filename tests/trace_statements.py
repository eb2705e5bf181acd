"""List the statements of ``src/gracetree`` that the test suite never runs.

Run from anywhere::

    python tests/trace_statements.py [extra pytest arguments]

The suite runs in this process under a ``sys.settrace`` statement
tracer limited to ``src/gracetree``.  Afterwards each statement inside
a function that never ran is printed as ``path:line: text``; docstrings,
``nonlocal`` and ``global`` are skipped, and so are statements that
compile to no code.  Module and class bodies run at import and are not
listed.  Child processes are not traced: what only the CLI tests'
subprocesses or ``run_sweep``'s worker pool run is listed as never run.

Tracing slows the search severalfold, so the hypothesis deadline is
turned off for this run only.  The file name does not match
``test_*.py``, so pytest does not collect it.  The exit code is
pytest's.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gracetree"
_PREFIX = str(PACKAGE) + os.sep

hits: set[tuple[str, int]] = set()


# Module-level functions, not closures: a tracer that made one object per
# frame would hold frames in reference cycles that the suite checks for.
def _local(frame, event, arg):
    if event == "line":
        hits.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _global(frame, event, arg):
    return _local if frame.f_code.co_filename.startswith(_PREFIX) else None


def _code_lines(code) -> set[int]:
    """Lines that ``code`` and the code objects nested in it run."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _is_docstring(node: ast.stmt, body: list) -> bool:
    return (
        node is body[0]
        and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def _statements(tree: ast.Module):
    """(statement, its own lines) for each statement inside a function.
    A compound statement owns its header, up to its first inner line."""
    out = []

    def visit(node: ast.AST, in_function: bool) -> None:
        for field in ("body", "orelse", "finalbody", "handlers", "cases"):
            block = getattr(node, field, None)
            if not isinstance(block, list):
                continue
            for child in block:
                if not isinstance(child, ast.stmt):
                    visit(child, in_function)
                    continue
                if in_function and not (
                    isinstance(child, (ast.Nonlocal, ast.Global)) or _is_docstring(child, block)
                ):
                    inner = [c.lineno for f in ("body", "handlers") for c in getattr(child, f, ())]
                    end = min(inner) if inner else child.end_lineno + 1
                    out.append((child, range(child.lineno, end)))
                is_function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                visit(child, in_function or is_function)

    visit(tree, False)
    return out


def never_run() -> list[str]:
    report = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        runnable = _code_lines(compile(source, str(path), "exec"))
        ran = {line for name, line in hits if name == str(path)}
        lines = source.splitlines()
        for node, own in _statements(ast.parse(source)):
            if runnable.intersection(own) and not ran.intersection(own):
                text = lines[node.lineno - 1].strip()
                report.append(f"{path.relative_to(ROOT)}:{node.lineno}: {text}")
    return report


class _NoDeadline:
    """Plugin: no hypothesis deadline.  Loaded at configure time, so
    pytest can still rewrite hypothesis's asserts."""

    def pytest_configure(self, config):
        from hypothesis import settings

        settings.register_profile("statement-trace", deadline=None)
        settings.load_profile("statement-trace")


def main(argv: list[str]) -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    args = ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", *argv]
    threading.settrace(_global)
    sys.settrace(_global)
    try:
        status = pytest.main(args, plugins=[_NoDeadline()])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    report = never_run()
    print(f"\n{len(report)} statements in src/gracetree never ran in this process:")
    for line in report:
        print(line)
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
