import ast
import re
from pathlib import Path

import gracetree


def test_star_import_binds_all():
    namespace: dict = {}
    exec("from gracetree import *", namespace)
    missing = [name for name in gracetree.__all__ if name not in namespace]
    assert missing == []


def test_all_lists_exactly_the_imported_names():
    # __init__ imports each public name and lists it again in __all__;
    # both lists are kept by hand, so they must agree.
    tree = ast.parse(Path(gracetree.__file__).read_text())
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if node.module != "__future__"
    ]
    assert len(gracetree.__all__) == len(set(gracetree.__all__))
    assert sorted(gracetree.__all__) == sorted(imported)


def test_readme_library_example_runs_on_the_exported_names():
    # The README's Library section documents the top-level API: its
    # example must run, and every exported name must appear there.
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("## Library example", 1)[1]
    example = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(example, "README.md", "exec"), {})
    mentioned = set(re.findall(r"\w+", section))
    assert [name for name in gracetree.__all__ if name not in mentioned] == []
