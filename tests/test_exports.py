import ast
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
