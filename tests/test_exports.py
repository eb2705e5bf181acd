import ast
import re
from pathlib import Path

import pytest

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


def _names_read(node: ast.AST) -> set[str]:
    """Every name, attribute and imported name under ``node``."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.asname or sub.name)
    return names


def test_no_module_imports_a_name_it_never_uses():
    # No linter runs on this tree, so this stands in for F401.  A name
    # kept only as a lookup site for perfbench carries "# noqa: F401".
    # A module-level private function or class must also be read by some
    # statement of the package other than its own definition.
    unused = []
    private = []
    read_by: dict[str, set[int]] = {}
    for path in sorted(Path(gracetree.__file__).parent.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source)
        for stmt in tree.body:
            for name in _names_read(stmt):
                read_by.setdefault(name, set()).add(id(stmt))
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and stmt.name.startswith("_"):
                private.append((f"{path.name}:{stmt.lineno} {stmt.name}", stmt))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if path.name == "__init__.py":
            used.update(gracetree.__all__)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if getattr(node, "module", None) == "__future__":
                continue
            if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    unused.append(f"{path.name}:{node.lineno} {name}")
    unused += [where for where, stmt in private if not read_by.get(stmt.name, set()) - {id(stmt)}]
    assert unused == []


def _functions():
    """``(module:function, node)`` for each top-level function and each
    method of a top-level class of the package, ``module:Class.method``
    for the latter."""
    for path in sorted(Path(gracetree.__file__).parent.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, ast.FunctionDef):
                yield f"{path.stem}:{stmt.name}", stmt
            elif isinstance(stmt, ast.ClassDef):
                for func in stmt.body:
                    if isinstance(func, ast.FunctionDef):
                        yield f"{path.stem}:{stmt.name}.{func.name}", func


def _callers(name: str) -> set[str]:
    """Each function of the package (see ``_functions``) whose body
    names ``name``."""
    return {where for where, func in _functions() if name in _names_read(func)}


def test_only_the_cli_imports_a_file_format_module():
    # cli.py writes and reads every file format: tree documents, DOT,
    # report JSON and the CSV schemas.  No other module imports csv, io
    # or json, at module level or inside a function; cli.py imports all
    # three, csv inside its writer, which shows the walk sees both.
    formats = {"csv", "io", "json"}
    imported: dict[str, set[str]] = {}
    for path in sorted(Path(gracetree.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                if name.partition(".")[0] in formats:
                    imported.setdefault(path.name, set()).add(name)
    assert imported == {"cli.py": formats}


def test_only_the_bijections_and_the_construction_ops_skip_the_labelling_check():
    # labelling._trusted builds a Labelling without proving it a
    # permutation.  The label bijections call it, whose image of a
    # Labelling is one by construction, and so does labelling._proven,
    # once it has proven its labels.  Two constructions wrap their own
    # labels to run a bijection on them (lemma1_label and _zero_at), and
    # hand out only what _proven returns.  Neither the tests nor the
    # benchmark may name it.
    root = Path(__file__).resolve().parents[1]
    outside = [
        f"{folder}/{path.name}"
        for folder in ("tests", "perfbench")
        for path in sorted(root.glob(f"{folder}/*.py"))
        if "_trusted" in _names_read(ast.parse(path.read_text()))
    ]
    assert outside == []
    assert _callers("_trusted") == {
        "labelling:complement",
        "labelling:apply_permutation",
        "labelling:_relabel",
        "labelling:_proven",
        "construct:lemma1_label",
        "construct:_zero_at",
    }


def test_only_the_public_entries_and_the_constructions_call_the_cores():
    # Each core runs on arguments its caller built or checked: the public
    # entry that checks them, or a construction that runs it as a step.
    cores = ("_zero_at", "_compose", "_theorem1_labels", "_relabel")
    assert {core: _callers(core) for core in cores} == {
        "_zero_at": {"construct:zero_at", "search:is_zero_rotatable"},
        "_compose": {"construct:compose_theorem2", "construct:_zero_at"},
        "_theorem1_labels": {
            "construct:theorem1_label",
            "construct:lemma1_label",
            "construct:_compose",
            "construct:_zero_at",
        },
        "_relabel": {"labelling:relabel_vertices", "construct:_zero_at"},
    }


def test_only_to_general_skips_the_tree_check():
    # object.__new__(GeneralTree) makes a GeneralTree without proving its
    # edges a tree.  Only to_general, whose rooted symmetric tree is one
    # by construction, may do so; trees from outside go through
    # GeneralTree(n, edges).
    sites = [
        f"{path.name}:{func.name}"
        for path in sorted(Path(gracetree.__file__).parent.glob("*.py"))
        for func in ast.parse(path.read_text()).body
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Call)
        and ast.unparse(node.func) == "object.__new__"
        and [ast.unparse(arg) for arg in node.args] == ["GeneralTree"]
    ]
    assert sites == ["model.py:to_general"]


def test_each_labelling_is_proven_where_construct_hands_it_out():
    # One rule for construct and search: each function that hands out a
    # whole-tree labelling hands out what labelling._proven returned,
    # which proves the tuple a permutation and graceful with
    # _graceful_ints, checks its pins, and wraps that very tuple.  Only
    # labelling.py reads _graceful_ints, and no other proof is left.
    package = Path(gracetree.__file__).parent
    assert {"construct:_proven", "search:_witness"} & {where for where, _ in _functions()} == set()
    readers = [
        path.name
        for path in sorted(package.glob("*.py"))
        if "_graceful_ints" in _names_read(ast.parse(path.read_text()))
    ]
    assert readers == ["labelling.py"]
    assert _callers("_graceful_ints") == {"labelling:is_graceful", "labelling:_proven"}
    assert _callers("_proven") == {
        "construct:theorem1_label",
        "construct:lemma1_label",
        "construct:compose_theorem2",
        "construct:_zero_at",
        "search:find_graceful",
        "search:is_zero_rotatable",
    }
    # construct: a function whose return annotation names Labelling
    # returns _proven(...), or zero_at its core's result.  _compose hands
    # its callers a plain tuple of labels.  No Labelling(...) copy is
    # made and is_graceful is not called.
    funcs = {
        func.name: func
        for func in ast.parse((package / "construct.py").read_text()).body
        if isinstance(func, ast.FunctionDef)
    }
    called: dict[str, set[str]] = {}
    returned: dict[str, set[str]] = {}
    for name, func in funcs.items():
        for node in ast.walk(func):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                called.setdefault(node.func.id, set()).add(name)
            elif isinstance(node, ast.Return) and node.value is not None:
                value = node.value
                value = value.elts[0] if isinstance(value, ast.Tuple) else value
                value = value.func if isinstance(value, ast.Call) else value
                returned.setdefault(name, set()).add(ast.unparse(value))
    handing_out = {
        name for name, func in funcs.items() if func.returns and "Labelling" in ast.unparse(func.returns)
    }
    proven = {"theorem1_label", "lemma1_label", "compose_theorem2", "_zero_at"}
    assert handing_out == proven | {"zero_at"}
    assert {name: returned[name] for name in handing_out} == {
        **{name: {"_proven"} for name in proven},
        "zero_at": {"_zero_at"},
    }
    assert "Labelling" not in called
    assert "is_graceful" not in called
    # search: the labels the engine returns are read only to hand them
    # to _proven, with the pins of the search that found them.
    funcs = {
        func.name: func
        for func in ast.parse((package / "search.py").read_text()).body
        if isinstance(func, ast.FunctionDef)
    }
    engine_labels = {
        name: ast.unparse(node.targets[0].elts[1])
        for name, func in funcs.items()
        for node in ast.walk(func)
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
        and ast.unparse(node.value.func) == "_run"
    }
    assert engine_labels == {"find_graceful": "labels", "is_zero_rotatable": "labels", "count_graceful": "_"}
    reads = {}
    for name in ("find_graceful", "is_zero_rotatable"):
        parent = {child: node for node in ast.walk(funcs[name]) for child in ast.iter_child_nodes(node)}
        reads[name] = {
            ast.unparse(parent[node])
            for node in ast.walk(funcs[name])
            if isinstance(node, ast.Name) and node.id == "labels" and isinstance(node.ctx, ast.Load)
        }
    assert reads == {
        "find_graceful": {"labels is None", "_proven(t, labels, cons.pins)"},
        "is_zero_rotatable": {"labels is None", "_proven(t, labels, pins)"},
    }
    # The CLI's label command prints what it is handed without proving
    # it again.
    cli = ast.parse((package / "cli.py").read_text())
    (cmd_label,) = [func for func in cli.body if isinstance(func, ast.FunctionDef) and func.name == "cmd_label"]
    assert {"is_graceful", "_graceful_ints", "_proven"} & _names_read(cmd_label) == set()


def test_only_the_public_boundary_converts_labels_and_integers():
    # _as_ints copies a sequence into a tuple of ints, and _raw does so
    # for anything but a Labelling: checks for values from outside.  The
    # package's own labels are ints already, so an internal path that
    # re-converts them pays O(n) for nothing.  The private helpers listed
    # convert for their public callers, pinned here too.
    names = ("_as_ints", "_raw", "_degree_sequence")
    assert {name: _callers(name) for name in names} == {
        "_as_ints": {
            "model:_degree_sequence",
            "labelling:Labelling.__init__",
            "labelling:_raw",
            "labelling:TranspositionProduct.__init__",
            "labelling:relabel_vertices",
            "sweep:SweepSpec.__init__",
        },
        "_raw": {
            "labelling:_sized",
            "labelling:graceful_defect",
            "labelling:shift",
            "labelling:reflect",
        },
        "_degree_sequence": {"model:level_numbers", "model:RootedSymmetricTree.__init__"},
    }


def test_the_construction_cores_raise_only_bug_reports():
    # The public entries refuse what they cannot label with a ValueError;
    # the cores trust their callers and raise nothing themselves.  What
    # they hand out goes through labelling._proven, whose one raise is a
    # RuntimeError naming a bug.
    funcs = dict(_functions())
    raised = {
        where: {
            ast.unparse(node.exc.func)
            for node in ast.walk(funcs[where])
            if isinstance(node, ast.Raise)
        }
        for where in ("construct:_zero_at", "construct:_compose", "construct:_theorem1_labels",
                      "construct:_broom_labels", "labelling:_proven")
    }
    assert raised == {
        "construct:_zero_at": set(),
        "construct:_compose": set(),
        "construct:_theorem1_labels": set(),
        "construct:_broom_labels": set(),
        "labelling:_proven": {"RuntimeError"},
    }


def test_each_value_has_one_spelling():
    # Pins are a mapping, a zero_at target is a vertex index, a labelling
    # is read through .labels, and a report's verdict through .verdict.
    from gracetree import SearchConstraints, ZeroAtRequest, build, zero_at
    from gracetree.labelling import Labelling
    from gracetree.search import RotatabilityReport

    with pytest.raises(ValueError, match=re.escape("pins ((0, 1),) are not a mapping")):
        SearchConstraints(pins=((0, 1),))
    t = build((2, 3))
    with pytest.raises(ValueError, match=re.escape("target (1, 2) is not an integer")):
        zero_at(ZeroAtRequest(t, (1, 2)))
    f, _ = zero_at(ZeroAtRequest(t, t.index_of((1, 2))))
    assert f.vertex_with_label(0) == t.index_of((1, 2))
    gone = ("n", "__len__", "__getitem__", "__iter__")
    assert [name for name in gone if hasattr(Labelling, name)] == []
    assert not hasattr(RotatabilityReport, "all_yes")


def test_the_search_labels_and_closes_a_vertex_in_one_step():
    # search._run labels a vertex and closes its edges in one closure,
    # close: the only loop over a neighbour list that or-assigns the
    # closed edges.  The pins, the edge with one labelled endpoint and
    # the edge with none (once per endpoint) all call it.
    source = (Path(gracetree.__file__).parent / "search.py").read_text()
    (run,) = [f for f in ast.parse(source).body if isinstance(f, ast.FunctionDef) and f.name == "_run"]
    parent = {child: node for node in ast.walk(run) for child in ast.iter_child_nodes(node)}

    def enclosing(node, kind):
        while node in parent:
            node = parent[node]
            if isinstance(node, kind):
                return node
        return None

    nbr_loops = [
        node for node in ast.walk(run)
        if isinstance(node, ast.For) and ast.unparse(node.iter).startswith("nbrs[")
    ]
    assert [enclosing(loop, ast.FunctionDef).name for loop in nbr_loops] == ["close"]
    (loop,) = nbr_loops
    assert "shut" in {
        ast.unparse(node.target) for node in ast.walk(loop)
        if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.BitOr)
    }
    calls = [
        node for node in ast.walk(run)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "close"
    ]
    sites = sorted(
        (enclosing(call, ast.FunctionDef).name, ast.unparse(enclosing(call, ast.For).iter))
        for call in calls
    )
    assert sites == [
        ("_run", "pins"),
        ("place", "at_d"),
        ("place", "cands"),
        ("place", "cands"),
    ]
