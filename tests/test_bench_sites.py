"""The traced benchmark run wraps package functions at fixed lookup sites.

perfbench/spans.py names each site as (module, attribute).  A refactor
that drops one of those names from its module would only surface when
someone runs the benchmark with tracing, so check them here.

The paired timer ``tests/pair_time.py`` drives the benchmark's workloads
too, so a smoke run of it is here as well.
"""

import ast
import importlib
import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_benchmark_wrap_sites_resolve():
    spans = _load_spans()
    assert spans.WRAP_SITES
    for module_name, attr, _ in spans.WRAP_SITES:
        module = importlib.import_module(f"gracetree.{module_name}")
        assert callable(getattr(module, attr, None)), f"gracetree.{module_name}.{attr}"


def test_every_lookup_site_import_is_a_wrap_site():
    # A name imported only for perfbench to wrap carries "# noqa: F401".
    # Once spans.py stops wrapping it there, the import is dead code.
    sites = {(module, attr) for module, attr, _ in _load_spans().WRAP_SITES}
    kept = []
    for path in sorted((SPANS.parents[1] / "src" / "gracetree").glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and any(
                "# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]
            ):
                kept += [(path.stem, alias.asname or alias.name) for alias in node.names]
    assert kept and [site for site in kept if site not in sites] == []


# Calls per construction layer for the requests in the test below.  The
# sweep runs zero_at's core, and the constructions call their cores, not
# the public zero_at, theorem1_label, compose_theorem2, relabel_vertices
# and automorphism_mapping that spans.py wraps; those read 0.
EXPECTED_CALLS = {
    "construct.zero_at": 0,
    "construct.theorem1_label": 0,
    "construct.compose_theorem2": 0,
    "model.decompose": 2,
    "labelling.complement": 4,
    "labelling.relabel_vertices": 0,
    "model.automorphism_mapping": 0,
}


def test_traced_run_sees_every_construction_layer():
    # A construction step that stops calling a wrapped name through its
    # module would drop out of the traced benchmark's per-layer times.
    import gracetree
    from gracetree.construct import ZeroAtRequest, zero_at
    from gracetree.model import build
    from gracetree.sweep import evaluate_sequence

    tracer = _load_spans().Tracer()
    undo = tracer.install(gracetree)
    try:
        zero_at(ZeroAtRequest(build((2, 1, 2)), 5))
        zero_at(ZeroAtRequest(build((2, 2)), 2))
        evaluate_sequence((2, 1, 2), "q", 1000, None)
    finally:
        tracer.uninstall(undo)
    assert {name: tracer.calls[name] for name in EXPECTED_CALLS} == EXPECTED_CALLS


def _pair_time(old: Path, new: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SPANS.parents[1] / "tests" / "pair_time.py"), str(old), str(new),
         "--workload", "sweep_search", "--rounds", "2"],
        capture_output=True, text=True, timeout=300,
    )


def test_pair_time_runs_one_workload_on_two_trees(tmp_path):
    # tests/pair_time.py, with src on both sides: both packages load
    # under their own names, their checked tallies agree, and the
    # summary names every round.
    src = SPANS.parents[1] / "src"
    done = _pair_time(src, src)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[:3] == [
        "old: 207 items, 0 wrong outputs",
        "new: 207 items, 0 wrong outputs",
        "same tallies on both sides: yes",
    ]
    assert [line.split(":")[0] for line in lines[3:6]] == ["old", "new", "new/old"]
    assert lines[6].endswith(" of 2 rounds")
    # Halving the short stages' budget moves sweep_search's node tally,
    # so the two sides disagree and the run exits 1.
    other = tmp_path / "src" / "gracetree"
    shutil.copytree(src / "gracetree", other, ignore=shutil.ignore_patterns("__pycache__"))
    search = other / "search.py"
    text = search.read_text()
    assert "\n_STAGE_NODES = 100\n" in text
    search.write_text(text.replace("\n_STAGE_NODES = 100\n", "\n_STAGE_NODES = 50\n"))
    done = _pair_time(src, other.parent)
    assert done.returncode == 1, done.stderr
    assert done.stdout.splitlines()[2] == "same tallies on both sides: no"
