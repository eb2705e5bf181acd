"""The traced benchmark run wraps package functions at fixed lookup sites.

perfbench/spans.py names each site as (module, attribute).  A refactor
that drops one of those names from its module would only surface when
someone runs the benchmark with tracing, so check them here.
"""

import ast
import importlib
import importlib.util
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


# Calls per construction layer for the requests in the test below.
EXPECTED_CALLS = {
    "construct.zero_at": 2,
    "construct.theorem1_label": 4,
    "construct.compose_theorem2": 2,
    "model.decompose": 2,
    "labelling.complement": 4,
    "labelling.relabel_vertices": 3,
    "model.automorphism_mapping": 3,
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
