"""The traced benchmark run wraps package functions at fixed lookup sites.

perfbench/spans.py names each site as (module, attribute).  A refactor
that drops one of those names from its module would only surface when
someone runs the benchmark with tracing, so check them here.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_benchmark_wrap_sites_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.WRAP_SITES
    for module_name, attr, _ in spans.WRAP_SITES:
        module = importlib.import_module(f"gracetree.{module_name}")
        assert callable(getattr(module, attr, None)), f"gracetree.{module_name}.{attr}"
