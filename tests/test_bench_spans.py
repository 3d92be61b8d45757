"""Every function the benchmark's tracer wraps exists in the package, so
renaming or deleting a traced function fails here and not only in a traced
benchmark run."""

import importlib
import importlib.util
from pathlib import Path

from opaque import ConvexPolygon

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def test_traced_spans_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.SPANS
    for name in tracing.SPANS:
        if name == "geometry.diameter":
            # a lazy polygon property, timed by its caller, not wrapped
            assert isinstance(ConvexPolygon.diameter, property)
            continue
        module, attr = name.split(".")
        fn = getattr(importlib.import_module(f"opaque.{module}"), attr, None)
        assert callable(fn), name
