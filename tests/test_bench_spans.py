"""Every function the benchmark's tracer wraps exists in the package, and
the package calls it, so renaming or deleting a traced function, or
routing the pipeline around it, fails here and not only in a traced
benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import opaque
from opaque import ConvexPolygon

from conftest import regular_ngon

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
METHODS = ("algo_a1", "algo_a2", "algo_a3", "algo_a4", "interior_single_arc",
           "interior_connected")


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_spans_resolve():
    tracing = load_tracing()
    assert tracing.SPANS
    for name in tracing.SPANS:
        if name == "geometry.diameter":
            # a lazy polygon property, timed by its caller, not wrapped
            assert isinstance(ConvexPolygon.diameter, property)
            continue
        module, attr = name.split(".")
        fn = getattr(importlib.import_module(f"opaque.{module}"), attr, None)
        assert callable(fn), name


def test_traced_spans_fire():
    # the six methods on a pentagon (its tangent triangle exists, so a2
    # builds a three-terminal tree), a barrier the hulls certify, and the
    # square's three sides with the bottom cut by a gap of twice tol.cover,
    # which only the direction scan decides
    tracing = load_tracing()
    rec = tracing.Recorder()
    with tracing.installed(rec, opaque):
        poly = opaque.validate_polygon(regular_ngon(5).coords)
        for method in METHODS:
            getattr(opaque, method)(poly)
        assert opaque.is_opaque(poly, opaque.algo_a1(poly).barrier).certificate == "hull"
        square = opaque.validate_polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        gap = 2.0 * square.tol.cover
        split = opaque.Barrier((((0, 1), (0, 0), (0.5, 0)), ((0.5 + gap, 0), (1, 0), (1, 1))),
                               "arbitrary")
        assert opaque.is_opaque(square, split).certificate == "directions"
    silent = [name for name in tracing.SPANS
              if name != "geometry.diameter" and rec.calls[name] == 0]
    assert not silent
