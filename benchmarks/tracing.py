"""Timing spans around the package's public functions, installed from
outside the package.

Each span records its operation id, parent span, name, start and end in
memory; self time is a span's duration minus the time its child spans
cover.  Wrappers replace every module attribute of the loaded ``opaque``
modules that holds one of the traced functions, so calls the package makes
internally (``opaque.barriers.min_width``, ``opaque.verify.critical_directions``,
the recursion inside ``opaque.steiner.steiner_tree``) are timed too.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import sys
import time
from collections import Counter

# module.function names of the traced layers; "geometry.diameter" is a lazy
# property, timed by the caller in its own span right after validation
SPANS = (
    "geometry.validate_polygon", "geometry.diameter", "geometry.min_width",
    "geometry.min_perimeter_rectangle",
    "incircle.largest_inscribed_circle", "incircle.tangent_triangle",
    "steiner.steiner_tree", "steiner.steiner_three_points",
    "barriers.algo_a1", "barriers.algo_a2", "barriers.algo_a3", "barriers.algo_a4",
    "barriers.u_curve", "barriers.algo_a4_candidates", "barriers.interior_single_arc",
    "barriers.hamiltonian_path_tables", "barriers.interior_connected",
    "verify.is_opaque", "verify.critical_directions", "verify.projections_cover",
)

class Recorder:
    """In-memory span store plus the per-layer counters."""

    def __init__(self):
        self.op_id = -1
        self.spans: list[tuple] = []      # (op, span, parent, name, start_ns, end_ns, error)
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.mask_mb = 0.0
        self._stack: list[list] = []      # [span_id, name, start_ns, child_ns]

    def open(self, name: str) -> None:
        self._stack.append([len(self.spans) + len(self._stack), name, time.perf_counter_ns(), 0])

    def close(self, error: str | None = None) -> None:
        end = time.perf_counter_ns()
        span_id, name, start, child_ns = self._stack.pop()
        dur = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        self.spans.append((self.op_id, span_id, parent[0] if parent else None, name,
                           start, end, error))
        self.calls[name] += 1
        self.self_ns[name] += dur - child_ns

    @contextlib.contextmanager
    def span(self, name: str):
        self.open(name)
        try:
            yield
        except Exception as exc:
            self.close(type(exc).__name__)
            raise
        self.close()

    def inside(self, name: str) -> bool:
        return any(frame[1] == name for frame in self._stack)

    def dump(self, path: str) -> None:
        """Write the spans, ordered by end time, as gzipped JSON lines: a
        header line naming the fields, then one array per span."""
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps(["op", "span", "parent", "name", "start_ns", "end_ns", "error"]) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def _observers(rec: Recorder):
    """Per-layer counters taken at the span boundaries: fn(args, result)."""

    def is_opaque(args, report):
        poly, barrier = args[0], args[1]
        rec.counts["verify.directions_tested"] += report.directions_tested
        points = len(poly) + len(barrier.all_points())
        rec.mask_mb = max(rec.mask_mb, 8.0 * report.directions_tested * points / 1e6)

    def algo_a2(args, sol):
        rec.counts["a2_calls"] += 1
        rec.counts["a2_star_wins"] += sol.barrier.kind == "connected"

    def steiner_tree(args, result):
        if not rec.inside("steiner.steiner_tree"):
            rec.counts["tree_calls"] += 1
            rec.counts["tree_heuristic"] += not result[3]

    return {"verify.is_opaque": is_opaque, "barriers.algo_a2": algo_a2,
            "steiner.steiner_tree": steiner_tree}


def _wrap(rec: Recorder, name: str, fn, observe, opaque):
    polygon_error = opaque.geometry.PolygonError
    incircle_error = opaque.geometry.InconsistentIncircle

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        rec.open(name)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            rec.close(type(exc).__name__)
            if name == "geometry.validate_polygon" and isinstance(exc, polygon_error):
                rec.counts["geometry.validate_rejects"] += 1
            if name.startswith("incircle.") and isinstance(exc, incircle_error):
                rec.counts["incircle.failures"] += 1
            raise
        rec.close()
        if observe is not None:
            observe(args, result)
        return result

    return traced


@contextlib.contextmanager
def installed(rec: Recorder, opaque):
    """Wrap every traced function at every ``opaque.*`` module attribute
    that refers to it; restore the originals on exit."""
    modules = [m for key, m in list(sys.modules.items())
               if m is not None and (key == "opaque" or key.startswith("opaque."))]
    observers = _observers(rec)
    saved = []
    for name in SPANS:
        if name == "geometry.diameter":
            continue
        mod, attr = name.split(".")
        orig = getattr(getattr(opaque, mod), attr)
        traced = _wrap(rec, name, orig, observers.get(name), opaque)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is orig:
                    saved.append((module, key, orig))
                    setattr(module, key, traced)
    try:
        yield
    finally:
        for module, key, orig in saved:
            setattr(module, key, orig)


def layer_metrics(rec: Recorder, passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer numbers per pass of the workload's schedule."""
    out: dict[str, tuple[float, str]] = {}
    for name in SPANS:
        out[f"{name}.calls"] = (rec.calls[name] / passes, "count")
        out[f"{name}.self_ms"] = (rec.self_ns[name] / 1e6 / passes, "ms")
    c = rec.counts
    out["verify.directions_tested"] = (c["verify.directions_tested"] / passes, "count")
    out["verify.mask_mb_computed"] = (rec.mask_mb, "MB")
    out["incircle.star_win_ratio"] = (c["a2_star_wins"] / c["a2_calls"] if c["a2_calls"] else 0.0,
                                      "ratio")
    out["steiner.heuristic_share"] = (c["tree_heuristic"] / c["tree_calls"] if c["tree_calls"] else 0.0,
                                      "ratio")
    out["geometry.validate_rejects"] = (c["geometry.validate_rejects"] / passes, "count")
    out["incircle.failures"] = (c["incircle.failures"] / passes, "count")
    return out
