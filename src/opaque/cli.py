"""Command-line interface: compute barriers, verify opaqueness, run the
benchmark table, and dump fixtures.  JSON interchange plus SVG rendering.

Exit codes: 0 success (verify: opaque), 1 verify found a blocking gap,
2 malformed input, 3 unknown method / family / fixture name.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys

import numpy as np

from .barriers import (
    Barrier,
    BarrierSolution,
    algo_a1,
    algo_a2,
    algo_a3,
    algo_a4,
    half_perimeter_lower_bound,
    interior_connected,
    interior_single_arc,
)
from .fixtures import BadFixtureParameter, UnknownFixture, make_fixture, random_convex_polygon
from .geometry import (ConvexPolygon, PolygonError, WrongOrientation, read_points, unit_normal,
                       validate_polygon)
from .verify import is_opaque

METHODS = {
    "a1": algo_a1,
    "a2": algo_a2,
    "a3": algo_a3,
    "a4": algo_a4,
    "interior-arc": interior_single_arc,
    "interior-tree": interior_connected,
}

# each bench family and its smallest size: vertices of an n-gon or hull,
# the long side of a thin rectangle, the arcs of a Reuleaux polygon
FAMILIES = {"ngon": 3, "random-hull": 3, "thin": 1, "reuleaux": 1}
BENCH_METHODS = ("a1", "a2", "a3", "a4")


# ---------------------------------------------------------------------------
# JSON documents (floats written with 17 significant digits so that a
# write/read/write cycle is byte-identical and lossless)

def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _json_value(obj) -> str:
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (float, np.floating)):
        return _fmt(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {_json_value(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_json_value(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def polygon_document(poly: ConvexPolygon) -> dict:
    return {"vertices": poly.coords.tolist()}


def _polyline_lists(barrier: Barrier) -> list[list[list[float]]]:
    """The barrier's polylines as lists of [x, y] lists, sliced from one
    ``tolist`` of its point array."""
    pts = barrier.all_points().tolist()
    ends = itertools.accumulate(barrier.sizes)
    return [pts[e - k:e] for k, e in zip(barrier.sizes, ends)]


def barrier_document(sol: BarrierSolution) -> dict:
    return {"polylines": _polyline_lists(sol.barrier), "kind": sol.barrier.kind,
            "length": sol.length, "method": sol.method, "lower_bound": sol.lower_bound,
            "ratio": sol.ratio}


def read_polygon(path: str, auto_orient: bool = False) -> ConvexPolygon:
    with open(path) as fh:
        doc = json.load(fh)
    pts = read_points(doc["vertices"], "vertices", PolygonError)
    try:
        return validate_polygon(pts)
    except WrongOrientation:
        if auto_orient:
            return validate_polygon(pts[::-1])
        raise


def read_barrier(path: str) -> Barrier:
    with open(path) as fh:
        doc = json.load(fh)
    return Barrier(doc["polylines"], str(doc.get("kind", "arbitrary")))


# ---------------------------------------------------------------------------
# SVG rendering (presentational only)

def write_svg(path: str, poly: ConvexPolygon, barrier: Barrier | None,
              labels: list[str], witness_line=None) -> None:
    """SVG 1.1 drawing: polygon filled light, barrier stroked bold.

    The viewport is the polygon bounding box inflated by 15 percent; the
    barrier stroke width is 0.8 percent of the polygon diameter.  The y
    axis is flipped so the drawing matches mathematical orientation.
    Coordinates are written from the viewport's top left corner, so a
    polygon far from the origin keeps its shape at six digits.
    """
    (x0, y0), (x1, y1) = poly.coords.min(axis=0).tolist(), poly.coords.max(axis=0).tolist()
    pad = max(0.15 * (x1 - x0), 0.15 * (y1 - y0), 0.15 * poly.diameter * 0.1)
    x0, x1, y0, y1 = x0 - pad, x1 + pad, y0 - pad, y1 + pad
    stroke = 0.008 * poly.diameter

    def pt(p):
        # flip y so counterclockwise stays counterclockwise on screen
        return f"{p[0] - x0:.6g},{y1 - p[1]:.6g}"

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="0 0 {x1 - x0:.6g} {y1 - y0:.6g}" '
        f'width="640" height="{max(1, int(640 * (y1 - y0) / (x1 - x0)))}">',
        f'<polygon points="{" ".join(pt(v) for v in poly.coords.tolist())}" '
        f'fill="#dbe9f6" stroke="#5b8db8" stroke-width="{stroke / 2:.6g}"/>',
    ]
    if barrier is not None:
        for pl in _polyline_lists(barrier):
            lines.append(
                f'<polyline points="{" ".join(pt(p) for p in pl)}" '
                f'fill="none" stroke="#c0392b" stroke-width="{stroke:.6g}" '
                'stroke-linecap="round" stroke-linejoin="round"/>')
    if witness_line is not None:
        (ax, ay), (bx, by) = witness_line
        lines.append(
            f'<line x1="{ax - x0:.6g}" y1="{y1 - ay:.6g}" '
            f'x2="{bx - x0:.6g}" y2="{y1 - by:.6g}" '
            f'stroke="#27ae60" stroke-width="{stroke:.6g}" '
            f'stroke-dasharray="{3 * stroke:.6g},{2 * stroke:.6g}"/>')
    font = max(0.05 * (y1 - y0), 1e-9)
    for k, text in enumerate(labels):
        lines.append(
            f'<text x="{0.3 * font:.6g}" y="{(k + 1.2) * 1.1 * font:.6g}" '
            f'font-family="sans-serif" font-size="{font:.6g}" '
            f'fill="#333">{text}</text>')
    lines.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _witness_segment(poly: ConvexPolygon, theta: float, offset: float):
    """Endpoints of the witness line clipped to the viewport scale."""
    u, nrm = np.array([math.cos(theta), math.sin(theta)]), unit_normal(theta)
    mid = poly.coords.mean(axis=0)
    base = mid + (offset - float(mid @ nrm)) * nrm
    half = 0.75 * poly.diameter
    return tuple((base - half * u).tolist()), tuple((base + half * u).tolist())


# ---------------------------------------------------------------------------
# commands

def cmd_compute(args) -> int:
    fn = METHODS.get(args.method)
    if fn is None:
        print(f"unknown method: {args.method!r} "
              f"(choose from {', '.join(sorted(METHODS))})", file=sys.stderr)
        return 3
    try:
        poly = read_polygon(args.input, auto_orient=args.auto_orient)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        print(f"invalid polygon: {exc}", file=sys.stderr)
        return 2
    sol = fn(poly)
    print(_json_value(barrier_document(sol)))
    if args.svg:
        write_svg(args.svg, poly, sol.barrier,
                  [f"{sol.method}: length {sol.length:.6f}",
                   f"half perimeter {sol.lower_bound:.6f}",
                   f"ratio {sol.ratio:.6f}"])
    return 0


def cmd_verify(args) -> int:
    try:
        poly = read_polygon(args.polygon, auto_orient=args.auto_orient)
        barrier = read_barrier(args.barrier)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        print(f"malformed input: {exc}", file=sys.stderr)
        return 2
    report = is_opaque(poly, barrier)
    if report.opaque:
        if report.certificate == "hull":
            print(f"opaque: yes (hull certificate; min slack {report.min_slack:.6g})")
        else:
            print(f"opaque: yes ({report.directions_tested} directions tested)")
        if args.svg:
            write_svg(args.svg, poly, barrier, ["opaque: yes"])
        return 0
    w = report.witness
    how = (f"hull gap {-report.min_slack:.6g}" if report.certificate == "hull"
           else f"{report.directions_tested} directions tested")
    print(f"opaque: no ({how}; witness direction theta={w.theta:.12g}, "
          f"offset {w.representative_offset:.12g}, uncovered "
          f"[{w.uncovered.lo:.12g}, {w.uncovered.hi:.12g}])")
    if args.svg:
        seg = _witness_segment(poly, w.theta, w.representative_offset)
        write_svg(args.svg, poly, barrier,
                  [f"not opaque: unblocked line at theta={w.theta:.4f}"],
                  witness_line=seg)
    return 1


def _bench_instances(family: str, sizes: range, seed: int):
    rng = np.random.default_rng(seed)
    for size in sizes:
        if family == "ngon":
            yield f"ngon-{size}", make_fixture("regular-ngon", n=size).polygon
        elif family == "random-hull":
            yield f"random-hull-{size}", random_convex_polygon(size, rng)
        elif family == "thin":
            yield f"thin-{size}x1", make_fixture("rectangle", a=float(size), b=1.0).polygon
        elif family == "reuleaux":
            yield f"reuleaux-{size}", make_fixture("reuleaux-poly", m=size).polygon


def cmd_bench(args) -> int:
    if args.family not in FAMILIES:
        print(f"unknown family: {args.family!r} "
              f"(choose from {', '.join(FAMILIES)})", file=sys.stderr)
        return 3
    try:
        lo, hi = args.sizes.split("..")
        sizes = range(int(lo), int(hi) + 1)
    except ValueError:
        print(f"bad sizes range {args.sizes!r}; expected a..b", file=sys.stderr)
        return 2
    smallest = FAMILIES[args.family]
    if not sizes or sizes[0] < smallest:
        why = f"the {args.family} family starts at size {smallest}" if sizes else "it is empty"
        print(f"bad sizes range {args.sizes!r}: {why}", file=sys.stderr)
        return 2
    print("instance\tmethod\tlength\thalf_perimeter\tratio")
    try:
        for name, poly in _bench_instances(args.family, sizes, args.seed):
            for method in BENCH_METHODS:
                sol = METHODS[method](poly)
                print(f"{name}\t{method}\t{_fmt(sol.length)}\t"
                      f"{_fmt(sol.lower_bound)}\t{_fmt(sol.ratio)}")
    except BadFixtureParameter as exc:
        print(f"bad parameter: {exc}", file=sys.stderr)
        return 2
    return 0


def cmd_fixture(args) -> int:
    params = {}
    for item in args.param:
        key, _, value = item.partition("=")
        count = key in ("n", "m")    # vertex counts are written as integers
        try:
            params[key] = int(value) if count else float(value)
        except ValueError:
            want = f"{key} must be a positive integer" if count else "expected KEY=VALUE with a number"
            print(f"bad parameter {item!r}: {want}", file=sys.stderr)
            return 2
    try:
        fix = make_fixture(args.name, **params)
    except UnknownFixture:
        print(f"unknown fixture: {args.name!r}", file=sys.stderr)
        return 3
    except BadFixtureParameter as exc:
        print(f"bad parameter: {exc}", file=sys.stderr)
        return 2
    if args.emit == "polygon":
        print(_json_value(polygon_document(fix.polygon)))
    else:
        docs = [{"label": label, "polylines": _polyline_lists(barrier), "kind": barrier.kind,
                 "length": length} for barrier, length, label in fix.known_barriers]
        print(_json_value({
            "name": fix.name,
            "half_perimeter": half_perimeter_lower_bound(fix.polygon),
            "barriers": docs,
            "constants": fix.known_constants,
        }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="opaque",
        description="Short line-blocking barriers for convex polygons.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="compute a barrier for a polygon")
    p.add_argument("--method", required=True)
    p.add_argument("--input", required=True, help="polygon JSON file")
    p.add_argument("--svg", help="write an SVG rendering here")
    p.add_argument("--auto-orient", action="store_true",
                   help="reverse clockwise input instead of rejecting it")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("verify", help="check whether a barrier is opaque")
    p.add_argument("--polygon", required=True)
    p.add_argument("--barrier", required=True)
    p.add_argument("--svg", help="write an SVG rendering here")
    p.add_argument("--auto-orient", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="ratio table over an instance family")
    p.add_argument("--family", required=True)
    p.add_argument("--sizes", required=True, help="inclusive range a..b")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("fixture", help="dump a named fixture")
    p.add_argument("--name", required=True)
    p.add_argument("--emit", choices=("polygon", "barriers"), default="polygon")
    p.add_argument("--param", action="append", default=[],
                   metavar="KEY=VALUE", help="fixture parameter, repeatable")
    p.set_defaults(func=cmd_fixture)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PolygonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
