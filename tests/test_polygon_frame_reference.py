"""Polygon set-up against its per-vertex formulation.

The reference below reads each vertex through ``float()``, closes the
cycle with ``np.roll``, unwraps the normal angles with ``np.unwrap``,
takes the diameter over a window of five vertices around each edge's far
vertex with a 4-D broadcast, and settles the minimum width's ties with a
Python ``min`` over (angle, index) pairs.  ``ConvexPolygon`` does the same
float operations with one closed copy of the vertices and a three-vertex
window, so every array and number it produces must be bit-identical, and
every invalid input must raise the same exception with the same message.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opaque import make_fixture, min_width, random_convex_polygon, validate_polygon
from opaque.geometry import (
    TOL_AREA_REL,
    TOL_GEOM_REL,
    TOL_LEN_REL,
    DuplicateVertex,
    NotStrictlyConvex,
    Point2,
    PolygonError,
    Strip,
    TooFewVertices,
    WrongOrientation,
    cross2,
    normal_angles,
    support_window,
    unit_normal,
)

TWO_PI = 2.0 * math.pi


def ref_check_polygon(arr):
    n = len(arr)
    if n < 3:
        raise TooFewVertices(f"need at least 3 vertices, got {n}")
    if not np.all(np.isfinite(arr)):
        raise PolygonError("non-finite vertex coordinate")
    span = float(np.hypot(*(arr.max(axis=0) - arr.min(axis=0))))
    if span <= 0.0:
        raise DuplicateVertex("all vertices coincide")
    tol_dup = TOL_GEOM_REL * span
    d = np.roll(arr, -1, axis=0) - arr
    close = np.hypot(d[:, 0], d[:, 1]) <= tol_dup
    if np.any(close):
        i = int(np.nonzero(close)[0][0])
        raise DuplicateVertex(f"vertices {i} and {(i + 1) % n} coincide")
    order = np.lexsort((arr[:, 1], arr[:, 0]))
    s = arr[order]
    same = np.hypot(*(s[1:] - s[:-1]).T) <= tol_dup
    if np.any(same):
        k = int(np.nonzero(same)[0][0])
        i, j = sorted((int(order[k]), int(order[k + 1])))
        raise DuplicateVertex(f"vertices {i} and {j} coincide")
    cross = cross2(d, np.roll(d, -1, axis=0))
    tol_area = TOL_AREA_REL * span ** 2
    rel = arr - arr[0]
    if float(cross2(rel, np.roll(rel, -1, axis=0)).sum()) < -tol_area:
        raise WrongOrientation("vertices are clockwise (pass counterclockwise, "
                               "or use --auto-orient in the CLI)")
    if np.any(cross <= tol_area):
        i = int(np.argmin(cross))
        raise NotStrictlyConvex(
            f"collinear or reflex turn at vertex {(i + 1) % n}")
    return d


class RefPolygon:
    """The edge frame built vertex by vertex."""

    def __init__(self, vertices):
        pairs = [(float(p[0]), float(p[1])) for p in vertices]
        self.coords = np.array(pairs, dtype=float)
        edges = ref_check_polygon(self.coords)
        self.vertices = tuple(map(Point2._make, pairs))
        lengths = np.hypot(edges[:, 0], edges[:, 1])
        self.edge_lengths = lengths
        self.perimeter = float(lengths.sum())
        self.cumulative_lengths = np.concatenate(([0.0], np.cumsum(lengths)[:-1]))
        self.normal_angles = np.unwrap(np.arctan2(-edges[:, 0], edges[:, 1]))
        m = np.column_stack([-edges[:, 1], edges[:, 0]]) / lengths[:, None]
        self.inward = m, np.einsum("ij,ij->i", m, self.coords)
        # every vertex of the support window around each edge's far vertex
        # against both ends of the edge
        far = self.coords[support_window(self, m[:, 0], m[:, 1])[0].T]
        ends = self.coords[(np.arange(len(m))[:, None] + [0, 1]) % len(m)]
        d = far[:, :, None, :] - ends[:, None, :, :]
        self.diameter = float(np.hypot(d[..., 0], d[..., 1]).max())

    def __len__(self):
        return len(self.vertices)


def ref_canon_line_angle(theta):
    t = math.fmod(theta, math.pi)
    if t < 0.0:
        t += math.pi
    if t >= math.pi - 1e-15:
        t = 0.0
    return t


def ref_min_width(poly):
    m, o = poly.inward
    widths = support_window(poly, m[:, 0], m[:, 1])[2].max(axis=0) - o
    wmin = float(widths.min())
    tol = TOL_LEN_REL * poly.diameter
    candidates = np.nonzero(widths <= wmin + tol)[0]
    alpha_star, k = min((ref_canon_line_angle(math.atan2(m[i, 1], m[i, 0])), int(i))
                        for i in candidates)
    line_dir = ref_canon_line_angle(alpha_star + math.pi / 2.0)
    offs = poly.coords @ unit_normal(line_dir)
    return alpha_star, float(widths[k]), Strip(line_dir, float(offs.min()), float(offs.max()))


def bits(arr):
    arr = np.asarray(arr)
    return arr.dtype, arr.shape, arr.tobytes()


def assert_same_frame(points):
    want = RefPolygon(points)
    got = validate_polygon(points)
    # the fields built on first use, read before any other
    m, o = got.edge_normals_offsets()
    cum = got.cumulative_lengths
    for g, w in ((got.coords, want.coords), (got.edge_lengths, want.edge_lengths),
                 (cum, want.cumulative_lengths),
                 (got.normal_angles, want.normal_angles), (m, want.inward[0]),
                 (o, want.inward[1])):
        assert bits(g) == bits(w)
    assert got.perimeter == want.perimeter
    assert got.diameter == want.diameter
    assert got.vertices == want.vertices
    assert all(type(a) is float for v in got.vertices for a in v)
    assert min_width(got) == ref_min_width(want)


def as_lists(polys):
    return [poly.coords.tolist() for poly in polys]


def test_fixture_polygons(small_polys, ratio_polys):
    for pts in as_lists(small_polys + ratio_polys):
        assert_same_frame(pts)


def regular(n, phase=0.0, r=1.0):
    return [(r * math.cos(2 * math.pi * k / n + phase), r * math.sin(2 * math.pi * k / n + phase))
            for k in range(n)]


def test_regular_polygons():
    # every edge ties for the minimum width and every vertex for the
    # diameter, so these decide each tie-break
    for n in range(3, 65):
        for phase in (0.0, 0.3):
            assert_same_frame(regular(n, phase))


def test_reuleaux_polygons():
    # constant width: every corner is at the diameter from its whole arc
    for m in range(3, 41):
        assert_same_frame(make_fixture("reuleaux-poly", m=m).polygon.coords.tolist())


def jittered_hull(n, rng):
    """n vertices on an ellipse at jittered, evenly spaced angles."""
    t = (np.arange(n) + rng.uniform(0.25, 0.75, n)) * (TWO_PI / n)
    return np.column_stack([np.cos(t), rng.uniform(0.3, 1.0) * np.sin(t)])


@pytest.mark.parametrize("n", [100, 1000, 4096, 16384])
def test_large_hulls(n):
    rng = np.random.default_rng(n)
    assert_same_frame(jittered_hull(n, rng))
    assert_same_frame(regular(n, 0.1))


def test_scaled_and_translated():
    rng = np.random.default_rng(15)
    base = [random_convex_polygon(int(rng.integers(3, 40)), rng) for _ in range(20)]
    base += [validate_polygon(regular(n)) for n in (3, 4, 6, 64)]
    for poly in base:
        for log_scale in (-6, -3, 0, 3, 6):
            s = 10.0 ** log_scale
            for shift in (0.0, 1e3, 1e9):
                psi = rng.uniform(0.0, TWO_PI)
                pts = poly.coords * s + shift * s * poly.diameter * np.array([math.cos(psi),
                                                                              math.sin(psi)])
                assert_same_frame(pts)
                assert_same_frame(pts.tolist())


def test_input_forms():
    # tuples, lists, ints, Point2 and arrays read the same coordinates
    pts = [(0, 0), (3, 0), (3, 2), (0, 2)]
    for form in (pts, [list(p) for p in pts], [Point2(*p) for p in pts], np.array(pts),
                 np.array(pts, dtype=np.float32), tuple(pts)):
        assert_same_frame(form)


INVALID = {
    "empty": [],
    "one": [(0, 0)],
    "two": [(0, 0), (1, 1)],
    "nan": [(0, 0), (1, 0), (math.nan, 1)],
    "inf": [(0, 0), (math.inf, 0), (1, 1)],
    "minus-inf": [(0, 0), (1, 0), (-math.inf, 1)],
    # inf - inf: the x span is NaN
    "inf-column": [(math.inf, 0), (math.inf, 1), (math.inf, 2)],
    "nan-y": [(0, 0), (1, 0), (1, math.nan), (0, 1)],
    "coincide": [(1, 1)] * 4,
    "consecutive-duplicate": [(0, 0), (0, 0), (1, 0), (1, 1)],
    "closing-duplicate": [(0, 0), (1, 0), (1, 1), (0, 1e-12)],
    "nonconsecutive-duplicate": [(0, 0), (1, 0), (1, 1), (0, 0.5), (1, 0)],
    "clockwise": [(0, 0), (0, 1), (1, 1), (1, 0)],
    "clockwise-far": [(1e9 + x, 1e9 + y) for x, y in [(0, 0), (0, 1), (1, 1), (1, 0)]],
    "collinear": [(0, 0), (1, 0), (2, 0)],
    "collinear-triple": [(0, 0), (1, 0), (2, 0), (2, 2), (0, 2)],
    "reflex": [(0, 0), (2, 0), (1, 0.1), (2, 2), (0, 2)],
    # only the sorted duplicate check rejects it: its two middle vertices
    # are 5e-10 apart, not consecutive, and every turn is left
    "thin-rhombus": [(-1, 0), (0, -2.5e-10), (1, 0), (0, 2.5e-10)],
    # clockwise too: the duplicate still wins over the orientation
    "thin-rhombus-clockwise": [(-1, 0), (0, 2.5e-10), (1, 0), (0, -2.5e-10)],
}


def raised(build, points):
    try:
        build(points)
    except PolygonError as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("name", sorted(INVALID))
def test_invalid_inputs(name):
    want = raised(RefPolygon, INVALID[name])
    assert want is not None
    assert raised(validate_polygon, INVALID[name]) == want


def test_corrupted_polygons(ratio_polys):
    # reversed, two vertices swapped, a vertex repeated, an edge midpoint
    # inserted, a vertex pushed inward
    rng = np.random.default_rng(16)
    for poly in ratio_polys[:200]:
        pts = poly.coords.tolist()
        n = len(pts)
        i, j = sorted(rng.choice(n, 2, replace=False).tolist())
        swapped = list(pts)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        mid = [(pts[i][0] + pts[(i + 1) % n][0]) / 2.0, (pts[i][1] + pts[(i + 1) % n][1]) / 2.0]
        inward = [0.5 * pts[i][0] + 0.25 * (pts[i - 1][0] + pts[(i + 1) % n][0]),
                  0.5 * pts[i][1] + 0.25 * (pts[i - 1][1] + pts[(i + 1) % n][1])]
        for case in (pts[::-1], swapped, pts[:j] + [pts[i]] + pts[j:],
                     pts[:i + 1] + [mid] + pts[i + 1:], pts[:i] + [inward] + pts[i + 1:]):
            want = raised(RefPolygon, case)
            assert raised(validate_polygon, case) == want
            if want is None:
                assert_same_frame(case)


def ref_normal_angles(edges):
    return np.unwrap(np.arctan2(-edges[:, 0], edges[:, 1]))


MAGNITUDE = st.floats(-8.0, 8.0).map(lambda e: 10.0 ** e)
COMPONENT = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.tuples(MAGNITUDE, st.sampled_from([1.0, -1.0])).map(lambda t: t[0] * t[1]),
    st.floats(-1e8, 1e8),
)
EDGES = st.lists(st.tuples(COMPONENT, COMPONENT), min_size=1, max_size=40)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(EDGES)
def test_normal_angles_equal_unwrap(edges):
    e = np.array(edges, dtype=float).reshape(-1, 2)
    assert bits(normal_angles(e)) == bits(ref_normal_angles(e))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.floats(-math.pi, math.pi), min_size=1, max_size=60),
       st.floats(-8.0, 8.0), st.floats(0.0, TWO_PI))
def test_normal_angles_equal_unwrap_winding(steps, log_scale, start):
    # turns of up to pi either way, so the boundary may wind many times,
    # backwards, or step by exactly pi
    t = start + np.cumsum(steps)
    e = 10.0 ** log_scale * np.column_stack([np.cos(t), np.sin(t)])
    assert bits(normal_angles(e)) == bits(ref_normal_angles(e))
