"""The support-oracle kernel against the brute-force scans it replaced.

The reference functions below are the direct formulations: a two-pointer
diameter sweep, an n x n projection matrix for the minimum width, a
per-edge projection for the enclosing rectangle, a per-baseline
projection for the U-curve and an all-pairs antipodal-normal test.  The kernel must reproduce their values to
rounding; where float ties let it pick a different edge or baseline, the
reference must rate both picks equally.
"""

import itertools
import math

import numpy as np
import pytest

from opaque import (
    algo_a3,
    make_fixture,
    min_perimeter_rectangle,
    min_width,
    random_convex_polygon,
    validate_polygon,
)
from opaque.barriers import _u_lengths
from opaque.geometry import (
    TOL_AREA_REL,
    TOL_GEOM_REL,
    TOL_TOUCH_REL,
    canon_line_angle,
    canon_oriented_angle,
    cross2,
    support_window,
)

from opaque.incircle import _antipodal_candidates

from conftest import regular_ngon

REL = 1e-12


def ref_diameter(poly):
    coords = poly.coords
    n = len(coords)
    if n == 3:
        d = np.roll(coords, -1, axis=0) - coords
        return float(np.hypot(d[:, 0], d[:, 1]).max())
    best = 0.0
    j = 1
    edges = np.roll(coords, -1, axis=0) - coords
    for i in range(n):
        # advance j while the next vertex is farther from edge i
        while (float(cross2(edges[i], coords[(j + 1) % n] - coords[i]))
               > float(cross2(edges[i], coords[j] - coords[i]))):
            j = (j + 1) % n
        for k in (i, (i + 1) % n):
            best = max(best, float(np.hypot(*(coords[j] - coords[k]))))
    return best


def ref_min_width(poly):
    """(alpha, w) with the n x n projection matrix."""
    m, o = poly.edge_normals_offsets()
    widths = (poly.coords @ m.T).max(axis=0) - o
    cands = np.nonzero(widths <= widths.min() + TOL_AREA_REL * poly.diameter)[0]
    alphas = [canon_line_angle(math.atan2(m[i, 1], m[i, 0])) for i in cands]
    k = int(cands[int(np.argmin(alphas))])
    return canon_line_angle(math.atan2(m[k, 1], m[k, 0])), float(widths[k])


def ref_rectangle_perimeter(poly, u):
    """Perimeter of the enclosing rectangle with one side along u."""
    s = poly.coords @ u
    t = poly.coords @ np.array([-u[1], u[0]])
    return 2.0 * float((s.max() - s.min()) + (t.max() - t.min()))


def ref_rectangle(poly):
    """Minimum perimeter by a per-edge projection loop."""
    v = poly.coords
    e = np.roll(v, -1, axis=0) - v
    u = e / np.hypot(e[:, 0], e[:, 1])[:, None]
    tol = TOL_GEOM_REL * poly.diameter
    best = None
    for i in range(len(v)):
        per = ref_rectangle_perimeter(poly, u[i]) / 2.0
        ang = math.fmod(math.atan2(u[i, 1], u[i, 0]), math.pi / 2.0)
        if ang < 0.0:
            ang += math.pi / 2.0
        if best is None or per < best[0] - tol or (per < best[0] + tol and ang < best[1]):
            best = (per, ang)
    return 2.0 * best[0]


def ref_u_metrics(poly, theta):
    """(i1, i2, t0, length) of U(P, theta) from the full projections."""
    u = np.array([math.cos(theta), math.sin(theta)])
    nrm = np.array([-math.sin(theta), math.cos(theta)])
    s = poly.coords @ u
    t = poly.coords @ nrm
    eps = poly.tol.geom
    left = np.nonzero(s <= s.min() + eps)[0]
    right = np.nonzero(s >= s.max() - eps)[0]
    i1 = int(left[np.argmin(t[left])])
    i2 = int(right[np.argmin(t[right])])
    t0 = float(t.min())
    cum, per = poly.cumulative_lengths, poly.perimeter
    arc = per - (cum[i2] - cum[i1]) % per if i1 != i2 else 0.0
    return i1, i2, t0, float((t[i1] - t0) + (t[i2] - t0) + arc)


def a3_candidates(poly):
    e = np.roll(poly.coords, -1, axis=0) - poly.coords
    return sorted({canon_oriented_angle(float(d) + off)
                   for d in np.arctan2(e[:, 1], e[:, 0])
                   for off in (0.0, math.pi / 2.0, -math.pi / 2.0)})


def check_kernel(poly):
    diam, per = poly.diameter, poly.perimeter
    assert abs(diam - ref_diameter(poly)) <= REL * diam

    alpha, w, _ = min_width(poly)
    ref_alpha, ref_w = ref_min_width(poly)
    assert abs(w - ref_w) <= REL * diam
    if alpha != ref_alpha:
        extent = lambda a: float(np.ptp(poly.coords @ np.array([math.cos(a), math.sin(a)])))
        assert abs(extent(alpha) - extent(ref_alpha)) <= REL * per

    rect = min_perimeter_rectangle(poly)
    ref_per = ref_rectangle(poly)
    assert abs(rect.perimeter - ref_per) <= REL * diam
    c = np.asarray(rect.corners)
    u = (c[1] - c[0]) / np.hypot(*(c[1] - c[0]))
    assert abs(ref_rectangle_perimeter(poly, u) - ref_per) <= REL * per

    thetas = a3_candidates(poly)
    i1, i2, t0, lengths = _u_lengths(poly, thetas)
    ref = [ref_u_metrics(poly, th) for th in thetas]
    assert i1.tolist() == [r[0] for r in ref] and i2.tolist() == [r[1] for r in ref]
    assert np.abs(t0 - [r[2] for r in ref]).max() <= REL * diam
    assert np.abs(lengths - [r[3] for r in ref]).max() <= REL * diam
    assert _u_lengths(poly, thetas[:1])[3][0] == lengths[0]

    best = None
    for th, r in zip(thetas, ref):
        if best is None or r[3] < best[0] - 1e-15:
            best = (r[3], th)
    baseline = algo_a3(poly).extras["baseline"]
    if baseline != best[1]:
        assert abs(ref_u_metrics(poly, baseline)[3] - best[0]) <= REL * per


def test_ratio_polygons_match_reference(ratio_polys):
    for poly in ratio_polys[::10]:
        check_kernel(poly)


def _rotated(pts, phi):
    c, s = math.cos(phi), math.sin(phi)
    return validate_polygon([(c * x - s * y, s * x + c * y) for x, y in pts])


SHAPES = {
    "ngon-3": lambda: regular_ngon(3),
    "ngon-4": lambda: regular_ngon(4),
    "ngon-5": lambda: regular_ngon(5),
    "ngon-6": lambda: regular_ngon(6),
    "ngon-511": lambda: regular_ngon(511),
    "ngon-512": lambda: regular_ngon(512),
    # a bottom chain within tol.geom of a line: long contact runs
    "flat-chain": lambda: validate_polygon(
        [(x, 1e-9 * x * (x - 1.0)) for x in np.linspace(0.0, 1.0, 9)] + [(0.5, 1.0)]),
    "thin-rect": lambda: validate_polygon([(0, 0), (1000, 0), (1000, 1), (0, 1)]),
    "thin-rect-rotated": lambda: _rotated([(0, 0), (1, 0), (1, 1e-3), (0, 1e-3)], 0.7),
    "reuleaux-5": lambda: make_fixture("reuleaux-poly", m=5).polygon,
    "reuleaux-300": lambda: make_fixture("reuleaux-poly", m=300).polygon,
    "reuleaux-shaved": lambda: make_fixture("reuleaux-poly", m=200, shave=1e-3).polygon,
    "triangle-equilateral": lambda: make_fixture("equilateral").polygon,
    "triangle-right": lambda: validate_polygon([(0, 0), (3, 0), (0, 4)]),
    "triangle-obtuse": lambda: validate_polygon([(0, 0), (10, 0), (4, 0.01)]),
}


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_shape_matches_reference(name):
    check_kernel(SHAPES[name]())


def _antipodal(m, pairs):
    # the normals' angles differ by pi within TOL_TOUCH_REL
    a = np.arctan2(m[:, 1], m[:, 0])
    return any(abs(abs(math.remainder(a[i] - a[j], 2.0 * math.pi)) - math.pi) <= TOL_TOUCH_REL
               for i, j in pairs)


def test_antipodal_candidates_match_all_pairs(ratio_polys):
    # every edge counts as touching, so each normal of an even polygon has
    # an antipodal partner whose dot product rounds to -1 or just above it
    polys = list(ratio_polys[::50]) + [regular_ngon(n) for n in (3, 4, 5, 6, 7, 8, 64, 65)]
    polys += [_rotated([(0, 0), (2, 0), (2, 1), (0, 1)], 0.0157 * k) for k in range(40)]
    polys += [_rotated(regular_ngon(12).vertices, 0.05 * k) for k in range(20)]
    polys += [_rotated([(0, 0), (2, 0), (2, 1), (0, 1 + lift)], 0.31 * k)
              for lift in (2e-10, -2e-9, 1e-7, 3e-7, -1e-6) for k in range(10)]
    for poly in polys:
        m, _ = poly.edge_normals_offsets()
        touch = list(range(len(poly)))
        first, second = _antipodal_candidates(poly.normal_angles, touch)
        pairs = {(min(p, q), max(p, q)) for p, q in zip(first.tolist(), second.tolist())}
        assert (_antipodal(m, pairs)
                == _antipodal(m, itertools.combinations(touch, 2)))


def check_support_window(poly, ux, uy, eps):
    """Window max against the all-vertex projections, bit for bit; every
    vertex within eps of it in the window and marked near.  Returns r."""
    x, y = poly.coords.T
    cand, near, proj = support_window(poly, ux, uy, eps)
    every = x[:, None] * ux + y[:, None] * uy
    top = every.max(axis=0)
    r = len(cand) // 2
    assert cand.shape == near.shape == proj.shape == (2 * r + 1, len(ux))
    assert r >= 2 and r & (r - 1) == 0
    # + 0.0: which of a tied -0.0 and 0.0 a max returns depends on the order
    assert bits(proj.max(axis=0) + 0.0) == bits(top + 0.0)
    marked = np.zeros(every.shape, bool)
    marked[cand[near], np.broadcast_to(np.arange(len(ux)), cand.shape)[near]] = True
    assert np.array_equal(marked, every >= top - eps)
    return r


def bits(arr):
    return arr.dtype, arr.shape, arr.tobytes()


def test_support_window_matches_all_vertices():
    rng = np.random.default_rng(2024)
    polys = [regular_ngon(n) for n in (3, 4, 5, 6, 7, 64, 511, 512)]
    polys += [SHAPES[name]() for name in ("flat-chain", "thin-rect", "thin-rect-rotated",
                                          "reuleaux-5", "reuleaux-300", "reuleaux-shaved")]
    polys += [random_convex_polygon(int(rng.integers(3, 200)), rng) for _ in range(20)]
    widened = 0
    for poly in polys:
        m, _ = poly.edge_normals_offsets()
        phi = rng.uniform(0.0, 2.0 * math.pi, 64)
        ux = np.concatenate([m[:, 0], -m[:, 0], -m[:, 1], m[:, 1], np.cos(phi)])
        uy = np.concatenate([m[:, 1], -m[:, 1], m[:, 0], -m[:, 0], np.sin(phi)])
        for eps in (0.0, poly.tol.geom):
            widened += check_support_window(poly, ux, uy, eps) > 2
    assert widened
