"""Connected components and the hull certificate.

A line misses a connected set iff it misses the set's convex hull, and a
line separating two hulls within tol_cover of each other sees a gap of at
most tol_cover, so the hull certificate must give the direction scan's
verdict on every barrier whose component hulls form one connected touch
graph; and one component projects to a single interval, so scanning
components must give the per-polyline scan's first gaps, bit for bit,
when both read the same point projections.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opaque import (
    Barrier,
    Point2,
    algo_a1,
    algo_a3,
    algo_a4,
    interior_connected,
    interior_single_arc,
    is_opaque,
    make_fixture,
    random_convex_polygon,
    validate_polygon,
)
from opaque.barriers import _polylines_connected, components
from opaque.verify import _component_points, _hull_slack, _hulls_touch, _scan, _sweep, tol_cover

from conftest import truncated

BUILDERS = {"a1": algo_a1, "a3": algo_a3, "interior-arc": interior_single_arc,
            "interior-tree": interior_connected}
HULLS = dict(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(5, 60))
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def hull(seed, n):
    return random_convex_polygon(n, np.random.default_rng(seed))


def without_leaf(barrier):
    """The tree without the first edge that ends in a leaf: still one
    component, and its leaf polygon vertex is no longer covered."""
    pls = barrier.polylines
    ends = [p for pl in pls for p in (pl[0], pl[-1])]
    k = next(k for k, pl in enumerate(pls) if ends.count(pl[0]) == 1 or ends.count(pl[-1]) == 1)
    return Barrier(pls[:k] + pls[k + 1:], "arbitrary")


@PROPERTY
@given(**HULLS)
def test_hull_certificate_matches_scan(seed, n):
    poly = hull(seed, n)
    tol = tol_cover(poly)
    for name, build in BUILDERS.items():
        barrier = build(poly).barrier
        cases = [(barrier, True)]
        cases.append((without_leaf(barrier), False) if name == "interior-tree"
                     else (truncated(poly, barrier), False))
        for case, want in cases:
            pts, ends = _component_points(case)
            assert len(ends) == 1, name
            certified = _hull_slack(poly, pts, tol) is not None
            scanned = _scan(poly, case, pts, ends)
            assert certified == scanned.opaque == want, name
            report = is_opaque(poly, case)
            assert report.opaque == want
            assert report.certificate == ("hull" if want else "directions")
            assert report.directions_tested == (0 if want else scanned.directions_tested)
            assert report.witness == scanned.witness


def assert_scan_decides(poly, barrier):
    """is_opaque gives the scan's verdict, and its witness bit for bit."""
    pts, ends = _component_points(barrier)
    scanned = _scan(poly, barrier, pts, ends)
    report = is_opaque(poly, barrier)
    assert report.opaque == scanned.opaque
    assert report.witness == scanned.witness
    if report.certificate == "directions":
        assert report.directions_tested == scanned.directions_tested
    return report, scanned


@PROPERTY
@given(**HULLS)
def test_touching_certificate_matches_scan(seed, n):
    # an a4 barrier is two components: the wrap-around and the altitude,
    # whose foot lies on the chord closing the wrap-around
    poly = hull(seed, n)
    barrier = algo_a4(poly).barrier
    report, _ = assert_scan_decides(poly, barrier)
    assert len(_component_points(barrier)[1]) == 2
    assert (report.opaque, report.certificate, report.directions_tested) == (True, "hull", 0)
    pls = barrier.polylines
    for case in [truncated(poly, barrier)] + [Barrier(pls[:k] + pls[k + 1:], "arbitrary")
                                              for k in range(len(pls))]:
        assert_scan_decides(poly, case)


@PROPERTY
@given(**HULLS, log_scale=st.floats(-6.0, 6.0), log_shift=st.floats(0.0, 9.0),
       turn=st.floats(0.0, 2.0 * math.pi), psi=st.floats(0.0, 2.0 * math.pi),
       start=st.integers(0, 2 ** 16))
def test_a4_similarity(seed, n, log_scale, log_shift, turn, psi, start):
    # a cyclic shift, a rotation, a scale of 1e-6..1e6 and a translation
    # of up to 1e9 diameters: the length scales within the rounding of the
    # coordinates, and the certificate fires on both copies
    poly = hull(seed, n)
    s = 10.0 ** log_scale
    c, r = math.cos(turn), math.sin(turn)
    pts = np.roll(poly.coords, -(start % len(poly)), axis=0) @ np.array([[c, r], [-r, c]]) * s
    pts += 10.0 ** log_shift * s * poly.diameter * np.array([math.cos(psi), math.sin(psi)])
    twin = validate_polygon(pts)
    want, got = algo_a4(poly), algo_a4(twin)
    mag = float(np.abs(pts).max()) / s + float(np.abs(poly.coords).max())
    assert abs(got.length / s - want.length) <= 64 * np.finfo(float).eps * len(poly) * mag
    for p, sol in ((poly, want), (twin, got)):
        report = is_opaque(p, sol.barrier)
        assert (report.opaque, report.certificate) == (True, "hull")
        assert not is_opaque(p, truncated(p, sol.barrier)).opaque


def split_bottom(gap):
    """The square's left, bottom and right sides, the bottom cut at
    x = 0.5 by a hole ``gap`` wide: two triangular hulls ``gap`` apart."""
    return ((0, 1), (0, 0), (0.5, 0)), ((0.5 + gap, 0), (1, 0), (1, 1))


def test_touching_within_tolerance_is_certified(square):
    report, _ = assert_scan_decides(square, Barrier(split_bottom(0.5 * tol_cover(square)),
                                                    "arbitrary"))
    assert (report.opaque, report.certificate, report.directions_tested) == (True, "hull", 0)
    assert report.min_slack == 0.0


def test_gap_wider_than_tolerance_is_scanned(square):
    gap = 2.0 * tol_cover(square)
    report, _ = assert_scan_decides(square, Barrier(split_bottom(gap), "arbitrary"))
    assert not report.opaque and report.certificate == "directions"
    # the witness line crosses y = 0 inside the hole
    w = report.witness
    x = -w.representative_offset / math.sin(w.theta)
    assert 0.5 < x < 0.5 + gap


def test_one_point_component(square):
    tol = tol_cover(square)
    left, right = split_bottom(1.5 * tol)
    # a point in the hole, within tol of both sides, joins the touch graph
    bridge = Barrier((left, right, ((0.5 + 0.75 * tol, 0),) * 2), "arbitrary")
    report, scanned = assert_scan_decides(square, bridge)
    assert scanned.opaque and report.certificate == "hull"
    # a point inside the hull of the three sides touches it; a far one
    # does not, and the scan decides
    sides = ((0, 1), (0, 0), (1, 0), (1, 1))
    for point, certificate in (((0.5, 0.5), "hull"), ((5, 5), "directions")):
        report, _ = assert_scan_decides(square, Barrier((sides, (point,) * 2), "arbitrary"))
        assert report.opaque and report.certificate == certificate


def test_collinear_segments(square):
    tol = tol_cover(square)
    # two parallel collinear segments: no hull interior, so the scan
    # decides, and the touch test takes segment hulls without raising
    report, _ = assert_scan_decides(square, Barrier((((0, 0), (0.4, 0)), ((0.6, 0), (1, 0))),
                                                    "arbitrary"))
    assert not report.opaque and report.certificate == "directions"
    for pls, touch in (((((0, 0), (0.6, 0)), ((0.4, 0), (1, 0))), True),
                       ((((0, 0), (0.5, 0)), ((0.5 + 2 * tol, 0), (1, 0))), False),
                       ((((0, 0), (1, 0)), ((0, 0.5 * tol), (1, 0.5 * tol))), True),
                       ((((0, 0), (1, 0)), ((0, 2 * tol), (1, 2 * tol))), False)):
        assert _hulls_touch(*_component_points(Barrier(pls, "arbitrary")), tol) == touch


@pytest.mark.parametrize("name", ["a1", "a3", "interior-arc"])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("m", [20, 46, 68, 80])
def test_hull_certificate_on_rotated_reuleaux(m, k, name):
    # on rotated Reuleaux polygons the hulls of these barriers keep nearly
    # collinear vertices, whose two edges can round to the same normal
    # angle; each arc must still get its own supporting vertices
    c, s = math.cos(0.37 * k), math.sin(0.37 * k)
    base = make_fixture("reuleaux-poly", m=m).polygon.coords.tolist()
    poly = validate_polygon([(c * x - s * y, s * x + c * y) for x, y in base])
    barrier = BUILDERS[name](poly).barrier
    scanned = _scan(poly, barrier, *_component_points(barrier))
    report = is_opaque(poly, barrier)
    assert scanned.opaque
    assert (report.opaque, report.certificate, report.directions_tested) == (True, "hull", 0)


@PROPERTY
@given(**HULLS)
def test_component_gaps_match_per_polyline(seed, n):
    poly = hull(seed, n)
    barrier = truncated(poly, interior_connected(poly).barrier)
    pts, ends = _component_points(barrier)
    row = {tuple(p): i for i, p in enumerate(pts.tolist())}
    thetas = np.linspace(0.0, math.pi, 257)
    nrm = np.vstack([-np.sin(thetas), np.cos(thetas)])
    pproj, proj = poly.coords @ nrm, pts @ nrm
    plo, phi = pproj.min(axis=0), pproj.max(axis=0)
    tol = tol_cover(poly)
    per_polyline = [proj[[row[p] for p in pl]] for pl in barrier.polylines]
    want = _sweep(plo, phi, np.array([q.min(axis=0) for q in per_polyline]),
                  np.array([q.max(axis=0) for q in per_polyline]), tol)
    slices = [proj[s:e] for s, e in zip([0] + ends[:-1], ends)]
    got = _sweep(plo, phi, np.array([q.min(axis=0) for q in slices]),
                 np.array([q.max(axis=0) for q in slices]), tol)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)
    assert np.isnan(want[0]).sum() < len(thetas)           # some gap exists


def test_components_share_exact_vertices():
    a, b, c, d = Point2(0, 0), Point2(1, 0), Point2(1, 1), Point2(0, 1)
    pls = ((a, b), (c, d), (b, c), (d, Point2(0, 0.5)), (Point2(2, 2), Point2(3, 3)))
    assert components(pls) == [[0, 1, 2, 3], [4]]
    # a crossing, or a gap under the proximity tolerance, joins for the
    # connected kind's validation, never for the verifier
    cross = ((a, c), (b, d))
    near = ((a, b), (Point2(1 + 1e-12, 0), c))
    for pls in (cross, near):
        assert len(components(pls)) == 2
        assert _polylines_connected(pls, components(pls))
    far = ((a, b), (Point2(1 + 1e-6, 0), c))
    assert not _polylines_connected(far, components(far))


def test_hull_certificate_is_euclidean_at_corners(square):
    # a rectangle barrier short of the square's corner (1, 1) by d along
    # both axes: each vertex is at most d outside a hull edge line, but
    # the corner is sqrt(2) d from the hull
    tol = tol_cover(square)
    for share, opaque in ((0.6, True), (0.8, False)):
        d = share * tol
        ring = ((-1, -1), (1 - d, -1), (1 - d, 1 - d), (-1, 1 - d), (-1, -1))
        report = is_opaque(square, Barrier((ring,), "single-arc"))
        assert report.opaque == opaque
        if opaque:
            assert report.certificate == "hull" and report.directions_tested == 0
            assert report.min_slack == pytest.approx(-math.sqrt(2.0) * d, rel=1e-6)
        else:
            assert report.certificate == "directions" and report.min_slack is None
            assert report.witness.uncovered.length == pytest.approx(math.sqrt(2.0) * d, rel=1e-6)


def test_no_certificate_without_hull_interior(square):
    # a segment through the square, and a polyline folded onto one line
    for pl in (((0, 0), (1, 1)), ((0, 0), (1, 1), (0.5, 0.5))):
        pts, _ = _component_points(Barrier((pl,), "single-arc"))
        assert _hull_slack(square, pts, tol_cover(square)) is None


def test_min_slack_is_smallest_depth(square):
    # the square inside a ring 0.25 outside it on three sides and 0.5 on top
    ring = ((-0.25, -0.25), (1.25, -0.25), (1.25, 1.5), (-0.25, 1.5), (-0.25, -0.25))
    report = is_opaque(square, Barrier((ring,), "single-arc"))
    assert report.certificate == "hull"
    assert report.min_slack == pytest.approx(0.25, abs=1e-15)
    far = validate_polygon(square.coords + 1e9)
    shifted = tuple((x + 1e9, y + 1e9) for x, y in ring)
    assert is_opaque(far, Barrier((shifted,), "single-arc")).min_slack == pytest.approx(0.25, abs=1e-6)
