import math

import numpy as np
import pytest

from opaque import (
    algo_a2,
    largest_inscribed_circle,
    min_width,
    tangent_triangle,
    validate_polygon,
)

from conftest import regular_ngon

SQRT3 = math.sqrt(3.0)


def _xp(u, v):
    return float(u[0] * v[1] - u[1] * v[0])


class TestInscribedCircle:
    def test_unit_square(self, square):
        circ = largest_inscribed_circle(square)
        assert circ.radius == pytest.approx(0.5, abs=1e-12)
        assert tuple(circ.center) == pytest.approx((0.5, 0.5), abs=1e-12)
        assert circ.touching_edges == frozenset({0, 1, 2, 3})

    def test_equilateral(self):
        poly = validate_polygon([(0, 0), (1, 0), (0.5, SQRT3 / 2)])
        circ = largest_inscribed_circle(poly)
        assert circ.radius == pytest.approx(SQRT3 / 6, abs=1e-12)
        assert tuple(circ.center) == pytest.approx((0.5, SQRT3 / 6), abs=1e-12)
        assert circ.touching_edges == frozenset({0, 1, 2})

    def test_wide_rectangle_touches_long_sides_only(self):
        poly = validate_polygon([(0, 0), (3, 0), (3, 1), (0, 1)])
        circ = largest_inscribed_circle(poly)
        assert circ.radius == pytest.approx(0.5, abs=1e-12)
        assert circ.center.y == pytest.approx(0.5, abs=1e-10)
        # among optimal centers the deepest one is reported, so the short
        # sides are not in the touching set
        assert circ.touching_edges == frozenset({0, 2})
        assert 0.5 < circ.center.x < 2.5

    def test_regular_ngon(self):
        poly = regular_ngon(7)
        circ = largest_inscribed_circle(poly)
        assert circ.radius == pytest.approx(math.cos(math.pi / 7), abs=1e-9)
        assert tuple(circ.center) == pytest.approx((0.0, 0.0), abs=1e-7)
        assert circ.touching_edges == frozenset(range(7))

    def test_radius_at_least_third_of_min_width(self, ratio_polys):
        # inradius of any planar convex body is at least one third of its
        # minimal width; equality holds for the equilateral triangle
        for poly in ratio_polys[::10]:
            circ = largest_inscribed_circle(poly)
            _, w, _ = min_width(poly)
            assert circ.radius >= w / 3.0 - 1e-9 * poly.diameter
            assert circ.radius <= w / 2.0 + 1e-9 * poly.diameter

    def test_max_distance_oracle(self, medium_polys):
        # dense interior sampling cannot find a deeper point
        rng = np.random.default_rng(11)
        for poly in medium_polys[:10]:
            circ = largest_inscribed_circle(poly)
            m, o = poly.edge_normals_offsets()
            lo = poly.coords.min(axis=0)
            hi = poly.coords.max(axis=0)
            pts = rng.uniform(lo, hi, size=(20000, 2))
            depth = (pts @ m.T - o).min(axis=1)
            assert float(depth.max()) <= circ.radius + 1e-9 * poly.diameter

    def test_touching_set_is_exact(self, ratio_polys):
        for poly in ratio_polys[::25]:
            circ = largest_inscribed_circle(poly)
            m, o = poly.edge_normals_offsets()
            c = np.array(circ.center)
            dist = m @ c - o
            for i in circ.touching_edges:
                assert dist[i] - circ.radius <= poly.tol_touch
            # the three closest constraints (or an antipodal pair) pin the
            # circle, so at least two edges must touch
            assert len(circ.touching_edges) >= 2


class TestTangentTriangle:
    def test_square_has_none(self, square):
        circ = largest_inscribed_circle(square)
        assert tangent_triangle(square, circ) is None

    def test_rectangle_has_none(self):
        poly = validate_polygon([(0, 0), (3, 0), (3, 1), (0, 1)])
        assert tangent_triangle(poly, largest_inscribed_circle(poly)) is None

    def test_rotated_rectangle_antipodal_pair(self):
        # the long sides' normals are antipodal up to rounding (their dot
        # product rounds to -1 for only some rotations), or up to a tilt of
        # one long side far below the touching tolerance, whichever end is
        # raised; a2 falls back to the a1 barrier
        shapes = [(0.0, ((0, 0), (2, 0), (2, 1), (0, 1)))]
        for tilt in (1e-10, 1e-9, 5e-8):
            lift = 2.0 * math.tan(tilt)
            shapes += [(lift, ((0, 0), (2, 0), (2, 1), (0, 1 + lift))),
                       (lift, ((0, 0), (2, 0), (2, 1 + lift), (0, 1)))]
        for lift, corners in shapes:
            for k in range(0, 200, 5 if lift else 1):
                c, s = math.cos(0.0157 * k), math.sin(0.0157 * k)
                poly = validate_polygon([(c * x - s * y, s * x + c * y)
                                         for x, y in corners])
                assert tangent_triangle(poly, largest_inscribed_circle(poly)) is None
                assert algo_a2(poly).length == pytest.approx(4.0 + lift, rel=1e-12)

    def test_equilateral_is_itself(self):
        poly = validate_polygon([(0, 0), (1, 0), (0.5, SQRT3 / 2)])
        tri = tangent_triangle(poly, largest_inscribed_circle(poly))
        assert tri is not None
        got = sorted(tuple(c) for c in tri.corners)
        want = sorted([(0.0, 0.0), (1.0, 0.0), (0.5, SQRT3 / 2)])
        assert np.allclose(got, want, atol=1e-9)
        assert tri.sides == pytest.approx((1.0, 1.0, 1.0), abs=1e-9)

    def test_triangle_circumscribes_polygon(self, ratio_polys):
        for poly in ratio_polys[::20]:
            circ = largest_inscribed_circle(poly)
            tri = tangent_triangle(poly, circ)
            if tri is None:
                continue
            # every polygon vertex lies inside the corner triangle
            a, b, c = (np.array(p) for p in tri.corners)
            for p in poly.coords:
                l1 = _xp(b - a, p - a)
                l2 = _xp(c - b, p - b)
                l3 = _xp(a - c, p - c)
                s = np.sign([x for x in (l1, l2, l3) if abs(x) > 1e-7])
                assert len(set(s)) <= 1, "vertex outside tangent triangle"

    def test_incircle_touches_triangle_sides(self, ratio_polys):
        for poly in ratio_polys[::50]:
            circ = largest_inscribed_circle(poly)
            tri = tangent_triangle(poly, circ)
            if tri is None:
                continue
            c = np.array(circ.center)
            corners = [np.array(p) for p in tri.corners]
            for i in range(3):
                a, b = corners[i], corners[(i + 1) % 3]
                d = abs(_xp(b - a, c - a)) / np.linalg.norm(b - a)
                assert d == pytest.approx(circ.radius, rel=1e-6)
