import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.optimize import linprog

from opaque import (
    InconsistentIncircle,
    InscribedCircle,
    Point2,
    PolygonError,
    algo_a2,
    barriers,
    is_opaque,
    largest_inscribed_circle,
    make_fixture,
    min_width,
    random_convex_polygon,
    tangent_triangle,
    validate_polygon,
)
from opaque.geometry import TOL_ANG, TOL_TOUCH_REL, TWO_PI
from opaque.incircle import TOL_PARALLEL, _pair_center, _tangent_triple

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
        for k in range(200):
            c, s = math.cos(0.0157 * k), math.sin(0.0157 * k)
            poly = validate_polygon([(c * x - s * y, s * x + c * y)
                                     for x, y in ((0, 0), (3, 0), (3, 1), (0, 1))])
            assert largest_inscribed_circle(poly).touching_edges == frozenset({0, 2})

    def test_tilted_rectangle_touches_its_wide_end(self):
        # a long side tilted by 1e-10..5e-8 leaves one optimal center, at the
        # wide end: the short side there binds with a dual of about half the
        # tilt, far above rounding (HiGHS, within its 1e-7 feasibility
        # tolerance, stopped at the narrow end of the unrotated ones)
        for tilt in (1e-10, 1e-9, 5e-8):
            lift = 2.0 * math.tan(tilt)
            for corners, wide in ((((0, 0), (2, 0), (2, 1), (0, 1 + lift)), 3),
                                  (((0, 0), (2, 0), (2, 1 + lift), (0, 1)), 1)):
                for k in range(0, 200, 5):
                    c, s = math.cos(0.0157 * k), math.sin(0.0157 * k)
                    poly = validate_polygon([(c * x - s * y, s * x + c * y)
                                             for x, y in corners])
                    assert largest_inscribed_circle(poly).touching_edges == {0, 2, wide}

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
                assert dist[i] - circ.radius <= TOL_TOUCH_REL * poly.diameter
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


def ref_incircle(poly):
    """The Chebyshev center as first written: the LP in raw coordinates,
    then every triple and antipodal pair among the near-tight edges, ranked
    by their sorted clearance vectors."""
    m, o = poly.edge_normals_offsets()
    n = len(o)
    diam = poly.diameter
    res = linprog(c=[0.0, 0.0, -1.0], A_ub=np.column_stack([-m, np.ones(n)]), b_ub=-o,
                  bounds=[(None, None), (None, None), (0.0, None)], method="highs")
    assert res.success
    c = res.x[:2]
    dist = m @ c - o
    r = float(dist.min())
    near = np.nonzero(dist - r <= 1e-5 * diam)[0]
    if len(near) > 12:
        near = near[np.argsort(dist[near])][:12]
    candidates = [c]
    for triple in itertools.combinations(near, 3):
        ids = list(triple)
        a = np.column_stack([m[ids], -np.ones(3)])
        if abs(np.linalg.det(a)) < 1e-12:
            continue
        candidates.append(np.linalg.solve(a, o[ids])[:2])
    for i, j in itertools.combinations(near, 2):
        if m[i] @ m[j] < -1.0 + 1e-9:
            rp = -(o[i] + o[j]) / 2.0
            c0 = c + (o[i] + rp - m[i] @ c) * m[i]
            candidates.append(_pair_center(m, o, c0, rp, int(i)))
    c = max(candidates, key=lambda cc: tuple(np.sort(m @ cc - o)))
    dist = m @ c - o
    r = float(dist.min())
    return c, r, frozenset(int(i) for i in np.nonzero(dist - r <= TOL_TOUCH_REL * poly.diameter)[0])


def test_basis_center_matches_polished_reference(ratio_polys, small_polys):
    reuleaux = [make_fixture("reuleaux-poly", m=m, shave=shave).polygon
                for m in (3, 4, 5, 6, 8, 12, 20, 40, 100) for shave in (0.0, 1e-3)]
    corpus = (ratio_polys + small_polys + [regular_ngon(k) for k in range(3, 65)]
              + reuleaux)
    assert len(corpus) == 1280
    for poly in corpus:
        circ = largest_inscribed_circle(poly)
        c, r, touching = ref_incircle(poly)
        assert circ.touching_edges == touching
        assert abs(circ.radius - r) <= 1e-12 * poly.diameter
        assert math.dist(circ.center, c) <= 1e-12 * poly.diameter


@pytest.mark.parametrize("scale", [1e-6, 1e-3, 1e3, 1e6])
def test_a2_scale_and_translation(ratio_polys, scale):
    # the LP runs in a unit-diameter frame, so neither the polygon's size
    # nor its distance from the origin reaches the solver's tolerances
    polys = ratio_polys[::50] + [
        regular_ngon(7), validate_polygon([(0, 0), (3, 0), (3, 1), (0, 1)])]
    for poly in polys:
        length, diam = algo_a2(poly).length, poly.diameter
        for shift in (0.0, 1e3, 1e6):
            offset = shift * scale * diam * np.array([0.6, 0.8])
            copy = validate_polygon(poly.coords * scale + offset)
            assert abs(algo_a2(copy).length / scale - length) <= 1e-9 * diam


def highs_incircle(poly):
    """The Chebyshev center as solved before the dual simplex: scipy's
    HiGHS on the same unit-frame LP, the center fixed from the edges with a
    nonzero dual."""
    m, o = poly.edge_normals_offsets()
    diam = poly.diameter
    v0 = poly.coords[0]
    o = (o - m @ v0) / diam
    res = linprog(c=[0.0, 0.0, -1.0], A_ub=np.column_stack([-m, np.ones(len(o))]),
                  b_ub=-o, bounds=[(None, None), (None, None), (0.0, None)],
                  method="highs")
    if not res.success:
        raise InconsistentIncircle(f"incircle LP failed: {res.message}")
    ids = np.nonzero(res.ineqlin.marginals)[0]
    if len(ids) == 3:
        c = np.linalg.solve(np.column_stack([m[ids], -np.ones(3)]), o[ids])[:2]
    elif len(ids) == 2:
        i, j = ids
        rp = -(o[i] + o[j]) / 2.0
        c0 = res.x[:2] + (o[i] + rp - m[i] @ res.x[:2]) * m[i]
        c = _pair_center(m, o, c0, rp, int(i))
    else:
        raise InconsistentIncircle(f"incircle LP binds {len(ids)} edges")
    dist = m @ c - o
    r = float(dist.min())
    touching = frozenset(int(i) for i in np.nonzero(dist - r <= TOL_TOUCH_REL)[0])
    if len(touching) < 2 or r <= 0.0:
        raise InconsistentIncircle("degenerate incircle solution")
    c = v0 + diam * c
    return InscribedCircle(Point2(float(c[0]), float(c[1])), diam * r, touching)


def a2_copies(ratio_polys):
    """The polygons of test_a2_scale_and_translation, scaled 1e-6..1e6 and
    translated by 0, 1e3 and 1e6 diameters."""
    polys = ratio_polys[::50] + [
        regular_ngon(7), validate_polygon([(0, 0), (3, 0), (3, 1), (0, 1)])]
    return [validate_polygon(poly.coords * scale + shift * scale * poly.diameter * np.array([0.6, 0.8]))
            for scale in (1e-6, 1e-3, 1e3, 1e6) for shift in (0.0, 1e3, 1e6) for poly in polys]


def test_simplex_matches_highs(ratio_polys, small_polys, monkeypatch):
    reuleaux = [make_fixture("reuleaux-poly", m=m, shave=shave).polygon
                for m in (3, 4, 5, 6, 8, 12, 20, 40, 100) for shave in (0.0, 1e-3)]
    copies = a2_copies(ratio_polys)
    corpus = (ratio_polys + small_polys + [regular_ngon(k) for k in range(3, 202)]
              + reuleaux + copies)
    assert len(corpus) == 1000 + 200 + 199 + 18 + 264
    eps = np.finfo(float).eps
    for poly in corpus:
        circ, ref = largest_inscribed_circle(poly), highs_incircle(poly)
        assert circ.touching_edges == ref.touching_edges
        # the offsets m_i . v_i carry the rounding of the coordinates, about
        # eps * max |coord|: at 1e6 diameters from the origin HiGHS, whose
        # feasibility tolerance is 1e-7, stops at a regular 7-gon basis whose
        # center misses other edges by up to 2e-10 diameters
        tol = 1e-12 * poly.diameter + 4.0 * eps * float(np.abs(poly.coords).max())
        assert circ.radius >= ref.radius - 1e-12 * poly.diameter
        assert abs(circ.radius - ref.radius) <= tol
        assert math.dist(circ.center, ref.center) <= tol
    # tangent_triangle reads only the touching set, so a2 is compared on the
    # transformed copies, where the LP's data is least well scaled
    got = [algo_a2(poly).barrier for poly in copies]
    monkeypatch.setattr(barriers, "largest_inscribed_circle", highs_incircle)
    assert got == [algo_a2(poly).barrier for poly in copies]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(3, 40),
       log_scale=st.floats(-6.0, 6.0), log_shift=st.floats(-1.0, 6.0),
       angle=st.floats(0.0, 2.0 * math.pi), psi=st.floats(0.0, 2.0 * math.pi),
       roll=st.integers(0, 39))
def test_incircle_similarity(seed, n, log_scale, log_shift, angle, psi, roll):
    poly = random_convex_polygon(n, np.random.default_rng(seed))
    n, diam = len(poly), poly.diameter
    circ = largest_inscribed_circle(poly)
    m, o = poly.edge_normals_offsets()
    gap = (m @ np.array(circ.center) - o - circ.radius) / diam
    # an edge whose clearance is near the touching tolerance may flip
    assume(not np.any((gap > 0.5 * TOL_TOUCH_REL) & (gap < 2.0 * TOL_TOUCH_REL)))
    s, k = 10.0 ** log_scale, roll % n
    rot = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
    shift = 10.0 ** log_shift * s * diam * np.array([math.cos(psi), math.sin(psi)])
    try:
        copy = validate_polygon(np.roll(poly.coords, -k, axis=0) @ rot.T * s + shift)
    except PolygonError:  # rounding far from the origin can break strict convexity
        assume(False)
    got = largest_inscribed_circle(copy)
    assert abs(got.radius / s - circ.radius) <= 1e-9 * diam
    assert got.touching_edges == frozenset((i - k) % n for i in circ.touching_edges)


def fan_polygon(step, shift=0, phi=0.0):
    """The polygon cut out by the lines x . (cos th, sin th) <= d: a fan at
    th = 0, step, 2 step, ... below 16 degrees with d = 1, one line at 191.42
    degrees with d = 1, and two at 100 and 280 degrees with d = 3.  Vertex k
    joins lines k - 1 and k, so edge 0 lies on the 0 degree line; the copy
    is then rolled by ``shift`` vertices and rotated by ``phi``."""
    lines = [(a, 1.0) for a in np.arange(0.0, 16.0, step)]
    lines += [(100.0, 3.0), (191.42, 1.0), (280.0, 3.0)]
    th = np.radians([a for a, _ in lines]) + phi
    d = np.array([b for _, b in lines])
    u = np.column_stack([np.cos(th), np.sin(th)])
    n = len(u)
    pts = [np.linalg.solve(u[[k, (k + 1) % n]], d[[k, (k + 1) % n]]) for k in range(n)]
    return validate_polygon(np.roll(np.array(pts), 1 - shift, axis=0))


@pytest.mark.parametrize("step, n", [(0.5, 35), (1.0, 19)])
def test_a2_fan_and_one_opposite_edge(step, n):
    # the unit circle touches the fan and the 191.42 degree edge; a triple
    # spans only with one fan edge below 11.42 degrees and one above.  A
    # spread pick from edge 0 takes 191.42 and 0.5 degrees, which leaves a
    # gap of 190.92 degrees: with more than 5000 triples, a2 raised
    want = None
    for shift in range(0, n, 4):
        for phi in (0.0, 1.0, 2.5, -0.7):
            poly = fan_polygon(step, shift, phi)
            circ = largest_inscribed_circle(poly)
            assert len(poly) == n and len(circ.touching_edges) == n - 2
            assert circ.radius == pytest.approx(1.0, rel=1e-12)
            assert tangent_triangle(poly, circ) is not None
            sol = algo_a2(poly)
            assert sol.extras["b3_length"] is not None
            assert is_opaque(poly, sol.barrier).opaque
            want = sol.length if want is None else want
            assert sol.length == pytest.approx(want, rel=1e-12)


def spans(ang, i, j, k):
    return max(ang[j] - ang[i], ang[k] - ang[j], TWO_PI - (ang[k] - ang[i])) < math.pi - TOL_ANG


def test_tangent_triple_greedy_counterexample():
    # a pick of the edges nearest 120 and 240 degrees past 0 takes
    # (0, 9.73, 191.42), with a gap of 181.69 degrees
    ang = np.radians([0.0, 9.73, 12.0, 191.42]).tolist()
    pick = _tangent_triple(ang)
    assert pick is not None and spans(ang, *pick)


# random sets; a cluster within 0.5 rad and one angle near its opposite;
# near-regular sets; each from a base angle in [-pi, pi]
angle_sets = st.tuples(st.floats(-math.pi, math.pi), st.one_of(
    st.lists(st.floats(0.0, TWO_PI, exclude_max=True), min_size=2, max_size=12, unique=True)
    .map(sorted),
    st.tuples(st.lists(st.floats(0.0, 0.5), min_size=2, max_size=30, unique=True),
              st.floats(math.pi - 0.1, math.pi + 0.6))
    .map(lambda s: sorted(s[0]) + [s[1]]),
    st.integers(3, 40).flatmap(lambda k: st.lists(
        st.floats(-0.4 * math.pi / k, 0.4 * math.pi / k), min_size=k, max_size=k)
        .map(lambda jit: [TWO_PI * i / k + x for i, x in enumerate(jit)])),
)).map(lambda s: [s[0] + a for a in s[1]])


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(ang=angle_sets)
def test_tangent_triple_spans_when_any_triple_does(ang):
    assume(all(a < b for a, b in zip(ang, ang[1:])) and ang[-1] - ang[0] < TWO_PI)
    pick = _tangent_triple(ang)
    if pick is not None:
        assert pick[0] < pick[1] < pick[2] and spans(ang, *pick)
    assert (pick is not None) == any(spans(ang, *c) for c in itertools.combinations(range(len(ang)), 3))


@pytest.mark.parametrize("a_off, b_off, s", [(1.5, 0.5, 3.0), (0.5, 1.5, -0.75)],
                         ids=["a-bounds", "b-bounds"])
def test_pair_center_parallel_band(a_off, b_off, s):
    # The binding pair y >= -1, -y >= -1 (r = 1) has the x axis as mid-line,
    # run along d = (-1, 0) from c0 = 0; walls at x = -5 and x = 5 leave the
    # centers s in [-4, 4].  Edge A is a_off * TOL_PARALLEL off parallel to
    # the mid-line and cuts it at s = 2 from below, edge B is b_off *
    # TOL_PARALLEL off and cuts it at s = 2.5 from above: only the edge
    # outside the band bounds the interval, whose midpoint is s.
    def edge(along, cut):
        # normal with m . d = along; the line meets the mid-line at s = cut
        return (-along, 1.0), cut * along - 1.0

    (ma, oa), (mb, ob) = edge(a_off * TOL_PARALLEL, 2.0), edge(-b_off * TOL_PARALLEL, 2.5)
    m = np.array([(0.0, 1.0), (0.0, -1.0), (1.0, 0.0), (-1.0, 0.0), ma, mb])
    o = np.array([-1.0, -1.0, -5.0, -5.0, oa, ob])
    c = _pair_center(m, o, np.zeros(2), 1.0, 0)
    assert c == pytest.approx((-s, 0.0), abs=0.01)
