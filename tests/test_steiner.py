import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.optimize import minimize
from scipy.sparse import csr_array
from scipy.sparse.csgraph import minimum_spanning_tree
from scipy.spatial.distance import pdist, squareform

from opaque import interior_connected, random_convex_polygon, steiner, validate_polygon
from opaque.geometry import TOL_GEOM_REL, Point2
from opaque.steiner import (
    _TWO_THIRDS_PI,
    _fermat,
    _wide_at_first,
    euclidean_mst,
    steiner_three_points,
    steiner_tree,
)

from conftest import regular_ngon

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)


def star_length(center, pts):
    c = np.asarray(center, dtype=float)
    return float(sum(np.linalg.norm(c - p) for p in np.asarray(pts, float)))


class TestThreePoints:
    def test_equilateral(self):
        pts = [(0, 0), (1, 0), (0.5, SQRT3 / 2)]
        s, length = steiner_three_points(*pts)
        assert s is not None
        assert tuple(s) == pytest.approx((0.5, SQRT3 / 6), abs=1e-9)
        assert length == pytest.approx(SQRT3, abs=1e-9)

    def test_right_isoceles(self):
        # legs 1, all angles < 120 degrees, so a true three-edge star
        s, length = steiner_three_points((0, 0), (1, 0), (0, 1))
        assert s is not None
        assert length == pytest.approx(math.sqrt(2 + SQRT3), abs=1e-9)
        # 120-degree meeting angles at the junction
        for a, b in (((0, 0), (1, 0)), ((1, 0), (0, 1)), ((0, 1), (0, 0))):
            va = np.array(a) - np.array(s)
            vb = np.array(b) - np.array(s)
            ang = math.acos(float(va @ vb) /
                            (np.linalg.norm(va) * np.linalg.norm(vb)))
            assert ang == pytest.approx(2 * math.pi / 3, abs=1e-8)

    def test_wide_angle_degenerates(self):
        # angle at the origin is 150 degrees: tree is the two incident sides
        b = (1, 0)
        c = (math.cos(math.radians(150)), math.sin(math.radians(150)))
        s, length = steiner_three_points((0, 0), b, c)
        assert s is None
        assert length == pytest.approx(2.0, abs=1e-12)

    def test_collinear(self):
        s, length = steiner_three_points((0, 0), (1, 0), (3, 0))
        assert s is None
        assert length == pytest.approx(3.0, abs=1e-12)

    def test_matches_numeric_minimization(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            pts = rng.uniform(-1, 1, (3, 2))
            _, length = steiner_three_points(*map(tuple, pts))
            res = minimize(star_length, pts.mean(axis=0), args=(pts,),
                           method="Nelder-Mead",
                           options={"xatol": 1e-12, "fatol": 1e-13})
            assert length == pytest.approx(min(res.fun, length), abs=1e-7)
            assert length <= res.fun + 1e-7

    def test_sandwich_bounds(self):
        rng = np.random.default_rng(22)
        for _ in range(60):
            pts = rng.uniform(-1, 1, (3, 2))
            _, length = steiner_three_points(*map(tuple, pts))
            d = [float(np.linalg.norm(pts[i] - pts[j]))
                 for i, j in ((0, 1), (1, 2), (0, 2))]
            two_shortest = sum(sorted(d)[:2])
            _, mst = euclidean_mst(pts)
            assert length <= two_shortest + 1e-12
            assert length >= SQRT3 / 2 * mst - 1e-9


class TestFermatPoint:
    def test_equals_three_point_star(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            pts = rng.uniform(-1, 1, (3, 2))
            f, _ = _fermat(*map(tuple, pts))
            _, total = steiner_three_points(*map(tuple, pts))
            assert total == pytest.approx(star_length(f, pts), abs=1e-9)
            # no nearby point does better
            for delta in np.array([[1e-5, 0], [-1e-5, 0], [0, 1e-5], [0, -1e-5]]):
                assert star_length(np.array(f) + delta, pts) >= total - 1e-12

    def test_wide_angle_returns_vertex(self):
        f, on = _fermat((0, 0), (10, 0.1), (-10, 0.1))
        assert tuple(f) == pytest.approx((0.0, 0.0), abs=1e-12)
        assert on == 0


def _star(ox, oy, log_scale, phi, angle, log_short, flip):
    """u at (ox, oy), v at distance 10**log_scale from u in direction phi,
    w at 10**log_short times that distance, turned by the angle at u."""
    la = 10.0 ** log_scale
    lb = la * 10.0 ** log_short
    turn = phi + (-angle if flip else angle)
    u = (ox, oy)
    v = (ox + la * math.cos(phi), oy + la * math.sin(phi))
    w = (ox + lb * math.cos(turn), oy + lb * math.sin(turn))
    return u, v, w


# the angle at u: within 1e-5 of 2*pi/3, near pi (collinear, u in the
# middle) or anywhere; the short edge down to TOL_GEOM_REL times the long
ANGLES = st.one_of(st.floats(-1e-5, 1e-5).map(lambda t: _TWO_THIRDS_PI + t),
                   st.floats(0.0, 1e-6).map(lambda t: math.pi - t),
                   st.floats(0.0, math.pi))
STARS = dict(ox=st.floats(-1e9, 1e9), oy=st.floats(-1e9, 1e9),
             log_scale=st.floats(-6.0, 6.0), phi=st.floats(0.0, 2.0 * math.pi),
             angle=ANGLES, log_short=st.floats(math.log10(TOL_GEOM_REL), 0.0),
             flip=st.booleans())


class TestWideScreen:
    @settings(max_examples=1000, deadline=None, derandomize=True, database=None)
    @given(**STARS)
    def test_screen_agrees_with_fermat(self, **star):
        u, v, w = _star(**star)
        a, b = math.dist(u, v), math.dist(u, w)
        # tree edges are at least TOL_GEOM_REL * diam long (_steiner_heuristic)
        assume(min(a, b) >= TOL_GEOM_REL * max(a, b, math.dist(v, w)))
        for p, q in ((v, w), (w, v)):
            if _wide_at_first(u, p, q):
                center, on = _fermat(u, p, q)
                assert (center, on) == (Point2(*u), 0)
                cur = math.dist(u, p) + math.dist(u, q)
                new = sum(math.dist(center, k) for k in (u, p, q))
                assert cur - new == 0.0

    def test_threshold(self):
        def fires(angle, short=1.0):
            return _wide_at_first(*_star(3.0, -2.0, 0.0, 0.7, angle, math.log10(short), False))

        assert fires(_TWO_THIRDS_PI + 2e-6)
        assert fires(math.pi)
        assert fires(math.pi, TOL_GEOM_REL)
        assert not fires(_TWO_THIRDS_PI)
        assert not fires(_TWO_THIRDS_PI + 5e-7)
        assert not fires(math.pi / 2)


def ref_mst(points):
    """The MST as first written: the dense distance matrix and scipy's
    Kruskal, which breaks length ties by (i, j).  The matrix goes in as a
    sparse array, because scipy reads dense entries below 1e-8 as missing
    edges (so a polygon scaled by 1e-6 got a longer tree)."""
    dm = squareform(pdist(np.asarray(points, dtype=float)))
    tree = minimum_spanning_tree(csr_array(dm)).tocoo()
    return [(int(i), int(j)) for i, j in zip(tree.row, tree.col)], float(tree.data.sum())


def mst_corpus():
    """Regular polygons at three phases, every start vertex of the regular
    pentagon and random hulls up to 886 vertices, each also scaled by 1e-6
    and 1e6 and translated by 1e9."""
    base = [np.array([(math.cos(2 * math.pi * k / n + phase), math.sin(2 * math.pi * k / n + phase))
                      for k in range(n)])
            for n in range(3, 201) for phase in (0.0, 0.3, 1.0)]
    base += [np.roll(regular_ngon(5).coords, -j, axis=0) for j in range(5)]
    rng = np.random.default_rng(886)
    base += [random_convex_polygon(n, rng).coords
             for n in (5, 6, 7, 9, 12, 16, 24, 40, 64, 120, 200, 500, 886)]
    return [pts * scale + shift for pts in base
            for scale, shift in ((1.0, 0.0), (1e-6, 0.0), (1e6, 0.0), (1.0, 1e9))]


def test_prim_matches_kruskal_reference(monkeypatch):
    corpus = mst_corpus()
    assert len(corpus) == 4 * (594 + 5 + 13)
    for pts in corpus:
        assert euclidean_mst(pts) == ref_mst(pts)
    # the star merge reads only the points and the MST's edge set, so the
    # barriers are compared on every copy of every 12th regular polygon
    # (the 3-, 15-, ..., 195-gon at phase 0) and of every other input; the
    # whole corpus would take about four times as long
    valid = [validate_polygon(pts) for k, pts in enumerate(corpus)
             if k >= 4 * 594 or k % (4 * 36) < 4]
    assert len(valid) == 4 * (17 + 5 + 13)
    got = [interior_connected(poly).barrier for poly in valid]
    monkeypatch.setattr(steiner, "euclidean_mst", ref_mst)
    assert got == [interior_connected(poly).barrier for poly in valid]


def test_mst_memory_is_linear():
    # the dense distance matrix of the 8192-gon alone would take 512 MB
    pts = regular_ngon(8192).coords
    tracemalloc.start()
    try:
        edges, _ = euclidean_mst(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(edges) == 8191
    assert peak < 8 << 20


class TestMst:
    def test_square(self):
        edges, length = euclidean_mst([(0, 0), (1, 0), (1, 1), (0, 1)])
        assert length == pytest.approx(3.0, abs=1e-12)
        assert edges == [(0, 1), (0, 3), (1, 2)]

    def test_single_point(self):
        assert euclidean_mst([(2.0, 3.0)]) == ([], 0.0)


class TestSteinerTree:
    def test_unit_square_exact(self):
        nodes, edges, length, exact = steiner_tree(
            [(0, 0), (1, 0), (1, 1), (0, 1)])
        assert exact
        assert length == pytest.approx(1 + SQRT3, abs=1e-9)
        assert len(nodes) == 6 and len(edges) == 5

    def test_equilateral(self):
        _, _, length, exact = steiner_tree([(0, 0), (1, 0), (0.5, SQRT3 / 2)])
        assert exact
        assert length == pytest.approx(SQRT3, abs=1e-9)

    def test_two_points(self):
        nodes, edges, length, exact = steiner_tree([(0, 0), (3, 4)])
        assert exact and length == pytest.approx(5.0)

    def test_four_points_vs_numeric(self):
        # exact 4-terminal answer matches free optimization of two junctions
        rng = np.random.default_rng(31)
        for _ in range(25):
            pts = rng.uniform(-1, 1, (4, 2))

            def topo_len(x, order):
                s1, s2 = x[:2], x[2:]
                q = pts[list(order)]
                return (np.linalg.norm(s1 - q[0]) + np.linalg.norm(s1 - q[1])
                        + np.linalg.norm(s1 - s2)
                        + np.linalg.norm(s2 - q[2]) + np.linalg.norm(s2 - q[3]))

            best = math.inf
            for order in ((0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 1, 2)):
                x0 = np.concatenate([pts[list(order[:2])].mean(axis=0),
                                     pts[list(order[2:])].mean(axis=0)])
                res = minimize(topo_len, x0, args=(order,),
                               method="Nelder-Mead",
                               options={"xatol": 1e-10, "fatol": 1e-12})
                best = min(best, float(res.fun))
            _, mst = euclidean_mst(pts)
            best = min(best, mst)
            _, _, length, exact = steiner_tree(list(map(tuple, pts)))
            assert exact
            assert length <= best + 1e-6
            assert length >= SQRT3 / 2 * mst - 1e-9

    def test_heuristic_sandwich(self):
        rng = np.random.default_rng(32)
        for n in (5, 7, 10, 16):
            for _ in range(10):
                pts = rng.uniform(-1, 1, (n, 2))
                _, mst = euclidean_mst(pts)
                nodes, edges, length, exact = steiner_tree(list(map(tuple, pts)))
                assert not exact
                assert length <= mst + 1e-12
                assert length >= SQRT3 / 2 * mst - 1e-9
                # result is a connected tree over all terminals
                assert len(edges) == len(nodes) - 1
                parent = list(range(len(nodes)))

                def find(i):
                    while parent[i] != i:
                        parent[i] = parent[parent[i]]
                        i = parent[i]
                    return i

                for i, j in edges:
                    parent[find(i)] = find(j)
                assert len({find(i) for i in range(len(nodes))}) == 1
