import itertools
import math

import numpy as np
import pytest

from opaque import (
    Barrier,
    Point2,
    algo_a1,
    algo_a2,
    algo_a3,
    algo_a4,
    algo_a4_candidates,
    half_perimeter_lower_bound,
    interior_connected,
    interior_single_arc,
    is_opaque,
    make_fixture,
    min_perimeter_rectangle,
    min_width,
    u_curve,
    validate_polygon,
)
from opaque.barriers import _u_lengths
from opaque.geometry import polyline_length

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)

_PERM_CACHE = {}


def brute_force_min_path(poly):
    """Exhaustive minimum Hamiltonian path over the polygon vertices."""
    n = len(poly)
    if n not in _PERM_CACHE:
        _PERM_CACHE[n] = np.array(list(itertools.permutations(range(n))))
    perms = _PERM_CACHE[n]
    pts = poly.coords[perms]                    # (P, n, 2)
    d = np.diff(pts, axis=1)
    return float(np.hypot(d[..., 0], d[..., 1]).sum(axis=1).min())


class TestBarrierType:
    def test_kinds(self):
        pl = ((Point2(0, 0), Point2(1, 0)),)
        for kind in ("single-arc", "connected", "arbitrary"):
            assert Barrier(pl, kind).kind == kind
        with pytest.raises(ValueError):
            Barrier(pl, "bogus")

    def test_single_arc_needs_one_polyline(self):
        pls = ((Point2(0, 0), Point2(1, 0)), (Point2(0, 1), Point2(1, 1)))
        with pytest.raises(ValueError):
            Barrier(pls, "single-arc")
        assert Barrier(pls, "arbitrary").length == pytest.approx(2.0)

    def test_connected_requires_connectivity(self):
        pls = ((Point2(0, 0), Point2(1, 0)), (Point2(0, 1), Point2(1, 1)))
        with pytest.raises(ValueError):
            Barrier(pls, "connected")
        # crossing diagonals are connected even without a shared endpoint
        pls = ((Point2(0, 0), Point2(1, 1)), (Point2(0, 1), Point2(1, 0)))
        assert Barrier(pls, "connected").length == pytest.approx(2 * SQRT2)

    def test_length_is_sum_of_polyline_lengths(self):
        # polylines of 2 to 300 points (numpy sums 8 or more segments
        # pairwise), at scales 1e-6..1e6 and offsets up to 1e9: the one-pass
        # length must be the per-polyline sum bit for bit
        rng = np.random.default_rng(448)
        for _ in range(300):
            scale = 10.0 ** rng.uniform(-6.0, 6.0)
            shift = rng.uniform(-1e9, 1e9) if rng.random() < 0.3 else 0.0
            sizes = rng.choice([2, 2, 2, 3, 8, 9, 17, 129, 300], size=int(rng.integers(1, 12)))
            pls = tuple(tuple(map(tuple, rng.standard_normal((int(m), 2)) * scale + shift))
                        for m in sizes)
            barrier = Barrier(pls, "arbitrary")
            assert barrier.length == sum(polyline_length(pl) for pl in barrier.polylines)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Barrier((), "arbitrary")
        with pytest.raises(ValueError):
            Barrier(((Point2(0, 0),),), "arbitrary")

    @pytest.mark.parametrize("polyline", [
        ((0, 0, 0), (1, 1, 1)),          # three coordinates
        ((0,), (1,)),                    # one coordinate
        ((0, 0), (1,)),                  # ragged
        ((0, 0), (1, 1, 1)),
        ((0, 0), ("x", 1)),              # not numbers
        ((0, 0), (object(), 1)),
    ])
    def test_points_must_be_pairs_of_numbers(self, polyline):
        with pytest.raises(ValueError, match=r"barrier points must be \(x, y\) pairs"):
            Barrier((((0, 0), (1, 0)), polyline), "arbitrary")

    def test_one_point_polyline(self):
        with pytest.raises(ValueError, match="each polyline needs at least 2 points"):
            Barrier((((0, 0), (1, 0)), ((1, 1),)), "arbitrary")

    def test_value_semantics(self):
        # tuples, Point2s, lists and arrays give one value; -0.0 equals 0.0
        arc, tail = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)], [(2.0, 2.0), (3.0, 2.0)]
        base = Barrier((tuple(arc), tuple(tail)), "arbitrary")
        array_input = np.array(arc)
        forms = [
            Barrier((tuple(Point2(*p) for p in arc), tuple(Point2(*p) for p in tail)), "arbitrary"),
            Barrier([[list(p) for p in arc], [list(p) for p in tail]], "arbitrary"),
            Barrier((array_input, np.array(tail)), "arbitrary"),
            Barrier((((-0.0, 0.0), (1.0, -0.0), (1.0, 1.0)), tail), "arbitrary"),
        ]
        for barrier in forms:
            assert barrier == base and hash(barrier) == hash(base)
        assert len(set(forms)) == 1
        # the kind and the cut into polylines are part of the value
        assert Barrier((arc,), "single-arc") != Barrier((arc,), "arbitrary")
        assert Barrier((arc[:2], arc[1:]), "arbitrary") != Barrier((arc,), "arbitrary")
        assert base != tuple(base.polylines)
        # array input is copied, and the points cannot be written
        array_input[0] = (5.0, 5.0)
        assert forms[2] == base
        with pytest.raises(ValueError):
            forms[2].all_points()[0, 0] = 5.0
        # polylines are Point2 tuples, built on first use
        assert "polylines" not in vars(forms[2])
        assert forms[2].polylines == (tuple(map(Point2._make, arc)), tuple(map(Point2._make, tail)))
        assert all(type(p) is Point2 for pl in forms[2].polylines for p in pl)
        assert forms[2].sizes == (3, 2)
        with pytest.raises(AttributeError):
            forms[2].kind = "connected"

    @pytest.mark.parametrize("form", ["tuples", "arrays"])
    def test_every_check_fires(self, form):
        as_form = (lambda pls: tuple(np.array(pl, dtype=float) for pl in pls)) if form == "arrays" \
            else (lambda pls: pls)
        seg = ((0, 0), (1, 0))
        cases = [
            ((seg,), "bogus", "unknown barrier kind"),
            ((seg, ((1, 1),)), "arbitrary", "at least 2 points"),
            ((((1, 1), (1, 1)),), "arbitrary", "finite and positive"),
            ((seg, ((0, 1), (1, 1))), "single-arc", "must be one polyline"),
            ((seg, ((0, 1), (1, 1))), "connected", "must touch"),
        ]
        for pls, kind, message in cases:
            with pytest.raises(ValueError, match=message):
                Barrier(as_form(pls), kind)


class TestHalfPerimeter:
    def test_square(self, square):
        assert half_perimeter_lower_bound(square) == pytest.approx(2.0, abs=1e-12)

    def test_hexagon(self):
        hexagon = make_fixture("regular-ngon", n=6).polygon
        assert half_perimeter_lower_bound(hexagon) == pytest.approx(3.0, abs=1e-12)

    def test_pentagon(self):
        poly = make_fixture("pentagon-fig6").polygon
        assert half_perimeter_lower_bound(poly) == pytest.approx(2.957, abs=1e-3)


class TestUCurve:
    def test_square_bottom_baseline(self, square):
        theta, uc = u_curve(square, [0.0])
        assert theta == 0.0 and uc.kind == "single-arc"
        assert uc.length == pytest.approx(3.0, abs=1e-12)
        # left side up, across the top, right side down
        assert [tuple(p) for p in uc.polylines[0]] == pytest.approx(
            [(0, 0), (0, 1), (1, 1), (1, 0)])

    def test_rectangle_long_side(self):
        poly = validate_polygon([(0, 0), (3, 0), (3, 1), (0, 1)])
        _, uc = u_curve(poly, [0.0])
        assert uc.length == pytest.approx(5.0, abs=1e-12)  # d + 2w

    def test_shortest_first_on_ties(self):
        # baselines pi/2 (7 = w + 2d), 0 and pi (both 5 = d + 2w)
        poly = validate_polygon([(0, 0), (3, 0), (3, 1), (0, 1)])
        theta, uc = u_curve(poly, [math.pi / 2, 0.0, math.pi])
        assert theta == 0.0
        assert uc.length == pytest.approx(5.0, abs=1e-12)

    def test_equilateral_base(self):
        poly = validate_polygon([(0, 0), (1, 0), (0.5, SQRT3 / 2)])
        _, uc = u_curve(poly, [0.0])
        # drops are zero; the curve is the two upper sides
        assert uc.length == pytest.approx(2.0, abs=1e-12)

    def test_endpoints_on_baseline(self, medium_polys):
        for poly in medium_polys[:8]:
            for theta in (0.0, 0.7, 2.0, 4.5):
                _, uc = u_curve(poly, [theta])
                nrm = np.array([-math.sin(theta), math.cos(theta)])
                base = float((poly.coords @ nrm).min())
                ends = uc.all_points()[[0, -1]]
                assert np.allclose(ends @ nrm, base, atol=1e-9 * poly.diameter)

    def test_is_barrier(self, square):
        for theta in (0.0, 0.3, math.pi / 2, 3.6):
            _, uc = u_curve(square, [theta])
            assert is_opaque(square, uc).opaque


class TestAlgoA1:
    def test_square(self, square):
        sol = algo_a1(square)
        assert sol.length == pytest.approx(3.0, abs=1e-9)
        assert sol.barrier.kind == "single-arc"
        assert sol.lower_bound == pytest.approx(2.0)
        assert sol.method == "a1"

    def test_equilateral(self):
        poly = validate_polygon([(0, 0), (1, 0), (0.5, SQRT3 / 2)])
        sol = algo_a1(poly)
        assert sol.length == pytest.approx(2.0, abs=1e-9)

    def test_thin_rectangle(self):
        poly = validate_polygon([(0, 0), (100, 0), (100, 1), (0, 1)])
        sol = algo_a1(poly)
        assert sol.length == pytest.approx(102.0, abs=1e-9)  # p/2 + w

    def test_structural_bound(self, ratio_polys):
        for poly in ratio_polys[::7]:
            sol = algo_a1(poly)
            _, w, _ = min_width(poly)
            assert sol.length <= poly.perimeter / 2 + w + 1e-9


class TestAlgoA2:
    def test_square_no_steiner_candidate(self, square):
        sol = algo_a2(square)
        assert sol.length == pytest.approx(3.0, abs=1e-9)
        assert sol.extras.get("b3_length") is None

    def test_equilateral_steiner_wins(self):
        poly = validate_polygon([(0, 0), (1, 0), (0.5, SQRT3 / 2)])
        sol = algo_a2(poly)
        assert sol.length == pytest.approx(SQRT3, abs=1e-9)
        assert sol.barrier.kind == "connected"
        assert sol.extras["b3_length"] == pytest.approx(SQRT3, abs=1e-9)
        assert is_opaque(poly, sol.barrier).opaque

    @pytest.mark.parametrize("wide_deg", [125, 135, 150, 165])
    def test_wide_tangent_triangle(self, wide_deg):
        # The tangent triangle is the triangle itself, and its Steiner tree
        # is the two sides at the wide vertex.  a1's U-curve on the longest
        # side is the same two sides, so the two candidates tie; either way
        # the barrier is those two sides.
        wide = math.radians(wide_deg)
        connected = 0
        for k in range(12):
            t = 0.5 * k
            v, a, b = (0.0, 0.0), (math.cos(t), math.sin(t)), (math.cos(t + wide), math.sin(t + wide))
            poly = validate_polygon([v, a, b])
            sol = algo_a2(poly)
            assert sol.extras["b3_length"] == pytest.approx(2.0, abs=1e-12)
            assert sol.length == pytest.approx(2.0, abs=1e-12)
            segs = [np.array([p, q]) for pl in sol.barrier.polylines
                    for p, q in zip(pl[:-1], pl[1:])]
            assert len(segs) == 2
            for side in (np.array([v, a]), np.array([v, b])):
                assert any(min(np.abs(s - side).max(), np.abs(s - side[::-1]).max()) <= 1e-9
                           for s in segs)
            assert is_opaque(poly, sol.barrier).opaque
            connected += sol.barrier.kind == "connected"
        assert connected > 0

    def test_wide_triangle_kind_rotation_invariant(self):
        # the tie between a1 and the tree is decided with a margin, not by
        # the rounding of two equal lengths, so rotation cannot flip it
        wide = math.radians(150)
        seen = set()
        for k in range(12):
            t = 0.5 * k
            poly = validate_polygon([(0.0, 0.0), (math.cos(t), math.sin(t)),
                                     (math.cos(t + wide), math.sin(t + wide))])
            sol = algo_a2(poly)
            seen.add((sol.barrier.kind, round(sol.length, 12)))
        assert len(seen) == 1

    def test_never_longer_than_a1(self, ratio_polys):
        for poly in ratio_polys[::13]:
            assert algo_a2(poly).length <= algo_a1(poly).length + 1e-9


class TestAlgoA3:
    def test_square(self, square):
        assert algo_a3(square).length == pytest.approx(3.0, abs=1e-9)

    def test_pentagon(self):
        poly = make_fixture("pentagon-fig6").polygon
        sol = algo_a3(poly)
        assert sol.length == pytest.approx(3.3364, abs=5e-3)
        assert sol.barrier.kind == "single-arc"

    def test_thin_rectangle(self):
        poly = validate_polygon([(0, 0), (3, 0), (3, 0.1), (0, 0.1)])
        assert algo_a3(poly).length == pytest.approx(3.2, abs=1e-9)

    def test_dominates_a1(self, ratio_polys):
        for poly in ratio_polys[::7]:
            assert algo_a3(poly).length <= algo_a1(poly).length + 1e-9

    def test_dense_angle_grid(self, square, medium_polys):
        # the discrete 3n candidate baselines attain the dense-grid minimum
        poly_list = [square, make_fixture("pentagon-fig6").polygon,
                     medium_polys[0], medium_polys[1]]
        thetas = np.linspace(0.0, 2 * math.pi, 20000, endpoint=False)
        for poly in poly_list:
            best = algo_a3(poly).length
            grid = _u_lengths(poly, thetas)[3].min()
            assert best <= grid + 1e-7 * poly.diameter


class TestAlgoA4:
    def test_square(self, square):
        sol = algo_a4(square)
        assert sol.length == pytest.approx(2 + 1 / SQRT2, abs=1e-9)
        assert sol.barrier.kind == "arbitrary"
        assert len(sol.barrier.polylines) == 2
        assert is_opaque(square, sol.barrier).opaque

    def test_rectangle(self):
        poly = validate_polygon([(0, 0), (2, 0), (2, 1), (0, 1)])
        sol = algo_a4(poly)
        assert sol.length == pytest.approx(3 + 2 / math.sqrt(5.0), abs=1e-9)
        assert is_opaque(poly, sol.barrier).opaque

    def test_candidate_accounting(self, ratio_polys):
        # the four rotational candidates together retrace the polygon
        # boundary, the rectangle boundary, and four altitudes
        for poly in ratio_polys[::29]:
            rect, alt, cands = algo_a4_candidates(poly)
            assert len(cands) == 4
            total = sum(length for _, length in cands)
            want = poly.perimeter + rect.perimeter + 4 * alt
            assert total == pytest.approx(want, rel=1e-9)
            assert rect.corners == min_perimeter_rectangle(poly).corners

    def test_altitude_formula(self, medium_polys):
        for poly in medium_polys[:10]:
            rect, alt, _ = algo_a4_candidates(poly)
            x, y = rect.side_x, rect.side_y
            assert alt == pytest.approx(x * y / math.hypot(x, y), rel=1e-12)


class TestInteriorSingleArc:
    def test_square(self, square):
        sol = interior_single_arc(square)
        assert sol.length == pytest.approx(3.0, abs=1e-12)
        assert sol.barrier.kind == "single-arc"
        assert len(sol.barrier.polylines[0]) == 4

    def test_triangle(self):
        poly = validate_polygon([(0, 0), (4, 0), (1, 2)])
        sol = interior_single_arc(poly)
        sides = sorted([4.0, math.hypot(3, 2), math.hypot(1, 2)])
        assert sol.length == pytest.approx(sides[0] + sides[1], abs=1e-12)

    def test_matches_brute_force(self, small_polys):
        for poly in small_polys:
            sol = interior_single_arc(poly)
            want = brute_force_min_path(poly)
            assert sol.length == pytest.approx(want, rel=1e-12)

    def test_path_visits_all_vertices(self, small_polys):
        for poly in small_polys[:30]:
            sol = interior_single_arc(poly)
            path = sol.barrier.polylines[0]
            assert len(path) == len(poly)
            assert {tuple(p) for p in path} == {tuple(v) for v in poly.vertices}


class TestInteriorConnected:
    def test_square(self, square):
        sol = interior_connected(square)
        assert sol.length == pytest.approx(1 + SQRT3, abs=1e-9)
        assert sol.barrier.kind == "connected"
        assert not sol.extras.get("heuristic", False)

    def test_equilateral(self):
        poly = validate_polygon([(0, 0), (1, 0), (0.5, SQRT3 / 2)])
        sol = interior_connected(poly)
        assert sol.length == pytest.approx(SQRT3, abs=1e-9)

    def test_hexagon_sandwich(self):
        poly = make_fixture("regular-ngon", n=6).polygon
        sol = interior_connected(poly)
        assert sol.extras.get("heuristic", False)
        assert SQRT3 / 2 * 5 - 1e-9 <= sol.length <= 5.0 + 1e-12

    def test_points_inside_polygon(self, small_polys):
        for poly in small_polys[:40]:
            sol = interior_connected(poly)
            m, o = poly.edge_normals_offsets()
            pts = np.array(sol.barrier.all_points())
            assert float((pts @ m.T - o).min()) >= -1e-7 * poly.diameter

    def test_never_longer_than_single_arc(self, small_polys):
        for poly in small_polys[:60]:
            assert (interior_connected(poly).length
                    <= interior_single_arc(poly).length + 1e-9)


class TestOutputsAreOpaque:
    def test_all_methods_verify(self, ratio_polys):
        methods = (algo_a1, algo_a2, algo_a3, algo_a4,
                   interior_single_arc, interior_connected)
        for poly in ratio_polys[::101]:
            for fn in methods:
                sol = fn(poly)
                assert is_opaque(poly, sol.barrier).opaque, fn.__name__
                assert sol.ratio >= 1.0 - 1e-9
                assert sol.lower_bound == pytest.approx(poly.perimeter / 2)


class TestScaleInvariance:
    @staticmethod
    def perturbed_ngon(n):
        # radii 1e-11 apart: candidate lengths tie to about 1e-11, so an
        # absolute tie tolerance decides the winner at small scales
        rng = np.random.default_rng(n)
        r = 1.0 + 1e-11 * rng.uniform(-1.0, 1.0, n)
        a = 2.0 * math.pi * np.arange(n) / n
        return np.column_stack([r * np.cos(a), r * np.sin(a)])

    @pytest.mark.parametrize("method", [algo_a1, algo_a3, algo_a4, interior_single_arc],
                             ids=["a1", "a3", "a4", "interior-arc"])
    def test_length_scales(self, method):
        for n in range(5, 16):
            pts = self.perturbed_ngon(n)
            poly = validate_polygon(pts)
            want = method(poly).length
            for scale in (1e-6, 1e6):
                got = method(validate_polygon(pts * scale)).length / scale
                assert abs(got - want) <= 1e-14 * poly.diameter, (n, scale)
