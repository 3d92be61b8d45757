import ast
import math
import re
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial.distance import pdist

from opaque import (
    DuplicateVertex,
    NotStrictlyConvex,
    Point2,
    TooFewVertices,
    WrongOrientation,
    algo_a3,
    is_opaque,
    min_perimeter_rectangle,
    min_width,
    random_convex_polygon,
    validate_polygon,
)
from opaque.cli import METHODS
from opaque.geometry import (
    MIN_SPAN,
    ROUNDING_COVER,
    SNAP_ANG,
    TWO_PI,
    TOL_COVER_REL,
    TOL_GEOM_REL,
    TOL_LEN_REL,
    PolygonError,
    canon_line_angle,
    canon_oriented_angle,
    polyline_length,
    read_points,
)

from conftest import regular_ngon

SQRT3 = math.sqrt(3.0)


class TestValidation:
    def test_square_ok(self):
        poly = validate_polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        assert len(poly) == 4
        assert poly.vertices[2] == Point2(1.0, 1.0)

    def test_too_few(self):
        with pytest.raises(TooFewVertices):
            validate_polygon([(0, 0), (1, 1)])

    def test_collinear(self):
        with pytest.raises(NotStrictlyConvex):
            validate_polygon([(0, 0), (1, 0), (2, 0)])

    def test_reflex(self):
        with pytest.raises(NotStrictlyConvex):
            validate_polygon([(0, 0), (2, 0), (1, 0.1), (2, 2), (0, 2)])

    def test_collinear_triple_on_boundary(self):
        with pytest.raises(NotStrictlyConvex):
            validate_polygon([(0, 0), (1, 0), (2, 0), (2, 2), (0, 2)])

    def test_clockwise_rejected(self):
        with pytest.raises(WrongOrientation):
            validate_polygon([(0, 0), (0, 1), (1, 1), (1, 0)])

    def test_consecutive_duplicate(self):
        with pytest.raises(DuplicateVertex) as exc:
            validate_polygon([(0, 0), (0, 0), (1, 0), (1, 1)])
        assert "0" in str(exc.value)

    def test_nonconsecutive_duplicate(self):
        with pytest.raises(DuplicateVertex):
            validate_polygon([(0, 0), (1, 0), (1, 1), (0, 0.5), (1, 0)])

    @pytest.mark.parametrize("d, dup", [(1e-9, True), (3e-9, False)])
    def test_needle_tips_not_sort_neighbours(self, d, dup):
        # span 2, so tol_dup = 2e-9: at d = 1e-9 the two tips coincide, but
        # sorted by x, (0, -1) and (0, 1) lie between them
        pts = [(-d / 2, 0), (0, -1), (d / 2, 0), (0, 1)]
        if dup:
            with pytest.raises(DuplicateVertex, match="vertices 0 and 2 coincide"):
                validate_polygon(pts)
        else:
            assert algo_a3(validate_polygon(pts)).length == pytest.approx(2.0)

    def test_nonfinite(self):
        with pytest.raises(PolygonError):
            validate_polygon([(0, 0), (1, 0), (math.nan, 1)])

    @pytest.mark.parametrize("pts", [
        [(0, 0), (1e308, 0), (1e308, 1e308), (0, 1e308)],   # span**2 overflows
        [(-1e308, 0), (1e308, 0), (0, 1e308)],              # the x span overflows
        [(0, 0), (1e150, 0), (0, 1e150)],
    ])
    def test_overflowing_span_rejected(self, pts):
        # finite coordinates whose span is above MAX_SPAN fail by name, before
        # any arithmetic that could overflow; warnings are errors here, so
        # this also checks that none is raised
        with pytest.raises(PolygonError, match="span .*, above 1e\\+150") as exc:
            validate_polygon(pts)
        assert type(exc.value) is PolygonError

    def test_span_below_bound_validates(self):
        # just under the bound, the set-up and its tolerances stay finite
        poly = validate_polygon([(0, 0), (7e149, 0), (0, 7e149)])
        assert math.isfinite(poly.diameter) and all(map(math.isfinite, poly.tol))
        assert poly.perimeter == pytest.approx(7e149 * (2 + math.sqrt(2)))

    def test_tiny_span_rejected(self):
        # below MIN_SPAN the turns and TOL_AREA_REL * span**2 underflow to 0,
        # and a valid heptagon would read as "collinear or reflex turn"
        with pytest.raises(PolygonError, match="span .*, below 1.49167e-148") as exc:
            validate_polygon(regular_ngon(7).coords * 1e-165)
        assert type(exc.value) is PolygonError

    def test_span_at_lower_bound_verifies(self):
        hept = regular_ngon(7).coords
        pts = hept * (MIN_SPAN / math.hypot(*np.ptp(hept, axis=0)))
        assert math.hypot(*np.ptp(pts, axis=0)) == MIN_SPAN
        poly = validate_polygon(pts)
        for method in METHODS.values():
            assert is_opaque(poly, method(poly).barrier).opaque

    def test_far_translated_hulls_validate(self):
        # the shoelace sum on raw coordinates 1e9 diameters from the origin
        # cancels to noise and rejected about a third of these as clockwise
        rng = np.random.default_rng(2024)
        for _ in range(50):
            poly = random_convex_polygon(int(rng.integers(3, 30)), rng)
            far = validate_polygon(poly.coords + 1e9 * poly.diameter)
            assert len(far) == len(poly)

    @pytest.mark.parametrize("turns", [(5, 2), (7, 2), (7, 3), (9, 4)])
    def test_star_polygon_rejected(self, turns):
        # every turn is left and the area is positive, but the boundary
        # winds around `wind` times: its normal angles span 2*pi*wind
        n, wind = turns
        star = [(math.cos(2 * math.pi * wind * k / n), math.sin(2 * math.pi * wind * k / n))
                for k in range(n)]
        with pytest.raises(NotStrictlyConvex, match="winds around more than once"):
            validate_polygon(star)

    def test_normal_angles_span_less_than_two_pi(self):
        # a last turn at the convexity tolerance still spans less than 2*pi
        for poly in [regular_ngon(n) for n in (3, 4, 1000, 16384)] + [
                validate_polygon([(0, 0), (1, 0), (1, 1), (-1, 1e-11)])]:
            span = poly.normal_angles[-1] - poly.normal_angles[0]
            assert 0.0 < span < 2 * math.pi

    @pytest.mark.parametrize("points", [
        [(0, 0, 0), (1, 0, 0), (0, 1, 0)],     # extra coordinates
        [(0,), (1,), (2,)],                    # one coordinate
        [(0, 0), (1, 0), (0,)],                # ragged
        [0, 1, 2],                             # numbers, not points
        [[]],
        np.zeros((4, 2, 1)),
        [("a", 0), (1, 0), (0, 1)],
    ], ids=["3d", "1d", "ragged", "flat", "empty-point", "3-axis", "text"])
    def test_input_not_pairs(self, points):
        with pytest.raises(PolygonError, match=r"\(x, y\) pairs"):
            validate_polygon(points)

    def test_empty_input(self):
        for points in ([], (), np.empty((0, 2))):
            with pytest.raises(TooFewVertices, match="got 0"):
                validate_polygon(points)

    def test_input_array_not_shared(self):
        arr = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
        poly = validate_polygon(arr)
        arr[0] = (5.0, 5.0)
        assert poly.coords[0].tolist() == [0.0, 0.0]

    def test_input_order_preserved(self):
        pts = [(1, 0), (1, 1), (0, 1), (0, 0)]
        poly = validate_polygon(pts)
        assert [tuple(v) for v in poly.vertices] == [(1.0, 0.0), (1.0, 1.0),
                                                     (0.0, 1.0), (0.0, 0.0)]


def array_read(points, what="points", error=ValueError):
    """``read_points`` as one ``np.array`` call, as it read every input
    before its entry-by-entry path."""
    try:
        arr = np.array(points, dtype=float)
    except (TypeError, ValueError) as exc:
        raise error(f"{what} must be (x, y) pairs of numbers: {exc}") from None
    if arr.shape == (0,):
        arr = arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise error(f"{what} must be (x, y) pairs, got an array of shape {arr.shape}")
    return arr


class TestReadPoints:
    @pytest.mark.parametrize("points", [
        ((0.5, -1.25), (3.0, 4.0), (1e300, -5e-324)),
        [[0.5, -1.25], [3.0, 4.0]],
        [Point2(0.1, 0.2), Point2(-3.5, 7.0)],
        [(1, 2), (2 ** 60 + 1, -3)],
        [(True, False), (1, 0.5)],
        [(np.float32(0.1), np.int64(7)), (np.float64(0.3), np.uint8(200))],
        [(Fraction(1, 3), Fraction(-2, 7)), (Fraction(10 ** 30, 3), 1)],
        [(Decimal("0.1"), Decimal("1e-400")), (Decimal(2), 3)],
        [("1.5", "-2e-3"), ("7", " 8 ")],
        [(0, 1), [2, 3], Point2(4, 5)],
        [],
        (),
    ], ids=["tuples", "lists", "Point2", "ints", "bools", "numpy-scalars",
            "Fraction", "Decimal", "numeric-strings", "mixed", "empty-list", "empty-tuple"])
    @pytest.mark.parametrize("copies", [1, 8], ids=["few", "entrywise"])
    def test_equals_np_array_bit_for_bit(self, points, copies):
        # eight copies reach the entry-by-entry read's 16 points
        points = points * copies
        got, want = read_points(points), array_read(points)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert not got.flags.writeable

    @pytest.mark.parametrize("make", [
        lambda: [(0, 0, 0), (1, 0, 0), (0, 1, 0)],
        lambda: [(0,), (1,), (2,)],
        lambda: [(0, 0), (1, 0), (0,)],
        lambda: [(0, 0), (1, 0), ("x", 1)],
        lambda: [(0, 0), (1, 0), (object(), 1)],
        lambda: [0, 1, 2],
        lambda: [[]],
        lambda: [("a", 0), (1, 0), (0, 1)],
        lambda: ["12", "34", "56"],
        lambda: [b"12", b"34", b"56"],
        lambda: [{0: 1, 1: 2}, {0: 3, 1: 4}, {0: 5, 1: 6}],
        lambda: [{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}],
        lambda: iter([(0, 0), (1, 0), (0, 1)]),
        lambda: ((x, x * x) for x in range(3)),
        lambda: [(0, 0), (1, 0), ((0, 1), 1)],
    ], ids=["3d", "1d", "ragged", "text", "object", "flat", "empty-point",
            "text-first", "str-points", "bytes-points", "dict-points", "set-points",
            "iterator", "generator", "nested"])
    @pytest.mark.parametrize("lead", [0, 16], ids=["few", "entrywise"])
    def test_errors_unchanged(self, make, lead):
        # 16 good points ahead of a list reach the entry-by-entry read
        def points():
            bad = make()
            return [(0.5, 0.25)] * lead + bad if lead and isinstance(bad, list) else bad

        for what, error in (("terminals", ValueError), ("vertices", PolygonError)):
            with pytest.raises(error) as want:
                array_read(points(), what, error)
            with pytest.raises(error) as got:
                read_points(points(), what, error)
            assert type(got.value) is type(want.value)
            assert str(got.value) == str(want.value)
        with pytest.raises(PolygonError) as got:
            validate_polygon(points())
        assert str(got.value) == str(want.value)


class TestBasics:
    def test_perimeter_square(self, square):
        assert square.perimeter == pytest.approx(4.0, abs=1e-12)

    def test_diameter_matches_brute_force(self, medium_polys):
        for poly in medium_polys:
            assert poly.diameter == pytest.approx(
                float(pdist(poly.coords).max()), rel=1e-12)

    def test_edge_frame_is_read_only(self, square):
        # one frame per polygon, shared by every caller; the inward normals
        # and offsets and the cumulative lengths are built on first use
        poly = validate_polygon(square.coords)
        assert not {"_inward", "cumulative_lengths"} & set(vars(poly))
        m, o = poly.edge_normals_offsets()
        cum = poly.cumulative_lengths
        assert poly.edge_normals_offsets()[0] is m and poly.cumulative_lengths is cum
        for arr in (m, o, poly.normal_angles, poly.edge_lengths, cum, poly.coords):
            with pytest.raises(ValueError):
                arr[0] = 0.0
        assert m[0].tolist() == [0.0, 1.0]
        assert cum.tolist() == [0.0, 1.0, 2.0, 3.0]
        assert poly.edge_lengths.tolist() == [1.0, 1.0, 1.0, 1.0]

    def test_polyline_length(self):
        assert polyline_length([(0, 0), (1, 0), (1, 1)]) == pytest.approx(2.0)


# Inputs of the tolerance-table tests sit on this grid, so a translation by
# up to 2**33 (in the grid's units of 2**-19 that is 2**52) is exact and
# moves no edge vector, hence no diameter, by a bit.
GRID = 2.0 ** -19
SRC = Path(__file__).resolve().parent.parent / "src" / "opaque"


def _table_cases():
    """(base, shifted, scale, polygon) for random hulls, regular n-gons and
    thin polygons on the grid: shifted is base translated exactly by 0,
    1e3 or 1e9 diameters, and polygon is shifted scaled by a power of two
    from 2**-20 to 2**20."""
    rng = np.random.default_rng(23)
    shapes = [random_convex_polygon(int(rng.integers(3, 9)), rng).coords for _ in range(6)]
    shapes += [regular_ngon(n).coords for n in (3, 4, 7, 64)]
    t = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)
    shapes += [np.array([(-1.0, 0.0), (0.0, -1e-4), (1.0, 0.0), (0.0, 1e-4)]),
               np.column_stack([np.cos(t), 1e-3 * np.sin(t)])]
    out = []
    for i, pts in enumerate(shapes):
        pts = np.round(pts / GRID) * GRID
        base = validate_polygon(pts)
        for log_shift in (None, 3, 9):
            away = np.array([math.cos(i), math.sin(i)])
            shift = 0.0 if log_shift is None else np.round(
                10.0 ** log_shift * base.diameter * away / GRID) * GRID
            shifted = validate_polygon(pts + shift)
            for k in (-20, -7, 0, 11, 20):
                out.append((base, shifted, 2.0 ** k, validate_polygon((pts + shift) * 2.0 ** k)))
    return out


class TestTolerances:
    """``ConvexPolygon.tol``, the one table of polygon-scaled tolerances."""

    @pytest.fixture(scope="class")
    def cases(self):
        return _table_cases()

    def test_fields_are_their_documented_expressions(self, cases):
        eps = np.finfo(float).eps
        for _, _, _, poly in cases:
            d, mag = poly.diameter, float(np.abs(poly.coords).max())
            assert poly.tol is poly.tol
            assert tuple(poly.tol) == (TOL_GEOM_REL * d, TOL_LEN_REL * d,
                                       TOL_COVER_REL * d + ROUNDING_COVER * eps * (mag + d),
                                       TOL_LEN_REL * d + 4.0 * eps * mag)
            assert all(type(f) is float for f in poly.tol)

    def test_scale_exactly_and_geom_length_ignore_translation(self, cases):
        for base, shifted, scale, poly in cases:
            assert tuple(poly.tol) == tuple(scale * f for f in shifted.tol)
            assert (shifted.tol.geom, shifted.tol.length) == (base.tol.geom, base.tol.length)

    def test_cover_and_tie_exceed_relative_parts_by_rounding_terms(self, cases):
        # exact arithmetic; u bounds the relative error of each float operation
        eps = Fraction(np.finfo(float).eps)
        u = eps / 2
        for _, _, _, poly in cases:
            d, mag = Fraction(poly.diameter), Fraction(float(np.abs(poly.coords).max()))
            for got, rel, rounding in (
                    (poly.tol.cover, Fraction(TOL_COVER_REL) * d,
                     Fraction(ROUNDING_COVER) * eps * (mag + d)),
                    (poly.tol.tie, Fraction(TOL_LEN_REL) * d, 4 * eps * mag)):
                assert abs(Fraction(got) - rel - rounding) <= 4 * u * (rel + rounding)


def _tolerance_builds(tree: ast.AST) -> list[int]:
    """Lines of ``tree`` that multiply a TOL_*_REL name by a ``.diameter``
    attribute, or call ``finfo`` (the machine epsilon of a rounding term)."""
    def holds(node, test):
        return any(test(n) for n in ast.walk(node))

    def rel(n):
        return isinstance(n, ast.Name) and re.fullmatch(r"TOL_\w+_REL", n.id) is not None

    def diameter(n):
        return isinstance(n, ast.Attribute) and n.attr == "diameter"

    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            if any(holds(a, rel) and holds(b, diameter)
                   for a, b in ((node.left, node.right), (node.right, node.left))):
                out.append(node.lineno)
        elif isinstance(node, ast.Call) and "finfo" in (getattr(node.func, "attr", None),
                                                          getattr(node.func, "id", None)):
            out.append(node.lineno)
    return out


def test_only_geometry_builds_polygon_tolerances():
    """Polygon-scaled tolerances are read from ``poly.tol``; no other
    module builds one from a diameter or a machine epsilon."""
    found = {f.name: _tolerance_builds(ast.parse(f.read_text()))
             for f in sorted(SRC.glob("*.py")) if f.name != "geometry.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}
    probe = "x = TOL_LEN_REL * poly.diameter + np.finfo(float).eps"
    assert _tolerance_builds(ast.parse(probe)) == [1, 1]


def ref_canon_angle(theta, period):
    """The scalar canonicalization: an exact ``math.fmod``, plus the period
    when negative, 0.0 within SNAP_ANG below the period."""
    t = math.fmod(theta, period)
    if t < 0.0:
        t += period
    if t >= period - SNAP_ANG:
        t = 0.0
    return t


@pytest.mark.parametrize("canon, period", [(canon_line_angle, math.pi),
                                           (canon_oriented_angle, TWO_PI)])
def test_canon_angle_matches_scalar_fmod(canon, period):
    multiples = np.arange(-16, 17) * math.pi
    angles = np.concatenate([
        np.random.default_rng(3).uniform(-50.0, 50.0, 100_000),
        multiples, multiples + 1e-16, multiples - 1e-16,
        np.nextafter(multiples, np.inf), np.nextafter(multiples, -np.inf),
        [math.pi - SNAP_ANG, TWO_PI - SNAP_ANG, -(math.pi - SNAP_ANG), 0.0, -0.0]])
    want = np.array([ref_canon_angle(t, period) for t in angles.tolist()])
    got = canon(angles)
    # int64 views compare the bits, so -0.0 differs from 0.0
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
    scalars = np.array([canon(t) for t in angles[-200:].tolist()])
    np.testing.assert_array_equal(scalars.view(np.int64), want[-200:].view(np.int64))
    assert type(canon(1.0)) is float


class TestMinWidth:
    def test_square(self, square):
        alpha, w, strip = min_width(square)
        assert w == pytest.approx(1.0, abs=1e-12)
        assert alpha == pytest.approx(0.0, abs=1e-12)  # smallest-angle tie
        assert strip.width == pytest.approx(1.0, abs=1e-12)

    def test_thin_rectangle(self):
        poly = validate_polygon([(0, 0), (5, 0), (5, 1), (0, 1)])
        alpha, w, strip = min_width(poly)
        assert w == pytest.approx(1.0, abs=1e-12)
        assert alpha == pytest.approx(math.pi / 2, abs=1e-12)

    def test_equilateral_height(self):
        poly = validate_polygon([(0, 0), (1, 0), (0.5, SQRT3 / 2)])
        _, w, _ = min_width(poly)
        assert w == pytest.approx(SQRT3 / 2, abs=1e-12)

    def test_dense_grid_oracle(self, medium_polys):
        alphas = np.linspace(0, math.pi, 4001, endpoint=False)
        for poly in medium_polys[:15]:
            _, w, _ = min_width(poly)
            u = np.column_stack([np.cos(alphas), np.sin(alphas)])
            proj = poly.coords @ u.T
            grid_min = float((proj.max(axis=0) - proj.min(axis=0)).min())
            # grid minimum can only overestimate the true minimum, and by at
            # most one angular step times the Lipschitz constant (the diameter)
            assert w <= grid_min + 1e-12
            assert grid_min <= w + poly.diameter * (math.pi / 4001)


class TestMinPerimeterRectangle:
    def test_square(self, square):
        rect = min_perimeter_rectangle(square)
        assert rect.perimeter == pytest.approx(4.0, abs=1e-12)
        assert sorted((rect.side_x, rect.side_y)) == pytest.approx([1.0, 1.0])

    def test_hexagon(self):
        # flush with one pair of opposite edges: sides sqrt(3) and 2
        rect = min_perimeter_rectangle(regular_ngon(6))
        assert rect.perimeter == pytest.approx(2 * (2 + SQRT3), abs=1e-9)

    def test_contains_polygon(self, medium_polys):
        for poly in medium_polys:
            rect = min_perimeter_rectangle(poly)
            c = np.array(rect.corners)
            u = c[1] - c[0]
            v = c[3] - c[0]
            rel = poly.coords - c[0]
            s = rel @ u / (u @ u)
            t = rel @ v / (v @ v)
            assert s.min() >= -1e-9 and s.max() <= 1 + 1e-9
            assert t.min() >= -1e-9 and t.max() <= 1 + 1e-9

    def test_dense_grid_oracle(self, medium_polys):
        alphas = np.linspace(0, math.pi / 2, 2001, endpoint=False)
        u = np.column_stack([np.cos(alphas), np.sin(alphas)])
        n = np.column_stack([-np.sin(alphas), np.cos(alphas)])
        for poly in medium_polys[:15]:
            rect = min_perimeter_rectangle(poly)
            s = poly.coords @ u.T
            t = poly.coords @ n.T
            pers = (s.max(axis=0) - s.min(axis=0)) + (t.max(axis=0) - t.min(axis=0))
            grid_min = 2 * float(pers.min())
            assert rect.perimeter <= grid_min + 1e-12
            assert grid_min <= rect.perimeter + 4 * poly.diameter * (math.pi / 2 / 2001)


def test_cauchy_width_integral(medium_polys):
    """Mean width over all directions times pi equals the perimeter."""
    alphas = np.linspace(0, math.pi, 20001)
    for poly in medium_polys[:10]:
        u = np.column_stack([np.cos(alphas), np.sin(alphas)])
        proj = poly.coords @ u.T
        widths = proj.max(axis=0) - proj.min(axis=0)
        integral = float(np.trapezoid(widths, alphas))
        assert integral == pytest.approx(poly.perimeter, rel=1e-6)
