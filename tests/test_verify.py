import math

import numpy as np
import pytest

from opaque import (
    Barrier,
    Point2,
    algo_a1,
    algo_a3,
    algo_a4,
    blocking_margin,
    critical_directions,
    interior_single_arc,
    is_opaque,
    make_fixture,
    random_convex_polygon,
    sampling_oracle,
    validate_polygon,
)
from opaque.geometry import PolygonError
from opaque.verify import projections_cover

from conftest import cover_at, truncated


def boundary_barrier(poly):
    cycle = tuple(poly.vertices) + (poly.vertices[0],)
    return Barrier((cycle,), "single-arc")


def seg_point_distance(p, a, b):
    p, a, b = (np.asarray(q, dtype=float) for q in (p, a, b))
    d = b - a
    denom = float(d @ d)
    t = 0.0 if denom == 0.0 else float(np.clip((p - a) @ d / denom, 0.0, 1.0))
    return float(np.linalg.norm(p - (a + t * d)))


class TestProjectionsCover:
    def test_boundary_always_covers(self, square):
        b = boundary_barrier(square)
        for theta in (0.0, 0.2, math.pi / 4, 1.9, 3.0):
            covered, gap = cover_at(square, b, theta)
            assert covered and gap is None

    def test_bottom_side_only(self, square):
        b = Barrier(((Point2(0, 0), Point2(1, 0)),), "single-arc")
        covered, gap = cover_at(square, b, 0.0)
        assert not covered
        assert gap.lo == pytest.approx(0.0, abs=1e-9)
        assert gap.hi == pytest.approx(1.0, abs=1e-9)

    def test_fixture_corner_star_diagonal_direction(self, square):
        barrier = make_fixture("unit-square").known_barriers[3][0]
        covered, _ = cover_at(square, barrier, math.pi / 4)
        assert covered

    def test_directions_at_once(self, square):
        # one row of first gaps per call, NaN where the direction is covered
        b = Barrier(((Point2(0, 0), Point2(1, 0)),), "single-arc")
        lo, hi = projections_cover(square, b, np.array([0.0, math.pi / 2]))
        assert (lo[0], hi[0]) == pytest.approx((0.0, 1.0), abs=1e-9)
        assert np.isnan(lo[1]) and np.isnan(hi[1])

    def test_two_pieces_with_gap(self, square):
        b = Barrier(((Point2(0, 0), Point2(1, 0)),
                     (Point2(0, 0.7), Point2(1, 0.7))), "arbitrary")
        covered, gap = cover_at(square, b, 0.0)
        assert not covered
        assert (gap.lo, gap.hi) == pytest.approx((0.0, 0.7), abs=1e-9)


class TestCriticalDirections:
    def test_square_boundary(self, square):
        b = boundary_barrier(square)
        crits = critical_directions(square, b)
        want = [0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4]
        assert crits == pytest.approx(want, abs=1e-12)

    def test_diagonal_count(self, square):
        b = Barrier(((Point2(0, 0), Point2(1, 1)),), "single-arc")
        crits = critical_directions(square, b)
        assert len(crits) <= 15
        for want in (0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4):
            assert any(abs(c - want) < 1e-9 for c in crits)

    def test_sorted_and_in_range(self, square):
        barrier = algo_a4(square).barrier
        crits = critical_directions(square, barrier)
        assert crits == sorted(crits)
        assert all(0.0 <= c < math.pi for c in crits)


class TestIsOpaque:
    def test_boundary_opaque(self, ratio_polys):
        for poly in ratio_polys[::97]:
            assert is_opaque(poly, boundary_barrier(poly)).opaque

    def test_two_opposite_sides_not_opaque(self, square):
        b = Barrier(((Point2(0, 0), Point2(0, 1)),
                     (Point2(1, 0), Point2(1, 1))), "arbitrary")
        report = is_opaque(square, b)
        assert not report.opaque
        w = report.witness
        # vertical unblocked lines: witness direction near pi/2
        assert w.theta == pytest.approx(math.pi / 2, abs=1e-6)
        assert 0.0 < w.representative_offset < 1.0 or \
            -1.0 < w.representative_offset < 0.0
        assert w.uncovered.length > square.tol.cover

    def test_witness_line_misses_barrier(self, square, ratio_polys):
        # delete one polyline from a verified barrier and check the witness
        cases = [(square, algo_a4(square).barrier)]
        for poly in ratio_polys[::211]:
            cases.append((poly, algo_a4(poly).barrier))
        for poly, barrier in cases:
            assert is_opaque(poly, barrier).opaque
            for drop in range(len(barrier.polylines)):
                rest = tuple(pl for k, pl in enumerate(barrier.polylines)
                             if k != drop)
                if not rest:
                    continue
                mutant = Barrier(rest, "arbitrary")
                report = is_opaque(poly, mutant)
                if report.opaque:
                    continue
                w = report.witness
                # witness line passes through the polygon's projection span
                nrm = np.array([-math.sin(w.theta), math.cos(w.theta)])
                pproj = poly.coords @ nrm
                assert pproj.min() - 1e-9 <= w.representative_offset <= pproj.max() + 1e-9
                # and misses every remaining segment's projection
                for a, b in mutant.segments():
                    lo, hi = sorted((float(np.array(a) @ nrm),
                                     float(np.array(b) @ nrm)))
                    assert not (lo - poly.tol.cover < w.representative_offset
                                < hi + poly.tol.cover)

    def test_monotone_under_additions(self, square):
        sol = algo_a1(square)
        bigger = Barrier(sol.barrier.polylines
                         + ((Point2(0.2, 0.2), Point2(0.8, 0.3)),), "arbitrary")
        assert is_opaque(square, bigger).opaque

    def test_single_segment_never_opaque(self, square):
        b = Barrier(((Point2(0, 0), Point2(1, 1)),), "single-arc")
        assert not is_opaque(square, b).opaque


@pytest.mark.parametrize("shift", [1e6, 1e9])
def test_far_translated_hulls(shift):
    # projections of coordinates near shift * diameter round by about
    # eps * shift * diameter, which tol.cover's rounding term absorbs
    rng = np.random.default_rng(7)
    direction = np.array([math.cos(1.0), math.sin(1.0)])
    kept = 0
    for _ in range(165):
        base = random_convex_polygon(int(rng.integers(3, 30)), rng)
        try:
            poly = validate_polygon(base.coords + shift * base.diameter * direction)
        except PolygonError:
            continue
        kept += 1
        for method in (algo_a1, algo_a3, algo_a4, interior_single_arc):
            barrier = method(poly).barrier
            assert is_opaque(poly, barrier).opaque
            mutant = truncated(poly, barrier)
            report = is_opaque(poly, mutant)
            assert not report.opaque
            w = report.witness
            nrm = np.array([-math.sin(w.theta), math.cos(w.theta)])
            tol = poly.tol.cover
            pproj = poly.coords @ nrm
            assert pproj.min() + tol < w.representative_offset < pproj.max() - tol
            for a, b in mutant.segments():
                lo, hi = sorted((float(np.array(a) @ nrm), float(np.array(b) @ nrm)))
                assert not lo - tol < w.representative_offset < hi + tol
    assert kept >= 80


class TestBlockingMargin:
    def test_square_boundary_axis(self, square):
        b = boundary_barrier(square)
        assert blocking_margin(square, b, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_bottom_side_vertical(self, square):
        b = Barrier(((Point2(0, 0), Point2(1, 0)),), "single-arc")
        assert blocking_margin(square, b, math.pi / 2) == pytest.approx(0.0, abs=1e-12)

    def test_nonnegative_for_accepted_barriers(self, square, ratio_polys):
        alphas = np.linspace(0, math.pi, 10000, endpoint=False)
        cases = [(square, algo_a1(square).barrier),
                 (square, algo_a4(square).barrier)]
        for poly in ratio_polys[::307]:
            cases.append((poly, algo_a3(poly).barrier))
            cases.append((poly, interior_single_arc(poly).barrier))
        for poly, barrier in cases:
            assert is_opaque(poly, barrier).opaque
            segs = barrier.segments()
            arr = np.array([(a, b) for a, b in segs], dtype=float)
            d = arr[:, 1] - arr[:, 0]
            lens = np.hypot(d[:, 0], d[:, 1])
            angs = np.arctan2(d[:, 1], d[:, 0])
            nrm = np.column_stack([-np.sin(alphas), np.cos(alphas)])
            proj = poly.coords @ nrm.T
            widths = proj.max(axis=0) - proj.min(axis=0)
            total = np.abs(np.sin(alphas[:, None] - angs[None, :])) @ lens
            assert float((total - widths).min()) >= -1e-9
            # spot-check the scalar implementation against the batch
            k = 1234
            assert blocking_margin(poly, barrier, float(alphas[k])) == \
                pytest.approx(float(total[k] - widths[k]), abs=1e-9)


class TestSamplingOracle:
    def test_boundary(self, square):
        assert sampling_oracle(square, boundary_barrier(square), 200, 200)

    def test_two_sides_rejected_fast(self, square):
        b = Barrier(((Point2(0, 0), Point2(0, 1)),
                     (Point2(1, 0), Point2(1, 1))), "arbitrary")
        assert not sampling_oracle(square, b, 100, 100)

    def test_agrees_with_exact_decision(self, square, ratio_polys):
        cases = []
        fix = make_fixture("unit-square")
        for barrier, _, _ in fix.known_barriers:
            cases.append((square, barrier))
        for poly in ratio_polys[::251]:
            cases.append((poly, algo_a1(poly).barrier))
        for poly, barrier in cases:
            exact = is_opaque(poly, barrier).opaque
            sampled = sampling_oracle(poly, barrier, 500, 500)
            # a sampled grid can miss a thin failure but never invent one
            if exact:
                assert sampled
