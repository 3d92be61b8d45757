"""Peak memory of the constructions and the verifier on large polygons.

The support oracle keeps every kernel scan at O(n) memory; an n x n
projection matrix at n = 16384 alone takes 2.1 GB.  The verifier tests
directions in fixed-size blocks, so its projection arrays stay bounded
however many critical directions there are, and a barrier with a
polygon vertex outside its hull, or whose component hulls touch and
whose hull holds the polygon, needs no directions at all: the hull test
is O(n + m).  The interior-arc DP
keeps two float rows, blocks of about ROW_BLOCK elements, and 2n bytes of
flags for each row where a jump wins: on a regular polygon that is one
row, and a 1500-vertex ellipse of aspect 1e-3 keeps every row, the 2n^2
bytes the full choice tables took.  Polygon set-up (validation, the diameter, the minimum width)
keeps a few O(n) arrays: a closed copy of the vertices and one far vertex
window of three per edge.  Peaks are measured with tracemalloc and never
timed: tracing slows Python loops many fold, so times are taken untraced.
"""

import math
import time
import tracemalloc

import numpy as np
import pytest

from opaque import (
    Barrier,
    algo_a1,
    algo_a2,
    algo_a3,
    algo_a4,
    interior_connected,
    interior_single_arc,
    is_opaque,
    make_fixture,
    min_width,
    random_convex_polygon,
    validate_polygon,
)

from conftest import assert_witness, regular_ngon, truncated

MB = 1 << 20

LARGE = {
    "ngon-16384": lambda: regular_ngon(16384),
    "reuleaux-16383": lambda: make_fixture("reuleaux-poly", m=5461).polygon,
}


def peak_bytes(fn, poly):
    tracemalloc.start()
    try:
        fn(poly)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("shape", sorted(LARGE))
def test_polygon_setup_peak_memory(shape):
    # each step measured alone: about 2-3 MB each at 16384 vertices, where
    # a window of five far vertices against both edge ends took 5.5 MB for
    # the diameter alone
    points = LARGE[shape]().coords.tolist()
    assert peak_bytes(validate_polygon, points) < 4 * MB
    poly = validate_polygon(points)
    assert peak_bytes(lambda p: p.diameter, poly) < 4 * MB
    assert peak_bytes(min_width, poly) < 4 * MB


@pytest.mark.parametrize("method", [algo_a1, algo_a2, algo_a3, algo_a4],
                         ids=["a1", "a2", "a3", "a4"])
@pytest.mark.parametrize("shape", sorted(LARGE))
def test_large_polygon_peak_memory(shape, method):
    poly = LARGE[shape]()
    assert len(poly) in (16383, 16384)
    assert peak_bytes(method, poly) < 64 * MB


def test_interior_arc_peak_memory():
    # a jump wins only in the last row: two float rows, the walk's blocks
    # and one flag row (2.1 MB); the two n x n bool choice tables alone
    # took 128 MB
    assert peak_bytes(interior_single_arc, regular_ngon(8192)) < 8 * MB


def test_interior_arc_thin_peak_memory():
    # a jump wins in every row: the flag rows are the 2n^2 bytes of the
    # full choice tables (7.6 MB); beyond them, blocks of ROW_BLOCK floats
    # and one (2, n) array per row
    n = 2000
    t = 0.1 + 2.0 * math.pi * np.arange(n) / n
    poly = validate_polygon(np.column_stack([np.cos(t), 1e-3 * np.sin(t)]))
    assert interior_single_arc(poly).extras["jump_rows"] == n - 2
    assert peak_bytes(interior_single_arc, poly) < 2 * n * n + 2 * MB


def test_a2_odd_ngon_peak_memory():
    # every edge of an odd regular polygon touches its incircle
    assert peak_bytes(algo_a2, regular_ngon(401)) < 32 * MB
    # the tangent-triangle pick keeps a few lists of t floats and ints
    assert peak_bytes(algo_a2, regular_ngon(16385)) < 64 * MB


@pytest.mark.parametrize("method", [algo_a3, interior_single_arc], ids=["a3", "interior-arc"])
def test_verifier_peak_memory(method):
    # about 83k directions; all at once the projections took 283-370 MB
    poly = random_convex_polygon(300, np.random.default_rng(300))
    barrier = method(poly).barrier
    assert peak_bytes(lambda p: is_opaque(p, barrier), poly) < 64 * MB


def test_verifier_interior_tree_1000():
    # 855 hull vertices and a tree of 854 edges: the direction scan would
    # test about 730k directions
    poly = random_convex_polygon(1000, np.random.default_rng(1000))
    barrier = interior_connected(poly).barrier
    t0 = time.perf_counter()
    report = is_opaque(poly, barrier)
    assert time.perf_counter() - t0 < 2.0
    assert report.opaque and report.certificate == "hull"
    assert peak_bytes(lambda p: is_opaque(p, barrier), poly) < 64 * MB


@pytest.mark.parametrize("shape", sorted(LARGE))
def test_verifier_large_polygon_peak_memory(shape):
    poly = LARGE[shape]()
    barrier = algo_a3(poly).barrier
    report = is_opaque(poly, barrier)
    assert report.opaque and report.certificate == "hull"
    assert peak_bytes(lambda p: is_opaque(p, barrier), poly) < 64 * MB


@pytest.mark.parametrize("shape", sorted(LARGE))
def test_verifier_a4_large_polygon(shape):
    # a4's two components touch, so its barrier takes the hull certificate
    # too, where the direction scan would pair every two of its points
    poly = LARGE[shape]()
    barrier = algo_a4(poly).barrier
    report = is_opaque(poly, barrier)
    assert report.opaque and report.certificate == "hull"
    assert peak_bytes(lambda p: is_opaque(p, barrier), poly) < 64 * MB


def test_a1_and_verify_16384_read_only_the_array():
    # the U-curve goes from the scan to the verdict as one (m, 2) array:
    # no Point2 polylines are built.  Measured on a 2-vCPU host: 34-58 ms
    # and a 2.69 MB peak (a1's own scan; 3.2 MB when every barrier built
    # its Point2 tuples)
    poly = regular_ngon(16384)
    poly.diameter

    def a1_then_verify(p):
        barrier = algo_a1(p).barrier
        return barrier, is_opaque(p, barrier)

    a1_then_verify(poly)
    t0 = time.perf_counter()
    barrier, report = a1_then_verify(poly)
    assert time.perf_counter() - t0 < 0.25
    assert report.opaque and report.certificate == "hull"
    assert "polylines" not in vars(barrier)
    assert peak_bytes(a1_then_verify, poly) < 3 * MB


def test_interior_tree_16384():
    # the MST comes from the convex Delaunay triangulation: Prim's O(n^2)
    # scan took 1.6-2.1 s of the 2.3 s.  Measured on a 2-vCPU host: 0.30-0.48 s
    # and a 12.6-12.7 MB peak
    poly = regular_ngon(16384)
    poly.diameter
    t0 = time.perf_counter()
    sol = interior_connected(poly)
    assert time.perf_counter() - t0 < 1.0
    assert sol.barrier.kind == "connected" and len(sol.barrier.sizes) == 16383
    assert peak_bytes(interior_connected, poly) < 24 * MB


def crossing_chain(k):
    """k segments, each crossing the next one and sharing no point with
    it: segment i runs from (0.9i, -+0.1) to (0.9i + 1, +-0.1)."""
    return [((0.9 * i, -0.1 * (-1) ** i), (0.9 * i + 1.0, 0.1 * (-1) ** i)) for i in range(k)]


def test_connected_check_crossing_chain():
    # every segment is its own group, and only crossings join them: the
    # check tests segment pairs as arrays, PAIR_BLOCK at a time.  Pair by
    # pair in Python it took 7.2 s at 400 segments; measured on a 2-vCPU
    # host: 0.09 s at 400, and a 0.8 MB peak at 2000
    chain = crossing_chain(400)
    Barrier(chain, "connected")
    t0 = time.perf_counter()
    Barrier(chain, "connected")
    assert time.perf_counter() - t0 < 0.5
    with pytest.raises(ValueError, match="must touch"):
        Barrier(chain[:200] + chain[201:], "connected")
    long_chain = crossing_chain(2000)
    assert peak_bytes(lambda pls: Barrier(pls, "connected"), long_chain) < 16 * MB


def sampled_gap(poly, pts, count):
    """Largest h_P(u) - h_B(u) over ``count`` evenly spaced directions u, h
    being the support functions of the polygon and of the points ``pts``:
    a lower bound on the polygon's largest distance outside their hull."""
    best = -math.inf
    for ang in np.array_split(np.linspace(0.0, 2.0 * math.pi, count, endpoint=False), count // 32):
        u = np.vstack([np.cos(ang), np.sin(ang)])
        best = max(best, float(((poly.coords @ u).max(axis=0) - (pts @ u).max(axis=0)).max()))
    return best


def test_verifier_rejects_truncated_a3_16384():
    # a polygon vertex outside the barrier's hull rejects with no direction
    # tested; the direction scan took 1.3-1.7 s on a truncated tree of 855
    # vertices and grows as the cube of the vertex count
    poly = regular_ngon(16384)
    barrier = truncated(poly, algo_a3(poly).barrier)
    t0 = time.perf_counter()
    report = is_opaque(poly, barrier)
    assert time.perf_counter() - t0 < 1.0
    assert (report.opaque, report.certificate, report.directions_tested) == (False, "hull", 0)
    assert_witness(poly, barrier, report, sampled_gap(poly, barrier.all_points(), 256))
    assert peak_bytes(lambda p: is_opaque(p, barrier), poly) < 16 * MB
