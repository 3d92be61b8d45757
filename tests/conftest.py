import math

import numpy as np
import pytest
from scipy.sparse import csr_array
from scipy.sparse.csgraph import minimum_spanning_tree
from scipy.spatial.distance import pdist, squareform

from opaque import Barrier, random_convex_polygon, validate_polygon
from opaque.geometry import ROUNDING_COVER, Interval, unit_normal
from opaque.verify import projections_cover

RATIO_SEED = 12345
RATIO_COUNT = 1000

# one line per acceptance criterion, printed in the terminal summary
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def square():
    return validate_polygon([(0, 0), (1, 0), (1, 1), (0, 1)])


@pytest.fixture(scope="session")
def ratio_polys():
    """The 1000 seeded random polygons shared by the ratio/property suites."""
    rng = np.random.default_rng(RATIO_SEED)
    polys = []
    for _ in range(RATIO_COUNT):
        n = int(rng.integers(3, 65))
        polys.append(random_convex_polygon(n, rng))
    return polys


@pytest.fixture(scope="session")
def small_polys():
    """200 small random polygons (4-9 vertices) for brute-force cross-checks."""
    rng = np.random.default_rng(777)
    return [random_convex_polygon(int(rng.integers(4, 10)), rng)
            for _ in range(200)]


@pytest.fixture(scope="session")
def medium_polys():
    rng = np.random.default_rng(4242)
    return [random_convex_polygon(int(rng.integers(5, 25)), rng)
            for _ in range(40)]


def regular_ngon(n, r=1.0):
    return validate_polygon([
        (r * math.cos(2 * math.pi * k / n), r * math.sin(2 * math.pi * k / n))
        for k in range(n)])


def ref_mst(points):
    """The MST as first written: the dense distance matrix and scipy's
    Kruskal, which breaks length ties by (i, j).  The matrix goes in as a
    sparse array, because scipy reads dense entries below 1e-8 as missing
    edges (so a polygon scaled by 1e-6 got a longer tree)."""
    dm = squareform(pdist(np.asarray(points, dtype=float)))
    tree = minimum_spanning_tree(csr_array(dm)).tocoo()
    return [(int(i), int(j)) for i, j in zip(tree.row, tree.col)], float(tree.data.sum())


def prim_mst(points):
    """The bit-exact MST reference, for points in any position: Prim's
    algorithm, one vertex per step in O(n^2) time, with edges ordered
    strictly by (length, i, j), length the rounded sqrt(dx*dx + dy*dy).
    Returns the edges (i, j), i < j, ascending, and the lengths summed by
    ``np.sum`` in that order."""
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    # best[v] and end[v]: length and tree end of the lightest edge from v to
    # the tree.  A tree vertex gets NaN coordinates, so no comparison updates
    # it, and best = inf, so the minimum never picks it.
    x = pts[:, 0].copy()
    y = pts[:, 1].copy()
    best = np.full(n, np.inf)
    end = np.zeros(n, dtype=np.intp)
    u = 0
    found = []
    for _ in range(n - 1):
        ux, uy = x[u], y[u]
        x[u] = y[u] = np.nan
        dx = x - ux
        dy = y - uy
        dx *= dx
        dy *= dy
        d = dx + dy
        np.sqrt(d, out=d)
        # a tie with the best edge so far goes to the smaller (i, j)
        for v in np.flatnonzero(d == best).tolist():
            e = int(end[v])
            if (min(u, v), max(u, v)) < (min(e, v), max(e, v)):
                end[v] = u
        closer = d < best
        np.copyto(best, d, where=closer)
        np.copyto(end, u, where=closer)
        w = best.min()
        k = min(np.flatnonzero(best == w).tolist(),
                key=lambda v: (min(v, int(end[v])), max(v, int(end[v]))))
        p = int(end[k])
        found.append((min(k, p), max(k, p), w))
        best[k] = np.inf
        u = k
    found.sort()
    return [(i, j) for i, j, _ in found], float(np.sum([w for _, _, w in found]))


def cover_at(poly, barrier, theta):
    """``projections_cover`` in the one direction theta: (True, None) when
    the barrier's projections cover the polygon's, else (False, the first
    uncovered interval)."""
    lo, hi = projections_cover(poly, barrier, np.array([theta]))
    if math.isnan(lo[0]):
        return True, None
    return False, Interval(float(lo[0]), float(hi[0]))


def truncated(poly, barrier):
    """Prefix of the barrier's polylines, in order, of 0.8 times the
    half-perimeter lower bound, so never opaque."""
    target, acc, out = 0.4 * poly.perimeter, 0.0, []
    for pl in barrier.polylines:
        cur = [pl[0]]
        for a, b in zip(pl[:-1], pl[1:]):
            seg = math.dist(a, b)
            if acc + seg >= target:
                t = (target - acc) / seg
                out.append(tuple(cur) + ((a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1])),))
                return Barrier(tuple(out), "arbitrary")
            acc += seg
            cur.append(b)
        out.append(tuple(cur))
    return Barrier(tuple(out), "arbitrary")


def assert_witness(poly, barrier, report, floor):
    """The report's witness, checked from the inputs alone: its line passes
    more than poly.tol.cover / 2 from every barrier segment's projection and
    from both ends of the polygon's projection, its uncovered interval
    holds the offset, and the interval is at least ``floor`` wide (the
    direction scan's widest gap, or any lower bound), up to the rounding
    of one gap."""
    w = report.witness
    tol = poly.tol.cover
    nrm = unit_normal(w.theta)
    off = w.representative_offset
    pproj = poly.coords @ nrm
    assert pproj.min() + tol / 2 < off < pproj.max() - tol / 2
    seg = np.array(barrier.segments(), dtype=float) @ nrm           # (segments, 2)
    assert not ((seg.min(axis=1) - tol / 2 <= off) & (off <= seg.max(axis=1) + tol / 2)).any()
    assert w.uncovered.lo < off < w.uncovered.hi
    mag = float(np.abs(poly.coords).max()) + poly.diameter
    assert w.uncovered.length >= floor - ROUNDING_COVER * np.finfo(float).eps * mag
