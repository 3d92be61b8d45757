import math

import numpy as np
import pytest

from opaque import Barrier, random_convex_polygon, validate_polygon
from opaque.geometry import ROUNDING_COVER, Interval, unit_normal
from opaque.verify import _component_points, projections_cover

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


def cover_at(poly, barrier, theta):
    """``projections_cover`` in the one direction theta: (True, None) when
    the barrier's projections cover the polygon's, else (False, the first
    uncovered interval)."""
    lo, hi = projections_cover(poly, *_component_points(barrier), np.array([theta]))
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
