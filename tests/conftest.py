import math

import numpy as np
import pytest

from opaque import Barrier, random_convex_polygon, validate_polygon

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
