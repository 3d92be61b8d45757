"""Canonical polygons, known barriers and reference constants, plus the
seeded random polygon generator used by the benchmark and ratio tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .barriers import Barrier
from .geometry import (
    TOL_GEOM_REL,
    ConvexPolygon,
    Point2,
    TooFewVertices,
    validate_polygon,
)

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)


class UnknownFixture(KeyError):
    pass


class BadFixtureParameter(ValueError):
    """A parameter the named fixture does not take, a vertex count (n, m)
    that is not a positive integer, or a shave outside [0, 1)."""


# the parameters each fixture takes; n and m are vertex counts
PARAMS = {"unit-square": (), "equilateral": (), "regular-ngon": ("n", "r"),
          "pentagon-fig6": (), "reuleaux-poly": ("m", "shave"), "rectangle": ("a", "b")}


@dataclass(frozen=True)
class Fixture:
    name: str
    polygon: ConvexPolygon
    known_barriers: tuple[tuple[Barrier, float, str], ...] = ()
    known_constants: dict = field(default_factory=dict)


# Pentagon used as the hard A3 instance: apex up, flat bottom, wide wings.
PENTAGON_X = 1.4507
PENTAGON_Y = 0.2072
PENTAGON_H = 0.3806


def make_fixture(name: str, **params) -> Fixture:
    """Build a named fixture polygon (and, for the square, its four
    reference barriers).

    Names: unit-square, equilateral, regular-ngon (n, r), pentagon-fig6,
    reuleaux-poly (m, shave), rectangle (a, b).  Raises UnknownFixture for
    another name and BadFixtureParameter for a parameter the fixture does
    not take, a count that is not a positive integer or a shave outside
    [0, 1).
    """
    if name not in PARAMS:
        raise UnknownFixture(name)
    unknown = sorted(set(params) - set(PARAMS[name]))
    if unknown:
        takes = ", ".join(PARAMS[name]) or "none"
        raise BadFixtureParameter(f"{name} takes no parameter {', '.join(unknown)} (takes: {takes})")
    for key in {"n", "m"} & set(params):
        value = params[key]
        if not float(value).is_integer() or value < 1:
            raise BadFixtureParameter(f"{key} must be a positive integer, got {value!r}")
    if not 0.0 <= float(params.get("shave", 0.0)) < 1.0:
        raise BadFixtureParameter(f"shave must be in [0, 1), got {params['shave']!r}")
    if name == "unit-square":
        return _unit_square()
    if name == "equilateral":
        poly = validate_polygon([(0, 0), (1, 0), (0.5, SQRT3 / 2)])
        return Fixture(name, poly, known_constants={"inradius": SQRT3 / 6})
    if name == "regular-ngon":
        n = int(params.get("n", 6))
        r = float(params.get("r", 1.0))
        pts = [(r * math.cos(2 * math.pi * k / n), r * math.sin(2 * math.pi * k / n))
               for k in range(n)]
        return Fixture(f"regular-ngon-{n}", validate_polygon(pts))
    if name == "pentagon-fig6":
        x, y, h = PENTAGON_X, PENTAGON_Y, PENTAGON_H
        poly = validate_polygon([(0, h), (-x, y), (-1, 0), (1, 0), (x, y)])
        return Fixture(name, poly, known_constants={"a3_length": 3.3364})
    if name == "reuleaux-poly":
        m = int(params.get("m", 200))
        shave = float(params.get("shave", 0.0))
        return Fixture(f"reuleaux-poly-{m}", _reuleaux_polygon(m, shave))
    if name == "rectangle":
        a = float(params.get("a", 2.0))
        b = float(params.get("b", 1.0))
        poly = validate_polygon([(0, 0), (a, 0), (a, b), (0, b)])
        return Fixture(f"rectangle-{a}x{b}", poly)


def _unit_square() -> Fixture:
    poly = validate_polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
    p = Point2

    # 1: three sides (the optimal single-arc interior barrier)
    b1 = Barrier(((p(0, 1), p(0, 0), p(1, 0), p(1, 1)),), "single-arc")

    # 2: both diagonals, crossing at the center
    b2 = Barrier(((p(0, 0), p(1, 1)), (p(0, 1), p(1, 0))), "connected")

    # 3: two-junction Steiner tree (the optimal connected interior barrier)
    s1 = p(SQRT3 / 6, 0.5)
    s2 = p(1 - SQRT3 / 6, 0.5)
    b3 = Barrier(
        ((p(0, 0), s1), (p(0, 1), s1), (s1, s2), (s2, p(1, 0)), (s2, p(1, 1))),
        "connected")

    # 4: half diagonal plus a three-corner Fermat star (disconnected)
    q = p(0.5 - SQRT3 / 6, 0.5 - SQRT3 / 6)
    b4 = Barrier(
        ((p(0.5, 0.5), p(1, 1)),
         (p(0, 1), q), (p(0, 0), q), (p(1, 0), q)),
        "arbitrary")

    barriers = (
        (b1, 3.0, "three sides"),
        (b2, 2 * SQRT2, "both diagonals"),
        (b3, 1 + SQRT3, "interior Steiner tree"),
        (b4, SQRT2 + math.sqrt(6.0) / 2, "diagonal half plus corner star"),
    )
    return Fixture("unit-square", poly, barriers,
                   {"jones_lower_bound": 2.0, "best_known": SQRT2 + math.sqrt(6.0) / 2})


def _reuleaux_polygon(m: int, shave: float) -> ConvexPolygon:
    """Polygonal Reuleaux triangle of width 1 (m chord points per arc),
    optionally with the two corners on the base truncated so the minimum
    width becomes 1 - shave, attained across the base direction."""
    b = np.array([0.0, 0.0])
    c = np.array([1.0, 0.0])
    a = np.array([0.5, SQRT3 / 2])
    pts: list[np.ndarray] = []
    # each boundary arc is centered at the opposite corner; counterclockwise:
    # bottom (b to c, around a), right (c to a, around b), left (a to b, around c)
    for center, start, end in ((a, b, c), (b, c, a), (c, a, b)):
        a0 = math.atan2(*(start - center)[::-1])
        a1 = math.atan2(*(end - center)[::-1])
        while a1 <= a0:
            a1 += 2 * math.pi
        ts = np.linspace(a0, a1, m, endpoint=False)
        pts.extend(center + np.column_stack([np.cos(ts), np.sin(ts)]))
    arr = np.array(pts)
    if shave > 0.0:
        arr = _clip(arr, np.array([1.0, 0.0]), shave / 2.0)
        arr = _clip(arr, np.array([-1.0, 0.0]), -(1.0 - shave / 2.0))
    return validate_polygon(arr)


def _clip(pts: np.ndarray, normal: np.ndarray, offset: float) -> np.ndarray:
    """Keep the half-plane normal . q >= offset (Sutherland-Hodgman)."""
    out: list[np.ndarray] = []
    n = len(pts)
    d = pts @ normal - offset
    for i in range(n):
        j = (i + 1) % n
        if d[i] >= 0:
            out.append(pts[i])
        if (d[i] >= 0) != (d[j] >= 0):
            t = d[i] / (d[i] - d[j])
            out.append(pts[i] + t * (pts[j] - pts[i]))
    arr = np.array(out)
    # drop consecutive points the clip puts within validation's duplicate
    # bound (TOL_GEOM_REL times the coordinate span) of each other; a later
    # clip only shrinks the span, so every kept point passes validation
    x, y = arr.T
    tol_dup = TOL_GEOM_REL * float(np.hypot(x.max() - x.min(), y.max() - y.min()))
    keep = [0]
    for i in range(1, len(arr)):
        if np.hypot(*(arr[i] - arr[keep[-1]])) > tol_dup:
            keep.append(i)
    if np.hypot(*(arr[keep[-1]] - arr[keep[0]])) <= tol_dup:
        keep.pop()
    return arr[keep]


def random_convex_polygon(n: int, rng: np.random.Generator) -> ConvexPolygon:
    """Seeded random strictly convex polygon: hull of points on an ellipse
    with random eccentricity, rotation and scale.

    The aspect range keeps the bodies clearly non-round; near-circular
    bodies are exactly the ones where the strip algorithms' guarantees
    against the half-perimeter bound (rather than the optimum) degrade.
    """
    if n < 3:
        raise TooFewVertices(f"need at least 3 vertices, got {n}")
    for _ in range(100):
        angles = np.sort(rng.uniform(0.0, 2 * math.pi, n))
        keep = [0]
        for i in range(1, n):
            if angles[i] - angles[keep[-1]] > 1e-3:
                keep.append(i)
        if (2 * math.pi - (angles[keep[-1]] - angles[keep[0]])) <= 1e-3:
            keep.pop()
        if len(keep) < 3:
            continue
        angles = angles[keep]
        aspect = rng.uniform(0.25, 0.6)
        rot = rng.uniform(0.0, math.pi)
        scale = rng.uniform(0.5, 2.0)
        xs = np.cos(angles)
        ys = aspect * np.sin(angles)
        cr, sr = math.cos(rot), math.sin(rot)
        pts = np.column_stack([xs * cr - ys * sr, xs * sr + ys * cr]) * scale
        try:
            return validate_polygon(pts)
        except ValueError:
            continue
    raise RuntimeError("failed to generate a valid random polygon")
