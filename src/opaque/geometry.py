"""Planar primitives and convex-polygon computations.

Everything downstream (barrier construction, verification) consumes the
operations here: polygon validation, widths, rotating-calipers style
enumerations, projections.

Conventions:
  * polygons are counterclockwise vertex cycles, strictly convex;
  * undirected line directions live in [0, pi), oriented directions in
    [0, 2*pi);
  * the projection axis for direction theta is the unit normal
    n(theta) = (-sin theta, cos theta).

Tolerances scale with the polygon diameter so behavior is size invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

TWO_PI = 2.0 * math.pi

# Relative tolerance factors (scaled by diameter, or diameter**2 for areas).
TOL_GEOM_REL = 1e-9
TOL_TOUCH_REL = 1e-7
TOL_AREA_REL = 1e-12
TOL_ANG = 1e-12


class PolygonError(ValueError):
    """Base class for polygon validation failures."""


class TooFewVertices(PolygonError):
    pass


class NotStrictlyConvex(PolygonError):
    pass


class WrongOrientation(PolygonError):
    pass


class DuplicateVertex(PolygonError):
    pass


class InconsistentIncircle(PolygonError):
    """Numerical-tolerance failure in the incircle touching-edge analysis."""


class Point2(NamedTuple):
    x: float
    y: float


def canon_line_angle(theta: float) -> float:
    """Normalize an undirected line direction into [0, pi)."""
    t = math.fmod(theta, math.pi)
    if t < 0.0:
        t += math.pi
    if t >= math.pi - 1e-15:
        t = 0.0
    return t


def canon_oriented_angle(theta):
    """Normalize an oriented direction, or an array of them, into [0, 2*pi)."""
    t = np.fmod(theta, TWO_PI)
    t = np.where(t < 0.0, t + TWO_PI, t)
    t = np.where(t >= TWO_PI - 1e-15, 0.0, t)
    return t if t.ndim else float(t)


def cross2(a, b):
    """z component of the cross product of planar vectors (broadcasts)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def unit_vector(theta: float) -> np.ndarray:
    return np.array([math.cos(theta), math.sin(theta)])


def unit_normal(theta: float) -> np.ndarray:
    """Projection axis for direction theta: n(theta) = (-sin, cos)."""
    return np.array([-math.sin(theta), math.cos(theta)])


@dataclass(frozen=True)
class Segment:
    a: Point2
    b: Point2

    @property
    def length(self) -> float:
        return math.hypot(self.b.x - self.a.x, self.b.y - self.a.y)


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float

    @property
    def length(self) -> float:
        return self.hi - self.lo


@dataclass(frozen=True)
class Strip:
    """Parallel strip: bounding lines of direction ``direction`` at signed
    offsets ``lo`` and ``hi`` along the lines' unit normal."""

    direction: float
    lo: float
    hi: float

    @property
    def width(self) -> float:
        return self.hi - self.lo


@dataclass(frozen=True)
class OrientedRectangle:
    corners: tuple[Point2, Point2, Point2, Point2]  # counterclockwise
    side_x: float
    side_y: float

    @property
    def perimeter(self) -> float:
        return 2.0 * (self.side_x + self.side_y)


class ConvexPolygon:
    """Validated counterclockwise strictly convex vertex cycle.

    Construct through :func:`validate_polygon`; the constructor runs the
    same checks.
    """

    def __init__(self, vertices: Sequence[tuple[float, float]]):
        pts = [Point2(float(p[0]), float(p[1])) for p in vertices]
        _check_polygon(pts)
        self.vertices: tuple[Point2, ...] = tuple(pts)
        self._coords = np.array(pts, dtype=float)
        self._perimeter: float | None = None
        self._diameter: float | None = None
        self._cum: np.ndarray | None = None
        self._normal_angles: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.vertices)

    def __repr__(self) -> str:
        return f"ConvexPolygon({len(self.vertices)} vertices)"

    @property
    def coords(self) -> np.ndarray:
        """(n, 2) float array of vertices, counterclockwise."""
        return self._coords

    @property
    def edge_lengths(self) -> np.ndarray:
        d = np.roll(self._coords, -1, axis=0) - self._coords
        return np.hypot(d[:, 0], d[:, 1])

    @property
    def cumulative_lengths(self) -> np.ndarray:
        """cum[i] = boundary length from vertex 0 to vertex i, counterclockwise."""
        if self._cum is None:
            self._cum = np.concatenate(([0.0], np.cumsum(self.edge_lengths)[:-1]))
        return self._cum

    @property
    def perimeter(self) -> float:
        if self._perimeter is None:
            self._perimeter = float(self.edge_lengths.sum())
        return self._perimeter

    @property
    def normal_angles(self) -> np.ndarray:
        """Outward edge-normal angles, unwrapped to increase from edge 0's:
        vertex k is extreme for the directions between entries k-1 and k."""
        if self._normal_angles is None:
            e = np.roll(self._coords, -1, axis=0) - self._coords
            self._normal_angles = np.unwrap(np.arctan2(-e[:, 0], e[:, 1]))
        return self._normal_angles

    @property
    def diameter(self) -> float:
        """Largest vertex-to-vertex distance, over the antipodal pairs."""
        if self._diameter is None:
            # the vertices farthest from each edge line, with both endpoints
            m, _ = self.edge_normals_offsets()
            far = self._coords[support_window(self, m[:, 0], m[:, 1])[0]]
            ends = self._coords[(np.arange(len(m))[:, None] + [0, 1]) % len(m)]
            d = far[:, :, None, :] - ends[:, None, :, :]
            self._diameter = float(np.hypot(d[..., 0], d[..., 1]).max())
        return self._diameter

    @property
    def tol_geom(self) -> float:
        return TOL_GEOM_REL * self.diameter

    @property
    def tol_touch(self) -> float:
        return TOL_TOUCH_REL * self.diameter

    @property
    def tol_area(self) -> float:
        return TOL_AREA_REL * self.diameter ** 2

    def edge_normals_offsets(self) -> tuple[np.ndarray, np.ndarray]:
        """Inward unit normals m_i and offsets o_i with interior
        {q : m_i . q >= o_i for all i}."""
        v = self._coords
        e = np.roll(v, -1, axis=0) - v
        lengths = np.hypot(e[:, 0], e[:, 1])
        m = np.column_stack([-e[:, 1], e[:, 0]]) / lengths[:, None]
        o = np.einsum("ij,ij->i", m, v)
        return m, o


def _check_polygon(pts: list[Point2]) -> None:
    n = len(pts)
    if n < 3:
        raise TooFewVertices(f"need at least 3 vertices, got {n}")
    arr = np.array(pts, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise PolygonError("non-finite vertex coordinate")
    span = float(np.hypot(*(arr.max(axis=0) - arr.min(axis=0))))
    if span <= 0.0:
        raise DuplicateVertex("all vertices coincide")
    tol_dup = TOL_GEOM_REL * span
    d = np.roll(arr, -1, axis=0) - arr
    close = np.hypot(d[:, 0], d[:, 1]) <= tol_dup
    if np.any(close):
        i = int(np.nonzero(close)[0][0])
        raise DuplicateVertex(f"vertices {i} and {(i + 1) % n} coincide")
    # non-consecutive duplicates would also break strict convexity, but give
    # the sharper diagnostic
    order = np.lexsort((arr[:, 1], arr[:, 0]))
    s = arr[order]
    same = np.hypot(*(s[1:] - s[:-1]).T) <= tol_dup
    if np.any(same):
        k = int(np.nonzero(same)[0][0])
        i, j = sorted((int(order[k]), int(order[k + 1])))
        raise DuplicateVertex(f"vertices {i} and {j} coincide")
    cross = cross2(d, np.roll(d, -1, axis=0))
    area2 = float(cross2(arr, np.roll(arr, -1, axis=0)).sum())
    tol_area = TOL_AREA_REL * span ** 2
    if area2 < -tol_area:
        raise WrongOrientation("vertices are clockwise (pass counterclockwise, "
                               "or use --auto-orient in the CLI)")
    if np.any(cross <= tol_area):
        i = int(np.argmin(cross))
        raise NotStrictlyConvex(
            f"collinear or reflex turn at vertex {(i + 1) % n}")


def validate_polygon(points: Sequence[tuple[float, float]]) -> ConvexPolygon:
    """Validate a counterclockwise strictly convex vertex cycle.

    Raises TooFewVertices, NotStrictlyConvex, WrongOrientation or
    DuplicateVertex; input order is preserved.
    """
    return ConvexPolygon(points)


def perimeter(poly: ConvexPolygon) -> float:
    return poly.perimeter


def width_in_direction(poly: ConvexPolygon, alpha: float) -> float:
    """Extent of the polygon along direction alpha: the minimum width of an
    enclosing strip whose bounding lines are orthogonal to alpha."""
    u = unit_vector(alpha)
    proj = poly.coords @ u
    return float(proj.max() - proj.min())


def support_window(poly: ConvexPolygon, ux, uy, eps: float = 0.0):
    """Support oracle: the vertices whose projection x*ux + y*uy is within
    eps of the largest, for each direction (ux[k], uy[k]).

    Returns (cand, near, proj): a (directions, w) array of vertex indices,
    the mask of those within eps of the largest, and their projections.
    A binary search over ``poly.normal_angles`` finds the extreme vertex k
    in O(log n), up to rounding in the angles.  The window k-2 .. k+2 then
    widens until no mask reaches its ends, so the largest projection is
    evaluated exactly; on a strictly convex polygon the masked run is
    contiguous and, for eps far below the edge lengths, a few vertices long.
    """
    ux = np.asarray(ux, dtype=float)[:, None]
    uy = np.asarray(uy, dtype=float)[:, None]
    nrm = poly.normal_angles
    n = len(nrm)
    k = np.searchsorted(nrm, nrm[0] + np.mod(np.arctan2(uy, ux) - nrm[0], TWO_PI),
                        side="right")
    r = 2
    while True:
        cand = (k + np.arange(-r, r + 1)) % n
        proj = poly.coords[cand, 0] * ux + poly.coords[cand, 1] * uy
        near = proj >= proj.max(axis=1, keepdims=True) - eps
        if 2 * r + 1 >= n or not (near[:, 0] | near[:, -1]).any():
            return cand, near, proj
        r *= 2


def min_width(poly: ConvexPolygon) -> tuple[float, float, Strip]:
    """Minimum width over all directions, by edge-flush enumeration.

    Returns (alpha_star, w, strip): the minimizing direction in [0, pi),
    the width, and the enclosing strip whose lines are orthogonal to
    alpha_star and flush against an edge.  Ties resolve to the smallest
    canonical angle.
    """
    m, o = poly.edge_normals_offsets()
    # distance of the farthest vertex to each edge line
    widths = support_window(poly, m[:, 0], m[:, 1])[2].max(axis=1) - o
    wmin = float(widths.min())
    tol = TOL_AREA_REL * poly.diameter
    candidates = np.nonzero(widths <= wmin + tol)[0]
    # alpha = direction of the inward normal, canonicalized
    alpha_star, k = min((canon_line_angle(math.atan2(m[i, 1], m[i, 0])), int(i))
                        for i in candidates)
    line_dir = canon_line_angle(alpha_star + math.pi / 2.0)
    nrm = unit_normal(line_dir)
    offs = poly.coords @ nrm
    return alpha_star, float(widths[k]), Strip(line_dir, float(offs.min()), float(offs.max()))


def min_perimeter_rectangle(poly: ConvexPolygon) -> OrientedRectangle:
    """Minimum-perimeter enclosing rectangle (edge-flush enumeration).

    One side is flush with a polygon edge; ties resolve to the smallest
    canonical orientation angle (mod pi/2).
    """
    v = poly.coords
    e = np.roll(v, -1, axis=0) - v
    u = e / np.hypot(e[:, 0], e[:, 1])[:, None]
    ux, uy = u[:, 0], u[:, 1]
    # extents along each edge (s) and its inward normal (t): four supports
    top = support_window(poly, np.concatenate([ux, -ux, -uy, uy]),
                         np.concatenate([uy, -uy, ux, -ux]))[2].max(axis=1).reshape(4, -1)
    pers = ((top[0] + top[1]) + (top[2] + top[3])).tolist()
    tol = TOL_GEOM_REL * poly.diameter
    best, best_ang, k = math.inf, 0.0, 0
    for i, per in enumerate(pers):
        # sequential rule: a clear win, or a near tie at a smaller angle
        if per < best + tol:
            ang = math.fmod(math.atan2(uy[i], ux[i]), math.pi / 2.0)
            if ang < 0.0:
                ang += math.pi / 2.0
            if per < best - tol or ang < best_ang:
                best, best_ang, k = per, ang, i
    # corners from plain projections: far from the origin the oracle's sums
    # round differently, and corners off by that much can break opacity
    nvec = np.array([-uy[k], ux[k]])
    s, t = v @ u[k], v @ nvec
    lo, hi = (float(s.min()), float(t.min())), (float(s.max()), float(t.max()))
    corners = tuple(Point2(*(a * u[k] + b * nvec))
                    for a, b in (lo, (hi[0], lo[1]), hi, (lo[0], hi[1])))
    return OrientedRectangle(corners, hi[0] - lo[0], hi[1] - lo[1])


def project(obj, theta: float) -> Interval:
    """Interval of dot products with n(theta) = (-sin, cos).

    Accepts a ConvexPolygon, a Segment, or a sequence of points (polyline).
    """
    nrm = unit_normal(theta)
    if isinstance(obj, ConvexPolygon):
        proj = obj.coords @ nrm
    elif isinstance(obj, Segment):
        proj = np.array([obj.a, obj.b]) @ nrm
    else:
        proj = np.asarray(obj, dtype=float) @ nrm
    return Interval(float(proj.min()), float(proj.max()))


def polyline_length(points: Sequence[tuple[float, float]]) -> float:
    arr = np.asarray(points, dtype=float)
    d = np.diff(arr, axis=0)
    return float(np.hypot(d[:, 0], d[:, 1]).sum())
