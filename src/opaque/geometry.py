"""Planar primitives and convex-polygon computations.

Everything downstream (barrier construction, verification) consumes the
operations here: polygon validation and each polygon's one edge frame,
widths, rotating-calipers style enumerations through one extreme-vertex
lookup (``extreme_index``), projections.

Validation runs about thirty numpy calls at any size: a read and an x sort
of the coordinates (its ends give the span, its gaps skip the duplicate
scan), one closed copy of them for the edges, turns and signed area, and the
edge-normal angles, which also reject a boundary that winds more than once.
The diameter is one ``extreme_index`` lookup over those angles, one hypot.
Vertex windows around extreme vertices (the diameter's antipodal window,
``support_window``) are laid out window-major, (w, directions): a window's
max or min reduces over axis 0, a few contiguous rows of every direction,
which numpy does many times faster than a reduction over an inner axis of
length w.
Coordinates enter the package only through ``read_points``; the ``Point2``
tuple of vertices is built only when a caller reads it.

Conventions:
  * polygons are counterclockwise vertex cycles, strictly convex;
  * undirected line directions live in [0, pi), oriented directions in
    [0, 2*pi);
  * the projection axis for direction theta is the unit normal
    n(theta) = (-sin theta, cos theta).

Tolerances scale with the polygon so behavior is size invariant; every
one built from a polygon's diameter or coordinates is a field of its
``tol`` table (``Tolerances``).
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

TWO_PI = 2.0 * math.pi

# Relative tolerance factors (scaled by diameter, or diameter**2 for areas).
TOL_GEOM_REL = 1e-9
TOL_TOUCH_REL = 1e-7
TOL_AREA_REL = 1e-12
TOL_LEN_REL = 1e-12    # lengths treated as zero: merge gains, point pairs
TOL_COVER_REL = 1e-9
ROUNDING_COVER = 8.0   # eps * (max |coord| + diameter) units; see Tolerances
TOL_ANG = 1e-12
SNAP_ANG = 1e-15       # an angle this far below its period canonicalizes to 0
# the largest coordinate span validation accepts: it rejects a larger one
# before any arithmetic that could overflow, and under it n * span**2, a
# bound on the shoelace sum and on every turn, stays finite
MAX_SPAN = 1e150
# the smallest span validation accepts: below it TOL_AREA_REL * span**2 is
# no longer a normal float, and turns and tolerances underflow together
MIN_SPAN = math.sqrt(sys.float_info.min / TOL_AREA_REL)


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


# the point types ``read_points`` reads entry by entry, from this many
# points on: below it the checks cost more than ``np.array``'s discovery
# of nested sequences saves (a 24-point tuple reads in 4.9 us instead of
# 5.2, a 1024-point one in 121 instead of 164, a 5-point one would take
# 2.6 instead of 2.0; 2-vCPU host)
_PAIR_TYPES = frozenset((tuple, list, Point2))
_ENTRYWISE_MIN = 16
_NEIGHBOURS = np.array([[-1], [0], [1]])     # a vertex's window: its neighbours and itself


class Tolerances(NamedTuple):
    """A polygon's tolerances (``ConvexPolygon.tol``), with D its diameter,
    M its largest |coordinate| and eps = 2**-52, the machine epsilon:

      * ``geom`` = TOL_GEOM_REL * D: vertex contacts of the U-curve scan and
        the a4 wrap-arounds, collapsing path ends, and near-ties of the
        minimum-perimeter rectangle;
      * ``length`` = TOL_LEN_REL * D: near-ties of the minimum width, and
        point pairs too close to give a critical direction;
      * ``cover`` = TOL_COVER_REL * D + ROUNDING_COVER * eps * (M + D): the
        widest projection gap that still counts as covered (``is_opaque``,
        ``projections_cover``, ``sampling_oracle``).  With u = eps/2, a
        projection fl(-x*s + y*c) is off by at most 2u(|x| + |y|) <= 2*eps*M'
        for coordinates bounded by M' (two rounded products and a rounded
        sum), so a gap between two projections is off by at most 4*eps*M';
        barrier points lie within a diameter of the polygon, so M' is M + D.
        The rounded (s, c) is one normal shared by every point of the
        direction, so its error moves a gap only by about u times the
        distance between the two points, at most 3 diameters.
        ROUNDING_COVER = 8 is a conservative cover for both terms and the
        comparison;
      * ``tie`` = TOL_LEN_REL * D + 4 * eps * M: how much longer than a1's
        barrier a2's Steiner tree may be and still be kept.  The two tie on
        triangles with a vertex of 120 degrees or more; far out, a1's zero
        drops land up to an ulp of M off a vertex.

    Some tolerances do not scale with a polygon and stay with their code:
    validation scales by the coordinate span, since no diameter exists
    yet; the ``connected`` check of a barrier and the Steiner routines
    scale by one measure, the bounding-box diagonal of the barrier's
    points or of the terminals, since neither has a polygon; the incircle
    LP works in a frame of unit diameter, so its TOL_LEN_REL and
    TOL_TOUCH_REL are used as they are, and its ``incircle.TOL_PARALLEL``
    is a cosine; TOL_ANG and SNAP_ANG are angles, in radians.
    """

    geom: float
    length: float
    cover: float
    tie: float


def _canon_angle(theta, period: float):
    """``theta``, a float or an array, reduced into [0, period)."""
    t = np.fmod(theta, period)
    t = np.where(t < 0.0, t + period, t)
    t = np.where(t >= period - SNAP_ANG, 0.0, t)
    return t if t.ndim else float(t)


def canon_line_angle(theta):
    """Normalize an undirected line direction, or an array of them, into [0, pi)."""
    return _canon_angle(theta, math.pi)


def canon_oriented_angle(theta):
    """Normalize an oriented direction, or an array of them, into [0, 2*pi)."""
    return _canon_angle(theta, TWO_PI)


def cross2(a, b):
    """z component of the cross product of planar vectors (broadcasts)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def unit_normal(theta: float) -> np.ndarray:
    """Projection axis for direction theta: n(theta) = (-sin, cos)."""
    return np.array([-math.sin(theta), math.cos(theta)])


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
    axis_x: Point2   # unit vector from corner 0 to corner 1 (along side_x)
    axis_y: Point2   # unit vector from corner 0 to corner 3 (along side_y)

    @property
    def perimeter(self) -> float:
        return 2.0 * (self.side_x + self.side_y)


class ConvexPolygon:
    """Validated counterclockwise strictly convex vertex cycle.

    Construct through :func:`validate_polygon`; the constructor runs the
    same checks.  It keeps what they compute: the coordinates, edge lengths,
    perimeter and ``normal_angles``.  What some methods never read is built
    on first use: ``edge_normals_offsets()`` (a1, a2, a4), ``cumulative_lengths``
    (a1-a3), ``diameter``, ``tol`` and ``vertices``.
    """

    def __init__(self, vertices: Sequence[tuple[float, float]]):
        arr = read_points(vertices, "vertices", PolygonError)
        closed, lengths, nrm = _check_polygon(arr)
        # rows n and n + 1 repeat vertices 0 and 1, so an edge's far vertex
        # and its neighbours are read without wrapping indices
        self._closed = _read_only(closed)
        self._coords = closed[:len(arr)]
        # the edge frame, computed once and shared read-only: edge i runs
        # from vertex i to vertex i + 1
        self.edge_lengths = _read_only(lengths)
        self.perimeter = float(lengths.sum())
        # outward edge-normal angles, unwrapped to increase from edge 0's:
        # vertex k is extreme for the directions between entries k-1 and k
        self.normal_angles = _read_only(nrm)
        self._diameter: float | None = None

    def __len__(self) -> int:
        return len(self._coords)

    def __repr__(self) -> str:
        return f"ConvexPolygon({len(self)} vertices)"

    @property
    def coords(self) -> np.ndarray:
        """(n, 2) float array of vertices, counterclockwise."""
        return self._coords

    @functools.cached_property
    def vertices(self) -> tuple[Point2, ...]:
        """The vertices as ``Point2`` tuples, built on first use."""
        return tuple(map(Point2._make, self._coords.tolist()))

    @functools.cached_property
    def cumulative_lengths(self) -> np.ndarray:
        """cum[i] = boundary length from vertex 0 to vertex i, counterclockwise."""
        return _read_only(np.concatenate(([0.0], np.cumsum(self.edge_lengths)[:-1])))

    @property
    def diameter(self) -> float:
        """Largest vertex-to-vertex distance, over the antipodal pairs:
        both ends of each edge against the vertex farthest from its line
        and that vertex's two neighbours, so ties and rounding in the
        angles cannot drop a pair: one hypot over the (3, 2, n) pairs of
        window vertex and edge end."""
        if self._diameter is None:
            nrm = self.normal_angles
            x, y = self._closed.T
            # extreme in the inward normal direction; 1..n, and the closed
            # copy reads n + 1 as vertex 1
            far = extreme_index(nrm, nrm + math.pi) + _NEIGHBOURS
            ends = np.arange(len(nrm)) + _NEIGHBOURS[1:]     # edge j's ends, j and j + 1
            self._diameter = float(np.hypot(x[far][:, None] - x[ends],
                                            y[far][:, None] - y[ends]).max())
        return self._diameter

    @functools.cached_property
    def tol(self) -> Tolerances:
        """The polygon's tolerance table, built on first use: the one place
        a tolerance is built from its diameter or coordinates."""
        d, mag, eps = self.diameter, float(np.abs(self._coords).max()), math.ulp(1.0)
        return Tolerances(TOL_GEOM_REL * d, TOL_LEN_REL * d,
                          TOL_COVER_REL * d + ROUNDING_COVER * eps * (mag + d),
                          TOL_LEN_REL * d + 4.0 * eps * mag)

    def edge_normals_offsets(self) -> tuple[np.ndarray, np.ndarray]:
        """Inward unit normals m_i and offsets o_i with interior
        {q : m_i . q >= o_i for all i}; built on first use."""
        return self._inward

    @functools.cached_property
    def _inward(self) -> tuple[np.ndarray, np.ndarray]:
        dx, dy = (self._closed[1:len(self) + 1] - self._coords).T
        m = np.column_stack([-dy, dx]) / self.edge_lengths[:, None]
        return _read_only(m), _read_only(np.einsum("ij,ij->i", m, self._coords))


def read_points(points, what: str = "points", error: type[ValueError] = ValueError) -> np.ndarray:
    """``points``, a sequence of (x, y) pairs of numbers or an (m, 2)
    array, as a new read-only (m, 2) float array: the one way coordinates
    enter the package.  Raises ``error`` for any other shape or non-numbers.

    A sequence of at least ``_ENTRYWISE_MIN`` tuples or lists of two
    entries each is read by one ``float`` pass over the entries
    (``np.fromiter``), which skips ``np.array``'s discovery of nested
    sequences; any other input, or an entry ``float`` rejects, takes
    ``np.array``, so its errors read as they always did."""
    arr = None
    if not isinstance(points, np.ndarray):
        try:
            count = 2 * len(points)
            if (count >= 2 * _ENTRYWISE_MIN and set(map(len, points)) == {2}
                    and set(map(type, points)) <= _PAIR_TYPES):
                arr = np.fromiter(itertools.chain.from_iterable(points), float, count)
                arr = arr.reshape(-1, 2)
        except (TypeError, ValueError, OverflowError):   # np.array below reports it
            arr = None
    if arr is None:
        try:
            arr = np.array(points, dtype=float)
        except (TypeError, ValueError) as exc:
            raise error(f"{what} must be (x, y) pairs of numbers: {exc}") from None
    if arr.shape == (0,):
        arr = arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise error(f"{what} must be (x, y) pairs, got an array of shape {arr.shape}")
    return _read_only(arr)


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def normal_angles(edges: np.ndarray) -> np.ndarray:
    """Outward normal angles of the edge vectors of a counterclockwise
    convex polygon, unwrapped so they increase from edge 0's and span
    less than 2*pi.  The float operations of ``np.unwrap`` (period 2*pi)
    on their arctan2, without its generic set-up: a correction is worked out
    only at a step of pi or more (a convex polygon has one), in floats."""
    a = np.arctan2(-edges[:, 0], edges[:, 1])
    dd = a[1:] - a[:-1]
    a[1:] += 0.0      # as np.unwrap's cumulative sum: -0.0 turns to 0.0
    steps = (np.abs(dd) >= math.pi).nonzero()[0].tolist()
    total = 0.0
    for i, j in zip(steps, steps[1:] + [len(dd)]):
        step = float(dd[i])
        fix = (step + math.pi) % TWO_PI - math.pi     # % rounds as np.mod
        # a step of exactly pi keeps its sign
        total += (math.pi if fix == -math.pi and step > 0.0 else fix) - step
        a[i + 1:j + 1] += total
    return a


def extreme_index(nrm: np.ndarray, theta) -> np.ndarray:
    """For unwrapped normal angles ``nrm`` (see ``normal_angles``), the
    index k in 1..n, read mod n, of the vertex extreme in each direction
    theta: the number of entries at or below theta once theta is brought
    into [nrm[0], nrm[0] + 2*pi).  A binary search, O(log n) per direction."""
    return np.searchsorted(nrm, nrm[0] + np.mod(theta - nrm[0], TWO_PI), side="right")


def _shoelace(closed: np.ndarray) -> float:
    """Twice the signed area of a vertex cycle whose last row repeats its
    first, positive counterclockwise.  The shoelace sum is taken about
    vertex 0: on raw coordinates far from the origin its terms cancel
    catastrophically and the sign is noise."""
    x, y = (closed - closed[0]).T
    return float((x[:-1] * y[1:] - y[:-1] * x[1:]).sum())


def _check_polygon(arr: np.ndarray):
    """Raise the first validation failure.  Return the vertices closed by
    their first two (rows n and n + 1 repeat rows 0 and 1), the edge
    lengths and the ``normal_angles``."""
    n = len(arr)
    if n < 3:
        raise TooFewVertices(f"need at least 3 vertices, got {n}")
    # column extremes, far faster than axis-0 reductions: x's from its sort,
    # y's by index (NaN wins both); in Python floats a span overflows silently
    x, y = arr.T
    sx = np.sort(x)
    span = float(np.hypot(float(sx[-1]) - float(sx[0]),
                          float(y[y.argmax()]) - float(y[y.argmin()])))
    if not span <= MAX_SPAN:
        if not np.isfinite(arr).all():
            raise PolygonError("non-finite vertex coordinate")
        raise PolygonError(f"vertex coordinates span {span:.6g}, above {MAX_SPAN:g}")
    if span < MIN_SPAN:
        if span <= 0.0:
            raise DuplicateVertex("all vertices coincide")
        raise PolygonError(f"vertex coordinates span {span:.6g}, below {MIN_SPAN:.6g}")
    tol_dup = TOL_GEOM_REL * span
    closed = np.concatenate((arr, arr[:2]))
    d = closed[1:] - closed[:-1]        # row n repeats edge 0
    dx, dy = d.T
    lengths = np.hypot(dx[:n], dy[:n])
    if lengths[lengths.argmin()] <= tol_dup:
        i = int((lengths <= tol_dup).nonzero()[0][0])
        raise DuplicateVertex(f"vertices {i} and {(i + 1) % n} coincide")
    # non-consecutive duplicates: in x order a vertex can coincide with any
    # later one under 2 tol_dup (rounding) further along x, not only with
    # its neighbour (a needle rhombus's tips); offsets go from 1 up, when
    # two x values are that close at all
    if np.count_nonzero(sx[1:] <= sx[:-1] + 2.0 * tol_dup):
        order = np.lexsort((y, x))
        s = arr[order]
        reach = np.searchsorted(s[:, 0], s[:, 0] + 2.0 * tol_dup, side="right") - np.arange(n)
        for off in range(1, int(reach.max())):
            same = np.hypot(*(s[off:] - s[:-off]).T) <= tol_dup
            if np.any(same):
                k = int(np.nonzero(same)[0][0])
                i, j = sorted((int(order[k]), int(order[k + off])))
                raise DuplicateVertex(f"vertices {i} and {j} coincide")
    cross = dx[:-1] * dy[1:] - dy[:-1] * dx[1:]
    tol_area = TOL_AREA_REL * span ** 2
    if _shoelace(closed[:-1]) < -tol_area:
        raise WrongOrientation("vertices are clockwise (pass counterclockwise, "
                               "or use --auto-orient in the CLI)")
    i = int(cross.argmin())
    if cross[i] <= tol_area:
        raise NotStrictlyConvex(f"collinear or reflex turn at vertex {(i + 1) % n}")
    # every turn is left, but a boundary such as a pentagram turns left
    # through 4*pi
    nrm = normal_angles(d[:n])
    if nrm[-1] - nrm[0] >= TWO_PI:
        raise NotStrictlyConvex("the boundary winds around more than once")
    return closed, lengths, nrm


def validate_polygon(points: Sequence[tuple[float, float]]) -> ConvexPolygon:
    """Validate a counterclockwise strictly convex vertex cycle, given as
    (n, 2) coordinates: a sequence of pairs or an array.

    Raises TooFewVertices, NotStrictlyConvex (also for a boundary that
    winds around more than once), WrongOrientation or DuplicateVertex, and
    PolygonError for non-finite coordinates, a span above MAX_SPAN or below
    MIN_SPAN, or input of any other shape; input order is preserved.
    """
    return ConvexPolygon(points)


def support_window(poly: ConvexPolygon, ux, uy, eps: float = 0.0):
    """Support oracle: the vertices whose projection x*ux + y*uy is within
    eps of the largest, for each direction (ux[k], uy[k]).

    Returns (cand, near, proj), each (w, directions): the window's vertex
    indices, the mask of those within eps of the largest, and their
    projections; window-major, so a window's max reduces over axis 0 (see
    the module docstring).
    ``extreme_index`` over ``poly.normal_angles`` finds the extreme vertex
    k in O(log n), up to rounding in the angles.  The window k-2 .. k+2 then
    widens until no mask reaches its ends, so the largest projection is
    evaluated exactly; on a strictly convex polygon the masked run is
    contiguous and, for eps far below the edge lengths, a few vertices long.
    """
    ux, uy = np.asarray(ux, dtype=float), np.asarray(uy, dtype=float)
    x, y = poly.coords.T
    n = len(x)
    k = extreme_index(poly.normal_angles, np.arctan2(uy, ux))
    r = 2
    while True:
        cand = (k + np.arange(-r, r + 1)[:, None]) % n
        proj = x[cand] * ux + y[cand] * uy
        near = proj >= proj.max(axis=0) - eps
        if 2 * r + 1 >= n or not (near[0] | near[-1]).any():
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
    widths = support_window(poly, m[:, 0], m[:, 1])[2].max(axis=0) - o
    wmin = float(widths.min())
    candidates = np.nonzero(widths <= wmin + poly.tol.length)[0]
    # alpha = the inward normal's direction; argmin takes the first of equal angles
    mc = m[candidates]
    alphas = canon_line_angle(np.fromiter(map(math.atan2, mc[:, 1].tolist(), mc[:, 0].tolist()),
                                          float, len(candidates)))
    j = int(alphas.argmin())
    alpha_star, k = float(alphas[j]), int(candidates[j])
    line_dir = canon_line_angle(alpha_star + math.pi / 2.0)
    offs = poly.coords @ unit_normal(line_dir)
    return alpha_star, float(widths[k]), Strip(line_dir, float(offs.min()), float(offs.max()))


def min_perimeter_rectangle(poly: ConvexPolygon) -> OrientedRectangle:
    """Minimum-perimeter enclosing rectangle (edge-flush enumeration).

    One side is flush with a polygon edge; among the perimeters within
    ``poly.tol.geom`` of the minimum, the smallest orientation angle
    (mod pi/2) wins, as in ``min_width``.
    """
    v = poly.coords
    m, _ = poly.edge_normals_offsets()
    ux, uy = m[:, 1], -m[:, 0]      # unit edge directions
    # extents along each edge (s) and its inward normal (t): four supports
    top = support_window(poly, np.concatenate([ux, -ux, -uy, uy]),
                         np.concatenate([uy, -uy, ux, -ux]))[2].max(axis=0).reshape(4, -1)
    pers = (top[0] + top[1]) + (top[2] + top[3])
    candidates = np.nonzero(pers <= pers.min() + poly.tol.geom)[0]
    # the edge direction mod pi/2, unsnapped; argmin takes the first of
    # equal angles
    angs = np.fmod(np.fromiter(map(math.atan2, uy[candidates].tolist(), ux[candidates].tolist()),
                               float, len(candidates)), math.pi / 2.0)
    angs[angs < 0.0] += math.pi / 2.0
    k = int(candidates[angs.argmin()])
    # corners from plain projections: far from the origin the oracle's sums
    # round differently, and corners off by that much can break opacity
    u, nvec = np.array([ux[k], uy[k]]), m[k]
    s, t = v @ u, v @ nvec
    lo, hi = (float(s.min()), float(t.min())), (float(s.max()), float(t.max()))
    corners = tuple(Point2(*(a * u + b * nvec))
                    for a, b in (lo, (hi[0], lo[1]), hi, (lo[0], hi[1])))
    return OrientedRectangle(corners, hi[0] - lo[0], hi[1] - lo[1],
                             Point2._make(u.tolist()), Point2._make(nvec.tolist()))


def polyline_length(points: Sequence[tuple[float, float]]) -> float:
    d = np.diff(np.asarray(points, dtype=float), axis=0)
    return float(np.hypot(d[:, 0], d[:, 1]).sum())
