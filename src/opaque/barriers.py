"""Barrier constructions for convex polygons.

Approximation algorithms:
  * algo_a1 - shorter of the two width-strip U-curves (single arc);
  * algo_a2 - a1 candidates plus the Steiner tree of the tangent triangle;
  * algo_a3 - minimum-length U-curve over all edge-flush baselines;
  * algo_a4 - rectangle wrap-arounds plus an altitude segment (2 pieces).

Exact interior barriers:
  * interior_single_arc - minimum Hamiltonian path of the vertices (DP);
  * interior_connected  - Steiner tree of the vertices (exact to 4
    terminals, star-merging heuristic beyond).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    ConvexPolygon,
    Point2,
    canon_oriented_angle,
    cross2,
    min_perimeter_rectangle,
    min_width,
    polyline_length,
    support_window,
    unit_normal,
)
from .incircle import largest_inscribed_circle, tangent_triangle
from .steiner import steiner_three_points, steiner_tree

KINDS = ("single-arc", "connected", "arbitrary")


@dataclass(frozen=True)
class Barrier:
    """A finite set of polylines with a kind tag.

    kind "single-arc" requires exactly one polyline; kind "connected"
    requires the union of polylines to be a connected point set.
    """

    polylines: tuple[tuple[Point2, ...], ...]
    kind: str

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown barrier kind {self.kind!r}")
        if not self.polylines:
            raise ValueError("barrier needs at least one polyline")
        clean = tuple(
            tuple(Point2(float(p[0]), float(p[1])) for p in pl)
            for pl in self.polylines
        )
        object.__setattr__(self, "polylines", clean)
        for pl in clean:
            if len(pl) < 2:
                raise ValueError("each polyline needs at least 2 points")
        if self.length <= 0.0 or not math.isfinite(self.length):
            raise ValueError("barrier length must be finite and positive")
        if self.kind == "single-arc" and len(clean) != 1:
            raise ValueError("single-arc barrier must be one polyline")
        if self.kind == "connected" and not _polylines_connected(clean):
            raise ValueError("polylines of a connected barrier must touch")

    @property
    def length(self) -> float:
        return sum(polyline_length(pl) for pl in self.polylines)

    def segments(self) -> list[tuple[Point2, Point2]]:
        out = []
        for pl in self.polylines:
            out.extend(zip(pl[:-1], pl[1:]))
        return out

    def all_points(self) -> np.ndarray:
        return np.concatenate([np.asarray(pl, dtype=float) for pl in self.polylines])


@dataclass(frozen=True)
class BarrierSolution:
    barrier: Barrier
    length: float
    lower_bound: float
    method: str
    ratio: float
    extras: dict = field(default_factory=dict, compare=False)


@dataclass(frozen=True)
class UCurve:
    baseline: float          # oriented direction in [0, 2*pi)
    polyline: tuple[Point2, ...]
    length: float


@dataclass(frozen=True)
class DPTables:
    """Hamiltonian-path DP tables over circular vertex runs.

    Row L holds values for runs of L+1 consecutive vertices starting at
    each index; S runs start at the run's first vertex, T runs at its last.
    """

    S: np.ndarray
    T: np.ndarray
    choice_s: np.ndarray
    choice_t: np.ndarray


def _polylines_connected(polylines, tol: float | None = None) -> bool:
    pts = np.concatenate([np.asarray(pl, dtype=float) for pl in polylines])
    if tol is None:
        tol = 1e-9 * max(float(np.hypot(*(pts.max(axis=0) - pts.min(axis=0)))), 1e-300)
    k = len(polylines)
    parent = list(range(k))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        parent[find(i)] = find(j)

    # cheap pass: exact shared endpoints/vertices
    seen: dict[tuple[float, float], int] = {}
    for i, pl in enumerate(polylines):
        for p in pl:
            key = (p[0], p[1])
            if key in seen:
                union(i, seen[key])
            else:
                seen[key] = i
    if len({find(i) for i in range(k)}) == 1:
        return True
    # full pass: segment-to-segment proximity (crossings count as contact)
    for i in range(k):
        for j in range(i + 1, k):
            if find(i) == find(j):
                continue
            if _polyline_distance(polylines[i], polylines[j]) <= tol:
                union(i, j)
    return len({find(i) for i in range(k)}) == 1


def _polyline_distance(pa, pb) -> float:
    best = math.inf
    for a0, a1 in zip(pa[:-1], pa[1:]):
        for b0, b1 in zip(pb[:-1], pb[1:]):
            best = min(best, _seg_seg_distance(a0, a1, b0, b1))
            if best == 0.0:
                return 0.0
    return best


def _seg_seg_distance(a0, a1, b0, b1) -> float:
    a0 = np.asarray(a0, float)
    a1 = np.asarray(a1, float)
    b0 = np.asarray(b0, float)
    b1 = np.asarray(b1, float)
    d1 = cross2(a1 - a0, b0 - a0)
    d2 = cross2(a1 - a0, b1 - a0)
    d3 = cross2(b1 - b0, a0 - b0)
    d4 = cross2(b1 - b0, a1 - b0)
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)):
        return 0.0
    return min(_point_seg_distance(b0, a0, a1), _point_seg_distance(b1, a0, a1),
               _point_seg_distance(a0, b0, b1), _point_seg_distance(a1, b0, b1))


def _point_seg_distance(p, a, b) -> float:
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        return float(np.hypot(*(p - a)))
    t = float((p - a) @ ab) / denom
    t = max(0.0, min(1.0, t))
    return float(np.hypot(*(p - (a + t * ab))))


def half_perimeter_lower_bound(poly: ConvexPolygon) -> float:
    """Universal lower bound: every barrier is at least half the perimeter."""
    return poly.perimeter / 2.0


def _solution(poly, barrier, method, extras=None) -> BarrierSolution:
    lb = half_perimeter_lower_bound(poly)
    length = barrier.length
    return BarrierSolution(barrier, length, lb, method, length / lb, extras or {})


def _collapse(points, tol: float):
    out = [points[0]]
    for p in points[1:]:
        if math.dist(p, out[-1]) > tol:
            out.append(p)
    return out


# ---------------------------------------------------------------------------
# U-curves and the strip algorithms A1 / A3


def _u_lengths(poly: ConvexPolygon, thetas):
    """Contact indices, baseline offsets and total lengths of U(P, theta)
    for an array of baselines, as arrays (i1, i2, t0, length).

    With s and t the projections on the baseline direction and its normal,
    i1 (i2) is the lowest vertex, smallest index on ties, among those
    within tol_geom of the smallest (largest) s.
    """
    th = np.asarray(thetas, dtype=float)
    c, s = np.cos(th), np.sin(th)
    # blocks: smallest s, largest s, and smallest t as the largest -t
    cand, near, proj = (a.reshape(3, len(th), -1) for a in support_window(
        poly, np.concatenate([-c, c, s]), np.concatenate([-s, s, -c]), poly.tol_geom))
    t0 = -proj[2].max(axis=1)
    xy = poly.coords[cand[:2]]
    tv = np.where(near[:2], xy[..., 0] * -s[:, None] + xy[..., 1] * c[:, None], np.inf)
    tmin = tv.min(axis=2)
    i1, i2 = np.where(tv == tmin[..., None], cand[:2], len(poly)).min(axis=2)
    cum = poly.cumulative_lengths
    per = poly.perimeter
    arc = np.where(i1 != i2, per - (cum[i2] - cum[i1]) % per, 0.0)
    return i1, i2, t0, (tmin[0] - t0) + (tmin[1] - t0) + arc


def _u_metrics(poly: ConvexPolygon, theta: float):
    """Contact indices, baseline offset and total length of U(P, theta)."""
    i1, i2, t0, length = _u_lengths(poly, [theta])
    return int(i1[0]), int(i2[0]), float(t0[0]), float(length[0])


def u_curve(poly: ConvexPolygon, baseline: float) -> UCurve:
    """Single-arc barrier: drop, boundary chain opposite the baseline, drop.

    ``baseline`` is an oriented direction in [0, 2*pi); the baseline line is
    tangent to the polygon with the polygon on its left.
    """
    theta = canon_oriented_angle(baseline)
    nrm = unit_normal(theta)
    i1, i2, _, _ = _u_metrics(poly, theta)
    t = poly.coords @ nrm
    t0 = t.min()  # one rounding for the baseline and both drops
    pts = [poly.vertices[i] for i in (i1 - np.arange((i1 - i2) % len(poly) + 1)) % len(poly)]
    q1 = Point2(*(np.asarray(pts[0]) + (t0 - t[i1]) * nrm))
    q2 = Point2(*(np.asarray(pts[-1]) + (t0 - t[i2]) * nrm))
    poly_pts = _collapse([q1] + pts + [q2], poly.tol_geom)
    return UCurve(theta, tuple(poly_pts), float(polyline_length(poly_pts)))


def algo_a1(poly: ConvexPolygon) -> BarrierSolution:
    """Shorter of the two U-curves of the minimum-width strip."""
    alpha_star, w, strip = min_width(poly)
    phi = strip.direction
    cands = [phi, canon_oriented_angle(phi + math.pi)]
    lengths = _u_lengths(poly, cands)[3]
    theta = cands[int(np.argmin(lengths))]
    curve = u_curve(poly, theta)
    barrier = Barrier((curve.polyline,), "single-arc")
    return _solution(poly, barrier, "a1", {"width": w, "baseline": theta})


def algo_a2(poly: ConvexPolygon) -> BarrierSolution:
    """A1 plus the Steiner-tree barrier of the tangent triangle corners."""
    a1 = algo_a1(poly)
    circ = largest_inscribed_circle(poly)
    tri = tangent_triangle(poly, circ)
    extras = {"b3_length": None}
    if tri is not None:
        sp, b3_len = steiner_three_points(*tri.corners)
        extras["b3_length"] = b3_len
        if b3_len < a1.length:
            if sp is not None:
                polylines = tuple((c, sp) for c in tri.corners)
            else:
                order = _two_shortest_path(tri.corners)
                polylines = (tuple(order),)
            barrier = Barrier(polylines, "connected")
            return _solution(poly, barrier, "a2", extras)
    return BarrierSolution(a1.barrier, a1.length, a1.lower_bound, "a2",
                           a1.ratio, extras)


def _two_shortest_path(corners):
    """Path through the wide-angle vertex (degenerate Fermat star)."""
    best = None
    for mid in range(3):
        a, b = corners[(mid + 1) % 3], corners[(mid + 2) % 3]
        length = math.dist(a, corners[mid]) + math.dist(b, corners[mid])
        if best is None or length < best[0]:
            best = (length, [a, corners[mid], b])
    return best[1]


def algo_a3(poly: ConvexPolygon) -> BarrierSolution:
    """Minimum U-curve over the edge-flush candidate baselines.

    Candidates: for every edge direction d, the baselines d, d + pi/2 and
    d - pi/2 (baseline flush with the edge, or a side line flush with it).
    The minimum over all baselines occurs at one of these.
    """
    e = np.roll(poly.coords, -1, axis=0) - poly.coords
    thetas = np.unique(canon_oriented_angle(
        np.arctan2(e[:, 1], e[:, 0])[:, None] + [0.0, math.pi / 2.0, -math.pi / 2.0]))
    best = None
    for theta, length in zip(thetas.tolist(), _u_lengths(poly, thetas)[3].tolist()):
        if best is None or length < best[0] - 1e-15:
            best = (length, theta)
    curve = u_curve(poly, best[1])
    barrier = Barrier((curve.polyline,), "single-arc")
    return _solution(poly, barrier, "a3", {"baseline": best[1]})


# ---------------------------------------------------------------------------
# A4: rectangle wrap-around plus altitude


def algo_a4_candidates(poly: ConvexPolygon):
    """The four A4 candidates.

    Returns (rect, altitude_length, candidates); each candidate is a pair
    of polylines (wrap-around path, altitude segment) with its length.
    """
    rect = min_perimeter_rectangle(poly)
    c = np.array(rect.corners, dtype=float)
    x, y = rect.side_x, rect.side_y
    alt = x * y / math.hypot(x, y)
    u = (c[1] - c[0]) / x
    nrm = (c[3] - c[0]) / y
    tol = max(poly.tol_geom, 1e-12 * max(x, y))
    n = len(poly)
    # first and last vertex, counterclockwise, of the runs touching the
    # bottom, right, top and left sides (a window may repeat vertices)
    cand, near, _ = support_window(poly, [-nrm[0], u[0], nrm[0], -u[0]],
                                   [-nrm[1], u[1], nrm[1], -u[1]], tol)
    runs = []
    for row, inside in zip(cand.tolist(), near.tolist()):
        run = {v for v, f in zip(row, inside) if f}
        runs.append([next(v for v in run if (v + d) % n not in run) for d in (-1, 1)])
    corners = [Point2(*p) for p in c]
    out = []
    for k in range(4):
        start = corners[k]
        end = corners[(k + 2) % 4]
        opp = corners[(k + 3) % 4]
        i = runs[k][0]
        j = runs[(k + 1) % 4][1]
        idx = (i + np.arange((j - i) % n + 1)) % n
        path = _collapse([start] + [poly.vertices[q] for q in idx] + [end], tol)
        foot = _foot_on_segment(opp, start, end)
        polylines = (tuple(path), (opp, foot))
        length = polyline_length(path) + math.dist(opp, foot)
        out.append((polylines, length))
    return rect, alt, out


def _foot_on_segment(p: Point2, a: Point2, b: Point2) -> Point2:
    av = np.asarray(a, float)
    ab = np.asarray(b, float) - av
    tt = float((np.asarray(p, float) - av) @ ab) / float(ab @ ab)
    return Point2(*(av + tt * ab))


def algo_a4(poly: ConvexPolygon) -> BarrierSolution:
    """Shortest of the four rectangle wrap-around candidates (2 pieces)."""
    rect, alt, cands = algo_a4_candidates(poly)
    polylines, _ = min(cands, key=lambda c: c[1])
    barrier = Barrier(polylines, "arbitrary")
    return _solution(poly, barrier, "a4",
                     {"rectangle_perimeter": rect.perimeter, "altitude": alt})


# ---------------------------------------------------------------------------
# Exact interior barriers


def hamiltonian_path_tables(poly: ConvexPolygon) -> DPTables:
    """Fill the circular-run DP tables for the minimum Hamiltonian path."""
    v = poly.coords
    n = len(v)
    d = np.hypot(v[:, None, 0] - v[None, :, 0], v[:, None, 1] - v[None, :, 1])
    dnext = d[np.arange(n), (np.arange(n) + 1) % n]
    S = np.zeros((max(n - 1, 2), n))
    T = np.zeros_like(S)
    cs = np.zeros(S.shape, dtype=bool)
    ct = np.zeros(S.shape, dtype=bool)
    S[1] = dnext
    T[1] = dnext
    for L in range(2, n - 1):
        dspan = d[np.arange(n), (np.arange(n) + L) % n]
        dlast = dnext[(np.arange(n) + L - 1) % n]
        opt1 = dnext + np.roll(S[L - 1], -1)
        opt2 = dspan + np.roll(T[L - 1], -1)
        S[L] = np.minimum(opt1, opt2)
        cs[L] = opt2 < opt1
        opt1t = dlast + T[L - 1]
        opt2t = dspan + S[L - 1]
        T[L] = np.minimum(opt1t, opt2t)
        ct[L] = opt2t < opt1t
    return DPTables(S, T, cs, ct)


def _reconstruct_path(tables: DPTables, n: int, mode: str, i: int, L: int) -> list[int]:
    out = []
    while L > 1:
        if mode == "S":
            out.append(i)
            if tables.choice_s[L, i]:
                mode = "T"
            i = (i + 1) % n
            L -= 1
        else:
            out.append((i + L) % n)
            if tables.choice_t[L, i]:
                mode = "S"
            L -= 1
    if mode == "S":
        out.extend([i, (i + 1) % n])
    else:
        out.extend([(i + 1) % n, i])
    return out


def interior_single_arc(poly: ConvexPolygon) -> BarrierSolution:
    """Optimal single-arc interior barrier: minimum Hamiltonian path of the
    vertices, by the circular-run dynamic program."""
    n = len(poly)
    v = poly.coords
    d = np.hypot(v[:, None, 0] - v[None, :, 0], v[:, None, 1] - v[None, :, 1])
    tables = hamiltonian_path_tables(poly)
    best = None
    for i in range(n):
        ip1, im1 = (i + 1) % n, (i - 1) % n
        opt_a = d[i, ip1] + tables.S[n - 2, ip1]
        opt_b = d[i, im1] + tables.T[n - 2, ip1]
        for val, mode in ((opt_a, "S"), (opt_b, "T")):
            if best is None or val < best[0] - 1e-15:
                best = (val, i, mode)
    _, i, mode = best
    order = [i] + _reconstruct_path(tables, n, mode, (i + 1) % n, n - 2)
    pts = tuple(poly.vertices[k] for k in order)
    barrier = Barrier((pts,), "single-arc")
    return _solution(poly, barrier, "interior-arc", {"order": order})


def interior_connected(poly: ConvexPolygon) -> BarrierSolution:
    """Minimum connected interior barrier: Steiner tree of the vertices.

    Exact for up to 4 vertices; for larger polygons an MST-based heuristic
    whose length sits between (sqrt(3)/2) * MST and MST.
    """
    nodes, edges, length, exact = steiner_tree(poly.vertices)
    polylines = tuple((nodes[i], nodes[j]) for i, j in edges)
    barrier = Barrier(polylines, "connected")
    return _solution(poly, barrier, "interior-tree", {"heuristic": not exact})
