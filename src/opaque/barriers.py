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

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    TOL_GEOM_REL,
    TOL_LEN_REL,
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
from .steiner import steiner_tree

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
        if self.kind == "connected" and not _polylines_connected(clean, self.components):
            raise ValueError("polylines of a connected barrier must touch")

    @functools.cached_property
    def length(self) -> float:
        return sum(polyline_length(pl) for pl in self.polylines)

    @functools.cached_property
    def components(self) -> list[list[int]]:
        """``components`` of the polylines, grouped once per barrier."""
        return components(self.polylines)

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


def components(polylines) -> list[list[int]]:
    """Indices of the polylines in each connected component, in order of
    each component's first polyline.  Two polylines are connected when
    they share an exactly equal vertex, so every distinct vertex belongs
    to exactly one component."""
    parent = list(range(len(polylines)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    owner: dict[Point2, int] = {}
    for i, pl in enumerate(polylines):
        for p in pl:
            parent[find(i)] = find(owner.setdefault(p, i))
    groups: dict[int, list[int]] = {}
    for i in range(len(polylines)):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def _polylines_connected(polylines, groups) -> bool:
    """Do the polylines form one connected set?  Exactly shared vertices
    connect (``groups``, their ``components``); so do segments within
    TOL_GEOM_REL times the points' extent of each other, crossings
    included."""
    todo = list(groups)
    if len(todo) == 1:
        return True
    pts = np.concatenate([np.asarray(pl, dtype=float) for pl in polylines])
    tol = TOL_GEOM_REL * max(float(np.hypot(*(pts.max(axis=0) - pts.min(axis=0)))), 1e-300)
    frontier = [todo.pop(0)]
    while frontier and todo:
        group = frontier.pop()
        near = [other for other in todo
                if any(_polyline_distance(polylines[i], polylines[j]) <= tol
                       for i in group for j in other)]
        todo = [other for other in todo if other not in near]
        frontier += near
    return not todo


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


def _shortest_u_curve(poly: ConvexPolygon, thetas) -> UCurve:
    """The shortest U-curve over an array of baselines, first on ties,
    built from the contacts its scoring found."""
    i1, i2, _, lengths = _u_lengths(poly, thetas)
    k = int(np.argmin(lengths))
    theta, i1, i2 = float(thetas[k]), int(i1[k]), int(i2[k])
    nrm = unit_normal(theta)
    t = poly.coords @ nrm
    t0 = t.min()  # one rounding for the baseline and both drops
    pts = [poly.vertices[i] for i in (i1 - np.arange((i1 - i2) % len(poly) + 1)) % len(poly)]
    q1 = Point2(*(np.asarray(pts[0]) + (t0 - t[i1]) * nrm))
    q2 = Point2(*(np.asarray(pts[-1]) + (t0 - t[i2]) * nrm))
    poly_pts = _collapse([q1] + pts + [q2], poly.tol_geom)
    return UCurve(theta, tuple(poly_pts), float(polyline_length(poly_pts)))


def u_curve(poly: ConvexPolygon, baseline: float) -> UCurve:
    """Single-arc barrier: drop, boundary chain opposite the baseline, drop.

    ``baseline`` is an oriented direction in [0, 2*pi); the baseline line is
    tangent to the polygon with the polygon on its left.
    """
    return _shortest_u_curve(poly, [canon_oriented_angle(baseline)])


def algo_a1(poly: ConvexPolygon) -> BarrierSolution:
    """Shorter of the two U-curves of the minimum-width strip."""
    alpha_star, w, strip = min_width(poly)
    phi = strip.direction
    curve = _shortest_u_curve(poly, [phi, canon_oriented_angle(phi + math.pi)])
    barrier = Barrier((curve.polyline,), "single-arc")
    return _solution(poly, barrier, "a1", {"width": w, "baseline": curve.baseline})


def algo_a2(poly: ConvexPolygon) -> BarrierSolution:
    """A1 plus the Steiner-tree barrier of the tangent triangle corners."""
    a1 = algo_a1(poly)
    circ = largest_inscribed_circle(poly)
    tri = tangent_triangle(poly, circ)
    extras = {"b3_length": None}
    if tri is not None:
        nodes, edges, b3_len, _ = steiner_tree(tri.corners)
        extras["b3_length"] = b3_len
        # the two candidates tie on triangles with a vertex of 120 degrees or
        # more (both are the two sides at that vertex): take the tree unless
        # it is longer by more than rounding, so rotation cannot flip the kind
        if b3_len <= a1.length + TOL_LEN_REL * poly.diameter:
            polylines = tuple((nodes[i], nodes[j]) for i, j in edges)
            barrier = Barrier(polylines, "connected")
            return _solution(poly, barrier, "a2", extras)
    return BarrierSolution(a1.barrier, a1.length, a1.lower_bound, "a2",
                           a1.ratio, extras)


def algo_a3(poly: ConvexPolygon) -> BarrierSolution:
    """Minimum U-curve over the edge-flush candidate baselines.

    Candidates: for every edge direction d, the baselines d, d + pi/2 and
    d - pi/2 (baseline flush with the edge, or a side line flush with it).
    The minimum over all baselines occurs at one of these.
    """
    e = np.roll(poly.coords, -1, axis=0) - poly.coords
    thetas = np.unique(canon_oriented_angle(
        np.arctan2(e[:, 1], e[:, 0])[:, None] + [0.0, math.pi / 2.0, -math.pi / 2.0]))
    curve = _shortest_u_curve(poly, thetas)
    barrier = Barrier((curve.polyline,), "single-arc")
    return _solution(poly, barrier, "a3", {"baseline": curve.baseline})


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
    n = len(poly)
    # first and last vertex, counterclockwise, of the runs touching the
    # bottom, right, top and left sides (a window may repeat vertices)
    cand, near, _ = support_window(poly, [-nrm[0], u[0], nrm[0], -u[0]],
                                   [-nrm[1], u[1], nrm[1], -u[1]], poly.tol_geom)
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
        path = _collapse([start] + [poly.vertices[q] for q in idx] + [end], poly.tol_geom)
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


def hamiltonian_path_tables(poly: ConvexPolygon):
    """Circular-run DP for the minimum Hamiltonian path of the vertices.

    Row L covers the runs of L+1 consecutive vertices starting at each
    index i: S paths start at the run's first vertex i, T paths at its
    last, i+L.  Each row needs one diagonal of distances and the row
    before it, so only two float rows are kept; row n-1 is the shortest
    path from each start vertex.  Returns (lengths, choice_s, choice_t),
    where choice_s[L, i] (choice_t[L, i]) is set when the S (T) path
    steps to the far end of its run.

    A row is eleven ufunc calls into buffers allocated before the loop:
    S and T have length n + 1 with entry n repeating entry 0, so the row
    shifted by one vertex is the slice [1:], and the new S row goes to a
    second buffer because the new T row still reads the old one.
    """
    n = len(poly.coords)
    x2, y2 = np.concatenate([poly.coords, poly.coords]).T.copy()
    x, y = x2[:n], y2[:n]
    dnext = poly.edge_lengths
    dnext2 = np.concatenate([dnext, dnext])
    S = np.append(dnext, dnext[0])
    T = S.copy()
    S_new = np.empty(n + 1)
    dspan = np.empty(n)
    dy = np.empty(n)
    opt = np.empty(n)
    cs = np.zeros((n, n), dtype=bool)
    ct = np.zeros_like(cs)
    for L in range(2, n):
        np.subtract(x2[L:L + n], x, out=dspan)
        np.subtract(y2[L:L + n], y, out=dy)
        np.hypot(dspan, dy, out=dspan)
        s, t = S_new[:n], T[:n]
        np.add(dnext, S[1:], out=s)            # S steps to the next vertex
        np.add(dspan, T[1:], out=opt)          # S jumps to the run's far end
        np.less(opt, s, out=cs[L])
        np.minimum(s, opt, out=s)
        np.add(dspan, S[:n], out=opt)          # T jumps to the run's start
        np.add(dnext2[L - 1:L - 1 + n], t, out=t)  # T steps to the previous vertex
        np.less(opt, t, out=ct[L])
        np.minimum(t, opt, out=t)
        S_new[n] = S_new[0]
        T[n] = T[0]
        S, S_new = S_new, S
    return S[:n], cs, ct


def _reconstruct_path(choice_s, choice_t, i: int) -> list[int]:
    """Vertex order of the DP's shortest path from start vertex i."""
    n = len(choice_s)
    mode, L = "S", n - 1
    out = []
    while L > 1:
        if mode == "S":
            out.append(i)
            if choice_s[L, i]:
                mode = "T"
            i = (i + 1) % n
        else:
            out.append((i + L) % n)
            if choice_t[L, i]:
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
    lengths, choice_s, choice_t = hamiltonian_path_tables(poly)
    order = _reconstruct_path(choice_s, choice_t, int(np.argmin(lengths)))
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
