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
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    TOL_GEOM_REL,
    ConvexPolygon,
    Point2,
    canon_oriented_angle,
    min_perimeter_rectangle,
    min_width,
    polyline_length,
    read_points,
    support_window,
    unit_normal,
)
from .incircle import largest_inscribed_circle, tangent_triangle
from .steiner import steiner_tree

KINDS = ("single-arc", "connected", "arbitrary")


class Barrier:
    """A finite set of polylines with a kind tag.

    kind "single-arc" requires exactly one polyline; kind "connected"
    requires the union of polylines to be a connected point set.

    The points live in one read-only (m, 2) float array, polyline after
    polyline (``all_points()``), and ``sizes`` holds each polyline's number
    of points.  ``polylines``, tuples of ``Point2``, and ``segments()`` are
    built from the array on first use; nothing else reads them.  Barriers
    are read-only values: equal, and hash equal, when their kinds, sizes
    and coordinates are (-0.0 equal to 0.0).
    """

    def __init__(self, polylines, kind: str):
        """``polylines`` is a sequence of polylines, each a sequence of
        (x, y) pairs or a (k, 2) array; the coordinates are copied."""
        if kind not in KINDS:
            raise ValueError(f"unknown barrier kind {kind!r}")
        if len(polylines) == 0:
            raise ValueError("barrier needs at least one polyline")
        sizes = [len(pl) for pl in polylines]
        self._setup(read_points([p for pl in polylines for p in pl], "barrier points"),
                    sizes, kind)

    @classmethod
    def _of(cls, xy: np.ndarray, sizes: list[int], kind: str,
            points: np.ndarray | None = None) -> Barrier:
        """The barrier over ``xy``, a new (m, 2) float array it keeps
        read-only without a copy, cut into polylines of ``sizes`` points.
        When given, ``points`` are its distinct points, first occurrence
        first, and the polylines form one component: no union and no sort
        runs."""
        barrier = cls.__new__(cls)
        xy = np.ascontiguousarray(xy, dtype=float)
        xy.flags.writeable = False
        if points is not None:
            points.flags.writeable = False
            vars(barrier).update(components=[list(range(len(sizes)))],
                                 component_points=(points, [len(points)]))
        barrier._setup(xy, sizes, kind)
        return barrier

    def _setup(self, xy: np.ndarray, sizes: list[int], kind: str) -> None:
        vars(self).update(_xy=xy, sizes=tuple(sizes), kind=kind)
        if min(sizes) < 2:
            raise ValueError("each polyline needs at least 2 points")
        if self.length <= 0.0 or not math.isfinite(self.length):
            raise ValueError("barrier length must be finite and positive")
        if kind == "single-arc" and len(sizes) != 1:
            raise ValueError("single-arc barrier must be one polyline")
        if kind == "connected" and not _polylines_connected(xy, sizes, self.components):
            raise ValueError("polylines of a connected barrier must touch")

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot set {name!r}: a Barrier is read-only")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Barrier):
            return NotImplemented
        return (self.kind == other.kind and self.sizes == other.sizes
                and bool(np.array_equal(self._xy, other._xy)))

    def __hash__(self) -> int:
        # adding 0.0 turns -0.0 into 0.0, which compares equal
        return hash((self.kind, self.sizes, (self._xy + 0.0).tobytes()))

    def __repr__(self) -> str:
        return f"Barrier({self.polylines!r}, {self.kind!r})"

    @functools.cached_property
    def polylines(self) -> tuple[tuple[Point2, ...], ...]:
        """The polylines as tuples of ``Point2``, built on first use."""
        pts = map(Point2._make, self._xy.tolist())
        return tuple(tuple(itertools.islice(pts, k)) for k in self.sizes)

    @functools.cached_property
    def length(self) -> float:
        """Sum of ``polyline_length`` over the polylines, from one hypot
        over all the points: each polyline sums its own slice, so numpy's
        pairwise order, and every bit, stays that of ``polyline_length``."""
        d = np.diff(self._xy, axis=0)
        h = np.hypot(d[:, 0], d[:, 1])
        out, s = [], 0
        for k in self.sizes:
            e = s + k - 1
            out.append(float(h[s]) if k == 2 else float(h[s:e].sum()))
            s = e + 1
        return sum(out)

    @functools.cached_property
    def repeats(self) -> tuple[np.ndarray, np.ndarray]:
        """The rows of ``all_points()`` exactly equal to an earlier row
        (-0.0 equal to 0.0), and for each an earlier row equal to it; two
        empty arrays when all rows are distinct.  One stable sort of the
        rows, read as complex numbers x + iy (ordered by x, then y), puts
        equal rows next to each other in their original order: each run
        starts with its point's first occurrence, and every later row of
        the run is a repeat, paired with the row before it."""
        z = self._xy.view(np.complex128).ravel()
        order = np.argsort(z, kind="stable")
        s = z[order]
        later = np.flatnonzero(s[1:] == s[:-1]) + 1
        return order[later], order[later - 1]

    @functools.cached_property
    def components(self) -> list[list[int]]:
        """Indices of the polylines in each connected component, in order
        of each component's first polyline.  Two polylines are connected
        when they share an exactly equal point, so every distinct point
        belongs to exactly one component."""
        k = len(self.sizes)
        if k == 1:
            return [[0]]
        rows, earlier = self.repeats
        if not rows.size:
            return [[i] for i in range(k)]
        ends = np.cumsum(self.sizes)
        parent = list(range(k))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for i, j in zip(np.searchsorted(ends, rows, side="right").tolist(),
                        np.searchsorted(ends, earlier, side="right").tolist()):
            parent[find(i)] = find(j)
        groups: dict[int, list[int]] = {}
        for i in range(k):
            groups.setdefault(find(i), []).append(i)
        return list(groups.values())

    @functools.cached_property
    def component_points(self) -> tuple[np.ndarray, list[int]]:
        """The distinct points grouped by connected component, each group in
        order of first occurrence, and the index where each component's run
        of rows ends.  Equal points lie in one component, so a point's first
        row there is its first row in the barrier (``repeats``)."""
        xy, groups, repeated = self._xy, self.components, self.repeats[0]
        rows = np.delete(np.arange(len(xy)), repeated) if repeated.size else np.arange(len(xy))
        if len(groups) == 1:           # a1, a3, interior-arc, the trees: no sort
            pts = xy[rows] if repeated.size else xy
            ends = [len(pts)]
        else:
            comp = _component_labels(groups, len(self.sizes))[
                np.searchsorted(np.cumsum(self.sizes), rows, side="right")]
            pts = xy[rows[np.argsort(comp, kind="stable")]]
            ends = np.cumsum(np.bincount(comp)).tolist()
        pts.flags.writeable = False    # shared by every reader
        return pts, ends

    def segments(self) -> list[tuple[Point2, Point2]]:
        out = []
        for pl in self.polylines:
            out.extend(zip(pl[:-1], pl[1:]))
        return out

    def all_points(self) -> np.ndarray:
        """Every point, polyline by polyline, as a read-only (m, 2) array."""
        return self._xy


@dataclass(frozen=True)
class BarrierSolution:
    barrier: Barrier
    length: float
    lower_bound: float
    method: str
    ratio: float
    extras: dict = field(default_factory=dict, compare=False)


# segment pairs per block in _polylines_connected: its arrays stay near
# PAIR_BLOCK * 16 bytes each however many segments the barrier has
PAIR_BLOCK = 1 << 14


def touch_search(k: int, near) -> bool:
    """Do ``k`` pieces form one connected touch graph?  A search from piece
    0 asks ``near(c, todo)`` for the pieces of the list ``todo``, those not
    reached yet, that touch the reached piece c, as a list or set of
    distinct pieces; it stops when no reached piece is left to ask about,
    or none is left unreached."""
    todo, stack = list(range(1, k)), [0]
    while stack and todo:
        found = near(stack.pop(), todo)
        stack += found
        todo = [j for j in todo if j not in found]
    return not todo


def _component_labels(groups: list[list[int]], k: int) -> np.ndarray:
    """The component index of each of the k polylines, from ``groups`` (``Barrier.components``)."""
    label = np.empty(k, dtype=np.intp)
    for c, group in enumerate(groups):
        label[group] = c
    return label


def _polylines_connected(xy: np.ndarray, sizes, groups) -> bool:
    """Do the polylines, runs of ``sizes`` rows of ``xy``, form one
    connected set?  Exactly shared points connect (``groups``, their
    ``Barrier.components``); so do segments within TOL_GEOM_REL times the
    extent of the points of each other, crossings included
    (``_segments_touch``).  Each reached group's segments are tested
    against every unreached group's at once, PAIR_BLOCK pairs at a time."""
    if len(groups) == 1:
        return True
    tol = TOL_GEOM_REL * max(float(np.hypot(*(xy.max(axis=0) - xy.min(axis=0)))), 1e-300)
    # each segment's group
    owner = np.repeat(_component_labels(groups, len(sizes)), np.subtract(sizes, 1))
    z, last = xy.view(np.complex128).ravel(), np.cumsum(sizes)[:-1] - 1
    a, b = np.delete(z[:-1], last), np.delete(z[1:], last)        # segment ends

    def near(c, todo):
        cols = np.flatnonzero(np.isin(owner, todo))
        rows = np.flatnonzero(owner == c)
        hit = np.zeros(len(cols), dtype=bool)
        step = max(1, PAIR_BLOCK // len(cols))
        for s in range(0, len(rows), step):
            r = rows[s:s + step, None]
            hit |= _segments_touch(a[r], b[r], a[cols], b[cols], tol).any(axis=0)
        return set(owner[cols[hit]].tolist())

    return touch_search(len(groups), near)


def _segments_touch(a0, a1, b0, b1, tol: float) -> np.ndarray:
    """Do the segments a0 a1 and b0 b1, points x + iy in complex arrays
    that broadcast, cross, or does an endpoint of one lie within tol of
    the other?  For a point p and a segment q r, conj(r - q) (p - q) is
    the dot product plus i times the cross product of r - q and p - q."""
    near, side = False, []
    for p, q, r in ((b0, a0, a1), (b1, a0, a1), (a0, b0, b1), (a1, b0, b1)):
        e = r - q
        w = e.conjugate() * (p - q)
        ee = (e.conjugate() * e).real
        t = np.divide(w.real, ee, out=np.zeros(w.shape), where=ee != 0.0)
        near = near | (np.abs(p - (q + np.minimum(np.maximum(t, 0.0), 1.0) * e)) <= tol)
        side.append(w.imag > 0)
    return near | ((side[0] != side[1]) & (side[2] != side[3]))


def half_perimeter_lower_bound(poly: ConvexPolygon) -> float:
    """Universal lower bound: every barrier is at least half the perimeter."""
    return poly.perimeter / 2.0


def _solution(poly, barrier, method, extras=None) -> BarrierSolution:
    lb = half_perimeter_lower_bound(poly)
    length = barrier.length
    return BarrierSolution(barrier, length, lb, method, length / lb, extras or {})


def _path(start: np.ndarray, chain: np.ndarray, end: np.ndarray, tol: float) -> np.ndarray:
    """``start``, the polygon vertices ``chain`` and ``end`` as one new
    array, less a point within ``tol`` of the one kept before it: validated
    vertices lie farther apart than ``poly.tol.geom``, so only the two ends
    can collapse."""
    a, b = start.tolist(), end.tolist()
    if math.dist(a, chain[0].tolist()) <= tol:
        chain = chain[1:]
    if math.dist(chain[-1].tolist() if len(chain) else a, b) <= tol:
        return np.concatenate([start[None], chain])
    return np.concatenate([start[None], chain, end[None]])


# ---------------------------------------------------------------------------
# U-curves and the strip algorithms A1 / A3


def _u_lengths(poly: ConvexPolygon, thetas):
    """Contact indices, baseline offsets and total lengths of U(P, theta)
    for an array of baselines, as arrays (i1, i2, t0, length).

    With s and t the projections on the baseline direction and its normal,
    i1 (i2) is the lowest vertex, smallest index on ties, among those
    within ``poly.tol.geom`` of the smallest (largest) s.
    """
    th = np.asarray(thetas, dtype=float)
    c, s = np.cos(th), np.sin(th)
    # blocks: smallest s, largest s, and smallest t as the largest -t
    cand, near, proj = (a.reshape(len(a), 3, len(th)) for a in support_window(
        poly, np.concatenate([-c, c, s]), np.concatenate([-s, s, -c]), poly.tol.geom))
    t0 = -proj[:, 2].max(axis=0)
    x, y = poly.coords.T
    tv = np.where(near[:, :2], x[cand[:, :2]] * -s + y[cand[:, :2]] * c, np.inf)
    tmin = tv.min(axis=0)
    i1, i2 = np.where(tv == tmin, cand[:, :2], len(poly)).min(axis=0)
    cum = poly.cumulative_lengths
    per = poly.perimeter
    arc = np.where(i1 != i2, per - (cum[i2] - cum[i1]) % per, 0.0)
    return i1, i2, t0, (tmin[0] - t0) + (tmin[1] - t0) + arc


def u_curve(poly: ConvexPolygon, baselines) -> tuple[float, Barrier]:
    """Baseline and single-arc barrier of the shortest U-curve over an array
    of oriented baselines in [0, 2*pi), first on ties: the boundary chain
    opposite the baseline, which is tangent with the polygon on its left,
    and the drops from its two contacts, the ones its scoring found."""
    i1, i2, _, lengths = _u_lengths(poly, baselines)
    k = int(np.argmin(lengths))
    theta, i1, i2 = float(baselines[k]), int(i1[k]), int(i2[k])
    nrm = unit_normal(theta)
    t = poly.coords @ nrm
    t0 = t.min()  # one rounding for the baseline and both drops
    chain = poly.coords[(i1 - np.arange((i1 - i2) % len(poly) + 1)) % len(poly)]
    q1, q2 = chain[[0, -1]] + (t0 - t[[i1, i2]])[:, None] * nrm
    path = _path(q1, chain, q2, poly.tol.geom)
    return theta, Barrier._of(path, [len(path)], "single-arc")


def algo_a1(poly: ConvexPolygon) -> BarrierSolution:
    """Shorter of the two U-curves of the minimum-width strip."""
    alpha_star, w, strip = min_width(poly)
    phi = strip.direction
    theta, barrier = u_curve(poly, [phi, canon_oriented_angle(phi + math.pi)])
    return _solution(poly, barrier, "a1", {"width": w, "baseline": theta})


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
        # it is longer by more than rounding, so no similarity flips the kind
        if b3_len <= a1.length + poly.tol.tie:
            return _solution(poly, _tree_barrier(tri.corners, nodes, edges), "a2", extras)
    return _solution(poly, a1.barrier, "a2", extras)


def algo_a3(poly: ConvexPolygon) -> BarrierSolution:
    """Minimum U-curve over the edge-flush candidate baselines.

    Candidates: for every edge direction d, the baselines d, d + pi/2 and
    d - pi/2 (baseline flush with the edge, or a side line flush with it).
    The minimum over all baselines occurs at one of these.
    """
    e = np.roll(poly.coords, -1, axis=0) - poly.coords
    thetas = np.unique(canon_oriented_angle(
        np.arctan2(e[:, 1], e[:, 0])[:, None] + [0.0, math.pi / 2.0, -math.pi / 2.0]))
    theta, barrier = u_curve(poly, thetas)
    return _solution(poly, barrier, "a3", {"baseline": theta})


# ---------------------------------------------------------------------------
# A4: rectangle wrap-around plus altitude


def algo_a4_candidates(poly: ConvexPolygon):
    """The four A4 candidates.

    Returns (rect, altitude_length, candidates); each candidate is a pair
    of polylines (wrap-around path, altitude segment), (k, 2) arrays, with
    its length.
    """
    rect = min_perimeter_rectangle(poly)
    c = np.array(rect.corners, dtype=float)
    alt = rect.side_x * rect.side_y / math.hypot(rect.side_x, rect.side_y)
    # the rectangle's own frame (corner differences over the sides are off
    # by ulp(|corner|) / side far from the origin)
    u, nrm = np.array(rect.axis_x), np.array(rect.axis_y)
    n = len(poly)
    # first and last vertex, counterclockwise, of the runs touching the bottom,
    # right, top and left sides, by position along the side: rounding can put
    # every vertex of a polygon thinner than it on both long sides
    side = np.array([-nrm, u, nrm, -u])
    cand, near, _ = support_window(poly, side[:, 0], side[:, 1], poly.tol.geom)
    x, y = poly.coords.T
    along = x[cand] * -side[:, 1] + y[cand] * side[:, 0]
    cols = np.arange(4)
    first = cand[np.where(near, along, np.inf).argmin(axis=0), cols].tolist()
    last = cand[np.where(near, along, -np.inf).argmax(axis=0), cols].tolist()
    out = []
    for k in range(4):
        i, j = first[k], last[(k + 1) % 4]
        m = (j - i) % n + 1
        chain = poly.coords[i:i + m] if i + m <= n else poly.coords[(i + np.arange(m)) % n]
        path = _path(c[k], chain, c[(k + 2) % 4], poly.tol.geom)
        # the altitude from the opposite corner to the diagonal start-end
        start, opp = c[k], c[(k + 3) % 4]
        ab = c[(k + 2) % 4] - start
        foot = start + float((opp - start) @ ab) / float(ab @ ab) * ab
        length = polyline_length(path) + math.dist(opp.tolist(), foot.tolist())
        out.append(((path, np.array([opp, foot])), length))
    return rect, alt, out


def algo_a4(poly: ConvexPolygon) -> BarrierSolution:
    """Shortest of the four rectangle wrap-around candidates (2 pieces)."""
    rect, alt, cands = algo_a4_candidates(poly)
    (path, altitude), _ = min(cands, key=lambda c: c[1])
    barrier = Barrier._of(np.concatenate([path, altitude]), [len(path), 2], "arbitrary")
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
    S_new, dspan, dy, opt = np.empty(n + 1), np.empty(n), np.empty(n), np.empty(n)
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
    barrier = Barrier._of(poly.coords[order], [len(order)], "single-arc")
    return _solution(poly, barrier, "interior-arc", {"order": order})


def interior_connected(poly: ConvexPolygon) -> BarrierSolution:
    """Minimum connected interior barrier: Steiner tree of the vertices.

    Exact for up to 4 vertices; for larger polygons an MST-based heuristic
    whose length sits between (sqrt(3)/2) * MST and MST.
    """
    nodes, edges, length, exact = steiner_tree(poly.coords)
    return _solution(poly, _tree_barrier(poly.coords, nodes, edges), "interior-tree",
                     {"heuristic": not exact})


def _tree_barrier(terminals, nodes: list[Point2], edges: list[tuple[int, int]]) -> Barrier:
    """The connected barrier of the tree's edges, one two-point polyline
    each, from one take of the node array.  The nodes start with the
    terminals as the same floats, so only the junctions are read from the
    ``Point2`` list.  The edges ``steiner_tree`` returns span its nodes,
    each node an edge end and no two equal, so the barrier is handed its
    distinct points, each node's first row, as one component."""
    junctions = np.array(nodes[len(terminals):], dtype=float).reshape(-1, 2)
    ids = np.array(edges, dtype=np.intp).ravel()
    xy = np.concatenate([read_points(terminals), junctions])[ids]
    first = np.full(len(nodes), len(ids))
    np.minimum.at(first, ids, np.arange(len(ids)))
    return Barrier._of(xy, [2] * len(edges), "connected", xy[np.sort(first)])
