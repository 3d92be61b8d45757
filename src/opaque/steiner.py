"""Euclidean Steiner constructions: three-point Fermat stars, minimum
spanning trees (Prim's algorithm in O(n^2) time and O(n) memory), an exact
four-terminal solver (Melzak's construction), and a star-merging heuristic
for larger terminal sets in convex position.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import TOL_ANG, TOL_AREA_REL, TOL_GEOM_REL, TOL_LEN_REL, Point2, cross2

_TWO_THIRDS_PI = 2.0 * math.pi / 3.0


def _pt(p) -> Point2:
    return Point2(float(p[0]), float(p[1]))


def steiner_three_points(a, b, c) -> tuple[Point2 | None, float]:
    """Steiner minimal tree of three points.

    All angles below 2*pi/3: returns the Fermat-Torricelli star point and
    the star length.  A wide angle degenerates the tree to the two edges at
    that vertex, and collinear input to the span through the middle point;
    both return no star point.
    """
    f, on = _fermat(a, b, c)
    length = sum(math.dist(f, q) for q in (a, b, c))
    return (f if on is None else None), length


def _fermat(a, b, c) -> tuple[Point2, int | None]:
    """Point minimizing total distance to three points, and the index of
    the point it sits on (the vertex with angle >= 2*pi/3, or the middle of
    collinear points), None when it is the Simpson-line intersection."""
    p = np.array([a, b, c], dtype=float)
    d = [math.dist(p[1], p[2]), math.dist(p[2], p[0]), math.dist(p[0], p[1])]
    scale = max(d)
    area2 = float(cross2(p[1] - p[0], p[2] - p[0]))
    if abs(area2) <= TOL_AREA_REL * scale * scale:
        on = int(np.argmax(d))  # collinear: middle point is opposite longest span
    else:
        on = _wide_vertex(p)
    if on is not None:
        return _pt(p[on]), on
    return _fermat_construction(p), None


def _vertex_angle(p: np.ndarray, i: int) -> float:
    u = p[(i + 1) % 3] - p[i]
    v = p[(i + 2) % 3] - p[i]
    cosv = float(u @ v / (np.hypot(*u) * np.hypot(*v)))
    return math.acos(max(-1.0, min(1.0, cosv)))


def _wide_vertex(p: np.ndarray) -> int | None:
    """Index of a vertex with angle >= 2*pi/3, if any."""
    for i in range(3):
        if _vertex_angle(p, i) >= _TWO_THIRDS_PI - TOL_ANG:
            return i
    return None


def _fermat_construction(p: np.ndarray) -> Point2:
    """Intersection of the two Simpson lines (vertex to outward equilateral
    apex on the opposite side)."""
    lines = []
    for i in range(2):
        q, r = p[(i + 1) % 3], p[(i + 2) % 3]
        apex = _outward_apex(q, r, p[i])
        lines.append((p[i], apex - p[i]))
    (p0, u0), (p1, u1) = lines
    den = float(cross2(u0, u1))
    t = float(cross2(p1 - p0, u1)) / den
    return _pt(p0 + t * u0)


def _outward_apex(q: np.ndarray, r: np.ndarray, opposite: np.ndarray) -> np.ndarray:
    """Apex of the equilateral triangle on qr, on the side away from
    `opposite`."""
    mid = (q + r) / 2.0
    h = math.sqrt(3.0) / 2.0
    e = r - q
    n = np.array([-e[1], e[0]])
    apex = mid + h * n
    if float((apex - mid) @ (opposite - mid)) > 0.0:
        apex = mid - h * n
    return apex


def euclidean_mst(points) -> tuple[list[tuple[int, int]], float]:
    """Minimum spanning tree of the complete Euclidean graph: its edges
    (i, j), i < j, in ascending order, and its total length.

    Prim's algorithm adds one vertex per step and keeps O(n) memory.  Edges
    are ordered strictly by (length, i, j), with length the rounded
    sqrt(dx*dx + dy*dy), so the tree is unique even where lengths tie (as
    on regular polygons) and does not depend on the order of the steps.
    """
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    # best[v] and end[v]: length and tree end of the lightest edge from v to
    # the tree.  A tree vertex gets NaN coordinates, so no comparison updates
    # it, and best = inf, so argmin never picks it.
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
        # equal lengths are rare off regular polygons: order them by index
        # only where == finds one
        tie = d == best
        if np.count_nonzero(tie):
            for v in np.flatnonzero(tie).tolist():
                e = int(end[v])
                if (min(u, v), max(u, v)) < (min(e, v), max(e, v)):
                    end[v] = u
        closer = d < best
        np.copyto(best, d, where=closer)
        np.copyto(end, u, where=closer)
        k = int(best.argmin())
        w = best[k]
        if n - 1 - int(best[::-1].argmin()) != k:  # the minimum is not unique
            k = min(np.flatnonzero(best == w).tolist(),
                    key=lambda v: (min(v, int(end[v])), max(v, int(end[v]))))
        p = int(end[k])
        found.append((min(k, p), max(k, p), w))
        best[k] = np.inf
        u = k
    found.sort()
    return [(i, j) for i, j, _ in found], float(np.sum([w for _, _, w in found]))


def steiner_tree(points) -> tuple[list[Point2], list[tuple[int, int]], float, bool]:
    """Steiner tree of the terminal set.

    Exact for up to 4 terminals; beyond that an MST improved by greedy
    Fermat-star merging (an upper bound within the Steiner-ratio sandwich
    of the optimum).  Returns (nodes, edges, length, exact_flag); nodes
    start with the terminals, junction points follow.
    """
    pts = [_pt(p) for p in points]
    n = len(pts)
    if n < 2:
        raise ValueError("need at least 2 terminals")
    if n == 2:
        return pts, [(0, 1)], math.dist(pts[0], pts[1]), True
    if n == 3:
        f, on = _fermat(*pts)
        length = sum(math.dist(f, q) for q in pts)
        if on is not None:
            return pts, [(on, (on + 1) % 3), (on, (on + 2) % 3)], length, True
        return pts + [f], [(3, 0), (3, 1), (3, 2)], length, True
    if n == 4:
        return _steiner_four(pts)
    return _steiner_heuristic(pts)


def _steiner_four(pts) -> tuple[list[Point2], list[tuple[int, int]], float, bool]:
    # no MST candidate: the MST has a leaf, and the 3+1 tree that skips it is
    # never longer (the three-point tree is at most the MST of the other three,
    # and the leaf's MST edge is its shortest edge to them)
    best_nodes, best_edges, best_len = None, None, math.inf
    diam = max(math.dist(a, b) for a in pts for b in pts)

    # full topologies ab|cd by Melzak's construction: e1 (e2) is the outward
    # equilateral apex on ab (cd), and each junction is the Fermat point of
    # its terminal pair and the other side's apex.  The length is measured on
    # the constructed nodes, so an invalid construction only loses to the
    # 3+1 candidates.
    arr = np.array(pts, dtype=float)
    for pair1, pair2 in (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))):
        a, b = arr[list(pair1)]
        c, d = arr[list(pair2)]
        e1 = _outward_apex(a, b, (c + d) / 2.0)
        e2 = _outward_apex(c, d, (a + b) / 2.0)
        s1, _ = _fermat(a, b, e2)
        s2, _ = _fermat(c, d, e1)
        length = (math.dist(a, s1) + math.dist(b, s1) + math.dist(s1, s2)
                  + math.dist(c, s2) + math.dist(d, s2))
        if length < best_len:
            nodes = list(pts) + [s1, s2]
            edges = [(pair1[0], 4), (pair1[1], 4), (4, 5), (pair2[0], 5), (pair2[1], 5)]
            best_nodes, best_edges, best_len = nodes, _drop_degenerate(nodes, edges, diam), length

    # three-terminal star plus a shortest edge from the remaining terminal
    for skip in range(4):
        tri = [i for i in range(4) if i != skip]
        sub = [pts[i] for i in tri]
        sub_nodes, sub_edges, sub_len, _ = steiner_tree(sub)
        attach = min(range(len(sub_nodes)), key=lambda k: math.dist(pts[skip], sub_nodes[k]))
        length = sub_len + math.dist(pts[skip], sub_nodes[attach])
        if length < best_len:
            nodes = list(pts) + [p for p in sub_nodes[3:]]
            remap = {k: (tri[k] if k < 3 else 4) for k in range(len(sub_nodes))}
            edges = [(remap[i], remap[j]) for i, j in sub_edges]
            edges.append((skip, remap[attach]))
            best_nodes, best_edges, best_len = nodes, edges, length
    return best_nodes, best_edges, best_len, True


def _drop_degenerate(nodes, edges, diam):
    """Collapse zero-length edges produced when a junction lands on a node."""
    tol = TOL_GEOM_REL * diam
    alias = list(range(len(nodes)))

    def find(i):
        while alias[i] != i:
            alias[i] = alias[alias[i]]
            i = alias[i]
        return i

    for i, j in edges:
        if math.dist(nodes[i], nodes[j]) <= tol:
            alias[find(max(i, j))] = find(min(i, j))
    out = []
    for i, j in edges:
        fi, fj = find(i), find(j)
        if fi != fj:
            out.append((fi, fj))
    return out


def _steiner_heuristic(pts) -> tuple[list[Point2], list[tuple[int, int]], float, bool]:
    nodes = list(pts)
    edges, _ = euclidean_mst(pts)
    arr = np.array(pts, dtype=float)
    diam = float(np.hypot(*(arr.max(axis=0) - arr.min(axis=0))))
    adj: dict[int, set[int]] = {i: set() for i in range(len(nodes))}
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)

    # (gain, center) of merging star (u; v, w): nodes never move once
    # appended, so each triple is computed once per call
    merges: dict[tuple[int, int, int], tuple[float, Point2]] = {}
    for _ in range(10 * len(pts)):
        best = None
        for u in list(adj):
            nbrs = sorted(adj[u])
            for ai in range(len(nbrs)):
                for bi in range(ai + 1, len(nbrs)):
                    v, w = nbrs[ai], nbrs[bi]
                    if (u, v, w) not in merges:
                        cur = math.dist(nodes[u], nodes[v]) + math.dist(nodes[u], nodes[w])
                        center, _ = _fermat(nodes[u], nodes[v], nodes[w])
                        new = sum(math.dist(center, nodes[k]) for k in (u, v, w))
                        merges[u, v, w] = (cur - new, center)
                    gain, center = merges[u, v, w]
                    if gain > TOL_LEN_REL * diam and (best is None or gain > best[0]):
                        best = (gain, u, v, w, center)
        if best is None:
            break
        _, u, v, w, center = best
        adj[u].discard(v)
        adj[v].discard(u)
        adj[u].discard(w)
        adj[w].discard(u)
        cid = None
        for k in (u, v, w):
            if math.dist(center, nodes[k]) <= TOL_GEOM_REL * diam:
                cid = k
                break
        if cid is None:
            cid = len(nodes)
            nodes.append(center)
            adj[cid] = set()
        for k in (u, v, w):
            if k != cid:
                adj[cid].add(k)
                adj[k].add(cid)

    out_edges = sorted({(min(i, j), max(i, j)) for i in adj for j in adj[i]})
    length = sum(math.dist(nodes[i], nodes[j]) for i, j in out_edges)
    return nodes, out_edges, length, False
