"""Euclidean Steiner constructions: three-point Fermat stars on plain
floats, minimum spanning trees of polygon vertices (Kruskal over Chew's
Delaunay triangulation of points in convex position, O(n log n) time and
O(n) memory, with Prim's tree and length bits), an exact four-terminal
solver (Melzak's construction), and a star-merging heuristic for larger
terminal sets in convex position that keeps its candidate merges in a heap
of gains.
"""

from __future__ import annotations

import heapq
import math
import random
import sys

import numpy as np

from .geometry import TOL_ANG, TOL_AREA_REL, TOL_GEOM_REL, TOL_LEN_REL, Point2, read_points

_TWO_THIRDS_PI = 2.0 * math.pi / 3.0
_WIDE_ANGLE = _TWO_THIRDS_PI - TOL_ANG
# the angle test runs on floats, numpy's on arrays: its 2-vector dot fuses a
# multiply-add and np.hypot rounds apart from math.hypot, so the two angles
# differ by up to about 6e-16 rad.  Within this band of the threshold the
# array angle (`_vertex_angle`) decides, so every call decides as it did.
_ANGLE_BAND = 1e-13
# the same holds for the sign of the outward-apex dot product: the float sum
# and numpy's fused one lie within two roundings of the exact value, so
# their signs agree unless the sum is within this many times
# |s| + |t| of zero
_DOT_BAND = 4.0 * sys.float_info.epsilon
_HALF_SQRT3 = math.sqrt(3.0) / 2.0
# the heuristic's wide-angle screen fires at angles of at least 2*pi/3 plus
# this margin, far more than the few ulps by which its float cosine and the
# one `steiner_three_points` tests can differ, so the two always agree
_WIDE_MARGIN = 1e-6
_COS_WIDE = math.cos(_TWO_THIRDS_PI + _WIDE_MARGIN)
# squared lengths farther apart than this factor have rounded square roots
# apart too: each root is rounded by at most 2**-53 of itself
_APART = 1.0 + 2.0 ** -40


def steiner_three_points(a, b, c) -> tuple[Point2, int | None]:
    """Fermat-Torricelli point of three points, the one minimizing the
    total distance to them, and the index of the point it sits on (the
    vertex with angle >= 2*pi/3, or the middle of collinear points), None
    when it is the Simpson-line intersection, a star of three edges."""
    ax, ay = float(a[0]), float(a[1])
    bx, by = float(b[0]), float(b[1])
    cx, cy = float(c[0]), float(c[1])
    abx, aby = bx - ax, by - ay
    acx, acy = cx - ax, cy - ay
    bcx, bcy = cx - bx, cy - by
    pts = ((ax, ay), (bx, by), (cx, cy))
    d = [math.hypot(bcx, bcy), math.hypot(acx, acy), math.hypot(abx, aby)]
    scale = max(d)
    area2 = abx * acy - aby * acx
    if abs(area2) <= TOL_AREA_REL * scale * scale:
        on = d.index(scale)  # collinear: middle point is opposite longest span
        return Point2(*pts[on]), on
    # the angle at each vertex from the dot product of its two sides
    for i, dot, norms in ((0, abx * acx + aby * acy, d[2] * d[1]),
                          (1, -(bcx * abx + bcy * aby), d[0] * d[2]),
                          (2, acx * bcx + acy * bcy, d[1] * d[0])):
        angle = math.acos(max(-1.0, min(1.0, dot / norms)))
        if abs(angle - _WIDE_ANGLE) <= _ANGLE_BAND:
            angle = _vertex_angle(np.array(pts), i)
        if angle >= _WIDE_ANGLE:
            return Point2(*pts[i]), i
    # intersection of the two Simpson lines (vertex to outward equilateral
    # apex on the opposite side)
    e0x, e0y = _outward_apex(pts[1], pts[2], pts[0])
    e1x, e1y = _outward_apex(pts[2], pts[0], pts[1])
    u0x, u0y = e0x - ax, e0y - ay
    u1x, u1y = e1x - bx, e1y - by
    t = (abx * u1y - aby * u1x) / (u0x * u1y - u0y * u1x)
    return Point2(ax + t * u0x, ay + t * u0y), None


def _vertex_angle(p: np.ndarray, i: int) -> float:
    """The angle at p[i] as numpy computes it, the tie-breaker of
    `steiner_three_points`'s float test."""
    u = p[(i + 1) % 3] - p[i]
    v = p[(i + 2) % 3] - p[i]
    cosv = float(u @ v / (np.hypot(*u) * np.hypot(*v)))
    return math.acos(max(-1.0, min(1.0, cosv)))


def _outward_apex(q, r, opposite) -> tuple[float, float]:
    """Apex of the equilateral triangle on qr, on the side away from
    `opposite`."""
    mx, my = (q[0] + r[0]) / 2.0, (q[1] + r[1]) / 2.0
    nx, ny = -(r[1] - q[1]), r[0] - q[0]
    ax, ay = mx + _HALF_SQRT3 * nx, my + _HALF_SQRT3 * ny
    hx, hy = ax - mx, ay - my
    ox, oy = opposite[0] - mx, opposite[1] - my
    s, t = hx * ox, hy * oy
    dot = s + t
    if abs(dot) <= _DOT_BAND * (abs(s) + abs(t)):
        dot = float(np.array([hx, hy]) @ np.array([ox, oy]))
    if dot > 0.0:
        return mx - _HALF_SQRT3 * nx, my - _HALF_SQRT3 * ny
    return ax, ay


def euclidean_mst(points) -> tuple[list[tuple[int, int]], float]:
    """Minimum spanning tree of the complete Euclidean graph on the vertices
    of a strictly convex counterclockwise polygon, or on any 1 to 3 points:
    its edges (i, j), i < j, in ascending order, and its total length.

    Edges are ordered strictly by (length, i, j), with length the rounded
    sqrt(dx*dx + dy*dy), so the tree is unique even where lengths tie (as
    on regular polygons); it is Prim's tree in that order.  Kruskal's
    algorithm takes the edges of the vertices' Delaunay triangulation
    (``_convex_delaunay``, which holds every edge of the tree) in that order,
    2n - 3 of them, and the kept lengths are summed in ascending (i, j)
    order.  O(n log n) time (the sort; the triangulation takes O(n)
    expected time) and O(n) memory.  Four or more points that are not such
    a cycle raise ValueError.
    """
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    x, y = pts[:, 0], pts[:, 1]
    if n <= 3:
        lo, hi = np.triu_indices(n, 1)
    else:
        _check_convex_cycle(pts)
        lo, hi = _convex_delaunay(x.tolist(), y.tolist())
    dx = x[hi] - x[lo]
    dy = y[hi] - y[lo]
    length = np.sqrt(dx * dx + dy * dy)
    # the edges come in ascending (i, j), so a stable sort by length is
    # Prim's order, np.lexsort((hi, lo, length)); union-find halves paths
    rank = np.argsort(length, kind="stable").tolist()
    los, his = lo.tolist(), hi.tolist()
    root = list(range(n))
    keep = []
    for k in rank:
        i, j = los[k], his[k]
        while root[i] != i:
            root[i] = i = root[root[i]]
        while root[j] != j:
            root[j] = j = root[root[j]]
        if i != j:
            root[i] = j
            keep.append(k)
            if len(keep) == n - 1:
                break
    keep.sort()
    sel = np.array(keep, dtype=np.intp)
    return list(zip(lo[sel].tolist(), hi[sel].tolist())), float(np.sum(length[sel]))


def _check_convex_cycle(pts: np.ndarray) -> None:
    """Raise ValueError unless the points turn strictly left at every
    vertex and their edge directions go once around: they turn from below
    the direction of +x to above it once."""
    dx, dy = np.diff(pts, axis=0, append=pts[:2]).T
    below = dy < 0.0
    if not ((dx[:-1] * dy[1:] - dy[:-1] * dx[1:]).min() > 0.0
            and np.count_nonzero(below[:-1] > below[1:]) == 1):
        raise ValueError("4 or more points must be the vertices of a strictly convex "
                         "counterclockwise polygon")


def _insertion_order(n: int) -> list[int]:
    """Chew's random deletion order of n vertices, from a generator seeded
    by n, so a call does not depend on global state."""
    order = list(range(n))
    random.Random(n).shuffle(order)
    return order


def _convex_delaunay(x: list[float], y: list[float]) -> tuple[np.ndarray, np.ndarray]:
    """The edges (lo, hi), lo < hi, in ascending order, of a Delaunay
    triangulation of the vertices of a convex counterclockwise polygon
    (n >= 4), by Chew's algorithm (L. P. Chew, "Building Voronoi diagrams
    for convex polygons in linear expected time", 1990).  The vertices are
    deleted from the cycle in the order ``_insertion_order(n)``, each
    recording its two neighbours, and reinserted in reverse: a vertex v
    comes back as the triangle on the hull edge between its recorded
    neighbours, followed by Lawson flips of the edges opposite v.  A
    counterclockwise triangle (u, v, w) is kept as three entries of one
    dict, apex[u * n + v] = w and its rotations.  Insertions make O(1)
    flips in expectation, so the whole takes O(n) expected time.

    Why the float flip test keeps Prim's tree.  Prim's tree is the MST in
    the strict order (rounded length, i, j).  By the cycle property an edge
    ab is in no such tree when some point p makes both pa and pb come before
    ab (a witness), and then in no such tree of any set holding a, b and p.
    In exact lengths, an edge of the tree has no other point in its closed
    diametral disk, so it is an edge of every exact Delaunay triangulation.

    A flip test keeps one diagonal of a convex quadrilateral (v, a, z, b)
    and drops the other: ab is flipped to vz when v lies inside the circle
    through b, a and z, by the sign of the incircle determinant in floats.
    The dropped diagonal must show a witness, whatever the sign: a corner
    whose squared lengths to its ends are smaller than the diagonal's by
    the factor ``_APART``, so that their rounded roots come first too.  The
    exact test always drops a diagonal with a witness in exact lengths (its
    two opposite angles sum to more than pi, so one is wider than pi/2),
    and the float sign differs from it only where the quadrilateral is
    cocircular to rounding (within Shewchuk's error bound, "Adaptive
    precision floating-point arithmetic and fast robust geometric
    predicates", 1997).  There each diagonal has an end whose angle is
    nearly pi/2 or wider, so both have witnesses and either may go.  An
    exact test of those would cost more than Prim's scan: on the regular
    512-gon most tests fall within the bound.  The squared lengths miss a
    witness only where a side is short against the diagonal (below about
    1e-6 of it); ``_tied_flip`` then compares Prim's keys, which miss one
    only where lengths tie to rounding (a side below about 3e-8 of the
    diagonal).  It drops the diagonal that has a witness there, follows the
    sign if both have one, and with neither the exact test decides.  So no
    test drops an edge of Prim's tree that the exact run would keep.  This
    argues one test at a time: after a choice inside the bound the run
    goes on from a triangulation the exact run may not reach.
    ``tests/test_steiner.py`` checks edges and length bits against Prim on
    regular n-gons, a thin, far-translated sweep and thin quadrilaterals
    with sides down to 1e-9 of the diagonal, in two insertion orders.
    """
    n = len(x)
    order = _insertion_order(n)
    prev = list(range(-1, n - 1))
    prev[0] = n - 1
    nxt = list(range(1, n + 1))
    nxt[-1] = 0
    gone = order[:n - 3]
    ends = []
    for v in gone:
        u, w = prev[v], nxt[v]
        ends.append((u, w))
        nxt[u] = w
        prev[w] = u
    a = order[-1]
    b = nxt[a]
    c = nxt[b]
    apex = {a * n + b: c, b * n + c: a, c * n + a: b}
    get = apex.get
    for v, (u, w) in zip(reversed(gone), reversed(ends)):
        apex[u * n + v] = w
        apex[v * n + w] = u
        apex[w * n + u] = v
        vx, vy = x[v], y[v]
        todo = [(w, u)]   # edges ab of triangles (v, a, b)
        while todo:
            a, b = todo.pop()
            z = get(b * n + a)
            if z is None:   # a hull edge
                continue
            # incircle(b, a, z, v), with the lifts |vb|^2, |va|^2, |vz|^2
            bx, by = x[b] - vx, y[b] - vy
            ax, ay = x[a] - vx, y[a] - vy
            zx, zy = x[z] - vx, y[z] - vy
            vb2 = bx * bx + by * by
            va2 = ax * ax + ay * ay
            vz2 = zx * zx + zy * zy
            det = vb2 * (ax * zy - zx * ay) + va2 * (zx * by - bx * zy) + vz2 * (bx * ay - ax * by)
            # the dropped diagonal, ab on a flip and vz otherwise, needs a
            # witness in the squared lengths, or else in Prim's keys
            ex, ey = x[z] - x[a], y[z] - y[a]
            za2 = ex * ex + ey * ey
            ex, ey = x[z] - x[b], y[z] - y[b]
            zb2 = ex * ex + ey * ey
            flip = det > 0.0
            if flip:
                ex, ey = x[a] - x[b], y[a] - y[b]
                cut = (ex * ex + ey * ey) / _APART
                shown = (va2 < cut and vb2 < cut) or (za2 < cut and zb2 < cut)
            else:
                cut = vz2 / _APART
                shown = (va2 < cut and za2 < cut) or (vb2 < cut and zb2 < cut)
            if not shown:
                flip = _tied_flip(x, y, v, a, z, b, det)
            if not flip:
                continue
            # flip ab to vz: (v, a, b) and (b, a, z) become (v, a, z) and (v, z, b)
            del apex[a * n + b]
            del apex[b * n + a]
            apex[v * n + a] = z
            apex[a * n + z] = v
            apex[z * n + v] = a
            apex[v * n + z] = b
            apex[z * n + b] = v
            apex[b * n + v] = z
            todo.append((a, z))
            todo.append((z, b))
    # an inner edge is a key in both directions, a hull edge in its
    # counterclockwise one: (i, i + 1), and (n - 1, 0), keyed as (0, n - 1)
    apex[n - 1] = apex.pop(n * n - n)
    i, j = np.divmod(np.sort(np.fromiter(apex, dtype=np.intp, count=len(apex))), n)
    inner = i < j
    return i[inner], j[inner]


def _prim_key(x, y, i: int, j: int) -> tuple[float, int, int]:
    """Edge ij's place in Prim's order."""
    dx, dy = x[i] - x[j], y[i] - y[j]
    return math.sqrt(dx * dx + dy * dy), min(i, j), max(i, j)


def _tied_flip(x, y, v: int, a: int, z: int, b: int, det: float) -> bool:
    """Flip ab to vz in the quadrilateral (v, a, z, b), for a test whose
    dropped diagonal showed no witness in the squared lengths: drop the
    diagonal that has a witness in Prim's keys, follow the float sign
    ``det`` if both have one, and take the exact incircle test if neither
    has."""
    ab, vz = _prim_key(x, y, a, b), _prim_key(x, y, v, z)
    va, vb = _prim_key(x, y, v, a), _prim_key(x, y, v, b)
    za, zb = _prim_key(x, y, z, a), _prim_key(x, y, z, b)
    ab_out = (va < ab and vb < ab) or (za < ab and zb < ab)
    vz_out = (va < vz and za < vz) or (vb < vz and zb < vz)
    if ab_out != vz_out:
        return ab_out
    if ab_out:
        return det > 0.0
    # no benchmark input gets here; fractions (and decimal) would add 3.5 ms
    # to the package import
    from fractions import Fraction

    vx, vy = Fraction(x[v]), Fraction(y[v])
    (bx, by), (ax, ay), (zx, zy) = ((Fraction(x[k]) - vx, Fraction(y[k]) - vy) for k in (b, a, z))
    det = ((bx * bx + by * by) * (ax * zy - zx * ay) + (ax * ax + ay * ay) * (zx * by - bx * zy)
           + (zx * zx + zy * zy) * (bx * ay - ax * by))
    return det > 0


def steiner_tree(points) -> tuple[list[Point2], list[tuple[int, int]], float, bool]:
    """Steiner tree of the terminal set, (x, y) pairs or an (n, 2) array.

    Exact for up to 4 terminals; beyond that an MST improved by greedy
    Fermat-star merging (an upper bound within the Steiner-ratio sandwich
    of the optimum), for terminals that are the vertices of a strictly
    convex counterclockwise polygon (``euclidean_mst`` raises ValueError
    otherwise).  Returns (nodes, edges, length, exact_flag); nodes start
    with the terminals, junction points follow.  Every node is an edge end,
    and for terminals in convex position no two nodes are equal.
    """
    xy = read_points(points, "terminals")
    pts = list(map(Point2._make, xy.tolist()))
    n = len(pts)
    if n < 2:
        raise ValueError("need at least 2 terminals")
    if n == 2:
        return pts, [(0, 1)], math.dist(pts[0], pts[1]), True
    if n == 3:
        return (*_steiner_three(pts), True)
    # the terminals' scale: their bounding-box diagonal
    diam = float(np.hypot(*(xy.max(axis=0) - xy.min(axis=0))))
    if n == 4:
        return _steiner_four(pts, diam)
    return _steiner_heuristic(pts, xy, diam)


def _steiner_three(pts: list[Point2]) -> tuple[list[Point2], list[tuple[int, int]], float]:
    """Steiner tree of three terminals: (nodes, edges, length), the Fermat
    point a fourth node only when it is not one of them."""
    f, on = steiner_three_points(*pts)
    length = sum(math.dist(f, q) for q in pts)
    if on is not None:
        return pts, [(on, (on + 1) % 3), (on, (on + 2) % 3)], length
    return pts + [f], [(3, 0), (3, 1), (3, 2)], length


def _steiner_four(pts, diam) -> tuple[list[Point2], list[tuple[int, int]], float, bool]:
    # no MST candidate: the MST has a leaf, and the 3+1 tree that skips it is
    # never longer (the three-point tree is at most the MST of the other three,
    # and the leaf's MST edge is its shortest edge to them)
    best_nodes, best_edges, best_len = None, None, math.inf
    tol = TOL_GEOM_REL * diam

    # full topologies ab|cd by Melzak's construction: e1 (e2) is the outward
    # equilateral apex on ab (cd), and each junction is the Fermat point of
    # its terminal pair and the other side's apex.  The length is measured on
    # the constructed nodes, so an invalid construction only loses to the
    # 3+1 candidates.  One with an edge of length tol or less is degenerate,
    # a 3+1 tree, and the 3+1 candidates try those.
    for pair1, pair2 in (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))):
        a, b = pts[pair1[0]], pts[pair1[1]]
        c, d = pts[pair2[0]], pts[pair2[1]]
        e1 = _outward_apex(a, b, ((c[0] + d[0]) / 2.0, (c[1] + d[1]) / 2.0))
        e2 = _outward_apex(c, d, ((a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0))
        s1, _ = steiner_three_points(a, b, e2)
        s2, _ = steiner_three_points(c, d, e1)
        sa, sb, mid = math.dist(a, s1), math.dist(b, s1), math.dist(s1, s2)
        sc, sd = math.dist(c, s2), math.dist(d, s2)
        length = sa + sb + mid + sc + sd
        if length < best_len and min(sa, sb, mid, sc, sd) > tol:
            best_nodes, best_len = pts + [s1, s2], length
            best_edges = [(pair1[0], 4), (pair1[1], 4), (4, 5), (pair2[0], 5), (pair2[1], 5)]

    # three-terminal tree plus a shortest edge from the remaining terminal
    for skip in range(4):
        tri = [i for i in range(4) if i != skip]
        sub_nodes, sub_edges, sub_len = _steiner_three([pts[i] for i in tri])
        attach = min(range(len(sub_nodes)), key=lambda k: math.dist(pts[skip], sub_nodes[k]))
        length = sub_len + math.dist(pts[skip], sub_nodes[attach])
        if length < best_len:
            tri.append(4)   # the sub-tree's node k is node tri[k]
            best_nodes, best_len = pts + sub_nodes[3:], length
            best_edges = [(tri[i], tri[j]) for i, j in sub_edges] + [(skip, tri[attach])]
    return best_nodes, best_edges, best_len, True


def _wide_at_first(u, v, w) -> bool:
    """Is the angle at u between v - u and w - u at least
    2*pi/3 + _WIDE_MARGIN, by a float test on the cosine?"""
    ax, ay = v[0] - u[0], v[1] - u[1]
    bx, by = w[0] - u[0], w[1] - u[1]
    return ax * bx + ay * by <= _COS_WIDE * math.hypot(ax, ay) * math.hypot(bx, by)


def _steiner_heuristic(pts, xy, diam) -> tuple[list[Point2], list[tuple[int, int]], float, bool]:
    """MST of the terminals ``pts`` (rows of ``xy``, of scale ``diam``)
    improved by greedy Fermat-star merging.

    Each round takes the star (u; v, w) of two tree edges at u whose Fermat
    point shortens the tree most, and joins u, v and w to that point (or to
    one of them within TOL_GEOM_REL * diam of it).  Stars wait in a heap of
    entries (-gain, u, v, w, center), v < w, pushed when their second edge
    appears and dropped when they reach the top with an edge gone, so
    selection takes O((n + m) log n) for m merges instead of a scan of
    every star each round.  A star's gain is computed when it is pushed,
    once per call unless a merge snaps onto u, v or w and so adds back an
    edge it removed; nodes never move once appended, so a second push
    computes the same gain.  Node ids follow the order nodes are added, so
    the top is the star a scan of nodes and their sorted neighbours would
    pick first among the largest gains.

    Stars wide at u, screened by ``_wide_at_first``, skip
    ``steiner_three_points`` and are not pushed, as with a gain of 0.0.  On
    vertices in convex position nearly every star of two MST edges is wide,
    so this saves most ``steiner_three_points`` calls, and it is exactly what
    ``steiner_three_points`` and the gain formula give:
      * the screened angle is at least 2*pi/3 + _WIDE_MARGIN.
        ``steiner_three_points`` tests index 0 first, by the same float
        cosine of the same correctly rounded v - u and w - u, so its angle
        is a few ulps from the screen's, far above the threshold plus
        _ANGLE_BAND, and it returns 0 without consulting ``_vertex_angle``;
      * in the collinear branch the longest side's index is 0, because |vw|
        is strictly the longest side: with |uv| >= |uw|,
        |vw|^2 >= |uv|^2 + |uv| |uw|, so |vw| exceeds |uv| by about
        |uw| / 2, far more than rounding while |uw| >= TOL_GEOM_REL * diam.
        Tree edges are that long: validated polygon vertices are farther
        apart, and a merge puts its center on u, v or w when it is that
        close to one of them, so an appended center's edges are longer too;
      * the new length is then 0 + |uv| + |uw|, bit for bit the current
        one, so the gain is 0.0 and the star is never merged.
    """
    nodes = list(pts)
    edges, _ = euclidean_mst(xy)
    min_gain = TOL_LEN_REL * diam
    adj: dict[int, set[int]] = {i: set() for i in range(len(nodes))}
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)

    heap: list[tuple[float, int, int, int, Point2]] = []

    def push(star):
        pu, pv, pw = (nodes[k] for k in star)
        if _wide_at_first(pu, pv, pw):
            return
        cur = math.dist(pu, pv) + math.dist(pu, pw)
        center, _ = steiner_three_points(pu, pv, pw)
        gain = cur - sum(math.dist(center, q) for q in (pu, pv, pw))
        if gain > min_gain:
            heapq.heappush(heap, (-gain, *star, center))

    for u in adj:
        nbrs = sorted(adj[u])
        for ai in range(len(nbrs)):
            for bi in range(ai + 1, len(nbrs)):
                push((u, nbrs[ai], nbrs[bi]))
    for _ in range(10 * len(pts)):
        while heap and not adj[heap[0][1]].issuperset(heap[0][2:4]):
            heapq.heappop(heap)
        if not heap:
            break
        _, u, v, w, center = heapq.heappop(heap)
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
        # every star holding an added edge; when the center snaps onto u, v
        # or w, an edge removed above and added back counts as added
        stars = set()
        for k in (u, v, w):
            if k != cid:
                for a, b in ((cid, k), (k, cid)):
                    stars.update((a, min(b, z), max(b, z)) for z in adj[a] if z != b)
        for star in stars:
            push(star)

    out_edges = sorted((i, j) for i in adj for j in adj[i] if i < j)   # adj is symmetric
    length = sum(math.dist(nodes[i], nodes[j]) for i, j in out_edges)
    return nodes, out_edges, length, False
