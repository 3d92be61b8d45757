"""Largest inscribed circle (Chebyshev center) and the circumscribed
tangent triangle used by the Steiner-tree barrier candidate.

The Chebyshev center is the optimum of a three-variable LP, solved by a
small dual simplex in a frame where the polygon has unit diameter; the
edges its optimal basis binds then fix the center exactly, so the radius
is accurate to machine precision (the touching-edge classification and
the width/3 inradius bound both need that accuracy).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    ConvexPolygon,
    InconsistentIncircle,
    Point2,
    TOL_ANG,
    TOL_LEN_REL,
    TOL_TOUCH_REL,
    TWO_PI,
    cross2,
    extreme_index,
)
from .steiner import steiner_three_points

# touching-edge triples tried one by one; beyond this many, one spread
# triple is picked (see _spanning_triples)
TRIPLE_CAP = 5000


@dataclass(frozen=True)
class InscribedCircle:
    center: Point2
    radius: float
    touching_edges: frozenset[int]


@dataclass(frozen=True)
class TangentTriangle:
    a_prime: Point2
    b_prime: Point2
    c_prime: Point2
    sides: tuple[float, float, float]  # sorted descending: a >= b >= c

    @property
    def corners(self) -> tuple[Point2, Point2, Point2]:
        return (self.a_prime, self.b_prime, self.c_prime)


def largest_inscribed_circle(poly: ConvexPolygon) -> InscribedCircle:
    """Chebyshev center of the polygon.

    Maximizes r subject to signed distance >= r from every edge line, in a
    frame where vertex 0 is the origin and the diameter is 1, so every
    tolerance below is relative to the polygon.  The edges with a nonzero
    dual in the optimal basis fix the center exactly: three meet in one
    point; two balance only when antipodal, and then the optimal centers
    fill a segment of their mid-line whose midpoint is taken (so a 3x1
    rectangle reports only its long sides as touching).
    """
    m, o = poly.edge_normals_offsets()
    diam = poly.diameter
    v0 = poly.coords[0]
    o = (o - m @ v0) / diam
    basis, x, y = _chebyshev_basis(m, o)
    # a dual y_k <= TOL_LEN_REL on the third edge of a binding pair means the
    # pair is antiparallel to within about 2 * TOL_LEN_REL, so sliding the
    # center along their mid-line changes r by at most TOL_LEN_REL * diam
    ids = np.sort(basis[y > TOL_LEN_REL])
    if len(ids) == 3:
        c = np.linalg.solve(np.column_stack([m[ids], -np.ones(3)]), o[ids])[:2]
    elif len(ids) == 2:
        i, j = ids
        rp = -(o[i] + o[j]) / 2.0
        c0 = x[:2] + (o[i] + rp - m[i] @ x[:2]) * m[i]
        c = _pair_center(m, o, c0, rp, int(i))
    else:
        raise InconsistentIncircle(f"incircle LP binds {len(ids)} edges")
    dist = m @ c - o
    r = float(dist.min())
    touching = frozenset(int(i) for i in np.nonzero(dist - r <= TOL_TOUCH_REL)[0])
    if len(touching) < 2 or r <= 0.0:
        raise InconsistentIncircle("degenerate incircle solution")
    c = v0 + diam * c
    return InscribedCircle(Point2(float(c[0]), float(c[1])), diam * r, touching)


def _chebyshev_basis(m: np.ndarray, o: np.ndarray):
    """Optimal basis of: maximize r s.t. m_i . c - r >= o_i, by the dual
    simplex.  Returns the three basis edges, the vertex (cx, cy, r) they fix
    and their duals.

    A basis is three edges whose lines fix (c, r) by a 3x3 solve.  Its
    duals y solve sum y_i m_i = 0, sum y_i = 1, so it is dual feasible
    (y >= 0) when the three inward normals positively span the plane: the
    three lines bound a triangle around the polygon and (c, r) is that
    triangle's incircle.  Each pivot brings in the edge line that cuts
    deepest into the circle and drops the basis edge the ratio test picks,
    which keeps y >= 0, so r never rises.  In the unit frame a slack is a
    length, and one above -TOL_LEN_REL counts as clear.
    """
    n = len(o)
    a = np.column_stack([m, -np.ones(n)])
    # edge 0, the edge whose normal is nearest the antipode of m_0, and the
    # neighbour of that edge on the far side of the antipode
    j = int((m @ m[0]).argmin())
    k = (j + 1) % n if cross2(m[0], m[j]) >= 0.0 else (j - 1) % n
    basis = np.array([0, j, k])
    seen = set()
    while True:
        inv = np.linalg.inv(a[basis])
        x = inv @ o[basis]
        y = -inv[2]
        slack = a @ x - o
        e = int(slack.argmin())
        if slack[e] >= -TOL_LEN_REL:
            return basis, x, y
        # in exact arithmetic no basis comes back: a pivot lowers r or, with
        # an antipodal pair in the basis (a zero dual), slides the circle
        # further along the pair's strip; a repeat means rounding took over
        key = frozenset(basis.tolist())
        if key in seen:
            raise InconsistentIncircle("incircle simplex revisits a basis")
        seen.add(key)
        w = a[e] @ inv
        up = w > 0.0
        if not up.any():
            raise InconsistentIncircle("incircle LP is infeasible")
        ratio = np.full(3, np.inf)
        ratio[up] = np.maximum(y[up], 0.0) / w[up]
        basis[int(ratio.argmin())] = e


def _pair_center(m: np.ndarray, o: np.ndarray, c0: np.ndarray, r: float,
                 i: int) -> np.ndarray:
    """Midpoint of the feasible center interval on an antipodal pair's
    mid-line (so the circle clears every non-binding edge symmetrically)."""
    d = np.array([-m[i, 1], m[i, 0]])
    along = m @ d
    base = m @ c0 - o - r
    lo, hi = -math.inf, math.inf
    for a, b in zip(along, base):
        # feasibility along the mid-line: a*s + b >= 0
        if abs(a) < 1e-14:
            continue
        if a > 0.0:
            lo = max(lo, -b / a)
        else:
            hi = min(hi, -b / a)
    if math.isfinite(lo) and math.isfinite(hi) and lo <= hi:
        return c0 + 0.5 * (lo + hi) * d
    return c0


def tangent_triangle(poly: ConvexPolygon, circ: InscribedCircle) -> TangentTriangle | None:
    """Triangle of supporting lines at three incircle touching edges.

    Returns None when some touching pair is antipodal (the incircle spans
    the width between two parallel supporting lines, so no finite tangent
    triangle exists).  When more than one edge triple qualifies, the triple
    whose corner triangle has the shortest three-point Steiner tree wins.
    """
    m, o = poly.edge_normals_offsets()
    touch = sorted(circ.touching_edges)
    # a pair tilted by at most TOL_TOUCH_REL from antiparallel moves apart
    # by at most tol_touch across the polygon, the slack that let both
    # edges count as touching, so it is antipodal at that resolution.  The
    # dot's sign only matters where |cross| <= TOL_TOUCH_REL, so |dot| ~ 1
    i, j = _antipodal_candidates(poly.normal_angles, touch)
    mi, mj = m[i], m[j]
    dot = mi[:, 0] * mj[:, 0] + mi[:, 1] * mj[:, 1]
    if np.any((dot < 0.0) & (np.abs(cross2(mi, mj)) <= TOL_TOUCH_REL)):
        return None

    triples = _spanning_triples(poly.normal_angles, touch)
    if not triples:
        raise InconsistentIncircle(
            "no antipodal touching pair and no positively spanning triple")

    best = None
    for triple in triples:
        corners = _corner_points(m, o, triple)
        if corners is None:
            continue
        _, length = steiner_three_points(*corners)
        if best is None or length < best[0]:
            best = (length, corners)
    if best is None:
        raise InconsistentIncircle("tangent-line intersections degenerate")
    corners = best[1]
    d = [math.dist(corners[0], corners[1]),
         math.dist(corners[1], corners[2]),
         math.dist(corners[2], corners[0])]
    sides = tuple(sorted(d, reverse=True))
    return TangentTriangle(*corners, sides)


def _antipodal_candidates(nrm: np.ndarray, touch: list[int]
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Touching-edge pairs that can be antipodal, as two index arrays
    (first edges, second edges): each normal with the two on either side
    of its antipode, so a pair may come twice, in either order.  ``nrm`` is
    the polygon's ``normal_angles``, so the touching edges, in index order,
    are in angular order."""
    idx = np.array(touch)
    a = nrm[idx]
    j = (extreme_index(a, a + math.pi)[:, None] + np.arange(-2, 2)) % len(idx)
    first = np.repeat(idx, j.shape[1])
    second = idx[j].ravel()
    keep = first != second
    return first[keep], second[keep]


def _spanning_triples(nrm: np.ndarray, touch: list[int]):
    """Touching-edge triples whose normals positively span the plane;
    ``nrm`` is the polygon's ``normal_angles``."""
    ang = nrm.tolist()
    combos = itertools.combinations(touch, 3)
    if math.comb(len(touch), 3) > TRIPLE_CAP:
        # many co-circular touching edges (near-regular polygon): pick the
        # triple with normals closest to equally spaced; any valid triple is
        # correct, this one just keeps the corner triangle small
        picks = [touch[0]]
        for off in (2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0):
            target = ang[touch[0]] + off
            picks.append(min((i for i in touch if i not in picks),
                             key=lambda i: abs(math.remainder(ang[i] - target, TWO_PI))))
        combos = [tuple(sorted(picks))]
    out = []
    for i, j, k in combos:
        if max(ang[j] - ang[i], ang[k] - ang[j], TWO_PI - (ang[k] - ang[i])) < math.pi - TOL_ANG:
            out.append((i, j, k))
    return out


def _corner_points(m: np.ndarray, o: np.ndarray, triple) -> tuple[Point2, ...] | None:
    corners = []
    ids = list(triple)
    for i, j in ((ids[0], ids[1]), (ids[1], ids[2]), (ids[2], ids[0])):
        a = np.array([m[i], m[j]])
        det = float(np.linalg.det(a))
        if abs(det) < 1e-14:
            return None
        p = np.linalg.solve(a, np.array([o[i], o[j]]))
        corners.append(Point2(float(p[0]), float(p[1])))
    return tuple(corners)
