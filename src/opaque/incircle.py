"""Largest inscribed circle (Chebyshev center) and the circumscribed
tangent triangle used by the Steiner-tree barrier candidate.

The Chebyshev center is found by linear programming and then polished on
the tight constraint set so the radius is accurate to machine precision
(the touching-edge classification and the width/3 inradius bound both
need far better accuracy than LP solver defaults give).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .geometry import (
    ConvexPolygon,
    InconsistentIncircle,
    Point2,
    TOL_ANG,
    TOL_TOUCH_REL,
    cross2,
)
from .steiner import steiner_three_points


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

    Maximizes r subject to signed distance >= r from every edge line; among
    optimal centers the one with maximum clearance from the non-binding
    edges is chosen (so a 2x1 rectangle reports only the long-edge
    antipodal pair as touching).
    """
    m, o = poly.edge_normals_offsets()
    n = len(o)
    diam = poly.diameter
    # variables (cx, cy, r): maximize r s.t. m.c - r >= o
    a_ub = np.column_stack([-m, np.ones(n)])
    res = linprog(c=[0.0, 0.0, -1.0], A_ub=a_ub, b_ub=-o,
                  bounds=[(None, None), (None, None), (0.0, None)],
                  method="highs")
    if not res.success:
        raise InconsistentIncircle(f"incircle LP failed: {res.message}")
    c = res.x[:2]

    c, r = _polish(m, o, c, diam)
    dist = m @ c - o
    touching = frozenset(int(i) for i in np.nonzero(dist - r <= poly.tol_touch)[0])
    if len(touching) < 2 or r <= 0.0:
        raise InconsistentIncircle("degenerate incircle solution")
    return InscribedCircle(Point2(float(c[0]), float(c[1])), r, touching)


def _polish(m: np.ndarray, o: np.ndarray, c: np.ndarray, diam: float):
    """Refine the LP center to machine precision.

    The LP locates the optimum only to solver tolerance, and on a flat
    optimal face (antipodal pair) it may stop at an arbitrary face vertex.
    The exact Chebyshev center is determined by an active edge triple or an
    antipodal edge pair, so re-solve those in closed form over the
    near-tight edges.  Among the candidate centers the one whose sorted
    clearance vector is lexicographically largest wins: that maximizes the
    radius first and then prefers the most interior optimal center, so only
    genuinely binding edges end up classified as touching.
    """
    dist = m @ c - o
    r = float(dist.min())
    near = np.nonzero(dist - r <= 1e-5 * diam)[0]
    if len(near) > 12:
        near = near[np.argsort(dist[near])][:12]
    candidates = [c]
    for triple in itertools.combinations(near, 3):
        ids = list(triple)
        a = np.column_stack([m[ids], -np.ones(3)])
        if abs(np.linalg.det(a)) < 1e-12:
            continue
        sol = np.linalg.solve(a, o[ids])
        candidates.append(sol[:2])
    for i, j in itertools.combinations(near, 2):
        if m[i] @ m[j] < -1.0 + 1e-9:
            rp = -(o[i] + o[j]) / 2.0
            c0 = c + (o[i] + rp - m[i] @ c) * m[i]
            candidates.append(_pair_center(m, o, c0, rp, int(i)))
    best = max(candidates, key=lambda cc: tuple(np.sort(m @ cc - o)))
    return best, float((m @ best - o).min())


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
    # edges count as touching, so it is antipodal at that resolution
    for i, j in _antipodal_candidates(m, touch):
        if m[i] @ m[j] < 0.0 and abs(cross2(m[i], m[j])) <= TOL_TOUCH_REL:
            return None

    triples = _spanning_triples(m, touch)
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


def _antipodal_candidates(m: np.ndarray, touch: list[int]) -> set[tuple[int, int]]:
    """Touching-edge pairs (i < j) that can be antipodal: each normal with
    the two on either side of its antipode in angular order."""
    idx = np.array(touch)
    a = np.arctan2(m[idx, 1], m[idx, 0])
    order = np.argsort(a)
    a, idx = a[order], idx[order]
    ext = np.concatenate([a - 2.0 * math.pi, a, a + 2.0 * math.pi])
    j = (np.searchsorted(ext, a + math.pi)[:, None] + np.arange(-2, 2)) % len(idx)
    return {(min(p, q), max(p, q))
            for p, row in zip(idx.tolist(), idx[j].tolist()) for q in row if p != q}


def _spanning_triples(m: np.ndarray, touch: list[int], cap: int = 5000):
    """Touching-edge triples whose inward normals positively span the plane."""
    angles = {i: math.atan2(m[i, 1], m[i, 0]) for i in touch}
    combos = itertools.combinations(touch, 3)
    if math.comb(len(touch), 3) > cap:
        # many co-circular touching edges (near-regular polygon): pick the
        # triple with normals closest to equally spaced; any valid triple is
        # correct, this one just keeps the corner triangle small
        base = touch[0]
        a0 = angles[base]
        picks = [base]
        for off in (2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0):
            target = a0 + off
            picks.append(min((i for i in touch if i not in picks),
                             key=lambda i: abs(_angdiff(angles[i], target))))
        combos = [tuple(sorted(picks))]
    out = []
    for triple in combos:
        a = sorted(angles[i] for i in triple)
        gaps = [a[1] - a[0], a[2] - a[1], 2.0 * math.pi - (a[2] - a[0])]
        if max(gaps) < math.pi - TOL_ANG:
            out.append(triple)
    return out


def _angdiff(a: float, b: float) -> float:
    d = math.fmod(a - b, 2.0 * math.pi)
    if d > math.pi:
        d -= 2.0 * math.pi
    if d < -math.pi:
        d += 2.0 * math.pi
    return d


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
