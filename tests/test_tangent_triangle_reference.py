"""a2's tangent-triangle pick against the exhaustive search it replaced.

The reference below tries every touching-edge triple whose normals
positively span the plane and keeps the one whose corner triangle has the
shortest three-point Steiner tree, the first on ties.  Beyond 5000 triples
it took one spread triple: the touching edges nearest 2*pi/3 and 4*pi/3
past the first one (which is not always spanning).  ``tangent_triangle``
makes one pass over the touching edges and keeps the smallest corner
triangle of its candidates, so on rotated copies of one tied triangle the
two can pick different copies; a2's lengths then differ by rounding only,
and its kinds never.
"""

import itertools
import math

import numpy as np

from opaque import (
    InconsistentIncircle,
    Point2,
    algo_a2,
    barriers,
    make_fixture,
    validate_polygon,
)
from opaque.geometry import TOL_ANG, TOL_TOUCH_REL, TWO_PI, cross2
from opaque.incircle import TangentTriangle, _antipodal_candidates
from opaque.steiner import steiner_tree

from conftest import regular_ngon

TRIPLE_CAP = 5000


def ref_tangent_triangle(poly, circ):
    m, _ = poly.edge_normals_offsets()
    touch = sorted(circ.touching_edges)
    i, j = _antipodal_candidates(poly.normal_angles, touch)
    mi, mj = m[i], m[j]
    dot = mi[:, 0] * mj[:, 0] + mi[:, 1] * mj[:, 1]
    if np.any((dot < 0.0) & (np.abs(cross2(mi, mj)) <= TOL_TOUCH_REL)):
        return None
    triples = ref_spanning_triples(poly.normal_angles, touch)
    if not triples:
        raise InconsistentIncircle(
            "no antipodal touching pair and no positively spanning triple")
    best = None
    for triple in triples:
        corners = _corner_points(m, poly.coords, triple)
        if corners is None:
            continue
        length = steiner_tree(corners)[2]
        if best is None or length < best[0]:
            best = (length, corners)
    if best is None:
        raise InconsistentIncircle("tangent-line intersections degenerate")
    corners = best[1]
    d = [math.dist(corners[0], corners[1]),
         math.dist(corners[1], corners[2]),
         math.dist(corners[2], corners[0])]
    return TangentTriangle(*corners, tuple(sorted(d, reverse=True)))


def ref_spanning_triples(nrm, touch):
    ang = nrm.tolist()
    combos = itertools.combinations(touch, 3)
    if math.comb(len(touch), 3) > TRIPLE_CAP:
        picks = [touch[0]]
        for off in (2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0):
            target = ang[touch[0]] + off
            picks.append(min((i for i in touch if i not in picks),
                             key=lambda i: abs(math.remainder(ang[i] - target, TWO_PI))))
        combos = [tuple(sorted(picks))]
    return [(i, j, k) for i, j, k in combos
            if max(ang[j] - ang[i], ang[k] - ang[j], TWO_PI - (ang[k] - ang[i])) < math.pi - TOL_ANG]


def _corner_points(m, v, triple):
    # the lines m_i . q = m_i . v_i through edge i's first vertex v_i, solved
    # relative to vertex 0
    corners = []
    ids = list(triple)
    for i, j in ((ids[0], ids[1]), (ids[1], ids[2]), (ids[2], ids[0])):
        a = np.array([m[i], m[j]])
        det = float(np.linalg.det(a))
        if abs(det) < 1e-14:
            return None
        p = v[0] + np.linalg.solve(a, (a * (v[[i, j]] - v[0])).sum(axis=1))
        corners.append(Point2(float(p[0]), float(p[1])))
    return tuple(corners)


def circumscribed(ang):
    """The polygon whose edges lie on the tangents x . (cos a, sin a) = 1 of
    the unit circle, for increasing angles ``ang`` with every gap below pi."""
    u = np.column_stack([np.cos(ang), np.sin(ang)])
    n = len(u)
    pts = [np.linalg.solve(u[[k - 1, k]], np.ones(2)) for k in range(n)]
    return validate_polygon(pts)


def tangent_polys(count=1000, seed=16):
    """Polygons with 4..11 edges, all tangent to the unit circle: every
    other one has random normal angles, the rest a cluster and one or two
    normals near the cluster's opposite."""
    rng = np.random.default_rng(seed)
    polys = []
    while len(polys) < count:
        t = int(rng.integers(4, 12))
        if len(polys) % 2:
            ang = np.sort(rng.uniform(0.0, TWO_PI, t))
        else:
            w = rng.uniform(0.05, 1.5)
            k = int(rng.integers(1, 3))
            ang = np.sort(np.concatenate([rng.uniform(0.0, w, t - k),
                                          math.pi + rng.uniform(-0.05, w + 0.05, k)]))
        gaps = np.diff(np.append(ang, ang[0] + TWO_PI))
        if gaps.min() < 1e-3 or gaps.max() > 0.97 * math.pi:
            continue
        polys.append(circumscribed(ang + rng.uniform(-math.pi, math.pi)))
    return polys


def _rotate(pts, phi):
    c, s = math.cos(phi), math.sin(phi)
    return pts @ np.array([[c, s], [-s, c]])


def test_a2_matches_exhaustive_search(ratio_polys, small_polys, medium_polys, monkeypatch):
    phases = [validate_polygon(_rotate(regular_ngon(n).coords, math.pi / (3 * n)))
              for n in range(3, 65)]
    reuleaux = [make_fixture("reuleaux-poly", m=m, shave=shave).polygon
                for m in range(3, 41) for shave in (0.0, 1e-3)]
    tangent = tangent_polys()
    corpus = (ratio_polys + small_polys + medium_polys + [regular_ngon(n) for n in range(3, 65)]
              + phases + reuleaux + tangent)
    assert len(corpus) == 1000 + 200 + 40 + 62 + 62 + 76 + 1000
    got = [algo_a2(poly) for poly in corpus]
    monkeypatch.setattr(barriers, "tangent_triangle", ref_tangent_triangle)
    want = [algo_a2(poly) for poly in corpus]
    for poly, g, w in zip(corpus, got, want):
        assert g.barrier.kind == w.barrier.kind
        assert (g.extras["b3_length"] is None) == (w.extras["b3_length"] is None)
        assert abs(g.length - w.length) <= 1e-15 * poly.diameter
        # only the Reuleaux polygons' tied rotated triangles pick differently
        assert g.barrier == w.barrier or any(poly is q for q in reuleaux)
