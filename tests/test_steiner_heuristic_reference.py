"""The star-merging heuristic against its uncached formulation.

The reference below recomputes every candidate merge (u; v, w) with
`steiner_three_points` in every round and scans for the first largest
gain.  The heuristic keeps each triple's gain and junction for the rest of
the call, which is exact because nodes never move once appended, and
takes the merge from a heap keyed (-gain, u, v, w), which picks the scan's
star, so trees must be identical: the same nodes, edges, length and flag,
compared with `==`.
"""

import math

import numpy as np
import pytest

from opaque import random_convex_polygon, steiner, validate_polygon
from opaque.geometry import TOL_GEOM_REL, TOL_LEN_REL, Point2, PolygonError
from opaque.steiner import euclidean_mst, steiner_three_points, steiner_tree

from conftest import prim_mst, regular_ngon


def ref_heuristic(pts):
    """Greedy Fermat-star merging with every gain recomputed each round."""
    nodes = list(pts)
    edges, _ = euclidean_mst(pts)
    arr = np.array(pts, dtype=float)
    diam = float(np.hypot(*(arr.max(axis=0) - arr.min(axis=0))))
    adj = {i: set() for i in range(len(nodes))}
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    for _ in range(10 * len(pts)):
        best = None
        for u in list(adj):
            nbrs = sorted(adj[u])
            for ai in range(len(nbrs)):
                for bi in range(ai + 1, len(nbrs)):
                    v, w = nbrs[ai], nbrs[bi]
                    cur = math.dist(nodes[u], nodes[v]) + math.dist(nodes[u], nodes[w])
                    center, _ = steiner_three_points(nodes[u], nodes[v], nodes[w])
                    new = sum(math.dist(center, nodes[k]) for k in (u, v, w))
                    gain = cur - new
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


def _pt(p) -> Point2:
    return Point2(float(p[0]), float(p[1]))


def reference(points):
    """steiner_tree with the heuristic branch replaced by the reference."""
    pts = [_pt(p) for p in points]
    return ref_heuristic(pts) if len(pts) > 4 else steiner_tree(pts)


def seeded_sets():
    """600 point sets at scales 1e-3..1e3, every third one translated by
    1e6: 540 hull vertex sets of 5-40 points, the heuristic's input from
    interior-tree, and 60 sets of 5-24 points in general position, which
    merge more often."""
    rng = np.random.default_rng(2024)
    out = []
    for k in range(600):
        if k < 540:
            pts = random_convex_polygon(int(rng.integers(5, 41)), rng).coords
        else:
            pts = rng.random((int(rng.integers(5, 25)), 2))
        pts = pts * 10.0 ** rng.uniform(-3.0, 3.0)
        if k % 3 == 0:
            pts = pts + 1e6
        out.append(pts)
    return out


def regular_sets():
    """Regular 5- to 29-gons at two phases, and the regular pentagon from
    every start vertex."""
    out = []
    for n in range(5, 30):
        for phase in (0.0, 0.3):
            t = phase + 2.0 * math.pi * np.arange(n) / n
            out.append(np.column_stack([np.cos(t), np.sin(t)]))
    pent = regular_ngon(5).coords
    out.extend(np.roll(pent, -s, axis=0) for s in range(5))
    return out


def assert_same(points):
    assert steiner_tree(points) == reference(points)


def test_seeded_sets_match_reference(monkeypatch):
    sets = seeded_sets()
    for pts in sets[:540]:
        assert_same(pts)
    # the package's MST takes only vertices in convex position, so for the
    # sets in general position both sides merge from Prim's reference tree
    monkeypatch.setattr(steiner, "euclidean_mst", prim_mst)
    monkeypatch.setitem(globals(), "euclidean_mst", prim_mst)
    for pts in sets[540:]:
        assert_same(pts)


def test_regular_sets_match_reference():
    for pts in regular_sets():
        assert_same(pts)


def heap_order_sets():
    """Where ties and cascades decide the merge order: the regular pentagon
    from each start vertex, the 6-vertex hull on which the merges cascade
    to 53 nodes (drawn second from default_rng(3), after a 4-vertex one),
    and regular 5- to 16-gons, where every MST edge ties; each also scaled
    by 1e-6 and translated by 1e9."""
    pent = regular_ngon(5).coords
    rng = np.random.default_rng(3)
    random_convex_polygon(4, rng)
    base = [np.roll(pent, -s, axis=0) for s in range(5)]
    base.append(random_convex_polygon(6, rng).coords)
    base += [regular_ngon(n).coords for n in range(5, 17)]
    return [pts * scale + shift for pts in base for scale, shift in ((1.0, 0.0), (1e-6, 1e9))]


def test_heap_order_sets_match_reference(monkeypatch):
    polygons, others = [], []
    for pts in heap_order_sets():
        try:
            validate_polygon(pts)
            polygons.append(pts)
        except PolygonError:
            others.append(pts)
    for pts in polygons:
        assert_same(pts)
    # the 14- to 16-gons scaled by 1e-6 round to cycles that are not
    # strictly convex 1e9 out; as the sets in general position, they merge
    # from Prim's reference tree on both sides
    assert [len(pts) for pts in others] == [14, 15, 16]
    monkeypatch.setattr(steiner, "euclidean_mst", prim_mst)
    monkeypatch.setitem(globals(), "euclidean_mst", prim_mst)
    for pts in others:
        assert_same(pts)


def test_fixture_vertices_match_reference(small_polys, ratio_polys):
    for poly in small_polys + ratio_polys:
        assert_same(poly.coords)


def test_snapped_centers_match_reference(monkeypatch):
    # A Fermat point never lands within TOL_GEOM_REL * diam of u, v or w with
    # a gain above TOL_LEN_REL * diam, so merges whose center snaps onto one
    # of them are made here: the tree starts as the path through the points
    # in order, and the three-point routine returns, for a third of the
    # triples (by hash), the point 2e-10 times the triple's longest side
    # from a toward the Fermat point, and otherwise the shortest star among
    # the Fermat point and such points next to b and c.  A snap onto u leaves the tree as it was, so both
    # sides repeat that merge; a snap onto v swaps edge u-w for v-w.
    real = steiner_three_points

    def snapping(a, b, c):
        center, on = real(a, b, c)
        diam = max(math.dist(a, b), math.dist(b, c), math.dist(c, a))

        def near(q):
            gap = math.dist(center, q)
            t = 2e-10 * diam / gap if gap else 0.0
            return Point2(q[0] + t * (center[0] - q[0]), q[1] + t * (center[1] - q[1]))

        if on is None and hash((tuple(a), tuple(b), tuple(c))) % 3 == 0:
            return near(a), None
        best = min([center, near(b), near(c)],
                   key=lambda p: sum(math.dist(p, q) for q in (a, b, c)))
        return best, (on if best is center else None)

    def path(points):
        return [(i, i + 1) for i in range(len(points) - 1)], 0.0

    for name, fake in (("steiner_three_points", snapping), ("euclidean_mst", path)):
        monkeypatch.setattr(steiner, name, fake)
        monkeypatch.setitem(globals(), name, fake)
    rng = np.random.default_rng(5)
    for _ in range(40):
        assert_same(rng.random((int(rng.integers(5, 13)), 2)))


@pytest.mark.parametrize("points", [
    regular_ngon(5).coords,
    random_convex_polygon(9, np.random.default_rng(9)).coords,
], ids=["pentagon", "hull-9"])
def test_each_merge_computed_once(monkeypatch, points):
    calls = []

    def recording(a, b, c):
        calls.append((tuple(a), tuple(b), tuple(c)))
        return steiner_three_points(a, b, c)

    monkeypatch.setattr(steiner, "steiner_three_points", recording)
    steiner_tree(points)
    assert calls
    assert len(calls) == len(set(calls))
