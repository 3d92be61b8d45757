"""The star-merging heuristic against its uncached formulation.

The reference below recomputes every candidate merge (u; v, w) with
`_fermat` in every round.  The heuristic keeps each triple's gain and
junction for the rest of the call, which is exact because nodes never
move once appended, so trees must be identical: the same nodes, edges,
length and flag, compared with `==`.
"""

import math

import numpy as np
import pytest

from opaque import random_convex_polygon, steiner
from opaque.geometry import TOL_GEOM_REL, TOL_LEN_REL
from opaque.steiner import _fermat, euclidean_mst, steiner_tree

from conftest import regular_ngon


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
                    center, _ = _fermat(nodes[u], nodes[v], nodes[w])
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


def reference(points):
    """steiner_tree with the heuristic branch replaced by the reference."""
    pts = [steiner._pt(p) for p in points]
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


def test_seeded_sets_match_reference():
    for pts in seeded_sets():
        assert_same(pts)


def test_regular_sets_match_reference():
    for pts in regular_sets():
        assert_same(pts)


def test_fixture_vertices_match_reference(small_polys, ratio_polys):
    for poly in small_polys + ratio_polys:
        assert_same(poly.coords)


@pytest.mark.parametrize("points", [
    regular_ngon(5).coords,
    random_convex_polygon(9, np.random.default_rng(9)).coords,
], ids=["pentagon", "hull-9"])
def test_each_merge_computed_once(monkeypatch, points):
    calls = []

    def recording(a, b, c):
        calls.append((tuple(a), tuple(b), tuple(c)))
        return _fermat(a, b, c)

    monkeypatch.setattr(steiner, "_fermat", recording)
    steiner_tree(points)
    assert calls
    assert len(calls) == len(set(calls))
