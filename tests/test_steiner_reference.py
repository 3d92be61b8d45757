"""The closed-form four-terminal Steiner tree against the fixed-point solver
it replaced.

The reference below is the direct formulation: each full topology ab|cd
starts its two junctions at the pair midpoints and alternates Fermat-point
updates, junction 1 from (a, b, junction 2) and junction 2 from (c, d,
junction 1), until neither moves by more than 1e-12 * diameter, then the
MST and the 3+1 trees compete as in the solver.  A full topology's edges
of up to 1e-9 * diameter are collapsed (``collapse_degenerate``), as the
replaced solver did; the solver leaves such a topology to the 3+1 trees.
Where a full topology collapses onto a 3+1 tree of equal length, the two
solvers may keep different node lists, so the trees are compared as sets
of segments; where float ties let the solver pick a different tree, the
reference must rate both picks equally.
"""

import math

import numpy as np
import pytest

from opaque.steiner import steiner_three_points, steiner_tree

from conftest import ref_mst

REL_LEN = 1e-12
REL_PT = 1e-9


def ref_four_candidates(pts):
    """(length, nodes, edges) of the MST, the three full topologies and the
    four 3+1 trees, in the order the solver tries them."""
    edges, length = ref_mst(pts)
    cands = [(length, list(pts), edges)]
    diam = max(math.dist(a, b) for a in pts for b in pts)
    for pair1, pair2 in (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))):
        a, b = pts[pair1[0]], pts[pair1[1]]
        c, d = pts[pair2[0]], pts[pair2[1]]
        s1 = ((a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0)
        s2 = ((c[0] + d[0]) / 2.0, (c[1] + d[1]) / 2.0)
        for _ in range(20000):
            n1, _ = steiner_three_points(a, b, s2)
            n2, _ = steiner_three_points(c, d, n1)
            move = max(math.dist(n1, s1), math.dist(n2, s2))
            s1, s2 = n1, n2
            if move < 1e-12 * diam:
                break
        length = (math.dist(a, s1) + math.dist(b, s1) + math.dist(s1, s2)
                  + math.dist(c, s2) + math.dist(d, s2))
        nodes = list(pts) + [s1, s2]
        edges = [(pair1[0], 4), (pair1[1], 4), (4, 5), (pair2[0], 5), (pair2[1], 5)]
        cands.append((length, nodes, collapse_degenerate(nodes, edges, diam)))
    for skip in range(4):
        tri = [i for i in range(4) if i != skip]
        sub_nodes, sub_edges, sub_len, _ = steiner_tree([pts[i] for i in tri])
        attach = min(range(len(sub_nodes)), key=lambda k: math.dist(pts[skip], sub_nodes[k]))
        length = sub_len + math.dist(pts[skip], sub_nodes[attach])
        nodes = list(pts) + list(sub_nodes[3:])
        remap = {k: (tri[k] if k < 3 else 4) for k in range(len(sub_nodes))}
        edges = [(remap[i], remap[j]) for i, j in sub_edges]
        edges.append((skip, remap[attach]))
        cands.append((length, nodes, edges))
    return cands


def collapse_degenerate(nodes, edges, diam):
    """The edges with those of length at most 1e-9 * diam collapsed, each
    onto its lower node."""
    tol = 1e-9 * diam
    alias = list(range(len(nodes)))

    def find(i):
        while alias[i] != i:
            alias[i] = alias[alias[i]]
            i = alias[i]
        return i

    for i, j in edges:
        if math.dist(nodes[i], nodes[j]) <= tol:
            alias[find(max(i, j))] = find(min(i, j))
    return [(find(i), find(j)) for i, j in edges if find(i) != find(j)]


def segments(nodes, edges, tol):
    """The tree's segments of positive length as endpoint-pair arrays."""
    out = [np.array([nodes[i], nodes[j]], dtype=float) for i, j in edges]
    return [s for s in out if math.dist(*s) > tol]


def same_segments(a, b, tol):
    """True if every segment of a matches a distinct segment of b, as an
    unordered endpoint pair, within tol."""
    if len(a) != len(b):
        return False
    free = list(b)
    for s in a:
        for k, t in enumerate(free):
            if min(np.abs(s - t).max(), np.abs(s - t[::-1]).max()) <= tol:
                del free[k]
                break
        else:
            return False
    return True


def four_point_sets():
    rng = np.random.default_rng(404)
    sets = [rng.uniform(-1.0, 1.0, (4, 2)) for _ in range(1000)]
    unit = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    for aspect in np.geomspace(1e-4, 1.0, 120):
        sets.append(unit * [1.0, aspect])
    for shear in np.linspace(-2.0, 2.0, 21):
        for h in (0.05, 0.5, 1.0, 3.0):
            sets.append(np.array([[0.0, 0.0], [1.0, 0.0], [1.0 + shear, h], [shear, h]]))
    out = []
    for k, pts in enumerate(sets):
        c, s = math.cos(0.7 * k), math.sin(0.7 * k)
        pts = pts @ np.array([[c, s], [-s, c]]) + rng.uniform(-5.0, 5.0, 2)
        out.append([tuple(p) for p in pts[rng.permutation(4)]])
    return out


@pytest.mark.parametrize("chunk", range(4))
def test_four_terminal_tree_matches_fixed_point(chunk):
    cases = four_point_sets()
    assert len(cases) >= 1000
    for pts in cases[chunk::4]:
        diam = max(math.dist(a, b) for a in pts for b in pts)
        tol = REL_PT * diam
        nodes, edges, length, exact = steiner_tree(pts)
        cands = ref_four_candidates(pts)
        ref = cands[0]
        for cand in cands[1:]:
            if cand[0] < ref[0]:
                ref = cand
        assert exact
        assert abs(length - ref[0]) <= REL_LEN * diam, pts
        # the reference's pick, or a candidate it rates equal (the two
        # mirror-image trees of a square)
        got = segments(nodes, edges, tol)
        assert any(same_segments(got, segments(n, e, tol), tol)
                   for ln, n, e in cands if ln <= ref[0] + REL_LEN * diam), pts


def test_tree_nodes_are_distinct_edge_ends(ratio_polys):
    # no repair pass leaves a junction behind: every node is an edge end,
    # and no two nodes are equal
    quads = [poly.coords for poly in ratio_polys if len(poly) == 4]
    assert quads
    for pts in four_point_sets() + quads:
        nodes, edges, _, _ = steiner_tree(pts)
        assert {k for edge in edges for k in edge} == set(range(len(nodes))), pts
        assert len(set(nodes)) == len(nodes), pts
