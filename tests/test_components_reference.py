"""Component grouping against its dict-based formulation.

The references below are the grouping the verifier used before barriers
became arrays: ``ref_components`` joins polylines through a dict keyed by
``Point2`` (so -0.0 and 0.0 are one key), and ``ref_component_points``
collects each component's distinct points with ``dict.fromkeys``, keeping
each point's first occurrence.  ``Barrier.components`` and
``Barrier.component_points`` get the same from one stable sort of the
point array, so groups, rows and ends must be equal bit for bit, the sign
of every zero included.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opaque import Barrier, algo_a2, algo_a4, interior_connected, random_convex_polygon
from opaque.geometry import Point2

from conftest import regular_ngon, truncated

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def ref_components(polylines):
    """Polylines in each component, in order of each one's first polyline."""
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


def ref_component_points(barrier):
    """Distinct points by component, first occurrence first, and ends."""
    groups = [dict.fromkeys(p for i in group for p in barrier.polylines[i])
              for group in ref_components(barrier.polylines)]
    pts = np.array([p for group in groups for p in group], dtype=float).reshape(-1, 2)
    return pts, np.cumsum([len(group) for group in groups]).tolist()


def assert_same_grouping(barrier):
    assert barrier.components == ref_components(barrier.polylines)
    pts, ends = barrier.component_points
    want_pts, want_ends = ref_component_points(barrier)
    assert ends == want_ends
    assert pts.shape == want_pts.shape
    # int64 views compare the bits, so -0.0 differs from 0.0
    np.testing.assert_array_equal(pts.view(np.int64), want_pts.view(np.int64))


# a few coordinates, -0.0 next to 0.0, so that polylines share points often
COORD = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0])
POINT = st.tuples(COORD, COORD)


@st.composite
def polylines(draw):
    pool = draw(st.lists(POINT, min_size=2, max_size=8))
    out = []
    for _ in range(draw(st.integers(1, 7))):
        pl = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=6))
        if draw(st.booleans()):
            pl.append(pl[0])                                   # a closed loop
        out.append(tuple(pl))
    return tuple(out)


@PROPERTY
@given(polylines())
def test_grouping_matches_reference(pls):
    try:
        barrier = Barrier(pls, "arbitrary")
    except ValueError:                     # every point equal: zero length
        return
    assert_same_grouping(barrier)


def test_signed_zeros_keep_first_occurrence():
    pls = (((-0.0, 1.0), (0.0, 0.0)), ((0.0, 1.0), (2.0, -0.0), (-0.0, 0.0)),
           ((5.0, 5.0), (6.0, 5.0), (5.0, 5.0)))
    barrier = Barrier(pls, "arbitrary")
    assert barrier.components == [[0, 1], [2]]
    pts, ends = barrier.component_points
    assert ends == [3, 5]
    assert np.signbit(pts[:3]).tolist() == [[True, False], [False, False], [False, True]]
    assert_same_grouping(barrier)


@pytest.mark.parametrize("seed", range(6))
def test_built_and_truncated_barriers(seed):
    # trees share junctions; truncated trees and a4 barriers have several
    # components, in and out of polyline order
    poly = random_convex_polygon(5 + 7 * seed, np.random.default_rng(seed))
    for barrier in (interior_connected(poly).barrier, algo_a4(poly).barrier):
        assert_same_grouping(barrier)
        assert_same_grouping(truncated(poly, barrier))
    pls = interior_connected(poly).barrier.polylines
    assert_same_grouping(Barrier(pls[1::2] + pls[::2], "arbitrary"))


def one_component(barrier):
    return [list(range(len(barrier.sizes)))]


@pytest.fixture(scope="module")
def hull_883():
    poly = random_convex_polygon(1024, np.random.default_rng(1))
    assert len(poly) == 883
    return poly


def test_built_trees_are_one_component(small_polys, ratio_polys, hull_883):
    # a tree barrier arrives with its one component; the public
    # constructor's union over shared points must find the same
    polys = small_polys + ratio_polys + [regular_ngon(n) for n in range(3, 65)] + [hull_883]
    a2_trees = 0
    for poly in polys:
        trees = [interior_connected(poly).barrier]
        a2 = algo_a2(poly).barrier
        if a2.kind == "connected":                 # the tangent triangle's tree
            trees.append(a2)
        a2_trees += len(trees) - 1
        for tree in trees:
            assert Barrier(tree.polylines, "arbitrary").components == one_component(tree)
    assert a2_trees > 0


@pytest.mark.parametrize("n", [5, 16, 64, 512])
def test_built_tree_runs_no_union(n, hull_883):
    for poly in (regular_ngon(n), hull_883):
        barrier = interior_connected(poly).barrier
        assert "repeats" not in vars(barrier)
        assert barrier.components == one_component(barrier)


def sorted_grouping(barrier):
    """``component_points`` of a copy of ``barrier`` that is handed neither
    its component nor its points, so they come from the union and the sort."""
    copy = Barrier._of(barrier.all_points().copy(), list(barrier.sizes), barrier.kind)
    assert "component_points" not in vars(copy)
    return copy.component_points


def test_built_tree_points_equal_the_sort(ratio_polys):
    # every built tree is handed its distinct points, first occurrence
    # first; the sort over its rows must find the same, bit for bit
    for poly in ratio_polys:
        barrier = interior_connected(poly).barrier
        assert "component_points" in vars(barrier)
        pts, ends = barrier.component_points
        want_pts, want_ends = sorted_grouping(barrier)
        assert ends == want_ends
        np.testing.assert_array_equal(pts.view(np.int64), want_pts.view(np.int64))
        assert not pts.flags.writeable
