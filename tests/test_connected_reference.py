"""The connected check against its segment-by-segment formulation.

The references below are the check ``Barrier`` made before it tested
segment pairs as arrays: a search over the exactly-joined groups of
polylines (``Barrier.components``) that measures every pair of segments of
two groups in Python, through ``ref_seg_seg_distance`` (0 for a proper
crossing, else the least distance of an endpoint to the other segment).
Two groups touch when some pair lies within TOL_GEOM_REL times the extent
of the points.  ``barriers._polylines_connected`` makes the same test over
blocks of segment pairs at once, so its verdict must be the reference's on
every set of polylines: exact shares, crossings, and gaps half and twice
the tolerance wide.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opaque import Barrier
from opaque.barriers import PAIR_BLOCK, _polylines_connected
from opaque.geometry import TOL_GEOM_REL, cross2

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def ref_point_seg_distance(p, a, b):
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        return float(np.hypot(*(p - a)))
    t = float((p - a) @ ab) / denom
    t = max(0.0, min(1.0, t))
    return float(np.hypot(*(p - (a + t * ab))))


def ref_seg_seg_distance(a0, a1, b0, b1):
    a0, a1, b0, b1 = (np.asarray(p, float) for p in (a0, a1, b0, b1))
    d1 = cross2(a1 - a0, b0 - a0)
    d2 = cross2(a1 - a0, b1 - a0)
    d3 = cross2(b1 - b0, a0 - b0)
    d4 = cross2(b1 - b0, a1 - b0)
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)):
        return 0.0
    return min(ref_point_seg_distance(b0, a0, a1), ref_point_seg_distance(b1, a0, a1),
               ref_point_seg_distance(a0, b0, b1), ref_point_seg_distance(a1, b0, b1))


def ref_polyline_distance(pa, pb):
    best = math.inf
    for a0, a1 in zip(pa[:-1], pa[1:]):
        for b0, b1 in zip(pb[:-1], pb[1:]):
            best = min(best, ref_seg_seg_distance(a0, a1, b0, b1))
            if best == 0.0:
                return 0.0
    return best


def ref_connected(xy, sizes, groups):
    todo = list(groups)
    if len(todo) == 1:
        return True
    tol = TOL_GEOM_REL * max(float(np.hypot(*(xy.max(axis=0) - xy.min(axis=0)))), 1e-300)
    ends = np.cumsum(sizes).tolist()
    polylines = [xy[e - k:e] for k, e in zip(sizes, ends)]
    frontier = [todo.pop(0)]
    while frontier and todo:
        group = frontier.pop()
        near = [other for other in todo
                if any(ref_polyline_distance(polylines[i], polylines[j]) <= tol
                       for i in group for j in other)]
        todo = [other for other in todo if other not in near]
        frontier += near
    return not todo


def assert_same_verdict(pls):
    barrier = Barrier(pls, "arbitrary")
    xy, sizes = barrier.all_points(), barrier.sizes
    want = ref_connected(xy, sizes, barrier.components)
    assert _polylines_connected(xy, sizes, barrier.components) == want
    if want:
        assert Barrier(pls, "connected").kind == "connected"
    else:
        with pytest.raises(ValueError, match="must touch"):
            Barrier(pls, "connected")
    return want


# the first polyline spans the box, so the tolerance is known in advance
BOX = 8.0
TOL = TOL_GEOM_REL * math.hypot(BOX, BOX)
GRID = st.integers(0, int(BOX)).map(float)
POINT = st.tuples(GRID, GRID)


@st.composite
def pieces(draw):
    """Polylines in the box; each after the first is free, shares a point
    with an earlier one, crosses one of its segments, or ends half or twice
    the tolerance off one of them and runs away from it."""
    pls = [((0.0, 0.0), (BOX, BOX))]
    for _ in range(draw(st.integers(1, 6))):
        mode = draw(st.sampled_from(["free", "share", "cross", "gap", "gap"]))
        if mode == "free":
            pls.append(tuple(draw(st.lists(POINT, min_size=2, max_size=4))))
            continue
        pl = draw(st.sampled_from(pls))
        k = draw(st.integers(0, len(pl) - 2))
        p0, p1 = np.array(pl[k]), np.array(pl[k + 1])
        if mode == "share":
            rest = draw(st.lists(POINT, min_size=1, max_size=3))
            at = draw(st.integers(0, len(rest)))
            pls.append(tuple(rest[:at] + [pl[k]] + rest[at:]))
            continue
        e = p1 - p0
        if not e.any():
            continue
        normal = np.array([-e[1], e[0]]) / math.hypot(*e)
        q = p0 + draw(st.sampled_from([0.25, 0.5, 0.75])) * e
        if mode == "cross":
            pls.append((tuple(q - 0.25 * BOX * normal), tuple(q + 0.25 * BOX * normal)))
        else:
            side = draw(st.sampled_from([-1.0, 1.0]))
            end = q + side * draw(st.sampled_from([0.5, 2.0])) * TOL * normal
            pls.append((tuple(end), tuple(end + side * normal)))
    return tuple(pls)


@PROPERTY
@given(pieces())
def test_connected_matches_reference(pls):
    assert_same_verdict(pls)


@pytest.mark.parametrize("factor, touch", [(0.5, True), (2.0, False)])
def test_gap_against_tolerance(factor, touch):
    # a segment ending off the middle of the diagonal and running along
    # the anti-diagonal; the anti-diagonal itself crosses the diagonal and
    # contains that segment, so it joins the two in either case
    base = ((0.0, 0.0), (BOX, BOX))
    u = np.array([-1.0, 1.0]) / math.sqrt(2.0)
    end = np.array([4.0, 4.0]) + factor * TOL * u
    assert assert_same_verdict((base, (tuple(end), tuple(end + u)))) is touch
    crossing = ((0.0, BOX), (BOX, 0.0))
    assert assert_same_verdict((base, crossing, (tuple(end), tuple(end + u)))) is True


@pytest.mark.parametrize("factor, touch", [(0.5, True), (2.0, False)])
def test_touch_in_last_block(factor, touch):
    # two polylines of 200 segments: 40000 pairs, three blocks of
    # PAIR_BLOCK; only the first one's last segment comes near the second
    assert 200 * 200 > 2 * PAIR_BLOCK
    xs = np.linspace(0.0, BOX, 201).tolist()
    bottom = tuple((x, 0.0) for x in xs)
    top = tuple((x, BOX) for x in xs[:-1]) + ((BOX, factor * TOL),)
    if touch:
        assert Barrier((bottom, top), "connected").kind == "connected"
    else:
        with pytest.raises(ValueError, match="must touch"):
            Barrier((bottom, top), "connected")
