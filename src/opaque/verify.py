"""Opaqueness verification.

A barrier blocks every line through the polygon iff, for every direction,
the union of the barrier's projections onto the direction's normal axis
covers the polygon's projection.

The verifier works on connected components: polylines that share an
exactly equal vertex (``Barrier.components``).  One component projects
to a single interval, the span of its vertices' projections.  Exact
sharing is always sound, and no proximity merge is made: two polylines
a hair apart stay two components, so a line through the gap is found.
Every function here reads one grouping of the barrier's distinct points
by component, ``Barrier.component_points``, worked out once per barrier.

Hull certificate.  A line that misses hull(B) misses the barrier B, so B
is not opaque when a polygon vertex lies more than tol.cover outside
hull(B), tol.cover being the polygon's ``poly.tol.cover``, the widest
projection gap that counts as covered (``geometry.Tolerances``).
``is_opaque`` first builds hull(B) (a segment when the barrier is
collinear) and finds the largest Euclidean distance of a polygon vertex
outside it, and a unit direction u where h_P(u) - h_B(u) attains it, h
being the support functions.  No gap at an end of the polygon's
projection is wider in any direction, and a gap between two components'
projections is no wider than the distance of their hulls.  So when that
support gap exceeds tol.cover and no two component hulls lie farther
apart, the line perpendicular to u midway between the barrier's and the
polygon's extreme projections is a witness at least as wide as any
uncovered gap, and no direction is scanned.  When the polygon lies within
tol.cover of hull(B), a line misses a connected set iff it misses the
set's convex hull, and a line separating two hulls sees a projection gap
no wider than their distance.  So when the component hulls also form one
connected touch graph, two hulls touching when their Euclidean distance
is at most tol.cover, no direction has a gap wider than tol.cover between
components and B is opaque, again with no direction tested.  These tests
merge the edge-normal angles of two convex polygons and find each arc's
two supporting vertices with the kernel's ``extreme_index``
(``_support_gap``), in O((h + k) log(h + k)) time and O(h + k) memory for
h and k vertices; a pair of hulls never needs an h x k array.

Direction scan.  Otherwise (hull(B) holds the polygon but the component
hulls do not touch, or two component hulls lie farther apart than a
polygon vertex outside hull(B)), coverage is combinatorially constant
between consecutive "critical" directions (lines through pairs of
distinct barrier vertices or polygon vertices), so testing all criticals
plus every gap midpoint decides opaqueness exactly, and the widest
uncovered gap is the witness.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .barriers import Barrier, touch_search
from .geometry import (ConvexPolygon, Interval, TOL_ANG, TWO_PI, extreme_index, normal_angles,
                       unit_normal)

# directions per block in is_opaque: the (points x directions) projections
# stay near (n + m) * BLOCK * 8 bytes whatever the number of directions
BLOCK = 4096


@dataclass(frozen=True)
class Witness:
    theta: float
    uncovered: Interval
    representative_offset: float


@dataclass(frozen=True)
class VerificationReport:
    """``certificate`` says what decided: "hull" (no direction is tested:
    either a polygon vertex lies more than ``poly.tol.cover`` outside the
    barrier's hull, and farther than any two component hulls lie apart, so
    the barrier is not opaque, or the polygon lies within tol.cover of
    that hull and the component hulls form one connected touch graph, so
    it is) or "directions" (the critical-direction scan).
    For a hull certificate ``min_slack`` is the smallest depth of a
    polygon vertex inside hull(B), minus its distance for a vertex
    outside: below -tol.cover for a non-opaque verdict, and <= 0 for an
    opaque one when some vertex lies in the tolerance band; otherwise
    None."""

    opaque: bool
    witness: Witness | None
    directions_tested: int
    certificate: str
    min_slack: float | None


def projections_cover(poly: ConvexPolygon, barrier: Barrier,
                      thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First uncovered sub-interval (lo, hi) of the polygon's projection
    for each direction; NaN where the union of the barrier's projections
    covers it.  Each component projects to the interval between the min
    and max of its rows in ``barrier.component_points``."""
    pts, ends = barrier.component_points
    nrm = np.vstack([-np.sin(thetas), np.cos(thetas)])             # (2, D)
    pproj = poly.coords @ nrm                                       # (n, D)
    plo, phi = pproj.min(axis=0), pproj.max(axis=0)
    del pproj                          # free before the barrier's: peak memory
    proj = pts @ nrm                                                # (m, D)
    lo = np.empty((len(ends), len(thetas)))                         # (k, D)
    hi = np.empty_like(lo)
    for c, (s, e) in enumerate(zip([0] + ends[:-1], ends)):
        proj[s:e].min(axis=0, out=lo[c])
        proj[s:e].max(axis=0, out=hi[c])
    del proj
    return _sweep(plo, phi, lo, hi, poly.tol.cover)


def _sweep(plo: np.ndarray, phi: np.ndarray, lo: np.ndarray, hi: np.ndarray,
           tol: float) -> tuple[np.ndarray, np.ndarray]:
    """First gap wider than tol, per direction (column), in the union of
    the intervals [lo, hi] (one row each) over the polygon's [plo, phi];
    NaN where there is none.  Sorted by lower end, the intervals cover
    [plo, phi] iff no gap between the running reach of the earlier ones
    (or plo) and the next lower end (or phi) is wider than tol."""
    order = np.argsort(lo, axis=0)
    gap_lo = np.maximum.accumulate(
        np.vstack([plo, np.take_along_axis(hi, order, axis=0)]), axis=0)
    gap_hi = np.minimum(np.vstack([np.take_along_axis(lo, order, axis=0), phi]), phi)
    fail = gap_hi > gap_lo + tol                                    # (k + 1, D)
    first = fail.argmax(axis=0)
    cols = np.arange(lo.shape[1])
    covered = ~fail[first, cols]
    return (np.where(covered, np.nan, gap_lo[first, cols]),
            np.where(covered, np.nan, gap_hi[first, cols]))


def critical_directions(poly: ConvexPolygon, barrier: Barrier) -> list[float]:
    """Directions in [0, pi) of lines through every pair of distinct points
    from the barrier's vertices and the polygon's vertices; a barrier
    vertex shared by several polylines enters once."""
    pts = np.concatenate([poly.coords, barrier.component_points[0]])
    n = len(pts)
    ii, jj = np.triu_indices(n, k=1)
    d = pts[jj] - pts[ii]
    keep = np.hypot(d[:, 0], d[:, 1]) > poly.tol.length
    ang = np.mod(np.arctan2(d[keep, 1], d[keep, 0]), math.pi)
    ang = np.where(ang >= math.pi - TOL_ANG, 0.0, ang)
    return _dedup_sorted(np.sort(ang))


def _dedup_sorted(ang: np.ndarray) -> list[float]:
    """Sorted angles thinned so each kept one is more than TOL_ANG past
    the previous kept one, scanning from the first.

    A step of more than TOL_ANG from its predecessor always starts a kept
    angle, so only runs of smaller steps need the scan, and a run that
    spans at most TOL_ANG keeps just its first angle.
    """
    if ang.size == 0:
        return []
    starts = np.concatenate([[0], np.flatnonzero(np.diff(ang) > TOL_ANG) + 1])
    ends = np.append(starts[1:], ang.size)
    kept = np.zeros(ang.size, dtype=bool)
    kept[starts] = True
    wide = ang[ends - 1] - ang[starts] > TOL_ANG
    for s, e in zip(starts[wide], ends[wide]):
        last = ang[s]
        for i in range(s + 1, e):
            if ang[i] - last > TOL_ANG:
                kept[i] = True
                last = ang[i]
    return ang[kept].tolist()


def _strict_hull(pts: np.ndarray) -> np.ndarray:
    """Convex hull vertices, counterclockwise, by Andrew's monotone chain;
    points on a hull edge are left out.  Fewer than three rows when the
    points are collinear."""
    ordered = pts[np.lexsort((pts[:, 1], pts[:, 0]))].tolist()

    def chain(seq):
        out = []
        for x, y in seq:
            while len(out) >= 2:
                (ox, oy), (ax, ay) = out[-2], out[-1]
                if (ax - ox) * (y - oy) - (ay - oy) * (x - ox) > 0.0:
                    break
                out.pop()
            out.append((x, y))
        return out[:-1]

    return np.array(chain(ordered) + chain(reversed(ordered)), dtype=float).reshape(-1, 2)


def _hull_frame(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Strict hull of the distinct points ``pts`` (``_strict_hull``) and
    its unwrapped outward edge-normal angles (``normal_angles``).  A
    segment's two normals are set exactly pi apart, where unwrapping is
    ambiguous; a point has the one angle 0, so it is extreme in every
    direction."""
    if len(pts) == 1:
        return pts, np.zeros(1)
    hull = _strict_hull(pts)
    if len(hull) == 2:
        (x0, y0), (x1, y1) = hull.tolist()
        a = math.atan2(x0 - x1, y1 - y0)               # the normal of hull[1] - hull[0]
        return hull, np.array([a, a + math.pi])
    return hull, normal_angles(np.concatenate([hull[1:], hull[:1]]) - hull)


def _support_gap(x: np.ndarray, nx: np.ndarray, y: np.ndarray, ny: np.ndarray,
                 turn: float = 0.0) -> tuple[float, float]:
    """Maximum over unit directions u of g(u) = (x(u + turn) - y(u)) . u,
    where x(w) and y(w) are the vertices of the convex polygons ``x`` and
    ``y`` (unwrapped normal angles ``nx``, ``ny``) extreme in direction w,
    and the angle of a direction u that attains it.

    With turn 0, g(u) = h_X(u) - h_Y(u) for the support functions h, and
    its maximum is the largest distance of a vertex of X outside Y.  With
    turn pi, g(u) = -h_X(-u) - h_Y(u) is the gap between the projections
    of Y and X onto u, and its maximum is their Euclidean distance when
    they are disjoint (<= 0 when they meet).  Between consecutive
    breakpoints (the angles of ny and of nx - turn) both vertices stay
    fixed and g = (p - q) . u, a sinusoid whose peak |p - q| lies at the
    direction of p - q.  So the maximum is at an arc start or at a peak
    inside its arc, found in O((h + k) log(h + k)) time and O(h + k)
    memory for h and k vertices.
    """
    start = np.sort(np.mod(np.concatenate([nx - turn, ny]), TWO_PI))   # arc starts
    stop = np.concatenate([start[1:], [start[0] + TWO_PI]])
    mid = (start + stop) / 2.0
    d = x[extreme_index(nx, mid + turn) % len(nx)] - y[extreme_index(ny, mid) % len(ny)]
    g = d[:, 0] * np.cos(start) + d[:, 1] * np.sin(start)
    k = int(g.argmax())
    peak = np.arctan2(d[:, 1], d[:, 0])
    inside = np.flatnonzero(np.mod(peak - start, TWO_PI) < stop - start)
    if inside.size:
        r = np.hypot(d[inside, 0], d[inside, 1])
        j = int(r.argmax())
        if r[j] > g[k]:
            return float(r[j]), float(peak[inside[j]])
    return float(g[k]), float(start[k])


def _gap_witness(poly: ConvexPolygon, hull: np.ndarray, u: float) -> Witness:
    """The witness line of a polygon vertex outside ``hull``, the barrier's
    hull, where h_P - h_B peaks in direction u: the line with normal u
    through the middle of the interval between the barrier's and the
    polygon's extreme projections onto u."""
    theta = (u - 0.5 * math.pi) % math.pi
    theta = 0.0 if theta >= math.pi else theta       # % can round up to pi
    nrm = unit_normal(theta)
    pproj, bproj = poly.coords @ nrm, hull @ nrm
    if nrm[0] * math.cos(u) + nrm[1] * math.sin(u) > 0.0:       # nrm is u, not -u
        gap = Interval(float(bproj.max()), float(pproj.max()))
    else:
        gap = Interval(float(pproj.min()), float(bproj.min()))
    return Witness(theta, gap, (gap.lo + gap.hi) / 2.0)


def _widest_split(frames: list[tuple[np.ndarray, np.ndarray]]) -> float:
    """Largest Euclidean distance between two component hulls, their
    ``_hull_frame``s (``_support_gap`` with turn pi), -inf for one
    component.  A gap between two components' projections lies between
    the projections of their hulls, so in no direction is it wider."""
    pairs = itertools.combinations(frames, 2)
    return max((_support_gap(*a, *b, math.pi)[0] for a, b in pairs), default=-math.inf)


def _hulls_touch(frames: list[tuple[np.ndarray, np.ndarray]], tol: float) -> bool:
    """Do the component hulls, their ``_hull_frame``s, form one connected
    touch graph, two hulls touching when their Euclidean distance is at
    most tol?  ``touch_search`` tests each reached hull against every
    unreached one by ``_support_gap`` with turn pi, so no array pairs the
    vertices of two hulls."""
    return touch_search(len(frames), lambda c, todo: [
        j for j in todo if _support_gap(*frames[j], *frames[c], math.pi)[0] <= tol])


def is_opaque(poly: ConvexPolygon, barrier: Barrier) -> VerificationReport:
    """Decide opaqueness exactly.

    A polygon vertex more than tol.cover outside the barrier's hull (in
    Euclidean distance) makes the barrier not opaque by the hull
    certificate, with the support gap's witness, when no two component
    hulls lie farther apart than that vertex: then no uncovered gap in any
    direction is wider than the witness.  A barrier whose hull holds the
    polygon, every vertex within tol.cover, and whose component hulls form
    one connected touch graph (two hulls touch when they are within
    tol.cover of each other) is opaque by it.  Either way no
    direction is tested, and ``min_slack`` reports the smallest depth of a
    polygon vertex inside hull(B), negative for a vertex outside.  Every
    other barrier goes to the direction scan: one whose hull holds the
    polygon but whose component hulls do not touch, and one whose component
    hulls lie farther apart than its polygon vertex outside hull(B).
    """
    pts, ends = barrier.component_points
    tol = poly.tol.cover
    frames = [_hull_frame(pts[s:e]) for s, e in zip([0] + ends[:-1], ends)]
    # the union's hull is the hull of the component hulls' vertices
    hull, angles = frames[0] if len(frames) == 1 else _hull_frame(
        np.concatenate([h for h, _ in frames]))
    gap, u = _support_gap(poly.coords, poly.normal_angles, hull, angles)
    if gap > tol:
        if gap >= _widest_split(frames):
            return VerificationReport(False, _gap_witness(poly, hull, u), 0, "hull", -gap)
    elif _hulls_touch(frames, tol):
        return VerificationReport(True, None, 0, "hull", 0.0 - gap)   # never -0.0
    return _scan(poly, barrier)


def _scan(poly: ConvexPolygon, barrier: Barrier) -> VerificationReport:
    """The direction scan: every critical direction and the midpoint of
    every gap between circularly consecutive criticals (where the
    projected-endpoint ordering, and hence coverage, cannot change), BLOCK
    directions at a time.  The witness is the widest uncovered gap, the
    first such direction on ties."""
    crits = np.array(critical_directions(poly, barrier) or [0.0])
    wrap = math.fmod((crits[-1] + crits[0] + math.pi) / 2.0, math.pi)
    thetas = np.sort(np.concatenate([crits, (crits[:-1] + crits[1:]) / 2.0, [wrap]]))
    best, best_width = None, 0.0
    for start in range(0, len(thetas), BLOCK):
        lo, hi = projections_cover(poly, barrier, thetas[start:start + BLOCK])
        width = np.fmax(hi - lo, 0.0)                               # NaN -> 0
        k = int(width.argmax())
        if width[k] > best_width:
            best_width = width[k]
            best = (float(thetas[start + k]), Interval(float(lo[k]), float(hi[k])))
    if best is None:
        return VerificationReport(True, None, len(thetas), "directions", None)
    theta, gap = best
    return VerificationReport(False, Witness(theta, gap, (gap.lo + gap.hi) / 2.0),
                              len(thetas), "directions", None)


def blocking_margin(poly: ConvexPolygon, barrier: Barrier, alpha: float) -> float:
    """Slack of the directional blocking inequality for the family of lines
    with direction alpha: total projected segment length onto the family's
    normal axis minus the polygon width across that family.

    Nonnegative for every direction is necessary for opaqueness (the union
    of projections can never exceed their summed lengths).
    """
    nrm = unit_normal(alpha)
    total = 0.0
    for a, b in barrier.segments():
        total += abs(float((np.array(b) - np.array(a)) @ nrm))
    proj = poly.coords @ nrm
    return total - float(proj.max() - proj.min())


def sampling_oracle(poly: ConvexPolygon, barrier: Barrier,
                    n_angles: int, n_offsets: int) -> bool:
    """Independent grid-sampling check: returns False when some sampled line
    crosses the polygon (with inward margin) yet misses every segment."""
    tol = poly.tol.cover
    thetas = np.linspace(0.0, math.pi, n_angles, endpoint=False)
    segs = barrier.segments()
    a = np.array([s[0] for s in segs], dtype=float)
    b = np.array([s[1] for s in segs], dtype=float)
    chunk = max(1, int(2e6 // max(len(segs) * n_offsets, 1)) or 1)
    for start in range(0, n_angles, chunk):
        th = thetas[start:start + chunk]
        nrm = np.column_stack([-np.sin(th), np.cos(th)])      # (D, 2)
        pproj = nrm @ poly.coords.T
        plo = pproj.min(axis=1)[:, None]
        phi = pproj.max(axis=1)[:, None]
        offs = plo + (phi - plo) * np.linspace(0.0, 1.0, n_offsets)[None, :]
        inside = (offs > plo + tol) & (offs < phi - tol)      # (D, M)
        sa = nrm @ a.T                                        # (D, S)
        sb = nrm @ b.T
        lo = np.minimum(sa, sb) - tol
        hi = np.maximum(sa, sb) + tol
        blocked = ((lo[:, :, None] <= offs[:, None, :])
                   & (offs[:, None, :] <= hi[:, :, None])).any(axis=1)
        if bool((inside & ~blocked).any()):
            return False
    return True
