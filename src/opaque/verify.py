"""Opaqueness verification.

A barrier blocks every line through the polygon iff, for every direction,
the union of the barrier's projections onto the direction's normal axis
covers the polygon's projection.

The verifier works on connected components: polylines that share an
exactly equal vertex (``barriers.components``).  One component projects
to a single interval, the span of its vertices' projections.  Exact
sharing is always sound, and no proximity merge is made: two polylines
a hair apart stay two components, so a line through the gap is found.

Hull certificate.  A line misses a connected set iff it misses the set's
convex hull, and a line separating two hulls sees a projection gap no
wider than their distance.  So when the component hulls form one
connected touch graph, two hulls touching when their Euclidean distance
is at most tol_cover, no direction has a gap wider than tol_cover between
components, and the barrier B is opaque iff the polygon lies in hull(B).
``is_opaque`` first builds hull(B) and checks that every polygon vertex is
within tol_cover of it in Euclidean distance; only then does it build one
hull per component (a point and a segment are hulls too) and search the
touch graph.  When both hold it returns opaque with no direction tested.
Both tests merge the edge-normal angles of two convex polygons and find
each arc's two supporting vertices with the kernel's ``extreme_index``
(``_support_gap``), in O((h + k) log(h + k)) time and O(h + k) memory for
h and k vertices; a pair of hulls never needs an h x k array.

Direction scan.  Otherwise (hulls that do not touch, a hull with no
interior, or a vertex outside the band), coverage is combinatorially
constant between consecutive "critical" directions (lines through pairs
of barrier vertices or polygon vertices), so testing all criticals plus
every gap midpoint decides opaqueness exactly, and the widest uncovered
gap is the witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .barriers import Barrier
from .geometry import (ConvexPolygon, Interval, TOL_ANG, TOL_LEN_REL, TWO_PI, extreme_index,
                       normal_angles, unit_normal)

TOL_COVER_REL = 1e-9
ROUNDING_COVER = 8.0   # eps * (max |coord| + diameter) units; see tol_cover
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
    """``certificate`` says what decided: "hull" (the component hulls form
    one connected touch graph and the polygon lies within tol_cover of
    the barrier's hull; no direction is tested) or "directions" (the
    critical-direction scan).  For a hull certificate ``min_slack`` is
    the smallest depth of a polygon vertex inside hull(B), minus its
    distance for a vertex outside, so it is <= 0 when some vertex lies in
    the tolerance band; otherwise None."""

    opaque: bool
    witness: Witness | None
    directions_tested: int
    certificate: str
    min_slack: float | None


def tol_cover(poly: ConvexPolygon) -> float:
    """Widest projection gap that still counts as covered: TOL_COVER_REL *
    diameter plus rounding.  With u = eps/2, a projection fl(-x*s + y*c)
    is off by at most 2u(|x| + |y|) <= 2*eps*M for coordinates bounded by
    M (two rounded products and a rounded sum), so a gap between two
    projections is off by at most 4*eps*M; barrier points lie within a
    diameter of the polygon, so M is max |coord| + diameter.  The rounded
    (s, c) is one normal shared by every point of the direction, so its
    error moves a gap only by about u times the distance between the two
    points, at most 3 diameters.  ROUNDING_COVER = 8 is a conservative
    cover for both terms and the comparison."""
    mag = float(np.abs(poly.coords).max()) + poly.diameter
    return TOL_COVER_REL * poly.diameter + ROUNDING_COVER * np.finfo(float).eps * mag


def _component_points(barrier: Barrier) -> tuple[np.ndarray, list[int]]:
    """The barrier's distinct vertices grouped by connected component, and
    the index where each component's run of rows ends."""
    groups = [dict.fromkeys(p for i in group for p in barrier.polylines[i])
              for group in barrier.components]
    pts = np.array([p for group in groups for p in group], dtype=float)
    return pts, np.cumsum([len(group) for group in groups]).tolist()


def projections_cover(poly: ConvexPolygon, barrier: Barrier, theta: float
                      ) -> tuple[bool, Interval | None]:
    """Does the union of the barrier's projections cover the polygon
    projection?

    Returns the first uncovered sub-interval when coverage fails.
    """
    lo, hi = _first_gaps(poly, *_component_points(barrier), np.array([theta]))
    if math.isnan(lo[0]):
        return True, None
    return False, Interval(float(lo[0]), float(hi[0]))


def _first_gaps(poly: ConvexPolygon, pts: np.ndarray, ends: list[int],
                thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First uncovered sub-interval (lo, hi) of the polygon's projection
    for each direction; NaN where the barrier covers it.  ``pts`` and
    ``ends`` are the component rows of ``_component_points``; each
    component projects to the interval between its rows' min and max."""
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
    return _sweep(plo, phi, lo, hi, tol_cover(poly))


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
    from the barrier's vertices and the polygon's vertices."""
    pts = np.concatenate([poly.coords, barrier.all_points()])
    n = len(pts)
    ii, jj = np.triu_indices(n, k=1)
    d = pts[jj] - pts[ii]
    keep = np.hypot(d[:, 0], d[:, 1]) > TOL_LEN_REL * poly.diameter
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
                 tol: float, turn: float = 0.0) -> float:
    """Maximum over unit directions u of g(u) = (x(u + turn) - y(u)) . u,
    where x(w) and y(w) are the vertices of the convex polygons ``x`` and
    ``y`` (unwrapped normal angles ``nx``, ``ny``) extreme in direction w;
    any value above tol once one is found.

    With turn 0, g(u) = h_X(u) - h_Y(u) for the support functions h, and
    its maximum is the largest distance of a vertex of X outside Y.  With
    turn pi, g(u) = -h_X(-u) - h_Y(u) is the gap between the projections
    of Y and X onto u, and its maximum is their Euclidean distance when
    they are disjoint (<= 0 when they meet).  Between consecutive
    breakpoints (the angles of ny and of nx - turn) both vertices stay
    fixed and g = (p - q) . u, a sinusoid whose peak |p - q| lies at the
    direction of p - q.  So the maximum is over the merged breakpoints and
    the peaks inside their arcs, in O((h + k) log(h + k)) time and
    O(h + k) memory for h and k vertices.
    """
    start = np.sort(np.mod(np.concatenate([nx - turn, ny]), TWO_PI))   # arc starts
    stop = np.concatenate([start[1:], [start[0] + TWO_PI]])
    mid = (start + stop) / 2.0
    d = x[extreme_index(nx, mid + turn) % len(nx)] - y[extreme_index(ny, mid) % len(ny)]
    # g at every arc start first: a value above tol there settles it
    # before the peaks are looked at
    worst = float((d[:, 0] * np.cos(start) + d[:, 1] * np.sin(start)).max())
    if worst > tol:
        return worst
    inside = np.mod(np.arctan2(d[:, 1], d[:, 0]) - start, TWO_PI) < stop - start
    if inside.any():
        worst = max(worst, float(np.hypot(d[inside, 0], d[inside, 1]).max()))
    return worst


def _hull_slack(poly: ConvexPolygon, pts: np.ndarray, tol: float) -> float | None:
    """Smallest depth of a polygon vertex inside the convex hull of
    ``pts`` (minus the distance of a vertex outside it) when every vertex
    is within tol of the hull in Euclidean distance; None when one is
    not, or when the hull has fewer than three vertices.  The distance is
    Euclidean at corners (``_support_gap`` with turn 0), where per-face
    offsets would give extra slack."""
    hull, ha = _hull_frame(pts)
    if len(hull) < 3:
        return None
    worst = _support_gap(poly.coords, poly.normal_angles, hull, ha, tol)
    return None if worst > tol else 0.0 - worst       # 0.0 - worst: never -0.0


def _hulls_touch(pts: np.ndarray, ends: list[int], tol: float) -> bool:
    """Do the components' hulls form one connected touch graph, two hulls
    touching when their Euclidean distance is at most tol?  ``pts`` and
    ``ends`` are the component rows of ``_component_points``.  A search
    from the first component tests each reached hull against every
    unreached one by ``_support_gap`` with turn pi, so no array pairs the
    vertices of two hulls; it stops when no reached hull is left to test."""
    if len(ends) == 1:
        return True
    frames = [_hull_frame(pts[s:e]) for s, e in zip([0] + ends[:-1], ends)]
    todo, stack = list(range(1, len(ends))), [0]
    while stack and todo:
        c = stack.pop()
        near = [j for j in todo if _support_gap(*frames[j], *frames[c], tol, math.pi) <= tol]
        stack += near
        todo = [j for j in todo if j not in near]
    return not todo


def is_opaque(poly: ConvexPolygon, barrier: Barrier) -> VerificationReport:
    """Decide opaqueness exactly.

    A barrier whose component hulls form one connected touch graph (two
    hulls touch when they are within tol_cover of each other) and whose
    hull holds the polygon, every vertex within tol_cover in Euclidean
    distance, is opaque by the hull certificate: no direction is tested,
    and ``min_slack`` reports the smallest depth.  Every other barrier
    goes to the direction scan, and every non-opaque verdict comes from it.
    """
    pts, ends = _component_points(barrier)
    tol = tol_cover(poly)
    slack = _hull_slack(poly, pts, tol)
    if slack is not None and _hulls_touch(pts, ends, tol):
        return VerificationReport(True, None, 0, "hull", slack)
    return _scan(poly, barrier, pts, ends)


def _scan(poly: ConvexPolygon, barrier: Barrier, pts: np.ndarray, ends: list[int]
          ) -> VerificationReport:
    """The direction scan: every critical direction and the midpoint of
    every gap between circularly consecutive criticals (where the
    projected-endpoint ordering, and hence coverage, cannot change), BLOCK
    directions at a time.  The witness is the widest uncovered gap, the
    first such direction on ties.  ``pts`` and ``ends`` are the barrier's
    component rows (``_component_points``)."""
    crits = np.array(critical_directions(poly, barrier) or [0.0])
    wrap = math.fmod((crits[-1] + crits[0] + math.pi) / 2.0, math.pi)
    thetas = np.sort(np.concatenate([crits, (crits[:-1] + crits[1:]) / 2.0, [wrap]]))
    best, best_width = None, 0.0
    for start in range(0, len(thetas), BLOCK):
        lo, hi = _first_gaps(poly, pts, ends, thetas[start:start + BLOCK])
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
    tol = tol_cover(poly)
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
