"""Opaqueness verification.

A barrier blocks every line through the polygon iff, for every direction,
the union of the barrier's projections onto the direction's normal axis
covers the polygon's projection.  Coverage is combinatorially constant
between consecutive "critical" directions (lines through pairs of barrier
endpoints or polygon vertices), so testing all criticals plus every gap
midpoint decides opaqueness exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .barriers import Barrier
from .geometry import ConvexPolygon, Interval, TOL_ANG, TOL_LEN_REL, unit_normal

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
    opaque: bool
    witness: Witness | None
    directions_tested: int


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


def projections_cover(poly: ConvexPolygon, barrier: Barrier, theta: float
                      ) -> tuple[bool, Interval | None]:
    """Does the union of polyline projections cover the polygon projection?

    Returns the first uncovered sub-interval when coverage fails.
    """
    lo, hi = _first_gaps(poly, barrier, np.array([theta]))
    if math.isnan(lo[0]):
        return True, None
    return False, Interval(float(lo[0]), float(hi[0]))


def _first_gaps(poly: ConvexPolygon, barrier: Barrier, thetas: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
    """First uncovered sub-interval (lo, hi) of the polygon's projection
    for each direction; NaN where the barrier covers it.

    Each connected polyline projects to one interval.  Sorted by lower
    end, the intervals cover the polygon's [plo, phi] iff no gap between
    the running reach of the earlier ones (or plo) and the next lower end
    (or phi) is wider than tol_cover.
    """
    nrm = np.vstack([-np.sin(thetas), np.cos(thetas)])             # (2, D)
    pproj = poly.coords @ nrm                                       # (n, D)
    plo, phi = pproj.min(axis=0), pproj.max(axis=0)
    projs = [np.asarray(pl, dtype=float) @ nrm for pl in barrier.polylines]
    lo = np.array([q.min(axis=0) for q in projs])                   # (k, D)
    hi = np.array([q.max(axis=0) for q in projs])
    del pproj, projs                   # free before the (k, D) work: peak memory
    order = np.argsort(lo, axis=0)
    gap_lo = np.maximum.accumulate(
        np.vstack([plo, np.take_along_axis(hi, order, axis=0)]), axis=0)
    gap_hi = np.minimum(np.vstack([np.take_along_axis(lo, order, axis=0), phi]), phi)
    fail = gap_hi > gap_lo + tol_cover(poly)                        # (k + 1, D)
    first = fail.argmax(axis=0)
    cols = np.arange(len(thetas))
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


def is_opaque(poly: ConvexPolygon, barrier: Barrier) -> VerificationReport:
    """Decide opaqueness exactly.

    Tests every critical direction and the midpoint of every gap between
    circularly consecutive criticals (where the projected-endpoint ordering,
    and hence coverage, cannot change), BLOCK directions at a time.  The
    witness is the widest uncovered gap, the first such direction on ties.
    """
    crits = np.array(critical_directions(poly, barrier) or [0.0])
    wrap = math.fmod((crits[-1] + crits[0] + math.pi) / 2.0, math.pi)
    thetas = np.sort(np.concatenate([crits, (crits[:-1] + crits[1:]) / 2.0, [wrap]]))
    best, best_width = None, 0.0
    for start in range(0, len(thetas), BLOCK):
        lo, hi = _first_gaps(poly, barrier, thetas[start:start + BLOCK])
        width = np.fmax(hi - lo, 0.0)                               # NaN -> 0
        k = int(width.argmax())
        if width[k] > best_width:
            best_width = width[k]
            best = (float(thetas[start + k]), Interval(float(lo[k]), float(hi[k])))
    if best is None:
        return VerificationReport(True, None, len(thetas))
    theta, gap = best
    return VerificationReport(False, Witness(theta, gap, (gap.lo + gap.hi) / 2.0), len(thetas))


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
