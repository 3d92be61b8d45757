"""The one coverage routine against the two-path verifier it replaced.

The references below are the earlier formulations: a per-direction
Python sweep over the sorted polyline intervals, and a vectorized mask
over all directions whose flagged directions the sweep then re-checks,
keeping the widest gap.  Both use the relative tolerance alone.  On
unit-scale inputs the verifier must give the same verdicts and witness
directions, and witness intervals within 1e-12 * diameter.
"""

import math

import numpy as np
import pytest

from opaque import (
    Barrier,
    algo_a1,
    algo_a3,
    algo_a4,
    critical_directions,
    interior_single_arc,
    is_opaque,
    make_fixture,
    projections_cover,
)
from opaque.geometry import Interval, unit_normal
from opaque.verify import TOL_COVER_REL

from conftest import regular_ngon, truncated

REL = 1e-12
METHODS = {"a1": algo_a1, "a3": algo_a3, "a4": algo_a4, "interior-arc": interior_single_arc}


def ref_cover(poly, barrier, theta):
    """Scalar sweep: (covered, first uncovered interval or None)."""
    nrm = unit_normal(theta)
    pproj = poly.coords @ nrm
    plo, phi = float(pproj.min()), float(pproj.max())
    tol = TOL_COVER_REL * poly.diameter
    ivals = sorted((float(p.min()), float(p.max()))
                   for p in (np.asarray(pl, dtype=float) @ nrm for pl in barrier.polylines))
    cursor = plo
    for lo, hi in ivals:
        if lo > cursor + tol:
            gap_hi = min(lo, phi)
            if gap_hi > cursor + tol:
                return False, Interval(cursor, gap_hi)
            return True, None
        cursor = max(cursor, hi)
        if cursor >= phi - tol:
            return True, None
    if cursor >= phi - tol:
        return True, None
    return False, Interval(cursor, phi)


def ref_mask(poly, barrier, thetas):
    """Vectorized predicate: True where the direction is covered."""
    nrm = np.column_stack([-np.sin(thetas), np.cos(thetas)])
    pproj = nrm @ poly.coords.T
    plo, phi = pproj.min(axis=1), pproj.max(axis=1)
    tol = TOL_COVER_REL * poly.diameter
    projs = [nrm @ np.asarray(pl, dtype=float).T for pl in barrier.polylines]
    lo = np.column_stack([p.min(axis=1) for p in projs])
    hi = np.column_stack([p.max(axis=1) for p in projs])
    order = np.argsort(lo, axis=1)
    lo = np.take_along_axis(lo, order, axis=1)
    reach = np.maximum.accumulate(np.take_along_axis(hi, order, axis=1), axis=1)
    ok = lo[:, 0] <= plo + tol
    for m in range(1, lo.shape[1]):
        ok &= np.minimum(lo[:, m], phi) <= np.maximum(reach[:, m - 1], plo) + tol
    return ok & (reach[:, -1] >= phi - tol)


def ref_is_opaque(poly, barrier):
    """(opaque, theta, gap): mask, then the sweep on flagged directions."""
    crits = critical_directions(poly, barrier) or [0.0]
    thetas = list(crits) + [(a + b) / 2.0 for a, b in zip(crits, crits[1:])]
    thetas.append(math.fmod((crits[-1] + crits[0] + math.pi) / 2.0, math.pi))
    thetas.sort()
    ok = ref_mask(poly, barrier, np.array(thetas))
    best = None
    for bad in np.nonzero(~ok)[0]:
        covered, gap = ref_cover(poly, barrier, thetas[int(bad)])
        if not covered and (best is None or gap.length > best[1].length):
            best = (thetas[int(bad)], gap)
    if best is None:
        return True, None, None
    return False, best[0], best[1]


def dropped(barrier):
    """The barrier without each one of its polylines in turn."""
    pls = barrier.polylines
    return [Barrier(pls[:k] + pls[k + 1:], "arbitrary") for k in range(len(pls)) if len(pls) > 1]


def check_same(poly, barrier):
    report = is_opaque(poly, barrier)
    opaque, theta, gap = ref_is_opaque(poly, barrier)
    assert report.opaque == opaque
    if not opaque:
        w = report.witness
        assert w.theta == theta
        assert abs(w.uncovered.lo - gap.lo) <= REL * poly.diameter
        assert abs(w.uncovered.hi - gap.hi) <= REL * poly.diameter
    return opaque


def cases(polys):
    for poly in polys:
        for method in METHODS.values():
            barrier = method(poly).barrier
            yield poly, barrier, True
            yield poly, truncated(poly, barrier), False
            for mutant in dropped(barrier):
                yield poly, mutant, None


def run(polys):
    verdicts = []
    for poly, barrier, want in cases(polys):
        got = check_same(poly, barrier)
        if want is not None:
            assert got == want
        verdicts.append(got)
    return verdicts


def test_seeded_hulls_match_reference(ratio_polys):
    verdicts = run(ratio_polys[::50])
    assert 0 < sum(verdicts) < len(verdicts)


def test_square_fixtures_match_reference(square):
    fix = make_fixture("unit-square")
    for barrier, _, _ in fix.known_barriers:
        check_same(fix.polygon, barrier)
        check_same(fix.polygon, truncated(fix.polygon, barrier))
        for mutant in dropped(barrier):
            check_same(fix.polygon, mutant)
    run([square, regular_ngon(4), make_fixture("pentagon-fig6").polygon])


@pytest.mark.parametrize("theta", [0.0, 0.3, math.pi / 4, 1.2, math.pi / 2, 2.9])
def test_projections_cover_matches_sweep(ratio_polys, theta):
    for poly, barrier, _ in cases(ratio_polys[::100]):
        covered, gap = projections_cover(poly, barrier, theta)
        ref_covered, ref_gap = ref_cover(poly, barrier, theta)
        assert covered == ref_covered
        if not covered:
            assert abs(gap.lo - ref_gap.lo) <= REL * poly.diameter
            assert abs(gap.hi - ref_gap.hi) <= REL * poly.diameter
