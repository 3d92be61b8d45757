"""Acceptance gate: thirteen criteria, each printing one pass/fail line.

Tolerances are pinned here and must not be loosened; the reference values
are either exact closed forms or frozen oracle outputs.
"""

import math

import numpy as np
import pytest

import conftest

from opaque import (
    Barrier,
    algo_a1,
    algo_a2,
    algo_a3,
    algo_a4,
    blocking_margin,
    half_perimeter_lower_bound,
    interior_connected,
    interior_single_arc,
    is_opaque,
    make_fixture,
    min_perimeter_rectangle,
    sampling_oracle,
)

from test_barriers import brute_force_min_path

PI = math.pi
SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)

_SOLUTION_CACHE = {}


def _report(num, desc, ok):
    line = f"acceptance {num:02d} {desc}: {'PASS' if ok else 'FAIL'}"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, line


def _ratio_solutions(ratio_polys):
    """All six methods on the 1000 shared polygons, computed once."""
    if "sols" not in _SOLUTION_CACHE:
        _SOLUTION_CACHE["sols"] = {
            name: [fn(p) for p in ratio_polys]
            for name, fn in (("a1", algo_a1), ("a2", algo_a2),
                             ("a3", algo_a3), ("a4", algo_a4),
                             ("arc", interior_single_arc),
                             ("tree", interior_connected))
        }
    return _SOLUTION_CACHE["sols"]


def test_01_jones_bound(square):
    got = half_perimeter_lower_bound(square)
    _report(1, "half-perimeter bound on the unit square is 2",
            abs(got - 2.0) <= 1e-12)


def test_02_a1_a2_square(square):
    s1 = algo_a1(square)
    s2 = algo_a2(square)
    ok = (abs(s1.length - 3.0) <= 1e-9
          and abs(s2.length - 3.0) <= 1e-9
          and s2.extras.get("b3_length") is None)
    _report(2, "a1 and a2 return 3 on the unit square, no Steiner candidate", ok)


def test_03_a2_vs_interior_optimum(square):
    tree = interior_connected(square)
    ok = abs(tree.length - (1 + SQRT3)) <= 1e-6
    ratio = algo_a2(square).length / tree.length
    ok = ok and abs(ratio - 1.0980) <= 1e-3
    _report(3, "a2 exceeds the square's connected interior optimum by 1.098", ok)


def test_04_a3_pentagon():
    poly = make_fixture("pentagon-fig6").polygon
    got = algo_a3(poly).length
    _report(4, "a3 on the reference pentagon returns 3.3364",
            abs(got - 3.3364) <= 5e-3)


def test_05_a4_512gon():
    poly = make_fixture("regular-ngon", n=512).polygon
    sol = algo_a4(poly)
    ok = (abs(sol.length - (2 + PI / 2 + SQRT2)) <= 1e-2
          and abs(sol.ratio - 1.5867) <= 1e-2)
    _report(5, "a4 on a regular 512-gon matches 2 + pi/2 + sqrt(2)", ok)


def test_06_a1_reuleaux():
    poly = make_fixture("reuleaux-poly", m=2000, shave=1e-3).polygon
    got = algo_a1(poly).length
    _report(6, "a1 on a shaved constant-width body returns pi/2 + 1",
            abs(got - (PI / 2 + 1)) <= 0.02)


def test_07_interior_arc_dp(square, small_polys):
    ok = abs(interior_single_arc(square).length - 3.0) <= 1e-12
    for poly in small_polys:
        got = interior_single_arc(poly).length
        want = brute_force_min_path(poly)
        if abs(got - want) > 1e-12 * max(want, 1.0):
            ok = False
            break
    _report(7, "shortest-path DP equals factorial brute force on 200 polygons", ok)


def test_08_square_fixture_barriers(square):
    fix = make_fixture("unit-square")
    want = [3.0, 2 * SQRT2, 1 + SQRT3, SQRT2 + math.sqrt(6.0) / 2]
    ok = len(fix.known_barriers) == 4
    for (barrier, length, _), ref in zip(fix.known_barriers, want):
        ok = ok and abs(barrier.length - ref) <= 1e-9 and abs(length - ref) <= 1e-9
        ok = ok and is_opaque(square, barrier).opaque
    _report(8, "all four reference square barriers have exact lengths and verify", ok)


def test_09_ratio_bounds(ratio_polys):
    sols = _ratio_solutions(ratio_polys)
    bounds = {"a1": (PI + 5) / (PI + 2), "a2": 1.5716,
              "a3": (PI + 5) / (PI + 2), "a4": 0.5 + (2 + SQRT2) / PI}
    ok = all(max(s.ratio for s in sols[m]) <= bounds[m] + 1e-6 for m in bounds)
    _report(9, "ratio bounds hold over 1000 seeded random polygons", ok)


def test_10_rectangle_bound_and_cauchy(ratio_polys):
    ok = True
    alphas = np.linspace(0.0, PI, 10001)
    for poly in ratio_polys:
        rect = min_perimeter_rectangle(poly)
        if rect.perimeter > (4 / PI) * poly.perimeter + 1e-9:
            ok = False
            break
        u = np.column_stack([np.cos(alphas), np.sin(alphas)])
        proj = poly.coords @ u.T
        widths = proj.max(axis=0) - proj.min(axis=0)
        integral = float(np.trapezoid(widths, alphas))
        if abs(integral - poly.perimeter) > 1e-4 * poly.perimeter:
            ok = False
            break
    _report(10, "enclosing-rectangle bound and width-integral identity hold", ok)


def test_11_verifier_cross_validation(square, ratio_polys):
    cases = []
    fix = make_fixture("unit-square")
    for barrier, _, _ in fix.known_barriers:
        cases.append((square, barrier, False))
        for drop in range(len(barrier.polylines)):
            rest = tuple(pl for k, pl in enumerate(barrier.polylines) if k != drop)
            if rest:
                cases.append((square, Barrier(rest, "arbitrary"), True))
    pentagon = make_fixture("pentagon-fig6").polygon
    for fn in (algo_a1, algo_a3, algo_a4, interior_single_arc):
        cases.append((pentagon, fn(pentagon).barrier, False))
    small = [p for p in ratio_polys if len(p) <= 20][:12]
    for poly in small:
        cases.append((poly, algo_a1(poly).barrier, False))
        a4b = algo_a4(poly).barrier
        cases.append((poly, a4b, False))
        # dropping the altitude component leaves diagonal lines unblocked
        cases.append((poly, Barrier(a4b.polylines[:1], "arbitrary"), True))
    ok = len(cases) >= 50
    for poly, barrier, mutated in cases:
        report = is_opaque(poly, barrier)
        sampled = sampling_oracle(poly, barrier, 2000, 2000)
        if report.opaque:
            ok = ok and sampled
        else:
            w = report.witness
            span = float(np.ptp(poly.coords @ np.array(
                [-math.sin(w.theta), math.cos(w.theta)])))
            # only demand oracle agreement when the gap is wide enough for
            # the sample grid to hit it
            if w.uncovered.length > max(10 * poly.tol.cover, 2 * span / 2000):
                ok = ok and not sampled
            # every witness must name a genuinely unblocked line
            nrm = np.array([-math.sin(w.theta), math.cos(w.theta)])
            pproj = poly.coords @ nrm
            ok = ok and pproj.min() - 1e-9 <= w.representative_offset <= pproj.max() + 1e-9
            for a, b in barrier.segments():
                lo, hi = sorted((float(np.array(a) @ nrm), float(np.array(b) @ nrm)))
                ok = ok and not (lo - poly.tol.cover < w.representative_offset
                                 < hi + poly.tol.cover)
        if not ok:
            break
    _report(11, f"verifier agrees with the sampling oracle on {len(cases)} cases", ok)


def test_12_blocking_inequality(square, ratio_polys):
    alphas = np.linspace(0.0, PI, 10000, endpoint=False)
    barriers = [(square, fn(square).barrier)
                for fn in (algo_a1, algo_a2, algo_a3, algo_a4,
                           interior_single_arc, interior_connected)]
    for barrier, _, _ in make_fixture("unit-square").known_barriers:
        barriers.append((square, barrier))
    for poly in ratio_polys[::199]:
        barriers.append((poly, algo_a3(poly).barrier))
        barriers.append((poly, algo_a4(poly).barrier))
    ok = True
    for poly, barrier in barriers:
        ok = ok and is_opaque(poly, barrier).opaque
        arr = np.array(barrier.segments(), dtype=float)
        d = arr[:, 1] - arr[:, 0]
        lens = np.hypot(d[:, 0], d[:, 1])
        angs = np.arctan2(d[:, 1], d[:, 0])
        nrm = np.column_stack([-np.sin(alphas), np.cos(alphas)])
        proj = poly.coords @ nrm.T
        widths = proj.max(axis=0) - proj.min(axis=0)
        total = np.abs(np.sin(alphas[:, None] - angs[None, :])) @ lens
        ok = ok and float((total - widths).min()) >= -1e-9
        # the vectorized sweep matches the scalar operation
        ok = ok and abs(blocking_margin(poly, barrier, float(alphas[17]))
                        - float(total[17] - widths[17])) <= 1e-9
    _report(12, "blocking inequality holds at 10^4 directions per barrier", ok)


def test_13_ordering_properties(ratio_polys):
    sols = _ratio_solutions(ratio_polys)
    ok = all(s3.length <= s1.length + 1e-9
             for s3, s1 in zip(sols["a3"], sols["a1"]))
    ok = ok and all(tr.length <= arc.length + 1e-9
                    for tr, arc in zip(sols["tree"], sols["arc"]))
    _report(13, "a3 never beats a1 backwards; tree never exceeds arc", ok)
