"""The interior-arc DP against its np.roll formulation.

The reference below fills each row with fresh arrays and shifts S and T by
one vertex with ``np.roll``.  ``hamiltonian_path_tables`` does the same
float operations in the same order on preallocated buffers, so the
lengths and both choice tables must be identical, compared with
``np.array_equal``.
"""

import math

import numpy as np

from opaque import make_fixture, random_convex_polygon, validate_polygon
from opaque.barriers import hamiltonian_path_tables

from conftest import regular_ngon


def ref_tables(poly):
    """Circular-run DP with every row allocated anew."""
    v = poly.coords
    n = len(v)
    x2, y2 = np.concatenate([v, v]).T
    dnext = poly.edge_lengths
    dnext2 = np.concatenate([dnext, dnext])
    S = T = dnext
    cs = np.zeros((n, n), dtype=bool)
    ct = np.zeros_like(cs)
    for L in range(2, n):
        dspan = np.hypot(x2[L:L + n] - v[:, 0], y2[L:L + n] - v[:, 1])
        opt1 = dnext + np.roll(S, -1)
        opt2 = dspan + np.roll(T, -1)
        opt1t = dnext2[L - 1:L - 1 + n] + T
        opt2t = dspan + S
        S = np.minimum(opt1, opt2)
        cs[L] = opt2 < opt1
        T = np.minimum(opt1t, opt2t)
        ct[L] = opt2t < opt1t
    return S, cs, ct


def assert_same(poly):
    got = hamiltonian_path_tables(poly)
    want = ref_tables(poly)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.array_equal(g, w)


def test_fixture_polygons_match_reference(small_polys, ratio_polys):
    for poly in small_polys + ratio_polys:
        assert_same(poly)


def test_regular_polygons_match_reference():
    # equal distances everywhere: the strict < of the choice rows decides
    # every tie, so these catch a swapped comparison
    for n in range(3, 65):
        assert_same(regular_ngon(n))
        t = 0.3 + 2.0 * math.pi * np.arange(n) / n
        assert_same(validate_polygon(np.column_stack([np.cos(t), np.sin(t)])))


def test_reuleaux_polygons_match_reference():
    for m in range(3, 41):
        assert_same(make_fixture("reuleaux-poly", m=m).polygon)


def test_large_random_hulls_match_reference():
    # hulls of 5 to 1036 vertices
    rng = np.random.default_rng(1024)
    for n in (5, 17, 100, 257, 451, 700, 1023, 1200):
        assert_same(random_convex_polygon(n, rng))
