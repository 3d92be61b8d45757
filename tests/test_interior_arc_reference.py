"""The interior-arc DP against its np.roll formulation.

The reference below fills each row with fresh arrays and shifts S and T by
one vertex with ``np.roll``, and keeps both n x n choice tables.
``hamiltonian_path_tables`` keeps only the rows where some jump wins, as
(2, n) flag rows, and steps the other rows without np.hypot once it has
certified that no jump can win there.  Its flag rows are written into
n x n tables, every other row False, and the lengths and both tables must
be identical to the reference's, compared with ``np.array_equal``.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from opaque import interior_single_arc, make_fixture, random_convex_polygon, validate_polygon
from opaque.barriers import ROW_BLOCK, hamiltonian_path_tables

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


def dense_tables(poly):
    """``hamiltonian_path_tables``' output with its flag rows written into
    n x n tables, every row that is not kept all False."""
    lengths, jumps = hamiltonian_path_tables(poly)
    n = len(lengths)
    cs, ct = np.zeros((n, n), dtype=bool), np.zeros((n, n), dtype=bool)
    for L, flags in jumps.items():
        assert flags.shape == (2, n) and flags.any()
        cs[L], ct[L] = flags
    return lengths, cs, ct


def assert_same(poly):
    got = dense_tables(poly)
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


def ellipse(n, aspect):
    t = 0.1 + 2.0 * math.pi * np.arange(n) / n
    return validate_polygon(np.column_stack([np.cos(t), aspect * np.sin(t)]))


def test_thin_ellipses_match_reference():
    # aspect 1e-3: a jump wins in every row; 1e-2: only in the last one
    for aspect, jump_rows in ((1e-3, 1498), (1e-2, 1)):
        poly = ellipse(1500, aspect)
        assert len(hamiltonian_path_tables(poly)[1]) == jump_rows
        assert_same(poly)


def test_polygons_of_three_to_six_vertices_match_reference():
    rng = np.random.default_rng(36)
    for n in range(3, 7):
        for _ in range(50):
            assert_same(random_convex_polygon(n, rng))


def test_far_translated_twins_match_reference():
    # chords of vertices 1e6 and 1e9 diameters from the origin round to a
    # few bits: the certificate's low and np.hypot see the same differences
    rng = np.random.default_rng(69)
    shapes = [random_convex_polygon(60, rng), regular_ngon(100),
              make_fixture("reuleaux-poly", m=41).polygon, ellipse(300, 0.05)]
    for poly in shapes:
        psi = rng.uniform(0.0, 2.0 * math.pi)
        for shift in (1e6, 1e9):
            offset = shift * poly.diameter * np.array([math.cos(psi), math.sin(psi)])
            assert_same(validate_polygon(poly.coords + offset))


def test_jump_row_at_block_edges_matches_reference():
    # regular polygons whose only jump row, the last, is the first or the
    # last row of a block of the walk, which starts at row 2
    for n, at in ((182, "last"), (257, "first"), (314, "last"), (315, "first")):
        poly = regular_ngon(n)
        rows = sorted(hamiltonian_path_tables(poly)[1])
        block = ROW_BLOCK // n
        assert rows == [n - 1]
        assert (n - 3) % block == (0 if at == "first" else block - 1)
        assert_same(poly)


def test_jump_rows_extra_counts_nonempty_reference_rows(small_polys, ratio_polys):
    shapes = small_polys + ratio_polys[:200] + [regular_ngon(64), ellipse(400, 1e-3),
                                                random_convex_polygon(300, np.random.default_rng(7))]
    for poly in shapes:
        _, cs, ct = ref_tables(poly)
        want = int(np.count_nonzero(cs.any(axis=1) | ct.any(axis=1)))
        assert interior_single_arc(poly).extras["jump_rows"] == want


@settings(max_examples=2000, deadline=None, derandomize=True, database=None)
@given(mantissa=st.floats(1.0, 2.0), log_big=st.floats(-300.0, 300.0),
       log_ratio=st.floats(0.0, 300.0), signs=st.integers(0, 3), swap=st.booleans())
def test_hypot_at_least_larger_coordinate(mantissa, log_big, log_ratio, signs, swap):
    # the walk's certificate rests on np.hypot(dx, dy) >= max(|dx|, |dy|)
    # in floats, which a faithfully rounded hypot gives; ratios of the two
    # coordinates up to 1e300
    big = mantissa * 10.0 ** log_big
    small = big / 10.0 ** log_ratio
    dx, dy = (-big if signs & 1 else big), (-small if signs & 2 else small)
    if swap:
        dx, dy = dy, dx
    got = np.hypot(np.array([dx, dx, dy]), np.array([dy, 0.0, dy]))
    low = np.maximum(np.abs([dx, dx, dy]), np.abs([dy, 0.0, dy]))
    assert np.all(got >= low)
