"""Peak memory of the constructions and the verifier on large polygons.

The support oracle keeps every kernel scan at O(n) memory; an n x n
projection matrix at n = 16384 alone takes 2.1 GB.  The verifier tests
directions in fixed-size blocks, so its projection arrays stay bounded
however many critical directions there are.  Peaks are measured
with tracemalloc and never timed: tracing slows Python loops many fold.
"""

import tracemalloc

import numpy as np
import pytest

from opaque import (
    algo_a1,
    algo_a2,
    algo_a3,
    algo_a4,
    interior_single_arc,
    is_opaque,
    make_fixture,
    random_convex_polygon,
)

from conftest import regular_ngon

MB = 1 << 20

LARGE = {
    "ngon-16384": lambda: regular_ngon(16384),
    "reuleaux-16383": lambda: make_fixture("reuleaux-poly", m=5461).polygon,
}


def peak_bytes(fn, poly):
    tracemalloc.start()
    try:
        fn(poly)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("method", [algo_a1, algo_a3, algo_a4], ids=["a1", "a3", "a4"])
@pytest.mark.parametrize("shape", sorted(LARGE))
def test_large_polygon_peak_memory(shape, method):
    poly = LARGE[shape]()
    assert len(poly) in (16383, 16384)
    assert peak_bytes(method, poly) < 64 * MB


def test_a2_odd_ngon_peak_memory():
    # every edge of an odd regular polygon touches its incircle
    assert peak_bytes(algo_a2, regular_ngon(401)) < 32 * MB


@pytest.mark.parametrize("method", [algo_a3, interior_single_arc], ids=["a3", "interior-arc"])
def test_verifier_peak_memory(method):
    # about 83k directions; all at once the projections took 283-370 MB
    poly = random_convex_polygon(300, np.random.default_rng(300))
    barrier = method(poly).barrier
    assert peak_bytes(lambda p: is_opaque(p, barrier), poly) < 64 * MB
