import math

import numpy as np
import pytest

from opaque import (
    BadFixtureParameter,
    TooFewVertices,
    UnknownFixture,
    is_opaque,
    make_fixture,
    random_convex_polygon,
)

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)
SQRT6 = math.sqrt(6.0)


def width_in_direction(poly, alpha):
    """Extent of the polygon's vertices along direction alpha."""
    proj = poly.coords @ np.array([math.cos(alpha), math.sin(alpha)])
    return float(proj.max() - proj.min())


class TestUnitSquare:
    def test_barrier_lengths(self):
        fix = make_fixture("unit-square")
        want = [3.0, 2 * SQRT2, 1 + SQRT3, SQRT2 + SQRT6 / 2]
        got = [length for _, length, _ in fix.known_barriers]
        assert got == pytest.approx(want, abs=1e-9)
        for barrier, length, _ in fix.known_barriers:
            assert barrier.length == pytest.approx(length, abs=1e-9)

    def test_barriers_opaque(self):
        fix = make_fixture("unit-square")
        for barrier, _, label in fix.known_barriers:
            assert is_opaque(fix.polygon, barrier).opaque, label

    def test_lengths_strictly_decreasing(self):
        fix = make_fixture("unit-square")
        lengths = [length for _, length, _ in fix.known_barriers]
        assert lengths == sorted(lengths, reverse=True)

    def test_constants(self):
        fix = make_fixture("unit-square")
        assert fix.known_constants["jones_lower_bound"] == 2.0
        assert fix.known_constants["best_known"] == pytest.approx(
            SQRT2 + SQRT6 / 2)


class TestOtherFixtures:
    def test_equilateral(self):
        fix = make_fixture("equilateral")
        assert len(fix.polygon) == 3
        assert fix.known_constants["inradius"] == pytest.approx(SQRT3 / 6)

    def test_regular_ngon(self):
        fix = make_fixture("regular-ngon", n=12, r=2.0)
        assert len(fix.polygon) == 12
        radii = np.hypot(*fix.polygon.coords.T)
        assert np.allclose(radii, 2.0, atol=1e-12)

    def test_pentagon(self):
        fix = make_fixture("pentagon-fig6")
        poly = fix.polygon
        assert len(poly) == 5
        assert poly.perimeter == pytest.approx(5.914, abs=2e-3)
        assert fix.known_constants["a3_length"] == pytest.approx(3.3364)

    def test_rectangle(self):
        fix = make_fixture("rectangle", a=3.0, b=1.5)
        assert fix.polygon.perimeter == pytest.approx(9.0)

    def test_unknown(self):
        with pytest.raises(UnknownFixture):
            make_fixture("dodecahedron")

    def test_bad_parameters(self):
        # names the fixture does not take, counts that are not positive
        # integers and shaves outside [0, 1); an integral float count is a
        # count
        for name, params in (("regular-ngon", {"bogus": 3}), ("unit-square", {"n": 4}),
                             ("reuleaux-poly", {"m": 1.5}), ("regular-ngon", {"n": 0}),
                             ("reuleaux-poly", {"shave": 1.0}),
                             ("reuleaux-poly", {"shave": -0.1})):
            with pytest.raises(BadFixtureParameter):
                make_fixture(name, **params)
        assert issubclass(BadFixtureParameter, ValueError)
        assert len(make_fixture("reuleaux-poly", m=3.0).polygon) == 9


class TestReuleaux:
    def test_constant_width(self):
        poly = make_fixture("reuleaux-poly", m=400).polygon
        alphas = np.linspace(0, math.pi, 257)
        widths = [width_in_direction(poly, float(a)) for a in alphas]
        assert min(widths) == pytest.approx(1.0, abs=1e-4)
        assert max(widths) == pytest.approx(1.0, abs=1e-4)

    def test_perimeter_near_pi(self):
        # constant width 1 implies perimeter pi (Barbier)
        poly = make_fixture("reuleaux-poly", m=400).polygon
        assert poly.perimeter == pytest.approx(math.pi, abs=1e-3)

    def test_shaved_width(self):
        poly = make_fixture("reuleaux-poly", m=400, shave=0.01).polygon
        assert width_in_direction(poly, 0.0) == pytest.approx(0.99, abs=1e-4)
        # widths away from the truncation direction are untouched
        assert width_in_direction(poly, math.pi / 2) == pytest.approx(1.0, abs=1e-4)


class TestRandomGenerator:
    def test_deterministic(self):
        a = random_convex_polygon(12, np.random.default_rng(99))
        b = random_convex_polygon(12, np.random.default_rng(99))
        assert np.array_equal(a.coords, b.coords)

    def test_valid_and_bounded_size(self):
        rng = np.random.default_rng(5)
        for n in (3, 4, 8, 32, 64):
            poly = random_convex_polygon(n, rng)
            assert 3 <= len(poly) <= n

    def test_too_few_vertices(self):
        # rejected before anything is drawn
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        for n in (0, 1, 2):
            with pytest.raises(TooFewVertices):
                random_convex_polygon(n, rng)
        assert rng.bit_generator.state == state

    def test_varied_shapes(self):
        rng = np.random.default_rng(7)
        perims = {round(random_convex_polygon(16, rng).perimeter, 6)
                  for _ in range(10)}
        assert len(perims) == 10
