"""The three-point Fermat routine against its numpy formulation.

`steiner.steiner_three_points` and `steiner._outward_apex` run on plain
floats.  The reference below is the routine as first written, on numpy
arrays.  Every triple must give the same point and index, compared with
`==`, or raise the same exception type.  Most float operations are the same IEEE
operations in the same order; the exceptions are the angle at a vertex
and the sign of the apex's dot product, where numpy's 2-vector dot fuses
a multiply-add.  The float routine defers to numpy within `_ANGLE_BAND`
of the wide-angle threshold and within `_DOT_BAND` of a zero dot, so the
corpus puts thousands of angles within a few ulps of the threshold and
opposite points on the line of the apex's side.
"""

import math
import warnings

import numpy as np
from hypothesis import given, settings, strategies as st

from opaque.geometry import TOL_ANG, TOL_AREA_REL, Point2, cross2
from opaque.steiner import _outward_apex, steiner_three_points

_TWO_THIRDS_PI = 2.0 * math.pi / 3.0
THRESHOLD = _TWO_THIRDS_PI - TOL_ANG


def _pt(p) -> Point2:
    return Point2(float(p[0]), float(p[1]))


def ref_fermat(a, b, c):
    p = np.array([a, b, c], dtype=float)
    d = [math.dist(p[1], p[2]), math.dist(p[2], p[0]), math.dist(p[0], p[1])]
    scale = max(d)
    area2 = float(cross2(p[1] - p[0], p[2] - p[0]))
    if abs(area2) <= TOL_AREA_REL * scale * scale:
        on = int(np.argmax(d))  # collinear: middle point is opposite longest span
    else:
        on = ref_wide_vertex(p)
    if on is not None:
        return _pt(p[on]), on
    return ref_fermat_construction(p), None


def ref_vertex_angle(p, i):
    u = p[(i + 1) % 3] - p[i]
    v = p[(i + 2) % 3] - p[i]
    cosv = float(u @ v / (np.hypot(*u) * np.hypot(*v)))
    return math.acos(max(-1.0, min(1.0, cosv)))


def ref_wide_vertex(p):
    """Index of a vertex with angle >= 2*pi/3, if any."""
    for i in range(3):
        if ref_vertex_angle(p, i) >= _TWO_THIRDS_PI - TOL_ANG:
            return i
    return None


def ref_fermat_construction(p):
    """Intersection of the two Simpson lines (vertex to outward equilateral
    apex on the opposite side)."""
    lines = []
    for i in range(2):
        q, r = p[(i + 1) % 3], p[(i + 2) % 3]
        apex = ref_outward_apex(q, r, p[i])
        lines.append((p[i], apex - p[i]))
    (p0, u0), (p1, u1) = lines
    den = float(cross2(u0, u1))
    t = float(cross2(p1 - p0, u1)) / den
    return _pt(p0 + t * u0)


def ref_outward_apex(q, r, opposite):
    """Apex of the equilateral triangle on qr, on the side away from
    `opposite`."""
    mid = (q + r) / 2.0
    h = math.sqrt(3.0) / 2.0
    e = r - q
    n = np.array([-e[1], e[0]])
    apex = mid + h * n
    if float((apex - mid) @ (opposite - mid)) > 0.0:
        apex = mid - h * n
    return apex


def outcome(f, *args):
    """The value of f(*args), or the type of the exception it raises (a
    numpy warning counts as one)."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return f(*args)
    except Exception as exc:
        return type(exc)


def assert_same(triple):
    for k in range(3):
        rot = triple[k:] + triple[:k]
        assert outcome(steiner_three_points, *rot) == outcome(ref_fermat, *rot), rot


def star(ox, oy, log_scale, phi, angle, log_short):
    """u at (ox, oy), v at distance 10**log_scale from u in direction phi,
    w at 10**log_short times that distance, turned by the angle at u."""
    la = 10.0 ** log_scale
    lb = la * 10.0 ** log_short
    return ((ox, oy),
            (ox + la * math.cos(phi), oy + la * math.sin(phi)),
            (ox + lb * math.cos(phi + angle), oy + lb * math.sin(phi + angle)))


def seeded_triples():
    """6000 triples: 3000 with the angle at u set to the threshold or a few
    ulps off it, 1000 within 1e-9 rad of it, 1000 collinear or off the line
    by 1e-17..1e-9 of their size, 1000 anywhere; scales 1e-6..1e6, and
    offsets up to 1e9 on all but the first group, which needs its angle
    resolved to the last ulp."""
    rng = np.random.default_rng(14)
    out = []
    for k in range(6000):
        log_scale = rng.uniform(-6.0, 6.0)
        shift = 0.0 if k < 3000 or rng.random() < 0.5 else 10.0 ** rng.uniform(0.0, 9.0)
        ox, oy = shift * rng.uniform(-1.0, 1.0), shift * rng.uniform(-1.0, 1.0)
        if k < 3000:
            angle = THRESHOLD + int(rng.integers(-6, 7)) * 1e-16
        elif k < 4000:
            angle = THRESHOLD + rng.uniform(-1e-9, 1e-9)
        elif k < 5000:
            a = np.array((ox, oy))
            e = rng.standard_normal(2) * 10.0 ** log_scale
            off = rng.standard_normal(2) * 10.0 ** (log_scale + rng.uniform(-17.0, -9.0))
            c = a + rng.uniform(-1.5, 2.5) * e + (off if rng.random() < 0.7 else 0.0)
            out.append(tuple(tuple(map(float, p)) for p in (a, a + e, c)))
            continue
        else:
            angle = rng.uniform(0.0, math.pi)
        out.append(star(ox, oy, log_scale, rng.uniform(0.0, 2.0 * math.pi), angle,
                        rng.uniform(-3.0, 0.0)))
    return out


def degenerate_triples():
    """Coincident points, and points a few ulps apart at offsets up to 1e9."""
    rng = np.random.default_rng(21)
    out = [((0.0, 0.0), (0.0, 0.0), (0.0, 0.0)),
           ((1.0, 2.0), (1.0, 2.0), (3.0, -1.0)),
           ((1e9, 1e9), (1e9, 1e9), (1e9 + 1e-6, 1e9))]
    for _ in range(600):
        o = float(rng.choice([1e9, -1e9, 3e8, 1e6, 1.0]))
        ulp = float(np.spacing(abs(o)))
        k = rng.integers(-4, 5, size=(3, 2))
        out.append(tuple((o + float(k[i, 0]) * ulp, o + float(k[i, 1]) * ulp) for i in range(3)))
    return out


def test_seeded_triples_match_reference():
    for triple in seeded_triples():
        assert_same(triple)


def test_degenerate_triples_match_reference():
    for triple in degenerate_triples():
        assert_same(triple)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(ox=st.floats(-1e9, 1e9), oy=st.floats(-1e9, 1e9),
       log_scale=st.floats(-6.0, 6.0), phi=st.floats(0.0, 2.0 * math.pi),
       angle=st.one_of(st.integers(-8, 8).map(lambda j: THRESHOLD + j * 1e-16),
                       st.floats(-1e-9, 1e-9).map(lambda t: THRESHOLD + t),
                       st.floats(0.0, 1e-6).map(lambda t: math.pi - t),
                       st.floats(0.0, math.pi)),
       log_short=st.floats(-3.0, 0.0))
def test_stars_match_reference(**kw):
    assert_same(star(**kw))


def test_outward_apex_matches_reference():
    # the opposite point on the line of q and r, or off it by a rounding,
    # where the dot product's sign is decided by its last bits
    rng = np.random.default_rng(7)
    for _ in range(5000):
        scale = 10.0 ** rng.uniform(-6.0, 6.0)
        q, r = rng.standard_normal(2) * scale, rng.standard_normal(2) * scale
        o = q + rng.uniform(-1.5, 2.5) * (r - q)
        if rng.random() < 0.5:
            o = o + rng.standard_normal(2) * scale * 10.0 ** rng.uniform(-17.0, -12.0)
        want = tuple(ref_outward_apex(q, r, o).tolist())
        assert _outward_apex(tuple(q.tolist()), tuple(r.tolist()), tuple(o.tolist())) == want
