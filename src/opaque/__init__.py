"""Short opaque barriers (line-blocking curve sets) for convex polygons."""

from .geometry import (
    ConvexPolygon,
    DuplicateVertex,
    InconsistentIncircle,
    Interval,
    NotStrictlyConvex,
    OrientedRectangle,
    Point2,
    PolygonError,
    Strip,
    TooFewVertices,
    WrongOrientation,
    min_perimeter_rectangle,
    min_width,
    validate_polygon,
)
from .incircle import InscribedCircle, TangentTriangle, largest_inscribed_circle, tangent_triangle
from .steiner import steiner_three_points
from .barriers import (
    Barrier,
    BarrierSolution,
    algo_a1,
    algo_a2,
    algo_a3,
    algo_a4,
    algo_a4_candidates,
    half_perimeter_lower_bound,
    interior_connected,
    interior_single_arc,
    u_curve,
)
from .verify import (
    VerificationReport,
    Witness,
    blocking_margin,
    critical_directions,
    is_opaque,
    projections_cover,
    sampling_oracle,
)
from .fixtures import BadFixtureParameter, Fixture, UnknownFixture, make_fixture, random_convex_polygon

__version__ = "0.1.0"
