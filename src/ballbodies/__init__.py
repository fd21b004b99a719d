"""Numerics for the metric space of ball bodies (intersections of unit balls).

Support functions with certified tolerances, the Hausdorff metric,
c-duality, circumballs, reconstruction from point distances, a classifier
recovering the normal form of metric isometries, and a planar
degree-theoretic surjectivity verifier.
"""

__version__ = "0.1.0"

from .bodies import (
    BallBodyExpr,
    CDual,
    Combine,
    Generators,
    Motion,
    apply_motion,
    ball_body,
    body_to_doc,
    c_dual,
    combine,
    parse_body,
    point_body,
    push_motion,
)
from .geometry import (
    Ball,
    RigidMotion,
    SphereNet,
    make_sphere_net,
    minimal_enclosing_ball,
    procrustes_fit,
)
from .support import (
    HausdorffResult,
    SupportEval,
    circumball,
    contains_point,
    farthest_distance,
    hausdorff,
    reconstruct,
    support_value,
)

__all__ = [
    "__version__",
    "Ball",
    "BallBodyExpr",
    "CDual",
    "Combine",
    "Generators",
    "HausdorffResult",
    "Motion",
    "RigidMotion",
    "SphereNet",
    "SupportEval",
    "apply_motion",
    "ball_body",
    "body_to_doc",
    "c_dual",
    "circumball",
    "combine",
    "contains_point",
    "farthest_distance",
    "hausdorff",
    "make_sphere_net",
    "minimal_enclosing_ball",
    "parse_body",
    "point_body",
    "procrustes_fit",
    "push_motion",
    "reconstruct",
    "support_value",
]
