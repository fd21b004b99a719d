"""Expression-tree representation of ball bodies.

A body is a nonempty intersection of translated unit balls, described by a
tree of four node kinds:

* ``Generators(centers)``     -- the intersection of unit balls about the centers
* ``CDual(of)``               -- the c-dual body
* ``Combine(lam, a, b)``      -- the Minkowski average (1-lam) a + lam b
* ``Motion(g, of)``           -- the image under a rigid motion

Trees are immutable and hash by identity.  Each node sets its dimension,
its depth, its norm bound (a bound on |h(u)| over the unit sphere) and its
curvature interval once, at construction, from its own data and its
children's values.  The curvature interval [lo, hi] bounds h + h'' along
every great circle (the radius of curvature of each plane projection of
the body, as a measure): an intersection of balls of radii at most R is a
Minkowski summand of R B (Schneider, *Convex Bodies*, section 3.2), so a
leaf has [0, max r_i], a one-ball leaf exactly [r, r], and each node maps
its children's intervals as it maps their supports.  The matching
JSON document format (one object per node; other keys are ignored) is::

    {"type": "generators", "centers": [[...], ...]}
    {"type": "cdual", "of": <body>}
    {"type": "combine", "lambda": 0.5, "a": <body>, "b": <body>}
    {"type": "motion", "rotation": [[...], ...], "translation": [...], "of": <body>}
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, DocumentError
from .geometry import RigidMotion, as_points
from .solver import LeafGeometry, prepare_leaf

MAX_TREE_DEPTH = 16


class BallBodyExpr:
    """Base class for body expression nodes."""

    dim: int
    depth: int
    norm_bound: float  # bounds |h(u)| over the unit sphere
    curvature: tuple[float, float]  # (lo, hi) bounds h + h'' along every great circle

    def _derive(self, dim: int, depth: int, norm_bound: float, curvature: tuple[float, float]) -> None:
        if depth > MAX_TREE_DEPTH:
            raise ValueError(f"expression depth exceeds {MAX_TREE_DEPTH}")
        if not math.isfinite(norm_bound * norm_bound):  # net error bounds square it
            raise ValueError(f"norm bound {norm_bound:.3g} is too large: its square is not finite")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "depth", depth)
        object.__setattr__(self, "norm_bound", norm_bound)
        object.__setattr__(self, "curvature", curvature)


@dataclass(frozen=True, eq=False)
class Generators(BallBodyExpr):
    """Intersection of balls about `centers`.

    Unit radii denote a body in the modeled class; general radii support
    internal distance-constraint intersections (not serializable).  Every
    leaf that `prepare_leaf` finds nonempty is a body, down to one point.
    `centers` and `radii` are the leaf's read-only copies of the inputs.
    """

    centers: np.ndarray
    radii: np.ndarray | None = None

    def __post_init__(self):
        leaf = prepare_leaf(as_points(self.centers), self.radii)
        object.__setattr__(self, "centers", leaf.centers)
        if self.radii is not None:
            object.__setattr__(self, "radii", leaf.radii)
        object.__setattr__(self, "_leaf", leaf)
        with np.errstate(over="ignore"):  # a norm beyond float range comes out inf, which _derive rejects
            norm_bound = float(np.min(np.linalg.norm(leaf.centers, axis=1) + leaf.radii))
        r = float(leaf.radii.max())
        self._derive(leaf.dim, 1, norm_bound, (r, r) if leaf.m == 1 else (0.0, r))

    @property
    def leaf(self) -> LeafGeometry:
        return self._leaf


@dataclass(frozen=True, eq=False)
class CDual(BallBodyExpr):
    """The c-dual: the intersection of unit balls centered at points of the body."""

    of: BallBodyExpr

    def __post_init__(self):
        lo, hi = self.of.curvature  # h'(u) = 1 - h(-u)
        self._derive(self.of.dim, self.of.depth + 1, 1.0 + self.of.norm_bound, (1.0 - hi, 1.0 - lo))


@dataclass(frozen=True, eq=False)
class Combine(BallBodyExpr):
    """Minkowski average (1 - lam) a + lam b."""

    lam: float
    a: BallBodyExpr
    b: BallBodyExpr

    def __post_init__(self):
        if not (0.0 <= self.lam <= 1.0):
            raise ValueError(f"lambda must lie in [0, 1], got {self.lam}")
        if self.a.dim != self.b.dim:
            raise DimensionMismatchError("combined bodies have different dimensions")
        mu = 1.0 - self.lam
        norm_bound = mu * self.a.norm_bound + self.lam * self.b.norm_bound
        (lo_a, hi_a), (lo_b, hi_b) = self.a.curvature, self.b.curvature
        curvature = (mu * lo_a + self.lam * lo_b, mu * hi_a + self.lam * hi_b)
        self._derive(self.a.dim, 1 + max(self.a.depth, self.b.depth), norm_bound, curvature)


@dataclass(frozen=True, eq=False)
class Motion(BallBodyExpr):
    """Image of a body under a rigid motion."""

    g: RigidMotion
    of: BallBodyExpr

    def __post_init__(self):
        if self.g.dim != self.of.dim:
            raise DimensionMismatchError("motion dimension does not match the body")
        norm_bound = self.of.norm_bound + float(np.linalg.norm(self.g.translation))
        self._derive(self.of.dim, self.of.depth + 1, norm_bound, self.of.curvature)


# ---------------------------------------------------------------------------
# convenience constructors
# ---------------------------------------------------------------------------


def ball_body(center) -> Generators:
    """The unit ball about `center`."""
    return Generators(np.asarray(center, dtype=float)[None, :])


def point_body(p) -> CDual:
    """The singleton {p}, expressed as the c-dual of its unit ball."""
    return CDual(ball_body(p))


def c_dual(body: BallBodyExpr) -> CDual:
    return CDual(body)


def combine(lam: float, a: BallBodyExpr, b: BallBodyExpr) -> Combine:
    return Combine(lam, a, b)


def apply_motion(g: RigidMotion, body: BallBodyExpr) -> Motion:
    return Motion(g, body)


# ---------------------------------------------------------------------------
# document format
# ---------------------------------------------------------------------------


def read_node(doc, key: str, readers: dict, what: str, depth: int, *context):
    """The one reading rule for a body or map document node.

    The node must be an object at most MAX_TREE_DEPTH levels down, and its
    `key` field must name one of `readers`; the reader is called as
    ``reader(doc, depth + 1, *context)`` and reads its children at that
    depth.  A missing field or a value that does not convert (KeyError,
    TypeError, ValueError, OverflowError) becomes DocumentError.
    """
    if depth > MAX_TREE_DEPTH:
        raise DocumentError(f"{what} document nests deeper than {MAX_TREE_DEPTH}")
    if not isinstance(doc, dict):
        raise DocumentError(f"{what} node must be an object, got {type(doc).__name__}")
    kind = doc.get(key)
    if not isinstance(kind, str) or kind not in readers:
        raise DocumentError(f"unknown {what} node type {reprlib.repr(kind)}")  # reprlib: bounded depth
    try:
        return readers[kind](doc, depth + 1, *context)
    except KeyError as exc:
        raise DocumentError(f"{what} node of type {kind!r} lacks field {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise DocumentError(f"malformed {what} node of type {kind!r}: {exc}") from exc


def read_motion(doc) -> RigidMotion:
    """The rigid motion of a node's "rotation" and "translation" fields."""
    return RigidMotion(doc["rotation"], doc["translation"])


_BODY_READERS = {  # children go through the module name `parse_body`, which perfbench's tracer rebinds
    "generators": lambda doc, depth: Generators(doc["centers"]),
    "cdual": lambda doc, depth: CDual(parse_body(doc["of"], depth)),
    "combine": lambda doc, depth: Combine(
        float(doc["lambda"]), parse_body(doc["a"], depth), parse_body(doc["b"], depth)
    ),
    "motion": lambda doc, depth: Motion(read_motion(doc), parse_body(doc["of"], depth)),
}


def parse_body(doc, _depth: int = 0) -> BallBodyExpr:
    """Build an expression tree from a parsed JSON document."""
    return read_node(doc, "type", _BODY_READERS, "body", _depth)


def body_to_doc(body: BallBodyExpr) -> dict:
    """Serialize an expression tree to the document format."""
    if isinstance(body, Generators):
        if body.radii is not None:
            raise ValueError("general-radius intersections have no document form")
        return {"type": "generators", "centers": body.centers.tolist()}
    if isinstance(body, CDual):
        return {"type": "cdual", "of": body_to_doc(body.of)}
    if isinstance(body, Combine):
        return {
            "type": "combine",
            "lambda": body.lam,
            "a": body_to_doc(body.a),
            "b": body_to_doc(body.b),
        }
    if isinstance(body, Motion):
        return {
            "type": "motion",
            "rotation": body.g.rotation.tolist(),
            "translation": body.g.translation.tolist(),
            "of": body_to_doc(body.of),
        }
    raise TypeError(f"not a body expression: {type(body).__name__}")
