"""Black-box map fixtures and their document format.

Body-to-body maps (consumed by the classifier)::

    {"map": "motion", "rotation": [[...], ...], "translation": [...]}
    {"map": "cdual"}
    {"map": "compose", "of": [<map>, ...]}        # applied in listed order
    {"map": "constant", "body": <body document>}  # negative fixture
    {"map": "scale_centers", "factor": 2.0}       # negative fixture

Planar point maps (consumed by the surjectivity verifier)::

    {"map": "planar_rigid", "rotation": [[...], ...], "translation": [...]}
    {"map": "planar_perturbed", "amplitude": 0.2, "seed": 1}
    {"map": "planar_radial_hole"}

Maps are deterministic functions; the perturbed-rigid family derives its
rotation, translation, frequencies and phases from the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bodies import (
    BallBodyExpr,
    CDual,
    Combine,
    Generators,
    Motion,
    apply_motion,
    c_dual,
    parse_body,
)
from .errors import DimensionMismatchError, DocumentError
from .geometry import RigidMotion


@dataclass(frozen=True, eq=False)
class BlackBoxMap:
    """A supplied deterministic map, either body-to-body or planar point-to-point."""

    evaluate: Callable
    dim: int
    planar: bool = False
    name: str = "map"

    def __call__(self, x):
        return self.evaluate(x)


def motion_map(g: RigidMotion) -> BlackBoxMap:
    return BlackBoxMap(lambda body: apply_motion(g, body), g.dim, name="motion")


def cdual_map(dim: int) -> BlackBoxMap:
    return BlackBoxMap(c_dual, dim, name="cdual")


def compose_maps(maps: list[BlackBoxMap]) -> BlackBoxMap:
    if not maps:
        raise ValueError("compose needs at least one map")
    dim = maps[0].dim

    def run(body):
        for m in maps:
            body = m.evaluate(body)
        return body

    return BlackBoxMap(run, dim, name="compose(" + ",".join(m.name for m in maps) + ")")


def constant_map(body: BallBodyExpr) -> BlackBoxMap:
    return BlackBoxMap(lambda _k: body, body.dim, name="constant")


def _scale_tree(body: BallBodyExpr, factor: float) -> BallBodyExpr:
    if isinstance(body, Generators):
        return Generators(body.centers * factor, radii=body.radii)
    if isinstance(body, CDual):
        return CDual(_scale_tree(body.of, factor))
    if isinstance(body, Combine):
        return Combine(body.lam, _scale_tree(body.a, factor), _scale_tree(body.b, factor))
    if isinstance(body, Motion):
        g = RigidMotion(body.g.rotation, body.g.translation * factor)
        return Motion(g, _scale_tree(body.of, factor))
    raise TypeError(f"not a body expression: {type(body).__name__}")


def scale_centers_map(dim: int, factor: float) -> BlackBoxMap:
    """Dilates generator centers; not a metric isometry (negative fixture)."""
    if not np.isfinite(factor):
        raise ValueError(f"factor must be finite, got {factor}")
    return BlackBoxMap(lambda body: _scale_tree(body, factor), dim, name="scale_centers")


# ---------------------------------------------------------------------------
# planar point maps
# ---------------------------------------------------------------------------


def planar_rigid_map(g: RigidMotion) -> BlackBoxMap:
    if g.dim != 2:
        raise ValueError("planar maps must be 2-dimensional")
    return BlackBoxMap(lambda x: g.apply(np.asarray(x, dtype=float)), 2, planar=True, name="planar_rigid")


def planar_perturbed_map(amplitude: float, seed: int) -> BlackBoxMap:
    """Seeded rigid motion plus a bounded sinusoidal displacement.

    The displacement has norm at most amplitude * sqrt(2) everywhere, so the
    map distorts distances by at most 2 * amplitude * sqrt(2).
    """
    if not np.isfinite(amplitude):
        raise ValueError(f"amplitude must be finite, got {amplitude}")
    rng = np.random.default_rng(seed)
    angle = rng.uniform(0, 2 * np.pi)
    q = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    t = rng.uniform(-1.0, 1.0, 2)
    freq = rng.uniform(0.4, 1.0, (2, 2))
    freq /= np.maximum(np.linalg.norm(freq, axis=1, keepdims=True), 1.0)
    phase = rng.uniform(0, 2 * np.pi, 2)
    g = RigidMotion(q, t)

    def run(x):
        x = np.asarray(x, dtype=float)
        wobble = amplitude * np.array(
            [np.sin(freq[0] @ x + phase[0]), np.cos(freq[1] @ x + phase[1])]
        )
        return g.apply(x) + wobble

    return BlackBoxMap(run, 2, planar=True, name="planar_perturbed")


def planar_radial_hole_map() -> BlackBoxMap:
    """Pushes the plane radially outward by 1, leaving the unit disk uncovered.

    Discontinuous at the origin (f(0) is pinned to (1, 0)); serves as the
    negative control for the surjectivity verifier.
    """

    def run(x):
        x = np.asarray(x, dtype=float)
        r = float(np.linalg.norm(x))
        if r < 1e-300:
            return np.array([1.0, 0.0])
        return (r + 1.0) * x / r

    return BlackBoxMap(run, 2, planar=True, name="planar_radial_hole")


# ---------------------------------------------------------------------------
# document parsing
# ---------------------------------------------------------------------------


def parse_map(doc, dim: int) -> BlackBoxMap:
    """Build a black-box map from a parsed JSON document."""
    if not isinstance(doc, dict):
        raise DocumentError(f"map node must be an object, got {type(doc).__name__}")
    kind = doc.get("map")
    try:
        if kind == "motion":
            g = RigidMotion(
                np.asarray(doc["rotation"], dtype=float),
                np.asarray(doc["translation"], dtype=float),
            )
            return motion_map(g)
        if kind == "cdual":
            return cdual_map(dim)
        if kind == "compose":
            parts = doc["of"]
            if not isinstance(parts, list) or not parts:
                raise DocumentError("compose.of must be a nonempty list")
            return compose_maps([parse_map(p, dim) for p in parts])
        if kind == "constant":
            return constant_map(parse_body(doc["body"]))
        if kind == "scale_centers":
            return scale_centers_map(dim, float(doc["factor"]))
        if kind == "planar_rigid":
            g = RigidMotion(
                np.asarray(doc["rotation"], dtype=float),
                np.asarray(doc["translation"], dtype=float),
            )
            return planar_rigid_map(g)
        if kind == "planar_perturbed":
            return planar_perturbed_map(float(doc["amplitude"]), int(doc.get("seed", 0)))
        if kind == "planar_radial_hole":
            return planar_radial_hole_map()
    except KeyError as exc:
        raise DocumentError(f"map node of type {kind!r} lacks field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise DocumentError(f"malformed map node of type {kind!r}: {exc}") from exc
    raise DocumentError(f"unknown map type {kind!r}")


def map_dimension(doc) -> int | None:
    """The dimension a motion's rotation or a constant's body fixes, compose parts included; else None."""
    kind = doc.get("map") if isinstance(doc, dict) else None
    if kind in ("motion", "constant"):
        return parse_map(doc, 2).dim  # neither kind reads the dimension argument
    parts = doc["of"] if kind == "compose" and isinstance(doc.get("of"), list) else []
    dims = {map_dimension(part) for part in parts} - {None}
    if len(dims) > 1:
        raise DimensionMismatchError(f"compose parts live in dimensions {sorted(dims)}")
    return min(dims, default=None)
