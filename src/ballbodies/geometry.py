"""Dimension-generic geometric substrate.

Vectors are plain float64 numpy arrays.  This module provides the pieces
everything else is built from: direction nets on the unit sphere whose
covering radius is proven by construction (an angular grid in the plane, a
radially projected cube-face grid for n >= 3), minimal enclosing balls
(Welzl), least-squares orthogonal motion fitting, and planar winding numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CurveHitsOriginError,
    DegenerateSourcesError,
    DimensionMismatchError,
    InsufficientResolutionError,
)

UNIT_NORM_TOL = 1e-9
ORTHOGONALITY_TOL = 1e-9


def as_vector(x, dim: int | None = None) -> np.ndarray:
    """Coerce to a finite float64 vector, optionally checking its dimension."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector has non-finite entries")
    if dim is not None and v.shape[0] != dim:
        raise DimensionMismatchError(f"expected dimension {dim}, got {v.shape[0]}")
    return v


def as_points(points, dim: int | None = None) -> np.ndarray:
    """Coerce a sequence of vectors to an (m, n) float64 array."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1 and pts.size > 0:
        pts = pts[None, :]
    if pts.ndim != 2 or pts.shape[0] == 0 or pts.shape[1] == 0:
        raise ValueError("expected a nonempty list of equal-length vectors")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points have non-finite entries")
    if dim is not None and pts.shape[1] != dim:
        raise DimensionMismatchError(f"expected dimension {dim}, got {pts.shape[1]}")
    return pts


def normalize_direction(u, dim: int | None = None, slack: float = 1e-6) -> np.ndarray:
    """Return u rescaled to unit norm; rejects vectors further than `slack` from the sphere."""
    u = as_vector(u, dim)
    norm = float(np.linalg.norm(u))
    if abs(norm - 1.0) > slack:
        raise ValueError(f"direction norm {norm} is not within {slack} of 1")
    return u / norm


@dataclass(frozen=True)
class Ball:
    """A Euclidean ball given by center and radius."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", as_vector(self.center))
        if self.radius < 0:
            raise ValueError("radius must be nonnegative")

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    def contains(self, point, slack: float = 1e-9) -> bool:
        return float(np.linalg.norm(as_vector(point, self.dim) - self.center)) <= self.radius + slack


@dataclass(frozen=True)
class RigidMotion:
    """Orthogonal matrix plus translation, acting as ``x -> Q x + t``.

    Reflections (det Q = -1) are allowed.
    """

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.rotation, dtype=float)
        t = as_vector(self.translation)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ValueError("rotation must be a square matrix")
        if q.shape[0] != t.shape[0]:
            raise DimensionMismatchError("rotation and translation dimensions differ")
        if not np.allclose(q.T @ q, np.eye(q.shape[0]), atol=ORTHOGONALITY_TOL, rtol=0.0):
            raise ValueError("rotation matrix is not orthogonal within 1e-9")
        object.__setattr__(self, "rotation", q)
        object.__setattr__(self, "translation", t)

    @property
    def dim(self) -> int:
        return self.translation.shape[0]

    @staticmethod
    def identity(dim: int) -> "RigidMotion":
        return RigidMotion(np.eye(dim), np.zeros(dim))

    def apply(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        return pts @ self.rotation.T + self.translation

    def compose(self, other: "RigidMotion") -> "RigidMotion":
        """self after other: ``x -> self(other(x))``."""
        return RigidMotion(
            self.rotation @ other.rotation,
            self.rotation @ other.translation + self.translation,
        )

    def inverse(self) -> "RigidMotion":
        return RigidMotion(self.rotation.T, -self.rotation.T @ self.translation)


@dataclass(frozen=True, eq=False)
class SphereNet:
    """A finite direction net whose covering radius is at most `mesh`.

    Every unit vector lies within Euclidean distance `mesh` of some listed
    direction.  For nets from `make_sphere_net` this is proven by the grid's
    construction (see there), not estimated by sampling.  Directions come
    in exact antipodal pairs, so evaluating a support function on the net
    and on its negation sees the same vectors.
    """

    directions: np.ndarray
    mesh: float
    dim: int = field(init=False)

    def __post_init__(self):
        dirs = np.asarray(self.directions, dtype=float)
        if dirs.ndim != 2 or dirs.shape[0] == 0:
            raise ValueError("directions must be a nonempty (m, n) array")
        norms = np.linalg.norm(dirs, axis=1)
        if np.max(np.abs(norms - 1.0)) > 1e-12:
            raise ValueError("net directions must have unit norm within 1e-12")
        if self.mesh <= 0:
            raise ValueError("mesh must be positive")
        object.__setattr__(self, "directions", dirs)
        object.__setattr__(self, "dim", dirs.shape[1])

    def __len__(self) -> int:
        return self.directions.shape[0]

    def covering_audit(self, n_samples: int, seed: int = 0) -> float:
        """Largest distance from random unit vectors to the net (Monte Carlo, for tests)."""
        from scipy.spatial import cKDTree

        u = np.random.default_rng(seed).standard_normal((n_samples, self.dim))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        dist, _ = cKDTree(self.directions).query(u)
        return float(np.max(dist))


def make_sphere_net(n: int, mesh: float) -> SphereNet:
    """Build a direction net on the unit sphere of R^n with covering radius <= mesh.

    n = 2: m equal angle steps, m the least even count with half-step
    chord 2 sin(pi/2m) <= mesh.  n >= 3: the normalized cell centers of a k^(n-1)
    grid on each positive face of [-1, 1]^n, k = ceil(sqrt(n-1)/mesh), and
    their negations.  Proof: u/|u|_inf lies within sqrt(n-1)/k of a cell
    center, and radial projection onto the ball is 1-Lipschitz outside it.
    """
    if n < 2:
        raise ValueError("sphere nets need ambient dimension >= 2")
    if not 0.0 < mesh <= 2.0:
        raise ValueError(f"mesh must lie in (0, 2], the diameter of the unit sphere; got {mesh}")

    if n == 2:
        m = max(int(math.ceil(math.pi / (2.0 * math.asin(mesh / 2.0)))), 2)
        m += m % 2
        theta = 2.0 * math.pi * np.arange(m // 2) / m
        half = np.column_stack([np.cos(theta), np.sin(theta)])
    else:
        k = int(math.ceil(math.sqrt(n - 1) / mesh))
        ticks = (2.0 * np.arange(k) + 1.0) / k - 1.0
        face = np.stack(np.meshgrid(*([ticks] * (n - 1)), indexing="ij"), axis=-1)
        face = face.reshape(-1, n - 1)
        ones = np.ones((face.shape[0], 1))
        half = np.vstack([np.hstack([face[:, :i], ones, face[:, i:]]) for i in range(n)])
        half /= np.linalg.norm(half, axis=1, keepdims=True)
    return SphereNet(np.vstack([half, -half]), mesh)


# ---------------------------------------------------------------------------
# minimal enclosing ball (Welzl's randomized algorithm)
# ---------------------------------------------------------------------------


def _circumball_of_boundary(boundary: list[np.ndarray]) -> Ball:
    """Smallest ball with all boundary points on its surface (affinely independent set)."""
    if not boundary:
        return Ball(np.zeros(1), 0.0)  # replaced by caller before use
    p0 = boundary[0]
    if len(boundary) == 1:
        return Ball(p0, 0.0)
    diffs = np.array([p - p0 for p in boundary[1:]])
    rhs = 0.5 * np.einsum("ij,ij->i", diffs, diffs)
    gram = diffs @ diffs.T
    try:
        coef = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        coef, *_ = np.linalg.lstsq(gram, rhs, rcond=None)
    center = p0 + diffs.T @ coef
    radius = float(np.linalg.norm(center - p0))
    return Ball(center, radius)


def _welzl(points: list[np.ndarray], dim: int) -> Ball:
    """Welzl's recursion welzl(P, R) run on an explicit stack.

    welzl(P + [p], R) is welzl(P, R) when that ball holds p, else
    welzl(P, R + [p]); P is always a prefix of `points`, so a pending call
    is the pair (prefix length, boundary).
    """
    pending: list[tuple[int, list[np.ndarray]]] = []
    k, boundary = len(points), []
    while True:
        while k and len(boundary) < dim + 1:
            pending.append((k, boundary))
            k -= 1
        ball = _circumball_of_boundary(boundary) if boundary else Ball(np.zeros(dim), 0.0)
        while pending:
            k, boundary = pending.pop()
            p = points[k - 1]
            if not ball.contains(p, slack=1e-12 * (1.0 + ball.radius)):
                break
        else:
            return ball
        # the pending call's value is now welzl(points[:k - 1], boundary + [p])
        k, boundary = k - 1, boundary + [p]


def minimal_enclosing_ball(points, seed: int = 0) -> Ball:
    """Smallest ball containing all points (exact up to float rounding).

    Deterministic: Welzl's algorithm runs on a seed-shuffled copy.
    """
    pts = as_points(points)
    unique = np.unique(pts, axis=0)
    order = np.random.default_rng(seed).permutation(unique.shape[0])
    ball = _welzl([unique[i] for i in order], pts.shape[1])
    # tighten the radius to exactly cover the inputs
    radius = float(np.max(np.linalg.norm(pts - ball.center, axis=1)))
    return Ball(ball.center, radius)


# ---------------------------------------------------------------------------
# least-squares orthogonal motion fit
# ---------------------------------------------------------------------------


def procrustes_fit(sources, targets) -> tuple[RigidMotion, float]:
    """Fit the motion ``x -> Q x + t`` minimizing RMS error to the targets.

    Q ranges over the full orthogonal group, so reflections are admitted.
    Returns the motion and the RMS residual.  Raises
    DegenerateSourcesError when the sources do not affinely span.
    """
    src = as_points(sources)
    tgt = as_points(targets)
    if src.shape != tgt.shape:
        raise ValueError(
            f"sources and targets must have equal shapes, got {src.shape} vs {tgt.shape}"
        )
    m, n = src.shape
    if m < n + 1:
        raise DegenerateSourcesError(f"need at least {n + 1} pairs in dimension {n}, got {m}")
    s_mean = src.mean(axis=0)
    t_mean = tgt.mean(axis=0)
    s_c = src - s_mean
    t_c = tgt - t_mean
    sing = np.linalg.svd(s_c, compute_uv=False)
    if sing[-1] <= 1e-9:
        raise DegenerateSourcesError(
            f"sources do not affinely span (smallest singular value {sing[-1]:.3e})"
        )
    h = s_c.T @ t_c
    u, _, vt = np.linalg.svd(h)
    q = vt.T @ u.T
    t = t_mean - q @ s_mean
    motion = RigidMotion(q, t)
    residual = float(np.sqrt(np.mean(np.sum((motion.apply(src) - tgt) ** 2, axis=1))))
    return motion, residual


# ---------------------------------------------------------------------------
# planar winding number
# ---------------------------------------------------------------------------


def winding_number(samples) -> int:
    """Winding number about the origin of a closed planar curve.

    `samples` is a list of (angle, value) pairs with strictly increasing
    angles in [0, 2 pi) and nonzero 2-d values.  Consecutive normalized
    values (including the wrap-around pair) must differ in angle by less
    than pi/2; callers refine their sampling until that holds.
    """
    if len(samples) < 3:
        raise InsufficientResolutionError("need at least 3 samples on the curve")
    angles = np.array([float(a) for a, _ in samples])
    values = np.array([as_vector(v, 2) for _, v in samples])
    if np.any(np.diff(angles) <= 0):
        raise ValueError("sample angles must be strictly increasing")
    if angles[0] < 0 or angles[-1] >= 2.0 * math.pi:
        raise ValueError("sample angles must lie in [0, 2*pi)")
    norms = np.linalg.norm(values, axis=1)
    if np.any(norms < 1e-12):
        raise CurveHitsOriginError("curve value has norm below 1e-12")
    nxt = np.roll(values, -1, axis=0)
    cross = values[:, 0] * nxt[:, 1] - values[:, 1] * nxt[:, 0]
    dot = np.einsum("ij,ij->i", values, nxt)
    steps = np.arctan2(cross, dot)
    step_bound = float(np.max(np.abs(steps)))
    if step_bound >= math.pi / 2.0:
        raise InsufficientResolutionError(
            f"normalized curve turns by {step_bound:.3f} >= pi/2 between samples"
        )
    total = float(np.sum(steps)) / (2.0 * math.pi)
    rounded = int(round(total))
    if abs(total - rounded) > 0.25:
        raise InsufficientResolutionError(
            f"accumulated angle {total:.3f} turns is not close to an integer"
        )
    return rounded
