"""Dimension-generic geometric substrate.

Vectors are plain float64 numpy arrays.  This module provides the pieces
everything else is built from: direction nets on the unit sphere whose
covering radius is proven by construction (an angular grid in the plane, a
radially projected cube-face grid for n >= 3), smallest enclosing balls of
balls and of points (one pivoting routine), and least-squares orthogonal
motion fitting.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateSourcesError, DimensionMismatchError, NoConvergenceError

ORTHOGONALITY_TOL = 1e-9
MAX_LP_PIVOTS = 1000  # circumball LP rounds; Bland's rule ends every tie, so only rounding gets here
DIRECTION_SLACK = 1e-6  # largest distance of a query direction from the unit sphere


def _real_array(x) -> np.ndarray:
    """x as a float64 array; a value NumPy cannot read as real numbers raises ValueError."""
    try:
        return np.asarray(x, dtype=float)
    except (TypeError, OverflowError) as exc:  # an object in the list, an integer beyond float range
        raise ValueError(f"expected real numbers: {exc}") from exc


def as_vector(x, dim: int | None = None) -> np.ndarray:
    """Coerce to a finite float64 vector, optionally checking its dimension."""
    v = _real_array(x)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError("vector has non-finite entries")
    if dim is not None and v.shape[0] != dim:
        raise DimensionMismatchError(f"expected dimension {dim}, got {v.shape[0]}")
    return v


def as_points(points) -> np.ndarray:
    """Coerce a sequence of vectors to an (m, n) float64 array."""
    pts = _real_array(points)
    if pts.ndim == 1 and pts.size > 0:
        pts = pts[None, :]
    if pts.ndim != 2 or pts.shape[0] == 0 or pts.shape[1] == 0:
        raise ValueError("expected a nonempty list of equal-length vectors")
    if not np.isfinite(pts).all():
        raise ValueError("points have non-finite entries")
    return pts


def normalize_direction(u, dim: int | None = None) -> np.ndarray:
    """Return u rescaled to unit norm; rejects vectors further than DIRECTION_SLACK from the sphere."""
    u = as_vector(u, dim)
    norm = float(np.linalg.norm(u))
    if abs(norm - 1.0) > DIRECTION_SLACK:
        raise ValueError(f"direction norm {norm} is not within {DIRECTION_SLACK} of 1")
    return u / norm


@dataclass(frozen=True)
class Ball:
    """A Euclidean ball given by center and radius; `center` is a read-only copy."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", np.array(as_vector(self.center)))
        self.center.flags.writeable = False
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

    Reflections (det Q = -1) are allowed.  Both arrays are read-only copies.
    """

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        q = np.array(self.rotation, dtype=float)
        t = np.array(as_vector(self.translation))
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ValueError("rotation must be a square matrix")
        if q.shape[0] != t.shape[0]:
            raise DimensionMismatchError("rotation and translation dimensions differ")
        if not np.abs(q.T @ q - np.eye(q.shape[0])).max(initial=0.0) <= ORTHOGONALITY_TOL:  # NaN fails too
            raise ValueError("rotation matrix is not orthogonal within 1e-9")
        q.flags.writeable = t.flags.writeable = False
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
    in exact antipodal pairs, ordered [half; -half], so one sweep holds
    every width h(u) + h(-u).  `directions` is read-only.
    """

    directions: np.ndarray
    mesh: float
    dim: int = field(init=False)

    def __post_init__(self):
        dirs = np.array(self.directions, dtype=float)
        if dirs.ndim != 2 or dirs.shape[0] == 0:
            raise ValueError("directions must be a nonempty (m, n) array")
        norms = np.linalg.norm(dirs, axis=1)
        if np.max(np.abs(norms - 1.0)) > 1e-12:
            raise ValueError("net directions must have unit norm within 1e-12")
        if self.mesh <= 0:
            raise ValueError("mesh must be positive")
        if len(dirs) % 2 or not np.array_equal(dirs[len(dirs) // 2 :], -dirs[: len(dirs) // 2]):
            raise ValueError("net directions must be [half; -half]: the second half negates the first")
        dirs.flags.writeable = False
        object.__setattr__(self, "directions", dirs)
        object.__setattr__(self, "dim", dirs.shape[1])

    def __len__(self) -> int:
        return self.directions.shape[0]


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
# smallest enclosing ball of balls (pivoting)
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def padded_subsets(s: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Subsets of range(s) with at most n members, padded with -1, and their padding.

    Returns the (c, n) table, one subset per row, and the (c, n, n) diagonal
    matrices with ones at the padded positions.  Both are shared, read-only.
    """
    idx = np.array(
        [
            row + (-1,) * (n - k)
            for k in range(min(s, n) + 1)
            for row in itertools.combinations(range(s), k)
        ],
        dtype=np.intp,
    )
    pad = np.eye(n) * (idx < 0)[:, None, :]
    idx.flags.writeable = pad.flags.writeable = False
    return idx, pad


def _tangent_candidates(X, rho, j, basis):
    """Balls internally tangent to ball j and to every ball of a subset of `basis`.

    For a subset U the center is z = x_j + w with w in the span of the
    x_i - x_j (i in U).  Tangency |z - x_i| = R - rho_i to every ball of
    U + [j] makes w affine in R, w = w0 + R w1 (one small linear system),
    and R a root of |w0 + R w1|^2 = (R - rho_j)^2; both roots are kept.
    Returns the candidate centers (2c, n), two per subset, and the (c, n)
    table of subsets as positions in `basis`; the empty subset gives x_j.
    """
    n = X.shape[1]
    idx, pad = padded_subsets(len(basis), n)
    # the last row belongs to j itself and is zero, so the -1 padding drops out
    D = X[basis + [j]] - X[j]
    d = rho[basis + [j]] - rho[j]
    b = 0.5 * (np.einsum("sn,sn->s", D, D) - d * (d + 2.0 * rho[j]))
    A, rhs = D[idx], np.stack([b, d], axis=1)[idx]  # (c, n, n), (c, n, 2)
    G = A @ A.transpose(0, 2, 1) + pad
    # affinely dependent subsets get G = I and no solution; their candidates are NaN
    ok = np.linalg.det(G) > 1e-12 * G.diagonal(axis1=1, axis2=2).prod(axis=1)
    G[~ok] = np.eye(n)
    Ginv = np.linalg.inv(G)
    sol = Ginv @ rhs
    sol += Ginv @ (rhs - G @ sol)  # one refinement step removes the inverse's last-bit error
    sol[~ok] = np.nan
    W = sol.transpose(0, 2, 1) @ A  # rows w0, w1
    M = W @ W.transpose(0, 2, 1)
    qa, qb, qc = M[:, 1, 1] - 1.0, M[:, 0, 1] + rho[j], M[:, 0, 0] - rho[j] ** 2
    q = -(qb + np.copysign(np.sqrt(np.maximum(qb * qb - qa * qc, 0.0)), qb))
    R = np.stack([q / qa, qc / q], axis=1)  # (c, 2), stable for qa near 0
    return (X[j] + W[:, :1, :] + R[:, :, None] * W[:, 1:, :]).reshape(-1, n), idx


@np.errstate(divide="ignore", invalid="ignore")  # degenerate candidates come out inf or NaN
def enclosing_ball(centers, radii) -> tuple[np.ndarray, float]:
    """Smallest ball enclosing the balls B(x_i, rho_i); returns (center, radius).

    Pivoting on an LP-type basis of at most n + 1 balls: add the ball that
    sticks out furthest, then keep the smallest ball tangent to it and to a
    subset of the basis that encloses basis and new ball alike.  The radius
    grows strictly, so the loop ends; a pivot that stalls on rounding stops
    it early.  The returned radius is measured at the returned center, so
    the ball encloses every input ball whatever the rounding.
    """
    X = as_points(centers)
    rho = np.asarray(radii, dtype=float)
    if rho.shape != X.shape[:1] or not ((rho >= 0.0) & (rho < np.inf)).all():
        raise ValueError("radii must be finite, nonnegative and one per center")
    basis = [int(rho.argmax())]
    z, R = X[basis[0]].copy(), float(rho[basis[0]])
    while True:
        excess = np.linalg.norm(X - z, axis=1) + rho
        j = int(excess.argmax())
        if excess[j] <= R + 1e-12 * (1.0 + R):
            return z, float(excess[j])
        cands, subsets = _tangent_candidates(X, rho, j, basis)
        members = basis + [j]
        diff = cands[:, None, :] - X[members]
        radius = (np.sqrt(np.einsum("ckn,ckn->ck", diff, diff)) + rho[members]).max(axis=1)
        radius[np.isnan(radius)] = np.inf
        best = int(radius.argmin())
        if not radius[best] > R:
            return z, float(excess[j])
        z, R = cands[best], float(radius[best])
        basis = [basis[i] for i in subsets[best // 2] if i >= 0] + [j]


def minimal_enclosing_ball(points) -> Ball:
    """Smallest ball containing all points: `enclosing_ball` with zero radii.

    The radius is the largest distance from the returned center to a point.
    """
    pts = as_points(points)
    center, radius = enclosing_ball(pts, np.zeros(pts.shape[0]))
    return Ball(center, radius)


# ---------------------------------------------------------------------------
# the circumball LP (pivoting)
# ---------------------------------------------------------------------------


def _lp_basis(A, h, cons, tol):
    """An optimal basis of the circumball LP restricted to the sorted constraints `cons`.

    Each (n + 1)-subset S of `cons` gives, from one batched inverse, the
    vertex y_S = (z, rho) at which its constraints are tight and its dual
    multipliers lam_S (sum of lam_i (u_i, 1) = (0, 1)).  S is valid when
    lam_S >= 0 and y_S meets every constraint of `cons`, both within tol;
    then y_S is optimal over `cons`.  Of several valid subsets the
    lexicographically largest is kept: within a round it drops the
    lowest-indexed constraint.  Returns (basis, y, lam).
    """
    k = A.shape[1]
    # padded_subsets lists the full-size subsets last, in lexicographic order
    S = cons[padded_subsets(len(cons), k)[0][-math.comb(len(cons), k) :]]
    M = A[S]
    # rows (u_i, 1) have norm sqrt(2): a Hadamard ratio test for singular subsets
    ok = np.abs(np.linalg.det(M)) > 1e-9 * 2.0 ** (k / 2)
    M[~ok] = np.eye(k)
    Minv = np.linalg.inv(M)
    y = np.einsum("cij,cj->ci", Minv, h[S])
    lam = Minv[:, -1, :]  # the last row of M^-1 solves M^T lam = e_last
    slack = y @ A[cons].T - h[cons]
    worst = np.maximum(-lam.min(axis=1), -slack.min(axis=1))
    worst[~ok] = np.inf
    valid = np.flatnonzero(worst <= tol)
    best = int(valid[-1]) if valid.size else int(worst.argmin())
    return S[best], y[best], lam[best]


def circumcenter_lp(directions, heights) -> tuple[np.ndarray, float]:
    """The least rho, and a center z, with <u_i, z> + rho >= h_i for every direction u_i.

    With h_i a body's support values on a direction net this is its
    circumball to net resolution.  The LP has n + 1 variables, so it is
    LP-type with combinatorial dimension n + 1 (Matousek-Sharir-Welzl
    1996), and the loop below is the simplex method on its dual, max sum
    lam_i h_i over lam >= 0 with sum lam_i u_i = 0 and sum lam_i = 1:

    * a basis is n + 1 constraints whose tight vertex is optimal over them;
    * the start is the LP over n linearly independent directions, picked
      by pivoted Gram-Schmidt (each the one farthest from the span of those
      before), and the directions nearest their antipodes.  For an
      antipodal net, such as every `make_sphere_net` net, the hull of these
      pairs holds a neighbourhood of the origin, so the start is bounded.
      (The directions nearest +-e_k need not span: on the 24-direction net
      of mesh 1 in R^3 they do not.)
    * each round adds the most violated constraint j and keeps an optimal
      basis of the basis plus j (`_lp_basis`).

    rho never decreases, but it can stay put: the optimum need not be
    unique (z is often free along an axis at the start), and a round then
    only moves z.  Tie rule: every round keeps, of several optimal bases,
    the one that drops the lowest-indexed constraint, and once a basis
    recurs without rho rising, rounds add the lowest-indexed violated
    constraint instead of the most violated one until rho rises.  Rounds at
    one rho cannot go on forever: there are finitely many bases, so one
    recurs, and from then on the rounds follow Bland's rule, which cannot
    cycle (Bland 1977).  As rho takes finitely many values, the loop ends.

    The radius is max_i (h_i - <u_i, z>) at the returned center, so the ball
    meets every constraint whatever the rounding.  Raises
    NoConvergenceError when a support value is not finite, or when the final
    basis does not certify the radius: a multiplier below -tol, or the radius
    above the dual value sum lam_i h_i by more than tol, with tol =
    1e-12 (1 + max |h|).  An LP without a bounded optimum (directions whose
    hull misses the origin) ends there too.  Directions that span only a
    subspace leave z free off it; z is 0 there.
    """
    U = as_points(directions)
    h = np.asarray(heights, dtype=float)
    N, n = U.shape
    if h.shape != (N,):
        raise ValueError(f"expected {N} support values, got shape {h.shape}")
    if not np.isfinite(h).all():
        raise NoConvergenceError(
            f"circumball LP in dimension n={n} over {N} directions: "
            f"{int(np.count_nonzero(~np.isfinite(h)))} support values are not finite"
        )
    rank = np.linalg.matrix_rank(U)
    if rank < n:
        span = np.linalg.svd(U)[2][:rank]
        z, rho = circumcenter_lp(U @ span.T, h)
        return z @ span, rho
    A = np.hstack([U, np.ones((N, 1))])
    tol = 1e-12 * (1.0 + float(np.abs(h).max()))
    picks, R = [], U.copy()
    for _ in range(n):  # pivoted Gram-Schmidt: each pick farthest from the span of those before
        i = int(np.einsum("ij,ij->i", R, R).argmax())
        picks.append(i)
        q = R[i] / np.linalg.norm(R[i])
        R -= np.outer(R @ q, q)
    antipodes = (U @ U[picks].T).argmin(axis=0)
    start = np.array(sorted({*picks, *antipodes.tolist()}), dtype=np.intp)  # np.unique imports numpy.ma
    if len(start) <= n:
        raise NoConvergenceError(
            f"circumball LP in dimension n={n} over {N} directions: no start, as the "
            f"directions nearest the antipodes of {n} independent ones are those {n} again"
        )
    basis, y, lam = _lp_basis(A, h, start, tol)
    pivots, seen, bland = 0, set(), False  # seen: the bases met since rho last rose
    while pivots < MAX_LP_PIVOTS:
        viol = h - A @ y
        j = int((viol > tol).argmax()) if bland else int(viol.argmax())
        if not viol[j] > tol or j in basis:
            break
        basis, y_next, lam = _lp_basis(A, h, np.sort(np.append(basis, j)), tol)
        if y_next[-1] > y[-1] + tol:
            seen, bland = set(), False
        else:
            bland = bland or tuple(basis) in seen
            seen.add(tuple(basis))
        y = y_next
        pivots += 1
    z = y[:n]
    rho = float((h - U @ z).max())
    gap = rho - float(lam @ h[basis])
    if not (gap <= tol and lam.min() >= -tol):
        raise NoConvergenceError(
            f"circumball LP in dimension n={n} over {N} directions did not converge after "
            f"{pivots} pivots: achieved duality gap {gap:.3g} (needs at most {tol:.3g}), "
            f"least multiplier {lam.min():.3g} (needs at least {-tol:.3g})"
        )
    return z, rho


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
