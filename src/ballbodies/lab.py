"""Executable isometry analysis: distance-defect screening, normal-form
classification of black-box isometries, and the geodesic midpoint check.

A metric isometry of the ball-body space is, in normal form, a rigid motion
applied either directly or after c-duality.  The classifier maps a point
and a unit ball on each of 0 and +-PROBE_OFFSET e_i once, and sweeps each
distinct image once on the configured net.  Screening compares the images'
distances with the probes' own, which have closed forms.  Then it recovers
the normal form in three stages: (1) see which family collapses to
near-points, (2) fit the rigid motion, which any n + 1 affinely independent
points fix, to the fitted centers of the collapsed images, and (3) certify
the fit by measuring residual distances on random test bodies.

No decision here needs a linear program.  Under a true isometry every
probe image is a point or a unit ball, whose support h(u) = <z, u> + rho is
affine in u, so one least-squares fit over all images recovers every center
exactly.  Whether a body is a near-point is read off its sweep: the farthest
distance from the fitted center bounds the circumradius from above
(`_ball_fits`), half the largest width from below.  Stage 1 collapses on the
upper ends; the geodesic midpoint check reads both.

The screening tolerance, the collapse radius, the probe points and the
number of test bodies are the module constants below.  So every probe and
test body the classifier maps depends only on the dimension, and the test
bodies on the seed too.  Each is built once per dimension (and seed); body
trees are read-only from construction, so a map that writes into its input
raises instead of changing later calls.  Stage 3 compares each pulled-back
image g^-1 T K with K itself (or its c-dual), so a test body's own sweep is
a property of the body and the net: it is taken once per net and kept.
The map's images are swept afresh on every call, so no result depends on
earlier calls.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .bodies import BallBodyExpr, apply_motion, ball_body, c_dual, point_body
from .corpus import random_body
from .errors import AmbiguousClassificationError, DimensionMismatchError, NotIsometryError
from .geometry import RigidMotion, SphereNet, make_sphere_net, procrustes_fit
from .maps import BlackBoxMap
from .solver import DEFAULT_TOL
from .support import SupportEval, as_eval, default_mesh, hausdorff, net_error_bound

POINT_RADIUS_TOL = 1e-3  # a body of radius at most this is a near-point
DEFECT_TOL = 0.5  # screening rejects a certified distance defect beyond this
PROBE_OFFSET = 2.0  # the probes sit on 0 and +-PROBE_OFFSET e_i
N_TEST_BODIES = 20  # stage 3's residual bodies
CACHE_SIZE = 16  # distinct (dimension, seed) values kept per built input


def _image(T: BlackBoxMap, body: BallBodyExpr, what: str) -> BallBodyExpr:
    """T(body), with any failure of the map reported as NotIsometryError.

    An isometry maps every body to a body, so a map that fails on one of
    the classifier's inputs is not an isometry.
    """
    try:
        return T(body)
    except Exception as exc:
        raise NotIsometryError(f"map evaluation failed on a {what}: {exc}") from exc


@functools.lru_cache(maxsize=CACHE_SIZE, typed=True)
def _probes(dim: int) -> tuple[np.ndarray, tuple[BallBodyExpr, ...], np.ndarray]:
    """The 2n + 1 points 0 and +-PROBE_OFFSET e_i, the 4n + 2 probes on
    them, the point probes before the unit-ball probes, and the probes'
    Hausdorff distances in closed form, read-only.

    Rows and columns of the distances follow the probes.  Two points or two
    unit balls lie |x - y| apart, and a point and a unit ball |x - y| + 1.
    """
    points = np.vstack([np.zeros(dim), PROBE_OFFSET * np.eye(dim), -PROBE_OFFSET * np.eye(dim)])
    centers = np.vstack([points, points])
    is_ball = np.repeat([0.0, 1.0], len(points))
    distances = np.linalg.norm(centers[:, None] - centers, axis=-1) + np.abs(is_ball[:, None] - is_ball)
    points.flags.writeable = distances.flags.writeable = False
    return points, tuple(map(point_body, points)) + tuple(map(ball_body, points)), distances


def _pair_bounds(images: list[BallBodyExpr], net: SphereNet, tol: float) -> np.ndarray:
    """`net_error_bound` of each pair of images, as a (k, k) matrix.

    Each pair's own norm bounds and curvature intervals go in.  The
    diagonal, no pair, is 0.
    """
    norm_bounds = np.array([image.norm_bound for image in images])
    lo, hi = np.array([image.curvature for image in images]).T
    curvatures = ((lo[:, None], hi[:, None]), (lo, hi))
    bound = net_error_bound(net.mesh, (norm_bounds[:, None], norm_bounds), curvatures, (tol, tol))
    np.fill_diagonal(bound, 0.0)
    return bound


def _screening(
    images: list[BallBodyExpr], sweeps: np.ndarray, distances: np.ndarray, net: SphereNet, tol: float
) -> tuple[float, float]:
    """(worst upper endpoint, worst certified lower endpoint) of the distance
    defect |d(TK, TL) - d(K, L)| over the pairs of probes.

    d(K, L) is exact.  d(TK, TL) is the sup-norm distance of the images'
    sweeps, the value `hausdorff` computes, within its error bound for the
    pair.  The diagonal, a zero shift with a zero bound, changes neither
    maximum.
    """
    k = len(images)
    after = np.zeros((k, k))
    for i in range(k - 1):  # one row at a time: no (k, k, N) array
        after[i, i + 1 :] = np.max(np.abs(sweeps[i + 1 :] - sweeps[i]), axis=1)
    after += after.T
    shift = np.abs(after - distances)
    bound = _pair_bounds(images, net, tol)
    return float(np.max(shift + bound)), max(float(np.max(shift - bound)), 0.0)


def screening_bound(dim: int, net: SphereNet, tol: float) -> float:
    """The largest error bound screening charges a pair of probe images under the identity."""
    return float(np.max(_pair_bounds(_probes(dim)[1], net, tol)))


@functools.lru_cache(maxsize=CACHE_SIZE, typed=True)
def _test_bodies(dim: int, seed: int) -> tuple[BallBodyExpr, ...]:
    """Stage 3's random test bodies."""
    rng = np.random.default_rng(seed)
    return tuple(random_body(rng, dim) for _ in range(N_TEST_BODIES))


@functools.lru_cache(maxsize=CACHE_SIZE, typed=True)
def _test_models(dim: int, seed: int, kind: str, net: SphereNet, tol: float) -> tuple[SupportEval, ...]:
    """Oracles of the test bodies K, or of their c-duals for the kind "cdual".

    Stage 3 compares each with its pulled-back image g^-1 T K, since
    d(T K, g K) = d(g^-1 T K, K) for every motion g.  Each oracle's memo
    holds its sweep of `net` alone, so a body is swept once per key.
    """
    return tuple(SupportEval(body if kind == "identity" else c_dual(body), tol) for body in _test_bodies(dim, seed))


def _ball_fits(sweeps: np.ndarray, net: SphereNet, tol) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares ball fits h(u) ~ <z, u> + rho of support sweeps on the net, one body per row.

    Returns the centers z, shape (k, n), exact for points and balls, and
    certified upper ends of the circumradii, shape (k,): the farthest
    distance from z, at most (max_u (h(u) - <z, u>) + tol) / (1 - mesh^2 / 2)
    by `support.farthest_distance_batch`'s proof, clamped at 0.  Raises
    ValueError when the net's directions do not span R^n, so that the fit
    is not unique, and for a mesh >= sqrt(2), where the bound is void.
    """
    design = np.hstack([net.directions, np.ones((len(net), 1))])
    coef, _, rank, _ = np.linalg.lstsq(design, sweeps.T, rcond=None)
    if rank < net.dim + 1:
        raise ValueError(
            f"the net's {len(net)} directions do not span R^{net.dim}: "
            f"ball fits need rank {net.dim + 1}, got {rank}"
        )
    shrink = 1.0 - net.mesh**2 / 2.0
    if not shrink > 0:
        raise ValueError(f"farthest distances need a net mesh below sqrt(2), got {net.mesh}")
    centers = coef[:-1].T
    reach = np.max(sweeps - centers @ net.directions.T, axis=1)
    return centers, np.maximum((reach + tol) / shrink, 0.0)


@dataclass
class ClassifierConfig:
    """Settings of `classify_isometry`: the dimension, the net and oracle
    tolerance of every distance, and the seed of the stage-3 test bodies.

    The dimension fixes the probes, and with the seed the test bodies.
    Each is built on first use, once per distinct value, so fields set
    after construction take effect; `classify_isometry` checks the net's
    dimension where it uses the net.
    """

    dimension: int = 2
    net: SphereNet | None = None
    tol: float = DEFAULT_TOL
    seed: int = 0

    def __post_init__(self):
        if self.net is None:
            self.net = make_sphere_net(self.dimension, default_mesh(self.dimension))


@dataclass
class IsometryClassification:
    kind: str  # "identity" (rigid motion) or "cdual" (rigid motion after duality)
    motion: RigidMotion
    residual: float
    residual_bound: float
    isometry_defect: float  # certified upper bound on |d(TK, TL) - d(K, L)| over the probe pairs
    fit_rms: float
    stage1_point_radius: float  # certified upper ends of the circumradii: see `_ball_fits`
    stage1_ball_radius: float
    details: dict = field(default_factory=dict)

    def to_doc(self) -> dict:
        return {
            "kind": self.kind,
            "rotation": self.motion.rotation.tolist(),
            "translation": self.motion.translation.tolist(),
            "residual": self.residual,
            "residual_bound": self.residual_bound,
            "isometry_defect": self.isometry_defect,
            "fit_rms": self.fit_rms,
            "stage1_point_radius": self.stage1_point_radius,
            "stage1_ball_radius": self.stage1_ball_radius,
            "details": self.details,
        }


def classify_isometry(T: BlackBoxMap, config: ClassifierConfig) -> IsometryClassification:
    """Recover the normal form of a black-box isometry of the ball-body space.

    Raises NotIsometryError when the map fails distance screening, fails on
    any input, or when neither probe family collapses to points (impossible
    for a true isometry), AmbiguousClassificationError when both do,
    DimensionMismatchError when the net is not of the config's dimension,
    and ValueError when the net's directions do not span the space or a
    test body's image is too deep to take one more motion node.

    The probes and test bodies come from `config`'s dimension and seed and
    are built once per distinct value (see `ClassifierConfig`); they are
    read-only, so `T` must build its images rather than write into its
    input.  The test bodies' own sweeps are kept per net; every image is
    swept afresh on every call.
    """
    net = config.net
    dim = config.dimension
    if net.dim != dim:
        raise DimensionMismatchError(f"net dimension {net.dim} is not the classifier's {dim}")
    sources, probes, distances = _probes(dim)
    images = [_image(T, probe, "probe") for probe in probes]
    rows: dict[int, np.ndarray] = {}
    for image in images:  # keyed by identity: a constant map's one image is swept once
        if id(image) not in rows:
            rows[id(image)] = as_eval(image, config.tol).on_net(net)
    sweeps = np.vstack([rows[id(image)] for image in images])

    defect, defect_lower = _screening(images, sweeps, distances, net, config.tol)
    if defect_lower > DEFECT_TOL:
        raise NotIsometryError(
            f"distance defect is at least {defect_lower:.3f}, beyond the screening "
            f"tolerance {DEFECT_TOL} (worst-case endpoint {defect:.3f})"
        )

    # stage 1: which family (points / unit balls) maps to near-points?
    centers, radii = _ball_fits(sweeps, net, config.tol)
    k = len(sources)
    point_r = float(np.max(radii[:k]))
    ball_r = float(np.max(radii[k:]))
    points_collapse = point_r <= POINT_RADIUS_TOL
    balls_collapse = ball_r <= POINT_RADIUS_TOL
    if points_collapse and balls_collapse:
        raise AmbiguousClassificationError(
            f"both probe families collapse to near-points (radii {point_r:.2e}, {ball_r:.2e})"
        )
    if not points_collapse and not balls_collapse:
        raise NotIsometryError(
            "neither points nor unit balls map to near-points "
            f"(radii {point_r:.2e}, {ball_r:.2e}); the map cannot be an isometry"
        )
    kind = "identity" if points_collapse else "cdual"

    # stage 2: rigid motion through the fitted centers of the collapsed family
    targets = centers[:k] if kind == "identity" else centers[k:]
    motion, fit_rms = procrustes_fit(sources, targets)

    # stage 3: residual distances between the map and its fitted normal form,
    # in the test bodies' frame: d(T K, g K) = d(g^-1 T K, K)
    residual = 0.0
    residual_bound = 0.0
    inverse = motion.inverse()
    models = _test_models(dim, config.seed, kind, net, config.tol)
    for body, model in zip(_test_bodies(dim, config.seed), models):
        res = hausdorff(apply_motion(inverse, _image(T, body, "test body")), model, net, config.tol)
        residual = max(residual, res.value)
        residual_bound = max(residual_bound, res.error_bound)

    return IsometryClassification(
        kind=kind,
        motion=motion,
        residual=residual,
        residual_bound=residual_bound,
        isometry_defect=defect,
        fit_rms=fit_rms,
        stage1_point_radius=point_r,
        stage1_ball_radius=ball_r,
        details={"map": T.name, "n_correspondences": len(sources)},
    )


# ---------------------------------------------------------------------------
# geodesic midpoint check
# ---------------------------------------------------------------------------


@dataclass
class GeodesicCheck:
    d01: float
    d12: float
    d02: float
    additivity_gap: float
    additivity_tol: float
    radii: tuple[tuple[float, float], ...]  # (lower, upper) end of each body's circumradius
    additive: bool
    verdict: str  # "geodesic-ok" | "not-a-geodesic-triple" | "midpoint-collapse" | "inconclusive"

    def to_doc(self) -> dict:
        return {
            "distances": [self.d01, self.d12, self.d02],
            "additivity_gap": self.additivity_gap,
            "additivity_tol": self.additivity_tol,
            "radius_bounds": [list(ends) for ends in self.radii],
            "additive": self.additive,
            "verdict": self.verdict,
        }


def geodesic_midpoint_check(
    K0: BallBodyExpr,
    K1: BallBodyExpr,
    K2: BallBodyExpr,
    net: SphereNet,
    tol: float = DEFAULT_TOL,
) -> GeodesicCheck:
    """Check betweenness additivity and the no-point-between-bodies rule.

    When d(K0,K1) + d(K1,K2) = d(K0,K2) within certified bounds and both
    endpoints have circumradius >= POINT_RADIUS_TOL, the midpoint must too; a
    midpoint collapse is reported as a verdict, never silently.  The triangle
    inequality bounds the gap by 2 min(d01, d12), so where the tolerance
    reaches that, additivity rejects no triple, and a collapse is reported
    as "inconclusive" instead.  Radius ends come from the distances' sweeps:
    half the largest width h(u) + h(-u), less tol, below (no thinner ball
    holds the body), and `_ball_fits` above.
    """
    K0, K1, K2 = (as_eval(k, tol) for k in (K0, K1, K2))  # one sweep each, shared by the memo
    r01 = hausdorff(K0, K1, net, tol)
    r12 = hausdorff(K1, K2, net, tol)
    r02 = hausdorff(K0, K2, net, tol)
    gap = abs(r01.value + r12.value - r02.value)
    gap_tol = r01.error_bound + r12.error_bound + r02.error_bound
    additive = gap <= gap_tol
    sweeps = np.vstack([k.on_net(net) for k in (K0, K1, K2)])
    tols = np.array([k.tol for k in (K0, K1, K2)])
    widths = np.max(sweeps.reshape(3, 2, -1).sum(axis=1), axis=1)  # the net is [half; -half]
    lower, upper = np.maximum(widths / 2.0 - tols, 0.0), _ball_fits(sweeps, net, tols)[1]
    radii = tuple(zip(lower.tolist(), upper.tolist()))
    if not additive:
        verdict = "not-a-geodesic-triple"
    elif lower[0] >= POINT_RADIUS_TOL and lower[2] >= POINT_RADIUS_TOL and upper[1] < POINT_RADIUS_TOL:
        verdict = "inconclusive" if gap_tol >= 2.0 * min(r01.value, r12.value) else "midpoint-collapse"
    else:
        verdict = "geodesic-ok"
    return GeodesicCheck(
        d01=r01.value,
        d12=r12.value,
        d02=r02.value,
        additivity_gap=gap,
        additivity_tol=gap_tol,
        radii=radii,
        additive=additive,
        verdict=verdict,
    )
