"""Executable isometry analysis: distance-defect screening, normal-form
classification of black-box isometries, and the geodesic midpoint check.

A metric isometry of the ball-body space is, in normal form, a rigid motion
applied either directly or after c-duality.  The classifier maps a point
and a unit ball on each of 0 and +-PROBE_OFFSET e_i once, and sweeps the
distinct images on the configured net in one pass of `support.sweep`.
Screening compares the images'
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
(`_ball_fits`, by `support.farthest_distances`, the kernel that
`farthest_distance_batch` uses too), half the largest width from below.
Stage 1 collapses on the upper ends; the geodesic midpoint check reads both.
Every distance here gets its certified ends from `support.net_distance`, so
no net error bound is computed in this module.

The screening tolerance, the collapse radius, the probe points and the
number of test bodies are the module constants below.  So every probe and
test body the classifier maps depends only on the dimension, and the test
bodies on the seed too.  Each is built once per dimension (and seed); body
trees are read-only from construction, so a map that writes into its input
raises instead of changing later calls.  Stage 3 sweeps the images T K on
the net pulled back by the fitted motion g, which is the sweep of g^-1 T K,
and compares them with the K (or their c-duals), whose sweeps are taken
once per net.  Each of these three is one pass: under a motion map every
image's top node carries the map's motion, so the pass multiplies the
directions by it once, and it looks up all the 2-d arc-table leaves at
once.  The map's images are swept afresh on every call, so no result
depends on earlier calls.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .bodies import BallBodyExpr, ball_body, c_dual, point_body
from .corpus import random_body
from .errors import AmbiguousClassificationError, DimensionMismatchError, NotIsometryError
from .geometry import RigidMotion, SphereNet, make_sphere_net, procrustes_fit
from .maps import BlackBoxMap
from .solver import DEFAULT_TOL
from .support import HausdorffResult, as_eval, default_mesh, farthest_distances, net_distance, sizes, sweep

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


def _pair_distances(images: list[BallBodyExpr], value, net: SphereNet, tol: float) -> HausdorffResult:
    """`net_distance` of each pair of images with net distances `value`, as (k, k) arrays.

    Each pair's own norm bounds and curvature intervals go in.  The
    diagonal, no pair, has error bound 0.
    """
    size = sizes(images)
    pairs = net_distance(value, size[:, :, None], size[:, None, :], net.mesh, (tol, tol))
    np.fill_diagonal(pairs.error_bound, 0.0)
    return pairs


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
    pairs = _pair_distances(images, after, net, tol)
    shift = np.abs(pairs.value - distances)
    return float(np.max(shift + pairs.error_bound)), max(float(np.max(shift - pairs.error_bound)), 0.0)


def screening_bound(dim: int, net: SphereNet, tol: float) -> float:
    """The largest error bound screening charges a pair of probe images under the identity."""
    return float(np.max(_pair_distances(_probes(dim)[1], 0.0, net, tol).error_bound))


@functools.lru_cache(maxsize=CACHE_SIZE, typed=True)
def _test_bodies(dim: int, seed: int) -> tuple[BallBodyExpr, ...]:
    """Stage 3's random test bodies."""
    rng = np.random.default_rng(seed)
    return tuple(random_body(rng, dim) for _ in range(N_TEST_BODIES))


@functools.lru_cache(maxsize=CACHE_SIZE, typed=True)
def _test_models(dim: int, seed: int, kind: str, net: SphereNet, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The test bodies K, or their c-duals for the kind "cdual", as read-only
    arrays: their sweeps of `net`, one row per body, and the rows of their
    norm bounds and curvature ends lo and hi.  Stage 3 compares them with the
    pulled-back images g^-1 T K, since d(T K, g K) = d(g^-1 T K, K) for every motion g.
    """
    models = [body if kind == "identity" else c_dual(body) for body in _test_bodies(dim, seed)]
    sweeps = sweep(models, net.directions, tol)
    size = sizes(models)
    sweeps.flags.writeable = size.flags.writeable = False
    return sweeps, size


def _ball_fits(sweeps: np.ndarray, net: SphereNet, tol) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares ball fits h(u) ~ <z, u> + rho of support sweeps on the net, one body per row.

    Returns the centers z, shape (k, n), exact for points and balls, and
    certified upper ends of the circumradii, shape (k,): the farthest
    distance from z by `support.farthest_distances`, the kernel of
    `farthest_distance_batch` too, clamped at 0.  Raises ValueError when the
    net's directions do not span R^n, so that the fit is not unique, and for
    a mesh >= sqrt(2), where the bound is void.
    """
    design = np.hstack([net.directions, np.ones((len(net), 1))])
    coef, _, rank, _ = np.linalg.lstsq(design, sweeps.T, rcond=None)
    if rank < net.dim + 1:
        raise ValueError(
            f"the net's {len(net)} directions do not span R^{net.dim}: "
            f"ball fits need rank {net.dim + 1}, got {rank}"
        )
    centers = coef[:-1].T
    return centers, np.maximum(farthest_distances(sweeps, centers, net, tol), 0.0)


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
    details: dict

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
    and ValueError when `T` is a planar point map or the net's directions
    do not span the space.

    The probes and test bodies come from `config`'s dimension and seed and
    are built once per distinct value (see `ClassifierConfig`); they are
    read-only, so `T` must build its images rather than write into its
    input.  The test bodies' own sweeps are kept per net; every image is
    swept afresh on every call, a test body's image on the net pulled back
    by the fitted motion.
    """
    if T.planar:
        raise ValueError("classification needs a map of bodies, not a planar point map")
    net = config.net
    dim = config.dimension
    if net.dim != dim:
        raise DimensionMismatchError(f"net dimension {net.dim} is not the classifier's {dim}")
    sources, probes, distances = _probes(dim)
    images = [_image(T, probe, "probe") for probe in probes]
    distinct = list({id(image): image for image in images}.values())  # a constant map's one image
    rows = dict(zip(map(id, distinct), sweep(distinct, net.directions, config.tol)))
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
    # in the test bodies' frame: d(T K, g K) = d(g^-1 T K, K).  g^-1 T K is
    # swept as its `Motion` node would be, on the net pulled back once.
    inverse = motion.inverse()
    pulled, shift = net.directions @ inverse.rotation, net.directions @ inverse.translation
    images = [_image(T, body, "test body") for body in _test_bodies(dim, config.seed)]
    image_rows = sweep(images, pulled, config.tol) + shift
    model_rows, model_sizes = _test_models(dim, config.seed, kind, net, config.tol)
    moved = sizes(images)
    moved[0] += float(np.linalg.norm(inverse.translation))  # a motion keeps T K's curvature
    value = np.max(np.abs(image_rows - model_rows), axis=1)
    pairs = net_distance(value, moved, model_sizes, net.mesh, (config.tol, config.tol))
    residual, residual_bound = float(np.max(pairs.value)), float(np.max(pairs.error_bound))

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
    reaches that, additivity rejects no triple, and the verdict is
    "inconclusive", whatever the radii.  Radius ends come from the
    distances' sweeps: half the largest width h(u) + h(-u), less tol, below
    (no thinner ball holds the body), and `_ball_fits` above.
    """
    evals = [as_eval(k, tol) for k in (K0, K1, K2)]
    sweeps = np.vstack([k.on_net(net) for k in evals])
    tols = np.array([k.tol for k in evals])
    first, second = [0, 1, 0], [1, 2, 2]  # the pairs 01, 12 and 02
    size = sizes([k.body for k in evals])
    value = np.max(np.abs(sweeps[first] - sweeps[second]), axis=1)
    pairs = net_distance(value, size[:, first], size[:, second], net.mesh, (tols[first], tols[second]))
    (d01, d12, d02), (e01, e12, e02) = pairs.value.tolist(), pairs.error_bound.tolist()
    gap = abs(d01 + d12 - d02)
    gap_tol = e01 + e12 + e02
    additive = gap <= gap_tol
    widths = np.max(sweeps.reshape(3, 2, -1).sum(axis=1), axis=1)  # the net is [half; -half]
    lower, upper = np.maximum(widths / 2.0 - tols, 0.0), _ball_fits(sweeps, net, tols)[1]
    radii = tuple(zip(lower.tolist(), upper.tolist()))
    if not additive:
        verdict = "not-a-geodesic-triple"
    elif gap_tol >= 2.0 * min(d01, d12):
        verdict = "inconclusive"
    elif lower[0] >= POINT_RADIUS_TOL and lower[2] >= POINT_RADIUS_TOL and upper[1] < POINT_RADIUS_TOL:
        verdict = "midpoint-collapse"
    else:
        verdict = "geodesic-ok"
    return GeodesicCheck(
        d01=d01,
        d12=d12,
        d02=d02,
        additivity_gap=gap,
        additivity_tol=gap_tol,
        radii=radii,
        additive=additive,
        verdict=verdict,
    )
