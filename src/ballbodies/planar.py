"""Planar surjectivity verification for continuous near-isometries.

A continuous map of the plane that distorts all pairwise distances by at
most some epsilon must be onto.  The verifier realizes the degree-theoretic
argument at finite resolution: it measures the distortion empirically, fits
the best rigid motion U, picks a circle radius R beyond
|target - f(0)| + fit_error + epsilon (with a safety factor), computes the
winding number of f - target on such circles adaptively, and then hunts for
an actual preimage.  The output is evidence, not proof: winding numbers and
residuals are certified only at the sampled resolution, and the report says
which hypothesis (continuity, distortion bound) a failing map violates.

The resolution is fixed by the module constants below; only the seed of
the random samples varies between calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ResolutionExhaustedError
from .geometry import RigidMotion, as_vector, procrustes_fit
from .maps import BlackBoxMap

ROOT_TOL = 1e-6  # a preimage's residual |f(x) - target| must be at most this, plus rounding (`root_tol`)
RADII_FACTORS = (1.0, 1.25, 1.5)  # winding circles, as multiples of the scale R
MAX_CURVE_SAMPLES = 2**14  # per winding circle
HOMOTOPY_GRID = 24  # homotopy parameters; the outer circle gets 4x as many angles
LM_MAX_ITERS = 100  # Jacobians per preimage search
EPS = np.finfo(float).eps
SQRT_EPS = math.sqrt(EPS)  # relative forward-difference step
DEFECT_SAMPLES = 160  # random disk points of the distortion estimate
LEAST_SEPARATION = 2e-8  # the closest pairs of the continuity probe, at any scale
# the fits and distortion estimates square coordinates of up to a few times
# the probe scale and sum dozens of them, which past this scale overflows
MAX_SCALE = math.sqrt(np.finfo(float).max) / 64.0


def _disk_samples(rng: np.random.Generator, radius: float, count: int) -> np.ndarray:
    pts = rng.standard_normal((count, 2))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return pts * (radius * np.sqrt(rng.uniform(0, 1, (count, 1))))


def _beyond_rounding(distortion, magnitude):
    """A distance distortion less its rounding pad, clamped at 0.

    As in `root_tol`, the pad is 8 eps times `magnitude`, the sum of the
    norms of the points and images whose distances were compared: their
    coordinates, and so the distances, round at that scale.
    """
    return np.maximum(distortion - 8.0 * EPS * magnitude, 0.0)


def eps_isometry_defect_planar(f: BlackBoxMap, radius: float, seed: int = 0) -> float:
    """Max over sampled pairs in the disk of | |f(x)-f(x')| - |x-x'| |, beyond rounding.

    A lower bound on the true distortion: each pair's distortion is taken
    less its rounding pad (`_beyond_rounding`), so an exact rigid motion
    reads 0 at any scale.  The sample includes antipodal pairs at shrinking
    separations around the origin, which exposes puncture-type
    discontinuities.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    rng = np.random.default_rng(seed)
    pts = list(_disk_samples(rng, radius, DEFECT_SAMPLES))
    # shrinking antipodal ladder around the origin
    for k in range(1, 7):
        u = rng.standard_normal(2)
        u /= np.linalg.norm(u)
        pts.append(radius * 10.0**-k * u)
        pts.append(-radius * 10.0**-k * u)
    pts = np.asarray(pts)
    images = np.asarray([f(p) for p in pts])
    d_in = np.linalg.norm(pts[:, None] - pts[None], axis=2)
    d_out = np.linalg.norm(images[:, None] - images[None], axis=2)
    size = np.hypot(*pts.T) + np.hypot(*images.T)
    return float(np.max(_beyond_rounding(np.abs(d_out - d_in), size[:, None] + size)))


def _discontinuity_probe(f: BlackBoxMap, seed: int) -> tuple[bool, float]:
    """Does a large distance distortion, beyond rounding, persist at vanishing separations?

    The separations are absolute, as small at a far target as near the
    origin: pairs LEAST_SEPARATION apart about random points near the
    origin, and a ladder of pairs 2 10^-k apart (k = 3..8) about the origin
    itself.  `_beyond_rounding` pads each pair for the size of its points.
    """
    rng = np.random.default_rng(seed)
    pairs = []
    h = LEAST_SEPARATION / 2.0
    for _ in range(8):
        u = rng.standard_normal(2)
        u /= np.linalg.norm(u)
        base = rng.uniform(-0.2, 0.2, 2)
        pairs.append((base + h * u, base - h * u, h))
    # probe around the origin explicitly
    for k in range(3, 9):
        h = 10.0**-k
        pairs.append((np.array([h, 0.0]), np.array([-h, 0.0]), h))
    persistent = 0.0
    for x, y, h in pairs:
        fx, fy = np.asarray(f(x)), np.asarray(f(y))
        size = sum(math.hypot(*v) for v in (x, y, fx, fy))
        persistent = max(persistent, float(_beyond_rounding(abs(float(np.linalg.norm(fx - fy)) - 2 * h), size)))
    return persistent > 0.05, persistent


def _affine_fit(f: BlackBoxMap, radius: float, seed: int) -> tuple[RigidMotion, float]:
    rng = np.random.default_rng(seed)
    pts = np.vstack([_disk_samples(rng, radius, 48), radius * np.eye(2), -radius * np.eye(2)])
    images = np.asarray([f(p) for p in pts])
    motion, _ = procrustes_fit(pts, images)
    fit_error = float(np.max(np.linalg.norm(images - motion.apply(pts), axis=1)))
    return motion, fit_error


def _circle_degree(f: BlackBoxMap, target, radius: float, budget: int):
    """The winding number of f - target around the circle of this radius.

    Sampling starts from 64 angles and bisects every step whose normalized
    image turns by at least 0.45 pi, until none does; the degree is then the
    sum of the signed turns over 2 pi, rounded.  Returns (degree, hit):
    `hit` is a circle point whose image already coincides with the target
    (if one turned up during sampling), and then the degree is None.
    Raises ResolutionExhaustedError when refinement would exceed `budget`
    samples, stalls, or leaves a total more than 0.25 from an integer.
    """
    target = np.asarray(target, dtype=float)

    def value(a: float) -> np.ndarray:
        return np.asarray(f([radius * math.cos(a), radius * math.sin(a)])) - target

    angles = [2.0 * math.pi * i / 64.0 for i in range(64)]
    values = [value(a) for a in angles]
    for _ in range(40):
        # check for target hits on the circle first
        for a, v in zip(angles, values):
            if float(np.linalg.norm(v)) < 1e-12:
                return None, np.array([radius * math.cos(a), radius * math.sin(a)])
        turns, mids = [], []
        for i in range(len(angles)):
            j = (i + 1) % len(angles)
            va, vb = values[i], values[j]
            turns.append(math.atan2(va[0] * vb[1] - va[1] * vb[0], float(va @ vb)))
            if abs(turns[-1]) >= 0.45 * math.pi:
                b = angles[j] if j else angles[0] + 2.0 * math.pi
                mids.append((i, 0.5 * (angles[i] + b) % (2.0 * math.pi)))
        if not mids:
            total = sum(turns) / (2.0 * math.pi)
            if abs(total - round(total)) > 0.25:
                raise ResolutionExhaustedError(
                    f"winding total {total:.3f} is not near an integer on radius {radius:.3f}"
                )
            return round(total), None
        if len(angles) + len(mids) > budget:
            raise ResolutionExhaustedError(
                f"winding refinement exceeded {budget} samples on radius {radius:.3f}"
            )
        for i, mid in reversed(mids):
            angles.insert(i + 1, mid)
            values.insert(i + 1, value(mid))
    raise ResolutionExhaustedError(f"winding refinement stalled on radius {radius:.3f}")


@dataclass
class SurjectivityReport:
    target: np.ndarray
    epsilon_hat: float
    affine_fit: RigidMotion
    fit_error: float
    scale: float  # the circle radius R used by the argument
    degrees: list  # (radius, winding number)
    verdict: str  # "surjective-evidence" | "violation"
    preimage: np.ndarray | None
    preimage_residual: float
    homotopy_min: float
    hypothesis_flags: list
    notes: list

    def to_doc(self) -> dict:
        return {
            "target": self.target.tolist(),
            "epsilon_hat": self.epsilon_hat,
            "fit_rotation": self.affine_fit.rotation.tolist(),
            "fit_translation": self.affine_fit.translation.tolist(),
            "fit_error": self.fit_error,
            "scale": self.scale,
            "degrees": [[r, int(w)] for r, w in self.degrees],
            "verdict": self.verdict,
            "preimage": None if self.preimage is None else self.preimage.tolist(),
            "preimage_residual": self.preimage_residual,
            "homotopy_min": self.homotopy_min,
            "hypothesis_flags": list(self.hypothesis_flags),
            "notes": list(self.notes),
        }


def _levenberg_marquardt(residual, x0) -> np.ndarray:
    """A local minimizer of |residual(x)|^2 over the plane, from x0.

    Levenberg-Marquardt (More 1978): the step solves (J^T J + mu I) dx =
    -J^T r with a forward-difference Jacobian J, step sqrt(eps) max(|x_k|, 1)
    per coordinate.  A step that lowers the cost is taken and mu shrinks;
    one that does not grows mu.  Ends at a step below 1e-15 relative to x,
    at a cost of 0, when no mu lowers the cost, or after LM_MAX_ITERS
    Jacobians.
    """
    x = np.asarray(x0, dtype=float)
    r = residual(x)
    cost, mu = float(r @ r), None
    for _ in range(LM_MAX_ITERS):
        steps = SQRT_EPS * np.maximum(np.abs(x), 1.0)
        J = np.column_stack([(residual(x + s * e) - r) / s for s, e in zip(steps, np.eye(2))])
        H, g = J.T @ J, J.T @ r
        scale = 1.0 + float(np.max(np.diag(H)))
        mu = 1e-3 * scale if mu is None else mu
        while cost > 0.0 and mu < 1e16 * scale:
            dx = np.linalg.solve(H + mu * np.eye(2), -g)
            if np.linalg.norm(dx) <= 1e-15 * (np.linalg.norm(x) + 1e-15):
                return x
            r_new = residual(x + dx)
            cost_new = float(r_new @ r_new)
            if cost_new < cost:
                x, r, cost, mu = x + dx, r_new, cost_new, mu / 3.0
                break
            mu *= 4.0
        else:
            return x  # no damping lowers the cost
    return x


def root_tol(target: np.ndarray) -> float:
    """The largest residual of a preimage: ROOT_TOL, plus 8 eps |target| for the rounding of f(x) - target."""
    return ROOT_TOL + 8.0 * EPS * float(np.linalg.norm(target))


def _find_preimage(f: BlackBoxMap, target: np.ndarray, starts):
    """The best Levenberg-Marquardt end point over the starts.

    The search stops at the first end point within `root_tol(target)`.  A
    start on whose search the map raises is skipped.
    """
    best_x, best_res, tol = None, np.inf, root_tol(target)

    def residual(x):
        return np.asarray(f(x)) - target

    for x0 in starts:
        try:
            x = _levenberg_marquardt(residual, x0)
        except Exception:
            continue
        r = float(np.linalg.norm(residual(x)))
        if r < best_res:
            best_x, best_res = x, r
        if best_res <= tol:
            break
    return best_x, best_res


def surjectivity_probe_planar(f: BlackBoxMap, target, seed: int = 0) -> SurjectivityReport:
    """Degree-based surjectivity evidence for a continuous planar near-isometry.

    `seed` seeds the distortion samples, the motion fits, the continuity
    probe and the preimage hunt's starts.  `target` must be a finite point
    of the plane, near enough to f(0) that the probe scale stays below
    MAX_SCALE; a farther one raises ValueError before the map is evaluated
    at that scale.
    """
    if not f.planar:
        raise ValueError("surjectivity probing needs a planar point map")
    target = as_vector(target, 2)

    f0 = np.asarray(f(np.zeros(2)))
    base = 2.0 * (math.hypot(*(target - f0)) + 1.0)  # hypot: no overflow in the squares
    if not base < MAX_SCALE:  # also rejects NaN
        raise ValueError(
            f"target {target.tolist()} is too far from f(0) = {f0.tolist()}: "
            f"its probe scale {base:.3g} is not below {MAX_SCALE:.3g}"
        )
    fit, fit_err = _affine_fit(f, base, seed)
    eps_hat = eps_isometry_defect_planar(f, base, seed=seed)
    # circle radius per the argument, with a 2x safety factor; refit at scale
    scale = 2.0 * (float(np.linalg.norm(target - f0)) + fit_err + eps_hat) + 1.0
    fit, fit_err = _affine_fit(f, scale, seed)
    eps_hat = max(eps_hat, eps_isometry_defect_planar(f, scale, seed=seed))
    scale = max(scale, 1.5 * (float(np.linalg.norm(target - f0)) + fit_err + eps_hat))

    notes = []
    discont, persist = _discontinuity_probe(f, seed + 1)
    if discont:
        notes.append(
            f"distance distortion {persist:.3f} persists at separations down to "
            f"{LEAST_SEPARATION:.1e}; the map cannot be continuous"
        )

    degrees = []
    circle_hit = None
    for factor in RADII_FACTORS:
        r = scale * factor
        degree, hit = _circle_degree(f, target, r, MAX_CURVE_SAMPLES)
        if hit is not None:
            circle_hit = hit  # the circle itself passes through the target
            continue
        degrees.append((r, degree))

    w_fit = 1 if float(np.linalg.det(fit.rotation)) > 0 else -1

    # homotopy between f and the fitted motion on the outer circle
    tgrid = np.linspace(0.0, 1.0, HOMOTOPY_GRID)
    r_out = scale * RADII_FACTORS[-1]
    thetas = np.linspace(0, 2 * math.pi, 4 * HOMOTOPY_GRID, endpoint=False)
    xs = r_out * np.column_stack([np.cos(thetas), np.sin(thetas)])
    fx = np.asarray([f(x) for x in xs])
    ux = fit.apply(xs)
    hmin = np.inf
    for t in tgrid:
        mix = (1 - t) * fx + t * ux - target
        hmin = min(hmin, float(np.min(np.linalg.norm(mix, axis=1))))

    # hunt for a preimage
    starts = [fit.inverse().apply(target)]
    rng = np.random.default_rng(seed + 2)
    starts.extend(_disk_samples(rng, scale, 6))
    if circle_hit is not None:
        starts.insert(0, circle_hit)
    preimage, residual = _find_preimage(f, target, starts)
    found = residual <= root_tol(target)  # the residual is inf when no search ended

    windings = [w for _, w in degrees]
    flags = []
    if found:
        verdict = "surjective-evidence"
        if any(w != w_fit for w in windings) and circle_hit is None:
            notes.append("winding numbers disagree with the fitted motion despite a preimage")
    else:
        verdict = "violation"
        if any(w == 0 for w in windings):
            flags.append("degree-zero")
        if len(set(windings)) > 1:
            flags.append("winding-unstable")
        flags.append("preimage-not-found")
        if discont:
            flags.append("continuity")
        if discont or eps_hat >= 1.0:
            flags.append("eps-hypothesis")
            notes.append(
                "the distortion hypothesis fails at the argument's scale: measured "
                f"defect {eps_hat:.3f} at radius {scale:.3f} (needs radius > "
                f"|target - f(0)| + fit_error + eps = "
                f"{float(np.linalg.norm(target - f0)):.3f} + {fit_err:.3f} + {eps_hat:.3f})"
            )

    return SurjectivityReport(
        target=target,
        epsilon_hat=eps_hat,
        affine_fit=fit,
        fit_error=fit_err,
        scale=scale,
        degrees=degrees,
        verdict=verdict,
        preimage=preimage if found else None,
        preimage_residual=residual,
        homotopy_min=hmin,
        hypothesis_flags=flags,
        notes=notes,
    )
