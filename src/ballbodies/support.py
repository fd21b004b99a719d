"""Support-function oracles and the metric operations built on them.

Every body is handled through its support function h(u) = max over the body
of <x, u>.  The expression nodes transform supports exactly:

* c-dual:   h'(u) = 1 - h(-u)
* combine:  h'(u) = (1 - lam) h_a(u) + lam h_b(u)
* motion:   h'(u) = h(Q^T u) + <t, u>

so the only numerical work happens at generator leaves, where the certified
solver guarantees each value within the oracle tolerance.  `sweep` is the
one tree walk: one pass per list of bodies on one direction array.  Within
the pass each node's transformed directions are computed once per direction
array and motion, so bodies that share a motion share its products, and the
2-d leaves with an arc table share one lookup.  `SupportEval` is a
body's memo of its sweeps per net.  The Hausdorff
distance of two bodies equals the sup-norm distance of their support
functions on the unit sphere; evaluating on a finite net gives a value
together with a rigorous error bound, `net_error_bound`.  That bound is
second order in the mesh: each node carries an interval for h + h'' (see
`bodies`), so the support difference f bends by a known amount along every
great circle, and a net point within `mesh` of the maximizer of |f| sees
all of sup |f| but (sup |f| + rho) mesh^2 / 2.  The bound depends on the
bodies' norm bounds and curvature intervals, the mesh and the oracle
tolerances only, not on the values swept.  `net_distance` is the one place
where a net distance gets its certified ends: `hausdorff` and every
distance the classifier and the geodesic check take go through it, for one
pair or for a whole array of pairs at once, with the bodies' `sizes`.

Reconstruction from point distances lives here too.  The distance of a
point x to a body is max over u of h(u) - <x, u>; `farthest_distance_batch`
bounds it from above from the same net sweep, in any dimension, by
`farthest_distances`, the one farthest-distance kernel.
`reconstruct` builds the intersection of the balls around the probes, and
`reconstruct_from_grid` runs the whole check, from a body's distances to a
square probe grid to the reconstruction's distance from it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bodies import BallBodyExpr, CDual, Combine, Generators, Motion
from .errors import DimensionMismatchError, EmptyReconstructionError, EmptyBodyError
from .geometry import Ball, SphereNet, as_points, as_vector, circumcenter_lp, normalize_direction
from .solver import DEFAULT_TOL, arc_support_batch, support_batch

DEFAULT_MESH = {2: 0.02, 3: 0.2}  # 4-d and above: 0.3; see `default_mesh`


def default_mesh(dim: int) -> float:
    """The covering radius of the default net in dimension `dim`.

    3-d takes 0.2 (384 directions) and 4-d 0.3 (1728).  For unit-radius
    bodies this loosens no Hausdorff bound against the Lipschitz slack
    2 nb mesh + 4 tol at the former meshes 0.08 and 0.25 (nb the larger
    norm bound).  Every node's curvature interval lies in [0, 1] and its
    norm bound is at least 1, so rho <= 1 <= nb, and the two norm bounds
    sum to at most 2 nb.  So with q = mesh^2 / 2 the curvature slack of
    `net_error_bound` is at most 3 nb q + 4 tol:

        mesh 0.2:  0.06 nb + 4 tol   <=  0.16 nb + 4 tol  (mesh 0.08)
        mesh 0.3:  0.135 nb + 4 tol  <=  0.5 nb + 4 tol   (mesh 0.25)

    2-d keeps 0.02, because reconstruction's farthest-distance slack
    R mesh^2 / 2 needs it.
    """
    return DEFAULT_MESH.get(dim, 0.3)


def sweep(bodies, dirs, tol: float) -> np.ndarray:
    """The (k, N) support sweeps of k bodies on the N unit direction rows `dirs`, in one pass.

    The pass walks each tree once, queuing its steps children first, and
    solves every leaf it reaches in one batch: the 2-d leaves with an arc
    table, when there are several, by one `arc_support_batch`, the others by
    `support_batch`.  It then combines the children's values as the nodes
    transform supports (see the module docstring).  A node's transformed
    directions, -dirs under a c-dual and dirs Q and dirs t under a motion
    (Q, t), are computed once per direction array and motion in the pass, so
    bodies that share a motion share its products.  That memo lives for the
    pass only, holds the objects its keys name, and gives read-only arrays.

    Raises ValueError for a tolerance that is not positive and finite, and
    DimensionMismatchError for a body of another dimension than the rows.
    """
    if not 0 < tol < np.inf:  # also rejects NaN
        raise ValueError(f"tolerance must be positive and finite, got {tol}")
    dirs = np.ascontiguousarray(dirs, dtype=float)
    for body in bodies:
        if body.dim != dirs.shape[1]:
            raise DimensionMismatchError(f"directions of dimension {dirs.shape[1]} do not match the body's {body.dim}")
    steps: list[tuple] = []
    fused: list[int] = []
    memo: dict = {}
    tops = [_queue(body, dirs, steps, fused, memo) for body in bodies]
    values: list = [None] * len(steps)
    if len(fused) > 1:  # one such leaf takes the same lookup in `support_batch`
        rows, start = arc_support_batch([steps[i][1] for i in fused], [steps[i][2] for i in fused], tol), 0
        for i in fused:
            values[i] = rows[start : start + len(steps[i][2])]
            start += len(steps[i][2])
    # every step's values serve its parent alone, so each node works in its children's arrays
    for i, step in enumerate(steps):
        kind = step[0]
        if kind == _LEAF:
            if values[i] is None:
                values[i] = support_batch(step[1], step[2], tol)
        elif kind == _CDUAL:
            values[i] = np.subtract(1.0, values[step[1]], out=values[step[1]])
        elif kind == _COMBINE:
            a, b = values[step[2]], values[step[3]]
            a *= 1.0 - step[1]
            b *= step[1]
            values[i] = np.add(a, b, out=a)
        else:
            values[i] = np.add(values[step[1]], step[2], out=values[step[1]])
    out = np.empty((len(tops), len(dirs)))
    for j, top in enumerate(tops):
        out[j] = values[top]
    return out


_LEAF, _CDUAL, _COMBINE, _MOTION = range(4)


def _queue(body: BallBodyExpr, dirs: np.ndarray, steps: list, fused: list, memo: dict) -> int:
    """Queue the steps of the body's sweep on `dirs`, children first, and return the index of its own.

    A step is (_LEAF, leaf, dirs), (_CDUAL, child), (_COMBINE, lam, a, b) or
    (_MOTION, child, dirs t), children by their index; `fused` lists the
    steps of the leaves with an arc table.
    """
    if isinstance(body, Generators):
        if body.leaf.arcs is not None:
            fused.append(len(steps))
        step = (_LEAF, body.leaf, dirs)
    elif isinstance(body, CDual):
        (flipped,) = _transformed(memo, dirs, None)
        step = (_CDUAL, _queue(body.of, flipped, steps, fused, memo))
    elif isinstance(body, Combine):
        step = (_COMBINE, body.lam, _queue(body.a, dirs, steps, fused, memo), _queue(body.b, dirs, steps, fused, memo))
    elif isinstance(body, Motion):
        rotated, shift = _transformed(memo, dirs, body.g)
        step = (_MOTION, _queue(body.of, rotated, steps, fused, memo), shift)
    else:
        raise TypeError(f"not a body expression: {type(body).__name__}")
    steps.append(step)
    return len(steps) - 1


def _transformed(memo: dict, dirs: np.ndarray, g) -> tuple:
    """(-dirs,) for g None, else (dirs Q, dirs t) for the motion g = (Q, t): once per pass, read-only.

    The memo's key names dirs and g by identity, and its entry holds both.
    """
    held = memo.get((id(dirs), id(g)))
    if held is None:
        arrays = (-dirs,) if g is None else (dirs @ g.rotation, dirs @ g.translation)
        for array in arrays:
            array.setflags(write=False)
        held = memo[id(dirs), id(g)] = (arrays, dirs, g)
    return held[0]


@dataclass(eq=False)
class SupportEval:
    """A body's support oracle at a certified per-value tolerance, with a memo of its sweeps per net.

    Every value it gives comes from `sweep`.  The body's dimension, norm
    bound and curvature interval were set when the body was built.
    """

    body: BallBodyExpr
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        if not 0 < self.tol < np.inf:  # also rejects NaN
            raise ValueError(f"tolerance must be positive and finite, got {self.tol}")
        # nets hash by identity, and a held key keeps its net alive
        self._net_cache: dict[SphereNet, np.ndarray] = {}

    @property
    def dim(self) -> int:
        return self.body.dim

    def __call__(self, u) -> float:
        """Support value for a single unit direction (normalized within 1e-6)."""
        u = normalize_direction(u, self.dim)
        return float(sweep([self.body], u[None, :], self.tol)[0, 0])

    def on_net(self, net: SphereNet) -> np.ndarray:
        """Support sweep over a net, memoized per net object (pure, transparent).

        Raises DimensionMismatchError for a net of another dimension; every
        net operation below checks its net here, once per net.
        """
        if net not in self._net_cache:
            if net.dim != self.dim:
                raise DimensionMismatchError(f"net dimension {net.dim} does not match the body's {self.dim}")
            self._net_cache[net] = sweep([self.body], net.directions, self.tol)[0]
        return self._net_cache[net]


def as_eval(body, tol: float = DEFAULT_TOL) -> SupportEval:
    return body if isinstance(body, SupportEval) else SupportEval(body, tol)


# ---------------------------------------------------------------------------
# Hausdorff distance
# ---------------------------------------------------------------------------


class HausdorffResult(NamedTuple):
    """Certified distance: the true value lies in [value - lower_slack, value + error_bound].

    `value` is the net maximum of the computed support difference, and
    `error_bound` is the two bodies' `net_error_bound`, the smaller of the
    Lipschitz slack and the curvature slack.  From `net_distance` the
    fields may be arrays of many pairs, and the ends are then elementwise.
    """

    value: float
    error_bound: float
    lower_slack: float

    @property
    def upper(self) -> float:
        return self.value + self.error_bound

    @property
    def lower(self) -> float:
        return np.maximum(self.value - self.lower_slack, 0.0)


def net_error_bound(mesh: float, norm_bounds, curvatures, tols):
    """How far the sup over the sphere of a support difference can exceed its max over a net.

    f is the difference of the supports of two bodies K and T, with norm
    bounds `norm_bounds`, curvature intervals `curvatures` ((lo, hi) per
    body, or None when unknown) and oracle tolerances `tols`.  The bound
    needs no swept value, so it is the same for every pair of bodies with
    these sizes.  For many pairs at once, the norm bounds and curvature
    ends are NumPy arrays, and so is the bound.  Returns the smaller of two
    slacks; with q = mesh^2 / 2:

    * Lipschitz: 2 max(norm_bounds) mesh + 2 sum(tols).  Each support is
      Lipschitz with its body's norm bound.
    * curvature: (sum(norm_bounds) + rho) q + 2 sum(tols), with
      rho = max(hi_K - lo_T, hi_T - lo_K), so that |f + f''| <= rho along
      every great circle.  Proof: f is C^1, as h + h'' is bounded.  Let |f|
      peak at u* with f(u*) = f* > 0 (else take -f); f* <= sum(norm_bounds).
      Follow a great circle from u* by the angle phi.  g(phi) = f - f* cos
      phi has g(0) = g'(0) = 0 and |g + g''| <= rho, so |g(phi)| <= rho
      (1 - cos phi) for phi <= pi.  A net point within chord `mesh` has
      1 - cos phi <= q, so f there is at least f* - (f* + rho) q, and the
      net maximum of the computed |f| is at least f* - (sum(norm_bounds) +
      rho) q - sum(tols).

    For unit-radius bodies the curvature slack at the default meshes is
    below the Lipschitz slack at the former ones; `default_mesh` has the
    proof.  Every net error bound and every vacuity gate built on one comes
    from here.
    """
    tol_slack = 2.0 * sum(tols)
    lipschitz = 2.0 * functools.reduce(np.maximum, norm_bounds) * mesh + tol_slack
    if curvatures is None:
        return lipschitz
    (lo_k, hi_k), (lo_t, hi_t) = curvatures
    rho = np.maximum(hi_k - lo_t, hi_t - lo_k)
    return np.minimum(lipschitz, (sum(norm_bounds) + rho) * mesh**2 / 2.0 + tol_slack)


def sizes(bodies) -> np.ndarray:
    """The (3, k) rows of the bodies' norm bounds and curvature ends lo and hi, as `net_distance` takes them."""
    return np.array([(body.norm_bound, *body.curvature) for body in bodies]).T


def net_distance(value, sizes_k, sizes_t, mesh: float, tols) -> HausdorffResult:
    """Certified ends of net sup-norm distances `value` between bodies K and T.

    `sizes_k` and `sizes_t` are rows of `sizes`, and `tols` the two oracle
    tolerances.  The upper slack is `net_error_bound`, the lower one 2
    sum(tols).  Value, sizes and tolerances broadcast, so one call certifies
    any array of pairs.
    """
    (nb_k, *curvature_k), (nb_t, *curvature_t) = sizes_k, sizes_t
    bound = net_error_bound(mesh, (nb_k, nb_t), (curvature_k, curvature_t), tols)
    return HausdorffResult(value, bound, 2.0 * sum(tols))


def hausdorff(K, T, net: SphereNet, tol: float = DEFAULT_TOL) -> HausdorffResult:
    """Hausdorff distance via the sup-norm of support differences on a net.

    The reported value is the max over net directions; the truth exceeds it
    by at most `net_error_bound` of the two bodies, second order in the mesh.
    """
    ek, et = as_eval(K, tol), as_eval(T, tol)
    value = float(np.max(np.abs(ek.on_net(net) - et.on_net(net))))
    result = net_distance(value, *sizes((ek.body, et.body)).T, net.mesh, (ek.tol, et.tol))
    return result._replace(error_bound=float(result.error_bound))


# ---------------------------------------------------------------------------
# circumball (Chebyshev-center min-max as a linear program)
# ---------------------------------------------------------------------------


def circumball(K, net: SphereNet, tol: float = DEFAULT_TOL) -> Ball:
    """Smallest enclosing ball of the body, to net resolution.

    Solves min over (z, rho) of max over net directions of h(u) - <z, u>,
    a linear program, by `geometry.circumcenter_lp`.  The radius never
    exceeds the true circumradius by more than the oracle tolerance.
    Raises NoConvergenceError when the LP cannot be certified.  Its callers
    are `circ` and selftest criteria 6 and 11; `lab` solves no LP.
    """
    ev = as_eval(K, tol)
    center, radius = circumcenter_lp(net.directions, ev.on_net(net))
    return Ball(center, max(radius, 0.0))


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


class ContainsResult(NamedTuple):
    inside: bool
    margin: float  # min over net of h(u) - <y, u>; negative means outside


def contains_point(K, y, net: SphereNet, tol: float = DEFAULT_TOL) -> ContainsResult:
    """Net-based membership test with the worst separating margin.

    For generator leaves the exact ball test decides; the margin is still
    reported from the net.
    """
    ev = as_eval(K, tol)
    y = as_vector(y, ev.dim)
    h = ev.on_net(net)
    margin = float(np.min(h - net.directions @ y))
    body = ev.body
    if isinstance(body, Generators):
        inside = bool(np.all(np.linalg.norm(y - body.centers, axis=1) <= body.leaf.radii + 1e-12))
    else:
        inside = margin >= -ev.tol
    return ContainsResult(inside, margin)


# ---------------------------------------------------------------------------
# farthest-point distance and reconstruction from point distances
# ---------------------------------------------------------------------------


def farthest_distance_batch(K, xs: np.ndarray, net: SphereNet, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Certified upper bounds on the farthest-point distances from many probes, in any dimension.

    One memoized sweep of the body over the net, then `farthest_distances`.

    Raises DimensionMismatchError for probes or a net of another dimension,
    and ValueError for a net with mesh >= sqrt(2), where the bound is void.
    """
    ev = as_eval(K, tol)
    xs = as_points(xs)
    if xs.shape[1] != ev.dim:
        raise DimensionMismatchError(f"probes have dimension {xs.shape[1]}, the body {ev.dim}")
    return farthest_distances(ev.on_net(net), xs, net, ev.tol)


def farthest_distances(sweeps: np.ndarray, xs: np.ndarray, net: SphereNet, tol) -> np.ndarray:
    """Certified upper bounds on the farthest distances from points xs to bodies, from their net sweeps.

    The value for a point x and a sweep h is (max over net directions u of
    h(u) - <x, u>, plus tol) / (1 - mesh^2 / 2).  `sweeps` is one body's
    sweep, for many points, or one sweep per point; `tol` a tolerance or one
    per row.

    Proof that it is never below the truth: let y* be a farthest point of the
    body and R = |y* - x| > 0.  Every direction u has h(u) - <x, u> >=
    <y* - x, u> = R <u*, u>, where u* = (y* - x) / R.  A net direction within
    `mesh` of u* has <u*, u> = 1 - |u - u*|^2 / 2 >= 1 - mesh^2 / 2, and the
    oracle's value is within tol of h(u).  No curvature bound is needed.
    Conversely the net maximum minus tol is a certified lower bound, so the
    value exceeds R by at most (R mesh^2 / 2 + 2 tol) / (1 - mesh^2 / 2).

    Raises ValueError for a net with mesh >= sqrt(2), where the bound is void.
    """
    shrink = 1.0 - net.mesh**2 / 2.0
    if not shrink > 0:
        raise ValueError(f"farthest distances need a net mesh below sqrt(2), got {net.mesh}")
    return (np.max(sweeps - xs @ net.directions.T, axis=1) + tol) / shrink


def reconstruct(distances, net: SphereNet, tol: float = DEFAULT_TOL) -> SupportEval:
    """Body oracle for the intersection of balls (x_i + d_i B) from probe data.

    `distances` is a sequence of (point, distance) pairs.  When each
    distance is at least the point-to-body Hausdorff distance of some body,
    as the bounds of `farthest_distance_batch` are, every ball contains
    that body, and so does the reconstruction.  With true distances it
    converges to the body as the probe set refines a bounded region.
    """
    pts = []
    rads = []
    for x, d in distances:
        x = as_vector(x)
        d = float(d)
        if not 0 <= d < np.inf:
            raise ValueError(f"probe distances must be finite and nonnegative, got {d}")
        pts.append(x)
        rads.append(d)
    if not pts:
        raise ValueError("reconstruct needs at least one (point, distance) pair")
    centers = np.asarray(pts)
    radii = np.asarray(rads)
    if net.dim != centers.shape[1]:
        raise DimensionMismatchError("net dimension does not match the probes")
    try:
        body = Generators(centers, radii=radii)
    except EmptyBodyError as exc:
        raise EmptyReconstructionError(str(exc)) from exc
    return SupportEval(body, tol)


class GridReconstruction(NamedTuple):
    """A planar body rebuilt from its distances to a probe grid, measured against it."""

    probes: int
    dominance_min: float  # min over the net of h_recon - h_body: >= -tol when the body is inside
    distance: HausdorffResult


def reconstruct_from_grid(K, step: float, extent: float, net: SphereNet, tol: float) -> GridReconstruction:
    """Rebuild a planar body from its distances to a square probe grid, and measure the result.

    The grid has spacing `step` on [-extent, extent]^2.  Each probe's
    distance is a certified upper bound from `farthest_distance_batch`, so
    the reconstruction provably contains the body.  The distances are
    inflated by 2 tol more, so that the reconstruction contains the body's
    2 tol neighbourhood and the computed supports show the containment
    despite oracle error on both sides.  Planar only, as the grid is.
    """
    ev = as_eval(K, tol)
    if ev.dim != 2:
        raise ValueError("reconstruction probing is planar only")
    if not step > 0 or not extent >= 0:
        raise ValueError(f"the probe grid needs step > 0 and extent >= 0, got {step} and {extent}")
    axis = np.arange(-extent, extent + 1e-9, step)
    probes = np.stack(np.meshgrid(axis, axis, indexing="ij"), -1).reshape(-1, 2)
    d = farthest_distance_batch(ev, probes, net, tol) + 2 * tol
    recon = reconstruct(list(zip(probes, d)), net, tol)
    dom = float(np.min(recon.on_net(net) - ev.on_net(net)))
    return GridReconstruction(len(probes), dom, hausdorff(recon, ev, net, tol))
