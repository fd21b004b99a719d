"""Certified support evaluation for intersections of balls.

The leaf problem is ``max <u, y> over y with |y - x_i| <= r_i for all i``.
Optima are KKT points whose tight constraints number at most the ambient
dimension.  `prepare_leaf` builds, once per leaf, the direction-free part of
that search, and `support_batch` serves each direction by one of three paths:

* 2-d, any m: arc lookup.  The boundary of a plane ball polygon is a cyclic
  sequence of circular arcs, each owning an interval of outer-normal angles,
  with a vertex owning the normal cone between consecutive arcs
  (Bezdek-Langi-Naszodi-Papez, "Ball-polyhedra", 2007).  The leaf's
  `ArcTable` lists these pieces in angle order; per call one ``arctan2`` and
  one ``searchsorted`` give each direction its optimum: the tangency
  x_i + r_i u on an arc, or the vertex, whose multipliers are ``lam = G u``.
* 3-d, 2 <= m <= ENUM_MAX_CENTERS: enumeration.  The two common points of
  each sphere triple that are feasible form the leaf's skeleton, each with
  its inverse gradient matrix G.  Per call the solver evaluates the
  single-ball tangencies, the two-sphere circles and the skeleton's values,
  and picks the best candidate with valid multipliers in one ``argmax``.
* Elsewhere (n >= 4, larger 3-d leaves, and any direction the first two
  paths leave uncertified): a guided active-set loop that grows the working
  set by the most violated constraint and re-solves.

Every path certifies its candidate the same way: a weak-duality upper bound
plus a feasible lower bound obtained by blending toward a strictly interior
point.  Certificates are exact up to a 1e-12 feasibility pad on the
constraints.  A prepared leaf keeps its own read-only copies of the centers
and radii, so no caller can change it after the fact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import EmptyBodyError, NoConvergenceError
from .geometry import enclosing_ball

DEFAULT_TOL = 1e-6
FEAS_PAD = 1e-12
LAMBDA_PAD = 1e-9
ENUM_MAX_CENTERS = 8  # largest 3-d leaf served by enumeration
POINT_SLACK = 2.5e-14
TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# leaf geometry: feasibility, maximum-slack point, slack
# ---------------------------------------------------------------------------


class LeafSkeleton(NamedTuple):
    """Direction-free KKT points of a 3-d leaf: the common points of sphere triples."""

    points: np.ndarray  # (p, 3), each feasible within FEAS_PAD
    idx: np.ndarray  # (p, 3) tight constraint indices
    ginv: np.ndarray  # (p, 3, 3): multipliers lam = ginv @ u


class ArcTable(NamedTuple):
    """The outer-normal angle pieces of a plane ball polygon, in angle order.

    Piece 2q is the q-th arc, piece 2q + 1 the vertex between arc q and arc
    q + 1 (cyclically).  A direction at angle phi lies in the last piece
    whose start ``breaks[p]`` is at most phi, with phi taken in
    [breaks[0], breaks[0] + 2 pi).  Its KKT point is ``base[p] + scale[p] u``
    and its multipliers on the constraints ``idx[p]`` are
    ``lam0[p] + ginv[p] @ u``.
    """

    breaks: np.ndarray  # (2K,) nondecreasing, within 2 pi of breaks[0]
    base: np.ndarray  # (2K, 2): the arc's center, or the vertex
    scale: np.ndarray  # (2K,): the arc's radius, 0 at a vertex
    lam0: np.ndarray  # (2K, 2): (1 / r_i, 0) on an arc, 0 at a vertex
    ginv: np.ndarray  # (2K, 2, 2): 0 on an arc, the inverse gradients at a vertex
    idx: np.ndarray  # (2K, 2) tight constraint indices, -1 padded


@dataclass(frozen=True, eq=False)
class LeafGeometry:
    """Precomputed, read-only data for one intersection-of-balls leaf.

    `support_batch` serves a leaf of m >= 2 balls that is not point-like by
    one of three paths (see the module docstring), and the leaf carries the
    direction-free data of the first two: `arcs` for the 2-d arc lookup
    (None only when rounding leaves no arc, as for a body that is one
    point), `skeleton` for the 3-d enumeration when 2 <= m <=
    ENUM_MAX_CENTERS at preparation.  The active-set loop, which serves the
    rest, needs neither.
    """

    centers: np.ndarray  # (m, n)
    radii: np.ndarray  # (m,)
    interior: np.ndarray  # the maximum-slack point
    slack: float  # min_i (r_i - |interior - x_i|), clamped at 0
    meb_radius: float | None  # r_0 - slack, set when all radii are equal
    skeleton: LeafSkeleton | None = None
    arcs: ArcTable | None = None

    @property
    def m(self) -> int:
        return self.centers.shape[0]

    @property
    def dim(self) -> int:
        return self.centers.shape[1]

    @property
    def point_like(self) -> bool:
        """True when the body is a single point up to solver precision."""
        return self.meb_radius is not None and self.slack <= POINT_SLACK


def prepare_leaf(centers, radii=None) -> LeafGeometry:
    """Validate nonemptiness; precompute the maximum-slack point, its slack and the solver table.

    The point z maximizing min_i (r_i - |z - x_i|) is the center of the
    smallest ball enclosing the balls B(x_i, c - r_i), c = max r; the slack
    is measured at z.  Raises EmptyBodyError when it is below -FEAS_PAD,
    that is when the balls have empty intersection.  The leaf holds its own
    read-only copies of `centers` and `radii`; the caller's arrays are left
    as they are.
    """
    X = np.array(centers, dtype=float, order="C")
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("centers must be a nonempty (m, n) array")
    m, n = X.shape
    if radii is None:
        r = np.ones(m)
    else:
        r = np.array(radii, dtype=float)
        if r.shape != (m,):
            raise ValueError("radii must match the number of centers")
        if np.any(r < 0):
            raise EmptyBodyError("negative constraint radius")

    c = float(r.max())
    z, _ = enclosing_ball(X, c - r)
    slack = float((r - np.linalg.norm(X - z, axis=1)).min())
    if slack < -FEAS_PAD:
        raise EmptyBodyError(
            f"the m={m} balls in dimension n={n} have empty intersection: "
            f"their maximum-slack point has slack {slack:.3e}"
        )
    meb_radius = c - slack if (r == c).all() else None
    leaf = LeafGeometry(X, r, z, max(slack, 0.0), meb_radius)
    if m >= 2 and not leaf.point_like:
        if n == 2:
            leaf = replace(leaf, arcs=_build_arcs(X, r))
        elif _enumerates(m, n):
            leaf = replace(leaf, skeleton=_build_skeleton(X, r))
    for array in (X, r, z, *(leaf.skeleton or ()), *(leaf.arcs or ())):
        array.flags.writeable = False
    return leaf


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


def _dual_upper(X, r, u_arr, lam, idx):
    """Weak-duality bound from multipliers lam on constraint subset idx.

    Works batched: u_arr (k, n), lam (k, s), idx (k, s) with -1 padding.
    """
    lam = np.maximum(lam, 0.0)
    mask = idx >= 0
    safe_idx = np.where(mask, idx, 0)
    xs = X[safe_idx]  # (k, s, n)
    rs = r[safe_idx]
    lam = np.where(mask, lam, 0.0)
    s = lam.sum(axis=1)
    ok = s > 1e-14
    s_safe = np.where(ok, s, 1.0)
    xbar = np.einsum("ks,ksn->kn", lam, xs)
    y = (u_arr + xbar) / s_safe[:, None]
    resid = np.einsum("ksn,ksn->ks", y[:, None, :] - xs, y[:, None, :] - xs) - rs**2
    g = np.einsum("kn,kn->k", u_arr, y) - 0.5 * np.einsum("ks,ks->k", lam, resid)
    return np.where(ok, g, np.inf)


def _feasible_lower(X, r, u_arr, y, interior, slack):
    """Lower bound by blending candidate points toward the interior point."""
    d = np.linalg.norm(y[:, None, :] - X[None, :, :], axis=2)
    viol = np.maximum(np.max(d - r[None, :], axis=1), 0.0)
    denom = viol + max(slack, 0.0)
    theta = np.where(denom > 0, viol / np.where(denom > 0, denom, 1.0), 1.0)
    y_f = y + theta[:, None] * (interior[None, :] - y)
    return np.einsum("kn,kn->k", u_arr, y_f)


def _certify(leaf: LeafGeometry, U, y, lam, idx, single_min, tol):
    """Certified values of candidates (y, lam on idx) per direction; NaN where the gap exceeds tol.

    `single_min` is min_i (<x_i, u> + r_i), itself an upper bound.
    """
    X, r = leaf.centers, leaf.radii
    ub = np.minimum(_dual_upper(X, r, U, lam, idx), single_min)
    lo = _feasible_lower(X, r, U, y, leaf.interior, leaf.slack)
    gap = ub - lo
    return np.where((gap <= tol) & (gap >= -1e-9), 0.5 * (lo + ub), np.nan)


# ---------------------------------------------------------------------------
# two-sphere data shared by the plane arcs and the 3-d circles
# ---------------------------------------------------------------------------


def _pair_circles(X, r, i, j):
    """Where spheres i and j meet in a circle (two points in 2-d), with its data, per pair.

    Returns ok (the pair meets properly: distinct centers, positive circle
    radius, independent gradients) and, for the pairs where ok holds, the
    axis a = x_j - x_i, |a|^2, beta (the circle's center is
    x_i + (beta / |a|^2) a), rho^2 (its squared radius), and the gradients'
    Gram entry g12 and determinant, which use the exact radii.
    """
    a = X[j] - X[i]
    aa = np.einsum("pn,pn->p", a, a)
    beta = 0.5 * (r[i] ** 2 + aa - r[j] ** 2)
    rho2 = r[i] ** 2 - beta**2 / np.where(aa >= 1e-24, aa, 1.0)
    g12 = r[i] ** 2 - beta
    det = r[i] ** 2 * r[j] ** 2 - g12 * g12
    ok = (aa >= 1e-24) & (rho2 > 0.0) & (det > 1e-18)
    return ok, *(v[ok] for v in (a, aa, beta, rho2, g12, det))


# ---------------------------------------------------------------------------
# 2-d: the arc table of a plane ball polygon
# ---------------------------------------------------------------------------


def _pair_vertices(X, r, i, j):
    """Both intersection points of circles i and j (2-d), with inverse gradients.

    Returns ok as `_pair_circles` does and, for the pairs where it holds,
    the points (p, 2, 2) and the multiplier rows (p, 2, 2, 2): at point q
    of pair s, ``rows[s, q] @ u`` gives the multipliers of circles i and j.
    """
    ok, a, aa, beta, rho2, g12, det = _pair_circles(X, r, i, j)
    i, j = i[ok], j[ok]
    xi0 = (beta / aa)[:, None] * a
    off = np.sqrt(rho2 / aa)[:, None] * np.column_stack([-a[:, 1], a[:, 0]])
    xi = np.stack([xi0 + off, xi0 - off], axis=1)  # (p, 2, n): y - x_i
    xj = xi - a[:, None, :]  # y - x_j
    ri2, rj2, g12, det = (v[:, None, None] for v in (r[i] ** 2, r[j] ** 2, g12, det))
    rows = np.stack([(rj2 * xi - g12 * xj) / det, (ri2 * xj - g12 * xi) / det], axis=2)
    return ok, X[i][:, None, :] + xi, rows


def _arc_intervals(X, r):
    """Every arc of the ball polygon: (ball, start angle, end angle), end >= start.

    Ball i's boundary point x_i + r_i u(phi) lies in disk j for phi in one
    closed cap of angles, centered on the angle of x_j - x_i, of half-width
    arccos c_ij with c_ij = (r_i^2 + |x_j - x_i|^2 - r_j^2) / (2 r_i |x_j - x_i|):
    every angle when c_ij <= -1, none when c_ij > 1.  Ball i owns the
    intersection of its caps, which with unequal radii can be several
    intervals.  A sweep finds them for all balls at once: measured from the
    end of ball i's first limiting cap, which no other interval straddles,
    an interval starts wherever coverage reaches the number of limiting caps.
    Of two coincident equal balls the later one owns nothing.
    """
    m = X.shape[0]
    a = X[None, :, :] - X[:, None, :]  # a[i, j] = x_j - x_i
    aa = np.einsum("ijn,ijn->ij", a, a)
    ri, rj = r[:, None], r[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        c = (ri**2 + aa - rj**2) / (2.0 * ri * np.sqrt(aa))
    c[np.isnan(c)] = -np.inf  # a zero-radius ball on circle j lies in disk j
    later = np.arange(m)[:, None] > np.arange(m)[None, :]
    held = (rj < ri) | ((rj == ri) & later)
    c = np.where(aa < 1e-24, np.where(held, np.inf, -np.inf), c)
    np.fill_diagonal(c, -np.inf)

    limits = c > -1.0
    count = limits.sum(axis=1)
    owns = ~np.any(c > 1.0, axis=1)
    half = np.arccos(np.clip(c, -1.0, 1.0))
    cap_end = np.arctan2(a[..., 1], a[..., 0]) + half
    origin = cap_end[np.arange(m), np.argmax(limits, axis=1)]
    # cap ends in (0, 2 pi] past the origin; a cap that starts before the
    # origin covers it, and its start moves up by 2 pi
    end = TWO_PI - np.mod(origin[:, None] - cap_end, TWO_PI)
    start = end - 2.0 * half
    wraps = limits & (start < 0.0)
    start = np.where(wraps, start + TWO_PI, start)
    # events: starts before ends at equal angles, so touching caps meet in a point
    weight = np.concatenate([limits, limits], axis=1) * np.repeat([1, -1], m)
    angle = np.where(weight != 0, np.concatenate([start, end], axis=1), np.inf)
    order = np.argsort(angle, axis=1, kind="stable")
    angle = np.take_along_axis(angle, order, axis=1)
    weight = np.take_along_axis(weight, order, axis=1)
    cover = wraps.sum(axis=1)[:, None] + np.cumsum(weight, axis=1)
    opens = (weight > 0) & (cover == count[:, None]) & owns[:, None]
    ball, t = np.nonzero(opens)
    lo = origin[ball] + angle[ball, t]
    hi = origin[ball] + angle[ball, t + 1]
    whole = np.flatnonzero(owns & (count == 0))  # in every other disk
    ball = np.concatenate([ball, whole])
    lo = np.concatenate([lo, np.full(whole.size, -np.pi)])
    hi = np.concatenate([hi, np.full(whole.size, np.pi)])
    return ball, lo, hi


def _build_arcs(X: np.ndarray, r: np.ndarray) -> ArcTable | None:
    """The leaf's arc table; None when rounding leaves no arc (a one-point body)."""
    ball, lo, hi = _arc_intervals(X, r)
    if ball.size == 0:
        return None
    # order arcs by midpoint, normalized to [-pi, pi): arcs meet only at their
    # ends, so a zero-length arc sorts next to the arcs it touches
    mid = 0.5 * (lo + hi)
    shift = mid - (np.mod(mid + np.pi, TWO_PI) - np.pi)
    order = np.argsort(mid - shift, kind="stable")
    ball, lo, hi = ball[order], (lo - shift)[order], (hi - shift)[order]
    breaks = np.maximum.accumulate(np.column_stack([lo, hi]).ravel())
    breaks = np.minimum(breaks, breaks[0] + TWO_PI)

    K = ball.size
    base = np.repeat(X[ball], 2, axis=0)
    scale = np.repeat(r[ball], 2)
    lam0 = np.zeros((2 * K, 2))
    lam0[:, 0] = np.repeat(np.divide(1.0, r[ball], out=np.zeros(K), where=r[ball] > 0), 2)
    ginv = np.zeros((2 * K, 2, 2))
    idx = np.full((2 * K, 2), -1, dtype=np.intp)
    idx[:, 0] = np.repeat(ball, 2)

    # the vertex after arc q joins circle i = ball[q] to circle j = ball[q + 1];
    # of the two points where they meet it is the one at arc q's end.  Without
    # such a pair (the same ball twice, tangent circles), the piece keeps arc
    # q's tangency and the certificate decides.
    i, j = ball, np.roll(ball, -1)
    q = np.flatnonzero(i != j)
    ok, points, rows = _pair_vertices(X, r, i[q], j[q])
    q = q[ok]
    end = X[i[q]] + r[i[q]][:, None] * np.column_stack([np.cos(hi[q]), np.sin(hi[q])])
    near = np.argmin(np.linalg.norm(points - end[:, None, :], axis=2), axis=1)
    pick = np.arange(q.size)
    vertex = 2 * q + 1
    base[vertex] = points[pick, near]
    scale[vertex] = 0.0
    lam0[vertex] = 0.0
    ginv[vertex] = rows[pick, near]
    idx[vertex, 1] = j[q]
    return ArcTable(breaks, base, scale, lam0, ginv, idx)


def _arc_support(leaf: LeafGeometry, U: np.ndarray, tol: float) -> np.ndarray:
    """Certified values by arc lookup (2-d); NaN where the certificate fails."""
    arcs = leaf.arcs
    X, r = leaf.centers, leaf.radii
    b0 = arcs.breaks[0]
    phi = b0 + np.mod(np.arctan2(U[:, 1], U[:, 0]) - b0, TWO_PI)
    p = np.searchsorted(arcs.breaks, phi, side="right") - 1
    y = arcs.base[p] + arcs.scale[p][:, None] * U
    lam = arcs.lam0[p] + np.einsum("kcn,kn->kc", arcs.ginv[p], U)
    single_min = np.min(U @ X.T + r[None, :], axis=1)
    return _certify(leaf, U, y, lam, arcs.idx[p], single_min, tol)


# ---------------------------------------------------------------------------
# 3-d: vectorized KKT-candidate enumeration (small m)
# ---------------------------------------------------------------------------


def _enumerates(m: int, n: int) -> bool:
    """Whether `support_batch` serves a 3-d leaf of m balls by enumeration."""
    return n == 3 and 2 <= m <= ENUM_MAX_CENTERS


def _cross(a, b):
    """Cross products along the last axis (np.cross costs twice as much on small stacks)."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


def _build_skeleton(X: np.ndarray, r: np.ndarray) -> LeafSkeleton:
    """Both common points of each sphere triple that are feasible within FEAS_PAD.

    Points come in triple order, the two points of a triple one after the
    other, each with the inverse of its gradient matrix.
    """
    m = X.shape[0]
    idx = np.array(list(itertools.combinations(range(m), 3)), dtype=np.intp).reshape(-1, 3)
    i, j, l = idx.T
    a2, a3 = X[j] - X[i], X[l] - X[i]
    g22 = np.einsum("pn,pn->p", a2, a2)
    g23 = np.einsum("pn,pn->p", a2, a3)
    g33 = np.einsum("pn,pn->p", a3, a3)
    detg = g22 * g33 - g23 * g23
    b2 = 0.5 * (r[i] ** 2 + g22 - r[j] ** 2)
    b3 = 0.5 * (r[i] ** 2 + g33 - r[l] ** 2)
    detg_safe = np.where(detg >= 1e-18, detg, 1.0)
    xi0 = ((g33 * b2 - g23 * b3) / detg_safe)[:, None] * a2 + (
        (g22 * b3 - g23 * b2) / detg_safe
    )[:, None] * a3
    rho2 = r[i] ** 2 - np.einsum("pn,pn->p", xi0, xi0)
    v = _cross(a2, a3)
    ok = (detg >= 1e-18) & (rho2 > 0.0)
    idx, i, a2, a3, xi0, rho2, v = (w[ok] for w in (idx, i, a2, a3, xi0, rho2, v))
    off = (np.sqrt(rho2) / np.linalg.norm(v, axis=1))[:, None] * v
    xi = np.stack([xi0 + off, xi0 - off], axis=1)  # (p, 2, 3): y - x_i
    # columns c1, c2, c3 = y - x_i, y - x_j, y - x_l; the rows of the inverse are
    # (c2 x c3, c3 x c1, c1 x c2) / det
    c1, c2, c3 = xi, xi - a2[:, None, :], xi - a3[:, None, :]
    rows = np.stack([_cross(c2, c3), _cross(c3, c1), _cross(c1, c2)], axis=2)
    det = np.einsum("pqn,pqn->pq", c1, rows[:, :, 0])
    rows = rows / np.where(det != 0.0, det, np.nan)[:, :, None, None]
    points = (X[i][:, None, :] + xi).reshape(-1, 3)
    idx = np.repeat(idx, 2, axis=0)
    ginv = rows.reshape(-1, 3, 3)
    d = np.linalg.norm(points[:, None, :] - X[None, :, :], axis=2)
    keep = np.all(d <= r[None, :] + FEAS_PAD, axis=1) & np.all(np.isfinite(ginv), axis=(1, 2))
    return LeafSkeleton(points[keep], idx[keep], ginv[keep])


def _circle_candidates(X, r, U, sq_dist):
    """Optimum of <u, y> on each two-sphere circle (3-d), per direction.

    `sq_dist` holds the squared center distances |x_i - x_j|^2.  Returns
    values (k, q) with -inf where the candidate is infeasible or its
    multipliers are negative, points (k, q, n), multipliers (k, q, 2) and
    the pairs (q, 2).
    """
    k = U.shape[0]
    i, j = np.triu_indices(X.shape[0], 1)
    ok, a, aa, beta, rho2, g12, det = _pair_circles(X, r, i, j)
    i, j = i[ok], j[ok]
    vals = np.full((k, i.size), -np.inf)
    ys = np.zeros((k, i.size, X.shape[1]))
    lams = np.zeros((k, i.size, 2))
    bound2 = (r + FEAS_PAD) ** 2
    for q in range(i.size):
        ii, jj, aq = i[q], j[q], a[q]
        ua = U @ aq
        w = U - (ua / aa[q])[:, None] * aq[None, :]
        nw = np.linalg.norm(w, axis=1)
        okw = nw > 1e-12
        xi = (beta[q] / aa[q]) * aq + np.sqrt(rho2[q]) * w / np.where(okw, nw, 1.0)[:, None]
        b1 = np.einsum("kn,kn->k", xi, U)
        b2 = b1 - ua
        lam1 = (r[jj] ** 2 * b1 - g12[q] * b2) / det[q]
        lam2 = (r[ii] ** 2 * b2 - g12[q] * b1) / det[q]
        # |y - x_l|^2 with y = x_i + xi, expanded to avoid a (k, m, n) difference
        d2 = sq_dist[ii][None, :] + 2.0 * xi @ (X[ii][None, :] - X).T
        d2 += np.einsum("kn,kn->k", xi, xi)[:, None]
        y = X[ii][None, :] + xi
        valid = okw & (lam1 >= -LAMBDA_PAD) & (lam2 >= -LAMBDA_PAD)
        valid &= np.all(d2 <= bound2[None, :], axis=1)
        vals[valid, q] = np.einsum("kn,kn->k", U, y)[valid]
        ys[:, q] = y
        lams[:, q, 0], lams[:, q, 1] = lam1, lam2
    return vals, ys, lams, np.stack([i, j], axis=1)


def _enumerate_support(leaf: LeafGeometry, U: np.ndarray, tol: float) -> np.ndarray:
    """Certified values by enumeration (3-d); NaN where no candidate certifies.

    Candidates are, in order: single-ball tangencies, two-sphere circles,
    skeleton points.  The winner per direction is the first candidate of
    largest value with valid multipliers and a feasible point.
    """
    X, r = leaf.centers, leaf.radii
    m, n = X.shape
    k = U.shape[0]
    skel = leaf.skeleton if leaf.skeleton is not None else _build_skeleton(X, r)

    ux = U @ X.T
    single_ub = ux + r[None, :]  # the tangency values, also a valid upper bound per ball
    # |x_i + r_i u - x_j|^2 <= (r_j + pad)^2 for every j: tangency i is feasible
    diff = X[:, None, :] - X[None, :, :]
    sq_dist = np.einsum("ijn,ijn->ij", diff, diff)
    d2 = sq_dist[None, :, :] + 2.0 * r[None, :, None] * (ux[:, :, None] - ux[:, None, :])
    d2 += (r**2)[None, :, None] * np.einsum("kn,kn->k", U, U)[:, None, None]
    feas = np.all(d2 <= ((r + FEAS_PAD) ** 2)[None, None, :], axis=2)
    circ_vals, circ_y, circ_lam, circ_pairs = _circle_candidates(X, r, U, sq_dist)
    n_circ = circ_vals.shape[1]
    skel_lam = (U @ skel.ginv.reshape(-1, n).T).reshape(k, -1, 3)
    skel_ok = np.all(skel_lam >= -LAMBDA_PAD, axis=2)
    skel_vals = np.where(skel_ok, U @ skel.points.T, -np.inf)
    cand = np.concatenate([np.where(feas, single_ub, -np.inf), circ_vals, skel_vals], axis=1)
    win = np.argmax(cand, axis=1)  # first maximum: the earliest candidate wins ties
    found = np.isfinite(cand[np.arange(k), win])

    best_y = np.zeros((k, n))
    best_lam = np.zeros((k, 3))
    best_idx = np.full((k, 3), -1, dtype=np.intp)
    sel = win < m
    i = win[sel]
    best_y[sel] = X[i] + r[i][:, None] * U[sel]
    best_lam[sel, 0] = np.divide(1.0, r[i], out=np.zeros(i.size), where=r[i] > 0)
    best_idx[sel, 0] = i
    sel = (win >= m) & (win < m + n_circ)
    rows, q = np.flatnonzero(sel), win[sel] - m
    best_y[sel] = circ_y[rows, q]
    best_lam[sel, :2] = circ_lam[rows, q]
    best_idx[sel, :2] = circ_pairs[q]
    sel = win >= m + n_circ
    rows, s = np.flatnonzero(sel), win[sel] - m - n_circ
    best_y[sel] = skel.points[s]
    best_lam[sel] = skel_lam[rows, s]
    best_idx[sel] = skel.idx[s]

    values = _certify(leaf, U, best_y, best_lam, best_idx, np.min(single_ub, axis=1), tol)
    return np.where(found, values, np.nan)


# ---------------------------------------------------------------------------
# guided active-set loop (general n, large m, or enumeration fallout)
# ---------------------------------------------------------------------------


def _subset_candidates_general(X, r, u, subset):
    """Exact optimum candidates for an all-tight constraint subset (any n)."""
    i0 = subset[0]
    rest = subset[1:]
    if not rest:
        y = X[i0] + r[i0] * u
        lam = np.array([1.0 / r[i0]]) if r[i0] > 0 else np.array([0.0])
        return [(y, lam)]
    A = X[rest] - X[i0]
    beta = 0.5 * (r[i0] ** 2 + np.einsum("ij,ij->i", A, A) - r[rest] ** 2)
    xi0, *_ = np.linalg.lstsq(A, beta, rcond=None)
    if np.linalg.norm(A @ xi0 - beta) > 1e-9 * (1.0 + np.linalg.norm(beta)):
        return []
    rho2 = r[i0] ** 2 - float(xi0 @ xi0)
    if rho2 <= 0.0:
        return []
    _, sv, vt = np.linalg.svd(A)
    rank = int(np.sum(sv > 1e-12 * max(sv[0], 1.0))) if sv.size else 0
    null = vt[rank:]  # rows span the tangent directions
    out = []
    rho = np.sqrt(rho2)
    if null.shape[0] == 0:
        candidates = [xi0]
    else:
        q = null @ u
        nq = np.linalg.norm(q)
        if nq <= 1e-14:
            candidates = [xi0]
        else:
            candidates = [xi0 + rho * (null.T @ (q / nq))]
    for xi in candidates:
        y = X[i0] + xi
        grads = (y[None, :] - X[subset]).T  # (n, s)
        lam, *_ = np.linalg.lstsq(grads, u, rcond=None)
        if np.linalg.norm(grads @ lam - u) > 1e-8:
            continue
        if np.any(lam < -LAMBDA_PAD):
            continue
        out.append((y, lam))
    return out


def _active_set_optimum(X, r, u, active):
    """Best KKT candidate over the working set: exact optimum of that subproblem."""
    n = X.shape[1]
    best = None
    max_size = min(n, len(active))
    for size in range(1, max_size + 1):
        for subset in itertools.combinations(active, size):
            for y, lam in _subset_candidates_general(X, r, u, list(subset)):
                d = np.linalg.norm(y[None, :] - X[list(active)], axis=1)
                if np.any(d > r[list(active)] + FEAS_PAD):
                    continue
                val = float(u @ y)
                if best is None or val > best[0]:
                    best = (val, y, np.asarray(lam), list(subset))
    return best


def _support_single_dir(leaf: LeafGeometry, u: np.ndarray, tol: float) -> float:
    X, r = leaf.centers, leaf.radii
    single_ub = X @ u + r
    active = [int(np.argmin(single_ub))]
    gap = np.inf  # stays infinite unless a feasible candidate gets certified bounds
    for _ in range(80):
        found = _active_set_optimum(X, r, u, active)
        if found is None:
            # widen the working set with the next-best single bound
            order = np.argsort(single_ub)
            for cand in order:
                if int(cand) not in active:
                    active.append(int(cand))
                    break
            else:
                break
            continue
        val, y, lam, subset = found
        d = np.linalg.norm(y[None, :] - X, axis=1) - r
        j = int(np.argmax(d))
        viol = float(d[j])
        if viol <= FEAS_PAD:
            dual = _dual_upper(X, r, u[None, :], lam[None, :], np.array([subset]))[0]
            ub = float(min(dual, np.min(single_ub)))
            lo = float(
                _feasible_lower(X, r, u[None, :], y[None, :], leaf.interior, leaf.slack)[0]
            )
            gap = ub - lo
            if gap <= tol:
                return 0.5 * (lo + ub)
            break
        if j in active:
            break
        active.append(j)
        if len(active) > X.shape[1] + 6:
            # keep the working set small: drop members not in the KKT subset
            keep = [i for i in active if i in subset or i == j]
            active = keep if keep else active[-(X.shape[1] + 3) :]
    raise NoConvergenceError(
        f"support solve failed to certify tolerance {tol} in dimension n={X.shape[1]} "
        f"with m={X.shape[0]} balls, direction {u.tolist()}: achieved gap ub - lo = {gap:.3g}"
    )


# ---------------------------------------------------------------------------
# public entry point
# ---------------------------------------------------------------------------


def support_batch(leaf: LeafGeometry, dirs: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Support values of the leaf body for unit direction rows of `dirs`."""
    U = np.ascontiguousarray(np.asarray(dirs, dtype=float))
    if U.ndim == 1:
        U = U[None, :]
    X, r = leaf.centers, leaf.radii
    m, n = X.shape
    if U.shape[1] != n:
        raise ValueError("direction dimension does not match the leaf")

    if m == 1:
        return U @ X[0] + r[0]
    if leaf.point_like:
        return U @ leaf.interior

    if n == 2 and leaf.arcs is not None:
        values = _arc_support(leaf, U, tol)
    elif _enumerates(m, n):
        values = _enumerate_support(leaf, U, tol)
    else:
        values = np.full(U.shape[0], np.nan)
    for i in np.flatnonzero(np.isnan(values)):
        values[i] = _support_single_dir(leaf, U[i], tol)
    return values
