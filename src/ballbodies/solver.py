"""Certified support evaluation for intersections of balls.

The leaf problem is ``max <u, y> over y with |y - x_i| <= r_i for all i``.
Optima are KKT points whose tight constraints number at most the ambient
dimension.  For small generator counts in 2-d and 3-d the solver enumerates
closed-form candidates.  The candidates that do not depend on the direction
-- the two intersection points of each pair of circles in 2-d, the two
points of each sphere triple in 3-d -- form the leaf's skeleton, built once
by `prepare_leaf`: only feasible points are kept, each with the inverse
gradient matrix G that gives its multipliers as ``lam = G u``.  Per call the
solver evaluates the single-ball tangencies (and the two-sphere circles in
3-d), takes the skeleton's values with one matrix product, picks the best
candidate with valid multipliers in one ``argmax``, and certifies it with a
weak-duality upper bound plus a feasible lower bound obtained by blending
toward a strictly interior point.  Large or high-dimensional instances run
a guided active-set loop (grow the working set by the most violated
constraint, re-solve, repeat) with the same certificate.

Certificates are exact up to a 1e-12 feasibility pad on the constraints.
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
ENUM_MAX_CENTERS = 8
POINT_SLACK = 2.5e-14


# ---------------------------------------------------------------------------
# leaf geometry: feasibility, maximum-slack point, slack
# ---------------------------------------------------------------------------


class LeafSkeleton(NamedTuple):
    """Direction-free KKT points of a leaf: pair vertices (2-d) or triple points (3-d)."""

    points: np.ndarray  # (p, n), each feasible within FEAS_PAD
    idx: np.ndarray  # (p, 3) tight constraint indices, -1 padded
    ginv: np.ndarray  # (p, 3, n): multipliers lam = ginv @ u, zero rows for padding


@dataclass(frozen=True, eq=False)
class LeafGeometry:
    """Precomputed data for one intersection-of-balls leaf.

    `skeleton` holds the leaf's direction-free KKT points when the solver
    enumerates it (n in {2, 3}, 2 <= m <= ENUM_MAX_CENTERS when prepared,
    not point-like); otherwise it is None and the solver builds it on demand.
    """

    centers: np.ndarray  # (m, n)
    radii: np.ndarray  # (m,)
    interior: np.ndarray  # the maximum-slack point
    slack: float  # min_i (r_i - |interior - x_i|), clamped at 0
    meb_radius: float | None  # r_0 - slack, set when all radii are equal
    skeleton: LeafSkeleton | None = None

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
    """Validate nonemptiness and precompute the maximum-slack point, its slack and the skeleton.

    The point z maximizing min_i (r_i - |z - x_i|) is the center of the
    smallest ball enclosing the balls B(x_i, c - r_i), c = max r; the slack
    is measured at z.  Raises EmptyBodyError when it is below -FEAS_PAD,
    that is when the balls have empty intersection.
    """
    X = np.ascontiguousarray(np.asarray(centers, dtype=float))
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("centers must be a nonempty (m, n) array")
    m, n = X.shape
    if radii is None:
        r = np.ones(m)
    else:
        r = np.asarray(radii, dtype=float)
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
    if _enumerates(m, n) and not leaf.point_like:
        leaf = replace(leaf, skeleton=_build_skeleton(X, r))
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


# ---------------------------------------------------------------------------
# vectorized KKT-candidate enumeration (n in {2, 3}, small m)
# ---------------------------------------------------------------------------


def _enumerates(m: int, n: int) -> bool:
    """Whether `support_batch` serves a leaf of m balls in R^n by enumeration."""
    return n in (2, 3) and 2 <= m <= ENUM_MAX_CENTERS


def _pair_circles(X, r):
    """Pairs i < j whose spheres meet in a circle (two points in 2-d), with its data.

    Returns i, j, the axis a = x_j - x_i, |a|^2, beta (the circle's center is
    x_i + (beta / |a|^2) a), rho^2 (its squared radius), and the gradients'
    Gram entry g12 and determinant, which use the exact radii.
    """
    i, j = np.triu_indices(X.shape[0], 1)
    a = X[j] - X[i]
    aa = np.einsum("pn,pn->p", a, a)
    beta = 0.5 * (r[i] ** 2 + aa - r[j] ** 2)
    rho2 = r[i] ** 2 - beta**2 / np.where(aa >= 1e-24, aa, 1.0)
    g12 = r[i] ** 2 - beta
    det = r[i] ** 2 * r[j] ** 2 - g12 * g12
    ok = (aa >= 1e-24) & (rho2 > 0.0) & (det > 1e-18)
    return tuple(v[ok] for v in (i, j, a, aa, beta, rho2, g12, det))


def _pair_vertices(X, r):
    """Both intersection points of each pair of circles (2-d), with inverse gradients."""
    i, j, a, aa, beta, rho2, g12, det = _pair_circles(X, r)
    xi0 = (beta / aa)[:, None] * a
    off = np.sqrt(rho2 / aa)[:, None] * np.column_stack([-a[:, 1], a[:, 0]])
    xi = np.stack([xi0 + off, xi0 - off], axis=1)  # (p, 2, n): y - x_i
    xj = xi - a[:, None, :]  # y - x_j
    ri2, rj2, g12, det = (v[:, None, None] for v in (r[i] ** 2, r[j] ** 2, g12, det))
    rows = np.zeros(xi.shape[:2] + (3, 2))
    rows[:, :, 0] = (rj2 * xi - g12 * xj) / det
    rows[:, :, 1] = (ri2 * xj - g12 * xi) / det
    idx = np.stack([i, j, np.full_like(i, -1)], axis=1)
    return X[i][:, None, :] + xi, np.repeat(idx, 2, axis=0), rows


def _cross(a, b):
    """Cross products along the last axis (np.cross costs twice as much on small stacks)."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


def _triple_points(X, r):
    """Both common points of each sphere triple (3-d), with inverse gradients."""
    m = X.shape[0]
    if m < 3:
        return np.zeros((0, 2, 3)), np.zeros((0, 3), dtype=np.intp), np.zeros((0, 2, 3, 3))
    idx = np.array(list(itertools.combinations(range(m), 3)), dtype=np.intp)
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
    return X[i][:, None, :] + xi, np.repeat(idx, 2, axis=0), rows


def _build_skeleton(X: np.ndarray, r: np.ndarray) -> LeafSkeleton:
    """The leaf's direction-free KKT points that are feasible within FEAS_PAD.

    Points come in constraint-subset order (pairs in 2-d, triples in 3-d),
    the two points of a subset one after the other.
    """
    n = X.shape[1]
    points, idx, ginv = (_pair_vertices if n == 2 else _triple_points)(X, r)
    points = points.reshape(-1, n)
    ginv = ginv.reshape(-1, 3, n)
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
    i, j, a, aa, beta, rho2, g12, det = _pair_circles(X, r)
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


def _enumerate_support(leaf: LeafGeometry, U: np.ndarray, tol: float):
    """Returns (values, resolved) for all directions; unresolved entries are NaN.

    Candidates are, in order: single-ball tangencies, two-sphere circles
    (3-d), skeleton points.  The winner per direction is the first candidate
    of largest value with valid multipliers and a feasible point.
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
    blocks = [np.where(feas, single_ub, -np.inf)]

    n_circ = 0
    if n == 3:
        circ_vals, circ_y, circ_lam, circ_pairs = _circle_candidates(X, r, U, sq_dist)
        blocks.append(circ_vals)
        n_circ = circ_vals.shape[1]

    skel_lam = (U @ skel.ginv.reshape(-1, n).T).reshape(k, -1, 3)
    skel_ok = np.all(skel_lam >= -LAMBDA_PAD, axis=2)
    blocks.append(np.where(skel_ok, U @ skel.points.T, -np.inf))

    cand = np.concatenate(blocks, axis=1)
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
    if n_circ:
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

    values = np.full(k, np.nan)
    if np.any(found):
        ub = np.minimum(
            _dual_upper(X, r, U, best_lam, best_idx),
            np.min(single_ub, axis=1),
        )
        lo = _feasible_lower(X, r, U, best_y, leaf.interior, leaf.slack)
        gap = ub - lo
        certified = found & (gap <= tol) & (gap >= -1e-9)
        values[certified] = 0.5 * (lo[certified] + ub[certified])
    return values, np.isfinite(values)


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

    values = np.full(U.shape[0], np.nan)
    resolved = np.zeros(U.shape[0], dtype=bool)
    if _enumerates(m, n):
        values, resolved = _enumerate_support(leaf, U, tol)

    if not np.all(resolved):
        for i in np.flatnonzero(~resolved):
            values[i] = _support_single_dir(leaf, U[i], tol)
    return values
