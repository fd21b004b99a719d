"""Certified support evaluation for intersections of balls.

The leaf problem is ``max <u, y> over y with |y - x_i| <= r_i for all i``.
Optima are KKT points whose tight constraints number at most the ambient
dimension, so for small generator counts the solver enumerates closed-form
candidates (single-ball tangencies, two-sphere circles, three-sphere point
pairs in 3-d), validates multipliers and feasibility, and certifies the
winner with a weak-duality upper bound plus a feasible lower bound obtained
by blending toward a strictly interior point.  Large or high-dimensional
instances run a guided active-set loop (grow the working set by the most
violated constraint, re-solve, repeat) with the same certificate.

Certificates are exact up to a 1e-12 feasibility pad on the constraints.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import EmptyBodyError, NoConvergenceError

DEFAULT_TOL = 1e-6
FEAS_PAD = 1e-12
LAMBDA_PAD = 1e-9
ENUM_MAX_CENTERS = 8
POINT_SLACK = 2.5e-14


# ---------------------------------------------------------------------------
# leaf geometry: feasibility, interior point, slack
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class LeafGeometry:
    """Precomputed data for one intersection-of-balls leaf."""

    centers: np.ndarray  # (m, n)
    radii: np.ndarray  # (m,)
    interior: np.ndarray  # feasible point, max-slack-ish
    slack: float  # min_i (r_i - |interior - x_i|), >= 0
    meb_radius: float | None  # set when all radii are equal

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


def _pocs_point(centers: np.ndarray, radii: np.ndarray) -> tuple[np.ndarray, float]:
    """Cyclic projections onto the most violated ball; returns (point, residual)."""
    z = centers.mean(axis=0)
    resid = np.inf
    for _ in range(3000):
        d = np.linalg.norm(z - centers, axis=1)
        viol = d - radii
        i = int(np.argmax(viol))
        resid = float(viol[i])
        if resid <= 1e-13:
            break
        z = centers[i] + (z - centers[i]) * (radii[i] / d[i])
    return z, max(resid, 0.0)


def _improve_slack(centers, radii, z0, iters: int = 200) -> tuple[np.ndarray, float]:
    """Supergradient ascent on the concave slack min_i (r_i - |z - x_i|)."""

    def slack_of(z):
        return float(np.min(radii - np.linalg.norm(z - centers, axis=1)))

    best, best_slack = z0, slack_of(z0)
    z = z0.copy()
    step0 = 0.25 * float(np.max(radii))
    for k in range(1, iters + 1):
        d = np.linalg.norm(z - centers, axis=1)
        i = int(np.argmin(radii - d))
        if d[i] < 1e-14:
            g = np.zeros_like(z)
            g[0] = 1.0
        else:
            g = (z - centers[i]) / d[i]
        z = z + (step0 / k) * g
        s = slack_of(z)
        if s > best_slack:
            best, best_slack = z.copy(), s
    return best, best_slack


def prepare_leaf(centers, radii=None) -> LeafGeometry:
    """Validate nonemptiness and precompute an interior point with its slack.

    Raises EmptyBodyError when the balls have empty intersection.
    """
    X = np.ascontiguousarray(np.asarray(centers, dtype=float))
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("centers must be a nonempty (m, n) array")
    m = X.shape[0]
    if radii is None:
        r = np.ones(m)
    else:
        r = np.asarray(radii, dtype=float)
        if r.shape != (m,):
            raise ValueError("radii must match the number of centers")
        if np.any(r < 0):
            raise EmptyBodyError("negative constraint radius")

    if m == 1:
        # the enclosing ball of one center is the center itself
        return LeafGeometry(X, r, X[0].copy(), float(r[0]), 0.0)

    if np.ptp(r) == 0.0:
        from .geometry import minimal_enclosing_ball

        meb = minimal_enclosing_ball(X)
        slack = float(r[0] - meb.radius)
        if slack < -FEAS_PAD:
            raise EmptyBodyError(
                f"generator centers need a ball of radius {meb.radius:.9f} > {r[0]}"
            )
        return LeafGeometry(X, r, meb.center, max(slack, 0.0), float(meb.radius))

    z, resid = _pocs_point(X, r)
    if resid > 1e-9:
        raise EmptyBodyError(f"constraint balls have empty intersection (residual {resid:.3e})")
    z, slack = _improve_slack(X, r, z)
    return LeafGeometry(X, r, z, max(slack, 0.0), None)


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


def _enumerate_support(leaf: LeafGeometry, U: np.ndarray, tol: float):
    """Returns (values, resolved) for all directions; unresolved entries are NaN."""
    X, r = leaf.centers, leaf.radii
    m, n = X.shape
    k = U.shape[0]

    best_val = np.full(k, -np.inf)
    best_y = np.zeros((k, n))
    best_lam = np.zeros((k, 3))
    best_idx = np.full((k, 3), -1, dtype=np.intp)

    def consider(val, y, lam, idx, valid):
        take = valid & (val > best_val)
        if not np.any(take):
            return
        best_val[take] = val[take]
        best_y[take] = y[take]
        best_lam[take] = lam[take] if lam.ndim == 2 else lam[None, :]
        best_idx[take] = idx

    single_ub = U @ X.T + r[None, :]  # also a valid upper bound per ball

    # single-ball tangency candidates
    for i in range(m):
        y = X[i][None, :] + r[i] * U
        d = np.linalg.norm(y[:, None, :] - X[None, :, :], axis=2)
        feas = np.all(d <= r[None, :] + FEAS_PAD, axis=1)
        val = single_ub[:, i]
        lam = np.zeros((1, 3))
        lam[0, 0] = 1.0 / r[i] if r[i] > 0 else 0.0
        idx = np.array([i, -1, -1], dtype=np.intp)
        consider(val, y, np.broadcast_to(lam, (k, 3)), idx, feas)

    # two-sphere circle candidates
    for i, j in itertools.combinations(range(m), 2):
        a = X[j] - X[i]
        aa = float(a @ a)
        if aa < 1e-24:
            continue
        beta = 0.5 * (r[i] ** 2 + aa - r[j] ** 2)
        xi0 = (beta / aa) * a
        rho2 = r[i] ** 2 - beta**2 / aa
        if rho2 <= 0.0:
            continue
        rho = np.sqrt(rho2)
        coef = (U @ a) / aa
        w = U - coef[:, None] * a[None, :]
        nw = np.linalg.norm(w, axis=1)
        okw = nw > 1e-12
        nw_safe = np.where(okw, nw, 1.0)
        xi = xi0[None, :] + rho * w / nw_safe[:, None]
        y = X[i][None, :] + xi
        # 2x2 Gram solve for the multipliers; G uses the exact sphere radii
        g12 = r[i] ** 2 - beta
        det = r[i] ** 2 * r[j] ** 2 - g12 * g12
        okd = okw & (det > 1e-18)
        b1 = np.einsum("kn,kn->k", xi, U)
        b2 = b1 - U @ a
        det_safe = det if det > 1e-18 else 1.0
        lam1 = (r[j] ** 2 * b1 - g12 * b2) / det_safe
        lam2 = (r[i] ** 2 * b2 - g12 * b1) / det_safe
        lam_ok = (lam1 >= -LAMBDA_PAD) & (lam2 >= -LAMBDA_PAD)
        d = np.linalg.norm(y[:, None, :] - X[None, :, :], axis=2)
        feas = np.all(d <= r[None, :] + FEAS_PAD, axis=1)
        val = np.einsum("kn,kn->k", U, y)
        lam = np.stack([lam1, lam2, np.zeros(k)], axis=1)
        idx = np.array([i, j, -1], dtype=np.intp)
        consider(val, y, lam, idx, okd & lam_ok & feas)

    # three-sphere point candidates (3-d only); direction independent points
    if n == 3 and m >= 3:
        for i, j, l in itertools.combinations(range(m), 3):
            a2 = X[j] - X[i]
            a3 = X[l] - X[i]
            g22, g23, g33 = a2 @ a2, a2 @ a3, a3 @ a3
            detg = g22 * g33 - g23 * g23
            if detg < 1e-18:
                continue
            b2 = 0.5 * (r[i] ** 2 + g22 - r[j] ** 2)
            b3 = 0.5 * (r[i] ** 2 + g33 - r[l] ** 2)
            alpha = (g33 * b2 - g23 * b3) / detg
            gamma = (g22 * b3 - g23 * b2) / detg
            xi0 = alpha * a2 + gamma * a3
            rho2 = r[i] ** 2 - float(xi0 @ xi0)
            if rho2 <= 0.0:
                continue
            v = np.cross(a2, a3)
            v /= np.linalg.norm(v)
            for sgn in (1.0, -1.0):
                xi = xi0 + sgn * np.sqrt(rho2) * v
                y = X[i] + xi
                d = np.linalg.norm(y[None, :] - X, axis=1)
                if np.any(d > r + FEAS_PAD):
                    continue
                grads = np.stack([xi, xi - a2, xi - a3], axis=1)  # columns
                try:
                    ginv = np.linalg.inv(grads)
                except np.linalg.LinAlgError:
                    continue
                lam = U @ ginv.T  # (k, 3)
                lam_ok = np.all(lam >= -LAMBDA_PAD, axis=1)
                val = U @ y
                idx = np.array([i, j, l], dtype=np.intp)
                consider(val, np.broadcast_to(y, (k, 3)), lam, idx, lam_ok)

    found = np.isfinite(best_val)
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
            idx = np.full((1, 3), -1, dtype=np.intp)
            lam3 = np.zeros((1, 3))
            for s, (ii, ll) in enumerate(zip(subset[:3], lam[:3])):
                idx[0, s] = ii
                lam3[0, s] = ll
            ub = float(
                min(_dual_upper(X, r, u[None, :], lam3, idx)[0], np.min(single_ub))
            )
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
    if n in (2, 3) and m <= ENUM_MAX_CENTERS:
        values, resolved = _enumerate_support(leaf, U, tol)

    if not np.all(resolved):
        for i in np.flatnonzero(~resolved):
            values[i] = _support_single_dir(leaf, U[i], tol)
    return values
