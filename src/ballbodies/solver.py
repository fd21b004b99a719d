"""Certified support evaluation for intersections of balls.

The leaf problem is ``max <u, y> over y with |y - x_i| <= r_i for all i``.
Optima are KKT points whose tight constraints number at most the ambient
dimension.  `prepare_leaf` builds, once per leaf, the direction-free part of
that search.  `support_batch` serves a leaf of one ball by its closed form, a
point-like one by `_point_support`, and each direction of any other leaf by
one of three paths:

* 2-d, any m: arc lookup.  The boundary of a plane ball polygon is a cyclic
  sequence of circular arcs, each owning an interval of outer-normal angles,
  with a vertex owning the normal cone between consecutive arcs
  (Bezdek-Langi-Naszodi-Papez, "Ball-polyhedra", 2007).  The leaf's
  `ArcTable` lists these pieces in angle order, each with its support
  function in closed form, <x_i, u> + r_i on an arc and <v, u> at a vertex,
  certified once for the whole piece.  Per call one ``arctan2`` and one
  ``searchsorted`` find each direction's piece, and a dot product gives its
  value.  `arc_support_batch` serves many such leaves, each on its own
  directions, by one lookup: the pieces of all of them in one search, keyed
  by leaf and angle, with the per-direction arithmetic of one leaf's.
* n >= 3, 2 <= m <= ENUM_MAX_CENTERS: the subset table.  Every subset S of
  at most n balls whose spheres meet in a sphere of positive radius (the
  faces of the ball-polyhedron, in the same paper) has its maximizer of
  <u, y> in closed form, c_S + rho_S P_S u / |P_S u|, and its multipliers
  are linear in u and |P_S u|.  Per call the solver evaluates every row
  with batched products and picks the best candidate with valid
  multipliers and a feasible point in one ``argmax``.
* Elsewhere (larger leaves, and any direction the first two paths leave
  uncertified): an LP-type pivot over all such directions at once.  Each
  direction keeps a basis of at most n balls; a round adds the ball its
  optimum violates most, solves that sub-leaf by its own subset table, and
  keeps the winner's tight balls, until the optimum lies in every ball.

A 2-d piece is certified when the leaf is prepared (see `ArcTable`): an
upper bound from the piece's ball, or from the vertex's normal cone, and a
lower bound from blending the piece's worst point toward the interior
point, whose slack exceeds POINT_SLACK.  A direction whose piece misses the
tolerance takes the pivot.  Every direction of the other two paths is
certified on its own from its KKT candidate: a weak-duality upper bound
from the candidate's multipliers plus the same blended lower bound, taken
at that candidate.  Certificates are exact up to rounding, and to a 1e-12
feasibility pad on the constraints where a candidate is checked.  A
prepared leaf keeps its own read-only copies of the centers and radii, so
no caller can change it after the fact.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import EmptyBodyError, NoConvergenceError
from .geometry import enclosing_ball, padded_subsets

DEFAULT_TOL = 1e-6
FEAS_PAD = 1e-12
LAMBDA_PAD = 1e-9
ENUM_MAX_CENTERS = 8  # largest leaf, n >= 3, served by the subset table
POINT_SLACK = 2.5e-14
TWO_PI = 2.0 * np.pi
# widens each arc-table piece: a direction's computed angle, arctan2 shifted
# into [breaks[0], breaks[0] + 2 pi), is within about 3e-15 of its true angle
ANGLE_PAD = 1e-14


# ---------------------------------------------------------------------------
# leaf geometry: feasibility, maximum-slack point, slack
# ---------------------------------------------------------------------------


class SubsetTable(NamedTuple):
    """KKT data of every constraint subset S of at most n balls of a leaf (n >= 2).

    Where the spheres of S meet in a sphere of positive radius, that sphere
    has center c_S and radius rho_S and spans c_S + range(P_S), P_S the
    projector onto the complement of the directions of the affine hull of
    S's centers.  Its maximizer of <u, y> is c_S + rho_S P_S u / |P_S u|,
    with multipliers ``lam = lin @ u + norm |P_S u|`` on the constraints
    ``idx``.  Rows run by size, then lexicographically; a subset is kept
    when its centers are affinely independent and rho_S^2 > 0 (a single
    ball always).  The first q rows, the subsets of fewer than n balls,
    hold points that move with u.  The spheres of n balls meet in two
    points, which do not: each one that is feasible is a row of its own,
    with ``lam = lin @ u``.
    """

    center: np.ndarray  # (R, n): c_S, or the point of an n-subset
    radius: np.ndarray  # (q,): rho_S
    proj: np.ndarray  # (q, n, n): P_S
    lin: np.ndarray  # (R, n, n): the multipliers' linear part
    norm: np.ndarray  # (q, n): the multipliers' weights on |P_S u|
    lift: np.ndarray  # (q, m, n): 2 rho_S P_S (c_S - x_j)
    room: np.ndarray  # (q, m): (r_j + FEAS_PAD)^2 - |c_S - x_j|^2 - rho_S^2
    idx: np.ndarray  # (R, n) tight constraint indices, -1 padded


class ArcTable(NamedTuple):
    """The outer-normal angle pieces of a plane ball polygon, in angle order.

    Piece 2q is the q-th arc, piece 2q + 1 the vertex between arc q and arc
    q + 1 (cyclically).  A direction at angle phi lies in the last piece
    whose start ``breaks[p]`` is at most phi, with phi taken in
    [breaks[0], breaks[0] + 2 pi).  Its KKT point is ``base[p] + scale[p] u``,
    tight on the constraints ``idx[p]``.

    Each piece is certified once, for every direction whose angle lies in
    the piece widened by ANGLE_PAD on both sides (which covers the rounding
    of the computed angle): with L(u) = <base[p], u> + scale[p],

        L(u) - lo_p <= h(u) <= L(u) + hi_p,

    stored as ``gap = lo + hi`` and ``offset = scale + (hi - lo) / 2``, so
    <base[p], u> + offset[p] is within gap[p] / 2 of h(u).

    * A piece of ball i (an arc, or a vertex piece that kept arc i's
      tangency): L(u) = <x_i, u> + r_i bounds h from above, so hi = 0.  Per
      ball j, |x_i + r_i u(phi) - x_j|^2 is a sinusoid in phi, largest at an
      end of the piece or at the angle of x_i - x_j, so the piece's points
      y(u) = x_i + r_i u leave the disks by at most viol.  Blending y(u)
      toward the interior point z by theta = viol / (viol + slack) lands in
      every disk, so h(u) >= L(u) - theta |y(u) - z|, and lo = theta
      (|x_i - z| + r_i).
    * A vertex v on circles i and j, with outer normals n_i and n_j: every
      y in disk i has <n_i, y - v> <= |y - x_i| - r_i <= 0, and the same
      holds for j, so h(u) <= <u, v> on the cone of nonnegative
      combinations of n_i and n_j.  That cone is the angle interval from
      n_i to n_j when the interval is shorter than pi.  A direction past n_j
      by alpha still has h(u) <= <x_j, u> + r_j = <u, v> + r_j (1 - cos
      alpha) <= <u, v> + r_j alpha^2 / 2, and likewise past n_i; hi is the
      largest such excess over the widened piece.  v's own violation of the
      disks gives lo = theta |v - z|, as on an arc.  A vertex whose cone is
      pi or wider has gap = inf.

    The directions of a piece with gap > tol take the pivot.
    """

    breaks: np.ndarray  # (2K,) nondecreasing, within 2 pi of breaks[0]
    base: np.ndarray  # (2K, 2): the arc's center, or the vertex
    scale: np.ndarray  # (2K,): the arc's radius, 0 at a vertex
    idx: np.ndarray  # (2K, 2) tight constraint indices, -1 padded
    gap: np.ndarray  # (2K,): width of the piece's certified interval
    offset: np.ndarray  # (2K,): its midpoint minus <base, u>


@dataclass(frozen=True, eq=False)
class LeafGeometry:
    """Precomputed, read-only data for one intersection-of-balls leaf.

    `support_batch` serves a leaf of m >= 2 balls that is not point-like by
    one of three paths (see the module docstring), and `prepare_leaf` fixes
    which one by the table it stores: `arcs` for the 2-d arc lookup (None
    only when rounding leaves no arc), with every piece's certificate
    already computed from `interior` and `slack`; `subsets` for the subset
    table when n >= 3 and m <= ENUM_MAX_CENTERS.  A leaf with neither takes
    the pivot, which builds the subset table of each sub-leaf as it goes.
    """

    centers: np.ndarray  # (m, n)
    radii: np.ndarray  # (m,)
    interior: np.ndarray  # the maximum-slack point
    slack: float  # min_i (r_i - |interior - x_i|), clamped at 0
    subsets: SubsetTable | None = None
    arcs: ArcTable | None = None

    @property
    def m(self) -> int:
        return self.centers.shape[0]

    @property
    def dim(self) -> int:
        return self.centers.shape[1]

    @property
    def point_like(self) -> bool:
        """True when the slack is at most POINT_SLACK, whatever the radii (see `_point_support`)."""
        return self.slack <= POINT_SLACK


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
        if r.shape != (m,) or not np.isfinite(r).all():
            raise ValueError("radii must be finite and one per center")
        if np.any(r < 0):
            raise EmptyBodyError("negative constraint radius")

    # about x_0, so that rounding scales with the leaf, not with its distance from the origin
    z = enclosing_ball(X - X[0], r.max() - r)[0] if m > 1 else np.zeros(n)
    slack = float((r - np.linalg.norm(X - X[0] - z, axis=1)).min())
    z += X[0]
    if slack < -FEAS_PAD:
        raise EmptyBodyError(
            f"the m={m} balls in dimension n={n} have empty intersection: "
            f"their maximum-slack point has slack {slack:.3e}"
        )
    leaf = LeafGeometry(X, r, z, max(slack, 0.0))
    if m >= 2 and not leaf.point_like:
        if n == 2:
            leaf = replace(leaf, arcs=_build_arcs(X, r, z, leaf.slack))
        elif m <= ENUM_MAX_CENTERS:
            leaf = replace(leaf, subsets=_build_subsets(X, r))
    for array in (X, r, z, *(leaf.arcs or ())):
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


def _blend(viol, slack):
    """Weight theta = viol / (viol + slack) of the interior point z in the blend y + theta (z - y).

    Where y is outside the disks by at most viol, the blend is in every
    disk j: its distance from x_j is at most (1 - theta) (r_j + viol) +
    theta (r_j - slack) = r_j.
    """
    viol = np.maximum(viol, 0.0)
    return viol / (viol + slack)


def _feasible_lower(X, r, u_arr, y, interior, slack):
    """Lower bound by blending candidate points toward the interior point."""
    d = np.linalg.norm(y[:, None, :] - X[None, :, :], axis=2)
    theta = _blend(np.max(d - r[None, :], axis=1), slack)
    y_f = y + theta[:, None] * (interior[None, :] - y)
    return np.einsum("kn,kn->k", u_arr, y_f)


def _bounds(leaf: LeafGeometry, U, y, lam, idx):
    """Lower and upper bounds of h(u) from candidates (y, lam on idx), per direction.

    The upper bound is the dual bound of (lam, idx), or the single-ball
    bound min_i (<x_i, u> + r_i) where that is lower.
    """
    X, r = leaf.centers, leaf.radii
    ub = np.minimum(_dual_upper(X, r, U, lam, idx), np.min(U @ X.T + r[None, :], axis=1))
    return _feasible_lower(X, r, U, y, leaf.interior, leaf.slack), ub


def _certify(leaf: LeafGeometry, U, y, lam, idx, tol):
    """Certified values of candidates (y, lam on idx) per direction; NaN where the gap exceeds tol."""
    lo, ub = _bounds(leaf, U, y, lam, idx)
    gap = ub - lo
    return np.where((gap <= tol) & (gap >= -1e-9), 0.5 * (lo + ub), np.nan)


# ---------------------------------------------------------------------------
# 2-d: the arc table of a plane ball polygon
# ---------------------------------------------------------------------------


def _pair_vertices(X, r, i, j):
    """Both intersection points of circles i and j (2-d), per pair.

    Returns ok (the pair meets properly: distinct centers, two distinct
    points, independent gradients) and, for the pairs where it holds, the
    points (p, 2, 2).  They are x_i + (beta / |a|^2) a +- sqrt(rho^2 / |a|^2)
    a^perp, a = x_j - x_i.
    """
    a = X[j] - X[i]
    aa = np.einsum("pn,pn->p", a, a)
    beta = 0.5 * (r[i] ** 2 + aa - r[j] ** 2)
    rho2 = r[i] ** 2 - beta**2 / np.where(aa >= 1e-24, aa, 1.0)
    g12 = r[i] ** 2 - beta  # the gradients' Gram entry, and its determinant
    det = r[i] ** 2 * r[j] ** 2 - g12 * g12
    ok = (aa >= 1e-24) & (rho2 > 0.0) & (det > 1e-18)
    i, a, aa, beta, rho2 = (v[ok] for v in (i, a, aa, beta, rho2))
    xi0 = (beta / aa)[:, None] * a
    off = np.sqrt(rho2 / aa)[:, None] * np.column_stack([-a[:, 1], a[:, 0]])
    return ok, X[i][:, None, :] + np.stack([xi0 + off, xi0 - off], axis=1)


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


def _build_arcs(X: np.ndarray, r: np.ndarray, z: np.ndarray, slack: float) -> ArcTable | None:
    """The leaf's arc table; None when rounding leaves no arc (a one-point body).

    z and slack, the leaf's interior point and its slack, certify the pieces.
    """
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
    idx = np.full((2 * K, 2), -1, dtype=np.intp)
    idx[:, 0] = np.repeat(ball, 2)

    # the vertex after arc q joins circle i = ball[q] to circle j = ball[q + 1];
    # of the two points where they meet it is the one at arc q's end.  Without
    # such a pair (the same ball twice, tangent circles), the piece keeps arc
    # q's tangency and the certificate decides.
    i, j = ball, np.roll(ball, -1)
    q = np.flatnonzero(i != j)
    ok, points = _pair_vertices(X, r, i[q], j[q])
    q = q[ok]
    end = X[i[q]] + r[i[q]][:, None] * np.column_stack([np.cos(hi[q]), np.sin(hi[q])])
    near = np.argmin(np.linalg.norm(points - end[:, None, :], axis=2), axis=1)
    pick = np.arange(q.size)
    vertex = 2 * q + 1
    base[vertex] = points[pick, near]
    scale[vertex] = 0.0
    idx[vertex, 1] = j[q]
    gap, offset = _piece_bounds(X, r, z, slack, breaks, base, scale, idx, vertex)
    return ArcTable(breaks, base, scale, idx, gap, offset)


def _piece_bounds(X, r, z, slack, breaks, base, scale, idx, vertex):
    """Each piece's certified interval around L(u), as (gap, offset); see `ArcTable`.

    A piece is the angle interval mid +- half.  Its points base + scale u
    reach from x_j at most sqrt(|d|^2 + scale^2 + 2 scale reach), d = base -
    x_j, where reach, the largest <u, d> over the piece, is |d| when d's
    angle is within half of mid and otherwise the larger end's value,
    cos(half) <u_mid, d> + sin(half) |<u_mid^perp, d>|.  At a vertex,
    scale = 0 and this is |v - x_j|.  `vertex` lists the pieces that are
    vertices of two circles.
    """
    start = breaks - ANGLE_PAD
    length = np.concatenate([breaks[1:], [breaks[0] + TWO_PI]]) + ANGLE_PAD - start
    mid = start + 0.5 * length
    half = np.minimum(0.5 * length, np.pi)
    cm, sm = np.cos(mid)[:, None], np.sin(mid)[:, None]
    ch, sh = np.cos(half)[:, None], np.sin(half)[:, None]
    dx = base[:, :1] - X[:, 0]
    dy = base[:, 1:] - X[:, 1]
    along = dx * cm + dy * sm
    across = np.abs(dy * cm - dx * sm)
    dn = np.hypot(dx, dy)
    reach = np.where(along >= dn * ch, dn, ch * along + sh * across)
    s = scale[:, None]
    far = np.sqrt(np.maximum(dn * dn + s * (s + 2.0 * reach), 0.0))
    lo = _blend((far - r).max(axis=1), slack) * (np.hypot(*(base - z).T) + scale)

    # a vertex's cone runs from n_i to n_j; where the piece overhangs it by
    # alpha, the excess r (1 - cos alpha) is at most r alpha^2 / 2
    hi = np.zeros(breaks.size)
    pair = idx[vertex]
    normal = base[vertex, None, :] - X[pair]
    psi = np.arctan2(normal[..., 1], normal[..., 0])
    width = np.mod(psi[:, 1] - psi[:, 0], TWO_PI)
    before = np.mod(psi[:, 0] - start[vertex] + np.pi, TWO_PI) - np.pi
    over = np.maximum(np.column_stack([before, length[vertex] - before - width]), 0.0)
    hi[vertex] = np.where(width < np.pi, 0.5 * (r[pair] * over * over).max(axis=1), np.inf)
    return lo + hi, scale + 0.5 * (hi - lo)


def _arc_lookup(leaves, Us, tol: float) -> np.ndarray:
    """Certified values by arc lookup (2-d) of every leaf on its own direction rows, in one pass.

    Leaf i takes the rows of Us[i], and the values come back concatenated
    in that order, NaN in a piece certified only within more than tol.  A
    direction's piece is the last of its own leaf's whose break is at most
    its angle phi, taken in [breaks[0], breaks[0] + 2 pi).  For many leaves
    one search finds every piece: keys (leaf, angle) are complex numbers,
    which numpy orders by real part, then by imaginary part, so each phi is
    compared with its own leaf's breaks only, exactly as one leaf's search
    compares it.
    """
    tables = [leaf.arcs for leaf in leaves]
    if len(tables) == 1:  # its own breaks, with nothing to concatenate: half the cost of the search below
        (arcs,), (U,) = tables, Us
        b0 = arcs.breaks[0]
        phi = b0 + np.mod(np.arctan2(U[:, 1], U[:, 0]) - b0, TWO_PI)
        p = arcs.breaks.searchsorted(phi, side="right") - 1  # the method: np.searchsorted's wrapper costs more
        base, offset, gap = arcs.base, arcs.offset, arcs.gap
    else:
        U = np.concatenate(Us)
        owner = np.repeat(np.arange(len(tables)), [len(V) for V in Us])
        b0 = np.array([arcs.breaks[0] for arcs in tables])[owner]
        phi = b0 + np.mod(np.arctan2(U[:, 1], U[:, 0]) - b0, TWO_PI)
        breaks = _keys(
            np.repeat(np.arange(len(tables)), [arcs.breaks.size for arcs in tables]),
            np.concatenate([arcs.breaks for arcs in tables]),
        )
        p = breaks.searchsorted(_keys(owner, phi), side="right") - 1
        base, offset, gap = (np.concatenate(part) for part in zip(*((a.base, a.offset, a.gap) for a in tables)))
    # <base[p], u>, by columns: gathering whole rows of base costs more than the product
    values = base[:, 0][p] * U[:, 0] + base[:, 1][p] * U[:, 1] + offset[p]
    if gap.max() > tol:
        values[gap[p] > tol] = np.nan
    return values


def _keys(group: np.ndarray, value: np.ndarray) -> np.ndarray:
    """The complex numbers group + i value, which numpy orders by group, then by value."""
    keys = np.empty(value.shape, dtype=complex)
    keys.real, keys.imag = group, value
    return keys


def _arc_support(leaf: LeafGeometry, U: np.ndarray, tol: float) -> np.ndarray:
    """Certified values by arc lookup of one leaf (2-d); NaN in a piece certified only within more than tol.

    `support_batch` hands those directions to the pivot.
    """
    return _arc_lookup([leaf], [U], tol)


# ---------------------------------------------------------------------------
# every dimension: the KKT subset table
# ---------------------------------------------------------------------------


def _build_subsets(X: np.ndarray, r: np.ndarray) -> SubsetTable:
    """The leaf's subset table (see `SubsetTable`), from one batch over all subsets.

    Each subset S is padded to n members, as `geometry.padded_subsets` lists
    them.  With A the rows x_k - x_first and G = A A^T, the sphere's center
    is c_S = x_first + gamma A, G gamma = beta, beta_k = (r_first^2 +
    |a_k|^2 - r_k^2) / 2, so its barycentric weights on S's centers are
    bary = (1 - sum gamma, gamma); and P_S = I - A^T G^-1 A.  The
    multipliers solve u = sum_k lam_k (y - x_k), which splits into
    sum_k lam_k (c_S - x_k) = (I - P_S) u and sum_k lam_k = |P_S u| / rho_S.
    The first part is met by lam = (1^T G^-1 A u, -G^-1 A u), which sums to
    0, and adding |P_S u| / rho_S times bary meets the second.  Only G is
    inverted, so nearly coincident centers get large multipliers, not a
    singular system.  At the two points c_S +- rho_S e of an n-subset, with
    e the unit normal of its centers' hyperplane, sum_k lam_k =
    +-<e, u> / rho_S instead.
    """
    m, n = X.shape
    idx, pad = padded_subsets(m, n)
    idx, pad = idx[1:], pad[1:]  # the empty subset has no sphere
    real = idx >= 0
    size = real.sum(axis=1)
    first = idx[:, 0]
    A = np.where(real[:, 1:, None], X[idx[:, 1:]] - X[first][:, None, :], 0.0)
    beta = 0.5 * (r[first, None] ** 2 + np.einsum("ckn,ckn->ck", A, A) - r[idx[:, 1:]] ** 2)
    beta = np.where(real[:, 1:], beta, 0.0)
    gram = A @ A.transpose(0, 2, 1) + pad[:, 1:, 1:]
    # affinely dependent centers: no sphere of their own
    ok = np.linalg.det(gram) > 1e-12 * gram.diagonal(axis1=1, axis2=2).prod(axis=1)
    gram[~ok] = np.eye(n - 1)
    gamma = np.linalg.solve(gram, beta[:, :, None])[:, :, 0]
    xi0 = np.einsum("ck,ckn->cn", gamma, A)
    rho2 = r[first] ** 2 - np.einsum("cn,cn->c", xi0, xi0)
    ok &= (size == 1) | (rho2 > 0.0)
    idx, size, A, gram, gamma, xi0, rho2 = (v[ok] for v in (idx, size, A, gram, gamma, xi0, rho2))
    center = X[idx[:, 0]] + xi0
    rho = np.sqrt(rho2)
    solved = np.linalg.solve(gram, A)  # (A A^T)^-1 A
    proj = np.eye(n) - A.transpose(0, 2, 1) @ solved
    lin = np.concatenate([solved.sum(axis=1, keepdims=True), -solved], axis=1)
    bary = np.column_stack([1.0 - gamma.sum(axis=1), gamma])  # c_S = sum_k bary_k x_k
    norm = np.divide(bary, rho[:, None], out=np.zeros(bary.shape), where=rho[:, None] > 0)

    moving = size < n
    diff = center[moving][:, None, :] - X[None, :, :]
    lift = 2.0 * rho[moving][:, None, None] * (diff @ proj[moving])
    room = (r + FEAS_PAD) ** 2 - np.einsum("qmn,qmn->qm", diff, diff) - rho2[moving][:, None]

    # n-subsets: the points c_S +- rho_S e, where P_S = e e^T, each with lam = G u
    vertex = ~moving
    P = proj[vertex]
    rows, j = np.arange(P.shape[0]), P.diagonal(axis1=1, axis2=2).argmax(axis=1)
    e = P[rows, j] / np.sqrt(P[rows, j, j])[:, None]
    sign = np.array([1.0, -1.0])[None, :, None]
    points = (center[vertex][:, None, :] + sign * (rho[vertex][:, None] * e)[:, None, :]).reshape(-1, n)
    turn = sign[..., None] * (norm[vertex][:, :, None] * e[:, None, :])[:, None]
    ginv = (lin[vertex][:, None] + turn).reshape(-1, n, n)
    keep = np.all(np.linalg.norm(points[:, None, :] - X[None, :, :], axis=2) <= r + FEAS_PAD, axis=1)
    table = SubsetTable(
        np.concatenate([center[moving], points[keep]]),
        rho[moving],
        proj[moving],
        np.concatenate([lin[moving], ginv[keep]]),
        norm[moving],
        lift,
        room,
        np.concatenate([idx[moving], np.repeat(idx[vertex], 2, axis=0)[keep]]),
    )
    for array in table:
        array.flags.writeable = False
    return table


def _subset_optimum(table: SubsetTable, U: np.ndarray):
    """Per direction, the first table row of largest value whose point and multipliers are valid.

    Returns found (some row is valid), and the winner's point y (k, n),
    multipliers (k, n) and constraint indices (k, n).  Per-row products keep
    the directions on the last axis, so the reductions run over whole rows,
    and are stacked, one small matrix per row: OpenBLAS runs each below its
    threading threshold, where one large product would wake its threads.
    """
    k, n = U.shape
    q = table.radius.size
    UT = U.T
    PU = table.proj @ UT
    npu = np.sqrt(np.einsum("qnk,qnk->qk", PU, PU))
    lam = table.lin @ UT
    lam[:q] += table.norm[:, :, None] * npu[:, None, :]
    vals = (table.center[:, None, :] @ UT)[:, 0]
    vals[:q] += table.radius[:, None] * npu
    valid = lam.min(axis=1) >= -LAMBDA_PAD
    # a moving point leaves ball j where <lift_j, u> > room_j |P_S u|
    reach = table.lift @ UT
    valid[:q] &= (npu > 1e-12) & np.all(reach <= table.room[:, :, None] * npu[:, None, :], axis=1)
    vals[~valid] = -np.inf
    win = np.argmax(vals, axis=0)  # first maximum: the earliest row wins ties
    cols = np.arange(k)
    y = table.center[win]
    move = np.flatnonzero(win < q)
    w = win[move]
    y[move] += (table.radius[w] / npu[w, move])[:, None] * PU[w, :, move]
    return np.isfinite(vals[win, cols]), y, lam[win, :, cols], table.idx[win]


def _enumerate_support(leaf: LeafGeometry, U: np.ndarray, tol: float) -> np.ndarray:
    """Certified values from the leaf's subset table; NaN where no candidate certifies."""
    found, y, lam, idx = _subset_optimum(leaf.subsets, U)
    values = _certify(leaf, U, y, lam, idx, tol)
    return np.where(found, values, np.nan)


# ---------------------------------------------------------------------------
# LP-type pivot (large leaves, or table fallout)
# ---------------------------------------------------------------------------


def _pivot_support(leaf: LeafGeometry, U: np.ndarray, tol: float) -> np.ndarray:
    """Certified values by basis pivoting, for all directions at once.

    The leaf problem is LP-type with combinatorial dimension n
    (Matousek-Sharir-Welzl, Algorithmica 1996).  Each direction starts from
    the ball of least single-ball bound.  Per round, its sub-leaf is its
    basis plus the ball its optimum violates most, and the winner of the
    sub-leaf's subset table gives the new optimum and, by its tight balls,
    the new basis.  A sub-leaf's body holds the leaf's, and a strictly
    convex body has one maximizer, so the optimum falls until it lies in
    every ball; a round where rounding keeps it from falling also ends the
    direction.  Raises NoConvergenceError where the last candidate does not
    certify.
    """
    X, r = leaf.centers, leaf.radii
    k, n = U.shape
    sub = np.full((k, n + 1), -1, dtype=np.intp)  # each direction's sub-leaf
    sub[:, 0] = np.argmin(U @ X.T + r, axis=1)
    y, lam, idx = np.zeros((k, n)), np.zeros((k, n)), np.full((k, n), -1, dtype=np.intp)
    best = np.full(k, np.inf)
    live = np.arange(k)
    while live.size:
        rows, inv = np.unique(np.sort(sub[live], axis=1), axis=0, return_inverse=True)
        found, ny, nlam = np.zeros(live.size, dtype=bool), np.zeros((live.size, n)), np.zeros((live.size, n))
        nidx = np.full((live.size, n), -1, dtype=np.intp)
        for g, row in enumerate(rows):  # one table per distinct sub-leaf
            sel, members = np.flatnonzero(inv.ravel() == g), row[row >= 0]
            table = _build_subsets(X[members], r[members])
            found[sel], ny[sel], nlam[sel], local = _subset_optimum(table, U[live[sel]])
            nidx[sel] = np.where(local >= 0, members[local], -1)
        value = np.einsum("kn,kn->k", U[live], ny)
        fell = found & (value < best[live])
        live, ny, nidx = live[fell], ny[fell], nidx[fell]
        y[live], lam[live], idx[live], best[live] = ny, nlam[fell], nidx, value[fell]
        viol = np.linalg.norm(ny[:, None, :] - X, axis=2) - r
        j = np.argmax(viol, axis=1)
        out = viol[np.arange(live.size), j] > FEAS_PAD
        live = live[out]
        sub[live] = np.column_stack([nidx[out], j[out]])

    values = _certify(leaf, U, y, lam, idx, tol)
    i = np.flatnonzero(np.isnan(values))[:1]
    if i.size:
        lo, ub = _bounds(leaf, U[i], y[i], lam[i], idx[i])
        raise NoConvergenceError(
            f"support solve failed to certify tolerance {tol} in dimension n={n} with m={leaf.m} balls, "
            f"direction {U[i[0]].tolist()}: achieved gap ub - lo = {ub[0] - lo[0]:.3g}"
        )
    return values


# ---------------------------------------------------------------------------
# public entry point
# ---------------------------------------------------------------------------


def _point_support(leaf: LeafGeometry, U: np.ndarray, tol: float) -> np.ndarray:
    """Values of a point-like leaf, proven within tol; NoConvergenceError where they are not.

    With z* the maximum-slack point, s* its slack and R = max r_i, the body
    holds B(z*, s*) and lies in B(z*, rho), rho^2 = s* (2 R - s*): z* = sum
    mu_i x_i over the centers active there, so each y in the body has |y -
    z*|^2 = sum mu_i (|y - x_i|^2 - (r_i - s*)^2) <= rho^2.  Shrinking the
    balls by the slack s_z of the computed z keeps z* and puts z within
    sqrt(2 R (s* - s_z)) of it.  `prepare_leaf` computes z and s relative to
    x_0 for such a leaf, so a rounding pad = 8 eps (max |x_i - x_0| + R) on
    s covers the leaf's own size, and adding x_0 back moves z by at most
    eps |z|.  So h(u) - <z, u> lies in [s - pad - e, sqrt(2 R (s + pad)) +
    e], e = 2 sqrt(R pad) + eps |z|, and so does the value returned.
    """
    X, r = leaf.centers, leaf.radii
    s, R = leaf.slack, float(r.max())
    eps = np.finfo(float).eps
    pad = 8.0 * eps * (float(np.linalg.norm(X - X[0], axis=1).max()) + R)
    e = 2.0 * np.sqrt(R * pad) + eps * float(np.linalg.norm(leaf.interior))
    rho = np.sqrt(2.0 * R * (s + pad)) + e
    if rho - s + pad + e > tol:
        raise NoConvergenceError(
            f"support solve failed to certify tolerance {tol} in dimension n={leaf.dim} with m={leaf.m} "
            f"balls: a point-like leaf, slack {s:.3g}, within rho = {rho:.3g} of its interior point"
        )
    return U @ leaf.interior + 0.5 * (s + np.sqrt(s * (2.0 * R - s)))


def support_batch(leaf: LeafGeometry, dirs: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Support values of the leaf body for unit direction rows of `dirs`, each within `tol`."""
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
        return _point_support(leaf, U, tol)

    if leaf.arcs is not None:
        values = _arc_support(leaf, U, tol)
    elif leaf.subsets is not None:
        values = _enumerate_support(leaf, U, tol)
    else:
        values = np.full(U.shape[0], np.nan)
    return _pivot_fallout(leaf, U, values, tol)


def arc_support_batch(leaves, dirs, tol: float) -> np.ndarray:
    """Support values of 2-d leaves with arc tables, leaf i on the unit direction rows of dirs[i], each within tol.

    The values come back concatenated in that order.  One arc lookup serves
    every leaf; a direction whose piece is not proven takes its leaf's
    pivot, as in `support_batch`, whose values these are.
    """
    values = _arc_lookup(leaves, dirs, tol)
    if np.isnan(values).any():
        start = 0
        for leaf, U in zip(leaves, dirs):
            _pivot_fallout(leaf, U, values[start : start + len(U)], tol)
            start += len(U)
    return values


def _pivot_fallout(leaf: LeafGeometry, U: np.ndarray, values: np.ndarray, tol: float) -> np.ndarray:
    """`values` of the directions U, with each NaN, a direction its table left uncertified, from the pivot."""
    rest = np.flatnonzero(np.isnan(values))
    if rest.size:
        values[rest] = _pivot_support(leaf, U[rest], tol)
    return values
