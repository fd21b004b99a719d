"""Certified support solver vs. independent optimization oracles."""

import itertools
import math

import numpy as np
import pytest
from scipy.optimize import minimize

from ballbodies.errors import EmptyBodyError, NoConvergenceError
from ballbodies.geometry import make_sphere_net, minimal_enclosing_ball
from ballbodies import solver
from ballbodies.solver import (
    DEFAULT_TOL,
    FEAS_PAD,
    LAMBDA_PAD,
    _arc_lookup,
    _dual_upper,
    _enumerate_support,
    _feasible_lower,
    prepare_leaf,
    support_batch,
)


def slsqp_support(centers, radii, u) -> float:
    """Independent oracle: maximize <u, y> with ball constraints via SLSQP.

    The problem is convex, so a few starts suffice: the centroid and the 4
    centres farthest along u, each with two option sets.
    """
    centers = np.asarray(centers, dtype=float)
    radii = np.asarray(radii, dtype=float)
    cons = [
        {
            "type": "ineq",
            "fun": (lambda y, c=c, r=r: r**2 - np.sum((y - c) ** 2)),
            "jac": (lambda y, c=c: -2.0 * (y - c)),
        }
        for c, r in zip(centers, radii)
    ]
    def feasible(y):
        return np.all(np.linalg.norm(y - centers, axis=1) <= radii + 1e-9)

    best = -np.inf
    starts = [centers.mean(axis=0)] + list(centers[np.argsort(centers @ u)[-4:]])
    for start in starts:
        for opts in ({"maxiter": 400, "ftol": 1e-14}, {"maxiter": 1000, "ftol": 1e-12}):
            res = minimize(
                lambda y: -(u @ y),
                start,
                jac=lambda y: -u,
                constraints=cons,
                method="SLSQP",
                options=opts,
            )
            if feasible(res.x):
                best = max(best, float(u @ res.x))
    assert np.isfinite(best), "oracle failed to find a feasible point"
    return best


def unit_dirs(n, count, seed):
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((count, n))
    return u / np.linalg.norm(u, axis=1, keepdims=True)


def test_single_ball_closed_form():
    leaf = prepare_leaf(np.array([[0.3, -0.2]]))
    dirs = unit_dirs(2, 40, 0)
    vals = support_batch(leaf, dirs)
    np.testing.assert_allclose(vals, dirs @ np.array([0.3, -0.2]) + 1.0, atol=1e-14)


def test_lens_support_closed_form():
    # two unit disks centered (0,0) and (1,0): tips at (1/2, +-sqrt(3)/2)
    leaf = prepare_leaf(np.array([[0.0, 0.0], [1.0, 0.0]]))
    e1 = np.array([[1.0, 0.0]])
    e2 = np.array([[0.0, 1.0]])
    assert support_batch(leaf, e1)[0] == pytest.approx(1.0, abs=1e-9)
    assert support_batch(leaf, e2)[0] == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-9)
    # dense grid maximization cross-check for the tip direction
    theta = np.linspace(0, 2 * math.pi, 40000, endpoint=False)
    boundary1 = np.column_stack([np.cos(theta), np.sin(theta)])
    boundary2 = boundary1 + np.array([1.0, 0.0])
    pts = np.vstack([boundary1, boundary2])
    inside = (np.linalg.norm(pts, axis=1) <= 1 + 1e-9) & (
        np.linalg.norm(pts - np.array([1.0, 0.0]), axis=1) <= 1 + 1e-9
    )
    assert abs(np.max(pts[inside][:, 1]) - math.sqrt(3.0) / 2.0) < 1e-4


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("seed", range(4))
def test_random_leaves_match_slsqp(dim, seed):
    rng = np.random.default_rng(100 + seed)
    m = int(rng.integers(2, 6))
    centers = rng.uniform(-0.5, 0.5, size=(m, dim))
    leaf = prepare_leaf(centers)
    dirs = unit_dirs(dim, 12, seed)
    vals = support_batch(leaf, dirs, tol=1e-8)
    for u, v in zip(dirs, vals):
        oracle = slsqp_support(centers, np.ones(m), u)
        assert v == pytest.approx(oracle, abs=5e-7)


def test_varied_radii_match_slsqp():
    rng = np.random.default_rng(7)
    centers = rng.uniform(-1.0, 1.0, size=(6, 2))
    radii = rng.uniform(1.2, 2.5, size=6)
    leaf = prepare_leaf(centers, radii)
    dirs = unit_dirs(2, 10, 3)
    vals = support_batch(leaf, dirs, tol=1e-8)
    for u, v in zip(dirs, vals):
        oracle = slsqp_support(centers, radii, u)
        assert v == pytest.approx(oracle, abs=5e-7)


def plane_vertices(centers, radii):
    """Every common point of two circles that lies in every disk (within 1e-9), with its pair (i, j)."""
    X, r = np.asarray(centers, dtype=float), np.asarray(radii, dtype=float)
    i, j = np.triu_indices(len(X), 1)
    a = X[j] - X[i]
    d = np.linalg.norm(a, axis=1)
    along = (r[i] ** 2 + d**2 - r[j] ** 2) / (2.0 * np.where(d > 0.0, d, 1.0))
    meet = (d > 0.0) & (r[i] ** 2 - along**2 >= 0.0)
    i, j, a, d, along = i[meet], j[meet], a[meet], d[meet], along[meet]
    across = np.sqrt(r[i] ** 2 - along**2)
    perp = np.column_stack([-a[:, 1], a[:, 0]])
    points = np.vstack(
        [X[i] + (along[:, None] * a + (sign * across)[:, None] * perp) / d[:, None] for sign in (1.0, -1.0)]
    )
    i, j = np.tile(i, 2), np.tile(j, 2)
    feasible = np.all(np.linalg.norm(points[:, None, :] - X[None], axis=2) <= r + 1e-9, axis=1)
    return points[feasible], i[feasible], j[feasible]


def plane_vertex_support(centers, radii, u) -> float:
    """Exact oracle in the plane: the best of every feasible tangency x_i + r_i u
    and every feasible common point of two circles (where a linear function
    peaks on a ball polygon)."""
    X, r = np.asarray(centers, dtype=float), np.asarray(radii, dtype=float)
    tangency = X + r[:, None] * u
    feasible = np.all(np.linalg.norm(tangency[:, None, :] - X[None], axis=2) <= r + 1e-9, axis=1)
    return float(np.max(np.vstack([tangency[feasible], plane_vertices(X, r)[0]]) @ u))


def test_many_balls_guided_path():
    # 81 balls of general radii, many of them redundant: the arc table keeps
    # only the balls that own an arc of the boundary
    rng = np.random.default_rng(11)
    grid = np.stack(np.meshgrid(np.linspace(-2, 2, 9), np.linspace(-2, 2, 9)), -1).reshape(-1, 2)
    radii = np.linalg.norm(grid, axis=1) + 1.0 + rng.uniform(0, 0.2, grid.shape[0])
    leaf = prepare_leaf(grid, radii)
    dirs = unit_dirs(2, 8, 9)
    vals = support_batch(leaf, dirs, tol=1e-8)
    for u, v in zip(dirs, vals):
        oracle = plane_vertex_support(grid, radii, u)
        assert v == pytest.approx(oracle, abs=1e-6)


def test_four_dimensional_leaf():
    rng = np.random.default_rng(23)
    centers = rng.uniform(-0.4, 0.4, size=(5, 4))
    leaf = prepare_leaf(centers)
    dirs = unit_dirs(4, 6, 2)
    vals = support_batch(leaf, dirs, tol=1e-7)
    for u, v in zip(dirs, vals):
        oracle = slsqp_support(centers, np.ones(5), u)
        assert v == pytest.approx(oracle, abs=1e-6)


def test_near_degenerate_lens():
    # centers almost 2 apart: a sliver body; the solver must still certify
    d = 2.0 - 1e-6
    leaf = prepare_leaf(np.array([[0.0, 0.0], [d, 0.0]]))
    tip = math.sqrt(1.0 - (d / 2.0) ** 2)
    e2 = np.array([[0.0, 1.0]])
    assert support_batch(leaf, e2)[0] == pytest.approx(tip, abs=1e-6)


def test_exactly_tangent_pair_is_a_point():
    leaf = prepare_leaf(np.array([[0.0, 0.0], [2.0, 0.0]]))
    assert leaf.point_like
    dirs = unit_dirs(2, 16, 1)
    vals = support_batch(leaf, dirs)
    np.testing.assert_allclose(vals, dirs @ np.array([1.0, 0.0]), atol=1e-7)


@pytest.mark.parametrize("dim", [2, 3])
def test_singleton_leaf_matches_enclosing_ball_path(dim):
    rng = np.random.default_rng(dim)
    for radius in (1.0, 0.0, *rng.uniform(0.1, 3.0, 4)):
        center = rng.uniform(-3.0, 3.0, size=(1, dim))
        leaf = prepare_leaf(center, radii=np.array([radius]))
        meb = minimal_enclosing_ball(center)
        np.testing.assert_array_equal(leaf.interior, meb.center)
        assert leaf.slack == radius - meb.radius
        assert leaf.point_like == (radius == 0.0)


def test_one_ball_leaf_skips_the_enclosing_ball(monkeypatch):
    def refuse(*args):
        raise AssertionError("a one-ball leaf needs no enclosing ball")

    monkeypatch.setattr(solver, "enclosing_ball", refuse)
    leaf = prepare_leaf(np.array([[0.3, -0.2, 0.5]]), radii=np.array([0.7]))
    np.testing.assert_array_equal(leaf.interior, [0.3, -0.2, 0.5])
    assert leaf.slack == 0.7 and not leaf.point_like


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("radii", [(1.0, 1.0), (0.5, 1.5), (2.0, 0.0)])
def test_tangent_pairs_of_any_radii_are_exact_points(dim, radii):
    # balls that touch in one point p: every value is <p, u>, whatever the radii
    e = np.eye(dim)[0]
    r = np.array(radii)
    leaf = prepare_leaf(np.array([0.2 * e, (0.2 + r.sum()) * e]), r)
    assert leaf.point_like and leaf.slack == 0.0
    np.testing.assert_allclose(leaf.interior, (0.2 + r[0]) * e, atol=1e-15)
    dirs = unit_dirs(dim, 50, 1)
    np.testing.assert_array_equal(support_batch(leaf, dirs), dirs @ leaf.interior)


@pytest.mark.parametrize("offset", [20.0, 100.0])
def test_tangent_pairs_far_from_the_origin_certify(offset):
    # the slack and its rounding pad are taken about the first center, so they scale with the leaf
    p = np.array([offset, 0.0])
    leaf = prepare_leaf(np.array([p - [1.0, 0.0], p + [1.0, 0.0]]))
    assert leaf.point_like
    dirs = unit_dirs(2, 50, 2)
    np.testing.assert_allclose(support_batch(leaf, dirs), dirs @ p, rtol=0, atol=DEFAULT_TOL)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_thin_lens_is_within_tol_of_its_height_or_raises(dim):
    # centers 2 - 2e-14 apart: slack 1e-14, height sqrt(1 - (1 - 1e-14)^2) = 1.41e-7
    c = 1.0 - 1e-14
    e = np.eye(dim)[-1]
    leaf = prepare_leaf(np.array([-c * np.eye(dim)[0], c * np.eye(dim)[0]]))
    assert leaf.point_like
    height = math.sqrt((1.0 - c) * (1.0 + c))
    assert support_batch(leaf, e)[0] == pytest.approx(height, abs=DEFAULT_TOL)
    with pytest.raises(NoConvergenceError, match=rf"1e-09 in dimension n={dim} with m=2 balls: a point-like leaf, slack"):
        support_batch(leaf, e, 1e-9)


def test_thin_leaves_of_any_radii_lie_within_the_slack_radius():
    # the maximum-slack point z0 lies between the first two centers, so every
    # value h(u) - <z, u> is at most rho = sqrt(s (2 max r - s)); equal radii
    # on the first two make a lens as wide as rho
    rng = np.random.default_rng(0)
    ratios = []
    for dim in (2, 3):
        dirs = make_sphere_net(dim, 0.05 if dim == 2 else 0.1).directions
        for k in range(80):
            m = int(rng.integers(dim + 1, dim + 4))
            E = rng.normal(size=(m, dim))
            E /= np.linalg.norm(E, axis=1, keepdims=True)
            E[1] = -E[0]
            z0, d, s = rng.uniform(-1.0, 1.0, dim), rng.uniform(0.5, 2.0, m), 10.0 ** rng.uniform(-6, -3)
            if k % 2:
                d[:2] = 2.0
            extra = np.concatenate([[1.0, 1.0], rng.uniform(1.0, 4.0, m - 2)])  # the rest are not tight
            leaf = prepare_leaf(z0 + d[:, None] * E, d + s * extra)
            assert leaf.slack == pytest.approx(s, abs=1e-12) and not leaf.point_like
            rho = math.sqrt(leaf.slack * (2.0 * leaf.radii.max() - leaf.slack))
            reach = np.max(support_batch(leaf, dirs) - dirs @ leaf.interior)
            assert reach <= rho + DEFAULT_TOL  # the values are within tol
            ratios.append(reach / rho)
    assert len(ratios) == 160 and max(ratios) > 0.999


def test_no_convergence_names_leaf_direction_and_gap():
    # a tolerance below the rounding of the certificate cannot be met; 3-d
    # leaves past the subset table reach the pivot
    rng = np.random.default_rng(0)
    errors = []
    for _ in range(20):
        leaf = prepare_leaf(rng.uniform(-0.3, 0.3, size=(9, 3)))
        dirs = unit_dirs(3, 4, int(rng.integers(1000)))
        try:
            support_batch(leaf, dirs, 1e-300)
        except NoConvergenceError as exc:
            errors.append((dirs, str(exc)))
    assert errors
    dirs, message = errors[0]
    assert "n=3" in message and "m=9" in message
    assert any(f"direction {u.tolist()}" in message for u in dirs)
    gap = float(message.rsplit("ub - lo = ", 1)[1])
    assert 1e-300 < gap <= DEFAULT_TOL


def test_empty_intersection_rejected():
    # both pairs have their maximum-slack point at (1.25, 0), with slack -0.25;
    # the triangle's circumradius is 17/16
    with pytest.raises(EmptyBodyError, match=r"m=2 balls in dimension n=2 .* slack -2\.500e-01"):
        prepare_leaf(np.array([[0.0, 0.0], [2.5, 0.0]]))
    with pytest.raises(EmptyBodyError, match=r"m=2 balls in dimension n=2 .* slack -2\.500e-01"):
        prepare_leaf(np.array([[0.0, 0.0], [3.0, 0.0]]), radii=np.array([1.0, 1.5]))
    with pytest.raises(EmptyBodyError, match=r"m=3 balls in dimension n=3 .* slack -6\.250e-02"):
        prepare_leaf(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, 2.0, 0.0]]))


def point_reconstruction_leaf():
    """The 169 probe balls of a 13 x 13 grid on [-3, 3]^2 that reach 2 tol past the point (0.2, -0.1)."""
    axis = np.arange(-3.0, 3.0 + 1e-9, 0.5)
    probes = np.stack(np.meshgrid(axis, axis, indexing="ij"), -1).reshape(-1, 2)
    return probes, np.linalg.norm(probes - [0.2, -0.1], axis=1) + 2 * DEFAULT_TOL


def test_point_body_reconstruction_leaf_has_the_inflation_as_slack():
    # the 169 probe balls around a point all pass within 2 tol of it, so the
    # maximum slack is the 2 tol inflation
    from ballbodies.geometry import make_sphere_net
    from ballbodies.support import default_mesh

    net = make_sphere_net(2, default_mesh(2))
    leaf = prepare_leaf(*point_reconstruction_leaf())
    assert abs(leaf.slack - 2 * DEFAULT_TOL) <= 1e-9
    # every direction certifies, and the reconstruction contains the point
    # and lies within 1e-5 of it
    excess = support_batch(leaf, net.directions) - net.directions @ [0.2, -0.1]
    assert np.all(excess >= -DEFAULT_TOL) and np.all(excess <= 1e-5)


def test_four_dimensional_leaves_certify_on_a_whole_net(monkeypatch):
    # a vertex optimum in R^4 has 4 tight balls; the certificate needs all of
    # them, and the subset table alone certifies every direction
    from ballbodies.geometry import make_sphere_net

    net = make_sphere_net(4, 0.5)
    assert len(net) == 512
    rng = np.random.default_rng(7)
    for m in (4, 4, 5, 5, 6, 6):
        centers = rng.uniform(-0.4, 0.4, size=(m, 4))
        leaf = prepare_leaf(centers)
        assert_table_is_kkt_data(leaf)
        with monkeypatch.context() as patch:
            refuse_fallback(patch)
            vals = support_batch(leaf, net.directions)
        for i in rng.choice(len(net), size=4, replace=False):
            u = net.directions[i]
            assert vals[i] == pytest.approx(slsqp_support(centers, np.ones(m), u), abs=1e-6)


def reconstruction_leaf_3d():
    """27 probe balls on a 3 x 3 x 3 grid over [-3, 3]^3 that reach 0.5 + 2e-6 past a point."""
    axis = np.linspace(-3.0, 3.0, 3)
    probes = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1).reshape(-1, 3)
    return probes, np.linalg.norm(probes - [0.2, -0.1, 0.05], axis=1) + 0.5 + 2e-6


@pytest.mark.parametrize("kind, dim, m", [("unit", 3, 9), ("unit", 3, 64), ("reconstruction", 3, 27), ("unit", 4, 32)])
def test_pivot_certifies_leaves_past_the_subset_table(kind, dim, m):
    from ballbodies.geometry import make_sphere_net

    rng = np.random.default_rng(m)
    if kind == "unit":
        centers, radii = rng.uniform(-0.4, 0.4, size=(m, dim)), np.ones(m)
    else:
        centers, radii = reconstruction_leaf_3d()
    leaf = prepare_leaf(centers, radii)
    assert leaf.m == m and leaf.subsets is None and leaf.arcs is None
    dirs = make_sphere_net(dim, 0.5).directions
    values = support_batch(leaf, dirs)
    assert np.all(np.isfinite(values))
    for i in rng.choice(len(dirs), size=2, replace=False):
        assert values[i] == pytest.approx(slsqp_support(centers, radii, dirs[i]), abs=1e-6)


@pytest.mark.parametrize("dim, m", [(3, 9), (4, 10)])
def test_pivot_matches_a_raised_subset_table(dim, m, monkeypatch):
    rng = np.random.default_rng(m)
    centers = rng.uniform(-0.4, 0.4, size=(m, dim))
    dirs = unit_dirs(dim, 200, m)
    pivot = support_batch(prepare_leaf(centers), dirs)
    monkeypatch.setattr(solver, "ENUM_MAX_CENTERS", m)
    leaf = prepare_leaf(centers)
    assert leaf.subsets is not None
    refuse_fallback(monkeypatch)
    assert np.max(np.abs(support_batch(leaf, dirs) - pivot)) <= DEFAULT_TOL


def test_sublinearity_of_leaf_support():
    rng = np.random.default_rng(42)
    centers = rng.uniform(-0.5, 0.5, size=(4, 2))
    leaf = prepare_leaf(centers)
    for _ in range(50):
        u = rng.standard_normal(2)
        v = rng.standard_normal(2)
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        w = u + v
        nw = np.linalg.norm(w)
        if nw < 1e-6:
            continue
        hu, hv, hw = support_batch(leaf, np.array([u, v, w / nw]), tol=1e-8)
        assert nw * hw <= hu + hv + 4e-8


def test_deterministic_values():
    rng = np.random.default_rng(5)
    centers = rng.uniform(-0.6, 0.6, size=(4, 3))
    leaf = prepare_leaf(centers)
    dirs = unit_dirs(3, 50, 8)
    a = support_batch(leaf, dirs)
    b = support_batch(prepare_leaf(centers), dirs)
    np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# the leaf's table against per-call enumeration of every pair and triple
# ---------------------------------------------------------------------------


def reference_enumerate_support(leaf, U, tol):
    """Per-call KKT enumeration that re-solves every pair and triple, as the reference.

    Candidates in order (singles, pairs, triples); a later one wins only
    when strictly better.
    """
    X, r = leaf.centers, leaf.radii
    m, n = X.shape
    k = U.shape[0]
    best_val = np.full(k, -np.inf)
    best_y = np.zeros((k, n))
    best_lam = np.zeros((k, 3))
    best_idx = np.full((k, 3), -1, dtype=np.intp)

    def consider(val, y, lam, idx, valid):
        take = valid & (val > best_val)
        best_val[take] = val[take]
        best_y[take] = y[take]
        best_lam[take] = lam[take]
        best_idx[take] = idx

    single_ub = U @ X.T + r[None, :]
    for i in range(m):
        y = X[i][None, :] + r[i] * U
        feas = np.all(np.linalg.norm(y[:, None, :] - X[None], axis=2) <= r + FEAS_PAD, axis=1)
        lam = np.zeros((k, 3))
        lam[:, 0] = 1.0 / r[i] if r[i] > 0 else 0.0
        consider(single_ub[:, i], y, lam, [i, -1, -1], feas)

    for i, j in itertools.combinations(range(m), 2):
        a = X[j] - X[i]
        aa = float(a @ a)
        if aa < 1e-24:
            continue
        beta = 0.5 * (r[i] ** 2 + aa - r[j] ** 2)
        rho2 = r[i] ** 2 - beta**2 / aa
        if rho2 <= 0.0:
            continue
        w = U - ((U @ a) / aa)[:, None] * a[None, :]
        nw = np.linalg.norm(w, axis=1)
        okw = nw > 1e-12
        xi = (beta / aa) * a + np.sqrt(rho2) * w / np.where(okw, nw, 1.0)[:, None]
        y = X[i] + xi
        g12 = r[i] ** 2 - beta
        det = r[i] ** 2 * r[j] ** 2 - g12 * g12
        b1 = np.einsum("kn,kn->k", xi, U)
        b2 = b1 - U @ a
        det_safe = det if det > 1e-18 else 1.0
        lam1 = (r[j] ** 2 * b1 - g12 * b2) / det_safe
        lam2 = (r[i] ** 2 * b2 - g12 * b1) / det_safe
        feas = np.all(np.linalg.norm(y[:, None, :] - X[None], axis=2) <= r + FEAS_PAD, axis=1)
        valid = okw & (det > 1e-18) & (lam1 >= -LAMBDA_PAD) & (lam2 >= -LAMBDA_PAD) & feas
        lam = np.stack([lam1, lam2, np.zeros(k)], axis=1)
        consider(np.einsum("kn,kn->k", U, y), y, lam, [i, j, -1], valid)

    if n == 3:
        for i, j, l in itertools.combinations(range(m), 3):
            a2, a3 = X[j] - X[i], X[l] - X[i]
            g22, g23, g33 = a2 @ a2, a2 @ a3, a3 @ a3
            detg = g22 * g33 - g23 * g23
            if detg < 1e-18:
                continue
            b2 = 0.5 * (r[i] ** 2 + g22 - r[j] ** 2)
            b3 = 0.5 * (r[i] ** 2 + g33 - r[l] ** 2)
            xi0 = ((g33 * b2 - g23 * b3) * a2 + (g22 * b3 - g23 * b2) * a3) / detg
            rho2 = r[i] ** 2 - float(xi0 @ xi0)
            if rho2 <= 0.0:
                continue
            v = np.cross(a2, a3)
            v /= np.linalg.norm(v)
            for sgn in (1.0, -1.0):
                xi = xi0 + sgn * np.sqrt(rho2) * v
                y = X[i] + xi
                if np.any(np.linalg.norm(y - X, axis=1) > r + FEAS_PAD):
                    continue
                lam = U @ np.linalg.inv(np.stack([xi, xi - a2, xi - a3], axis=1)).T
                valid = np.all(lam >= -LAMBDA_PAD, axis=1)
                consider(U @ y, np.broadcast_to(y, (k, 3)), lam, [i, j, l], valid)

    values = np.full(k, np.nan)
    ub = np.minimum(_dual_upper(X, r, U, best_lam, best_idx), np.min(single_ub, axis=1))
    lo = _feasible_lower(X, r, U, best_y, leaf.interior, leaf.slack)
    gap = ub - lo
    certified = np.isfinite(best_val) & (gap <= tol) & (gap >= -1e-9)
    values[certified] = 0.5 * (lo[certified] + ub[certified])
    return values


def assert_table_is_kkt_data(leaf):
    """Table points are feasible and tight on their subset; with n >= 3 their multipliers solve u = sum lam_k (y - x_k).

    In 2-d the table is the arc table, whose arcs are the tangencies of the
    balls that own them and whose vertices join consecutive arcs' circles
    in a point of every disk.  For n >= 3 it is the subset table: its rows
    run by size, then lexicographically; a row of fewer than n balls gives,
    per direction, a point on all of its spheres from its projector, and
    each n-subset point is checked as a vertex, multipliers included.
    """
    X, r = leaf.centers, leaf.radii
    n = X.shape[1]
    u = unit_dirs(n, 5, 0)
    if n == 2:
        arcs = leaf.arcs
        assert arcs is not None and leaf.subsets is None
        assert np.all(np.diff(arcs.breaks) >= 0.0)
        assert arcs.breaks[-1] <= arcs.breaks[0] + 2 * math.pi
        owner = arcs.idx[0::2, 0]
        np.testing.assert_array_equal(arcs.base[0::2], X[owner])
        np.testing.assert_array_equal(arcs.scale[0::2], r[owner])
        np.testing.assert_array_equal(arcs.idx[0::2, 1], -1)
        vertex = arcs.idx[1::2, 1] >= 0
        assert vertex.all() or owner.size == 1  # every gap between two arcs is a vertex
        np.testing.assert_array_equal(arcs.idx[1::2][vertex, 0], owner[vertex])
        np.testing.assert_array_equal(arcs.idx[1::2][vertex, 1], np.roll(owner, -1)[vertex])
        points, idx = arcs.base[1::2][vertex], arcs.idx[1::2][vertex]
        ginv = [None] * len(points)  # the arc table keeps no multipliers
        assert np.all(arcs.scale[1::2][vertex] == 0.0)
    else:
        table = leaf.subsets
        assert table is not None and leaf.arcs is None
        keys = [(int((row >= 0).sum()), tuple(row)) for row in table.idx]
        assert keys == sorted(keys)
        q = table.radius.size
        assert all(size < n for size, _ in keys[:q]) and all(size == n for size, _ in keys[q:])
        np.testing.assert_array_equal(table.idx[: leaf.m, 0], np.arange(leaf.m))  # every ball is a row
        np.testing.assert_array_equal(table.radius[: leaf.m], r)
        moving = zip(table.center, table.radius, table.proj, table.lin, table.norm, table.idx)
        for c, rho, P, lin, norm, row in moving:
            tight = row[row >= 0]
            np.testing.assert_allclose(P @ P, P, atol=1e-12)
            np.testing.assert_allclose(P @ (X[tight] - X[tight[0]]).T, 0.0, atol=1e-12)
            for w in u:
                y = c + rho * (P @ w) / np.linalg.norm(P @ w)
                np.testing.assert_allclose(np.linalg.norm(y - X[tight], axis=1), r[tight], atol=1e-12)
                lam = lin @ w + norm * np.linalg.norm(P @ w)
                np.testing.assert_allclose((y[None, :] - X[tight]).T @ lam[: tight.size], w, atol=1e-9)
        points, idx, ginv = table.center[q:], table.idx[q:], table.lin[q:]
    for y, idx, ginv in zip(points, idx, ginv):
        assert np.all(np.linalg.norm(y - X, axis=1) <= r + FEAS_PAD)
        tight = idx[idx >= 0]
        assert tight.size == n
        np.testing.assert_allclose(np.linalg.norm(y - X[tight], axis=1), r[tight], atol=1e-12)
        if ginv is not None:
            grads = (y[None, :] - X[tight]).T  # columns
            np.testing.assert_allclose(grads @ (ginv[:n] @ u.T), u.T, atol=1e-9)


def table_support(leaf, U, tol):
    """Values of the leaf's direction-free table path: arc lookup in 2-d, enumeration in 3-d."""
    return _arc_lookup([leaf], [U], tol) if leaf.dim == 2 else _enumerate_support(leaf, U, tol)


def assert_matches_reference(leaf, U, tol=1e-8, same_mask=True, atol=1e-12):
    """The table path agrees with the reference, within atol, wherever the reference certifies.

    With `same_mask` both certify the same directions; otherwise the table
    path may certify more.
    """
    values = table_support(leaf, U, tol)
    ref = reference_enumerate_support(leaf, U, tol)
    resolved = np.isfinite(ref)
    if same_mask:
        np.testing.assert_array_equal(np.isfinite(values), resolved)
    else:
        assert np.all(np.isfinite(values[resolved]))
    assert np.max(np.abs(values[resolved] - ref[resolved]), initial=0.0) <= atol


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("radii", ["unit", "general"])
def test_skeleton_matches_per_call_enumeration(dim, radii):
    # 2-d runs past the 3-d enumeration limit: the arc table has none
    rng = np.random.default_rng(40 + dim)
    sizes = range(2, 17) if dim == 2 else range(2, 9)
    checked = 0
    for m in sizes:
        for _ in range(3):
            if radii == "unit":
                centers = rng.uniform(-0.5, 0.5, size=(m, dim))
                leaf = prepare_leaf(centers)
            else:
                centers = rng.uniform(-1.0, 1.0, size=(m, dim))
                leaf = prepare_leaf(centers, rng.uniform(1.2, 2.5, size=m))
            assert_table_is_kkt_data(leaf)
            assert_matches_reference(leaf, unit_dirs(dim, 400, m))
            checked += 1
    assert checked == 3 * len(sizes)


def degenerate_leaves(dim):
    """(centers, radii) of three degenerate leaves, and 200 directions at the third's common point.

    Coincident centers, whose pair has no axis and adds no point; spheres 0
    and 1 touching from inside (rho^2 = 0 exactly), sphere 2 holding sphere
    0 (rho^2 < 0) and sphere 3 cutting sphere 0; n + 1 spheres through one
    point, where some subsets have negative multipliers.  The directions
    lie in the normal cone at that point.
    """
    e1, e2 = np.eye(dim)[:2]
    coincident = np.array([0.3 * e1, 0.3 * e1, -0.2 * e2, 0.1 * e1 + 0.4 * e2]), None
    tangent = np.array([np.zeros(dim), 0.5 * e1, 0.2 * e1 + 0.1 * e2, 0.8 * e2]), np.array([1.0, 1.5, 3.0, 1.0])
    rng = np.random.default_rng(dim)
    spokes = e2 + 0.4 * rng.uniform(-1.0, 1.0, size=(dim + 1, dim)) * (1.0 - e2)
    spokes /= np.linalg.norm(spokes, axis=1, keepdims=True)
    cone = -(rng.uniform(0.0, 1.0, size=(200, dim + 1)) @ spokes)
    cone /= np.linalg.norm(cone, axis=1, keepdims=True)
    return coincident, tangent, (0.1 * e1 + spokes, None), cone


@pytest.mark.parametrize("dim", [2, 3])
def test_skeleton_with_coincident_tangent_and_concurrent_spheres(dim):
    dirs = unit_dirs(dim, 300, 7)
    (coincident, _), tangent, (concurrent, _), cone = degenerate_leaves(dim)
    leaf = prepare_leaf(coincident)
    assert_table_is_kkt_data(leaf)
    assert_matches_reference(leaf, dirs)
    leaf = prepare_leaf(*tangent)
    assert_table_is_kkt_data(leaf)
    if dim == 2:
        # balls 1 and 2 own no arc; balls 0 and 3 meet in two vertices
        assert set(leaf.arcs.idx[0::2, 0]) == {0, 3}
        assert {tuple(ij) for ij in leaf.arcs.idx[1::2]} == {(0, 3), (3, 0)}
    assert_matches_reference(leaf, dirs)
    # at the common point only the multiplier check keeps a subset with
    # negative multipliers from winning the tie
    leaf = prepare_leaf(concurrent)
    assert_table_is_kkt_data(leaf)
    assert_matches_reference(leaf, np.vstack([cone, dirs]))


@pytest.mark.parametrize("dim", [2, 3])
def test_skeleton_on_directions_parallel_to_a_pair_axis(dim):
    rng = np.random.default_rng(60 + dim)
    for m in (2, 3, 5):
        centers = rng.uniform(-0.5, 0.5, size=(m, dim))
        leaf = prepare_leaf(centers)
        assert_table_is_kkt_data(leaf)
        axes = [centers[j] - centers[i] for i, j in itertools.combinations(range(m), 2)]
        axes = np.array(axes) / np.linalg.norm(axes, axis=1, keepdims=True)
        dirs = np.vstack([axes, -axes, unit_dirs(dim, 50, m)])
        assert_matches_reference(leaf, dirs)


@pytest.mark.parametrize(
    "centers",
    [
        [[0.0, 0.0, 0.0], [1e-9, 0.0, 0.0], [0.3, 0.0, 0.0]],
        [[0.0, 0.0, 0.0], [1e-9, 0.0, 0.0], [0.0, 0.3, 0.0], [0.1, 0.1, 0.2]],
        [[0.0, 0.0, 0.0], [0.0, 1e-9, 0.0], [1e-9, 0.0, 0.0], [0.1, 0.1, 0.2]],
    ],
)
def test_nearly_coincident_centers(centers, monkeypatch):
    # centers 1e-9 apart: the pair's multipliers are of order 1e9, and the
    # table, and the pivot on the same routine, still certify
    dirs = np.vstack([unit_dirs(3, 300, 9), [[0.0, 1.0, 0.0], [0.0, 0.6, -0.8]]])
    leaf = prepare_leaf(centers)
    assert_matches_reference(leaf, dirs)
    values = support_batch(leaf, dirs)
    assert np.all(np.isfinite(values))
    for i in range(0, 300, 30):
        assert values[i] == pytest.approx(slsqp_support(np.array(centers), np.ones(len(centers)), dirs[i]), abs=1e-6)
    monkeypatch.setattr(solver, "ENUM_MAX_CENTERS", 2)
    fallback = prepare_leaf(centers)
    assert fallback.subsets is None
    assert np.max(np.abs(support_batch(fallback, dirs) - values)) <= DEFAULT_TOL


def test_enumeration_limit_is_read_at_preparation(monkeypatch):
    rng = np.random.default_rng(3)
    rng.uniform(-0.4, 0.4, size=(5, 2))  # the leaf of the 2-d test below
    centers = rng.uniform(-0.4, 0.4, size=(5, 3))
    dirs = unit_dirs(3, 40, 3)
    leaf = prepare_leaf(centers)  # default limit: a subset table
    expected = support_batch(leaf, dirs)

    monkeypatch.setattr(solver, "ENUM_MAX_CENTERS", 3)
    fallback = prepare_leaf(centers)  # prepared past the limit: no table, the pivot
    assert leaf.subsets is not None and fallback.subsets is None
    assert np.max(np.abs(support_batch(fallback, dirs) - expected)) <= DEFAULT_TOL
    # a leaf keeps the path it was prepared with, whatever the limit is now
    refuse_fallback(monkeypatch)
    np.testing.assert_array_equal(support_batch(leaf, dirs), expected)


def refuse_fallback(monkeypatch):
    """Make the pivot raise, so only the table paths can certify."""

    def refuse(leaf, U, tol):
        raise AssertionError(f"{U.shape[0]} directions of an m={leaf.m} leaf reached the pivot")

    monkeypatch.setattr(solver, "_pivot_support", refuse)


def test_enumeration_limit_leaves_plane_leaves_on_the_arc_path(monkeypatch):
    rng = np.random.default_rng(3)
    centers = rng.uniform(-0.4, 0.4, size=(5, 2))
    dirs = unit_dirs(2, 40, 2)
    expected = support_batch(prepare_leaf(centers), dirs)
    monkeypatch.setattr(solver, "ENUM_MAX_CENTERS", 3)
    refuse_fallback(monkeypatch)
    leaf = prepare_leaf(centers)
    assert leaf.arcs is not None
    np.testing.assert_array_equal(support_batch(leaf, dirs), expected)


def breakpoint_normals(centers, radii):
    """Outer normals of both circles at every feasible intersection point of two circles."""
    X = np.asarray(centers, dtype=float)
    r = np.ones(len(X)) if radii is None else np.asarray(radii, dtype=float)
    v, i, j = plane_vertices(X, r)
    normals = np.vstack([(v - X[i]) / r[i, None], (v - X[j]) / r[j, None]])
    return normals / np.linalg.norm(normals, axis=1, keepdims=True)


PLANE_LEAVES = {
    # ball 0's caps are each wider than pi, so it owns a top and a bottom arc
    "two-arc": ([[0.0, 0.0], [1.2, 0.0], [-1.2, 0.0]], [1.0, 1.6, 1.6]),
    "coincident": degenerate_leaves(2)[0],
    "tangent": degenerate_leaves(2)[1],
    "concurrent": degenerate_leaves(2)[2],
    # ball 0 lies in both others: one arc, the whole circle
    "contained": ([[0.0, 0.0], [0.3, 0.0], [0.0, 0.3]], [0.5, 1.0, 1.0]),
    "12-ball": (np.random.default_rng(5).uniform(-0.4, 0.4, size=(12, 2)), None),
    "point-reconstruction": None,
}


@pytest.mark.parametrize("case", list(PLANE_LEAVES))
def test_plane_leaves_certify_without_the_active_set_loop(case, monkeypatch):
    from ballbodies.geometry import make_sphere_net

    centers, radii = PLANE_LEAVES[case] or point_reconstruction_leaf()
    leaf = prepare_leaf(centers, radii)
    dirs = np.vstack([make_sphere_net(2, 0.02).directions, breakpoint_normals(centers, radii)])
    pivot_only_for_unproven_pieces(monkeypatch, leaf)
    values = support_batch(leaf, dirs)
    if case == "two-arc":
        assert sorted(leaf.arcs.idx[0::2, 0].tolist()) == [0, 0, 1, 2]
    if case == "contained":
        assert leaf.arcs.idx[:, 0].tolist() == [0, 0] and np.ptp(leaf.arcs.breaks) == 2 * math.pi
    assert np.all(np.isfinite(values))
    if leaf.m <= 16:  # the reference takes about a minute on the 169 balls
        # both bracket the optimum within tol; at a breakpoint normal the two
        # may pick different optimal candidates
        assert_matches_reference(leaf, dirs, DEFAULT_TOL, same_mask=False, atol=DEFAULT_TOL)


def piece_of(leaf, U):
    """Each direction's arc-table piece, looked up as `_arc_lookup` does for one leaf."""
    arcs = leaf.arcs
    b0 = arcs.breaks[0]
    phi = b0 + np.mod(np.arctan2(U[:, 1], U[:, 0]) - b0, 2 * math.pi)
    return np.searchsorted(arcs.breaks, phi, side="right") - 1


def pivot_only_for_unproven_pieces(monkeypatch, leaf, tol=DEFAULT_TOL):
    """Let the pivot serve only directions of `leaf` in pieces whose gap exceeds tol; returns the batches it saw."""
    seen = []
    pivot = solver._pivot_support

    def spy(other, U, tol_):
        assert other is leaf and np.all(leaf.arcs.gap[piece_of(leaf, U)] > tol)
        seen.append(U)
        return pivot(other, U, tol_)

    monkeypatch.setattr(solver, "_pivot_support", spy)
    return seen


def random_plane_leaves():
    """(centers, radii) of random unit-radius and general-radius plane leaves, m <= 16."""
    rng = np.random.default_rng(77)
    for m in (2, 3, 4, 5, 8, 9, 12, 16):
        yield rng.uniform(-0.5, 0.5, size=(m, 2)), None
        yield rng.uniform(-1.0, 1.0, size=(m, 2)), rng.uniform(1.2, 2.5, size=m)


def directions_at_breaks(leaf):
    """Unit directions at every break of the leaf's arc table and one ulp to either side."""
    breaks = np.concatenate([leaf.arcs.breaks, leaf.arcs.breaks + 2 * math.pi])
    angles = np.concatenate([breaks, np.nextafter(breaks, -np.inf), np.nextafter(breaks, np.inf)])
    return np.column_stack([np.cos(angles), np.sin(angles)])


def test_piece_values_agree_with_the_pivot():
    cases = [PLANE_LEAVES[case] or point_reconstruction_leaf() for case in PLANE_LEAVES]
    theta = np.linspace(0.0, 2 * math.pi, 20000, endpoint=False)
    dense = np.column_stack([np.cos(theta), np.sin(theta)])
    for centers, radii in [*cases, *random_plane_leaves()]:
        leaf = prepare_leaf(centers, radii)
        assert leaf.arcs.gap.shape == leaf.arcs.breaks.shape
        assert np.all(leaf.arcs.gap >= 0.0)
        dirs = np.vstack([dense, breakpoint_normals(centers, radii), directions_at_breaks(leaf)])
        values = support_batch(leaf, dirs)
        ref = solver._pivot_support(leaf, dirs, DEFAULT_TOL)
        assert np.max(np.abs(values - ref)) <= DEFAULT_TOL


def test_generic_plane_leaves_sweep_without_per_direction_certificates(monkeypatch):
    from ballbodies.geometry import make_sphere_net

    def refuse(leaf, U, *args):
        raise AssertionError(f"{U.shape[0]} directions of an m={leaf.m} leaf were certified one by one")

    net = make_sphere_net(2, 0.02).directions
    expected = [support_batch(prepare_leaf(c, r), net) for c, r in random_plane_leaves()]
    monkeypatch.setattr(solver, "_certify", refuse)
    refuse_fallback(monkeypatch)
    for (centers, radii), before in zip(random_plane_leaves(), expected):
        leaf = prepare_leaf(centers, radii)
        assert np.all(leaf.arcs.gap <= DEFAULT_TOL)
        np.testing.assert_array_equal(support_batch(leaf, net), before)


def test_pieces_that_cannot_be_proven_take_the_pivot(monkeypatch):
    # the 169-ball leaf has arcs too short for their ends to be placed within
    # tol; a direction in the middle of one takes the pivot
    leaf = prepare_leaf(*point_reconstruction_leaf())
    arcs = leaf.arcs
    ends = np.append(arcs.breaks[1:], arcs.breaks[0] + 2 * math.pi)
    unproven = np.flatnonzero((arcs.gap > DEFAULT_TOL) & (ends > arcs.breaks))  # a direction can land there
    assert unproven.size > 0
    mid = 0.5 * (arcs.breaks + ends)[unproven]
    dirs = np.column_stack([np.cos(mid), np.sin(mid)])
    np.testing.assert_array_equal(piece_of(leaf, dirs), unproven)
    with monkeypatch.context() as patch:
        seen = pivot_only_for_unproven_pieces(patch, leaf)
        values = support_batch(leaf, dirs)
    assert len(seen) == 1
    np.testing.assert_array_equal(seen[0], dirs)
    centers, radii = point_reconstruction_leaf()
    for u, v in zip(dirs, values):
        assert v == pytest.approx(plane_vertex_support(centers, radii, u), abs=DEFAULT_TOL)
    # a tolerance below a generic leaf's piece gaps: the pieces over it take
    # the pivot, and the values stay within the gaps
    leaf = prepare_leaf(np.random.default_rng(5).uniform(-0.4, 0.4, size=(5, 2)))
    tight = 1e-15
    assert np.any(leaf.arcs.gap > tight) and np.any(leaf.arcs.gap <= tight)
    dirs = unit_dirs(2, 2000, 5)
    expected = support_batch(leaf, dirs)
    seen = pivot_only_for_unproven_pieces(monkeypatch, leaf, tight)
    values = support_batch(leaf, dirs, tight)
    assert len(seen) == 1 and 0 < seen[0].shape[0] < dirs.shape[0]
    np.testing.assert_array_equal(seen[0], dirs[leaf.arcs.gap[piece_of(leaf, dirs)] > tight])
    assert np.max(np.abs(values - expected)) <= leaf.arcs.gap.max()


@pytest.mark.parametrize("dim", [2, 3])
def test_prepared_leaf_is_read_only_and_leaves_the_callers_arrays_alone(dim):
    rng = np.random.default_rng(dim)
    centers = rng.uniform(-0.4, 0.4, size=(4, dim))
    radii = rng.uniform(1.0, 1.5, size=4)
    leaf = prepare_leaf(centers, radii)
    table = leaf.arcs if dim == 2 else leaf.subsets
    for array in (leaf.centers, leaf.radii, leaf.interior, *table):
        with pytest.raises(ValueError, match="read-only"):
            array.flat[0] = 0.0
    assert centers.flags.writeable and radii.flags.writeable
    before = support_batch(leaf, unit_dirs(dim, 20, 0))
    centers += 0.1
    radii[0] = 0.5
    np.testing.assert_array_equal(support_batch(leaf, unit_dirs(dim, 20, 0)), before)
