"""Certified support solver vs. independent optimization oracles."""

import itertools
import math

import numpy as np
import pytest
from scipy.optimize import minimize

from ballbodies.errors import EmptyBodyError, NoConvergenceError
from ballbodies.geometry import minimal_enclosing_ball
from ballbodies import solver
from ballbodies.solver import (
    DEFAULT_TOL,
    FEAS_PAD,
    LAMBDA_PAD,
    _dual_upper,
    _enumerate_support,
    _feasible_lower,
    _support_single_dir,
    prepare_leaf,
    support_batch,
)


def slsqp_support(centers, radii, u) -> float:
    """Independent oracle: maximize <u, y> with ball constraints via SLSQP."""
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
    starts = [centers.mean(axis=0)] + list(centers)
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


def test_many_balls_guided_path():
    # more centers than the enumeration cap: exercises the active-set loop
    rng = np.random.default_rng(11)
    grid = np.stack(np.meshgrid(np.linspace(-2, 2, 9), np.linspace(-2, 2, 9)), -1).reshape(-1, 2)
    radii = np.linalg.norm(grid, axis=1) + 1.0 + rng.uniform(0, 0.2, grid.shape[0])
    leaf = prepare_leaf(grid, radii)
    dirs = unit_dirs(2, 8, 9)
    vals = support_batch(leaf, dirs, tol=1e-8)
    for u, v in zip(dirs, vals):
        oracle = slsqp_support(grid, radii, u)
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
        assert leaf.meb_radius == meb.radius
        assert leaf.point_like == (radius == 0.0)


def test_no_convergence_names_leaf_direction_and_gap():
    # a tolerance below the rounding of the certificate cannot be met
    rng = np.random.default_rng(0)
    errors = []
    for _ in range(20):
        leaf = prepare_leaf(rng.uniform(-0.3, 0.3, size=(4, 2)))
        u = rng.standard_normal(2)
        u /= np.linalg.norm(u)
        try:
            _support_single_dir(leaf, u, 1e-300)
        except NoConvergenceError as exc:
            errors.append((u, str(exc)))
    assert errors
    u, message = errors[0]
    assert "n=2" in message and "m=4" in message
    assert f"direction {u.tolist()}" in message
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


def test_point_body_reconstruction_leaf_has_the_inflation_as_slack():
    # the 169 probe balls of `reconstruct` around a point body all pass within
    # 2 tol of the point, so the maximum slack is the 2 tol inflation
    from ballbodies.bodies import point_body
    from ballbodies.geometry import make_sphere_net
    from ballbodies.support import SupportEval, default_mesh, farthest_distance_batch

    net = make_sphere_net(2, default_mesh(2))
    axis = np.arange(-3.0, 3.0 + 1e-9, 0.5)
    probes = np.stack(np.meshgrid(axis, axis, indexing="ij"), -1).reshape(-1, 2)
    body = SupportEval(point_body(np.array([0.2, -0.1])), DEFAULT_TOL)
    radii = farthest_distance_batch(body, probes, net, DEFAULT_TOL) + 2 * DEFAULT_TOL
    leaf = prepare_leaf(probes, radii)
    assert abs(leaf.slack - 2 * DEFAULT_TOL) <= 1e-9
    # every direction certifies, and the reconstruction contains the point
    # and lies within the 1e-5 of the `reconstruct` command's report
    excess = support_batch(leaf, net.directions) - net.directions @ [0.2, -0.1]
    assert np.all(excess >= -DEFAULT_TOL) and np.all(excess <= 1e-5)


def test_four_dimensional_leaves_certify_on_a_whole_net():
    # a vertex optimum in R^4 has 4 tight balls; the certificate needs all of them
    from ballbodies.geometry import make_sphere_net

    net = make_sphere_net(4, 0.5)
    assert len(net) == 512
    rng = np.random.default_rng(7)
    for m in (4, 4, 5, 5, 6, 6):
        centers = rng.uniform(-0.4, 0.4, size=(m, 4))
        vals = support_batch(prepare_leaf(centers), net.directions)
        for i in rng.choice(len(net), size=4, replace=False):
            u = net.directions[i]
            assert vals[i] == pytest.approx(slsqp_support(centers, np.ones(m), u), abs=1e-6)


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
# the leaf skeleton against per-call enumeration of every pair and triple
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


def assert_skeleton_is_kkt_data(leaf):
    """Skeleton points are feasible, tight on their subset, and G inverts the gradients."""
    X, r = leaf.centers, leaf.radii
    sk = leaf.skeleton
    assert sk is not None
    n = X.shape[1]
    u = unit_dirs(n, 5, 0)
    for y, idx, ginv in zip(sk.points, sk.idx, sk.ginv):
        assert np.all(np.linalg.norm(y - X, axis=1) <= r + FEAS_PAD)
        tight = idx[idx >= 0]
        assert tight.size == n
        np.testing.assert_allclose(np.linalg.norm(y - X[tight], axis=1), r[tight], atol=1e-12)
        grads = (y[None, :] - X[tight]).T  # columns
        np.testing.assert_allclose(grads @ (ginv[:n] @ u.T), u.T, atol=1e-9)
        np.testing.assert_array_equal(ginv[n:], 0.0)


def assert_matches_reference(leaf, U, tol=1e-8):
    values, resolved = _enumerate_support(leaf, U, tol)
    ref = reference_enumerate_support(leaf, U, tol)
    np.testing.assert_array_equal(resolved, np.isfinite(ref))
    assert np.max(np.abs(values[resolved] - ref[resolved]), initial=0.0) <= 1e-12


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("radii", ["unit", "general"])
def test_skeleton_matches_per_call_enumeration(dim, radii):
    rng = np.random.default_rng(40 + dim)
    checked = 0
    for m in range(2, 9):
        for _ in range(3):
            if radii == "unit":
                centers = rng.uniform(-0.5, 0.5, size=(m, dim))
                leaf = prepare_leaf(centers)
            else:
                centers = rng.uniform(-1.0, 1.0, size=(m, dim))
                leaf = prepare_leaf(centers, rng.uniform(1.2, 2.5, size=m))
            assert_skeleton_is_kkt_data(leaf)
            assert_matches_reference(leaf, unit_dirs(dim, 400, m))
            checked += 1
    assert checked == 21


@pytest.mark.parametrize("dim", [2, 3])
def test_skeleton_with_coincident_tangent_and_concurrent_spheres(dim):
    e1 = np.eye(dim)[0]
    e2 = np.eye(dim)[1]
    dirs = unit_dirs(dim, 300, 7)
    # coincident centers: the pair has no axis and adds no point
    leaf = prepare_leaf(np.array([0.3 * e1, 0.3 * e1, -0.2 * e2, 0.1 * e1 + 0.4 * e2]))
    assert_skeleton_is_kkt_data(leaf)
    assert_matches_reference(leaf, dirs)
    # spheres 0 and 1 touch from inside (rho^2 = 0 exactly), sphere 2 holds sphere 0
    # (rho^2 < 0), and sphere 3 cuts sphere 0
    centers = np.array([np.zeros(dim), 0.5 * e1, 0.2 * e1 + 0.1 * e2, 0.8 * e2])
    leaf = prepare_leaf(centers, np.array([1.0, 1.5, 3.0, 1.0]))
    assert_skeleton_is_kkt_data(leaf)
    if dim == 2:
        assert {tuple(ij) for ij in leaf.skeleton.idx[:, :2]} == {(0, 3)}
    assert_matches_reference(leaf, dirs)
    # n + 1 spheres through one point: at that vertex some subsets have negative
    # multipliers, and only the multiplier check keeps them from winning the tie
    rng = np.random.default_rng(dim)
    spokes = e2 + 0.4 * rng.uniform(-1.0, 1.0, size=(dim + 1, dim)) * (1.0 - e2)
    spokes /= np.linalg.norm(spokes, axis=1, keepdims=True)
    leaf = prepare_leaf(0.1 * e1 + spokes)
    assert_skeleton_is_kkt_data(leaf)
    cone = -(rng.uniform(0.0, 1.0, size=(200, dim + 1)) @ spokes)
    cone /= np.linalg.norm(cone, axis=1, keepdims=True)
    assert_matches_reference(leaf, np.vstack([cone, dirs]))


@pytest.mark.parametrize("dim", [2, 3])
def test_skeleton_on_directions_parallel_to_a_pair_axis(dim):
    rng = np.random.default_rng(60 + dim)
    for m in (2, 3, 5):
        centers = rng.uniform(-0.5, 0.5, size=(m, dim))
        leaf = prepare_leaf(centers)
        assert_skeleton_is_kkt_data(leaf)
        axes = [centers[j] - centers[i] for i, j in itertools.combinations(range(m), 2)]
        axes = np.array(axes) / np.linalg.norm(axes, axis=1, keepdims=True)
        dirs = np.vstack([axes, -axes, unit_dirs(dim, 50, m)])
        assert_matches_reference(leaf, dirs)


def test_enumeration_limit_is_read_when_evaluating(monkeypatch):
    rng = np.random.default_rng(3)
    for dim in (2, 3):
        centers = rng.uniform(-0.4, 0.4, size=(5, dim))
        dirs = unit_dirs(dim, 40, dim)
        expected = support_batch(prepare_leaf(centers), dirs)

        leaf = prepare_leaf(centers)  # default limit: enumerated, with a skeleton
        assert leaf.skeleton is not None
        monkeypatch.setattr(solver, "ENUM_MAX_CENTERS", 3)
        fallback = support_batch(leaf, dirs)  # past the limit now: active-set loop

        leaf = prepare_leaf(centers)  # prepared past the limit: no skeleton
        assert leaf.skeleton is None
        monkeypatch.setattr(solver, "ENUM_MAX_CENTERS", 8)
        enumerated = support_batch(leaf, dirs)

        assert np.max(np.abs(fallback - expected)) <= DEFAULT_TOL
        assert np.max(np.abs(enumerated - expected)) <= DEFAULT_TOL
