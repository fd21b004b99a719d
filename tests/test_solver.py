"""Certified support solver vs. independent optimization oracles."""

import math

import numpy as np
import pytest
from scipy.optimize import minimize

from ballbodies.errors import EmptyBodyError, NoConvergenceError
from ballbodies.geometry import minimal_enclosing_ball
from ballbodies.solver import DEFAULT_TOL, _support_single_dir, prepare_leaf, support_batch


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
    with pytest.raises(EmptyBodyError):
        prepare_leaf(np.array([[0.0, 0.0], [2.5, 0.0]]))
    with pytest.raises(EmptyBodyError):
        prepare_leaf(np.array([[0.0, 0.0], [3.0, 0.0]]), radii=np.array([1.0, 1.5]))


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
