"""Tests for the geometric substrate: nets, enclosing balls, motion fits."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import cKDTree

import ballbodies.geometry as geometry
from ballbodies.bodies import Generators, ball_body, point_body
from ballbodies.corpus import body_corpus
from ballbodies.errors import DegenerateSourcesError, NoConvergenceError
from ballbodies.geometry import (
    Ball,
    RigidMotion,
    SphereNet,
    circumcenter_lp,
    enclosing_ball,
    make_sphere_net,
    minimal_enclosing_ball,
    procrustes_fit,
)
from ballbodies.support import SupportEval, default_mesh


# ---------------------------------------------------------------------------
# sphere nets
# ---------------------------------------------------------------------------


def covering_audit(net, n_samples, seed=0):
    """Largest distance from random unit vectors to the net (Monte Carlo)."""
    u = np.random.default_rng(seed).standard_normal((n_samples, net.dim))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    dist, _ = cKDTree(net.directions).query(u)
    return float(np.max(dist))


def test_planar_net_counts_and_covering():
    for mesh in (0.02, 0.1, 0.3):
        net = make_sphere_net(2, mesh)
        m = len(net)
        assert m % 2 == 0
        # every direction is within half a step pi/m of the grid, chord 2 sin(pi/2m)
        assert 2.0 * math.sin(math.pi / (2 * m)) <= mesh
        # m is the least even count: two fewer directions would not cover
        assert 2.0 * math.sin(math.pi / (2 * (m - 2))) > mesh
        assert covering_audit(net, 10000, seed=5) <= 2.0 * math.sin(math.pi / (2 * m))


def test_two_antipodal_directions_cover_at_mesh_two():
    net = SphereNet(np.array([[1.0, 0.0], [-1.0, 0.0]]), 2.0)
    assert covering_audit(net, 2000) <= 2.0  # sphere diameter


def test_3d_net_passes_randomized_audit():
    net = make_sphere_net(3, 0.2)
    assert covering_audit(net, 100000, seed=77) <= 0.2


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("mesh", [0.08, 0.2, 0.25, 0.3])
def test_cube_sphere_net_covers_within_its_proven_radius(n, mesh):
    k = math.ceil(math.sqrt(n - 1) / mesh)
    net = make_sphere_net(n, mesh)
    assert len(net) == 2 * n * k ** (n - 1)
    assert covering_audit(net, 100000) <= math.sqrt(n - 1) / k <= mesh


def test_net_is_antipodally_symmetric():
    for n in (2, 3, 4):
        net = make_sphere_net(n, 0.3)
        dirs = net.directions
        half = len(dirs) // 2
        np.testing.assert_array_equal(dirs[half:], -dirs[:half])


def test_net_monotone_in_mesh():
    sizes = []
    audits = []
    for mesh in (0.4, 0.2, 0.1, 0.05):
        net = make_sphere_net(2, mesh)
        sizes.append(len(net))
        audits.append(covering_audit(net, 4000, seed=1))
    assert sizes == sorted(sizes)
    assert audits == sorted(audits, reverse=True)


def test_net_rejects_bad_arguments():
    with pytest.raises(ValueError):
        make_sphere_net(1, 0.1)
    with pytest.raises(ValueError):
        make_sphere_net(2, 0.0)
    with pytest.raises(ValueError):
        make_sphere_net(2, -0.3)


@pytest.mark.parametrize("n", [3, 4])
def test_net_mesh_range_is_the_sphere_diameter(n):
    # coarse cube-sphere nets still cover within their mesh
    for mesh in (1.5, 2.0):
        assert covering_audit(make_sphere_net(n, mesh), 20000) <= mesh
    for mesh in (0.0, -1.0, 2.5):
        with pytest.raises(ValueError, match=r"mesh must lie in \(0, 2\]"):
            make_sphere_net(n, mesh)


def test_net_motion_and_ball_arrays_are_read_only_copies():
    # a sweep memoized per net would go stale if its directions could change
    dirs = make_sphere_net(2, 0.3).directions.copy()
    q, t, c = np.array([[0.0, -1.0], [1.0, 0.0]]), np.array([0.5, 0.2]), np.array([0.1, 0.3])
    net, g, ball = SphereNet(dirs, 0.3), RigidMotion(q, t), Ball(c, 1.0)
    ev = SupportEval(ball_body([0.3, 0.1]))
    sweep = ev.on_net(net).copy()
    for array in (net.directions, g.rotation, g.translation, ball.center):
        with pytest.raises(ValueError, match="read-only"):
            array[:] = -array
    for array in (dirs, q, t, c):
        assert array.flags.writeable
        array[:] = -array  # the caller's arrays stay its own
    np.testing.assert_array_equal(ev.on_net(net), sweep)
    np.testing.assert_array_equal(ev.batch(net.directions), sweep)


def test_net_deterministic():
    for n in (3, 4):
        a = make_sphere_net(n, 0.25)
        b = make_sphere_net(n, 0.25)
        np.testing.assert_array_equal(a.directions, b.directions)


# ---------------------------------------------------------------------------
# minimal enclosing ball
# ---------------------------------------------------------------------------


def brute_force_circumradius(points: np.ndarray, span: float = 1.5, steps: int = 161) -> float:
    """Grid-search oracle: min over candidate centers of the farthest distance."""
    lo = points.min(axis=0) - 0.1
    hi = points.max(axis=0) + 0.1
    axes = [np.linspace(lo[d] - span * 0, hi[d], steps) for d in range(points.shape[1])]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, points.shape[1])
    dists = np.linalg.norm(grid[:, None, :] - points[None, :, :], axis=2).max(axis=1)
    return float(dists.min())


def test_meb_single_point():
    ball = minimal_enclosing_ball([[0.0, 0.0]])
    np.testing.assert_allclose(ball.center, [0.0, 0.0], atol=1e-12)
    assert ball.radius == 0.0


def test_meb_segment_midpoint():
    ball = minimal_enclosing_ball([[0.0, 0.0], [1.0, 0.0]])
    np.testing.assert_allclose(ball.center, [0.5, 0.0], atol=1e-12)
    assert ball.radius == pytest.approx(0.5, abs=1e-12)


def test_meb_right_triangle_matches_grid_oracle():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    ball = minimal_enclosing_ball(pts)
    np.testing.assert_allclose(ball.center, [0.5, 0.5], atol=1e-9)
    assert ball.radius == pytest.approx(math.sqrt(2.0) / 2.0, abs=1e-9)
    # independent grid-search oracle (coarse; validates within grid accuracy)
    assert abs(brute_force_circumradius(pts) - ball.radius) < 2e-2


def test_meb_rejects_empty():
    with pytest.raises(ValueError):
        minimal_enclosing_ball([])


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("seed", range(6))
def test_meb_contains_all_and_is_tight(dim, seed):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-2, 2, size=(rng.integers(2, 50), dim))
    ball = minimal_enclosing_ball(pts)
    d = np.linalg.norm(pts - ball.center, axis=1)
    assert np.all(d <= ball.radius + 1e-9)
    # shrinking by 1e-6 must exclude at least one point
    assert np.any(d > ball.radius - 1e-6)


def test_meb_duplicated_points():
    ball = minimal_enclosing_ball([[1.0, 2.0], [1.0, 2.0], [1.0, 2.0]])
    assert ball.radius == pytest.approx(0.0, abs=1e-12)


def circumball_of_boundary(boundary: list[np.ndarray]) -> Ball:
    """Smallest ball with all boundary points on its surface (affinely independent set)."""
    p0 = boundary[0]
    if len(boundary) == 1:
        return Ball(p0, 0.0)
    diffs = np.array([p - p0 for p in boundary[1:]])
    rhs = 0.5 * np.einsum("ij,ij->i", diffs, diffs)
    gram = diffs @ diffs.T
    try:
        coef = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        coef, *_ = np.linalg.lstsq(gram, rhs, rcond=None)
    center = p0 + diffs.T @ coef
    return Ball(center, float(np.linalg.norm(center - p0)))


def recursive_welzl(points, boundary, dim):
    """The textbook recursion, as the reference for small inputs."""
    if not points or len(boundary) == dim + 1:
        return circumball_of_boundary(boundary) if boundary else Ball(np.zeros(dim), 0.0)
    p, rest = points[-1], points[:-1]
    ball = recursive_welzl(rest, boundary, dim)
    if ball.contains(p, slack=1e-12 * (1.0 + ball.radius)):
        return ball
    return recursive_welzl(rest, boundary + [p], dim)


@pytest.mark.parametrize("dim", [2, 3])
def test_meb_matches_recursive_welzl(dim):
    rng = np.random.default_rng(100 + dim)
    for seed in range(20):
        pts = rng.standard_normal((int(rng.integers(1, 200)), dim))
        unique = np.unique(pts, axis=0)
        order = np.random.default_rng(seed).permutation(len(unique))
        center = recursive_welzl([unique[i] for i in order], [], dim).center
        radius = float(np.max(np.linalg.norm(pts - center, axis=1)))
        ball = minimal_enclosing_ball(pts)
        np.testing.assert_allclose(ball.center, center, rtol=0, atol=1e-12)
        assert abs(ball.radius - radius) <= 1e-12


def nelder_mead_enclosing_radius(centers, radii) -> float:
    """Independent oracle: minimize max_i (|z - x_i| + rho_i) over z by Nelder-Mead.

    Four restarts from the last point, on initial simplices of edge 1, 0.1,
    0.01 and 0.001, so the search cannot stall on a kink of the max.
    """
    from scipy.optimize import minimize

    def reach(z):
        return float(np.max(np.linalg.norm(centers - z, axis=1) + radii))

    z, n = centers.mean(axis=0), centers.shape[1]
    for k in range(4):
        simplex = z + np.vstack([np.zeros(n), 0.1**k * np.eye(n)])
        opts = {"xatol": 1e-14, "fatol": 1e-15, "maxfev": 40000, "initial_simplex": simplex}
        z = minimize(reach, z, method="Nelder-Mead", options=opts).x
    return reach(z)


@pytest.mark.parametrize("dim", [2, 3])
def test_enclosing_ball_of_balls_matches_nelder_mead(dim):
    rng = np.random.default_rng(40 + dim)
    for m in range(1, 9):
        for _ in range(3):
            centers = rng.uniform(-1.0, 1.0, size=(m, dim))
            radii = rng.uniform(0.0, 1.0, size=m)
            center, radius = enclosing_ball(centers, radii)
            reach = np.linalg.norm(centers - center, axis=1) + radii
            assert np.all(reach <= radius)
            assert abs(radius - nelder_mead_enclosing_radius(centers, radii)) <= 1e-9


@pytest.mark.parametrize("radii", [[1.0], [-0.1, 0.0], [np.inf, 0.0], [np.nan, 0.0]])
def test_enclosing_ball_rejects_bad_radii(radii):
    with pytest.raises(ValueError, match="radii must be finite, nonnegative and one per center"):
        enclosing_ball([[0.0, 0.0], [1.0, 0.0]], radii)


def test_meb_leaves_the_recursion_limit_alone(monkeypatch):
    def refuse(limit):
        raise AssertionError("minimal_enclosing_ball changed the recursion limit")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    pts = np.random.default_rng(5).standard_normal((3000, 2))
    ball = minimal_enclosing_ball(pts)
    assert np.max(np.linalg.norm(pts - ball.center, axis=1)) == ball.radius


# ---------------------------------------------------------------------------
# the circumball LP
# ---------------------------------------------------------------------------


def highs_circumradius(U, h) -> float:
    """Independent oracle: HiGHS on min rho s.t. <u_i, z> + rho >= h_i, at tight tolerances."""
    from scipy.optimize import linprog

    n = U.shape[1]
    cost = np.zeros(n + 1)
    cost[-1] = 1.0
    tight = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
    res = linprog(
        cost,
        A_ub=-np.hstack([U, np.ones((len(U), 1))]),
        b_ub=-h,
        bounds=[(None, None)] * (n + 1),
        method="highs",
        options=tight,
    )
    assert res.success, res.message
    return float(res.x[-1])


# mesh 1.0 gives the 4-direction planar net, 2.0 the 2-direction one (which
# leaves the center free along e2) and the 2n directions +-e_k for n = 3, 4
@pytest.mark.parametrize(
    "dim,mesh,count",
    [(2, None, 40), (2, 0.5, 40), (2, 1.0, 20), (2, 2.0, 20)]
    + [(3, None, 16), (3, 0.5, 30), (3, 1.0, 20), (3, 2.0, 20)]
    + [(4, None, 8), (4, 0.5, 16), (4, 2.0, 16)],
)
def test_circumcenter_lp_matches_highs(dim, mesh, count):
    net = make_sphere_net(dim, default_mesh(dim) if mesh is None else mesh)
    U = net.directions
    for body in body_corpus(300 + dim, dim, count):
        h = SupportEval(body).on_net(net)
        z, rho = circumcenter_lp(U, h)
        assert rho == float(np.max(h - U @ z))
        assert abs(rho - highs_circumradius(U, h)) <= 1e-9


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_circumcenter_lp_is_exact_on_unit_balls_and_points(dim):
    net = make_sphere_net(dim, default_mesh(dim))
    c = np.random.default_rng(dim).uniform(-0.8, 0.8, dim)
    for body, radius in ((ball_body(c), 1.0), (point_body(c), 0.0)):
        z, rho = circumcenter_lp(net.directions, SupportEval(body).on_net(net))
        np.testing.assert_allclose(z, c, rtol=0, atol=1e-12)
        assert abs(rho - radius) <= 1e-12


def test_circumcenter_lp_passes_ties_at_a_degenerate_start(monkeypatch):
    # the thin lens is 0.2 wide along e1 and 0.87 tall along e2: the start
    # pairs fix rho by the height alone and leave z_1 free over an interval,
    # so the first rounds only move z; stopping at a tie overstates the radius
    rhos = []
    real = geometry._lp_basis

    def spy(*args):
        basis, y, lam = real(*args)
        rhos.append(y[-1])
        return basis, y, lam

    monkeypatch.setattr(geometry, "_lp_basis", spy)
    net = make_sphere_net(2, 0.02)
    h = SupportEval(Generators([[-0.9, 0.0], [0.9, 0.0]])).on_net(net)
    z, rho = circumcenter_lp(net.directions, h)
    assert any(b == a for a, b in zip(rhos, rhos[1:]))
    assert abs(rho - highs_circumradius(net.directions, h)) <= 1e-12
    np.testing.assert_allclose(z, [0.0, 0.0], rtol=0, atol=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_circumcenter_lp_rejects_non_finite_supports(bad):
    net = make_sphere_net(2, 0.02)
    h = SupportEval(ball_body([0.1, 0.2])).on_net(net).copy()
    h[7] = bad
    with pytest.raises(NoConvergenceError, match=r"n=2 over 158 directions: 1 support values are not finite"):
        circumcenter_lp(net.directions, h)


def test_circumcenter_lp_without_antipodal_pairs_has_no_start():
    # the direction nearest -e1 is e2 and the one nearest -e2 is e1
    U = np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]])
    with pytest.raises(NoConvergenceError, match=r"n=2 over 3 directions: no start"):
        circumcenter_lp(U, np.ones(3))


def test_circumcenter_lp_without_a_bounded_optimum_names_its_gap():
    # directions in the upper half plane only: rho falls without bound as z_2 grows
    theta = np.linspace(0.1, 3.0, 12)
    U = np.column_stack([np.cos(theta), np.sin(theta)])
    with pytest.raises(NoConvergenceError, match=r"n=2 over 12 directions .* pivots: .* least multiplier -"):
        circumcenter_lp(U, np.ones(12))


# ---------------------------------------------------------------------------
# orthogonal motion fit
# ---------------------------------------------------------------------------


def simplex_points(dim: int) -> np.ndarray:
    return np.vstack([np.zeros(dim), np.eye(dim)])


def test_procrustes_identity():
    pts = simplex_points(2)
    motion, resid = procrustes_fit(pts, pts)
    np.testing.assert_allclose(motion.rotation, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(motion.translation, np.zeros(2), atol=1e-12)
    assert resid < 1e-12


def test_procrustes_recovers_quarter_turn():
    src = simplex_points(2)
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    tgt = src @ rot.T + np.array([0.3, -0.7])
    motion, resid = procrustes_fit(src, tgt)
    np.testing.assert_allclose(motion.rotation, rot, atol=1e-9)
    np.testing.assert_allclose(motion.translation, [0.3, -0.7], atol=1e-9)
    assert resid <= 1e-9


def test_procrustes_recovers_reflection():
    src = simplex_points(2)
    refl = np.array([[1.0, 0.0], [0.0, -1.0]])
    tgt = src @ refl.T
    motion, resid = procrustes_fit(src, tgt)
    np.testing.assert_allclose(motion.rotation, refl, atol=1e-9)
    assert np.linalg.det(motion.rotation) == pytest.approx(-1.0, abs=1e-9)
    assert resid <= 1e-9


def test_procrustes_rejects_degenerate_sources():
    src = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])  # collinear
    with pytest.raises(DegenerateSourcesError, match="affinely span"):
        procrustes_fit(src, src)
    with pytest.raises(DegenerateSourcesError, match="at least"):
        procrustes_fit(np.eye(2), np.eye(2))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), dim=st.sampled_from([2, 3]), reflect=st.booleans())
def test_procrustes_recovers_planted_motion(seed, dim, reflect):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    if reflect == (np.linalg.det(q) > 0):
        q[:, 0] = -q[:, 0]
    t = rng.uniform(-3, 3, dim)
    motion_true = RigidMotion(q, t)
    src = rng.uniform(-2, 2, size=(dim + 3, dim))
    motion, resid = procrustes_fit(src, motion_true.apply(src))
    assert np.max(np.abs(motion.rotation - q)) < 1e-8
    assert np.max(np.abs(motion.translation - t)) < 1e-8
    assert resid < 1e-9


def test_rigid_motion_compose_inverse():
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    g = RigidMotion(q, rng.uniform(-1, 1, 3))
    gi = g.inverse()
    pts = rng.uniform(-2, 2, (5, 3))
    np.testing.assert_allclose(gi.apply(g.apply(pts)), pts, atol=1e-12)
    comp = g.compose(gi)
    np.testing.assert_allclose(comp.rotation, np.eye(3), atol=1e-12)
    np.testing.assert_allclose(comp.translation, np.zeros(3), atol=1e-12)


def test_rigid_motion_rejects_non_orthogonal():
    with pytest.raises(ValueError, match="orthogonal"):
        RigidMotion(np.array([[1.0, 0.1], [0.0, 1.0]]), np.zeros(2))


@pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf])
@pytest.mark.filterwarnings("ignore:invalid value encountered in matmul:RuntimeWarning")
def test_rigid_motion_rejects_non_finite_rotations(entry):
    for q in (np.array([[entry, 0.0], [0.0, 1.0]]), np.full((2, 2), entry)):
        with pytest.raises(ValueError, match="rotation matrix is not orthogonal within 1e-9"):
            RigidMotion(q, np.zeros(2))


def test_net_second_half_must_negate_the_first():
    dirs = make_sphere_net(2, 0.3).directions
    swapped = dirs[np.r_[1, 0, 2 : len(dirs)]]  # the first half reordered, the second not
    for bad in (swapped, dirs[:-1], np.vstack([dirs[:2], dirs[:2]])):
        with pytest.raises(ValueError, match=r"must be \[half; -half\]"):
            SphereNet(bad, 0.3)
    assert len(SphereNet(dirs, 0.3)) == len(dirs)
