"""Support oracle algebra, Hausdorff distances, circumballs, reconstruction."""

import math
import types

import numpy as np
import pytest

import ballbodies.solver as solver
import ballbodies.support as support_module
from ballbodies.bodies import (
    CDual,
    Combine,
    Generators,
    Motion,
    apply_motion,
    ball_body,
    c_dual,
    combine,
    point_body,
)
from ballbodies.corpus import body_corpus, body_pairs, random_motion
from ballbodies.errors import DimensionMismatchError, EmptyReconstructionError
from ballbodies.geometry import RigidMotion, make_sphere_net
from ballbodies.lab import geodesic_midpoint_check
from ballbodies.solver import support_batch
from ballbodies.support import (
    SupportEval,
    circumball,
    contains_point,
    farthest_distance_batch,
    default_mesh,
    hausdorff,
    net_error_bound,
    reconstruct,
    sweep,
)

TOL = 1e-6


@pytest.fixture(scope="module")
def net2():
    return make_sphere_net(2, 0.02)


@pytest.fixture(scope="module")
def net3():
    return make_sphere_net(3, 0.08)


def random_body(rng, dim=2, depth=2):
    centers = rng.uniform(-0.6, 0.6, size=(int(rng.integers(1, 5)), dim))
    from ballbodies.geometry import minimal_enclosing_ball

    meb = minimal_enclosing_ball(centers)
    if meb.radius > 0.9:
        centers = meb.center + (centers - meb.center) * (0.9 / meb.radius)
    body = Generators(centers)
    for _ in range(depth):
        pick = rng.integers(0, 3)
        if pick == 0:
            body = c_dual(body)
        elif pick == 1:
            other = Generators(rng.uniform(-0.4, 0.4, size=(2, dim)))
            body = combine(float(rng.uniform(0.2, 0.8)), body, other)
        else:
            q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
            body = apply_motion(RigidMotion(q, rng.uniform(-0.5, 0.5, dim)), body)
    return body


# ---------------------------------------------------------------------------
# support values
# ---------------------------------------------------------------------------


def test_support_module_is_not_shadowed_by_a_package_export():
    import ballbodies.support as m

    assert isinstance(m, types.ModuleType)
    assert m.SupportEval(ball_body([0.0, 0.0]))([1.0, 0.0]) == pytest.approx(1.0, abs=1e-9)


def test_single_ball_support():
    c = np.array([0.3, -0.4])
    ev = SupportEval(ball_body(c))
    for u in ([1.0, 0.0], [0.0, 1.0], [-0.6, 0.8]):
        assert ev(u) == pytest.approx(np.dot(c, u) + 1.0, abs=1e-12)


def test_lens_support_values():
    lens = Generators(np.array([[0.0, 0.0], [1.0, 0.0]]))
    ev = SupportEval(lens)
    assert ev([1.0, 0.0]) == pytest.approx(1.0, abs=1e-9)
    assert ev([0.0, 1.0]) == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-9)


def test_cdual_of_unit_ball_is_its_center():
    ev = SupportEval(c_dual(ball_body([0.0, 0.0])))
    for u in ([1.0, 0.0], [0.0, -1.0]):
        assert ev(u) == pytest.approx(0.0, abs=1e-12)
    ev2 = SupportEval(point_body([0.2, 0.5]))
    assert ev2([1.0, 0.0]) == pytest.approx(0.2, abs=1e-12)


def test_support_normalizes_near_unit_directions():
    ev = SupportEval(ball_body([0.0, 0.0]))
    assert ev([1.0 + 5e-7, 0.0]) == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(ValueError):
        ev([1.1, 0.0])
    with pytest.raises(ValueError):
        SupportEval(ball_body([0.0, 0.0]))([0.0, 0.0])


def test_support_identity_on_net(net2):
    rng = np.random.default_rng(2)
    body = random_body(rng)
    h = SupportEval(body).on_net(net2)
    (g,) = sweep([c_dual(body)], -net2.directions, TOL)
    np.testing.assert_allclose(h + g, 1.0, atol=2e-6)


def test_involution_on_net(net2):
    rng = np.random.default_rng(3)
    for _ in range(5):
        body = random_body(rng)
        ev = SupportEval(body)
        evcc = SupportEval(c_dual(c_dual(body)))
        np.testing.assert_allclose(ev.on_net(net2), evcc.on_net(net2), atol=2e-6)


def test_norm_bound_bounds_support(net2):
    rng = np.random.default_rng(4)
    for _ in range(5):
        body = random_body(rng)
        h = SupportEval(body).on_net(net2)
        assert np.all(h <= body.norm_bound + 1e-9)
        assert np.all(h >= -body.norm_bound - 1e-9)


def test_sampled_sublinearity_of_tree_support():
    rng = np.random.default_rng(5)
    body = random_body(rng)
    for _ in range(40):
        u = rng.standard_normal(2)
        v = rng.standard_normal(2)
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        w = u + v
        nw = np.linalg.norm(w)
        if nw < 1e-6:
            continue
        (vals,) = sweep([body], np.array([u, v, w / nw]), TOL)
        assert nw * vals[2] <= vals[0] + vals[1] + 4 * TOL


# ---------------------------------------------------------------------------
# Hausdorff
# ---------------------------------------------------------------------------


def test_hausdorff_self_distance(net2):
    rng = np.random.default_rng(6)
    body = random_body(rng)
    res = hausdorff(body, body, net2)
    assert res.value <= 2 * TOL


def test_hausdorff_point_pair(net2):
    x = np.array([0.3, 0.4])
    y = np.array([-1.0, 0.2])
    res = hausdorff(point_body(x), point_body(y), net2)
    assert abs(res.value - np.linalg.norm(x - y)) <= res.error_bound


def test_hausdorff_point_vs_ball(net2):
    x = np.array([0.5, -0.3])
    y = np.array([-0.7, 0.8])
    res = hausdorff(point_body(x), ball_body(y), net2)
    assert abs(res.value - (1.0 + np.linalg.norm(x - y))) <= res.error_bound
    # the exact lower bound: a point is never closer than 1 to a unit ball
    same = hausdorff(point_body(x), ball_body(x), net2)
    assert same.value == pytest.approx(1.0, abs=1e-6)
    assert res.lower >= 1.0 - res.error_bound


def test_hausdorff_certifies_interval(net2):
    # the truth |x - y| sits inside [value - lower_slack, value + error_bound]
    x = np.array([1.3, 0.0])
    y = np.array([0.0, 0.9])
    res = hausdorff(point_body(x), point_body(y), net2)
    truth = float(np.linalg.norm(x - y))
    assert res.value - res.lower_slack <= truth <= res.value + res.error_bound


def test_net_error_bound_is_the_smaller_slack():
    nb, tol = (2.0, 3.0), (1e-6, 1e-6)
    curvatures = ((0.0, 1.0), (-0.5, 1.7))  # rho = max(1 + 0.5, 1.7 - 0) = 1.7
    curvature = (2.0 + 3.0 + 1.7) * 0.2**2 / 2.0 + 4e-6
    assert net_error_bound(0.2, nb, curvatures, tol) == pytest.approx(curvature, rel=1e-15)
    lipschitz = 2.0 * 3.0 * 0.02 + 4e-6
    assert net_error_bound(0.02, nb, None, tol) == lipschitz
    assert net_error_bound(1.9, nb, curvatures, tol) == 2.0 * 3.0 * 1.9 + 4e-6  # coarse: (5 + 1.7) 1.805 > 11.4
    assert net_error_bound(0.02, (2.0,), None, (1e-6,)) == 2.0 * 2.0 * 0.02 + 2e-6


def test_two_unit_balls_or_two_points_carry_no_curvature_spread():
    # a one-ball leaf has h + h'' = 1 exactly and its c-dual, a point, 0: rho = 0
    net = make_sphere_net(3, default_mesh(3))
    for make in (ball_body, point_body):
        k, t = make([0.3, -0.2, 0.1]), make([-0.5, 0.4, 0.0])
        expected = (k.norm_bound + t.norm_bound) * net.mesh**2 / 2.0 + 4 * TOL
        assert hausdorff(k, t, net).error_bound == pytest.approx(expected, rel=1e-15)


def test_net_error_bound_per_pair_matches_the_scalar_bound():
    rng = np.random.default_rng(13)
    nb_k, nb_t = rng.uniform(1.0, 4.0, (2, 50))
    lo_k, lo_t = rng.uniform(-1.0, 0.5, (2, 50))
    hi_k, hi_t = lo_k + rng.uniform(0.0, 2.0, 50), lo_t + rng.uniform(0.0, 2.0, 50)
    got = net_error_bound(0.3, (nb_k, nb_t), ((lo_k, hi_k), (lo_t, hi_t)), (TOL, TOL))
    for p in range(50):
        curvatures = ((lo_k[p], hi_k[p]), (lo_t[p], hi_t[p]))
        assert got[p] == net_error_bound(0.3, (nb_k[p], nb_t[p]), curvatures, (TOL, TOL))


FINE_MESH = {2: 0.002, 3: 0.05, 4: 0.15}


@pytest.mark.parametrize("dim, count", [(2, 30), (3, 20), (4, 12)])
def test_no_fine_net_value_exceeds_the_default_nets_upper_end(dim, count):
    net = make_sphere_net(dim, default_mesh(dim))
    fine = make_sphere_net(dim, FINE_MESH[dim])
    for k, t in body_pairs(200 + dim, dim, count):
        res = hausdorff(k, t, net)
        assert res.error_bound < net_error_bound(net.mesh, (k.norm_bound, t.norm_bound), None, (TOL, TOL))
        assert hausdorff(k, t, fine).value <= res.upper


@pytest.mark.parametrize("dim, old_mesh", [(3, 0.08), (4, 0.25)])
def test_default_bound_is_below_the_lipschitz_bound_at_the_former_mesh(dim, old_mesh):
    # every body of body_pairs has unit radii
    net = make_sphere_net(dim, default_mesh(dim))
    assert len(net) == {3: 384, 4: 1728}[dim]
    for k, t in body_pairs(300 + dim, dim, 30 if dim == 3 else 10):
        former = 2.0 * max(k.norm_bound, t.norm_bound) * old_mesh + 4 * TOL
        assert hausdorff(k, t, net).error_bound <= former


def test_cdual_is_isometry(net2):
    rng = np.random.default_rng(7)
    for _ in range(5):
        k = random_body(rng)
        t = random_body(rng)
        a = hausdorff(k, t, net2)
        b = hausdorff(c_dual(k), c_dual(t), net2)
        assert abs(a.value - b.value) <= a.error_bound + b.error_bound


def test_minkowski_combination_identities(net2):
    rng = np.random.default_rng(8)
    k = random_body(rng)
    t = random_body(rng)
    lam = 0.35
    # duality respects averaging
    left = SupportEval(c_dual(combine(lam, k, t)))
    right = SupportEval(combine(lam, c_dual(k), c_dual(t)))
    np.testing.assert_allclose(left.on_net(net2), right.on_net(net2), atol=2e-6)
    # segments are geodesics
    d_full = hausdorff(k, t, net2)
    d_part = hausdorff(combine(lam, k, t), k, net2)
    assert abs(d_part.value - lam * d_full.value) <= d_part.error_bound + d_full.error_bound
    # endpoints
    assert hausdorff(combine(0.0, k, t), k, net2).value <= 2 * TOL


def test_motion_support_and_invariance(net2):
    rng = np.random.default_rng(9)
    k = random_body(rng)
    t = random_body(rng)
    ident = apply_motion(RigidMotion.identity(2), k)
    assert hausdorff(ident, k, net2).value <= 2 * TOL
    shift = apply_motion(RigidMotion(np.eye(2), np.array([0.3, -0.1])), k)
    ev_k = SupportEval(k)
    ev_s = SupportEval(shift)
    np.testing.assert_allclose(
        ev_s.on_net(net2),
        ev_k.on_net(net2) + net2.directions @ np.array([0.3, -0.1]),
        atol=1e-12,
    )
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    g = RigidMotion(q, rng.uniform(-1, 1, 2))
    d0 = hausdorff(k, t, net2)
    d1 = hausdorff(apply_motion(g, k), apply_motion(g, t), net2)
    assert abs(d0.value - d1.value) <= d0.error_bound + d1.error_bound


def test_motion_node_matches_pushed_generators(net2):
    rng = np.random.default_rng(10)
    gen = Generators(rng.uniform(-0.5, 0.5, (3, 2)))
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    g = RigidMotion(q, np.array([0.2, 0.6]))
    a = SupportEval(Motion(g, gen))
    b = SupportEval(Generators(g.apply(gen.centers)))
    np.testing.assert_allclose(a.on_net(net2), b.on_net(net2), atol=2e-6)


# ---------------------------------------------------------------------------
# circumball and membership
# ---------------------------------------------------------------------------


def test_circumball_of_ball_and_point(net2):
    b = circumball(ball_body([0.4, -0.2]), net2)
    np.testing.assert_allclose(b.center, [0.4, -0.2], atol=1e-6)
    assert b.radius == pytest.approx(1.0, abs=1e-6)
    p = circumball(point_body([0.7, 0.1]), net2)
    np.testing.assert_allclose(p.center, [0.7, 0.1], atol=1e-6)
    assert p.radius == pytest.approx(0.0, abs=1e-6)


def test_circumball_of_lens(net2):
    lens = Generators(np.array([[0.0, 0.0], [1.0, 0.0]]))
    b = circumball(lens, net2)
    # along the lens axis the min-max is flat to first order, so the center
    # is only located to about radius * mesh / 2 there; the radius is sharp
    np.testing.assert_allclose(b.center, [0.5, 0.0], atol=0.012)
    assert b.radius == pytest.approx(math.sqrt(3.0) / 2.0, abs=2e-3)


def test_circumradius_never_exceeds_one(net2):
    rng = np.random.default_rng(11)
    for _ in range(8):
        b = circumball(random_body(rng), net2)
        assert b.radius <= 1.0 + 1e-4


def test_contains_center_and_circumcenter(net2):
    rng = np.random.default_rng(12)
    gen = Generators(rng.uniform(-0.4, 0.4, (3, 2)))
    assert contains_point(gen, gen.centers[0] * 0.0 + gen.leaf.interior, net2).inside
    body = random_body(rng)
    c = circumball(body, net2).center
    res = contains_point(body, c, net2)
    assert res.margin >= -1e-4  # circumcenters lie in the body (net precision)


def test_contains_rejects_far_points(net2):
    gen = ball_body([0.0, 0.0])
    res = contains_point(gen, [1.0 + 1e-3, 0.0], net2)
    assert not res.inside
    assert res.margin < 0


def test_contains_rejects_a_net_of_another_dimension():
    with pytest.raises(DimensionMismatchError, match="net dimension"):
        contains_point(ball_body([0.0, 0.0]), [0.0, 0.0], make_sphere_net(3, 0.5))


@pytest.mark.parametrize(
    "call",
    [
        lambda net: SupportEval(ball_body([0.0, 0.0])).on_net(net),
        lambda net: hausdorff(ball_body([0.0, 0.0]), point_body([0.5, 0.0]), net),
        lambda net: hausdorff(ball_body([0.0, 0.0, 0.0]), ball_body([0.0, 0.0]), net),
        lambda net: circumball(ball_body([0.0, 0.0]), net),
        lambda net: farthest_distance_batch(ball_body([0.0, 0.0]), np.zeros((1, 2)), net),
        lambda net: geodesic_midpoint_check(*[ball_body([0.0, 0.0])] * 3, net),
    ],
    ids=["on_net", "hausdorff", "hausdorff-bodies", "circumball", "farthest_distance_batch", "geodesic"],
)
def test_a_net_of_another_dimension_is_rejected(call, net3):
    # `SupportEval.on_net` is the one net-dimension check; the 3-d body of
    # the second hausdorff case meets the 3-d net, but its 2-d partner does not
    with pytest.raises(DimensionMismatchError, match="net dimension 3 does not match the body's 2"):
        call(net3)


def test_exact_and_net_membership_agree(net2):
    rng = np.random.default_rng(13)
    gen = Generators(rng.uniform(-0.5, 0.5, (3, 2)))
    for _ in range(100):
        y = rng.uniform(-1.6, 1.6, 2)
        res = contains_point(gen, y, net2)
        exact = bool(np.all(np.linalg.norm(y - gen.centers, axis=1) <= 1 + 1e-12))
        assert res.inside == exact
        # the net margin may only disagree with the exact test inside the net gap
        if res.margin > 2 * gen.leaf.slack * net2.mesh + 2e-6:
            assert exact


# ---------------------------------------------------------------------------
# reconstruction from point distances
# ---------------------------------------------------------------------------


def test_single_probe_reconstruction(net2):
    x = np.array([0.5, 0.5])
    ev = reconstruct([(x, 2.0)], net2)
    h = ev.on_net(net2)
    np.testing.assert_allclose(h, net2.directions @ x + 2.0, atol=1e-9)


def test_reconstruct_unit_ball_from_grid(net2):
    ball = ball_body([0.0, 0.0])
    xs = np.linspace(-2.0, 2.0, 9)
    probes = []
    for gx in xs:
        for gy in xs:
            x = np.array([gx, gy])
            d = hausdorff(point_body(x), ball, net2).value
            probes.append((x, d))
    ev = reconstruct(probes, net2)
    h = ev.on_net(net2)
    # contains the ball up to the probe quantization error
    assert np.all(h >= 1.0 - 1e-3)
    res = hausdorff(ev, SupportEval(ball), net2)
    assert res.value <= 0.05


def test_reconstruct_point_shrinks_with_grid(net2):
    p = np.array([0.2, -0.1])
    deltas = []
    for step in (0.5, 0.25):
        xs = np.arange(-1.5, 1.5 + 1e-9, step)
        probes = []
        for gx in xs:
            for gy in xs:
                x = np.array([gx, gy])
                probes.append((x, float(np.linalg.norm(x - p)) + 1e-9))
        ev = reconstruct(probes, net2)
        h = ev.on_net(net2)
        assert np.all(h >= net2.directions @ p - 1e-6)  # contains the point
        deltas.append(float(np.max(np.abs(h - net2.directions @ p))))
    assert deltas[1] <= deltas[0]
    assert deltas[1] < 0.1


def test_reconstruct_empty_raises(net2):
    with pytest.raises(EmptyReconstructionError):
        reconstruct([(np.array([0.0, 0.0]), 1.0), (np.array([5.0, 0.0]), 1.0)], net2)


def test_reconstruct_rejects_missing_or_non_finite_probe_data(net2):
    with pytest.raises(ValueError, match="at least one .point, distance. pair"):
        reconstruct([], net2)
    for bad in (np.nan, np.inf, -1.0):
        with pytest.raises(ValueError, match="probe distances must be finite and nonnegative"):
            reconstruct([(np.zeros(2), bad)], net2)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_farthest_distance_matches_closed_form(dim):
    # never below the true distance R, and at most the bound's slack above it
    net = make_sphere_net(dim, {2: 0.02, 3: 0.08, 4: 0.25}[dim])
    shrink = 1.0 - net.mesh**2 / 2.0
    rng = np.random.default_rng(2)
    for _ in range(10):
        x, c = rng.uniform(-2.0, 2.0, dim), rng.uniform(-0.5, 0.5, dim)
        far = float(np.linalg.norm(x - c))
        for body, R in ((ball_body(c), far + 1.0), (point_body(c), far)):
            (got,) = farthest_distance_batch(body, x[None, :], net, TOL)
            assert R <= got <= (R + TOL) / shrink + 1e-12


def test_farthest_distance_rejects_a_void_net_and_probes_of_another_dimension(net2):
    body = ball_body([0.0, 0.0])
    with pytest.raises(ValueError, match="mesh below sqrt.2., got 1.5"):
        farthest_distance_batch(body, np.zeros((1, 2)), make_sphere_net(2, 1.5))
    with pytest.raises(DimensionMismatchError):
        farthest_distance_batch(body, np.zeros((4, 3)), net2)


def _dense_farthest(ev, x, count=20000):
    """max over the circle of h(u) - <x, u>: a 20 000-angle sweep, then a
    second 20 000-angle sweep across the two steps around its best angle."""

    def phi(theta):
        u = np.column_stack([np.cos(theta), np.sin(theta)])
        return sweep([ev.body], u, ev.tol)[0] - u @ x

    theta = np.linspace(0.0, 2.0 * math.pi, count, endpoint=False)
    vals = phi(theta)
    step = 2.0 * math.pi / count
    best = theta[int(np.argmax(vals))]
    fine = np.linspace(best - step, best + step, count)
    return max(float(np.max(vals)), float(np.max(phi(fine))))


@pytest.mark.parametrize("mesh", [0.02, 0.3])
def test_farthest_distance_batch_matches_dense_sweep(mesh):
    net = make_sphere_net(2, mesh)
    rng = np.random.default_rng(31)
    cases = [(SupportEval(random_body(rng)), rng.uniform(-2.0, 2.0, (6, 2))) for _ in range(4)]
    # two near-tied local maxima, 6.8e-6 apart: the net maximizer of the
    # default net lies next to the lower one
    lens = Generators(np.array([[-0.640734985704592, 0.06899873812121052], [-0.487602554119013, 0.271330182868868]]))
    cases.append((SupportEval(c_dual(lens)), np.array([[-1.0, 0.5]])))
    for ev, xs in cases:
        got = farthest_distance_batch(ev, xs, net)
        dense = np.array([_dense_farthest(ev, x) for x in xs])
        assert np.all(dense <= got)
        assert np.all(got <= (dense + 2 * ev.tol) / (1.0 - mesh**2 / 2.0))
        assert farthest_distance_batch(ev, xs[:1], net)[0] == got[0]  # one probe alone


def test_net_sweep_cache_is_transparent(net2):
    rng = np.random.default_rng(14)
    ev = SupportEval(random_body(rng))
    first = ev.on_net(net2)
    second = ev.on_net(net2)
    assert first is second  # memoized
    fresh = SupportEval(ev.body).on_net(net2)
    np.testing.assert_array_equal(first, fresh)


def test_net_sweep_cache_never_serves_a_dropped_net():
    # a dropped net's id may be reused by the next net built
    for _ in range(10):
        ev = SupportEval(ball_body(np.zeros(2)))
        ev.on_net(make_sphere_net(2, 0.5))
        finer = make_sphere_net(2, 0.1)
        assert ev.on_net(finer).shape == (len(finer),)


# ---------------------------------------------------------------------------
# the one-pass sweep of many bodies
# ---------------------------------------------------------------------------


def reference_sweep(body, dirs, tol=TOL):
    """One body's sweep by plain recursion, a node at a time, every leaf by `support_batch`."""
    if isinstance(body, Generators):
        return support_batch(body.leaf, dirs, tol)
    if isinstance(body, CDual):
        return 1.0 - reference_sweep(body.of, -dirs, tol)
    if isinstance(body, Combine):
        return (1.0 - body.lam) * reference_sweep(body.a, dirs, tol) + body.lam * reference_sweep(body.b, dirs, tol)
    assert isinstance(body, Motion)
    return reference_sweep(body.of, dirs @ body.g.rotation, tol) + dirs @ body.g.translation


def assert_sweeps_like_the_reference(bodies, dirs, tol=TOL):
    got = sweep(bodies, dirs, tol)
    assert got.shape == (len(bodies), len(dirs))
    assert np.array_equal(got, np.array([reference_sweep(body, dirs, tol) for body in bodies]))


def leaf_dirs(monkeypatch):
    """The direction arrays that `sweep` hands the solver from here on, per leaf solve."""
    seen = []
    one, fused = support_module.support_batch, support_module.arc_support_batch

    def solve_one(leaf, dirs, tol):
        seen.append(dirs)
        return one(leaf, dirs, tol)

    def solve_fused(leaves, dirs, tol):
        seen.extend(dirs)
        return fused(leaves, dirs, tol)

    monkeypatch.setattr(support_module, "support_batch", solve_one)
    monkeypatch.setattr(support_module, "arc_support_batch", solve_fused)
    return seen


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_sweep_matches_the_recursive_reference_on_the_corpus(dim):
    bodies = body_corpus(30 + dim, dim, 24 if dim < 4 else 10)
    shared = [
        shape
        for K in bodies[4:8]
        for shape in (c_dual(c_dual(K)), combine(0.35, K, apply_motion(random_motion(np.random.default_rng(dim), dim), K)))
    ]
    net = make_sphere_net(dim, default_mesh(dim))
    assert_sweeps_like_the_reference(bodies + shared, net.directions)
    assert_sweeps_like_the_reference(bodies[5:6], -net.directions)  # one body


def test_sweep_shares_a_motion_between_bodies_and_keeps_its_arrays_read_only(monkeypatch, net2):
    rng = np.random.default_rng(60)
    g = random_motion(rng, 2)
    bodies = [apply_motion(g, Generators(rng.uniform(-0.4, 0.4, size=(m, 2)))) for m in (1, 3, 4, 5)]
    bodies.append(apply_motion(g, c_dual(bodies[2].of)))
    expected = np.array([reference_sweep(body, net2.directions) for body in bodies])
    seen = leaf_dirs(monkeypatch)
    assert np.array_equal(sweep(bodies, net2.directions, TOL), expected)
    rotated = [dirs for dirs in seen if np.array_equal(dirs, net2.directions @ g.rotation)]
    assert len(seen) == 5 and len(rotated) == 4 and all(dirs is rotated[0] for dirs in rotated)  # the memo hits
    (flipped,) = [dirs for dirs in seen if dirs is not rotated[0]]
    assert np.array_equal(flipped, -rotated[0])
    for dirs in seen:
        assert not dirs.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            dirs[0, 0] = 0.0
    mine = np.array(net2.directions)
    sweep(bodies, mine, TOL)
    assert mine.flags.writeable  # the caller's array is left as it is


def test_sweep_sends_unproven_arc_pieces_and_point_like_leaves_to_their_solvers(monkeypatch):
    # below the piece gaps of a generic leaf its pieces take the pivot, from
    # every sweep of it in the batch; two tangent unit balls are one point
    leaf = Generators(np.random.default_rng(5).uniform(-0.4, 0.4, size=(5, 2)))
    tight = 1e-15
    assert np.any(leaf.leaf.arcs.gap > tight) and np.any(leaf.leaf.arcs.gap <= tight)
    g = random_motion(np.random.default_rng(61), 2)
    point = Generators(np.array([[-1.0, 0.3], [1.0, 0.3]]))
    assert point.leaf.point_like
    dirs = make_sphere_net(2, 0.05).directions
    pivot, pivoted = solver._pivot_support, []

    def counted(leaf, U, tol):
        pivoted.append(len(U))
        return pivot(leaf, U, tol)

    with monkeypatch.context() as patch:
        patch.setattr(solver, "_pivot_support", counted)
        got = sweep([leaf, c_dual(leaf), apply_motion(g, leaf)], dirs, tight)
    assert len(pivoted) == 3 and all(0 < count < len(dirs) for count in pivoted)
    assert_sweeps_like_the_reference([leaf, c_dual(leaf), apply_motion(g, leaf)], dirs, tight)
    assert np.array_equal(got, sweep([leaf, c_dual(leaf), apply_motion(g, leaf)], dirs, tight))
    assert_sweeps_like_the_reference([point, combine(0.5, point, leaf), c_dual(point)], dirs)


@pytest.mark.parametrize("tol", [float("nan"), 0.0, float("inf"), -1e-6])
def test_sweep_rejects_a_tolerance_that_is_not_positive_and_finite(tol, net2):
    with pytest.raises(ValueError, match="tolerance must be positive and finite"):
        sweep([ball_body(np.zeros(2))], net2.directions, tol)


def test_sweep_rejects_a_body_of_another_dimension(net2, net3):
    with pytest.raises(DimensionMismatchError, match="directions of dimension 3 do not match the body's 2"):
        sweep([ball_body(np.zeros(3)), ball_body(np.zeros(2))], net3.directions, TOL)
    assert sweep([], net2.directions, TOL).shape == (0, len(net2))
