"""Isometry screening, normal-form classification, geodesic midpoint checks."""

import re

import numpy as np
import pytest

import ballbodies.bodies as bodies_module
import ballbodies.support as support_module
from ballbodies.bodies import (
    Combine,
    Generators,
    apply_motion,
    ball_body,
    body_to_doc,
    c_dual,
    combine,
    parse_body,
    point_body,
)
from ballbodies.corpus import random_body, random_motion
from ballbodies.errors import AmbiguousClassificationError, DimensionMismatchError, NotIsometryError
from ballbodies.geometry import RigidMotion, make_sphere_net, procrustes_fit
from ballbodies.lab import (
    DEFECT_TOL,
    N_TEST_BODIES,
    POINT_RADIUS_TOL,
    PROBE_OFFSET,
    ClassifierConfig,
    _ball_fits,
    _probes,
    _screening,
    _test_bodies,
    classify_isometry,
    geodesic_midpoint_check,
    screening_bound,
)
from ballbodies.maps import (
    BlackBoxMap,
    cdual_map,
    compose_maps,
    constant_map,
    motion_map,
    scale_centers_map,
)
from ballbodies.selftest import run_selftest
from ballbodies.support import (
    SupportEval,
    as_eval,
    circumball,
    default_mesh,
    farthest_distance,
    hausdorff,
    net_error_bound,
)


@pytest.fixture(scope="module")
def net2():
    return make_sphere_net(2, 0.02)


@pytest.fixture(scope="module")
def config2(net2):
    return ClassifierConfig(dimension=2, net=net2)


@pytest.fixture
def no_lp(monkeypatch):
    """Fail any linear program: classification and the geodesic check must not need one."""

    def refuse(*args, **kwargs):
        raise AssertionError("the classifier solved a linear program")

    monkeypatch.setattr(support_module, "circumcenter_lp", refuse)


def test_no_lp_fixture_refuses_the_circumball_lp(no_lp, net2):
    with pytest.raises(AssertionError, match="the classifier solved a linear program"):
        circumball(ball_body(np.zeros(2)), net2)


def probe_points(dim):
    return np.vstack([np.zeros(dim), PROBE_OFFSET * np.eye(dim), -PROBE_OFFSET * np.eye(dim)])


def fresh_probes(dim):
    """The 4n + 2 probes, built afresh: point probes, then unit-ball probes on the same points."""
    points = probe_points(dim)
    return [point_body(x) for x in points] + [ball_body(x) for x in points]


def closed_form_distance(dim, i, j):
    """d(probe i, probe j) in the order of `fresh_probes`, from the geometry of points and unit balls."""
    points = probe_points(dim)
    k = len(points)
    gap = np.linalg.norm(points[i % k] - points[j % k])
    return gap + 1.0 if (i < k) != (j < k) else gap


def pairwise_defect(T, dim, net, tol=1e-6):
    """The screening defect from `hausdorff` on each pair of images against the closed forms: the reference."""
    images = [T(probe) for probe in fresh_probes(dim)]
    upper = lower = 0.0
    for i in range(len(images)):
        for j in range(i + 1, len(images)):
            after = hausdorff(images[i], images[j], net, tol)
            shift = abs(after.value - closed_form_distance(dim, i, j))
            upper = max(upper, shift + after.error_bound)
            lower = max(lower, shift - after.error_bound)
    return upper, lower


def sweeps(bodies, net, tol=1e-6):
    """Each body's support on the net, one row per body."""
    return np.vstack([as_eval(body, tol).on_net(net) for body in bodies])


def screening_lower(exc) -> float:
    return float(re.search(r"distance defect is at least (\S+),", str(exc)).group(1))


def test_defect_of_identity_and_cdual(config2):
    # both are isometries, so each pair's defect is within twice its net bound
    bound = 2 * (2 * 6.0 * config2.net.mesh + 4e-6)
    assert classify_isometry(motion_map(RigidMotion.identity(2)), config2).isometry_defect <= bound
    assert classify_isometry(cdual_map(2), config2).isometry_defect <= bound


def test_defect_of_constant_map_is_large(config2):
    with pytest.raises(NotIsometryError) as info:
        classify_isometry(constant_map(point_body(np.zeros(2))), config2)
    assert screening_lower(info.value) >= 1.5  # roughly the probe diameter


@pytest.mark.parametrize("dim", [2, 3])
def test_probe_distances_lie_in_the_certified_hausdorff_interval(dim):
    net = make_sphere_net(dim, default_mesh(dim))
    points, probes, distances = _probes(dim)
    assert len(probes) == 4 * dim + 2
    for i, k in enumerate(probes):
        for j, l in enumerate(probes):
            assert distances[i, j] == closed_form_distance(dim, i, j)
            res = hausdorff(k, l, net)
            assert res.lower <= distances[i, j] <= res.upper


def counting(T):
    calls = []

    def evaluate(body):
        calls.append(body)
        return T(body)

    return BlackBoxMap(evaluate, T.dim, name=T.name), calls


def three_center_leaf(dim):
    return Generators(np.random.default_rng(dim).uniform(-0.4, 0.4, size=(3, dim)))


def test_screening_maps_each_probe_once_and_matches_pairwise_defect(config2):
    rng = np.random.default_rng(12)
    maps = [
        motion_map(random_motion(rng, 2)),
        compose_maps([cdual_map(2), motion_map(random_motion(rng, 2))]),
        constant_map(three_center_leaf(2)),
        scale_centers_map(2, 2.0),
    ]
    for T in maps:
        counted, calls = counting(T)
        upper, lower = pairwise_defect(T, 2, config2.net)
        if lower > DEFECT_TOL:
            with pytest.raises(NotIsometryError) as info:
                classify_isometry(counted, config2)
            assert f"at least {lower:.3f}," in str(info.value)
            assert f"(worst-case endpoint {upper:.3f})" in str(info.value)
            assert len(calls) == 10
        else:
            assert classify_isometry(counted, config2).isometry_defect == upper
            assert len(calls) == 10 + N_TEST_BODIES
        assert len({id(body) for body in calls[:10]}) == 10


@pytest.mark.parametrize("d", [0.0, 4.0, 10.0])
def test_screening_of_one_pair_matches_hausdorff(net2, d):
    # the pair's bound is hausdorff's, from the larger of the two norm bounds
    images = [point_body(np.zeros(2)), ball_body(np.array([3.0, 0.0]))]
    assert images[0].norm_bound != images[1].norm_bound
    res = hausdorff(*images, net2)
    shift = abs(res.value - d)
    got = _screening(images, sweeps(images, net2), np.array([[0.0, d], [d, 0.0]]), net2, 1e-6)
    assert got == (shift + res.error_bound, max(shift - res.error_bound, 0.0))


@pytest.mark.parametrize("dim", [2, 3])
def test_screening_sweeps_a_constant_image_once(monkeypatch, dim):
    # the probes' own distances are closed forms, so no probe is swept
    solve = support_module.support_batch
    body = three_center_leaf(dim)
    leaves = []

    def counted(leaf, dirs, tol=1e-6):
        leaves.append(leaf)
        return solve(leaf, dirs, tol)

    monkeypatch.setattr(support_module, "support_batch", counted)
    config = ClassifierConfig(dimension=dim, net=make_sphere_net(dim, 0.3))
    with pytest.raises(NotIsometryError, match="distance defect"):
        classify_isometry(constant_map(body), config)
    assert len(leaves) == 1 and leaves[0] is body.leaf


def test_config_rejects_a_net_of_another_dimension():
    # the check sits where the net is used, so a net set after construction meets it too
    built = ClassifierConfig(dimension=3, net=make_sphere_net(2, 0.02))
    assigned = ClassifierConfig(dimension=3)
    assert assigned.net.dim == 3
    assigned.net = make_sphere_net(2, 0.02)
    for config in (built, assigned):
        with pytest.raises(DimensionMismatchError, match="net dimension 2 is not the classifier's 3"):
            classify_isometry(cdual_map(3), config)


def test_a_net_that_does_not_span_raises():
    # two antipodal directions cannot pin down a center; four can
    T = motion_map(RigidMotion(np.eye(2), np.array([0.3, 0.1])))
    with pytest.raises(ValueError, match="do not span R\\^2: ball fits need rank 3, got 2"):
        classify_isometry(T, ClassifierConfig(dimension=2, net=make_sphere_net(2, 1.5)))
    result = classify_isometry(T, ClassifierConfig(dimension=2, net=make_sphere_net(2, 1.4)))
    assert result.kind == "identity"
    assert np.max(np.abs(result.motion.translation - [0.3, 0.1])) <= 1e-12


def test_classify_planted_motion(config2, no_lp):
    rng = np.random.default_rng(42)
    g = random_motion(rng, 2)
    result = classify_isometry(motion_map(g), config2)
    assert result.kind == "identity"
    assert np.max(np.abs(result.motion.rotation - g.rotation)) < 1e-4
    assert np.max(np.abs(result.motion.translation - g.translation)) < 1e-4
    assert result.residual <= 5 * result.residual_bound


def test_classify_planted_motion_after_duality(config2, no_lp):
    rng = np.random.default_rng(43)
    g = random_motion(rng, 2)
    T = compose_maps([cdual_map(2), motion_map(g)])
    result = classify_isometry(T, config2)
    assert result.kind == "cdual"
    assert np.max(np.abs(result.motion.rotation - g.rotation)) < 1e-4
    assert np.max(np.abs(result.motion.translation - g.translation)) < 1e-4
    assert result.residual <= 5 * result.residual_bound


def test_classify_bare_duality(config2):
    result = classify_isometry(cdual_map(2), config2)
    assert result.kind == "cdual"
    assert np.max(np.abs(result.motion.rotation - np.eye(2))) < 1e-4
    assert np.max(np.abs(result.motion.translation)) < 1e-4
    assert result.residual <= 5 * result.residual_bound


def test_classify_rejects_constant_and_scaling(config2):
    with pytest.raises(NotIsometryError):
        classify_isometry(constant_map(point_body(np.zeros(2))), config2)
    with pytest.raises(NotIsometryError):
        classify_isometry(scale_centers_map(2, 2.0), config2)


def test_classify_planted_reflection_3d(no_lp):
    net3 = make_sphere_net(3, 0.08)
    config = ClassifierConfig(dimension=3, net=net3)
    rng = np.random.default_rng(7)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    if np.linalg.det(q) > 0:
        q = q.copy()
        q[:, 0] = -q[:, 0]
    g = RigidMotion(q, rng.uniform(-1, 1, 3))
    result = classify_isometry(motion_map(g), config)
    assert result.kind == "identity"
    assert np.max(np.abs(result.motion.rotation - q)) < 1e-4
    assert np.linalg.det(result.motion.rotation) < 0


def rebuilt_classification(T, config):
    """The classifier with every probe, test body and oracle built afresh on each call: the reference.

    Stage 3 compares each pulled-back image g^-1 T K with K, or with its c-dual.
    """
    dim, net, tol = config.dimension, config.net, config.tol
    defect, defect_lower = pairwise_defect(T, dim, net, tol)
    if defect_lower > DEFECT_TOL:
        raise NotIsometryError(
            f"distance defect is at least {defect_lower:.3f}, beyond the screening "
            f"tolerance {DEFECT_TOL} (worst-case endpoint {defect:.3f})"
        )

    sources = probe_points(dim)
    centers, radii = _ball_fits(sweeps([T(probe) for probe in fresh_probes(dim)], net, tol), net, tol)
    k = len(sources)
    point_r, ball_r = float(np.max(radii[:k])), float(np.max(radii[k:]))
    if point_r <= POINT_RADIUS_TOL and ball_r <= POINT_RADIUS_TOL:
        raise AmbiguousClassificationError(
            f"both probe families collapse to near-points (radii {point_r:.2e}, {ball_r:.2e})"
        )
    if point_r > POINT_RADIUS_TOL and ball_r > POINT_RADIUS_TOL:
        raise NotIsometryError(
            "neither points nor unit balls map to near-points "
            f"(radii {point_r:.2e}, {ball_r:.2e}); the map cannot be an isometry"
        )
    kind = "identity" if point_r <= POINT_RADIUS_TOL else "cdual"
    motion, fit_rms = procrustes_fit(sources, centers[:k] if kind == "identity" else centers[k:])
    rng = np.random.default_rng(config.seed)
    inverse = motion.inverse()
    residual = residual_bound = 0.0
    for _ in range(N_TEST_BODIES):
        body = random_body(rng, dim)
        model = body if kind == "identity" else c_dual(body)
        res = hausdorff(apply_motion(inverse, T(body)), model, net, tol)
        residual = max(residual, res.value)
        residual_bound = max(residual_bound, res.error_bound)
    return {
        "kind": kind,
        "rotation": motion.rotation.tolist(),
        "translation": motion.translation.tolist(),
        "residual": residual,
        "residual_bound": residual_bound,
        "isometry_defect": defect,
        "fit_rms": fit_rms,
        "stage1_point_radius": point_r,
        "stage1_ball_radius": ball_r,
        "details": {"map": T.name, "n_correspondences": len(sources)},
    }


def outcome(classify, T, config):
    """A classification's document, or the type and message of its rejection."""
    try:
        result = classify(T, config)
    except (NotIsometryError, AmbiguousClassificationError) as exc:
        return type(exc).__name__, str(exc)
    return result if isinstance(result, dict) else result.to_doc()


def classifier_maps(dim):
    rng = np.random.default_rng(30 + dim)
    return [
        motion_map(random_motion(rng, dim)),
        compose_maps([cdual_map(dim), motion_map(random_motion(rng, dim))]),
        constant_map(three_center_leaf(dim)),
        scale_centers_map(dim, 2.0),
    ]


@pytest.mark.parametrize("dim", [2, 3])
def test_classification_matches_a_per_call_rebuild_bit_for_bit(dim):
    config = ClassifierConfig(dimension=dim, net=make_sphere_net(dim, 0.12 if dim == 3 else 0.05))
    for T in classifier_maps(dim):
        reference = outcome(rebuilt_classification, T, config)
        assert outcome(classify_isometry, T, config) == reference
        assert outcome(classify_isometry, T, config) == reference


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_stages_one_and_two_map_a_point_and_a_ball_on_each_probe_point(monkeypatch, dim):
    # the 2n + 1 probe points 0 and +-2 e_i, each as a point and as a unit
    # ball, serve screening and stage 1; stage 2 maps nothing, and every
    # sweep is on the configured net
    g = random_motion(np.random.default_rng(47), dim)
    T, calls = counting(compose_maps([cdual_map(dim), motion_map(g)]))
    config = ClassifierConfig(dimension=dim, net=make_sphere_net(dim, 0.5))
    on_net = SupportEval.on_net
    nets = []

    def recording(self, net):
        nets.append(net)
        return on_net(self, net)

    monkeypatch.setattr(SupportEval, "on_net", recording)
    assert classify_isometry(T, config).details["n_correspondences"] == 2 * dim + 1
    stage3 = {id(body) for body in _test_bodies(dim, config.seed)}
    before = next(i for i, body in enumerate(calls) if id(body) in stage3)
    assert before == 2 * (2 * dim + 1)
    assert len(calls) == before + N_TEST_BODIES
    assert nets and all(net is config.net for net in nets)


def test_classify_planted_4d_reflection_after_duality(no_lp):
    rng = np.random.default_rng(48)
    g = random_motion(rng, 4)
    q = g.rotation.copy()
    if np.linalg.det(q) > 0:
        q[:, 0] = -q[:, 0]
    g = RigidMotion(q, g.translation)
    result = classify_isometry(compose_maps([cdual_map(4), motion_map(g)]), ClassifierConfig(dimension=4))
    assert result.kind == "cdual"
    assert np.linalg.det(result.motion.rotation) < 0
    assert np.max(np.abs(result.motion.rotation - q)) <= 1e-9
    assert np.max(np.abs(result.motion.translation - g.translation)) <= 1e-9


def test_planted_3d_cdual_motion_has_a_residual_bound_below_the_former_default(no_lp):
    # the former default: the Lipschitz slack on the 0.08 net (1944 directions)
    T = compose_maps([cdual_map(3), motion_map(random_motion(np.random.default_rng(49), 3))])
    config = ClassifierConfig(dimension=3)
    result = classify_isometry(T, config)
    assert result.kind == "cdual"
    tols = (config.tol, config.tol)
    former = max(
        net_error_bound(0.08, (T(body).norm_bound, apply_motion(result.motion, c_dual(body)).norm_bound), None, tols)
        for body in _test_bodies(3, config.seed)
    )
    assert result.residual_bound < former / 3
    assert result.residual <= result.residual_bound


@pytest.mark.parametrize("dim", [2, 3])
def test_screening_bound_is_the_largest_pair_bound_of_the_probes(dim):
    net = make_sphere_net(dim, default_mesh(dim))
    _, probes, _ = _probes(dim)
    tols = (1e-6, 1e-6)
    worst = max(
        net_error_bound(net.mesh, (k.norm_bound, l.norm_bound), (k.curvature, l.curvature), tols)
        for i, k in enumerate(probes)
        for j, l in enumerate(probes)
        if i < j
    )
    assert screening_bound(dim, net, 1e-6) == worst


def leaves_of(body):
    """The solver leaves of a body tree."""
    if isinstance(body, Generators):
        return [body.leaf]
    if isinstance(body, Combine):
        return leaves_of(body.a) + leaves_of(body.b)
    return leaves_of(body.of)


@pytest.mark.parametrize("kind", ["identity", "cdual"])
def test_a_second_classification_sweeps_no_test_body_model(monkeypatch, kind):
    # the map rebuilds its images from their documents, so no image shares a
    # leaf with a test body; a fresh net is a fresh key of the models' cache
    g = random_motion(np.random.default_rng(50), 2)
    planted = motion_map(g) if kind == "identity" else compose_maps([cdual_map(2), motion_map(g)])
    T = BlackBoxMap(lambda body: parse_body(body_to_doc(planted(body))), 2)
    config = ClassifierConfig(dimension=2, net=make_sphere_net(2, 0.05))
    model_leaves = {id(leaf) for body in _test_bodies(2, config.seed) for leaf in leaves_of(body)}
    solve = support_module.support_batch
    swept = []

    def counted(leaf, dirs, tol=1e-6):
        swept.append(id(leaf) in model_leaves)
        return solve(leaf, dirs, tol)

    monkeypatch.setattr(support_module, "support_batch", counted)
    first = classify_isometry(T, config).to_doc()
    assert first["kind"] == kind and any(swept)
    swept.clear()
    assert classify_isometry(T, config).to_doc() == first
    assert swept and not any(swept)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_the_body_frame_residual_is_the_residual_in_the_image_frame(dim, no_lp):
    # d(g^-1 T K, K) = d(T K, g K); on the net the two agree to rounding
    g = random_motion(np.random.default_rng(51 + dim), dim)
    config = ClassifierConfig(dimension=dim)
    for T in (motion_map(g), compose_maps([cdual_map(dim), motion_map(g)])):
        result = classify_isometry(T, config)
        models = [body if result.kind == "identity" else c_dual(body) for body in _test_bodies(dim, config.seed)]
        pairs = [
            hausdorff(T(body), apply_motion(result.motion, model), config.net, config.tol)
            for body, model in zip(_test_bodies(dim, config.seed), models)
        ]
        assert abs(result.residual - max(res.value for res in pairs)) <= 1e-12
        bound = max(res.error_bound for res in pairs)
        assert abs(result.residual_bound - bound) <= 1e-12 * bound


def test_an_image_too_deep_to_pull_back_raises_value_error(config2):
    # a depth-3 test body under 13 c-duals is as deep as a tree may be, so
    # the pulled-back image g^-1 T K cannot be built; 11 c-duals leave room
    assert max(body.depth for body in _test_bodies(2, config2.seed)) == 3
    assert classify_isometry(compose_maps([cdual_map(2)] * 11), config2).kind == "cdual"
    with pytest.raises(ValueError, match="expression depth exceeds 16"):
        classify_isometry(compose_maps([cdual_map(2)] * 13), config2)


def test_second_classification_prepares_no_leaf(monkeypatch, config2):
    T = motion_map(random_motion(np.random.default_rng(44), 2))
    first = classify_isometry(T, config2).to_doc()
    prepare = bodies_module.prepare_leaf
    prepared = []

    def counted(*args, **kwargs):
        prepared.append(args)
        return prepare(*args, **kwargs)

    monkeypatch.setattr(bodies_module, "prepare_leaf", counted)
    assert classify_isometry(T, config2).to_doc() == first
    assert len(prepared) == 0


@pytest.mark.parametrize("name, value", [("seed", 5)])
def test_config_fields_set_after_construction_take_effect(net2, name, value):
    T = compose_maps([cdual_map(2), motion_map(random_motion(np.random.default_rng(45), 2))])

    def stage3_inputs(config):
        """The documents of the bodies the map receives after the 10 probes."""
        recorded, calls = counting(T)
        classify_isometry(recorded, config)
        return [body_to_doc(body) for body in calls[10:]]

    config = ClassifierConfig(dimension=2, net=net2)
    default = stage3_inputs(config)
    setattr(config, name, value)
    fresh = ClassifierConfig(dimension=2, net=net2, **{name: value})
    assert classify_isometry(T, config).to_doc() == classify_isometry(T, fresh).to_doc()
    assert stage3_inputs(config) == stage3_inputs(fresh)
    assert stage3_inputs(config) != default


def first_centers(body):
    while not isinstance(body, Generators):
        body = body.a if isinstance(body, Combine) else body.of
    return body.centers


@pytest.mark.parametrize("writes_from", [0, 10])  # the probes, stage 3 in 2-d
def test_a_map_writing_into_its_input_raises_and_later_calls_are_unaffected(config2, writes_from):
    T = motion_map(random_motion(np.random.default_rng(46), 2))
    before = classify_isometry(T, config2).to_doc()
    calls = []

    def writing(body):
        if len(calls) >= writes_from:
            first_centers(body)[0] += 1.0
        calls.append(body)
        return T(body)

    with pytest.raises(NotIsometryError) as info:  # in every stage
        classify_isometry(BlackBoxMap(writing, 2), config2)
    error = info.value.__cause__
    assert isinstance(error, ValueError) and "read-only" in str(error)
    assert len(calls) == writes_from
    assert classify_isometry(T, config2).to_doc() == before


@pytest.mark.parametrize("dim", [2, 3])
def test_ball_fits_exact_for_points_and_unit_balls(dim):
    rng = np.random.default_rng(20 + dim)
    g = random_motion(rng, dim)
    xs = rng.uniform(-3.0, 3.0, size=(6, dim))
    net = make_sphere_net(dim, 0.2)
    points = [point_body(x) for x in xs] + [c_dual(ball_body(x)) for x in xs]
    balls = [ball_body(x) for x in xs] + [apply_motion(g, c_dual(point_body(x))) for x in xs]
    shrink = 1.0 - net.mesh**2 / 2.0  # the upper end is (r + tol) / (1 - mesh^2 / 2)
    centers, radii = _ball_fits(sweeps(points, net, 1e-9), net, 1e-9)
    assert np.max(np.abs(centers - np.vstack([xs, xs]))) <= 1e-12
    np.testing.assert_allclose(radii, 1e-9 / shrink, rtol=0, atol=1e-12)
    centers, radii = _ball_fits(sweeps(balls, net, 1e-9), net, 1e-9)
    assert np.max(np.abs(centers - np.vstack([xs, g.apply(xs)]))) <= 1e-12
    np.testing.assert_allclose(radii, (1.0 + 1e-9) / shrink, rtol=0, atol=1e-12)


def test_ball_fit_radius_bounds_circumball_lp():
    # the upper end exceeds the LP objective at a feasible center, never below the optimum
    rng = np.random.default_rng(9)
    for dim in (2, 3):
        net = make_sphere_net(dim, 0.2)
        bodies = [random_body(rng, dim) for _ in range(8)]
        _, radii = _ball_fits(sweeps(bodies, net, 1e-9), net, 1e-9)
        for body, r in zip(bodies, radii):
            assert r >= circumball(body, net, 1e-9).radius - 1e-7


@pytest.mark.parametrize("dim, dense_mesh", [(2, 0.005), (3, 0.08), (4, 0.15)])
def test_certified_radius_ends_bracket_a_dense_net_reference(dim, dense_mesh):
    # the dense LP radius r satisfies r - tol <= R, and R is at most the
    # farthest distance from its center, (r + tol) / (1 - mesh^2 / 2); the
    # bare r can itself lie below R, so neither end is compared with it alone
    rng = np.random.default_rng(60 + dim)
    net, dense, tol = make_sphere_net(dim, default_mesh(dim)), make_sphere_net(dim, dense_mesh), 1e-6
    for _ in range(20):
        body = random_body(rng, dim)
        (lower, upper), _, _ = geodesic_midpoint_check(body, body, body, net, tol).radii
        reference = circumball(body, dense, tol).radius
        assert reference - tol <= upper
        assert lower <= (reference + tol) / (1.0 - dense_mesh**2 / 2.0)
        assert 0.0 <= lower <= upper


# ---------------------------------------------------------------------------
# geodesic midpoint check
# ---------------------------------------------------------------------------


def test_combine_triple_is_additive_with_fat_midpoint(net2, no_lp):
    rng = np.random.default_rng(3)
    k0 = random_body(rng, 2)
    k2 = random_body(rng, 2)
    k1 = combine(0.5, k0, k2)
    check = geodesic_midpoint_check(k0, k1, k2, net2)
    assert check.additive
    assert check.verdict in ("geodesic-ok",)
    assert check.radii[1][0] >= 1e-3 or min(check.radii[0][0], check.radii[2][0]) < 5e-2


def test_piecewise_path_has_point_endpoint(net2, no_lp):
    # point at 0, point at u/2, then a ball of radius 1/2 about u/2:
    # an additive triple whose first endpoint is a point
    u = np.array([1.0, 0.0])
    k0 = point_body(np.zeros(2))
    k1 = point_body(0.5 * u)
    k2 = combine(0.5, point_body(0.5 * u), ball_body(0.5 * u))
    check = geodesic_midpoint_check(k0, k1, k2, net2)
    assert check.additive
    assert check.d01 == pytest.approx(0.5, abs=1e-3)
    assert check.d12 == pytest.approx(0.5, abs=1e-3)
    assert check.d02 == pytest.approx(1.0, abs=1e-3)
    assert check.radii[0][1] < 1e-3  # the endpoint is a point: no midpoint claim
    assert check.verdict == "geodesic-ok"


def test_non_geodesic_triple_detected(net2, no_lp):
    k0 = point_body(np.array([0.0, 0.0]))
    k1 = point_body(np.array([3.0, 3.0]))
    k2 = point_body(np.array([1.0, 0.0]))
    check = geodesic_midpoint_check(k0, k1, k2, net2)
    assert not check.additive
    assert check.verdict == "not-a-geodesic-triple"


def test_degenerate_identical_bodies(net2, no_lp):
    rng = np.random.default_rng(5)
    k = random_body(rng, 2)
    check = geodesic_midpoint_check(k, k, k, net2)
    assert check.additive
    assert check.verdict == "geodesic-ok"


def test_lemma_holds_over_random_segments(net2, no_lp):
    rng = np.random.default_rng(11)
    violations = 0
    for _ in range(20):
        k0 = random_body(rng, 2)
        k2 = random_body(rng, 2)
        lam = float(rng.uniform(0.1, 0.9))
        check = geodesic_midpoint_check(k0, combine(lam, k0, k2), k2, net2)
        assert check.additive
        if check.verdict == "midpoint-collapse":
            violations += 1
    assert violations == 0


def test_geodesic_check_sweeps_each_leaf_once(monkeypatch, net2, no_lp):
    rng = np.random.default_rng(8)
    k0 = Generators(rng.uniform(-0.4, 0.4, size=(3, 2)))
    k2 = Generators(rng.uniform(-0.4, 0.4, size=(2, 2)))
    k1 = combine(0.4, k0, k2)
    pairs = [hausdorff(a, b, net2) for a, b in ((k0, k1), (k1, k2), (k0, k2))]
    radii = []  # half the largest width, and the farthest distance from the fitted center
    for k in (k0, k1, k2):
        ev = SupportEval(k)
        widths = ev.on_net(net2) + ev.batch(-net2.directions)
        center = _ball_fits(ev.on_net(net2)[None, :], net2, 1e-6)[0][0]
        radii.append((max(np.max(widths) / 2 - 1e-6, 0.0), farthest_distance(k, center, net2)))
    solve = support_module.support_batch
    leaves = []

    def counted(leaf, dirs, tol=1e-6):
        leaves.append(leaf)
        return solve(leaf, dirs, tol)

    monkeypatch.setattr(support_module, "support_batch", counted)
    check = geodesic_midpoint_check(k0, k1, k2, net2)
    assert len(leaves) == 4  # k0's leaf and k2's, each for itself and for k1
    assert (check.d01, check.d12, check.d02) == tuple(res.value for res in pairs)
    assert check.additivity_tol == sum(res.error_bound for res in pairs)
    np.testing.assert_allclose(check.radii, radii, rtol=1e-12, atol=0)


def test_no_point_between_bodies_criterion_solves_no_lp(no_lp):
    report = run_selftest(profile="quick", criteria=[8])
    assert (report["passed"], report["failed"]) == (1, 0)
