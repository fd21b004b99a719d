"""Expression-tree construction, invariants, and the document format."""

import math

import numpy as np
import pytest

from ballbodies.bodies import (
    CDual,
    Combine,
    Generators,
    Motion,
    apply_motion,
    ball_body,
    body_to_doc,
    c_dual,
    combine,
    parse_body,
    point_body,
    push_motion,
)
from ballbodies.corpus import body_corpus, random_generators, random_motion
from ballbodies.errors import DimensionMismatchError, DocumentError, EmptyBodyError
from ballbodies.geometry import RigidMotion, make_sphere_net
from ballbodies.support import SupportEval, default_mesh, reconstruct


def test_generators_accepts_fitting_centers():
    g = Generators(np.array([[0.0, 0.0], [1.0, 0.0]]))
    assert g.dim == 2
    assert g.depth == 1


def test_generators_arrays_are_the_leafs_read_only_copies():
    # a write into a body's centers used to leave its leaf inconsistent
    centers = np.array([[0.0, 0.0], [0.6, 0.1], [0.2, 0.5]])
    radii = np.array([1.0, 1.2, 1.1])
    for g in (Generators(centers), Generators(centers, radii)):
        assert g.centers is g.leaf.centers
        with pytest.raises(ValueError, match="read-only"):
            g.centers[0, 0] = 0.3
    assert g.radii is g.leaf.radii
    with pytest.raises(ValueError, match="read-only"):
        g.radii[0] = 2.0
    assert centers.flags.writeable and radii.flags.writeable
    centers[0, 0] = 0.3  # the caller's array stays its own
    assert g.centers[0, 0] == 0.0


def test_generators_rejects_empty_intersection():
    with pytest.raises(EmptyBodyError):
        Generators(np.array([[0.0, 0.0], [2.1, 0.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_generators_rejects_non_finite_radii(recwarn, bad):
    with pytest.raises(ValueError, match="radii must be finite and one per center"):
        Generators(np.array([[0.0, 0.0], [0.5, 0.0]]), radii=np.array([1.0, bad]))
    assert not recwarn.list


def test_generators_accepts_a_tangent_pair_as_a_point():
    g = Generators(np.array([[0.0, 0.0], [2.0, 0.0]]))
    assert g.leaf.point_like
    np.testing.assert_array_equal(g.leaf.interior, [1.0, 0.0])


@pytest.mark.parametrize("dim", [2, 3])
def test_a_unit_leaf_that_needs_a_radius_near_one_certifies_on_the_default_net(dim):
    # centers 1 - 5e-10 from a point they surround: slack 5e-10, a sliver body
    corners = np.vstack([np.eye(dim), -np.ones(dim) / math.sqrt(dim)])
    corners /= np.linalg.norm(corners, axis=1, keepdims=True)
    z = np.full(dim, 0.3)
    g = Generators(z + (1.0 - 5e-10) * corners)
    assert g.leaf.slack == pytest.approx(5e-10, abs=1e-15) and not g.leaf.point_like
    net = make_sphere_net(dim, default_mesh(dim))
    reach = SupportEval(g).on_net(net) - net.directions @ g.leaf.interior
    rho = math.sqrt(g.leaf.slack * (2.0 - g.leaf.slack))
    assert np.all(reach >= g.leaf.slack - 1e-6) and np.all(reach <= rho + 1e-6)


def test_combine_validates_lambda_and_dims():
    a = ball_body([0.0, 0.0])
    b = ball_body([1.0, 0.0])
    with pytest.raises(ValueError):
        Combine(1.5, a, b)
    with pytest.raises(DimensionMismatchError):
        Combine(0.5, a, ball_body([0.0, 0.0, 0.0]))
    assert combine(0.25, a, b).depth == 2


def test_motion_validates_dimension():
    g2 = RigidMotion.identity(2)
    with pytest.raises(DimensionMismatchError):
        Motion(g2, ball_body([0.0, 0.0, 0.0]))


def test_depth_bound_enforced():
    body = ball_body([0.0, 0.0])
    for _ in range(15):
        body = CDual(body)
    with pytest.raises(ValueError, match="depth"):
        CDual(body)


def mixed_chain(rng, dim, depth):
    """A tree `depth` nodes deep whose wrappers cycle through c-dual, combine and motion."""
    body = random_generators(rng, dim)
    for k in range(depth - 1):
        if k % 3 == 0:
            body = c_dual(body)
        elif k % 3 == 1:
            body = combine(float(rng.uniform(0.2, 0.8)), body, random_generators(rng, dim, max_centers=3))
        else:
            body = apply_motion(random_motion(rng, dim), body)
    return body


def reference_norm_bound(body):
    """The norm bound by a recursive walk of the tree, in the nodes' order of operations."""
    if isinstance(body, Generators):
        return float(np.min(np.linalg.norm(body.centers, axis=1) + body.leaf.radii))
    if isinstance(body, CDual):
        return 1.0 + reference_norm_bound(body.of)
    if isinstance(body, Combine):
        return (1.0 - body.lam) * reference_norm_bound(body.a) + body.lam * reference_norm_bound(body.b)
    return reference_norm_bound(body.of) + float(np.linalg.norm(body.g.translation))


@pytest.mark.parametrize("dim", [2, 3])
def test_norm_bound_matches_a_recursive_walk(dim):
    rng = np.random.default_rng(dim)
    probes = rng.uniform(-1.0, 1.0, (6, dim))
    distances = np.linalg.norm(probes, axis=1) + rng.uniform(0.3, 0.8, 6)
    general = reconstruct(list(zip(probes, distances)), make_sphere_net(dim, 0.5)).body
    assert general.radii is not None
    bodies = body_corpus(7, dim, 40) + [general, mixed_chain(rng, dim, 16)]
    for body in bodies:
        assert body.norm_bound == reference_norm_bound(body)
        assert SupportEval(body).norm_bound == body.norm_bound


def test_curvature_interval_rule_of_each_node_kind():
    leaf = Generators(np.array([[0.0, 0.0], [0.5, 0.0]]), radii=np.array([0.8, 1.7]))
    assert leaf.curvature == (0.0, 1.7)  # a summand of (max r) B
    assert ball_body(np.zeros(2)).curvature == (1.0, 1.0)  # one ball: h + h'' = r exactly
    assert Generators(np.zeros((1, 2)), radii=np.array([0.8])).curvature == (0.8, 0.8)
    assert point_body(np.zeros(2)).curvature == (0.0, 0.0)  # a unit ball's [1, 1], flipped
    dual = CDual(leaf)
    assert dual.curvature == (1.0 - 1.7, 1.0 - 0.0)
    mixed = combine(0.25, leaf, dual)
    assert mixed.curvature == (0.75 * 0.0 + 0.25 * (1.0 - 1.7), 0.75 * 1.7 + 0.25 * 1.0)
    g = RigidMotion(np.array([[0.0, -1.0], [1.0, 0.0]]), np.array([3.0, -2.0]))
    assert apply_motion(g, mixed).curvature == mixed.curvature


def reference_curvature(body):
    """The curvature interval by a recursive walk of the tree."""
    if isinstance(body, Generators):
        r = float(np.max(body.leaf.radii))
        return (r, r) if len(body.centers) == 1 else (0.0, r)
    if isinstance(body, CDual):
        lo, hi = reference_curvature(body.of)
        return (1.0 - hi, 1.0 - lo)
    if isinstance(body, Combine):
        (lo_a, hi_a), (lo_b, hi_b) = reference_curvature(body.a), reference_curvature(body.b)
        mu = 1.0 - body.lam
        return (mu * lo_a + body.lam * lo_b, mu * hi_a + body.lam * hi_b)
    return reference_curvature(body.of)


@pytest.mark.parametrize("dim", [2, 3])
def test_curvature_matches_a_recursive_walk(dim):
    rng = np.random.default_rng(dim + 20)
    bodies = body_corpus(8, dim, 40) + [mixed_chain(rng, dim, 16)]
    for body in bodies:
        assert body.curvature == reference_curvature(body)
        assert SupportEval(body).curvature == body.curvature


def test_curvature_interval_bounds_h_plus_h_second_derivative():
    # second differences of the support on a circle, within the interval up to
    # the oracle's error over the step squared and the step's smoothing
    step = 0.05
    phi = np.linspace(0.0, 2.0 * math.pi, 400, endpoint=False)
    dirs = [np.column_stack([np.cos(phi + s), np.sin(phi + s)]) for s in (-step, 0.0, step)]
    slack = 4e-6 / step**2 + 0.01
    for body in body_corpus(9, 2, 40):
        below, at, above = (SupportEval(body).batch(d) for d in dirs)
        curvature = at + (below + above - 2.0 * at) / step**2
        lo, hi = body.curvature
        assert lo - slack <= curvature.min() and curvature.max() <= hi + slack


def test_dim_and_depth_of_a_mixed_deep_tree():
    rng = np.random.default_rng(11)
    for dim in (2, 3):
        body = mixed_chain(rng, dim, 16)
        assert (body.dim, body.depth) == (dim, 16)
        assert (body.of.dim, body.of.depth) == (dim, 15)  # the chain ends with a motion
        leaf = random_generators(rng, dim)
        for wrap in (
            c_dual,
            lambda k: combine(0.5, leaf, k),
            lambda k: apply_motion(random_motion(rng, dim), k),
        ):
            with pytest.raises(ValueError, match="depth exceeds 16"):
                wrap(body)
    side = mixed_chain(rng, 2, 4)
    tree = combine(0.4, side, c_dual(ball_body([0.1, 0.0])))
    assert (tree.dim, tree.depth, tree.b.depth) == (2, 5, 2)


def test_push_motion_matches_motion_node():
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    g = RigidMotion(q, np.array([0.4, -0.2]))
    gen = Generators(rng.uniform(-0.4, 0.4, (3, 2)))
    pushed = push_motion(g, gen)
    np.testing.assert_allclose(pushed.centers, g.apply(gen.centers))


def test_document_round_trip():
    rng = np.random.default_rng(1)
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    body = apply_motion(
        RigidMotion(q, np.array([0.1, 0.2])),
        combine(0.3, c_dual(ball_body([0.5, 0.0])), Generators(rng.uniform(-0.3, 0.3, (3, 2)))),
    )
    doc = body_to_doc(body)
    again = parse_body(doc)
    assert body_to_doc(again) == doc


def test_parse_rejects_malformed_documents():
    with pytest.raises(DocumentError):
        parse_body({"type": "nope"})
    with pytest.raises(DocumentError):
        parse_body({"type": "generators", "centers": []})
    with pytest.raises(DocumentError):
        parse_body({"type": "combine", "lambda": 0.5, "a": {"type": "generators", "centers": [[0, 0]]}})
    with pytest.raises(DocumentError):
        parse_body(["not", "an", "object"])


def test_point_body_is_cdual_of_ball():
    p = point_body([0.7, -0.1])
    doc = body_to_doc(p)
    assert doc["type"] == "cdual"
    assert doc["of"]["type"] == "generators"
