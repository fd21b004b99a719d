"""Planar distortion measurement, circle degrees and the degree-based surjectivity verifier."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ballbodies.errors import ResolutionExhaustedError
from ballbodies.geometry import RigidMotion
from ballbodies.maps import (
    BlackBoxMap,
    planar_perturbed_map,
    planar_radial_hole_map,
    planar_rigid_map,
)
import ballbodies.planar as planar
from ballbodies.planar import ROOT_TOL, eps_isometry_defect_planar, surjectivity_probe_planar


def rotation(theta):
    return np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])


def test_defect_of_rigid_motion_is_zero():
    f = planar_rigid_map(RigidMotion(rotation(0.7), np.array([1.0, -2.0])))
    assert eps_isometry_defect_planar(f, radius=3.0) <= 1e-12


def test_defect_of_sinusoidal_perturbation():
    f = BlackBoxMap(
        lambda x: np.asarray(x, float) + 0.3 * np.array([np.sin(x[1]), np.cos(x[0])]),
        2,
        planar=True,
        name="wobble",
    )
    d = eps_isometry_defect_planar(f, radius=3.0)
    # the displacement has sup norm 0.3 * sqrt(2), so the distortion is at
    # most twice that (0.849); pairs aligned with the wobble do exceed 0.6
    assert 0.0 < d <= 2 * 0.3 * np.sqrt(2) + 1e-9


def test_defect_of_radial_hole_is_about_two():
    f = planar_radial_hole_map()
    d = eps_isometry_defect_planar(f, radius=2.0)
    assert d >= 1.9


# ---------------------------------------------------------------------------
# circle degrees
# ---------------------------------------------------------------------------


def turning_map(degree, wobble=0.0, wobble_freq=3):
    """A planar map whose image of each circle about 0 winds `degree` times
    about 0, with its direction wobbling by `wobble` sin(wobble_freq t)."""

    def run(x):
        t = math.atan2(x[1], x[0])
        angle = degree * t + 0.5 + wobble * math.sin(wobble_freq * t)
        r = 1.0 + 0.4 * math.sin(3 * t)
        return np.array([r * math.cos(angle), r * math.sin(angle)])

    return BlackBoxMap(run, 2, planar=True, name=f"turn{degree}")


def independent_total_turn(values) -> float:
    """Oracle: accumulate angle increments of the normalized curve directly."""
    total = 0.0
    arr = np.array(values, dtype=float)
    arr = arr / np.linalg.norm(arr, axis=1, keepdims=True)
    for i in range(len(arr)):
        a = arr[i]
        b = arr[(i + 1) % len(arr)]
        total += math.atan2(a[0] * b[1] - a[1] * b[0], a @ b)
    return total / (2.0 * math.pi)


def test_winding_identity_curve():
    f = BlackBoxMap(lambda x: np.asarray(x, float), 2, planar=True, name="identity")
    assert planar._circle_degree(f, np.zeros(2), 1.0, 2**14) == (1, None)


def test_winding_constant_curve():
    f = BlackBoxMap(lambda x: np.array([1.0, 0.0]), 2, planar=True, name="constant")
    assert planar._circle_degree(f, np.zeros(2), 1.0, 2**14) == (0, None)


def test_winding_double_cover():
    f = BlackBoxMap(lambda x: np.array([x[0] ** 2 - x[1] ** 2, 2 * x[0] * x[1]]), 2, planar=True, name="z^2")
    assert planar._circle_degree(f, np.zeros(2), 1.5, 2**14) == (2, None)
    thetas = 2.0 * math.pi * np.arange(128) / 128
    oracle = independent_total_turn([f(1.5 * np.array([math.cos(t), math.sin(t)])) for t in thetas])
    assert oracle == pytest.approx(2.0, abs=1e-9)


def test_winding_negative_turn():
    f = planar_rigid_map(RigidMotion(np.array([[1.0, 0.0], [0.0, -1.0]]), np.array([0.3, 0.0])))
    assert planar._circle_degree(f, np.zeros(2), 1.0, 2**14) == (-1, None)


def test_winding_requires_resolution():
    # degree 17 turns 1.67 > 0.45 pi per step of 64 angles, and 128 samples exceed the budget
    with pytest.raises(ResolutionExhaustedError, match="exceeded 100 samples"):
        planar._circle_degree(turning_map(17), np.zeros(2), 1.0, 100)


def test_winding_returns_circle_hits():
    f = BlackBoxMap(lambda x: np.asarray(x, float), 2, planar=True, name="identity")
    degree, hit = planar._circle_degree(f, np.array([2.0, 0.0]), 2.0, 2**14)
    assert degree is None
    np.testing.assert_array_equal(hit, [2.0, 0.0])


def test_circle_degree_refines_until_no_step_turns_too_far():
    # degree 40 turns by 0.98 < 0.45 pi per step only from 256 samples on
    evaluations = []
    f = turning_map(40)
    g = BlackBoxMap(lambda x: evaluations.append(1) or f(x), 2, planar=True, name="counted")
    assert planar._circle_degree(g, np.zeros(2), 1.0, 256) == (40, None)
    assert len(evaluations) == 256
    with pytest.raises(ResolutionExhaustedError):
        planar._circle_degree(f, np.zeros(2), 1.0, 255)


@settings(max_examples=25, deadline=None)
@given(
    degree=st.integers(-3, 3),
    wobble=st.sampled_from([0.0, 0.4, 1.0]),
    wobble_freq=st.sampled_from([3, 17]),
    radius=st.sampled_from([0.5, 1.0, 4.0]),
)
def test_winding_refinement_invariance(degree, wobble, wobble_freq, radius):
    # a fast wobble forces refinement, which leaves the degree as it is
    f = turning_map(degree, wobble, wobble_freq)
    assert planar._circle_degree(f, np.zeros(2), radius, 2**14) == (degree, None)


def test_surjectivity_of_rigid_motion():
    f = planar_rigid_map(RigidMotion(rotation(-1.2), np.array([0.4, 0.9])))
    report = surjectivity_probe_planar(f, target=np.array([2.0, -1.0]))
    assert report.verdict == "surjective-evidence"
    assert report.preimage_residual <= 1e-6
    assert all(w == 1 for _, w in report.degrees)
    assert report.homotopy_min > 0
    np.testing.assert_allclose(f(report.preimage), [2.0, -1.0], atol=1e-6)


def test_surjectivity_of_reflection():
    refl = np.array([[1.0, 0.0], [0.0, -1.0]])
    f = planar_rigid_map(RigidMotion(refl, np.array([0.0, 0.3])))
    report = surjectivity_probe_planar(f, target=np.array([0.5, 0.5]))
    assert report.verdict == "surjective-evidence"
    assert all(w == -1 for _, w in report.degrees)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_surjectivity_of_perturbed_rigid(seed):
    f = planar_perturbed_map(amplitude=0.2, seed=seed)
    rng = np.random.default_rng(seed + 100)
    target = rng.uniform(-2, 2, 2)
    report = surjectivity_probe_planar(f, target=target)
    assert report.verdict == "surjective-evidence"
    assert report.preimage_residual <= 1e-6
    assert abs(report.degrees[0][1]) == 1
    assert len({w for _, w in report.degrees}) == 1  # stable across radii
    assert report.homotopy_min > 0
    assert report.epsilon_hat <= 0.6  # bounded wobble


def test_radial_hole_flagged_and_no_preimage():
    f = planar_radial_hole_map()
    report = surjectivity_probe_planar(f, target=np.zeros(2))
    assert report.verdict == "violation"
    assert report.preimage is None
    assert report.preimage_residual >= 0.5  # nothing maps near the origin
    assert "eps-hypothesis" in report.hypothesis_flags
    assert "preimage-not-found" in report.hypothesis_flags


def test_reports_serialize():
    f = planar_rigid_map(RigidMotion(rotation(0.3), np.zeros(2)))
    report = surjectivity_probe_planar(f, target=np.array([1.0, 1.0]))
    doc = report.to_doc()
    assert doc["verdict"] == "surjective-evidence"
    assert isinstance(doc["degrees"][0][1], int)


def scipy_find_preimage(f, target, starts):
    """The preimage search as SciPy's MINPACK Levenberg-Marquardt runs it, for comparison."""
    from scipy.optimize import least_squares

    best_x, best_res = None, np.inf
    for x0 in starts:
        try:
            sol = least_squares(
                lambda x: np.asarray(f(x)) - target, x0, method="lm", xtol=1e-15, ftol=1e-15, gtol=1e-15
            )
        except Exception:
            continue
        res = float(np.linalg.norm(np.asarray(f(sol.x)) - target))
        if res < best_res:
            best_x, best_res = sol.x, res
        if best_res <= planar.root_tol(target):
            break
    return best_x, best_res


def test_preimage_of_rigid_motion_is_its_inverse():
    rng = np.random.default_rng(5)
    for k in range(10):
        q = rotation(rng.uniform(0, 2 * np.pi))
        if k % 2:
            q[:, 1] = -q[:, 1]
        g = RigidMotion(q, rng.uniform(-1, 1, 2))
        y = rng.uniform(-2, 2, 2)
        x, res = planar._find_preimage(planar_rigid_map(g), y, [rng.uniform(-3, 3, 2)])
        np.testing.assert_allclose(x, g.inverse().apply(y), rtol=0, atol=1e-12)
        assert res <= 1e-12


@pytest.mark.parametrize("amplitude", [0.1, 0.3])
def test_perturbed_preimages_reach_the_root_and_agree_with_scipy(amplitude, monkeypatch):
    for seed in range(30):
        f = planar_perturbed_map(amplitude, seed)
        target = np.random.default_rng(seed + 200).uniform(-2, 2, 2)
        report = surjectivity_probe_planar(f, target, seed=seed)
        with monkeypatch.context() as m:
            m.setattr(planar, "_find_preimage", scipy_find_preimage)
            reference = surjectivity_probe_planar(f, target, seed=seed)
        assert report.verdict == reference.verdict == "surjective-evidence"
        assert report.preimage_residual <= ROOT_TOL
        np.testing.assert_allclose(report.preimage, reference.preimage, rtol=0, atol=1e-9)


def test_preimage_search_skips_a_start_where_the_map_fails():
    def run(x):
        x = np.asarray(x, dtype=float)
        if np.linalg.norm(x) > 5.0:
            raise ValueError("outside the map's domain")
        return x + 0.1

    f = BlackBoxMap(run, 2, planar=True, name="partial")
    x, res = planar._find_preimage(f, np.array([0.5, 0.5]), [np.array([9.0, 0.0]), np.zeros(2)])
    np.testing.assert_allclose(x, [0.4, 0.4], rtol=0, atol=1e-12)
    assert res <= 1e-12
