"""Planar distortion measurement and the degree-based surjectivity verifier."""

import numpy as np
import pytest

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
        if best_res <= ROOT_TOL:
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
