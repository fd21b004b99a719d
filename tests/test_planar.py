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
from ballbodies.planar import eps_isometry_defect_planar, surjectivity_probe_planar


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
    d = eps_isometry_defect_planar(f, radius=3.0, samples=240)
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
