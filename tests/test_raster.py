"""Raster oracle: area convergence, cloud Hausdorff, agreement with the kernel."""

import math

import numpy as np
import pytest

from ballbodies.bodies import (
    Generators,
    apply_motion,
    ball_body,
    c_dual,
    combine,
    point_body,
)
from ballbodies.corpus import random_body
from ballbodies.errors import EmptyRasterError, GridMismatchError
from ballbodies.geometry import RigidMotion, make_sphere_net
from ballbodies.raster import (
    ORACLE_CELL,
    RasterBody,
    _occupancy,
    raster_cdual,
    raster_circumball,
    raster_hausdorff,
    rasterize,
)
from ballbodies.selftest import SelftestContext
from ballbodies.support import hausdorff


@pytest.fixture(scope="module")
def net2():
    return make_sphere_net(2, 0.02)


def test_disk_area_converges():
    r = rasterize(ball_body([0.0, 0.0]), cell=0.01)
    assert r.area() == pytest.approx(math.pi, abs=0.05)


def test_point_body_raster_is_single_cell():
    r = rasterize(point_body([0.3, -0.2]), cell=0.01)
    assert r.count <= 4
    np.testing.assert_allclose(r.points().mean(axis=0), [0.3, -0.2], atol=0.012)


def test_point_like_cdual_rasters_to_its_nearest_cell():
    # the c-dual of a unit disk is its center; off the lattice, no cell center is inside
    center = np.array([0.3037, 0.2041])
    cell = 0.01
    r = rasterize(c_dual(ball_body(center)), cell)
    assert r.count == 1
    assert np.linalg.norm(r.points()[0] - center) <= cell


def test_cdual_of_a_padded_unit_ball_raster_is_its_center():
    # a combination of two unit balls is a unit ball, but its raster is padded
    # outward, so no point lies within 1 of every vertex of it
    lam = 0.17805319515305462
    a = np.array([-0.46598466210354256, 0.09947048535239156])
    b = np.array([-0.37167932428025563, -0.025476444424017752])
    r = rasterize(c_dual(combine(lam, ball_body(a), ball_body(b))), ORACLE_CELL)
    assert r.count == 1
    assert np.linalg.norm(r.points()[0] - ((1 - lam) * a + lam * b)) <= ORACLE_CELL


def test_empty_cdual_raster_names_cell_and_grid():
    # two occupied cells 3.9 apart: no point lies within 1 of both, so the
    # rule keeps their midpoint alone
    mask = np.zeros((40, 3), dtype=bool)
    mask[0, 1] = mask[-1, 1] = True
    r = raster_cdual(RasterBody(np.zeros(2), 0.1, mask))
    assert r.mask.shape == (25, 25) and r.count == 1
    np.testing.assert_allclose(r.points()[0], [1.95, 0.1], atol=0.05 * math.sqrt(2))
    with pytest.raises(EmptyRasterError, match=r"cell=0\.1 on a grid of shape \(25, 25\)"):
        _occupancy(np.ones(625), (25, 25), 0.1)


def test_cdual_grid_shape_does_not_ride_on_the_last_bits_of_the_center():
    # the grid spans the enclosing center -/+ 1.2, 24 cells in exact arithmetic
    mask = np.zeros((20, 3), dtype=bool)
    mask[0, 1] = mask[-1, 1] = True
    shapes = set()
    for ulps in (-2, 0, 2):
        origin = np.ones(2)
        for _ in range(abs(ulps)):
            origin = np.nextafter(origin, np.sign(ulps) * np.inf)
        shapes.add(raster_cdual(RasterBody(origin, 0.1, mask)).mask.shape)
    assert shapes == {(25, 25)}


def test_lens_area_matches_circular_segment_formula():
    lens = Generators(np.array([[0.0, 0.0], [1.0, 0.0]]))
    r = rasterize(lens, cell=0.01)
    expected = 2.0 * math.pi / 3.0 - math.sqrt(3.0) / 2.0
    assert r.area() == pytest.approx(expected, abs=0.05)


def test_raster_hausdorff_identity_and_translates():
    a = rasterize(ball_body([0.0, 0.0]), cell=0.02)
    b = rasterize(ball_body([0.8, 0.0]), cell=0.02)
    assert raster_hausdorff(a, a) == 0.0
    assert raster_hausdorff(a, b) == pytest.approx(0.8, abs=0.04)


def test_raster_hausdorff_point_vs_ball():
    x = np.array([0.4, 0.1])
    y = np.array([-0.3, 0.5])
    a = rasterize(point_body(x), cell=0.02)
    b = rasterize(ball_body(y), cell=0.02)
    expected = 1.0 + float(np.linalg.norm(x - y))
    assert raster_hausdorff(a, b) == pytest.approx(expected, abs=0.04)


def test_grid_mismatch_rejected():
    a = rasterize(ball_body([0.0, 0.0]), cell=0.02)
    b = rasterize(ball_body([0.0, 0.0]), cell=0.03)
    with pytest.raises(GridMismatchError):
        raster_hausdorff(a, b)


def test_raster_cdual_involution_up_to_band():
    lens = Generators(np.array([[0.2, 0.0], [0.9, 0.3]]))
    r = rasterize(lens, cell=0.02)
    rcc = raster_cdual(raster_cdual(r))
    # agree up to a one-cell boundary band
    assert raster_hausdorff(r, rcc) <= 3 * r.cell


def test_raster_cdual_matches_kernel(net2):
    # motions above the c-dual are rasterized as c-duals of the moved lens
    dual = c_dual(Generators(np.array([[0.0, 0.0], [1.0, 0.0]])))
    g = RigidMotion(np.array([[0.0, -1.0], [1.0, 0.0]]), np.array([0.3, -0.2]))
    h = RigidMotion(np.array([[0.6, 0.8], [0.8, -0.6]]), np.array([-0.4, 0.1]))
    ball = ball_body([0.2, 0.3])
    rb = rasterize(ball, ORACLE_CELL)
    for body in (dual, apply_motion(g, dual), apply_motion(h, apply_motion(g, dual))):
        res = hausdorff(body, ball, net2)
        rv = raster_hausdorff(rasterize(body, ORACLE_CELL), rb)
        assert abs(res.value - rv) <= res.error_bound + 4 * ORACLE_CELL


def test_motion_and_combine_rasters(net2):
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    g = RigidMotion(q, np.array([0.3, -0.4]))
    body = apply_motion(g, combine(0.4, ball_body([0.0, 0.0]), point_body([0.8, 0.2])))
    r = rasterize(body, cell=0.01)
    # combine(0.4, ball, point) is a ball of radius 0.6; check area after motion
    assert r.area() == pytest.approx(math.pi * 0.6**2, abs=0.05)


def test_raster_circumball_of_lens():
    lens = Generators(np.array([[0.0, 0.0], [1.0, 0.0]]))
    ball = raster_circumball(rasterize(lens, cell=0.01))
    np.testing.assert_allclose(ball.center, [0.5, 0.0], atol=0.02)
    assert ball.radius == pytest.approx(math.sqrt(3.0) / 2.0, abs=0.02)


def test_kernel_and_raster_hausdorff_agree(net2):
    rng = np.random.default_rng(5)
    cell = 0.01
    for _ in range(3):
        centers = rng.uniform(-0.5, 0.5, size=(int(rng.integers(2, 4)), 2))
        from ballbodies.geometry import minimal_enclosing_ball

        meb = minimal_enclosing_ball(centers)
        if meb.radius > 0.9:
            centers = meb.center + (centers - meb.center) * (0.9 / meb.radius)
        k = Generators(centers)
        t = ball_body(rng.uniform(-0.5, 0.5, 2))
        res = hausdorff(k, t, net2)
        rv = raster_hausdorff(rasterize(k, cell), rasterize(t, cell))
        assert abs(res.value - rv) <= res.error_bound + 4 * cell


def test_oracle_rasters_leave_two_empty_cells_at_every_window_edge():
    # the quick selftest's criterion 11 bodies and c-duals: the window spans
    # the norm bound, or a c-dual's unit ball, plus two cells
    rng = np.random.default_rng(1101)
    ctx = SelftestContext(scale=0.1)
    bodies = [random_body(rng, 2) for _ in range(ctx.count(30))]
    for body in bodies + [c_dual(b) for b in bodies[::3]]:
        mask = rasterize(body, ORACLE_CELL).mask
        assert mask.any()
        for axis in range(2):
            edges = np.take(mask, [0, 1, -2, -1], axis=axis)
            assert not edges.any()
