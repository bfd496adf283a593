from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from tacloc.geometry import (DEGENERACY_MIN_SIN, CalibrationError,
                             CameraModel, FreeParams, GeometryError,
                             calibrate, default_models, pixel_to_bearing,
                             project_points, triangulate, triangulate_many)

from .oracles import DegenerateGeometryError, triangulate_scalar


def project(model, p):
    """Pixel column of one world point, nan when out of view."""
    u, _ = project_points(model, [p])
    return float(u[0])


def random_model(rng, camera=1):
    side = 100.0
    if camera == 1:
        x = rng.uniform(-5, 5)
        y = rng.uniform(-5, 5)
        orient = math.atan2(50 - y, 50 - x)
    else:
        x = rng.uniform(95, 105)
        y = rng.uniform(-5, 5)
        orient = math.atan2(50 - y, 50 - x)
    return CameraModel(x, y, orient,
                       skew_rad=rng.uniform(-0.05, 0.05),
                       focal_px=rng.uniform(280, 360),
                       k1=rng.uniform(-0.05, 0.05))


class TestPixelToBearing:
    def test_principal_point(self):
        m = CameraModel(0, 0, 0.7, skew_rad=0.05)
        assert pixel_to_bearing(m, 319.5) == pytest.approx(0.75, abs=1e-12)

    def test_unit_normalized_pixel(self):
        m = CameraModel(0, 0, 0.0, focal_px=320.0, k1=0.0)
        assert pixel_to_bearing(m, 319.5 + 320.0) == pytest.approx(math.pi / 4)

    def test_monotone_in_u(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            m = random_model(rng)
            u = np.arange(0, 640, 1.0)
            th = pixel_to_bearing(m, u)
            assert np.all(np.diff(th) > 0)

    def test_monotonicity_guard(self):
        m = CameraModel(0, 0, 0.0, focal_px=320.0, k1=-0.4)
        with pytest.raises(GeometryError):
            pixel_to_bearing(m, 639.0)


class TestProjection:
    def test_optical_axis_maps_to_center(self):
        m = CameraModel(0, 0, math.pi / 4)
        p = (30.0, 30.0)  # on the axis
        assert project(m, p) == pytest.approx(319.5, abs=1e-9)

    def test_behind_camera(self):
        m = CameraModel(0, 0, math.pi / 4)
        u, ok = project_points(m, [(-30.0, -30.0)])
        assert not ok[0]
        assert np.isnan(u[0])

    def test_projection_bearing_round_trip(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            m = random_model(rng, camera=int(rng.integers(1, 3)))
            p = rng.uniform(10, 90, 2)
            u = project(m, p)
            if math.isnan(u):
                continue
            want = math.atan2(p[1] - m.y_mm, p[0] - m.x_mm)
            got = pixel_to_bearing(m, u)
            assert abs(got - want) < 1e-9

    def test_vector_flags_out_of_view(self):
        m = CameraModel(0, 0, math.pi / 4)
        u, ok = project_points(m, [[30, 30], [-30, -30]])
        assert ok[0] and not ok[1]
        assert np.isnan(u[1])


def triangulate_one(m1, u1, m2, u2):
    """The flow path, ``triangulate_many``, on one pair of pixel columns:
    (estimate, condition, valid)."""
    est, cond, valid = triangulate_many(m1, [u1], m2, [u2])
    return est[0], cond[0], valid[0]


class TestTriangulate:
    def test_symmetric_configuration(self):
        m1, m2 = default_models()
        u1 = project(m1, (50.0, 50.0))
        u2 = project(m2, (50.0, 50.0))
        est, _, valid = triangulate_one(m1, u1, m2, u2)
        assert valid
        assert est == pytest.approx([50.0, 50.0], abs=1e-9)

    def test_swap_symmetry(self):
        rng = np.random.default_rng(2)
        m1 = random_model(rng, 1)
        m2 = random_model(rng, 2)
        p = (37.0, 62.0)
        u1, u2 = project(m1, p), project(m2, p)
        a, cond_a, valid_a = triangulate_one(m1, u1, m2, u2)
        b, cond_b, valid_b = triangulate_one(m2, u2, m1, u1)
        assert valid_a and valid_b
        assert a == pytest.approx(b, abs=1e-9)
        assert cond_a == pytest.approx(cond_b, abs=1e-12)

    def test_projection_round_trip(self):
        rng = np.random.default_rng(3)
        done = 0
        while done < 100:
            m1 = random_model(rng, 1)
            m2 = random_model(rng, 2)
            p = rng.uniform(5, 95, 2)
            u1, u2 = project(m1, p), project(m2, p)
            if math.isnan(u1) or math.isnan(u2):
                continue
            est, _, valid = triangulate_one(m1, u1, m2, u2)
            if not valid:
                continue
            assert np.hypot(*(est - p)) < 1e-6
            done += 1

    def test_parallel_rays_degenerate(self):
        m1 = CameraModel(0, 0, math.pi / 2)
        m2 = CameraModel(100, 0, math.pi / 2)
        u = 319.5
        est, cond, valid = triangulate_one(m1, u, m2, u)
        assert not valid
        assert cond < DEGENERACY_MIN_SIN
        assert np.isnan(est).all()
        assert np.isnan(triangulate(m1, u, m2, u)).all()
        with pytest.raises(DegenerateGeometryError):
            triangulate_scalar(m1, u, m2, u)

    def test_out_of_bounds_point_not_raised(self):
        m1, m2 = default_models()
        p = (50.0, 140.0)
        u1, u2 = project(m1, p), project(m2, p)
        est, _, valid = triangulate_one(m1, u1, m2, u2)
        assert valid
        assert est[1] == pytest.approx(140.0, abs=1e-6)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(4)
        m1 = random_model(rng, 1)
        m2 = random_model(rng, 2)
        pts = rng.uniform(20, 80, (50, 2))
        u1, ok1 = project_points(m1, pts)
        u2, ok2 = project_points(m2, pts)
        est, cond, valid = triangulate_many(m1, u1, m2, u2)
        for i in range(50):
            if not (ok1[i] and ok2[i] and valid[i]):
                continue
            tri = triangulate_scalar(m1, float(u1[i]), m2, float(u2[i]))
            assert est[i, 0] == pytest.approx(tri.x_mm, abs=1e-12)
            assert est[i, 1] == pytest.approx(tri.y_mm, abs=1e-12)
            assert cond[i] == pytest.approx(tri.condition, abs=1e-15)

    def test_triangulate_is_one_pair_of_triangulate_many(self):
        rng = np.random.default_rng(10)
        m1 = random_model(rng, 1)
        m2 = random_model(rng, 2)
        u1 = np.append(rng.uniform(0, 639, 30), 319.5)
        u2 = np.append(rng.uniform(0, 639, 30), 319.5)
        m2_parallel = CameraModel(m1.x_mm + 50, m1.y_mm, m1.axis_rad())
        for m in (m2, m2_parallel):
            est, _, _ = triangulate_many(m1, u1, m, u2)
            got = [triangulate(m1, a, m, b) for a, b in zip(u1, u2)]
            assert np.array_equal(got, est, equal_nan=True)


def observations(models, points, noise_px=0.0, rng=None):
    u1, ok1 = project_points(models[0], points)
    u2, ok2 = project_points(models[1], points)
    keep = ok1 & ok2
    u1, u2, pts = u1[keep], u2[keep], points[keep]
    if noise_px and rng is not None:
        u1 = u1 + rng.normal(0, noise_px, len(u1))
        u2 = u2 + rng.normal(0, noise_px, len(u2))
    return u1, u2, pts


def grid_points(n=100, rng=None):
    rng = rng or np.random.default_rng(5)
    return rng.uniform(8, 92, (n, 2))


class TestCalibrate:
    def test_fixed_point_at_truth(self):
        models = default_models()
        u1, u2, pts = observations(models, grid_points())
        fit = calibrate(models, u1, u2, pts)
        assert fit.rmse_mm < 1e-9
        assert fit.iterations <= 1
        assert fit.converged

    def test_recovers_perturbed_models(self):
        rng = np.random.default_rng(6)
        true = (replace(default_models()[0], k1=0.01),
                replace(default_models()[1], k1=-0.015))
        u1, u2, pts = observations(true, grid_points(150, rng))
        start = (replace(true[0], x_mm=3.0, y_mm=-2.5,
                         skew_rad=math.radians(2.0), k1=0.03),
                 replace(true[1], x_mm=97.2, y_mm=2.8,
                         skew_rad=math.radians(-1.5), k1=-0.035))
        fit = calibrate(start, u1, u2, pts)
        assert fit.converged
        assert fit.rmse_mm < 1e-6
        assert abs(fit.models[0].x_mm - true[0].x_mm) < 1e-3

    def test_noisy_observations_improve(self):
        rng = np.random.default_rng(7)
        true = default_models()
        u1, u2, pts = observations(true, grid_points(200, rng),
                                   noise_px=1.0, rng=rng)
        start = (replace(true[0], x_mm=2.0, skew_rad=0.02),
                 replace(true[1], y_mm=2.0, skew_rad=-0.02))
        fit = calibrate(start, u1, u2, pts)
        est_true, _, _ = triangulate_many(true[0], u1, true[1], u2)
        noise_floor = float(np.sqrt(np.mean(((est_true - pts) ** 2).sum(axis=1))))
        assert fit.rmse_mm < fit.initial_rmse_mm
        assert fit.rmse_mm < 2.0 * noise_floor

    def test_never_increases_cost(self):
        rng = np.random.default_rng(8)
        true = default_models()
        u1, u2, pts = observations(true, grid_points(80, rng),
                                   noise_px=2.0, rng=rng)
        start = (replace(true[0], x_mm=3.0), replace(true[1], x_mm=97.0))
        fit = calibrate(start, u1, u2, pts)
        assert fit.rmse_mm <= fit.initial_rmse_mm + 1e-12

    def test_requires_enough_observations(self):
        models = default_models()
        u1, u2, pts = observations(models, grid_points(5))
        with pytest.raises(CalibrationError):
            calibrate(models, u1[:5], u2[:5], pts[:5])

    def test_focal_mask(self):
        rng = np.random.default_rng(9)
        true = (replace(default_models()[0], focal_px=330.0),
                replace(default_models()[1], focal_px=310.0))
        u1, u2, pts = observations(true, grid_points(150, rng))
        start = default_models()
        free = FreeParams(position=True, skew=True, k1=True, focal=True)
        fit = calibrate(start, u1, u2, pts, free=free)
        assert fit.rmse_mm < 1e-5
        assert fit.models[0].focal_px == pytest.approx(330.0, abs=0.1)

    def test_steps_stay_in_the_camera_box_of_the_skin(self):
        # camera 2 of a 160 mm skin sits at x = 160, inside that skin's
        # box [-80, 240] but outside the [-50, 150] box of a 100 mm skin
        true = default_models(160.0)
        u1, u2, pts = observations(true, 1.6 * grid_points())
        start = (true[0], replace(true[1], x_mm=148.0))
        free = FreeParams(skew=False, k1=False)
        fit = calibrate(start, u1, u2, pts, free=free, side_mm=160.0)
        assert fit.models[1].x_mm == pytest.approx(160.0, abs=1e-6)
        with pytest.raises(CalibrationError, match="sensor box"):
            calibrate(true, u1, u2, pts, free=free, side_mm=100.0)

    def test_fit_may_stop_on_the_camera_box_edge(self):
        # camera 2 truly at x = 160 lies outside the [-50, 150] box of a
        # 100 mm skin; once a step reaches the edge, the Jacobian probes
        # back into the box instead of failing the fit
        m1, m2 = default_models()
        u1, u2, pts = observations((m1, replace(m2, x_mm=160.0)),
                                   grid_points())
        fit = calibrate((m1, replace(m2, x_mm=148.0)), u1, u2, pts,
                        side_mm=100.0)
        assert fit.models[1].x_mm <= 150.0
        assert fit.models[1].x_mm == pytest.approx(150.0, abs=1e-3)
        assert fit.rmse_mm < fit.initial_rmse_mm
