from __future__ import annotations

import math

import numpy as np
import pytest

from tacloc.geometry import default_models, project_points, triangulate_many
from tacloc.metrics import (UndefinedMetricError, effective_taxels, error_p95,
                            evaluate, pass_rate, repeatability, rmse)


class TestRmse:
    def test_zero_error(self):
        pts = np.random.default_rng(0).uniform(0, 100, (30, 2))
        assert rmse(pts, pts) == (0.0, 0.0, 0.0)

    def test_three_four_five(self):
        e, x, y = rmse([[3.0, 4.0]], [[0.0, 0.0]])
        assert (e, x, y) == (5.0, 3.0, 4.0)

    def test_euclidean_is_axis_combination(self):
        rng = np.random.default_rng(1)
        est = rng.uniform(0, 100, (50, 2))
        gt = rng.uniform(0, 100, (50, 2))
        e, x, y = rmse(est, gt)
        assert e == pytest.approx(math.hypot(x, y))

    def test_translation_invariance(self):
        rng = np.random.default_rng(2)
        est = rng.uniform(0, 100, (40, 2))
        gt = rng.uniform(0, 100, (40, 2))
        shift = np.array([13.0, -4.0])
        assert rmse(est + shift, gt + shift)[0] == pytest.approx(rmse(est, gt)[0])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        est = rng.uniform(0, 100, (40, 2))
        gt = rng.uniform(0, 100, (40, 2))
        perm = rng.permutation(40)
        assert rmse(est[perm], gt[perm])[0] == pytest.approx(rmse(est, gt)[0])

    def test_empty_undefined(self):
        with pytest.raises(UndefinedMetricError):
            rmse(np.zeros((0, 2)), np.zeros((0, 2)))

    def test_monte_carlo_noise_propagation(self):
        # pipeline-style errors against an independent Monte-Carlo estimate
        rng = np.random.default_rng(4)
        m1, m2 = default_models()
        pts = rng.uniform(20, 80, (250, 2))
        u1, _ = project_points(m1, pts)
        u2, _ = project_points(m2, pts)
        se = 3.0 / math.sqrt(500)

        def run(seed, n_draws):
            r = np.random.default_rng(seed)
            idx = np.tile(np.arange(250), n_draws)
            est, _, ok = triangulate_many(
                m1, u1[idx] + r.normal(0, se, len(idx)),
                m2, u2[idx] + r.normal(0, se, len(idx)))
            return rmse(est[ok], pts[idx][ok])[0]

        measured = run(5, 4)
        predicted = run(6, 40)  # the oracle: same propagation, many draws
        assert abs(measured - predicted) / predicted < 0.15


def cmre(est, gt, diagonal_mm):
    """CMRE as every report computes it, with every press valid."""
    n = len(est)
    return evaluate(est, gt, np.ones(n, dtype=bool), np.arange(n),
                    np.zeros(n, dtype=np.int64), diagonal_mm=diagonal_mm,
                    full_area_mm2=1.0, probed_area_mm2=1.0).cmre_percent


class TestCmre:
    def test_diagonal_fraction_value(self):
        # rmse 4.66 mm over the full-sensor diagonal
        est = np.array([[4.66, 0.0]])
        gt = np.array([[0.0, 0.0]])
        assert cmre(est, gt, 100.0 * math.sqrt(2)) == pytest.approx(3.295, abs=0.005)

    def test_full_diagonal(self):
        assert cmre([[141.42, 0.0]], [[0.0, 0.0]], 141.42) == pytest.approx(100.0)


class TestPassRate:
    def test_self_referenced_p95_is_95_percent(self):
        rng = np.random.default_rng(5)
        errors = rng.exponential(2.0, 2000)
        valid = np.ones(2000, dtype=bool)
        p95 = error_p95(errors, valid)
        rate = pass_rate(errors, p95, valid)
        assert rate == pytest.approx(95.0, abs=0.5)

    def test_all_invalid_is_zero(self):
        errors = np.ones(10)
        assert pass_rate(errors, 5.0, np.zeros(10, dtype=bool)) == 0.0

    def test_invalid_counts_as_failure(self):
        errors = np.array([0.1, 0.1, 0.1, 0.1])
        valid = np.array([True, True, False, False])
        assert pass_rate(errors, 1.0, valid) == 50.0

    def test_monotone_in_reference(self):
        rng = np.random.default_rng(6)
        errors = rng.exponential(1.0, 500)
        valid = np.ones(500, dtype=bool)
        rates = [pass_rate(errors, t, valid) for t in (0.5, 1.0, 2.0, 4.0)]
        assert rates == sorted(rates)


class TestEffectiveTaxels:
    def test_reduced_rate_taxel_count(self):
        # Table-scale check: 9.33 mm circles over the full sensor
        assert effective_taxels(9.33, 9328.0, "circle_area") == 34

    def test_circle_formula(self):
        assert effective_taxels(4.66, 9328.0, "circle_area") == 136

    def test_unit_area(self):
        r = 4.0
        assert effective_taxels(r, math.pi * r * r, "circle_area") == 1

    def test_square_tile(self):
        assert effective_taxels(5.0, 400.0, "square_tile") == 4

    def test_monotone_decreasing_in_rmse(self):
        counts = [effective_taxels(r, 9328.0) for r in (2.0, 4.0, 8.0, 16.0)]
        assert counts == sorted(counts, reverse=True)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            effective_taxels(0.0, 100.0)
        with pytest.raises(ValueError):
            effective_taxels(1.0, 100.0, "hexagons")


class TestRepeatability:
    def test_identical_estimates(self):
        est = np.tile([[10.0, 20.0]], (6, 1))
        idx = np.array([0, 0, 0, 1, 1, 1])
        assert repeatability(est, idx) == 0.0

    def test_two_point_spread(self):
        est = np.array([[0.0, 0.0], [2.0, 0.0]])
        idx = np.array([0, 0])
        assert repeatability(est, idx) == pytest.approx(math.sqrt(2.0))

    def test_matches_noise_scale(self):
        rng = np.random.default_rng(7)
        sigma = 1.5
        n_press, reps = 100, 10
        idx = np.repeat(np.arange(n_press), reps)
        est = rng.normal(0, sigma, (n_press * reps, 2))
        got = repeatability(est, idx)
        assert abs(got - sigma * math.sqrt(2)) / (sigma * math.sqrt(2)) < 0.15

    def test_needs_two_repetitions(self):
        with pytest.raises(UndefinedMetricError):
            repeatability(np.zeros((3, 2)), np.array([0, 1, 2]))


class TestEvaluate:
    def _inputs(self, n=100, seed=8):
        rng = np.random.default_rng(seed)
        gt = rng.uniform(10, 90, (n, 2))
        est = gt + rng.normal(0, 1.0, (n, 2))
        valid = rng.random(n) > 0.05
        pidx = np.arange(n) % 25
        reps = np.arange(n) // 25
        return est, gt, valid, pidx, reps

    def test_report_fields(self):
        est, gt, valid, pidx, reps = self._inputs()
        rep = evaluate(est, gt, valid, pidx, reps, diagonal_mm=141.42,
                       full_area_mm2=10_000.0, probed_area_mm2=4000.0)
        assert rep.rmse_mm > 0
        assert rep.rmse_mm ** 2 >= max(rep.rmse_x_mm, rep.rmse_y_mm) ** 2 - 1e-12
        assert 0 <= rep.pass_rate_percent <= 100
        assert rep.n_valid == valid.sum()
        assert len(rep.per_press) == 100
        assert rep.taxels_by_convention["circle_area"]["full"] >= \
            rep.taxels_by_convention["circle_area"]["probed"]

    def test_external_reference_p95(self):
        est, gt, valid, pidx, reps = self._inputs()
        rep = evaluate(est, gt, valid, pidx, reps, diagonal_mm=141.42,
                       full_area_mm2=10_000.0, probed_area_mm2=4000.0,
                       reference_p95_mm=1e9)
        assert rep.pass_rate_percent == pytest.approx(100.0 * valid.mean())

    def test_all_excluded_raises(self):
        est, gt, valid, pidx, reps = self._inputs()
        with pytest.raises(UndefinedMetricError):
            evaluate(est, gt, np.zeros(100, dtype=bool), pidx, reps,
                     diagonal_mm=141.42, full_area_mm2=10_000.0,
                     probed_area_mm2=4000.0)
