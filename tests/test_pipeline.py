from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from tacloc import pipeline
from tacloc.geometry import (DegenerateGeometryError, default_models,
                             project_points, triangulate)
from tacloc.ingest import RunConfig, make_schedule
from tacloc.synth import SynthSpec, generate

from .conftest import small_layout


@pytest.fixture(scope="module")
def run20():
    layout = small_layout(5, 4)
    cfg = RunConfig(layout=layout,
                    schedule=make_schedule(layout, period_s=1.5, repetitions=1))
    spec = SynthSpec(layout=layout, schedule=cfg.schedule, seed=20,
                     burst_events_per_press_per_camera=2500.0,
                     background_rate_per_camera=800.0)
    s1, s2, man = generate(spec)
    prepared = pipeline.prepare_run(s1, s2, cfg)
    return cfg, prepared, man


class TestPrepareRun:
    def test_anchor_matches_first_tap(self, run20):
        cfg, prepared, man = run20
        assert abs(prepared.anchor_s - man.tap_times_s[0]) < 0.020
        assert len(prepared.tap_onsets_s) == 3

    def test_streams_are_cropped(self, run20):
        cfg, prepared, _ = run20
        assert prepared.s1.roi == tuple(cfg.roi)
        assert prepared.s1.v.min() >= cfg.roi[0]
        assert prepared.s1.v.max() <= cfg.roi[1]


class TestLocalization:
    def test_full_run_accuracy(self, run20):
        cfg, prepared, _ = run20
        report, results, trials = pipeline.run_localization(prepared, cfg)
        assert report.n_presses == 20
        assert report.n_valid == 20
        assert report.rmse_mm < 0.2
        assert report.pass_rate_percent >= 90.0

    def test_missing_trial_reported_invalid(self, run20):
        cfg, prepared, _ = run20
        from tacloc.ingest import PressSchedule
        sch = cfg.schedule
        longer = PressSchedule(np.append(sch.onsets_s, 9999.0),
                               sch.press_duration_s,
                               np.vstack([sch.ground_truth_mm, [[50, 50]]]),
                               np.append(sch.press_index, 0),
                               np.append(sch.repetition, 1))
        cfg2 = RunConfig(layout=cfg.layout, schedule=longer)
        report, results, _ = pipeline.run_localization(prepared, cfg2)
        assert results.reason[-1] == "missing"
        assert not results.valid[-1]

    def test_retriangulate_reuses_centroids(self, run20):
        cfg, prepared, _ = run20
        _, results, _ = pipeline.run_localization(prepared, cfg)
        again = pipeline.triangulate_trials(results, cfg.camera_models)
        for a, b, ok in zip(results.est_mm[:, 0], again.est_mm[:, 0],
                            results.valid):
            if ok:
                assert b == pytest.approx(a, abs=1e-12)


class TestTriangulateTrials:
    def test_matches_scalar_oracle_row_by_row(self):
        models = default_models(100.0)
        rng = np.random.default_rng(5)
        pts = rng.uniform([10.0, 30.0], [90.0, 75.0], size=(40, 2))
        u = np.column_stack([project_points(models[0], pts)[0],
                             project_points(models[1], pts)[0]])
        u += rng.normal(0.0, 2.0, u.shape)
        # both rays point along +y: parallel, so degenerate
        u = np.vstack([u, [[639.5, -0.5], [300.0, np.nan]]])
        n = len(u)
        cluster_reason = "no prominent cluster: cam2"
        table = pipeline.TrialTable(
            press_index=np.arange(n), repetition=np.zeros(n, dtype=np.int64),
            gt_mm=np.zeros((n, 2)), centroid_u=u,
            cluster_size=np.full((n, 2), 50),
            clustered=np.arange(n) < n - 1,
            est_mm=np.full((n, 2), np.nan), valid=np.zeros(n, dtype=bool),
            reason=("",) * (n - 1) + (cluster_reason,))
        out = pipeline.triangulate_trials(table, models)
        for i in range(n - 2):
            tri = triangulate(models[0], u[i, 0], models[1], u[i, 1])
            assert out.valid[i] and out.reason[i] == ""
            assert out.est_mm[i] == pytest.approx([tri.x_mm, tri.y_mm],
                                                  abs=1e-12)
        with pytest.raises(DegenerateGeometryError):
            triangulate(models[0], u[-2, 0], models[1], u[-2, 1])
        assert not out.valid[-2]
        assert out.reason[-2] == "degenerate triangulation"
        assert np.isnan(out.est_mm[-2]).all()
        assert not out.valid[-1]
        assert out.reason[-1] == cluster_reason
        assert np.isnan(out.est_mm[-1]).all()


class TestCalibrationFlow:
    def test_observations_filter(self, run20):
        cfg, prepared, _ = run20
        _, results, _ = pipeline.run_localization(prepared, cfg)
        u1, u2, gt = pipeline.calibration_observations(results, cfg, repetition=0)
        assert len(u1) == 20
        cfg_excl = RunConfig(layout=cfg.layout, schedule=cfg.schedule,
                             exclude_presses=(0, 1, 2))
        u1b, _, _ = pipeline.calibration_observations(results, cfg_excl, 0)
        assert len(u1b) == 17

    def test_run_calibration_improves_perturbed_start(self, run20):
        cfg, prepared, _ = run20
        bad = (dataclasses.replace(cfg.camera_models[0], x_mm=2.0, y_mm=-1.5),
               dataclasses.replace(cfg.camera_models[1], skew_rad=0.02))
        cfg2 = RunConfig(layout=cfg.layout, schedule=cfg.schedule,
                         camera_models=bad)
        fit, _ = pipeline.run_calibration(prepared, cfg2)
        assert fit.rmse_mm < fit.initial_rmse_mm
        assert fit.rmse_mm < 0.1


def test_probed_area():
    layout = small_layout(5, 4)
    cfg = RunConfig(layout=layout)
    # bbox 16 x 12 mm padded by one 4 mm spacing on each axis
    assert pipeline.probed_area_mm2(cfg) == pytest.approx(20.0 * 16.0)
