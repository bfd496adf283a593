from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from tacloc import cluster, ingest, pipeline
from tacloc.cluster import DbscanParams, dbscan_brute
from tacloc.geometry import (DegenerateGeometryError, default_models,
                             project_points, triangulate)
from tacloc.ingest import RunConfig, make_schedule
from tacloc.segment import press_events
from tacloc.synth import SynthSpec, generate

from .conftest import reference_dominant, small_layout


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
        assert prepared.anchor_s == prepared.tap_onsets_s[0]

    def test_sync_taps_detected_once_per_camera(self, run20, monkeypatch):
        cfg, prepared, _ = run20
        cameras = []
        detect = ingest.detect_sync_taps

        def counted(stream, spec):
            cameras.append(int(stream.camera_id))
            return detect(stream, spec)

        # wherever prepare_run may reach it from
        for module in (ingest, pipeline):
            monkeypatch.setattr(module, "detect_sync_taps", counted,
                                raising=False)
        again = pipeline.prepare_run(prepared.s1, prepared.s2, cfg)
        assert cameras == [1, 2]
        assert again.tap_onsets_s == prepared.tap_onsets_s

    def test_streams_are_cropped(self, run20):
        cfg, prepared, _ = run20
        assert prepared.s1.v.min() >= cfg.roi[0]
        assert prepared.s1.v.max() <= cfg.roi[1]

    def test_streams_read_into_the_roi_are_not_copied(self, tiny_run,
                                                       tmp_path):
        cfg, _, s1, s2, _ = tiny_run
        read = []
        for cam, s in ((1, s1), (2, s2)):
            ingest.write_events(s, tmp_path / f"cam{cam}.evt")
            read.append(ingest.read_events(tmp_path / f"cam{cam}.evt", cam,
                                           roi=cfg.roi))
        prepared = pipeline.prepare_run(*read, cfg)
        whole = pipeline.prepare_run(s1, s2, cfg)
        for got, src, ref in zip((prepared.s1, prepared.s2), read,
                                 (whole.s1, whole.s2)):
            for name in ("t_low", "run_starts", "run_highs", "u", "v",
                         "polarity", "ordinals", "gaps"):
                assert getattr(got, name) is getattr(src, name)
            for name in ("t", "u", "v", "polarity"):
                assert np.array_equal(getattr(got, name), getattr(ref, name))
            assert got.ordinal_array().dtype == ref.ordinal_array().dtype
            assert np.array_equal(got.ordinal_array(), ref.ordinal_array())
            assert got.time_offset_us == ref.time_offset_us
        assert prepared.tap_onsets_s == whole.tap_onsets_s


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
        u1, u2, gt = pipeline.calibration_observations(results, cfg)
        assert len(u1) == 20
        cfg_excl = RunConfig(layout=cfg.layout, schedule=cfg.schedule,
                             exclude_presses=(0, 1, 2))
        u1b, _, _ = pipeline.calibration_observations(results, cfg_excl)
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


def _reference_table(trials, models, params):
    """The TrialTable columns of ``trials``, one trial and camera at a time:
    ``dbscan_brute`` on the press events, the dominant-cluster rule, and
    scalar ``triangulate``."""
    cols = {"centroid_u": [], "cluster_size": [], "est_mm": [], "valid": [],
            "reason": []}
    for trial in trials:
        sizes, cents, failing = [], [], []
        for cam in (1, 2):
            if trial.missing:
                size, cent = 0, float("nan")
            else:
                ev = press_events(trial, cam)
                u = ev.u.astype(np.float64)
                pts = np.column_stack([u, ev.v.astype(np.float64)])
                size, cent = reference_dominant(
                    u, dbscan_brute(pts, params), params)
            sizes.append(size)
            cents.append(cent)
            if np.isnan(cent):
                failing.append(f"cam{cam}")
        est, reason = (np.nan, np.nan), ""
        if trial.missing:
            reason = "missing"
        elif failing:
            reason = "no prominent cluster: " + ", ".join(failing)
        else:
            try:
                tri = triangulate(models[0], cents[0], models[1], cents[1])
                est = (tri.x_mm, tri.y_mm)
            except DegenerateGeometryError:
                reason = "degenerate triangulation"
        cols["centroid_u"].append(cents)
        cols["cluster_size"].append(sizes)
        cols["est_mm"].append(est)
        cols["valid"].append(reason == "")
        cols["reason"].append(reason)
    return cols


@pytest.fixture(scope="module")
def oracle_recordings():
    """Small recordings whose background is dense enough that many
    pixels cannot be within eps of a core, each segmented, with every
    third trial marked missing among live ones."""
    out = []
    for seed, background in ((41, 900.0), (42, 2500.0)):
        layout = small_layout(4, 3)
        cfg = RunConfig(layout=layout, schedule=make_schedule(
            layout, period_s=1.0, repetitions=1))
        spec = SynthSpec(layout=layout, schedule=cfg.schedule, seed=seed,
                         burst_events_per_press_per_camera=300.0,
                         background_rate_per_camera=background,
                         tap_events=3000.0)
        prepared = pipeline.prepare_run(*generate(spec)[:2], cfg)
        trials = [dataclasses.replace(t, missing=True) if i % 3 == 1 else t
                  for i, t in enumerate(pipeline.segment(prepared, cfg))]
        out.append((cfg, trials))
    return out


ORACLE_PARAMS = [DbscanParams(), DbscanParams(eps=6.5, min_samples=5,
                                              min_cluster_points=310)]


@pytest.mark.parametrize("cells", [None, 30_000, 1])
@pytest.mark.parametrize("params", ORACLE_PARAMS)
def test_localize_trials_matches_per_trial_reference(oracle_recordings,
                                                     monkeypatch, cells,
                                                     params):
    if cells is not None:
        monkeypatch.setattr(cluster, "_CHUNK_CELLS", cells)
    for cfg, trials in oracle_recordings:
        table = pipeline.localize_trials(trials, cfg.camera_models, params)
        want = _reference_table(trials, cfg.camera_models, params)
        assert table.reason == tuple(want["reason"])
        assert np.array_equal(table.valid, want["valid"])
        assert np.array_equal(table.clustered, [r in ("", "degenerate "
                                                      "triangulation")
                                                for r in want["reason"]])
        assert table.cluster_size.dtype == np.int64
        assert np.array_equal(table.cluster_size, want["cluster_size"])
        # equal bits, nan included
        for name in ("centroid_u", "est_mm"):
            got = getattr(table, name)
            assert got.dtype == np.float64
            assert got.tobytes() == np.array(want[name]).tobytes(), name
        assert np.array_equal(table.press_index,
                              [t.press_index for t in trials])
        assert np.array_equal(table.gt_mm, [t.ground_truth_mm for t in trials])


@pytest.mark.parametrize("params", ORACLE_PARAMS)
def test_localize_trial_matches_per_trial_reference(oracle_recordings,
                                                    params):
    missing_events = 0
    for cfg, trials in oracle_recordings:
        want = _reference_table(trials, cfg.camera_models, params)
        for i, trial in enumerate(trials):
            r1, r2, reason = pipeline.localize_trial(trial, params)
            # stage (b) gives the degenerate reason; stage (a) passes the trial
            assert reason == want["reason"][i].replace(
                "degenerate triangulation", "")
            # equal bits, nan included
            assert (np.array([r1.centroid_u, r2.centroid_u]).tobytes()
                    == np.array(want["centroid_u"][i]).tobytes())
            assert ([r1.largest_cluster_size, r2.largest_cluster_size]
                    == want["cluster_size"][i])
            if trial.missing:
                assert not r1.valid and not r2.valid
                assert r1.largest_cluster_size == r2.largest_cluster_size == 0
                missing_events += sum(len(press_events(trial, cam))
                                      for cam in (1, 2))
    # a missing trial is not clustered, even when it holds events
    assert missing_events > 0
