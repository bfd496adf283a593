from __future__ import annotations

import ast
import copy
import hashlib
import json
import logging
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tacloc
from tacloc import ablate, cli, latency, pipeline
from tacloc.cli import main
from tacloc.events import EventStream, SensorLayout
from tacloc.geometry import CameraModel, FreeParams
from tacloc.ingest import (IngestError, PressSchedule, SyncSpec,
                           config_from_dict, load_config, read_events,
                           write_events)
from tacloc.latency import CusumParams
from tacloc.segment import segment_by_schedule
from tacloc.synth import SynthSpec, spec_from_config


def base_doc(**extra) -> dict:
    doc = {
        "seed": 17,
        "files": {"cam1": "cam1.evt", "cam2": "cam2.evt", "format": "bin"},
        "layout": {"grid_cols": 4, "grid_rows": 3, "repetitions": 2,
                   "grid_origin_mm": [40.0, 40.0]},
        "schedule": {"onset0_s": 5.0, "period_s": 1.5, "repetitions": 2},
        "synth": {
            "burst_events_per_press_per_camera": 2500,
            "background_rate_per_camera": 600,
        },
    }
    doc.update(extra)
    return doc


def base_config(tmp_path: Path, **extra) -> Path:
    p = tmp_path / "run.json"
    p.write_text(json.dumps(base_doc(**extra), indent=1))
    return p


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    cfgp = base_config(tmp)
    assert main(["simulate", "--config", str(cfgp), "--out", str(tmp)]) == 0
    return tmp, cfgp


CAMERA = {"x_mm": 0.0, "y_mm": 0.0, "orientation_rad": 0.7853981633974483,
          "skew_rad": 0.0, "focal_px": 320.0, "u_center": 319.5, "k1": 0.0}


EXPLICIT_SCHEDULE = {"onsets_s": [5.0, 6.5],
                     "ground_truth_mm": [[50.0, 50.0], [54.0, 50.0]],
                     "press_index": [0, 1], "repetition": [0, 0]}


def explicit_schedule(**changes):
    """A config edit that sets the explicit schedule with ``changes``; a
    change to None deletes its key."""
    def edit(doc):
        doc["schedule"] = {k: v for k, v in
                           dict(EXPLICIT_SCHEDULE, **changes).items()
                           if v is not None}
    return edit


def synth_with(**options):
    return lambda d: d["synth"].update(options)


# config edit, --models document, the one error message
BAD_INPUTS = [
    pytest.param(lambda d: d.update(seeds=[1]), None, "unknown key seeds",
                 id="top-level"),
    pytest.param(lambda d: d["layout"].update(grid_col=4), None,
                 "unknown key layout.grid_col", id="layout"),
    pytest.param(lambda d: d["schedule"].update(period=2.0), None,
                 "unknown key schedule.period", id="schedule"),
    pytest.param(lambda d: d.update(cluster={"eps": 5}), None,
                 "unknown key cluster.eps", id="cluster"),
    pytest.param(lambda d: d.update(calibration={"fixed": {}}), None,
                 "unknown key calibration.fixed", id="calibration"),
    pytest.param(lambda d: d.update(calibration={"free": {"skw": 0}}), None,
                 "unknown key calibration.free.skw", id="calibration.free"),
    pytest.param(lambda d: d["files"].update(cam3="cam3.evt"), None,
                 "unknown key files.cam3", id="files"),
    pytest.param(lambda d: d.update(latency={"sigma": 0.001}), None,
                 "unknown key latency.sigma", id="latency"),
    *[pytest.param(explicit_schedule(**{key: None}), None,
                   f"missing key schedule.{key}", id=f"schedule-without-{key}")
      for key in ("ground_truth_mm", "press_index", "repetition")],
    pytest.param(None, {"models": []}, "missing key cameras",
                 id="models-without-cameras"),
    pytest.param(None, {"cameras": [CAMERA]},
                 "cameras must list exactly 2 camera models",
                 id="models-one-camera"),
    pytest.param(None, [CAMERA] * 3,
                 "cameras must list exactly 2 camera models",
                 id="models-three-cameras"),
    pytest.param(lambda d: d.update(cameras=[{"x_mm": 0}, {"x_mm": 100}]),
                 None, "missing key cameras[0].y_mm",
                 id="cameras-missing-parameter"),
    pytest.param(None, [CAMERA, {k: v for k, v in CAMERA.items() if k != "k1"}],
                 "missing key cameras[1].k1", id="models-missing-parameter"),
    *[pytest.param(lambda d, roi=roi: d.update(roi=roi), None,
                   f"roi must be two integers 0 <= lo < hi <= 480, got {text}",
                   id=f"roi-{name}")
      for name, roi, text in [("scalar", 5, "5"),
                              ("strings", ["a", "b"], '["a", "b"]'),
                              ("three-bounds", [10, 20, 30], "[10, 20, 30]"),
                              ("reversed", [300, 200], "[300, 200]")]],
    pytest.param(lambda d: d.update(exclude_presses=5), None,
                 "exclude_presses must be a list of integers, got 5",
                 id="exclude_presses-scalar"),
    pytest.param(lambda d: d.update(seed=[1]), None,
                 "seed must be an integer, got [1]", id="seed-list"),
    pytest.param(lambda d: d.update(seed=True), None,
                 "seed must be an integer, got true", id="seed-bool"),
    pytest.param(lambda d: d.update(cluster={"eps_px": None}), None,
                 "cluster.eps_px must be a number, got null",
                 id="cluster.eps_px-null"),
    *[pytest.param(lambda d, v=value: d.update(baseline_s=v), None,
                   f"baseline_s must be a number, got {text}",
                   id=f"baseline_s-{name}")
      for name, value, text in [("nan", float("nan"), "NaN"),
                                ("infinity", float("inf"), "Infinity"),
                                ("huge-integer", 10**400, str(10**400))]],
    pytest.param(lambda d: d.update(cluster={"min_samples": 2.5}), None,
                 "cluster.min_samples must be an integer, got 2.5",
                 id="cluster.min_samples-float"),
    pytest.param(lambda d: d["layout"].update(grid_origin_mm=3), None,
                 "layout.grid_origin_mm must be a list of 2 numbers, got 3",
                 id="layout.grid_origin_mm-scalar"),
    pytest.param(lambda d: d.update(sync={"n_taps": "3"}), None,
                 'sync.n_taps must be an integer, got "3"',
                 id="sync.n_taps-string"),
    pytest.param(lambda d: d.update(calibration={"free": {"k1": "no"}}), None,
                 'calibration.free.k1 must be true or false, got "no"',
                 id="calibration.free.k1-string"),
    pytest.param(lambda d: d["files"].update(cam1=1), None,
                 "files.cam1 must be a string, got 1", id="files.cam1-number"),
    # the camera box of a 160 mm skin is [-80, 240] mm
    pytest.param(lambda d: (d["layout"].update(side_mm=160.0),
                            d.update(cameras=[dict(CAMERA, x_mm=241.0),
                                              CAMERA])),
                 None, "cameras[0]: camera position (241, 0) mm outside the "
                 "expanded sensor box [-80, 240] mm", id="cameras-outside-box"),
    pytest.param(None, [CAMERA, dict(CAMERA, y_mm=-51.0)],
                 "cameras[1]: camera position (0, -51) mm outside the "
                 "expanded sensor box [-50, 150] mm", id="models-outside-box"),
    pytest.param(lambda d: d.update(synth=5), None,
                 "synth must be a JSON object", id="synth-scalar"),
    *[pytest.param(synth_with(sigma_u_px=value), None,
                   f"synth.sigma_u_px must be a number, got {text}",
                   id=f"synth.sigma_u_px-{name}")
      for name, value, text in [("list", [1], "[1]"), ("string", "3", '"3"'),
                                ("bool", True, "true")]],
    # values the generator would fail on, or draw with as 0 while the
    # truth manifest records them
    *[pytest.param(synth_with(**{key: value}), None,
                   f"synth.{key} must not be negative, got {value:g}",
                   id=f"synth.{key}-negative")
      for key, value in [("burst_events_per_press_per_camera", -1),
                         ("sigma_u_px", -1), ("burst_v_halfwidth_px", -5),
                         ("background_rate_per_camera", -3),
                         ("press_offset_sigma_px", -0.5),
                         ("tap_events", -1)]],
    pytest.param(synth_with(secondary_blob_frac=1.5), None,
                 "synth.secondary_blob_frac must lie in [0, 1], got 1.5",
                 id="synth.secondary_blob_frac-over-1"),
    pytest.param(synth_with(burst_u_quantize="nearest"), None,
                 'synth.burst_u_quantize must be "split" or "round", got '
                 '"nearest"', id="synth.burst_u_quantize-unknown"),
    pytest.param(synth_with(rate_profile=[0.2, 0.6, 0.2, 0.0]), None,
                 "synth.rate_profile must be a list of 3 numbers, got "
                 "[0.2, 0.6, 0.2, 0.0]", id="synth.rate_profile-four"),
    pytest.param(synth_with(rate_profile=[0.2, 0.6, 0.3]), None,
                 "synth.rate_profile: profile fractions must sum to 1",
                 id="synth.rate_profile-sum"),
    pytest.param(lambda d: d.update(latency={"h": 4.0}), None,
                 "unknown key latency.h", id="latency.h"),
    pytest.param(lambda d: d["schedule"].update(press_duration_s=0.5), None,
                 "schedule.press_duration_s is not read by a generator "
                 "schedule", id="schedule-generator-press_duration_s"),
    pytest.param(explicit_schedule(onsets_s=[5.0, 5.01]), None,
                 "schedule: onsets 5 s and 5.01 s are closer than "
                 "press_duration_s 0.55 s", id="schedule-explicit-overlap"),
    pytest.param(lambda d: d["schedule"].update(period_s=0.01), None,
                 "schedule: onsets 5 s and 5.01 s are closer than "
                 "press_duration_s 0.55 s", id="schedule-generator-overlap"),
    pytest.param(lambda d: d["layout"].update(press_duration_s=-0.5), None,
                 "layout: press_duration_s must be positive",
                 id="layout.press_duration_s-negative"),
    pytest.param(explicit_schedule(press_duration_s=0.0), None,
                 "schedule: press_duration_s must be positive",
                 id="schedule.press_duration_s-zero"),
    pytest.param(explicit_schedule(period_s=1.5), None,
                 "schedule.period_s is not read by an explicit schedule",
                 id="schedule-explicit-period_s"),
    pytest.param(lambda d: d["layout"].update(grid_points_mm=[[50.0, 50.0]]),
                 None, "layout.grid_cols is not read by a layout with "
                 "grid_points_mm", id="layout-grid_cols-with-grid_points_mm"),
    *[pytest.param(lambda d, v=value: d.update(cluster={"eps_px": v}), None,
                   "cluster: eps must lie in [MIN_EPS_PX sqrt(2), MAX_EPS_PX "
                   f"100] px, got {value}", id=f"cluster.eps_px-{name}")
      for name, value in [("zero", 0), ("one", 1), ("over-max", 101)]],
    pytest.param(lambda d: d.update(sync={"spacing_tolerance_s": -0.1}), None,
                 "sync: spacing_tolerance_s and onset_threshold_multiple "
                 "must not be negative",
                 id="sync.spacing_tolerance_s-negative"),
    pytest.param(lambda d: d.update(sync={"onset_threshold_multiple": -1}),
                 None, "sync: spacing_tolerance_s and "
                 "onset_threshold_multiple must not be negative",
                 id="sync.onset_threshold_multiple-negative"),
    pytest.param(lambda d: d.update(baseline_s=-0.2), None,
                 "baseline_s must not be negative, got -0.2",
                 id="baseline_s-negative"),
    pytest.param(lambda d: d.update(cluster={"min_samples": 0}), None,
                 "cluster: min_samples must be >= 1",
                 id="cluster.min_samples-zero"),
    pytest.param(lambda d: d.update(sync={"bin_s": 0}), None,
                 "sync: tap_interval_s, search_window_s and bin_s must be "
                 "positive", id="sync.bin_s-zero"),
    pytest.param(lambda d: d.update(latency={"bin_s": 0}), None,
                 "latency: CUSUM parameters must be positive",
                 id="latency.bin_s-zero"),
    pytest.param(lambda d: d.update(latency={"sigma_s": 0.5}), None,
                 "latency: sigma_s 0.5 s over bin_s 0.0002 s needs more than "
                 "MAX_KERNEL_TAPS 1001 kernel taps", id="latency-kernel-taps"),
    pytest.param(lambda d: d.update(latency={"bin_s": 1e-6, "sigma_s": 1e-6}),
                 None, "latency: a 0.55 s trial window over bin_s 1e-06 s "
                 "needs more than MAX_WINDOW_BINS 100000 bins",
                 id="latency-window-bins"),
    pytest.param(lambda d: d.update(sync={"bin_s": 1e-5}), None,
                 "sync: search_window_s 15 s over bin_s 1e-05 s needs more "
                 "than MAX_SYNC_BINS 100000 bins", id="sync-bins"),
    pytest.param(explicit_schedule(ground_truth_mm=[50.0, 54.0]), None,
                 "schedule.ground_truth_mm[0] must be a list of 2 numbers, "
                 "got 50.0", id="schedule.ground_truth_mm-1d"),
    pytest.param(explicit_schedule(press_index=[0.5, 1.5]), None,
                 "schedule.press_index[0] must be an integer, got 0.5",
                 id="schedule.press_index-float"),
    pytest.param(explicit_schedule(repetition=[0, 0, 0]), None,
                 "schedule.repetition has 3 entries, schedule.onsets_s has 2",
                 id="schedule-unequal-columns"),
    pytest.param(explicit_schedule(onsets_s=[6.5, 5.0]), None,
                 "schedule: onsets must be strictly increasing",
                 id="schedule-decreasing-onsets"),
    pytest.param(lambda d: d.update(layout={"grid_points_mm": [[50, "a"]]}),
                 None, 'layout.grid_points_mm[0][1] must be a number, got "a"',
                 id="layout.grid_points_mm-string"),
    pytest.param(lambda d: d["files"].update(format="xyz"), None,
                 'files.format must be "bin" or "csv", got "xyz"',
                 id="files.format-unknown"),
]


class TestSimulate:
    def test_writes_streams_and_manifest(self, sim_dir):
        tmp, _ = sim_dir
        assert (tmp / "cam1.evt").exists()
        assert (tmp / "cam2.evt").exists()
        manifest = json.loads((tmp / "truth_manifest.json").read_text())
        assert len(manifest["presses"]) == 24

    def test_deterministic_rerun(self, sim_dir, tmp_path):
        tmp, cfgp = sim_dir
        out2 = tmp_path / "again"
        assert main(["simulate", "--config", str(cfgp), "--out", str(out2)]) == 0
        assert digest(tmp / "cam1.evt") == digest(out2 / "cam1.evt")
        assert digest(tmp / "cam2.evt") == digest(out2 / "cam2.evt")

    def test_seed_override_changes_files(self, sim_dir, tmp_path):
        tmp, cfgp = sim_dir
        out2 = tmp_path / "seeded"
        assert main(["simulate", "--config", str(cfgp), "--out", str(out2),
                     "--seed", "99"]) == 0
        assert digest(tmp / "cam1.evt") != digest(out2 / "cam1.evt")

    def test_roi_to_the_last_sensor_row(self, tmp_path):
        # roi hi may be SENSOR_HEIGHT; bursts still stay on the sensor
        cfgp = base_config(tmp_path, roi=[300, 480])
        assert main(["simulate", "--config", str(cfgp),
                     "--out", str(tmp_path)]) == 0
        for cam in (1, 2):
            v = read_events(tmp_path / f"cam{cam}.evt", cam).v
            assert v.max() <= 479 and np.count_nonzero(v >= 300) > 0
        assert main(["localize", "--config", str(cfgp),
                     "--out", str(tmp_path / "loc")]) == 0

    def test_invalid_json_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{ nope")
        assert main(["simulate", "--config", str(bad),
                     "--out", str(tmp_path)]) == 2


class TestLocalize:
    def test_reports_written(self, sim_dir, tmp_path):
        tmp, cfgp = sim_dir
        out = tmp_path / "loc"
        assert main(["localize", "--config", str(cfgp), "--out", str(out)]) == 0
        rows = (out / "localization.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 24
        assert (out / "localization.csv").read_bytes().startswith(
            b"press_index,repetition,gt_x_mm,gt_y_mm,est_x_mm,est_y_mm,"
            b"centroid_u1,centroid_u2,cluster_size1,cluster_size2,valid,"
            b"reason\r\n")
        rep = json.loads((out / "evaluation.json").read_text())
        assert rep["n_presses"] == 24
        assert rep["rmse_mm"] < 1.0
        assert rep["schema_version"] == 1

    def test_missing_press_writes_empty_cells(self, sim_dir, tmp_path):
        # the second press lies past the recording: no estimate, no centroid
        tmp, cfgp = sim_dir
        doc = json.loads(cfgp.read_text())
        doc["schedule"] = dict(EXPLICIT_SCHEDULE, onsets_s=[5.0, 9999.0],
                               ground_truth_mm=[[40.0, 40.0], [44.0, 40.0]])
        cfg2 = tmp / f"missing_{tmp_path.name}.json"
        cfg2.write_text(json.dumps(doc))
        out = tmp_path / "loc"
        assert main(["localize", "--config", str(cfg2), "--out", str(out)]) == 0
        assert (out / "localization.csv").read_bytes().endswith(
            b"\r\n1,0,44.0,40.0,,,,,0,0,0,missing\r\n")

    def test_missing_camera_file_exit_2(self, sim_dir, tmp_path):
        # config points at files that do not exist next to it
        cfgp = base_config(tmp_path)
        assert main(["localize", "--config", str(cfgp),
                     "--out", str(tmp_path / "out")]) == 2

    def test_unknown_sync_key_exit_2(self, sim_dir, tmp_path, caplog):
        tmp, cfgp = sim_dir
        doc = json.loads(cfgp.read_text())
        doc["sync"] = {"tap_interval": 1.0}
        bad = tmp / "bad_sync.json"
        bad.write_text(json.dumps(doc))
        caplog.set_level(logging.INFO, logger="tacloc")
        assert main(["localize", "--config", str(bad),
                     "--out", str(tmp_path / "out")]) == 2
        errors = [r for r in caplog.records if r.levelno >= logging.ERROR]
        assert [r.getMessage() for r in errors] == ["unknown key sync.tap_interval"]
        assert errors[0].exc_info is None

    @pytest.mark.parametrize("edit, models, message", BAD_INPUTS)
    def test_bad_input_exit_2(self, sim_dir, tmp_path, caplog, edit, models,
                              message):
        tmp, cfgp = sim_dir
        doc = json.loads(cfgp.read_text())
        if edit is not None:
            edit(doc)
        bad = tmp / f"bad_{tmp_path.name}.json"
        bad.write_text(json.dumps(doc))
        args = ["localize", "--config", str(bad), "--out", str(tmp_path / "out")]
        if models is not None:
            mp = tmp_path / "models.json"
            mp.write_text(json.dumps(models))
            args += ["--models", str(mp)]
        caplog.set_level(logging.INFO, logger="tacloc")
        assert main(args) == 2
        errors = [r for r in caplog.records if r.levelno >= logging.ERROR]
        assert len(errors) == 1
        assert errors[0].getMessage().endswith(message)
        assert errors[0].exc_info is None
        # rejected before any event file is read
        assert not [r for r in caplog.records
                    if "stage read" in r.getMessage()]

    def test_models_not_json_names_the_file(self, sim_dir, tmp_path, caplog):
        tmp, cfgp = sim_dir
        mp = tmp_path / "models.json"
        mp.write_text("not json")
        caplog.set_level(logging.INFO, logger="tacloc")
        assert main(["localize", "--config", str(cfgp), "--out",
                     str(tmp_path / "out"), "--models", str(mp)]) == 2
        errors = [r for r in caplog.records if r.levelno >= logging.ERROR]
        assert [r.getMessage() for r in errors] == [
            f"{mp}: invalid JSON at line 1, column 1: Expecting value"]
        assert not [r for r in caplog.records if "stage read" in r.getMessage()]

    @pytest.mark.parametrize("which", ["config", "models"])
    def test_json_not_utf8_names_the_file(self, sim_dir, tmp_path, caplog,
                                          which):
        tmp, cfgp = sim_dir
        bad = tmp_path / f"{which}.json"
        bad.write_bytes(b"\xff{}")
        args = (["--config", str(bad)] if which == "config"
                else ["--config", str(cfgp), "--models", str(bad)])
        caplog.set_level(logging.INFO, logger="tacloc")
        assert main(["localize", *args, "--out", str(tmp_path / "out")]) == 2
        errors = [r for r in caplog.records if r.levelno >= logging.ERROR]
        assert len(errors) == 1
        assert errors[0].getMessage().startswith(f"{bad}: ")
        assert errors[0].exc_info is None

    @pytest.mark.parametrize("fmt, suffix, damage", [
        ("csv", "csv", lambda raw: raw + b"2000,\xff,240,1\n"),
        ("bin", "evt", lambda raw: raw + bytes(5)),
    ], ids=["csv-not-utf8", "bin-ragged-body"])
    def test_damaged_event_file_names_the_file(self, sim_dir, tmp_path,
                                               caplog, fmt, suffix, damage):
        tmp, _ = sim_dir
        for cam in (1, 2):
            write_events(read_events(tmp / f"cam{cam}.evt", cam),
                         tmp_path / f"cam{cam}.{suffix}", fmt)
        p1 = tmp_path / f"cam1.{suffix}"
        p1.write_bytes(damage(p1.read_bytes()))
        cfgp = base_config(tmp_path, files={"cam1": p1.name,
                                            "cam2": f"cam2.{suffix}",
                                            "format": fmt})
        caplog.set_level(logging.INFO, logger="tacloc")
        assert main(["localize", "--config", str(cfgp),
                     "--out", str(tmp_path / "out")]) == 2
        errors = [r for r in caplog.records if r.levelno >= logging.ERROR]
        assert len(errors) == 1
        assert errors[0].getMessage().startswith(f"{p1}: ")
        assert errors[0].exc_info is None

    def test_out_of_range_csv_value_exit_2(self, tmp_path, caplog):
        cfgp = base_config(tmp_path, files={"cam1": "cam1.csv",
                                            "cam2": "cam2.csv",
                                            "format": "csv"})
        (tmp_path / "cam1.csv").write_text(
            "t_us,u,v,polarity\n1000,320,240,1\n2000,40000,240,1\n")
        (tmp_path / "cam2.csv").write_text("t_us,u,v,polarity\n1000,1,2,1\n")
        caplog.set_level(logging.INFO, logger="tacloc")
        assert main(["localize", "--config", str(cfgp),
                     "--out", str(tmp_path / "out")]) == 2
        errors = [r for r in caplog.records if r.levelno >= logging.ERROR]
        assert [r.getMessage() for r in errors] == [
            f"{tmp_path / 'cam1.csv'}: column u value 40000 outside [0, 639]"]
        assert errors[0].exc_info is None

    def test_out_of_range_binary_value_exit_2(self, sim_dir, tmp_path, caplog):
        tmp, cfgp = sim_dir
        raw = bytearray((tmp / "cam1.evt").read_bytes())
        u5 = 16 + 16 * 5 + 8  # u of record 5, after the header and its t_us
        raw[u5:u5 + 2] = (40000).to_bytes(2, "little")
        (tmp_path / "cam1.evt").write_bytes(bytes(raw))
        (tmp_path / "cam2.evt").write_bytes((tmp / "cam2.evt").read_bytes())
        bad = tmp_path / "run.json"
        bad.write_text(cfgp.read_text())
        caplog.set_level(logging.INFO, logger="tacloc")
        assert main(["localize", "--config", str(bad),
                     "--out", str(tmp_path / "out")]) == 2
        errors = [r for r in caplog.records if r.levelno >= logging.ERROR]
        assert [r.getMessage() for r in errors] == [
            f"{tmp_path / 'cam1.evt'}: column u value 40000 outside [0, 639]"]
        assert errors[0].exc_info is None

    def test_side_160_skin_localizes(self, tmp_path):
        # the default corner cameras of a 160 mm skin lie in its camera box
        cfgp = base_config(
            tmp_path, layout={"side_mm": 160.0, "grid_cols": 4,
                              "grid_rows": 3, "repetitions": 1,
                              "grid_origin_mm": [70.0, 70.0]},
            schedule={"onset0_s": 5.0, "period_s": 1.5, "repetitions": 1})
        assert main(["simulate", "--config", str(cfgp),
                     "--out", str(tmp_path)]) == 0
        out = tmp_path / "loc"
        assert main(["localize", "--config", str(cfgp), "--out", str(out)]) == 0
        rep = json.loads((out / "evaluation.json").read_text())
        assert rep["n_valid"] == rep["n_presses"] == 12
        assert rep["rmse_mm"] < 1.0

    def test_determinism_and_threads(self, sim_dir, tmp_path):
        tmp, cfgp = sim_dir
        outs = []
        for name, threads in (("a", "1"), ("b", "1"), ("c", "3")):
            out = tmp_path / name
            assert main(["localize", "--config", str(cfgp), "--out", str(out),
                         "--threads", threads]) == 0
            outs.append((digest(out / "localization.csv"),
                         digest(out / "evaluation.json")))
        assert outs[0] == outs[1] == outs[2]


class TestCalibrate:
    def test_calibration_run(self, sim_dir, tmp_path):
        tmp, cfgp = sim_dir
        doc = json.loads(cfgp.read_text())
        doc["cameras"] = [
            {"x_mm": 2.0, "y_mm": -1.0, "orientation_rad": 0.7853981633974483,
             "skew_rad": 0.02, "focal_px": 320.0, "u_center": 319.5, "k1": 0.0},
            {"x_mm": 99.0, "y_mm": 1.0, "orientation_rad": 2.356194490192345,
             "skew_rad": -0.02, "focal_px": 320.0, "u_center": 319.5, "k1": 0.0},
        ]
        cfg2 = tmp / "cal.json"  # next to the simulated event files
        cfg2.write_text(json.dumps(doc))
        out = tmp_path / "cal"
        assert main(["calibrate", "--config", str(cfg2), "--out", str(out)]) == 0
        fit = json.loads((out / "calibrated_models.json").read_text())
        assert fit["fit"]["rmse_mm"] < fit["fit"]["initial_rmse_mm"]
        assert len(fit["cameras"]) == 2

        # calibrated models feed back into localize
        out2 = tmp_path / "loc_cal"
        assert main(["localize", "--config", str(cfg2), "--out", str(out2),
                     "--models", str(out / "calibrated_models.json")]) == 0
        rep = json.loads((out2 / "evaluation.json").read_text())
        assert rep["rmse_mm"] < 0.5


class TestAblate:
    def test_sweep_outputs(self, sim_dir, tmp_path):
        tmp, cfgp = sim_dir
        out = tmp_path / "abl"
        assert main(["ablate", "--config", str(cfgp), "--out", str(out),
                     "--factors", "1,4", "--seeds", "0,1"]) == 0
        rows = (out / "ablation.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 4
        assert (out / "ablation.csv").read_bytes().startswith(
            b"k,seed,rmse_mm,pass_rate_percent,mean_cluster_size,n_valid\r\n")
        curve = json.loads((out / "ablation_curve.json").read_text())
        assert [c["k"] for c in curve["curve"]] == [1, 4]

    def test_segments_once_and_k1_cells_are_the_unthinned_run(
            self, sim_dir, tmp_path, monkeypatch):
        tmp, cfgp = sim_dir
        segmented, sweeps = [], []
        segment, run_sweep = pipeline.segment_by_schedule, ablate.run_sweep

        def counted(*args, **kwargs):
            segmented.append(args)
            return segment(*args, **kwargs)

        def kept(*args):
            sweeps.append(run_sweep(*args))
            return sweeps[-1]

        monkeypatch.setattr(pipeline, "segment_by_schedule", counted)
        monkeypatch.setattr(ablate, "run_sweep", kept)
        assert main(["ablate", "--config", str(cfgp), "--out",
                     str(tmp_path / "abl"), "--factors", "1,4",
                     "--seeds", "0,1"]) == 0
        assert len(segmented) == 1
        cfg = load_config(cfgp)
        report, _, _ = pipeline.run_localization(cli._prepare(cfg), cfg)
        k1 = [c.report for c in sweeps[0].cells if c.k == 1]
        assert len(k1) == 2
        for got in k1:
            assert json.dumps(got.to_json_dict()) \
                == json.dumps(report.to_json_dict())

    # a repeated factor would run its cells twice and write two equal
    # curve rows; a repeated seed would give a spread of 0 from one cell
    @pytest.mark.parametrize("flag, value", [("--factors", "1,-4"),
                                             ("--factors", "4,x"),
                                             ("--seeds", "0,x"),
                                             ("--factors", "1,4,4"),
                                             ("--seeds", "0,0")])
    def test_bad_list_exit_2_before_config(self, tmp_path, capsys, flag,
                                           value):
        # the config does not exist: a run that loaded it would return 2
        with pytest.raises(SystemExit) as stop:
            main(["ablate", "--config", str(tmp_path / "absent.json"),
                  "--out", str(tmp_path / "out"), flag, value])
        assert stop.value.code == 2
        assert (f"error: argument {flag}: expected comma-separated integers"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_rerun_identical(self, sim_dir, tmp_path):
        tmp, cfgp = sim_dir
        twice = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert main(["ablate", "--config", str(cfgp), "--out", str(out),
                         "--factors", "1,8", "--seeds", "0", "--threads",
                         "2" if name == "r2" else "1"]) == 0
            twice.append(digest(out / "ablation.csv"))
        assert twice[0] == twice[1]


class TestLatencyCmd:
    def test_fixed_threshold(self, sim_dir, tmp_path):
        tmp, cfgp = sim_dir
        out = tmp_path / "lat"
        assert main(["latency", "--config", str(cfgp), "--out", str(out),
                     "--h", "4.0"]) == 0
        rep = json.loads((out / "latency.json").read_text())
        assert rep["n_trials"] == 24
        assert rep["tpr"] > 0.9
        assert (out / "onsets.csv").read_bytes().startswith(
            b"trial,onset_rel_median_s\r\n")
        # a fixed h runs no tuning grid: the ROC is the header alone
        assert (out / "roc.csv").read_bytes() == b"h,tpr,false_alarms_per_s\r\n"

    @pytest.mark.parametrize("flags, message", [
        *[(["--h", value], "argument --h: expected a finite positive number, "
           f"got '{value}'") for value in ("-1", "0", "nan", "inf", "x")],
        (["--h", "4", "--tune"], "argument --tune: not allowed with argument --h"),
    ], ids=["h-negative", "h-zero", "h-nan", "h-inf", "h-text", "h-and-tune"])
    def test_bad_threshold_exit_2_before_config(self, tmp_path, capsys, flags,
                                                message):
        # the config does not exist: a run that loaded it would return 2
        with pytest.raises(SystemExit) as stop:
            main(["latency", "--config", str(tmp_path / "absent.json"),
                  "--out", str(tmp_path / "out"), *flags])
        assert stop.value.code == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_no_onset_exit_4(self, sim_dir, tmp_path, caplog):
        tmp, cfgp = sim_dir
        caplog.set_level(logging.INFO, logger="tacloc")
        assert main(["latency", "--config", str(cfgp),
                     "--out", str(tmp_path / "lat"), "--h", "1e9"]) == 4
        errors = [r for r in caplog.records if r.levelno >= logging.ERROR]
        assert len(errors) == 1
        assert errors[0].getMessage().startswith("no valid presses: ")
        assert errors[0].exc_info is None

    def test_tuned_threshold_emits_roc(self, sim_dir, tmp_path):
        tmp, cfgp = sim_dir
        out = tmp_path / "lat_tuned"
        assert main(["latency", "--config", str(cfgp), "--out", str(out),
                     "--tune"]) == 0
        roc = (out / "roc.csv").read_text().strip().splitlines()
        assert len(roc) > 10
        rep = json.loads((out / "latency.json").read_text())
        assert rep["tpr"] >= 0.95

    def test_tuned_h_at_grid_edge_warns(self, sim_dir, tmp_path, caplog):
        tmp, cfgp = sim_dir
        out = tmp_path / "lat_edge"
        caplog.set_level(logging.INFO, logger="tacloc")
        assert main(["latency", "--config", str(cfgp), "--out", str(out),
                     "--tune"]) == 0
        rep = json.loads((out / "latency.json").read_text())
        last_h = float((out / "roc.csv").read_text().strip().splitlines()[-1]
                       .split(",")[0])
        assert rep["h_used"] == last_h
        warnings = [r.getMessage() for r in caplog.records
                    if r.levelno == logging.WARNING]
        assert len(warnings) == 1 and "largest value of the tuning grid" in warnings[0]

    def test_tuned_h_inside_grid_does_not_warn(self, sim_dir, tmp_path,
                                               caplog, monkeypatch):
        # a grid point far past any detectable burst keeps the pick interior
        tune = latency.tune_threshold
        grid = np.append(np.geomspace(0.1, 1000.0, 60), 1e9)
        monkeypatch.setattr(latency, "tune_threshold",
                            lambda *a, **kw: tune(*a, h_grid=grid, **kw))
        tmp, cfgp = sim_dir
        out = tmp_path / "lat_inside"
        caplog.set_level(logging.INFO, logger="tacloc")
        assert main(["latency", "--config", str(cfgp), "--out", str(out),
                     "--tune"]) == 0
        assert json.loads((out / "latency.json").read_text())["h_used"] < 1e9
        assert not [r for r in caplog.records if r.levelno == logging.WARNING]


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-1000, 1000)
    | st.floats(-1000, 1000) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6)
FUZZ_BASES = (base_doc(), base_doc(schedule=EXPLICIT_SCHEDULE))


def key_paths(value, prefix=()):
    """The path of every value inside ``value``, through objects and lists."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for k, v in items:
        yield prefix + (k,)
        yield from key_paths(v, prefix + (k,))


def at(doc, path):
    for k in path:
        doc = doc[k]
    return doc


# key names of every config section, so that an added key is often one
# that some section reads
CONFIG_KEYS = sorted(
    {p[-1] for b in FUZZ_BASES for p in key_paths(b) if isinstance(p[-1], str)}
    | {f.name for cls in (SyncSpec, CusumParams, FreeParams, CameraModel,
                          SynthSpec, SensorLayout, PressSchedule)
       for f in fields(cls)}
    | {"grid_points_mm", "eps_px", "min_samples", "min_cluster_points",
       "sync", "cameras", "roi", "baseline_s", "cluster", "calibration",
       "free", "exclude_presses", "latency"})


@st.composite
def edited_configs(draw):
    """A base config with one edit: a value at any key path replaced by an
    arbitrary JSON value, or one key added to any object. Numbers stay
    within +-1000, so that no edit asks for millions of presses."""
    doc = copy.deepcopy(draw(st.sampled_from(FUZZ_BASES)))
    if draw(st.booleans()):
        path = draw(st.sampled_from(list(key_paths(doc))))
        at(doc, path[:-1])[path[-1]] = draw(JSON_VALUES)
    else:
        objects = [p for p in key_paths(doc) if isinstance(at(doc, p), dict)]
        path = draw(st.sampled_from([()] + objects))
        key = draw(st.sampled_from(CONFIG_KEYS) | st.text(max_size=3))
        at(doc, path)[key] = draw(JSON_VALUES)
    return doc


@settings(max_examples=300, deadline=None)
@given(edited_configs())
@example(base_doc(synth=5))
@example(base_doc(schedule=dict(EXPLICIT_SCHEDULE,
                                ground_truth_mm=[50.0, 54.0])))
def test_config_fails_at_load_or_runs(doc):
    # a config is refused at load with an error that exits 2, or its
    # synthetic recording spec builds and its schedule cuts streams
    try:
        cfg = config_from_dict(doc)
    except (IngestError, ValueError):
        return
    spec = spec_from_config(cfg.layout, cfg.schedule, cfg.sync,
                            cfg.camera_models, cfg.roi, cfg.seed, cfg.synth)
    empty = [EventStream(cam, [], [], [], []) for cam in (1, 2)]
    segment_by_schedule(*empty, spec.schedule, baseline_s=cfg.baseline_s)


def run_python(code, *args) -> str:
    """Stripped stdout of ``code`` run in a fresh interpreter that imports
    this checkout's tacloc."""
    src = str(Path(tacloc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          check=True, capture_output=True, text=True).stdout.strip()


def test_cli_import_leaves_out_scipy_ndimage():
    # commands that never cluster do not pay for importing scipy.ndimage
    code = "import sys, tacloc.cli; print('scipy.ndimage' in sys.modules)"
    assert run_python(code) == "False"


def test_clustering_commands_leave_out_scipy(sim_dir, tmp_path):
    # every command that clusters runs without scipy
    tmp, cfgp = sim_dir
    code = ("import sys\n"
            "from tacloc.cli import main\n"
            "cfg, out = sys.argv[1:]\n"
            "for cmd in ('localize', 'calibrate'):\n"
            "    assert main([cmd, '--config', cfg, '--out', out + cmd]) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert run_python(code, str(cfgp), str(tmp_path / "o")) == "[]"


def test_no_module_imports_scipy():
    for path in sorted(Path(tacloc.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not [n for n in names if n.split(".")[0] == "scipy"], path.name


def test_no_module_has_unused_imports():
    # a module-level import that its module never names is left over from
    # a deletion; the package's __init__ imports only to re-export
    for path in sorted(Path(tacloc.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        for node in tree.body:
            if isinstance(node, ast.Import):
                imported |= {a.asname or a.name.split(".")[0]
                             for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {a.asname or a.name for a in node.names}
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        assert sorted(imported - used) == [], path.name


def test_analysis_commands_never_build_a_whole_time_column(sim_dir, tmp_path,
                                                           monkeypatch):
    # a stream holds its times as uint32 low words and a high-word rule;
    # every analysis flow reads them through times_us, times_s,
    # extent_s and slice_time_s, never through the int64 column of .t
    tmp, cfgp = sim_dir
    doc = json.loads(cfgp.read_text())
    doc["cameras"] = [CAMERA, dict(CAMERA, x_mm=100.0,
                                   orientation_rad=2.356194490192345)]
    cal = tmp / "guard.json"  # next to the simulated event files
    cal.write_text(json.dumps(doc))

    def whole_column(stream):
        raise AssertionError("an analysis flow built EventStream.t")

    monkeypatch.setattr(EventStream, "t", property(whole_column))
    for argv in (["localize", "--config", str(cfgp)],
                 ["calibrate", "--config", str(cal)],
                 ["ablate", "--config", str(cfgp), "--factors", "1,4",
                  "--seeds", "0"],
                 ["latency", "--config", str(cfgp), "--tune"]):
        assert main([*argv, "--out", str(tmp_path / argv[0])]) == 0, argv[0]
