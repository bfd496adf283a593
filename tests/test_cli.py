from __future__ import annotations

import ast
import hashlib
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tacloc
from tacloc import latency
from tacloc.cli import main


def base_config(tmp_path: Path, **extra) -> Path:
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
    p = tmp_path / "run.json"
    p.write_text(json.dumps(doc, indent=1))
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


def explicit_schedule_without(key):
    def edit(doc):
        doc["schedule"] = {"onsets_s": [5.0, 6.5],
                           "ground_truth_mm": [[50.0, 50.0], [54.0, 50.0]],
                           "press_index": [0, 1], "repetition": [0, 0]}
        del doc["schedule"][key]
    return edit


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
    *[pytest.param(explicit_schedule_without(key), None,
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
        rep = json.loads((out / "evaluation.json").read_text())
        assert rep["n_presses"] == 24
        assert rep["rmse_mm"] < 1.0
        assert rep["schema_version"] == 1

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
        assert not [r for r in caplog.records if "stage read" in r.getMessage()]

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
        curve = json.loads((out / "ablation_curve.json").read_text())
        assert [c["k"] for c in curve["curve"]] == [1, 4]

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
        assert (out / "onsets.csv").exists()
        assert (out / "roc.csv").exists()

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
