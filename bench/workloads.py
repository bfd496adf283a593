"""Benchmark workloads: input recordings, command sequences, oracle checks.

Every recording is generated by ``tacloc.synth`` from the benchmark seed
with the true (default) camera models. A config's ``cameras`` entry is
the program's starting guess, never the generator's. The program gets
the event files and ``run.json``; the oracle checks below read only the
reports it writes, plus the synthetic truth.

Press grids are subsets of the 25 x 10, 4 mm criterion grid, so every
workload keeps the criterion's geometry and only the press count (the
run length) shrinks.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from tacloc import ingest, synth
from tacloc.events import meander_grid
from tacloc.geometry import default_models, project_points, triangulate_many


def grid_subset(col_step: int, row_step: int) -> list[list[float]]:
    """Every col_step-th column and row_step-th row of the criterion grid,
    in its meander press order."""
    pts = meander_grid()
    col = np.rint((pts[:, 0] - 2.0) / 4.0).astype(int)
    row = np.rint((pts[:, 1] - 32.0) / 4.0).astype(int)
    return pts[(col % col_step == 0) & (row % row_step == 0)].tolist()


def perturbed_cameras() -> list[dict]:
    """Starting models 3 mm, 2 degrees and 0.02 k1 off the truth, in
    opposite directions for the two cameras (criterion 4)."""
    out = []
    for m, s in zip(default_models(100.0), (1.0, -1.0)):
        out.append(replace(m, x_mm=m.x_mm + s * 3.0, y_mm=m.y_mm - s * 3.0,
                           skew_rad=m.skew_rad + s * math.radians(2.0),
                           k1=m.k1 + s * 0.02).to_dict())
    return out


@dataclass(frozen=True)
class Outputs:
    """What an oracle check sees of one command sequence."""

    seed: int
    config: dict
    out_dirs: list[Path]

    def json(self, i: int, name: str) -> dict:
        return json.loads((self.out_dirs[i] / name).read_text(encoding="utf-8"))

    def csv(self, i: int, name: str) -> list[dict]:
        with open(self.out_dirs[i] / name, encoding="utf-8", newline="") as fh:
            return list(csv.DictReader(fh))

    @property
    def n_scheduled(self) -> int:
        return (len(self.config["layout"]["grid_points_mm"])
                * int(self.config["schedule"]["repetitions"]))


@dataclass
class Verdict:
    problems: list[str] = field(default_factory=list)
    quality: dict = field(default_factory=dict)

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


@dataclass(frozen=True)
class Workload:
    name: str
    file_format: str
    config: dict
    # argument lists; "{out0}" is the first command's output directory
    commands: tuple[tuple[str, ...], ...]
    check: Callable[[Outputs], Verdict]


def _rmse(d: np.ndarray) -> float:
    return math.sqrt(float(np.mean((d ** 2).sum(axis=1))))


def noise_floor_mm(points, events_per_press: float, sigma_px: float,
                   seed: int) -> float:
    """Monte-Carlo localization floor from centroid standard error alone
    (acceptance criterion 3): 10^4 sampled presses over the grid."""
    pts = np.asarray(points, dtype=np.float64)
    m1, m2 = default_models(100.0)
    u1, _ = project_points(m1, pts)
    u2, _ = project_points(m2, pts)
    rng = np.random.default_rng(seed)
    idx = np.tile(np.arange(len(pts)), math.ceil(1e4 / len(pts)))
    n_ev = rng.poisson(events_per_press, len(idx)).clip(min=1)
    se = np.sqrt((sigma_px ** 2 + 1.0 / 12.0) / n_ev)
    est, _, ok = triangulate_many(m1, u1[idx] + rng.normal(0, se),
                                  m2, u2[idx] + rng.normal(0, se))
    return _rmse(est[ok] - pts[idx][ok])


def check_dense(out: Outputs) -> Verdict:
    v = Verdict()
    ev = out.json(0, "evaluation.json")
    syn = out.config["synth"]
    floor = noise_floor_mm(out.config["layout"]["grid_points_mm"],
                           syn["burst_events_per_press_per_camera"],
                           syn["sigma_u_px"], out.seed)
    v.quality = {"rmse_mm": ev["rmse_mm"],
                 "valid_frac": ev["n_valid"] / out.n_scheduled,
                 "noise_floor_mm": floor}
    v.require(ev["n_presses"] == out.n_scheduled,
              f"{ev['n_presses']} presses reported, {out.n_scheduled} scheduled")
    v.require(ev["n_valid"] == out.n_scheduled,
              f"only {ev['n_valid']} of {out.n_scheduled} presses valid")
    v.require(ev["rmse_mm"] < 1.25 * floor,
              f"rmse {ev['rmse_mm']:.5f} mm not under 1.25 x floor {floor:.5f} mm")
    return v


def check_calibrate(out: Outputs) -> Verdict:
    v = Verdict()
    fit = out.json(0, "calibrated_models.json")["fit"]
    rows = [r for r in out.csv(1, "localization.csv") if int(r["repetition"]) > 0]
    good = [r for r in rows if r["valid"] == "1"]
    n_eval = out.n_scheduled - len(out.config["layout"]["grid_points_mm"])
    v.require(fit["converged"], "calibration did not converge")
    v.require(len(rows) == n_eval,
              f"{len(rows)} evaluation rows, {n_eval} scheduled")
    v.require(len(good) > 0, "no valid evaluation press")
    if not good:
        v.quality = {"rmse_mm": math.nan, "valid_frac": 0.0}
        return v
    def col(name: str) -> np.ndarray:
        return np.array([float(r[name]) for r in good])

    gt = np.column_stack([col("gt_x_mm"), col("gt_y_mm")])
    fitted = _rmse(np.column_stack([col("est_x_mm"), col("est_y_mm")]) - gt)
    m1, m2 = default_models(100.0)
    est, _, ok = triangulate_many(m1, col("centroid_u1"), m2, col("centroid_u2"))
    true = _rmse(est[ok] - gt[ok])
    v.quality = {"rmse_mm": fitted, "valid_frac": len(good) / len(rows),
                 "true_model_rmse_mm": true,
                 "calibration_iterations": fit["iterations"]}
    v.require(fitted < 1.5 * true,
              f"fitted-model rmse {fitted:.5f} mm not under 1.5 x "
              f"true-model rmse {true:.5f} mm")
    return v


def check_latency(out: Outputs) -> Verdict:
    v = Verdict()
    lat = out.json(0, "latency.json")
    v.quality = {"latency_width_ms": lat["latency_width_ms"], "tpr": lat["tpr"],
                 "h_used": lat["h_used"]}
    v.require(lat["n_trials"] == out.n_scheduled,
              f"{lat['n_trials']} trials, {out.n_scheduled} scheduled")
    v.require(lat["tpr"] >= 0.95, f"tpr {lat['tpr']:.3f} below 0.95")
    return v


def check_sweep(out: Outputs) -> Verdict:
    v = Verdict()
    curve = {row["k"]: row for row in out.json(0, "ablation_curve.json")["curve"]}
    k_max = max(curve)
    base = curve[min(curve)]["pass_rate_mean"]
    n_valid = [int(r["n_valid"]) for r in out.csv(0, "ablation.csv")
               if int(r["k"]) == k_max]
    v.quality = {"rmse_mm": curve[k_max]["rmse_mean_mm"],
                 "valid_frac": float(np.mean(n_valid)) / out.n_scheduled,
                 "pass_rate_at_max_k": curve[k_max]["pass_rate_mean"]}
    for k, row in curve.items():
        v.require(row["pass_rate_mean"]
                  <= base + 2 * max(row["pass_rate_sd"], 1e-9),
                  f"pass rate rises at k={k}: {row['pass_rate_mean']:.2f}% "
                  f"vs {base:.2f}% at the smallest k")
    v.require(curve[k_max]["pass_rate_mean"] >= 80.0,
              f"pass rate {curve[k_max]['pass_rate_mean']:.1f}% at k={k_max} "
              "below 80%")
    return v


def _config(points, repetitions: int, synth_options: dict, **extra) -> dict:
    # a 1.5 s press period stays outside the 1.0 +- 0.25 s tap spacing, so
    # press bursts can never pass for sync taps
    return {"layout": {"grid_points_mm": points, "grid_spacing_mm": 4.0,
                       "repetitions": repetitions},
            "schedule": {"onset0_s": 5.0, "period_s": 1.5,
                         "repetitions": repetitions},
            "synth": synth_options, **extra}


def make_workloads(tiny: bool = False) -> dict[str, Workload]:
    """The benchmark workloads; ``tiny`` shrinks each for the smoke mode."""
    dense = {"burst_events_per_press_per_camera": 2000 if tiny else 15000,
             "sigma_u_px": 3.0, "background_rate_per_camera": 2000}
    sparse = {"burst_events_per_press_per_camera": 2000, "sigma_u_px": 3.0,
              "background_rate_per_camera": 200}
    burst = {"burst_events_per_press_per_camera": 28000, "sigma_u_px": 0.0,
             "burst_u_quantize": "round", "burst_v_halfwidth_px": 5.0,
             "press_offset_sigma_px": 0.72, "secondary_blob_frac": 0.315,
             "secondary_blob_offset_px": 11.5, "background_rate_per_camera": 0}
    wls = [
        Workload("dense-localize",
                 "bin", _config(grid_subset(*((6, 5) if tiny else (2, 2))),
                                1, dense),
                 (("localize",),), check_dense),
        Workload("sparse-calibrate",
                 "bin", _config(grid_subset(*((6, 2) if tiny else (3, 2))),
                                2, sparse, cameras=perturbed_cameras()),
                 (("calibrate",),
                  ("localize", "--models", "{out0}/calibrated_models.json")),
                 check_calibrate),
        Workload("latency-csv",
                 "csv", _config(grid_subset(5, 3), 1, dense),
                 (("latency", "--tune"),), check_latency),
        Workload("thin-sweep",
                 "bin", _config(grid_subset(*((6, 5) if tiny else (3, 2))),
                                1, burst),
                 (("ablate", "--factors", "1,4,64,1024", "--seeds", "0,1"),),
                 check_sweep),
    ]
    return {w.name: w for w in wls}


def write_inputs(wl: Workload, seed: int, dest: Path) -> int:
    """Generate the seed's recording into dest; returns the raw event count."""
    suffix = "evt" if wl.file_format == "bin" else "csv"
    doc = dict(wl.config, seed=seed,
               files={"cam1": f"cam1.{suffix}", "cam2": f"cam2.{suffix}",
                      "format": wl.file_format})
    dest.mkdir(parents=True, exist_ok=True)
    (dest / "run.json").write_text(json.dumps(doc, indent=1), encoding="utf-8")
    truth = ingest.config_from_dict({k: v for k, v in doc.items()
                                     if k != "cameras"})
    spec = synth.spec_from_config(truth.layout, truth.schedule, truth.sync,
                                  truth.camera_models, truth.roi, truth.seed,
                                  truth.synth)
    s1, s2, _ = synth.generate(spec)
    ingest.write_events(s1, dest / f"cam1.{suffix}", wl.file_format)
    ingest.write_events(s2, dest / f"cam2.{suffix}", wl.file_format)
    return len(s1) + len(s2)
