"""Command-line entry point for reproducible batch runs.

Subcommands: simulate | localize | calibrate | ablate | latency.
Exit codes: 0 ok, 2 config/input error, 3 sync failure, 4 no valid
presses, 5 calibration failure, 1 anything else.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import sys
import time
from contextlib import contextmanager
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import ablate as ablate_mod
from . import latency as latency_mod
from . import pipeline, synth
from .geometry import CalibrationError
from .ingest import (IngestError, RunConfig, SyncError, load_config,
                     load_models, read_events, write_events)
from .metrics import UndefinedMetricError

log = logging.getLogger("tacloc")

EXIT_OK = 0
EXIT_OTHER = 1
EXIT_CONFIG = 2
EXIT_SYNC = 3
EXIT_NO_PRESSES = 4
EXIT_CALIBRATION = 5


@contextmanager
def _stage(name: str):
    """Log the wall time of a command stage, also when the stage raises."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        log.info("stage %-12s %.3fs", name, time.perf_counter() - t0)


def _write_json(path: Path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _write_csv(path: Path, columns: dict[str, list]) -> None:
    """One CSV column per key, in key order; None is an empty cell."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        w = csv.writer(fh)
        w.writerow(columns)
        w.writerows(zip(*columns.values()))


def _prepare(cfg: RunConfig) -> pipeline.PreparedRun:
    """Read both camera files straight into the ROI, then align them."""
    if not cfg.cam1_path or not cfg.cam2_path:
        raise IngestError("config must point at both camera files")
    with _stage("read"):
        s1 = read_events(cfg.cam1_path, 1, cfg.file_format, cfg.roi)
        s2 = read_events(cfg.cam2_path, 2, cfg.file_format, cfg.roi)
    with _stage("align"):
        return pipeline.prepare_run(s1, s2, cfg)


def cmd_simulate(args, cfg: RunConfig, out_dir: Path) -> list[Path]:
    spec = synth.spec_from_config(cfg.layout, cfg.schedule, cfg.sync,
                                  cfg.camera_models, cfg.roi, cfg.seed,
                                  cfg.synth)
    log.info("simulating %d presses with seed %d", len(spec.schedule), spec.seed)
    with _stage("generate"):
        s1, s2, manifest = synth.generate(spec)
    fmt = cfg.file_format
    suffix = ".evt" if fmt == "bin" else ".csv"
    p1 = out_dir / f"cam1{suffix}"
    p2 = out_dir / f"cam2{suffix}"
    pm = out_dir / "truth_manifest.json"
    with _stage("write"):
        write_events(s1, p1, fmt)
        write_events(s2, p2, fmt)
        _write_json(pm, manifest.to_json_dict())
    return [p1, p2, pm]


def _result_columns(table: pipeline.TrialTable) -> dict[str, list]:
    def blank_nan(col):
        return [None if math.isnan(x) else x for x in col.tolist()]

    return {
        "press_index": table.press_index.tolist(),
        "repetition": table.repetition.tolist(),
        "gt_x_mm": table.gt_mm[:, 0].tolist(),
        "gt_y_mm": table.gt_mm[:, 1].tolist(),
        "est_x_mm": blank_nan(table.est_mm[:, 0]),
        "est_y_mm": blank_nan(table.est_mm[:, 1]),
        "centroid_u1": blank_nan(table.centroid_u[:, 0]),
        "centroid_u2": blank_nan(table.centroid_u[:, 1]),
        "cluster_size1": table.cluster_size[:, 0].tolist(),
        "cluster_size2": table.cluster_size[:, 1].tolist(),
        "valid": table.valid.astype(int).tolist(),
        "reason": list(table.reason),
    }


def cmd_localize(args, cfg: RunConfig, out_dir: Path) -> list[Path]:
    prepared = _prepare(cfg)
    log.info("tap onsets: %s", [round(t, 3) for t in prepared.tap_onsets_s])
    with _stage("localize"):
        report, table, _ = pipeline.run_localization(prepared, cfg)
    p_csv = out_dir / "localization.csv"
    p_json = out_dir / "evaluation.json"
    _write_csv(p_csv, _result_columns(table))
    _write_json(p_json, report.to_json_dict())
    log.info("rmse %.3f mm, pass rate %.1f%% (%d/%d valid)", report.rmse_mm,
             report.pass_rate_percent, report.n_valid, report.n_presses)
    return [p_csv, p_json]


def cmd_calibrate(args, cfg: RunConfig, out_dir: Path) -> list[Path]:
    prepared = _prepare(cfg)
    with _stage("calibrate"):
        fit, _ = pipeline.run_calibration(prepared, cfg)
    res = fit.residuals_mm
    finite = res[~np.isnan(res[:, 0])]
    norms = np.hypot(finite[:, 0], finite[:, 1]) if len(finite) else np.zeros(0)
    doc = {
        "schema_version": 1,
        "cameras": [m.to_dict() for m in fit.models],
        "fit": {
            "rmse_mm": fit.rmse_mm,
            "initial_rmse_mm": fit.initial_rmse_mm,
            "iterations": fit.iterations,
            "converged": fit.converged,
            "n_observations": int(len(res)),
            "n_degenerate": fit.n_degenerate,
            "residual_percentiles_mm": {
                "p50": float(np.percentile(norms, 50)) if len(norms) else None,
                "p90": float(np.percentile(norms, 90)) if len(norms) else None,
                "p95": float(np.percentile(norms, 95)) if len(norms) else None,
            },
        },
    }
    p = out_dir / "calibrated_models.json"
    _write_json(p, doc)
    log.info("calibration rmse %.4f mm (was %.4f) in %d iterations",
             fit.rmse_mm, fit.initial_rmse_mm, fit.iterations)
    return [p]


def cmd_ablate(args, cfg: RunConfig, out_dir: Path) -> list[Path]:
    prepared = _prepare(cfg)
    with _stage("sweep"):
        sweep = ablate_mod.run_sweep(prepared, cfg, args.factors, args.seeds)
    p_csv = out_dir / "ablation.csv"
    p_json = out_dir / "ablation_curve.json"
    _write_csv(p_csv, sweep.csv_columns())
    _write_json(p_json, {"schema_version": 1,
                         "reference_p95_mm": sweep.reference_p95_mm,
                         "curve": sweep.curve()})
    return [p_csv, p_json]


def cmd_latency(args, cfg: RunConfig, out_dir: Path) -> list[Path]:
    prepared = _prepare(cfg)
    trials = [t for t in pipeline.segment(prepared, cfg) if not t.missing]
    params = cfg.latency
    snippets = latency_mod.trial_background_snippets(trials)
    roc = []
    if args.h is None:
        with _stage("tune"):
            tuned = latency_mod.tune_threshold(trials, snippets, params)
        params = replace(params, h=tuned.h)
        roc = tuned.roc
        log.info("tuned h = %.4g (tpr %.1f%%)", tuned.h, 100 * tuned.tpr)
        if tuned.h >= max(r.h for r in roc):
            log.warning("tuned h = %.4g is the largest value of the tuning "
                        "grid; a larger h may also reach the TPR target",
                        tuned.h)
    else:
        params = replace(params, h=args.h)
    with _stage("report"):
        rep = latency_mod.latency_report(trials, params, snippets)
    p_json = out_dir / "latency.json"
    p_onsets = out_dir / "onsets.csv"
    p_roc = out_dir / "roc.csv"
    _write_json(p_json, rep.to_json_dict())
    onsets = rep.onsets_rel_median_s
    _write_csv(p_onsets, {"trial": list(range(len(onsets))),
                          "onset_rel_median_s": onsets})
    _write_csv(p_roc, {f.name: [getattr(r, f.name) for r in roc]
                       for f in fields(latency_mod.RocPoint)})
    log.info("latency width %.1f ms, tpr %.1f%%, fa %.3f/s",
             rep.latency_width_ms, 100 * rep.tpr, rep.false_alarm_rate_per_s)
    return [p_json, p_onsets, p_roc]


def _ints(minimum: int | None = None):
    """An argparse type: distinct comma-separated integers, none below
    ``minimum``."""
    def parse(text: str) -> list[int]:
        try:
            values = [int(x) for x in text.split(",")]
        except ValueError:
            values = None
        if values is None or minimum is not None and min(values) < minimum:
            least = "" if minimum is None else f" of at least {minimum}"
            raise argparse.ArgumentTypeError(
                f"expected comma-separated integers{least}, got {text!r}")
        if len(set(values)) < len(values):
            raise argparse.ArgumentTypeError(
                f"expected comma-separated integers without repeats, "
                f"got {text!r}")
        return values
    return parse


def _positive(text: str) -> float:
    """An argparse type: a finite positive number."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"expected a finite positive number, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="tacloc",
        description="Event-camera opto-tactile press localization pipeline")
    ap.add_argument("--log-level", default="info",
                    choices=["debug", "info", "warning", "error"])
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="run config JSON")
        p.add_argument("--out", required=True, help="output directory")
        # accepted and ignored: stage (a) is serial, but bench/run.py
        # still passes --threads on every command
        p.add_argument("--threads", type=int, default=1,
                       help=argparse.SUPPRESS)
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")

    p = sub.add_parser("simulate", help="generate a synthetic recording")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("localize", help="run the localization pipeline")
    common(p)
    p.add_argument("--models", help="calibrated models JSON to use")
    p.set_defaults(func=cmd_localize)

    p = sub.add_parser("calibrate", help="fit camera models on repetition 0")
    common(p)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("ablate", help="thinning sweep over reduction factors")
    common(p)
    p.add_argument("--models", help="calibrated models JSON to use")
    p.add_argument("--factors", type=_ints(minimum=1),
                   default="1,2,4,8,16,32,64,128,256,512,1024")
    p.add_argument("--seeds", type=_ints(), default="0,1,2,3,4")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("latency", help="CUSUM onset-latency analysis")
    common(p)
    threshold = p.add_mutually_exclusive_group()
    threshold.add_argument("--h", type=_positive, default=None,
                           help="fixed threshold")
    threshold.add_argument("--tune", action="store_true",
                           help="tune the threshold by ROC analysis "
                                "(the default without --h)")
    p.set_defaults(func=cmd_latency)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=getattr(logging, args.log_level.upper()),
        format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
        log.info("effective seed: %d", cfg.seed)
        if getattr(args, "models", None):
            cfg.camera_models = load_models(args.models, cfg.layout.side_mm)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        paths = args.func(args, cfg, out_dir)
    except SyncError as exc:
        log.error("sync failure: %s", exc)
        return EXIT_SYNC
    except (UndefinedMetricError, latency_mod.UndefinedReportError) as exc:
        log.error("no valid presses: %s", exc)
        return EXIT_NO_PRESSES
    except CalibrationError as exc:
        log.error("calibration failed: %s", exc)
        return EXIT_CALIBRATION
    except latency_mod.TuningError as exc:
        log.error("threshold tuning failed: %s", exc)
        return EXIT_OTHER
    except (IngestError, FileNotFoundError, IOError, ValueError) as exc:
        log.error("%s", exc)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        log.error("unexpected failure: %s", exc, exc_info=True)
        return EXIT_OTHER
    for p in paths:
        log.info("wrote %s", p)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
