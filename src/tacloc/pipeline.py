"""End-to-end wiring of the localization stages.

Stages: align (three-tap sync) -> ROI crop -> schedule segmentation ->
(a) per-trial DBSCAN centroids -> (b) two-ray triangulation ->
evaluation. Stage (a) does not depend on the camera models; its output
is a :class:`TrialTable` of per-trial columns, and stage (b) fills the
estimates with one vectorized triangulation over the whole table.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .cluster import (ClusterResult, DbscanParams, exclude_press,
                      extract_centroid)
from .events import EventStream, crop_roi
from .geometry import CalibrationResult, calibrate, triangulate_many
from .ingest import RunConfig, align_streams, detect_sync_taps
from .metrics import EvaluationReport, evaluate
from .segment import PressTrial, press_events, segment_by_schedule

_NO_CLUSTER = ClusterResult(np.zeros(0, dtype=np.int64), 0, float("nan"),
                            False)


@dataclass(frozen=True)
class TrialTable:
    """Localization outcome of every press trial, one row per trial.

    Camera columns hold camera 1 then camera 2. ``clustered`` marks rows
    where both cameras yield a dominant cluster; ``reason`` says why a
    row is not ``valid`` (empty when it is), and ``est_mm`` is nan there.
    """

    press_index: np.ndarray   # (n,) int64
    repetition: np.ndarray    # (n,) int64
    gt_mm: np.ndarray         # (n, 2)
    centroid_u: np.ndarray    # (n, 2), nan without a cluster
    cluster_size: np.ndarray  # (n, 2) int64, largest cluster
    clustered: np.ndarray     # (n,) bool
    est_mm: np.ndarray        # (n, 2)
    valid: np.ndarray         # (n,) bool
    reason: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.reason)


@dataclass(frozen=True)
class PreparedRun:
    """Aligned, ROI-cropped streams plus the schedule time anchor."""

    s1: EventStream
    s2: EventStream
    anchor_s: float
    tap_onsets_s: tuple[float, ...]


def prepare_run(s1: EventStream, s2: EventStream, cfg: RunConfig) -> PreparedRun:
    """Crop to the ROI, align camera 2 onto camera 1, find the tap anchor."""
    c1 = crop_roi(s1, cfg.roi[0], cfg.roi[1])
    c2 = crop_roi(s2, cfg.roi[0], cfg.roi[1])
    a1, a2 = align_streams(c1, c2, cfg.sync)
    taps = detect_sync_taps(a1, cfg.sync)
    return PreparedRun(a1, a2, float(taps[0]), tuple(float(t) for t in taps))


def cluster_params(cfg: RunConfig) -> DbscanParams:
    return DbscanParams(eps=cfg.cluster_eps_px,
                        min_samples=cfg.cluster_min_samples,
                        min_cluster_points=cfg.cluster_min_points)


def localize_trial(trial: PressTrial, params: DbscanParams,
                   ) -> tuple[ClusterResult, ClusterResult, str]:
    """Stage (a): both cameras' dominant clusters and the exclusion reason."""
    if trial.missing:
        return _NO_CLUSTER, _NO_CLUSTER, "missing"
    ev1 = press_events(trial, 1)
    ev2 = press_events(trial, 2)
    r1 = extract_centroid(ev1.u, ev1.v, params)
    r2 = extract_centroid(ev2.u, ev2.v, params)
    return r1, r2, exclude_press(r1, r2).reason


def triangulate_trials(table: TrialTable, models) -> TrialTable:
    """Stage (b): triangulate every clustered row with one batched call.

    Rows that are not clustered keep their reason; clustered rows whose
    rays are too close to parallel become invalid as degenerate.
    """
    rows = np.flatnonzero(table.clustered)
    est = np.full((len(table), 2), np.nan)
    valid = np.zeros(len(table), dtype=bool)
    est_rows, _, ok = triangulate_many(models[0], table.centroid_u[rows, 0],
                                       models[1], table.centroid_u[rows, 1])
    est[rows] = est_rows
    valid[rows] = ok
    reason = list(table.reason)
    for i, row_ok in zip(rows.tolist(), ok.tolist()):
        reason[i] = "" if row_ok else "degenerate triangulation"
    return replace(table, est_mm=est, valid=valid, reason=tuple(reason))


def localize_trials(trials, models, params: DbscanParams) -> TrialTable:
    """Run stage (a) on every trial, then stage (b) on the whole table."""
    rows = []
    for trial in trials:
        # keep only the columns, not each trial's per-event labels
        r1, r2, reason = localize_trial(trial, params)
        rows.append((r1.centroid_u, r2.centroid_u, r1.largest_cluster_size,
                     r2.largest_cluster_size, reason))
    n = len(rows)
    reason = tuple(r[4] for r in rows)
    table = TrialTable(
        press_index=np.array([t.press_index for t in trials], dtype=np.int64),
        repetition=np.array([t.repetition for t in trials], dtype=np.int64),
        gt_mm=np.array([t.ground_truth_mm for t in trials],
                       dtype=np.float64).reshape(n, 2),
        centroid_u=np.array([r[:2] for r in rows],
                            dtype=np.float64).reshape(n, 2),
        cluster_size=np.array([r[2:4] for r in rows],
                              dtype=np.int64).reshape(n, 2),
        clustered=np.array([not r for r in reason], dtype=bool),
        est_mm=np.full((n, 2), np.nan), valid=np.zeros(n, dtype=bool),
        reason=reason)
    return triangulate_trials(table, models)


def probed_area_mm2(cfg: RunConfig) -> float:
    """Area of the probed grid region: bounding box padded by one spacing."""
    pts = cfg.layout.grid_points
    pad = cfg.layout.grid_spacing_mm
    return float((np.ptp(pts[:, 0]) + pad) * (np.ptp(pts[:, 1]) + pad))


def evaluate_results(table: TrialTable, cfg: RunConfig,
                     reference_p95_mm: float | None = None) -> EvaluationReport:
    return evaluate(table.est_mm, table.gt_mm, table.valid,
                    table.press_index, table.repetition,
                    diagonal_mm=cfg.layout.diagonal_mm,
                    full_area_mm2=cfg.layout.area_mm2,
                    probed_area_mm2=probed_area_mm2(cfg),
                    reference_p95_mm=reference_p95_mm)


def segment(prepared: PreparedRun, cfg: RunConfig) -> list[PressTrial]:
    """The prepared recording cut into the config schedule's press trials."""
    return segment_by_schedule(prepared.s1, prepared.s2, cfg.schedule,
                               baseline_s=cfg.baseline_s,
                               anchor_s=prepared.anchor_s)


def run_localization(prepared: PreparedRun, cfg: RunConfig,
                     models=None, reference_p95_mm: float | None = None,
                     ) -> tuple[EvaluationReport, TrialTable, list[PressTrial]]:
    """Segment, localize, and score one prepared recording."""
    models = cfg.camera_models if models is None else models
    trials = segment(prepared, cfg)
    table = localize_trials(trials, models, cluster_params(cfg))
    report = evaluate_results(table, cfg, reference_p95_mm)
    return report, table, trials


def calibration_observations(table: TrialTable, cfg: RunConfig,
                             repetition: int = 0):
    """(u1, u2, ground truth) from one repetition's valid, non-excluded trials."""
    rows = (table.valid & (table.repetition == repetition)
            & ~np.isin(table.press_index, list(cfg.exclude_presses)))
    return table.centroid_u[rows, 0], table.centroid_u[rows, 1], table.gt_mm[rows]


def run_calibration(prepared: PreparedRun, cfg: RunConfig,
                    ) -> tuple[CalibrationResult, TrialTable]:
    """Fit camera parameters on repetition 0 of a prepared recording."""
    rep0 = [t for t in segment(prepared, cfg) if t.repetition == 0]
    table = localize_trials(rep0, cfg.camera_models, cluster_params(cfg))
    u1, u2, gt = calibration_observations(table, cfg, repetition=0)
    fit = calibrate(cfg.camera_models, u1, u2, gt, free=cfg.calibration_free,
                    side_mm=cfg.layout.side_mm)
    return fit, table
