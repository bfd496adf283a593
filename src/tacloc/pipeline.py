"""End-to-end wiring of the localization stages.

Stages: align (three-tap sync) -> ROI crop -> schedule segmentation ->
(a) per-trial DBSCAN centroids -> (b) two-ray triangulation ->
evaluation. Stage (a) does not depend on the camera models; its output
is a :class:`TrialTable` of per-trial columns, and stage (b) fills the
estimates with one vectorized triangulation over the whole table.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from .cluster import (ClusterResult, DbscanParams, WeightedPixels,
                      exclude_press, extract_centroids, weigh)
from .events import EventStream, crop_roi
from .geometry import CalibrationResult, calibrate, triangulate_many
from .ingest import RunConfig, align_streams
from .metrics import EvaluationReport, evaluate
from .segment import PressTrial, press_events, segment_by_schedule

CALIBRATION_REPETITION = 0  # the repetition calibration fits models on

_NO_CLUSTER = ClusterResult(0, float("nan"), False)


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
    """Aligned, ROI-cropped streams and camera 1's sync tap onsets; the
    schedule time anchor ``anchor_s`` is the first tap onset."""

    s1: EventStream
    s2: EventStream
    tap_onsets_s: tuple[float, ...]

    @property
    def anchor_s(self) -> float:
        return self.tap_onsets_s[0]


def prepare_run(s1: EventStream, s2: EventStream, cfg: RunConfig) -> PreparedRun:
    """Crop to the ROI, align camera 2 onto camera 1, find the tap anchor."""
    c1 = crop_roi(s1, cfg.roi[0], cfg.roi[1])
    c2 = crop_roi(s2, cfg.roi[0], cfg.roi[1])
    a1, a2, taps, _ = align_streams(c1, c2, cfg.sync)
    return PreparedRun(a1, a2, tuple(float(t) for t in taps))


def press_pixels(trials) -> list[Iterator[WeightedPixels]]:
    """Each camera's press events of every trial that is not missing, as
    weighted pixels in trial order: camera 1's iterator, then camera 2's.
    A set is compressed only when it is read, so clustering holds one
    chunk's sets at a time."""
    live = [t for t in trials if not t.missing]
    return [map(lambda ev: weigh(ev.u, ev.v),
                [press_events(t, cam) for t in live]) for cam in (1, 2)]


def cluster_pixels(pixels, params: DbscanParams):
    """Both cameras' :class:`ClusterResult` of each set pair in ``pixels``
    (see :func:`press_pixels`), in order; each camera's sets are
    clustered together."""
    return zip(*(extract_centroids(cam, params) for cam in pixels))


def _localize_rows(trials, clustered):
    """Stage (a) of each trial as ``(r1, r2, reason)``: a trial that is not
    missing takes the next pair of ``clustered`` (see
    :func:`cluster_pixels`)."""
    for trial in trials:
        if trial.missing:
            yield _NO_CLUSTER, _NO_CLUSTER, "missing"
        else:
            r1, r2 = next(clustered)
            yield r1, r2, exclude_press(r1, r2).reason


def localize_trial(trial: PressTrial, params: DbscanParams,
                   ) -> tuple[ClusterResult, ClusterResult, str]:
    """Stage (a): both cameras' dominant clusters and the exclusion reason."""
    return next(_localize_rows(
        [trial], cluster_pixels(press_pixels([trial]), params)))


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


def localize_pixels(trials, clustered, models) -> TrialTable:
    """Stage (a) of the trials, each trial that is not missing taking the
    next pair of ``clustered`` (see :func:`cluster_pixels`), then stage (b)
    on the whole table."""
    rows = [(r1.centroid_u, r2.centroid_u, r1.largest_cluster_size,
             r2.largest_cluster_size, reason)
            for r1, r2, reason in _localize_rows(trials, clustered)]
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


def localize_trials(trials, models, params: DbscanParams) -> TrialTable:
    """Run stage (a) on every trial, then stage (b) on the whole table."""
    return localize_pixels(
        trials, cluster_pixels(press_pixels(trials), params), models)


def probed_area_mm2(cfg: RunConfig) -> float:
    """Area of the probed grid region: bounding box padded by one spacing."""
    pts = cfg.layout.grid_points
    pad = cfg.layout.grid_spacing_mm
    return float((np.ptp(pts[:, 0]) + pad) * (np.ptp(pts[:, 1]) + pad))


def evaluate_results(table: TrialTable, cfg: RunConfig,
                     reference_p95_mm: float | None = None) -> EvaluationReport:
    return evaluate(table.est_mm, table.gt_mm, table.valid, table.press_index,
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
                     ) -> tuple[EvaluationReport, TrialTable, list[PressTrial]]:
    """Segment, localize with the config's cameras, and score one prepared
    recording."""
    trials = segment(prepared, cfg)
    table = localize_trials(trials, cfg.camera_models, cfg.cluster)
    report = evaluate_results(table, cfg)
    return report, table, trials


def calibration_observations(table: TrialTable, cfg: RunConfig):
    """(u1, u2, ground truth) from the valid, non-excluded trials of
    ``CALIBRATION_REPETITION``."""
    rows = (table.valid & (table.repetition == CALIBRATION_REPETITION)
            & ~np.isin(table.press_index, list(cfg.exclude_presses)))
    return table.centroid_u[rows, 0], table.centroid_u[rows, 1], table.gt_mm[rows]


def run_calibration(prepared: PreparedRun, cfg: RunConfig,
                    ) -> tuple[CalibrationResult, TrialTable]:
    """Fit camera parameters on ``CALIBRATION_REPETITION`` of a prepared
    recording."""
    rep0 = [t for t in segment(prepared, cfg)
            if t.repetition == CALIBRATION_REPETITION]
    table = localize_trials(rep0, cfg.camera_models, cfg.cluster)
    u1, u2, gt = calibration_observations(table, cfg)
    fit = calibrate(cfg.camera_models, u1, u2, gt, free=cfg.calibration_free,
                    side_mm=cfg.layout.side_mm)
    return fit, table
