"""Accuracy and coverage statistics for localization runs."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np


class UndefinedMetricError(ValueError):
    """The requested statistic is undefined for the given input."""


def rmse(estimates, ground_truths) -> tuple[float, float, float]:
    """(euclidean, x, y) root-mean-square error in mm.

    Only non-excluded presses should be passed in; the Euclidean value
    satisfies e^2 = x^2 + y^2 by construction.
    """
    est = np.asarray(estimates, dtype=np.float64)
    gt = np.asarray(ground_truths, dtype=np.float64)
    if est.shape != gt.shape or est.ndim != 2 or est.shape[1] != 2:
        raise ValueError("estimates and ground truths must both be (n, 2)")
    if len(est) == 0:
        raise UndefinedMetricError("rmse of zero presses")
    d = est - gt
    mx = float(np.mean(d[:, 0] ** 2))
    my = float(np.mean(d[:, 1] ** 2))
    return math.sqrt(mx + my), math.sqrt(mx), math.sqrt(my)


def pass_rate(errors_mm, reference_p95_mm: float, validity) -> float:
    """Percentage of presses that are valid and beat the reference error.

    A press passes when both cameras produced a valid cluster and its
    localization error is strictly below the reference 95th percentile
    (taken from the full-data error distribution).
    """
    err = np.asarray(errors_mm, dtype=np.float64)
    val = np.asarray(validity, dtype=bool)
    if err.shape != val.shape:
        raise ValueError("errors and validity must align")
    if len(err) == 0:
        return 0.0
    passes = val & (err < reference_p95_mm)
    return 100.0 * float(passes.sum()) / len(err)


def error_p95(errors_mm, validity) -> float:
    """Reference 95th percentile of the valid presses' errors."""
    err = np.asarray(errors_mm, dtype=np.float64)
    val = np.asarray(validity, dtype=bool)
    if not np.any(val):
        raise UndefinedMetricError("no valid presses for the reference percentile")
    return float(np.percentile(err[val], 95.0))


def effective_taxels(rmse_mm: float, area_mm2: float,
                     convention: str = "circle_area") -> int:
    """How many error-sized cells tile the given area.

    ``circle_area``: disks of radius rmse; ``square_tile``: squares of
    side 2*rmse.
    """
    if rmse_mm <= 0:
        raise ValueError("rmse_mm must be positive")
    if convention == "circle_area":
        return int(area_mm2 // (math.pi * rmse_mm * rmse_mm))
    if convention == "square_tile":
        return int(area_mm2 // ((2.0 * rmse_mm) ** 2))
    raise ValueError(f"unknown taxel convention: {convention}")


def repeatability(estimates, press_indices, validity=None) -> float:
    """Mean per-press 2D standard deviation across repetitions (mm).

    For each press index with at least two valid repetitions the spread
    is sqrt(var_x + var_y) with sample (n-1) variances; the mean over
    those presses is returned.
    """
    est = np.asarray(estimates, dtype=np.float64)
    idx = np.asarray(press_indices, dtype=np.int64)
    val = (np.ones(len(est), dtype=bool) if validity is None
           else np.asarray(validity, dtype=bool))
    sds = []
    for p in np.unique(idx):
        sel = (idx == p) & val
        if sel.sum() < 2:
            continue
        sds.append(math.sqrt(est[sel, 0].var(ddof=1) + est[sel, 1].var(ddof=1)))
    if not sds:
        raise UndefinedMetricError("no press has >= 2 valid repetitions")
    return float(np.mean(sds))


@dataclass(frozen=True)
class EvaluationReport:
    """Aggregated accuracy statistics of one localization run."""

    rmse_mm: float
    rmse_x_mm: float
    rmse_y_mm: float
    mean_trial_std_mm: float | None
    cmre_percent: float
    pass_rate_percent: float
    reference_p95_mm: float
    effective_taxels_probed: int
    effective_taxels_full: int
    taxels_by_convention: dict
    n_presses: int
    n_valid: int

    def to_json_dict(self) -> dict:
        return {"schema_version": 1, **asdict(self)}


def empty_report(n_presses: int, reference_p95_mm: float = float("nan")
                 ) -> EvaluationReport:
    """Report for a run in which every press was excluded."""
    nan = float("nan")
    taxels = {conv: {"full": 0, "probed": 0}
              for conv in ("circle_area", "square_tile")}
    return EvaluationReport(
        rmse_mm=nan, rmse_x_mm=nan, rmse_y_mm=nan, mean_trial_std_mm=None,
        cmre_percent=nan, pass_rate_percent=0.0,
        reference_p95_mm=reference_p95_mm,
        effective_taxels_probed=0, effective_taxels_full=0,
        taxels_by_convention=taxels, n_presses=n_presses, n_valid=0)


def evaluate(estimates, ground_truths, validity, press_indices,
             diagonal_mm: float, full_area_mm2: float, probed_area_mm2: float,
             reference_p95_mm: float | None = None) -> EvaluationReport:
    """Build the full report for one localization run.

    Invalid presses are excluded from the error statistics but count as
    failures in the pass rate. When no external reference percentile is
    supplied the run's own valid-error p95 is used (the full-data
    convention).
    """
    est = np.asarray(estimates, dtype=np.float64)
    gt = np.asarray(ground_truths, dtype=np.float64)
    val = np.asarray(validity, dtype=bool)
    pidx = np.asarray(press_indices, dtype=np.int64)
    n = len(est)
    if not np.any(val):
        raise UndefinedMetricError("all presses excluded")

    errors = np.full(n, np.nan)
    d = est - gt
    errors[val] = np.hypot(d[val, 0], d[val, 1])
    e_all, e_x, e_y = rmse(est[val], gt[val])
    if reference_p95_mm is None:
        reference_p95_mm = error_p95(np.where(val, errors, np.inf), val)
    rate = pass_rate(np.where(val, errors, np.inf), reference_p95_mm, val)
    try:
        rep_sd = repeatability(est, pidx, val)
    except UndefinedMetricError:
        rep_sd = None

    taxels = {
        conv: {
            "full": effective_taxels(e_all, full_area_mm2, conv),
            "probed": effective_taxels(e_all, probed_area_mm2, conv),
        }
        for conv in ("circle_area", "square_tile")
    }
    return EvaluationReport(
        rmse_mm=e_all, rmse_x_mm=e_x, rmse_y_mm=e_y,
        mean_trial_std_mm=rep_sd,
        cmre_percent=100.0 * e_all / diagonal_mm,
        pass_rate_percent=rate,
        reference_p95_mm=float(reference_p95_mm),
        effective_taxels_probed=taxels["circle_area"]["probed"],
        effective_taxels_full=taxels["circle_area"]["full"],
        taxels_by_convention=taxels,
        n_presses=n,
        n_valid=int(val.sum()),
    )
