"""Stochastic event thinning and the pass-rate-vs-reduction sweep.

Thinning decisions come from a stateless per-event hash of
(seed, camera id, event ordinal), not a sequential RNG, so a thinned
stream is reproducible, order-independent, and unchanged by prior
cropping (ordinals refer to positions in the originally constructed
stream).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .events import EventStream
from .ingest import RunConfig
from .metrics import EvaluationReport, UndefinedMetricError, empty_report
from .pipeline import (PreparedRun, TrialTable, cluster_params,
                       evaluate_results, localize_trials, segment)

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64 = np.uint64(0xFFFFFFFFFFFFFFFF)


def _splitmix64(z: np.ndarray) -> np.ndarray:
    z = (z + _GOLDEN)
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def _splitmix64_int(z: int) -> int:
    mask = 0xFFFFFFFFFFFFFFFF
    z = (z + 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def keep_mask(seed: int, camera_id: int, ordinals: np.ndarray, k: int) -> np.ndarray:
    """Bernoulli(1/k) keep decisions keyed by (seed, camera, ordinal)."""
    base = _splitmix64_int(seed & 0xFFFFFFFFFFFFFFFF) \
        ^ _splitmix64_int(0xC2B2AE3D27D4EB4F + camera_id)
    h = _splitmix64(ordinals.astype(np.uint64) * _GOLDEN + np.uint64(base))
    threshold = np.uint64((1 << 64) // k - 1) if k > 1 else _U64
    return h <= threshold


def thin(stream: EventStream, k: int, seed: int) -> EventStream:
    """Keep each event independently with probability 1/k.

    Timestamps and relative order are untouched; k = 1 returns the
    stream itself.
    """
    if k < 1 or int(k) != k:
        raise ValueError("k must be a positive integer")
    if k == 1:
        return stream
    mask = keep_mask(seed, int(stream.camera_id), stream.ordinal_array(), int(k))
    return stream._subset(mask)


@dataclass(frozen=True)
class SweepCell:
    k: int
    seed: int
    report: EvaluationReport
    mean_cluster_size: float


@dataclass(frozen=True)
class AblationSweep:
    factors: tuple[int, ...]
    seeds: tuple[int, ...]
    cells: list[SweepCell]
    reference_p95_mm: float

    def curve(self) -> list[dict]:
        """Per-factor pass-rate mean and spread over seeds."""
        out = []
        for k in self.factors:
            rates = [c.report.pass_rate_percent for c in self.cells if c.k == k]
            rmses = [c.report.rmse_mm for c in self.cells if c.k == k]
            out.append({
                "k": k,
                "pass_rate_mean": float(np.mean(rates)),
                "pass_rate_sd": float(np.std(rates, ddof=1)) if len(rates) > 1 else 0.0,
                "rmse_mean_mm": float(np.mean(rmses)),
            })
        return out

    def csv_rows(self) -> list[dict]:
        return [{
            "k": c.k,
            "seed": c.seed,
            "rmse_mm": c.report.rmse_mm,
            "pass_rate_percent": c.report.pass_rate_percent,
            "mean_cluster_size": c.mean_cluster_size,
            "n_valid": c.report.n_valid,
        } for c in self.cells]


def _mean_cluster_size(table: TrialTable) -> float:
    sizes = 0.5 * table.cluster_size[table.valid].sum(axis=1)
    return float(np.mean(sizes)) if len(sizes) else 0.0


def run_sweep(prepared: PreparedRun, cfg: RunConfig, models,
              factors, seeds, baseline: tuple[EvaluationReport, TrialTable],
              ) -> AblationSweep:
    """Re-run the evaluation pipeline at each (factor, seed) cell.

    ``baseline`` is the unthinned run's ``(report, table)`` with the same
    models; since thinning with k = 1 is the identity, every k = 1 cell is
    that run. Models and the reference error percentile stay fixed at
    their unthinned values. Per-press failures inside a cell are recorded
    as exclusions, never raised.
    """
    factors = tuple(int(k) for k in factors)
    seeds = tuple(int(s) for s in seeds)
    params = cluster_params(cfg)
    base_report, base_table = baseline
    reference_p95_mm = base_report.reference_p95_mm
    base_size = _mean_cluster_size(base_table)

    def evaluate_cell(k: int, seed: int) -> SweepCell:
        if k == 1:
            return SweepCell(1, seed, base_report, base_size)
        thinned = replace(prepared, s1=thin(prepared.s1, k, seed),
                          s2=thin(prepared.s2, k, seed))
        table = localize_trials(segment(thinned, cfg), models, params)
        try:
            report = evaluate_results(table, cfg,
                                      reference_p95_mm=reference_p95_mm)
        except UndefinedMetricError:
            # a cell may lose every press; record it instead of aborting
            report = empty_report(len(table), reference_p95_mm)
        return SweepCell(k, seed, report, _mean_cluster_size(table))

    cells = [evaluate_cell(k, seed) for k in factors for seed in seeds]
    return AblationSweep(factors, seeds, cells, reference_p95_mm)
