"""Stochastic event thinning and the pass-rate-vs-reduction sweep.

Thinning decisions come from a stateless per-event hash of
(seed, camera id, event ordinal), not a sequential RNG, so a thinned
stream is reproducible, order-independent, and unchanged by prior
cropping (ordinals refer to positions in the originally constructed
stream).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cluster import WeightedPixels, weigh
from .events import EventStream
from .ingest import RunConfig
from .metrics import EvaluationReport, UndefinedMetricError, empty_report
from .pipeline import (PreparedRun, TrialTable, cluster_pixels,
                       evaluate_results, localize_pixels, segment)
from .segment import press_events

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64 = np.uint64(0xFFFFFFFFFFFFFFFF)


def _splitmix64(z: np.ndarray) -> np.ndarray:
    z = z + _GOLDEN
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def _event_hash(seed: int, camera_id: int, ordinals: np.ndarray) -> np.ndarray:
    """The splitmix64 hash of each (seed, camera, ordinal)."""
    key = _splitmix64(np.array([seed & 0xFFFFFFFFFFFFFFFF,
                                0xC2B2AE3D27D4EB4F + camera_id], dtype=np.uint64))
    return _splitmix64(ordinals.astype(np.uint64) * _GOLDEN + (key[0] ^ key[1]))


def _keep_below(k: int) -> np.uint64:
    """The largest hash kept at factor k; it falls as k grows."""
    return np.uint64((1 << 64) // k - 1) if k > 1 else _U64


def keep_mask(seed: int, camera_id: int, ordinals: np.ndarray, k: int) -> np.ndarray:
    """Bernoulli(1/k) keep decisions keyed by (seed, camera, ordinal).

    The masks are nested in k: an event kept at k is kept at every
    smaller factor.
    """
    return _event_hash(seed, camera_id, ordinals) <= _keep_below(k)


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

    def csv_columns(self) -> dict[str, list]:
        """The ``ablation.csv`` columns, one row per cell."""
        reports = [c.report for c in self.cells]
        return {"k": [c.k for c in self.cells],
                "seed": [c.seed for c in self.cells],
                "rmse_mm": [r.rmse_mm for r in reports],
                "pass_rate_percent": [r.pass_rate_percent for r in reports],
                "mean_cluster_size": [c.mean_cluster_size for c in self.cells],
                "n_valid": [r.n_valid for r in reports]}


def _mean_cluster_size(table: TrialTable) -> float:
    sizes = 0.5 * table.cluster_size[table.valid].sum(axis=1)
    return float(np.mean(sizes)) if len(sizes) else 0.0


def _thinned_counts(ws: WeightedPixels, inverse, h, tops):
    """The weighted pixels of one press set at each threshold of ``tops``
    (ascending, at least one), from each event's pixel ``inverse`` and
    hash ``h``.

    An event passes every threshold from the first one that is not below
    its hash. The events that pass the last threshold are counted once
    over (pixel, thresholds below the hash), and a cumulative sum over
    the thresholds gives every threshold's multiplicities. Pixels with
    none drop out; the box stays the set's.
    """
    passed = np.flatnonzero(h <= tops[-1])
    h = h[passed]
    key = inverse[passed] * np.intp(len(tops))
    for top in tops[:-1]:
        key += h > top
    counts = np.bincount(key, minlength=len(ws.mult) * len(tops))
    kept = np.cumsum(counts.reshape(-1, len(tops)), axis=1)
    for mult in kept.T:
        at = np.flatnonzero(mult)
        yield WeightedPixels(ws.du[at], ws.dv[at], mult[at], ws.box,
                             ws.origin)


def run_sweep(prepared: PreparedRun, cfg: RunConfig, factors,
              seeds) -> AblationSweep:
    """Re-run the evaluation pipeline at each (factor, seed) cell.

    The recording is segmented once, and each camera's press events of
    each trial are compressed once to weighted pixels (see
    :func:`tacloc.cluster.weigh`). Those give one unthinned localization
    with ``cfg.camera_models``: the reference error percentile and, since
    thinning with k = 1 is the identity, every k = 1 cell. Models and the
    reference percentile stay fixed at their unthinned values. Per-press
    failures inside a cell are recorded as exclusions, never raised.

    Thinning keeps times and order, so a trial's press events in the
    thinned recording are its unthinned press events under the keep
    mask, and clustering them needs only each pixel's count of kept
    events. Each press set is visited once: it is weighed, its ordinals
    are read, and its events are hashed for every seed, the nested keep
    masks counting every factor's pixels at once, so no per-event array
    outlives its set. The factors of one seed share one clustering pass
    per camera. A trial whose window lies
    outside the extent of the thinned streams is not flagged missing, as
    segmenting them would flag it; it keeps no events, so its row differs
    only in its reason ("no prominent cluster" for "missing"), which no
    sweep report reads.
    """
    factors = tuple(int(k) for k in factors)
    seeds = tuple(int(s) for s in seeds)
    # thresholds ascending, so factors descending; with k = 1 alone there
    # is nothing to thin
    thinned = sorted(set(factors) - {1}, reverse=True)
    tops = np.array([_keep_below(k) for k in thinned], dtype=np.uint64)
    trials = segment(prepared, cfg)
    live = [t for t in trials if not t.missing]
    base = [[], []]
    # each seed's weighted pixels per camera and factor
    by_seed = {seed: [[[] for _ in thinned] for _ in (1, 2)]
               for seed in (seeds if thinned else ())}
    for cam, base_sets in enumerate(base):
        for trial in live:
            ev = press_events(trial, cam + 1)
            ws, inverse = weigh(ev.u, ev.v, return_inverse=True)
            base_sets.append(ws)
            ordinals = ev.ordinal_array() if by_seed else None
            for seed, cams in by_seed.items():
                h = _event_hash(seed, cam + 1, ordinals)
                for kept, thin_ws in zip(cams[cam], _thinned_counts(
                        ws, inverse, h, tops)):
                    kept.append(thin_ws)
    base_table = localize_pixels(trials, cluster_pixels(base, cfg.cluster),
                                 cfg.camera_models)
    base_report = evaluate_results(base_table, cfg)
    reference_p95_mm = base_report.reference_p95_mm
    cells = {(1, seed): SweepCell(1, seed, base_report,
                                  _mean_cluster_size(base_table))
             for seed in seeds}
    for seed, cams in by_seed.items():
        pixels = [[ws for kept in by_factor for ws in kept]
                  for by_factor in cams]
        clustered = cluster_pixels(pixels, cfg.cluster)
        for k in thinned:
            table = localize_pixels(trials, clustered, cfg.camera_models)
            try:
                report = evaluate_results(table, cfg,
                                          reference_p95_mm=reference_p95_mm)
            except UndefinedMetricError:
                # a cell may lose every press; record it instead of aborting
                report = empty_report(len(table), reference_p95_mm)
            cells[k, seed] = SweepCell(k, seed, report,
                                       _mean_cluster_size(table))
    return AblationSweep(factors, seeds,
                         [cells[k, seed] for k in factors for seed in seeds],
                         reference_p95_mm)
