"""Press-onset detection from combined-camera event rates.

Fine binning, Gaussian smoothing, per-trial baseline estimation, a
one-sided CUSUM detector, ROC threshold tuning, and the latency
distribution width (p95 - p5 of detected onsets).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .segment import PressTrial, baseline_events, press_events


class TuningError(RuntimeError):
    def __init__(self, message, best_tpr=0.0, best_h=None):
        super().__init__(message)
        self.best_tpr = best_tpr
        self.best_h = best_h


class UndefinedReportError(RuntimeError):
    pass


# smoothing a window costs bins x kernel taps; both are bounded at load
MAX_KERNEL_TAPS = 1_001
MAX_WINDOW_BINS = 100_000
TUNE_MIN_TPR = 0.95  # the true-positive rate a tuned threshold keeps


@dataclass(frozen=True)
class CusumParams:
    bin_s: float = 0.0002
    sigma_s: float = 0.0005
    rate_multiplier: float = 4.0
    min_consecutive_bins: int = 3
    h: float = 1.0
    detect_window_s: float = 0.1
    cooldown_s: float = 0.031

    def __post_init__(self):
        if min(self.bin_s, self.sigma_s, self.rate_multiplier,
               self.detect_window_s, self.cooldown_s) <= 0:
            raise ValueError("CUSUM parameters must be positive")
        if self.min_consecutive_bins < 1:
            raise ValueError("min_consecutive_bins must be >= 1")
        # gaussian_kernel's 2 * ceil(4 sigma / bin) + 1 taps
        if 4.0 * self.sigma_s / self.bin_s > (MAX_KERNEL_TAPS - 1) // 2:
            raise ValueError(f"sigma_s {self.sigma_s:g} s over bin_s "
                             f"{self.bin_s:g} s needs more than "
                             f"MAX_KERNEL_TAPS {MAX_KERNEL_TAPS} kernel taps")
        if not (math.isfinite(self.h) and self.h > 0):
            raise ValueError("h must be a finite positive number")


@dataclass(frozen=True)
class BaselineStats:
    mean: float  # events/second
    sd: float


def check_window_bins(params: CusumParams, window_s: float) -> None:
    """Refuse a window that ``bin_s`` cuts into over MAX_WINDOW_BINS bins."""
    if window_s / params.bin_s > MAX_WINDOW_BINS:
        raise ValueError(f"a {window_s:g} s trial window over bin_s "
                         f"{params.bin_s:g} s needs more than "
                         f"MAX_WINDOW_BINS {MAX_WINDOW_BINS} bins")


def bin_times(times_s: np.ndarray, t0_s: float, t1_s: float,
              bin_s: float) -> np.ndarray:
    """Event counts over uniform bins covering [t0, t1)."""
    n_bins = max(1, int(math.ceil((t1_s - t0_s) / bin_s - 1e-9)))
    if not len(times_s):
        return np.zeros(n_bins, dtype=np.int64)
    sel = times_s[(times_s >= t0_s) & (times_s < t1_s)]
    idx = np.clip(((sel - t0_s) / bin_s).astype(np.int64), 0, n_bins - 1)
    return np.bincount(idx, minlength=n_bins)


def gaussian_kernel(bin_s: float, sigma_s: float) -> np.ndarray:
    """Unit-mass Gaussian taps truncated at +-4 sigma."""
    half = int(math.ceil(4.0 * sigma_s / bin_s))
    if half == 0:
        return np.ones(1)
    x = np.arange(-half, half + 1) * bin_s
    w = np.exp(-0.5 * (x / sigma_s) ** 2)
    return w / w.sum()


@dataclass(frozen=True)
class SmoothedSeries:
    """Fine-binned histogram plus its Gaussian-smoothed counts."""

    t0_s: float
    bin_s: float
    counts: np.ndarray
    smoothed: np.ndarray

    def __len__(self) -> int:
        return len(self.counts)

    @property
    def rates(self) -> np.ndarray:
        """Smoothed bin values in events/second."""
        return self.smoothed / self.bin_s


def smoothed_rate(times_s: np.ndarray, t0_s: float, t1_s: float,
                  bin_s: float, sigma_s: float) -> SmoothedSeries:
    """Histogram of merged event times convolved with a Gaussian kernel.

    Total mass is preserved (up to edge truncation); as sigma goes to
    zero the raw histogram is recovered.
    """
    if bin_s <= 0 or sigma_s <= 0:
        raise ValueError("bin_s and sigma_s must be positive")
    counts = bin_times(times_s, t0_s, t1_s, bin_s)
    kernel = gaussian_kernel(bin_s, sigma_s)
    # mode="same" would return the kernel's length for a shorter window
    half = len(kernel) // 2
    sm = np.convolve(counts.astype(np.float64), kernel)[half:half + len(counts)]
    return SmoothedSeries(t0_s, bin_s, counts, sm)


def baseline_stats(series) -> BaselineStats:
    """Mean and sd of the smoothed rate over a series.

    An empty baseline falls back to one event per window; a degenerate
    zero sd falls back to the unsmoothed Poisson prediction.
    """
    r = series.rates
    duration = len(r) * series.bin_s
    mu = float(r.mean()) if len(r) else 0.0
    if mu <= 0.0:
        mu = 1.0 / max(duration, series.bin_s)
    sd = float(r.std()) if len(r) else 0.0
    if sd <= 0.0:
        sd = math.sqrt(mu / series.bin_s)
    return BaselineStats(mu, sd)


def cusum_onsets(series, baseline: BaselineStats,
                 params: CusumParams) -> np.ndarray:
    """Onset times from a one-sided CUSUM on the smoothed rate.

    The statistic accumulates rate excess over the midpoint between the
    baseline mean and its target multiple; an onset is the first of
    ``min_consecutive_bins`` consecutive bins whose statistic exceeds
    h * baseline sd. After the alarm the statistic resets and nothing is
    reported for ``cooldown_s``.
    """
    bins, = _alarm_bins(series, baseline, params, [params.h])
    return series.t0_s + bins * series.bin_s


def _trial_series(trial: PressTrial,
                  params: CusumParams) -> tuple[SmoothedSeries, BaselineStats]:
    """A trial's smoothed press-window series and its baseline statistics.

    The statistics are those of the trial's background snippet (see
    :func:`trial_background_snippets`); a zero-length baseline window,
    which has none, falls back to one event per bin.
    """
    background, _ = _snippet_series(trial_background_snippets([trial]),
                                    params)
    base = background[0][1] if background else BaselineStats(
        1.0 / params.bin_s, math.sqrt(1.0 / params.bin_s))
    press_times = np.concatenate([press_events(trial, cam).times_s()
                                  for cam in (1, 2)])
    series = smoothed_rate(press_times, trial.t0_s, trial.t1_s,
                           params.bin_s, params.sigma_s)
    return series, base


def _excess(series, baseline: BaselineStats, params: CusumParams):
    """The smoothed rate's excess over the midpoint between the baseline
    mean and its target multiple: what the CUSUM accumulates."""
    mu0 = baseline.mean
    return series.rates - 0.5 * (mu0 + params.rate_multiplier * mu0)


def _window_minima(s: np.ndarray, m: int) -> np.ndarray:
    """The minimum of every m consecutive values of ``s`` (len(s) >= m),
    in ceil(log2 m) passes that each up to double the window."""
    w = 1  # s[i] is the minimum over values i..i+w-1
    while w < m:
        k = min(w, m - w)
        s = np.minimum(s[:-k], s[k:])
        w += k
    return s


def _first_alarms(excess: np.ndarray, m: int,
                  thresholds: np.ndarray) -> np.ndarray:
    """The first alarm bin of a CUSUM started at ``excess[0]``, for every
    threshold, -1 where there is none.

    The first alarm is the first bin i whose statistic exceeds the
    threshold for m bins in a row, i.e. where the minimum over bins
    i..i+m-1 exceeds it. The running maximum of that minimum is
    non-decreasing and does not depend on the threshold, so one
    searchsorted places every threshold.
    """
    c = np.cumsum(excess)
    s = c - np.minimum.accumulate(np.minimum(c, 0.0))
    if len(s) < m:
        return np.full(len(thresholds), -1)
    envelope = np.maximum.accumulate(_window_minima(s, m))
    idx = np.searchsorted(envelope, thresholds, side="right")
    return np.where(idx < len(envelope), idx, -1)


def _alarm_bins(series, baseline: BaselineStats, params: CusumParams,
                hs) -> list[np.ndarray]:
    """Every alarm bin of the CUSUM at each h in ``hs``.

    After an alarm the statistic restarts max(m, cooldown bins) later.
    Thresholds that share an alarm share its restart and all that
    follows, so each restart runs the kernel once for all of them.
    """
    a = _excess(series, baseline, params)
    m = params.min_consecutive_bins
    step = max(m, int(round(params.cooldown_s / series.bin_s)))
    found = [[] for _ in hs]
    todo = [(0, np.arange(len(hs)), np.asarray(hs) * baseline.sd)]
    while todo:
        start, which, thr = todo.pop()
        first = _first_alarms(a[start:], m, thr)
        for f in np.unique(first[first >= 0]).tolist():
            hit = first == f
            for i in which[hit].tolist():
                found[i].append(start + f)
            todo.append((start + f + step, which[hit], thr[hit]))
    return [np.array(b, dtype=np.int64) for b in found]


def _grid_onsets(press_trials, params: CusumParams,
                 hs: np.ndarray) -> np.ndarray:
    """The first ``cusum_onsets`` onset of every trial at every h, in
    seconds after the trial's t0, nan where there is none.

    Rows follow ``hs``, columns the trials; each trial is binned,
    smoothed and run through the CUSUM once.
    """
    onsets = np.full((len(hs), len(press_trials)), np.nan)
    for j, trial in enumerate(press_trials):
        series, base = _trial_series(trial, params)
        first = _first_alarms(_excess(series, base, params),
                              params.min_consecutive_bins, hs * base.sd)
        hit = first >= 0
        onsets[hit, j] = (series.t0_s + first[hit] * series.bin_s) - trial.t0_s
    return onsets


def _tpr_at(onsets: np.ndarray, window_s: float) -> tuple[float, float]:
    """(true-positive rate, median onset) under the +-window acceptance
    rule, over onsets that are nan where none was detected."""
    detected = onsets[~np.isnan(onsets)]
    if not len(detected):
        return 0.0, math.nan
    median = float(np.median(detected))
    ok = np.count_nonzero(np.abs(detected - median) <= window_s)
    return ok / len(onsets), median


@dataclass(frozen=True)
class RocPoint:
    h: float
    tpr: float
    false_alarms_per_s: float


@dataclass(frozen=True)
class TuneResult:
    h: float
    tpr: float
    roc: list[RocPoint]


def _snippet_series(snippets, params: CusumParams):
    """(series, baseline) of every non-empty background snippet, and the
    snippets' total duration in seconds.

    Each snippet provides its own baseline statistics (it contains no
    stimulus by construction).
    """
    out = []
    total_s = 0.0
    for t0, t1, times in snippets:
        if t1 - t0 <= 0:
            continue
        series = smoothed_rate(times, t0, t1, params.bin_s, params.sigma_s)
        out.append((series, baseline_stats(series)))
        total_s += t1 - t0
    return out, total_s


def _alarm_rates(background, total_s: float, params: CusumParams,
                 hs: list[float]) -> list[float]:
    """``cusum_onsets`` alarms per second at every h in ``hs`` over the
    (series, baseline) pairs of background snippets ``total_s`` long."""
    alarms = np.zeros(len(hs))
    for series, base in background:
        alarms += [len(b) for b in _alarm_bins(series, base, params, hs)]
    return [a / total_s if total_s > 0 else 0.0 for a in alarms.tolist()]


def trial_background_snippets(trials) -> list[tuple[float, float, np.ndarray]]:
    """Baseline windows of a trial list as (t0, t1, times) tuples; the
    times are both cameras' events, camera 1's first, unsorted."""
    out = []
    for tr in trials:
        if tr.t0_s - tr.baseline_t0_s <= 0:
            continue
        times = np.concatenate([baseline_events(tr, cam).times_s()
                                for cam in (1, 2)])
        out.append((tr.baseline_t0_s, tr.t0_s, times))
    return out


def tune_threshold(press_trials, background_snippets, params: CusumParams,
                   h_grid=None) -> TuneResult:
    """Largest h on a log grid keeping the true-positive rate at
    ``TUNE_MIN_TPR``.

    The TPR counts trials whose detected onset falls within the
    acceptance window of the population median onset at that h. The ROC
    (h, TPR, background false-alarm rate) is reported for every grid
    point. Binning, smoothing, baselines and the CUSUM statistic do not
    depend on h, so they are computed once per trial and snippet; the
    results equal a per-h loop of ``cusum_onsets`` over every trial and
    snippet.
    """
    if len(press_trials) < 20:
        raise ValueError("need at least 20 press trials to tune")
    if h_grid is None:
        h_grid = np.geomspace(0.1, 1000.0, 60)
    hs = [float(h) for h in h_grid]
    bad = [h for h in hs if not (math.isfinite(h) and h > 0)]
    if bad:
        raise ValueError(f"h grid value {bad[0]!r} is not finite positive")
    onsets = _grid_onsets(press_trials, params, np.array(hs))
    rates = _alarm_rates(*_snippet_series(background_snippets, params),
                         params, hs)
    roc = []
    best = None
    for h, row, fa in zip(hs, onsets, rates):
        tpr, _ = _tpr_at(row, params.detect_window_s)
        roc.append(RocPoint(h, tpr, fa))
        if tpr >= TUNE_MIN_TPR:
            best = roc[-1]
    if best is None:
        top = max(roc, key=lambda r: r.tpr)
        raise TuningError(
            f"no threshold reaches {TUNE_MIN_TPR:.0%} TPR "
            f"(best {top.tpr:.1%} at h={top.h:.3g})",
            best_tpr=top.tpr, best_h=top.h)
    return TuneResult(best.h, best.tpr, roc)


@dataclass(frozen=True)
class LatencyReport:
    h_used: float
    n_trials: int
    n_detected: int
    tpr: float
    median_onset_s: float
    onsets_rel_median_s: list[float | None]
    latency_width_ms: float
    false_alarm_rate_per_s: float
    cooldown_s: float

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "h_used": self.h_used,
            "n_trials": self.n_trials,
            "n_detected": self.n_detected,
            "tpr": self.tpr,
            "median_onset_s": self.median_onset_s,
            "latency_width_ms": self.latency_width_ms,
            "false_alarm_rate_per_s": self.false_alarm_rate_per_s,
            "cooldown_s": self.cooldown_s,
        }


def latency_report(press_trials, params: CusumParams,
                   background_snippets=None) -> LatencyReport:
    """Latency-distribution width and false-alarm rate at a fixed h.

    Onset times are centered on the population median; the width is the
    p95 - p5 spread of the true positives. The false-alarm measurement
    reuses that width as the alarm cooldown.
    """
    onsets = _grid_onsets(press_trials, params, np.array([params.h]))[0]
    tpr, median = _tpr_at(onsets, params.detect_window_s)
    detected = onsets[~np.isnan(onsets)]
    tp = detected[np.abs(detected - median) <= params.detect_window_s]
    if not len(tp):
        raise UndefinedReportError("no trial produced an onset within "
                                   "detect_window_s of the median")
    width_ms = float((np.percentile(tp, 95) - np.percentile(tp, 5)) * 1e3)
    cooldown, fa = params.cooldown_s, 0.0
    if background_snippets:
        cooldown = max(width_ms / 1e3, params.bin_s)
        fa, = _alarm_rates(*_snippet_series(background_snippets, params),
                           replace(params, cooldown_s=cooldown), [params.h])
    return LatencyReport(
        h_used=params.h,
        n_trials=len(press_trials),
        n_detected=len(detected),
        tpr=tpr,
        median_onset_s=median,
        onsets_rel_median_s=[None if math.isnan(o) else o - median
                             for o in onsets.tolist()],
        latency_width_ms=width_ms,
        false_alarm_rate_per_s=fa,
        cooldown_s=float(cooldown),
    )
