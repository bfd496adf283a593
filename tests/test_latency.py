from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tacloc.events import EventStream
from tacloc.latency import (BaselineStats, CusumParams, RocPoint,
                            SmoothedSeries, TuneResult, TuningError,
                            UndefinedReportError, _alarm_rates, _excess,
                            _first_alarms, _grid_onsets, _snippet_series,
                            _tpr_at, _trial_series, _window_minima,
                            baseline_stats,
                            bin_times, cusum_onsets, gaussian_kernel,
                            latency_report, smoothed_rate,
                            trial_background_snippets, tune_threshold)
from tacloc.segment import PressTrial

US = 1_000_000
PARAMS = CusumParams()


def jittered_trials(rng, n_trials, idle_rate, press_rate, jitter_s=0.030,
                    spacing_s=10.0, duration_s=0.55, baseline_s=0.3):
    trials = []
    true_onsets = []
    for i in range(n_trials):
        t0 = spacing_s * (i + 1)
        onset = t0 + rng.uniform(0.0, jitter_s)
        true_onsets.append(onset - t0)
        b0 = t0 - baseline_s
        streams = []
        for cam in (1, 2):
            n_idle = rng.poisson(idle_rate * (duration_s + baseline_s))
            t_idle = rng.uniform(b0, t0 + duration_s, n_idle)
            n_press = rng.poisson((press_rate - idle_rate) * (t0 + duration_s - onset))
            t_press = rng.uniform(onset, t0 + duration_s, n_press)
            t = np.sort(np.concatenate([t_idle, t_press]))
            t_us = (t * US).astype(np.int64)
            m = len(t_us)
            streams.append(EventStream(cam, t_us, rng.integers(0, 640, m),
                                       rng.integers(200, 361, m),
                                       rng.integers(0, 2, m)))
        trials.append(PressTrial(i, 0, t0, t0 + duration_s, b0,
                                 streams[0], streams[1], (0.0, 0.0)))
    return trials, np.array(true_onsets)


def cusum_by_restart(series, baseline, params):
    """Onset times of the one-sided CUSUM, restarting the statistic from
    scratch after every alarm: the oracle for cusum_onsets and the alarm
    counts."""
    x = series.rates
    mu0 = baseline.mean
    mu1 = params.rate_multiplier * mu0
    drift = 0.5 * (mu0 + mu1)
    thr = params.h * baseline.sd
    m = params.min_consecutive_bins
    cooldown_bins = max(1, int(round(params.cooldown_s / series.bin_s)))
    a = x - drift

    onsets = []
    start = 0
    n = len(a)
    while start < n:
        seg = a[start:]
        c = np.cumsum(seg)
        s = c - np.minimum.accumulate(np.minimum(c, 0.0))
        above = s > thr
        if m > 1:
            run = np.convolve(above.astype(np.int8), np.ones(m, dtype=np.int8),
                              mode="valid") == m
            hits = np.flatnonzero(run)
        else:
            hits = np.flatnonzero(above)
        if not len(hits):
            break
        onset_idx = start + int(hits[0])
        onsets.append(series.t0_s + onset_idx * series.bin_s)
        # resume after the alarm decision plus the cooldown
        start = max(onset_idx + cooldown_bins, onset_idx + m)
    return np.asarray(onsets)


class TestSmoothedRate:
    def test_impulse_response_has_unit_mass(self):
        series = smoothed_rate(np.array([0.05]), 0.0, 0.1,
                               PARAMS.bin_s, PARAMS.sigma_s)
        assert series.smoothed.sum() == pytest.approx(1.0, abs=1e-3)
        assert series.counts.sum() == 1

    def test_constant_rate_variance_reduction(self):
        rng = np.random.default_rng(0)
        times = np.sort(rng.uniform(0, 2.0, 100_000))
        series = smoothed_rate(times, 0.0, 2.0, PARAMS.bin_s, PARAMS.sigma_s)
        raw = series.counts.astype(float)
        interior = slice(50, -50)
        factor = raw[interior].var() / series.smoothed[interior].var()
        kernel = gaussian_kernel(PARAMS.bin_s, PARAMS.sigma_s)
        predicted = 1.0 / (kernel ** 2).sum()
        assert abs(factor - predicted) / predicted < 0.15

    def test_tiny_sigma_recovers_histogram(self):
        rng = np.random.default_rng(1)
        times = np.sort(rng.uniform(0, 0.2, 5000))
        series = smoothed_rate(times, 0.0, 0.2, PARAMS.bin_s, 1e-9)
        assert np.allclose(series.smoothed, series.counts)

    @pytest.mark.parametrize("n_bins", [1, 5, 20, 21, 22])
    def test_window_shorter_than_kernel_keeps_its_length(self, n_bins):
        # the default kernel has 21 taps; a clipped baseline window can
        # have fewer bins, and its rate must not be spread over 21 values
        assert len(gaussian_kernel(PARAMS.bin_s, PARAMS.sigma_s)) == 21
        t1 = n_bins * PARAMS.bin_s
        series = smoothed_rate(np.array([0.5 * t1]), 0.0, t1,
                               PARAMS.bin_s, PARAMS.sigma_s)
        assert len(series.rates) == len(series.counts) == n_bins
        # the event's bin keeps the kernel's central tap
        assert series.smoothed.max() == gaussian_kernel(
            PARAMS.bin_s, PARAMS.sigma_s).max()

    def test_mass_preserved(self):
        rng = np.random.default_rng(2)
        times = np.sort(rng.uniform(0.02, 0.18, 20_000))
        series = smoothed_rate(times, 0.0, 0.2, PARAMS.bin_s, PARAMS.sigma_s)
        assert series.smoothed.sum() == pytest.approx(20_000, rel=1e-3)


class TestCusum:
    @pytest.mark.parametrize("h", [-1.0, 0.0, float("nan"), float("inf")])
    def test_threshold_must_be_finite_positive(self, h):
        # a threshold of 0 or less alarms on every bin; nan never alarms
        with pytest.raises(ValueError, match="h must be a finite positive"):
            replace(PARAMS, h=h)

    def test_hard_step_detected_within_5ms(self):
        rng = np.random.default_rng(3)
        mu0 = 9100.0
        t_star = 0.2
        tb = rng.uniform(0, t_star, rng.poisson(mu0 * t_star))
        ta = rng.uniform(t_star, 0.4, rng.poisson(4 * mu0 * 0.2))
        series = smoothed_rate(np.sort(np.concatenate([tb, ta])), 0.0, 0.4,
                               PARAMS.bin_s, PARAMS.sigma_s)
        base = baseline_stats(smoothed_rate(tb, 0.0, t_star,
                                            PARAMS.bin_s, PARAMS.sigma_s))
        onsets = cusum_onsets(series, base, replace(PARAMS, h=4.0))
        assert len(onsets) >= 1
        assert abs(onsets[0] - t_star) < 0.005

    def test_zero_rate_series_no_onsets(self):
        series = smoothed_rate(np.zeros(0), 0.0, 1.0, PARAMS.bin_s, PARAMS.sigma_s)
        base = BaselineStats(10.0, 5.0)
        assert len(cusum_onsets(series, base, PARAMS)) == 0

    def test_statistic_nonnegative_and_cooldown_respected(self):
        rng = np.random.default_rng(4)
        times = np.sort(rng.uniform(0, 5.0, 300_000))
        series = smoothed_rate(times, 0.0, 5.0, PARAMS.bin_s, PARAMS.sigma_s)
        base = BaselineStats(10_000.0, 500.0)  # low bar: provoke many alarms
        p = replace(PARAMS, h=0.5, rate_multiplier=1.2, cooldown_s=0.05)
        onsets = cusum_onsets(series, base, p)
        assert len(onsets) > 2
        assert np.all(np.diff(onsets) >= p.cooldown_s - 1e-12)

    def test_scale_covariance(self):
        rng = np.random.default_rng(5)
        times = np.sort(rng.uniform(0, 1.0, 40_000))
        series = smoothed_rate(times, 0.0, 1.0, PARAMS.bin_s, PARAMS.sigma_s)
        base = baseline_stats(series)
        p = replace(PARAMS, h=2.0)
        a = cusum_onsets(series, base, p)
        scaled = type(series)(series.t0_s, series.bin_s, series.counts,
                              series.smoothed * 7.0)
        b = cusum_onsets(scaled, BaselineStats(base.mean * 7, base.sd * 7), p)
        assert np.array_equal(a, b)

    def test_false_alarm_budget_on_pure_baseline(self):
        rng = np.random.default_rng(6)
        duration = 200.0
        mu0 = 9100.0
        times = np.sort(rng.uniform(0, duration, rng.poisson(mu0 * duration)))
        series = smoothed_rate(times, 0.0, duration, PARAMS.bin_s, PARAMS.sigma_s)
        base = baseline_stats(smoothed_rate(times[times < 5.0], 0.0, 5.0,
                                            PARAMS.bin_s, PARAMS.sigma_s))
        onsets = cusum_onsets(series, base, replace(PARAMS, h=4.0))
        assert len(onsets) / duration <= 0.5


class TestTuneThreshold:
    def test_strong_separation(self):
        rng = np.random.default_rng(7)
        trials, _ = jittered_trials(rng, 30, idle_rate=1000.0,
                                    press_rate=20_000.0)
        snippets = trial_background_snippets(trials)
        tuned = tune_threshold(trials, snippets, PARAMS)
        assert tuned.tpr == 1.0
        final = [r for r in tuned.roc if r.h == tuned.h][0]
        assert final.false_alarms_per_s == pytest.approx(0.0, abs=0.05)

    def test_indistinguishable_classes_raise(self):
        rng = np.random.default_rng(8)
        trials, _ = jittered_trials(rng, 25, idle_rate=2000.0,
                                    press_rate=2000.0)
        snippets = trial_background_snippets(trials)
        with pytest.raises(TuningError):
            tune_threshold(trials, snippets, PARAMS)

    def test_returned_h_is_on_grid(self):
        rng = np.random.default_rng(9)
        trials, _ = jittered_trials(rng, 25, idle_rate=2000.0,
                                    press_rate=25_000.0)
        grid = np.geomspace(0.5, 50, 12)
        tuned = tune_threshold(trials, trial_background_snippets(trials),
                               PARAMS, h_grid=grid)
        assert tuned.h in grid
        assert tuned.tpr >= 0.95

    def test_needs_twenty_trials(self):
        rng = np.random.default_rng(10)
        trials, _ = jittered_trials(rng, 5, idle_rate=1000.0, press_rate=9000.0)
        with pytest.raises(ValueError):
            tune_threshold(trials, [], PARAMS)

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_grid_must_be_finite_positive(self, bad):
        # 0 or less alarms on every bin, nan never alarms; each is refused
        # whether or not a series alarms at it
        rng = np.random.default_rng(10)
        trials, _ = jittered_trials(rng, 20, idle_rate=1000.0,
                                    press_rate=9000.0)
        with pytest.raises(ValueError, match=f"h grid value {bad!r} "):
            tune_threshold(trials, trial_background_snippets(trials), PARAMS,
                           h_grid=[1.0, bad, 10.0])


def trial_onset(trial, params):
    """The first onset of the restart oracle in the trial window, in
    seconds after t0, or None."""
    series, base = _trial_series(trial, params)
    onsets = cusum_by_restart(series, base, params)
    return float(onsets[0]) - trial.t0_s if len(onsets) else None


def background_alarm_rate(snippets, params):
    """Restart-oracle alarms per second over every background snippet."""
    background, total_s = _snippet_series(snippets, params)
    alarms = sum(len(cusum_by_restart(series, base, params))
                 for series, base in background)
    return alarms / total_s if total_s > 0 else 0.0


def tune_by_h(trials, snippets, params, h_grid, min_tpr=0.95):
    """The per-h loop over trial_onset and background_alarm_rate: the
    oracle for tune_threshold. Returns (result or TuningError, onsets)."""
    roc, best, onsets = [], None, []
    for h in h_grid:
        p = replace(params, h=float(h))
        row = [trial_onset(t, p) for t in trials]
        tpr, _ = _tpr_at(np.array(row, dtype=float), p.detect_window_s)
        point = RocPoint(float(h), tpr, background_alarm_rate(snippets, p))
        roc.append(point)
        onsets.append(row)
        if tpr >= min_tpr:
            best = point
    if best is None:
        top = max(roc, key=lambda r: r.tpr)
        return TuningError("", best_tpr=top.tpr, best_h=top.h), onsets
    return TuneResult(best.h, best.tpr, roc), onsets


def report_by_trial(trials, snippets, params):
    """latency_report's onsets, TPR, width and false-alarm rate from the
    per-trial loop over trial_onset and background_alarm_rate, or None
    where no onset lies within the detection window of the median."""
    onsets = [trial_onset(t, params) for t in trials]
    detected = [o for o in onsets if o is not None]
    median = float(np.median(detected)) if detected else np.nan
    tp = [o for o in detected if abs(o - median) <= params.detect_window_s]
    if not tp:
        return None
    width_ms = float((np.percentile(tp, 95) - np.percentile(tp, 5)) * 1e3)
    cooldown = max(width_ms / 1e3, params.bin_s)
    fa = background_alarm_rate(snippets, replace(params, cooldown_s=cooldown))
    return ([None if o is None else o - median for o in onsets],
            len(tp) / len(onsets), width_ms, fa)


def without_baseline(trial):
    """The trial with a zero-length baseline window."""
    return PressTrial(trial.press_index, trial.repetition, trial.t0_s,
                      trial.t1_s, trial.t0_s, trial.events_cam1,
                      trial.events_cam2, trial.ground_truth_mm)


class TestTuneOracle:
    GRID = np.geomspace(0.1, 1000.0, 60)

    @staticmethod
    def bursty_snippets(rng, n=8, duration_s=1.0, idle_rate=3000.0):
        """Snippets with a few short bursts each, so that alarm counts,
        resets and cooldowns vary along the grid."""
        out = []
        for i in range(n):
            t0 = 1000.0 + 10.0 * i
            parts = [rng.uniform(t0, t0 + duration_s,
                                 rng.poisson(idle_rate * duration_s))]
            for b in rng.uniform(t0, t0 + duration_s - 0.05, 1 + i % 4):
                parts.append(rng.uniform(b, b + 0.02,
                                         rng.poisson(rng.uniform(100, 800))))
            out.append((t0, t0 + duration_s, np.sort(np.concatenate(parts))))
        return out

    def check(self, trials, params, h_grid):
        rng = np.random.default_rng(len(trials))
        snippets = (trial_background_snippets(trials)
                    + self.bursty_snippets(rng))
        want, want_onsets = tune_by_h(trials, snippets, params, h_grid)
        got_onsets = _grid_onsets(trials, params,
                                  np.array([float(h) for h in h_grid]))
        assert [[None if np.isnan(o) else o for o in row]
                for row in got_onsets.tolist()] == want_onsets
        if isinstance(want, TuningError):
            with pytest.raises(TuningError) as err:
                tune_threshold(trials, snippets, params, h_grid=h_grid)
            assert (err.value.best_tpr, err.value.best_h) == (want.best_tpr,
                                                              want.best_h)
        else:
            assert tune_threshold(trials, snippets, params,
                                  h_grid=h_grid) == want
        return want_onsets

    @pytest.mark.parametrize("m", [1, 3])
    def test_equals_per_h_loop(self, m):
        rng = np.random.default_rng(20 + m)
        trials, _ = jittered_trials(rng, 22, idle_rate=3000.0,
                                    press_rate=7000.0)
        trials[5] = without_baseline(trials[5])
        onsets = self.check(trials, replace(PARAMS, min_consecutive_bins=m),
                            self.GRID)
        # every trial is detected at small h, most are missed at large h
        assert all(o is not None for o in onsets[0])
        assert sum(o is None for o in onsets[-1]) > 15

    def test_unsorted_grid(self):
        rng = np.random.default_rng(23)
        trials, _ = jittered_trials(rng, 20, idle_rate=3000.0,
                                    press_rate=7000.0)
        self.check(trials, PARAMS, list(rng.permutation(self.GRID[::3])))

    @pytest.mark.parametrize("m", [1, 3])
    def test_first_alarm_at_exact_ties(self, m):
        # integer rates make the statistic hit h * sd exactly
        rates = np.array([3.5, 3.5, 1.0, 3.5, 4.5, 3.5, 3.5, 6.5, 2.5, 3.5])
        series = SmoothedSeries(0.0, 0.5, np.zeros(10, dtype=np.int64),
                                rates * 0.5)
        base = BaselineStats(1.0, 1.0)
        params = replace(PARAMS, min_consecutive_bins=m)
        # CusumParams refuses h = 0, so the oracle grid starts above it
        hs = np.arange(0.5, 8.0, 0.5)
        first = _first_alarms(_excess(series, base, params), m, hs * base.sd)
        for h, i in zip(hs.tolist(), first.tolist()):
            want = cusum_by_restart(series, base, replace(params, h=h))
            assert (i * 0.5 if i >= 0 else None) == (
                float(want[0]) if len(want) else None)

    @pytest.mark.parametrize("m", [1, 3])
    def test_report_equals_per_trial_oracle(self, m):
        rng = np.random.default_rng(30 + m)
        trials, _ = jittered_trials(rng, 22, idle_rate=3000.0,
                                    press_rate=7000.0)
        trials[5] = without_baseline(trials[5])
        snippets = (trial_background_snippets(trials)
                    + self.bursty_snippets(rng))
        compared = []
        for h in self.GRID[::6].tolist():
            p = replace(PARAMS, min_consecutive_bins=m, h=h)
            want = report_by_trial(trials, snippets, p)
            if want is None:
                with pytest.raises(UndefinedReportError):
                    latency_report(trials, p, snippets)
                continue
            rep = latency_report(trials, p, snippets)
            assert (rep.onsets_rel_median_s, rep.tpr, rep.latency_width_ms,
                    rep.false_alarm_rate_per_s) == want
            compared.append(want)
        # alarms and misses both occur among the compared thresholds
        assert any(fa > 0 for *_, fa in compared)
        assert any(None in onsets for onsets, *_ in compared)

    def test_tuning_error_matches(self):
        rng = np.random.default_rng(24)
        trials, _ = jittered_trials(rng, 20, idle_rate=2000.0,
                                    press_rate=2000.0)
        trials[0] = without_baseline(trials[0])
        self.check(trials, PARAMS, self.GRID[::4])


@st.composite
def alarm_cases(draw):
    """(series list, baseline, params, h grid) for the restart oracle.

    Integer rates over bin_s 0.5 against mean 1 and sd 1 make the
    statistic hit h * sd exactly for h on the half-integer grid; float
    rates and grids cover the rest. m runs from 1 to 12, so windows that
    are not powers of two are checked too. Cooldowns run from 1 to 8 bins,
    both shorter and longer than m.
    """
    bin_s = 0.5
    if draw(st.booleans()):
        rate = st.integers(0, 9).map(float)
        h = st.integers(1, 16).map(lambda k: k / 2)
    else:
        rate = st.floats(0.0, 9.0)
        h = st.floats(0.01, 20.0)
    series = [SmoothedSeries(0.25 * i, bin_s, np.zeros(len(r), dtype=np.int64),
                             np.array(r, dtype=float) * bin_s)
              for i, r in enumerate(draw(st.lists(
                  st.lists(rate, max_size=40), min_size=1, max_size=3)))]
    params = replace(PARAMS, min_consecutive_bins=draw(st.integers(1, 12)),
                     cooldown_s=bin_s * draw(st.integers(1, 8)))
    hs = draw(st.lists(h, min_size=1, max_size=8))
    return series, BaselineStats(1.0, 1.0), params, hs


@settings(max_examples=300, deadline=None)
@given(alarm_cases())
@example(([SmoothedSeries(0.0, 0.5, np.zeros(0, dtype=np.int64), np.zeros(0)),
           SmoothedSeries(0.0, 0.5, np.zeros(2, dtype=np.int64),
                          np.array([4.5, 4.5]))],
          BaselineStats(1.0, 1.0), replace(PARAMS, min_consecutive_bins=3),
          [0.5, 1.0]))
def test_alarms_equal_restart_oracle(case):
    # every alarm of every h, restarts and cooldowns included, equals
    # the loop that restarts the statistic from scratch after each alarm
    series, base, params, hs = case
    counts = [0] * len(hs)
    for s in series:
        for i, h in enumerate(hs):
            p = replace(params, h=h)
            want = cusum_by_restart(s, base, p)
            got = cusum_onsets(s, base, p)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
            counts[i] += len(want)
    assert _alarm_rates([(s, base) for s in series], 1.0, params, hs) \
        == counts


@settings(max_examples=300, deadline=None)
@given(m=st.integers(1, 64), data=st.data())
def test_window_minima_equal_the_sliding_window(m, data):
    # the doubling passes give every m-value window minimum exactly
    n = data.draw(st.integers(m, 3 * m))
    values = st.floats(-1e6, 1e6) if data.draw(st.booleans()) \
        else st.integers(-3, 3).map(float)
    s = np.array(data.draw(st.lists(values, min_size=n, max_size=n)))
    want = np.lib.stride_tricks.sliding_window_view(s, m).min(axis=1)
    got = _window_minima(s, m)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


class TestLatencyReport:
    def test_identical_onsets_zero_width(self):
        rng = np.random.default_rng(11)
        trials, _ = jittered_trials(rng, 25, idle_rate=4550.0,
                                    press_rate=200_000.0, jitter_s=0.0)
        rep = latency_report(trials, replace(PARAMS, h=4.0))
        assert rep.latency_width_ms < 2.0

    def test_uniform_jitter_width(self):
        rng = np.random.default_rng(12)
        trials, true_onsets = jittered_trials(rng, 150, idle_rate=4550.0,
                                              press_rate=60_000.0,
                                              jitter_s=0.030)
        rep = latency_report(trials, replace(PARAMS, h=4.0),
                             trial_background_snippets(trials))
        # p95 - p5 of U(0, 30 ms) is 27 ms; allow order-statistics noise
        assert 23.0 < rep.latency_width_ms < 31.0
        assert rep.tpr > 0.95

    def test_zero_detections_undefined(self):
        rng = np.random.default_rng(13)
        trials, _ = jittered_trials(rng, 10, idle_rate=2000.0, press_rate=2000.0)
        with pytest.raises(UndefinedReportError):
            latency_report(trials, replace(PARAMS, h=1e9))

    def test_extreme_thinning_widens_latency(self):
        # with deterministic onsets the residual width comes from detection
        # alone; 1024x thinning makes it wait for sparse single events
        from tacloc.ablate import thin
        rng = np.random.default_rng(14)
        trials, _ = jittered_trials(rng, 100, idle_rate=4550.0,
                                    press_rate=14_300.0, jitter_s=0.0)
        rep_full = latency_report(trials, replace(PARAMS, h=3.0))
        thinned = [PressTrial(t.press_index, t.repetition, t.t0_s, t.t1_s,
                              t.baseline_t0_s,
                              thin(t.events_cam1, 1024, seed=1),
                              thin(t.events_cam2, 1024, seed=1),
                              t.ground_truth_mm)
                   for t in trials]
        rep_thin = latency_report(thinned, replace(PARAMS, h=3.0))
        assert rep_thin.latency_width_ms > 2.0 * rep_full.latency_width_ms
        assert rep_thin.tpr >= 0.7


def test_bin_times_covers_window():
    times = np.array([0.0, 0.0999, 0.05])
    counts = bin_times(times, 0.0, 0.1, 0.0002)
    assert counts.sum() == 3
    assert len(counts) == 500
