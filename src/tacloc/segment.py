"""Slicing aligned streams into per-press trials with baseline snippets."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .events import EventStream, merge_times_s
from .ingest import PressSchedule


@dataclass(frozen=True)
class PressTrial:
    """One scheduled press: its event slices, window, and ground truth."""

    press_index: int
    repetition: int
    t0_s: float
    t1_s: float
    baseline_t0_s: float
    baseline_t1_s: float
    events_cam1: EventStream
    events_cam2: EventStream
    ground_truth_mm: tuple[float, float]
    missing: bool = False

    @property
    def window_s(self) -> tuple[float, float]:
        return (self.t0_s, self.t1_s)


def segment_by_schedule(s1: EventStream, s2: EventStream,
                        schedule: PressSchedule, baseline_s: float = 0.3,
                        anchor_s: float = 0.0) -> list[PressTrial]:
    """One trial per schedule entry, in schedule order.

    Press windows are [onset, onset + duration); the baseline window ends
    at the onset and is clipped so it never overlaps the previous press
    window. ``anchor_s`` is the detected first-tap time that the
    schedule's relative onsets are measured from. Onsets outside the
    stream extent produce trials flagged missing rather than dropped.
    """
    ext1 = s1.extent_s()
    ext2 = s2.extent_s()
    extents = [e for e in (ext1, ext2) if e is not None]
    if extents:
        lo = min(e[0] for e in extents)
        hi = max(e[1] for e in extents)
    else:
        lo = hi = None
    dur = schedule.press_duration_s
    trials = []
    prev_end = None
    for i in range(len(schedule)):
        t0 = anchor_s + float(schedule.onsets_s[i])
        t1 = t0 + dur
        b0 = t0 - baseline_s
        if prev_end is not None:
            b0 = max(b0, prev_end)
        b0 = min(b0, t0)
        missing = lo is not None and (t0 > hi or t1 < lo)
        trials.append(PressTrial(
            press_index=int(schedule.press_index[i]),
            repetition=int(schedule.repetition[i]),
            t0_s=t0, t1_s=t1, baseline_t0_s=b0, baseline_t1_s=t0,
            events_cam1=s1.slice_time_s(b0, t1),
            events_cam2=s2.slice_time_s(b0, t1),
            ground_truth_mm=(float(schedule.ground_truth_mm[i, 0]),
                             float(schedule.ground_truth_mm[i, 1])),
            missing=missing,
        ))
        prev_end = t1
    return trials


def press_events(trial: PressTrial, camera: int) -> EventStream:
    """The trial's events inside the press window for one camera (1 or 2)."""
    s = trial.events_cam1 if camera == 1 else trial.events_cam2
    return s.slice_time_s(trial.t0_s, trial.t1_s)


def baseline_events(trial: PressTrial, camera: int) -> EventStream:
    s = trial.events_cam1 if camera == 1 else trial.events_cam2
    return s.slice_time_s(trial.baseline_t0_s, trial.baseline_t1_s)


def refine_onset(trial: PressTrial, bin_s: float = 0.010,
                 search_s: float = 0.5,
                 threshold_multiple: float = 3.0) -> float:
    """Snap the nominal onset to the first bin of clear combined activity.

    Scans +-search_s around the nominal onset for the first bin whose
    combined-camera rate exceeds the trial baseline mean by the given
    multiple; returns the nominal onset unchanged when nothing qualifies.
    """
    lo = trial.t0_s - search_s
    hi = trial.t0_s + search_s
    times = merge_times_s(trial.events_cam1.slice_time_s(lo, hi),
                          trial.events_cam2.slice_time_s(lo, hi))
    if not len(times):
        return trial.t0_s
    base_dur = trial.baseline_t1_s - trial.baseline_t0_s
    if base_dur <= 0:
        return trial.t0_s
    b = merge_times_s(baseline_events(trial, 1), baseline_events(trial, 2))
    base_rate = len(b) / base_dur
    n_bins = int(np.ceil((hi - lo) / bin_s))
    idx = np.clip(((times - lo) / bin_s).astype(np.int64), 0, n_bins - 1)
    rates = np.bincount(idx, minlength=n_bins) / bin_s
    hot = np.flatnonzero(rates > threshold_multiple * max(base_rate, 1.0 / base_dur))
    if not len(hot):
        return trial.t0_s
    return lo + float(hot[0]) * bin_s


def trial_manifest(trials: list[PressTrial]) -> list[dict]:
    """Plot- and diff-friendly summary of a segmentation, one dict per trial."""
    out = []
    for tr in trials:
        out.append({
            "press_index": tr.press_index,
            "repetition": tr.repetition,
            "window_s": [tr.t0_s, tr.t1_s],
            "baseline_s": [tr.baseline_t0_s, tr.baseline_t1_s],
            "n_events_cam1": len(press_events(tr, 1)),
            "n_events_cam2": len(press_events(tr, 2)),
            "ground_truth_mm": list(tr.ground_truth_mm),
            "missing": tr.missing,
        })
    return out
