"""Slicing aligned streams into per-press trials with baseline snippets."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .events import EventStream

if TYPE_CHECKING:  # ingest imports latency, which imports this module
    from .ingest import PressSchedule


@dataclass(frozen=True)
class PressTrial:
    """One scheduled press: its event slices, its press window [t0_s,
    t1_s), its baseline window [baseline_t0_s, t0_s), and ground truth."""

    press_index: int
    repetition: int
    t0_s: float
    t1_s: float
    baseline_t0_s: float
    events_cam1: EventStream
    events_cam2: EventStream
    ground_truth_mm: tuple[float, float]
    missing: bool = False


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
    extents = [e for e in (s1.extent_s(), s2.extent_s()) if e is not None]
    lo = min((e[0] for e in extents), default=None)
    hi = max((e[1] for e in extents), default=None)
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
            t0_s=t0, t1_s=t1, baseline_t0_s=b0,
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
    return s.slice_time_s(trial.baseline_t0_s, trial.t0_s)
