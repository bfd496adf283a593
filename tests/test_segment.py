from __future__ import annotations

import numpy as np
import pytest

from tacloc.events import EventStream
from tacloc.ingest import PressSchedule, make_schedule
from tacloc.segment import press_events, segment_by_schedule
from tacloc.synth import SynthSpec, generate

from .conftest import small_layout


def simulated(seed=0, reps=1, cols=5, rows=4, period=1.5, **kw):
    layout = small_layout(cols, rows, reps)
    schedule = make_schedule(layout, period_s=period, repetitions=reps)
    defaults = dict(burst_events_per_press_per_camera=1200.0,
                    background_rate_per_camera=500.0)
    defaults.update(kw)
    spec = SynthSpec(layout=layout, schedule=schedule, seed=seed, **defaults)
    s1, s2, man = generate(spec)
    return layout, schedule, spec, s1, s2, man


class TestSegmentBySchedule:
    def test_one_trial_per_entry_and_windows(self):
        layout, schedule, spec, s1, s2, man = simulated()
        trials = segment_by_schedule(s1, s2, schedule, baseline_s=0.3,
                                     anchor_s=spec.tap_start_s)
        assert len(trials) == len(schedule)
        for tr, onset in zip(trials, schedule.onsets_s):
            assert tr.t0_s == pytest.approx(spec.tap_start_s + onset)
            assert tr.t1_s - tr.t0_s == pytest.approx(layout.press_duration_s)
            assert not tr.missing

    def test_slices_contain_own_burst_only(self):
        layout, schedule, spec, s1, s2, man = simulated(seed=4)
        trials = segment_by_schedule(s1, s2, schedule, baseline_s=0.3,
                                     anchor_s=spec.tap_start_s)
        # map event ordinals to generating sources via the truth manifest
        for i, tr in enumerate(trials):
            for cam, sources, stream in ((1, man.sources_cam1, s1),
                                         (2, man.sources_cam2, s2)):
                ev = press_events(tr, cam)
                src = sources[ev.ordinal_array()]
                burst = src[src >= 0]
                assert np.all(burst == i), f"trial {i} cam {cam}"
        # every burst event lands in its own trial's press window
        counted = sum(
            int((man.sources_cam1[press_events(t, 1).ordinal_array()] >= 0).sum())
            for t in trials)
        assert counted == int((man.sources_cam1 >= 0).sum())

    def test_onset_past_stream_end_flagged_missing(self):
        layout, schedule, spec, s1, s2, man = simulated(seed=5)
        long_schedule = PressSchedule(
            np.append(schedule.onsets_s, 10_000.0),
            schedule.press_duration_s,
            np.vstack([schedule.ground_truth_mm, [[50.0, 50.0]]]),
            np.append(schedule.press_index, 0),
            np.append(schedule.repetition, 1),
        )
        trials = segment_by_schedule(s1, s2, long_schedule, baseline_s=0.3,
                                     anchor_s=spec.tap_start_s)
        assert [t.missing for t in trials] == [False] * len(schedule) + [True]

    def test_empty_streams_produce_empty_trials(self):
        layout = small_layout()
        schedule = make_schedule(layout, repetitions=1)
        empty = EventStream(1, [], [], [], [])
        trials = segment_by_schedule(empty, empty, schedule)
        assert len(trials) == len(schedule)
        assert all(not t.missing for t in trials)
        assert all(len(t.events_cam1) == 0 for t in trials)

    def test_no_event_in_two_press_windows(self):
        layout, schedule, spec, s1, s2, man = simulated(seed=6)
        trials = segment_by_schedule(s1, s2, schedule, baseline_s=0.3,
                                     anchor_s=spec.tap_start_s)
        seen = np.zeros(len(s1), dtype=np.int32)
        for tr in trials:
            seen[press_events(tr, 1).ordinal_array()] += 1
        assert seen.max() <= 1

    def test_baseline_clipped_to_previous_window(self):
        layout = small_layout()
        schedule = make_schedule(layout, onset0_s=1.0, period_s=0.6,
                                 repetitions=1)
        empty = EventStream(1, [], [], [], [])
        trials = segment_by_schedule(empty, empty, schedule, baseline_s=0.3)
        for prev, tr in zip(trials, trials[1:]):
            assert tr.baseline_t0_s >= prev.t1_s - 1e-12
