from __future__ import annotations

import numpy as np
import pytest

from tacloc.geometry import project_point
from tacloc.ingest import make_schedule
from tacloc.synth import RateProfile, SynthSpec, generate

from .conftest import small_layout


def make_spec(seed=0, cols=3, rows=2, reps=1, **kw):
    layout = small_layout(cols, rows, reps)
    schedule = make_schedule(layout, period_s=1.5, repetitions=reps)
    defaults = dict(burst_events_per_press_per_camera=1500.0,
                    background_rate_per_camera=400.0)
    defaults.update(kw)
    return SynthSpec(layout=layout, schedule=schedule, seed=seed, **defaults)


class TestRateProfile:
    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ValueError):
            RateProfile(0.5, 0.5, 0.5)

    def test_sample_times_in_unit_interval(self):
        rng = np.random.default_rng(0)
        x = RateProfile().sample_times(rng, 10_000)
        assert x.min() >= 0.0 and x.max() < 1.0

    def test_plateau_only_is_uniform(self):
        rng = np.random.default_rng(1)
        x = RateProfile(0.0, 1.0, 0.0).sample_times(rng, 50_000)
        hist, _ = np.histogram(x, bins=10, range=(0, 1))
        assert hist.min() > 0.8 * 5000


class TestGenerate:
    def test_deterministic(self):
        a1, a2, am = generate(make_spec(seed=7))
        b1, b2, bm = generate(make_spec(seed=7))
        assert np.array_equal(a1.t, b1.t) and np.array_equal(a1.u, b1.u)
        assert np.array_equal(a2.t, b2.t) and np.array_equal(a2.v, b2.v)
        assert np.array_equal(am.sources_cam1, bm.sources_cam1)

    def test_seed_changes_output(self):
        a1, _, _ = generate(make_spec(seed=7))
        b1, _, _ = generate(make_spec(seed=8))
        assert len(a1) != len(b1) or not np.array_equal(a1.t, b1.t)

    def test_manifest_attributes_every_event(self):
        s1, s2, man = generate(make_spec(seed=1))
        assert len(man.sources_cam1) == len(s1)
        assert len(man.sources_cam2) == len(s2)
        n_press = len(man.press_records)
        for src in (man.sources_cam1, man.sources_cam2):
            assert src.min() >= -2 - 2  # taps encoded below -2
            assert src.max() < n_press

    def test_burst_centering(self):
        spec = make_spec(seed=2, background_rate_per_camera=0.0, cols=1, rows=1,
                         burst_events_per_press_per_camera=3000.0)
        s1, s2, man = generate(spec)
        rec = man.press_records[0]
        for cam, stream, sources in ((1, s1, man.sources_cam1),
                                     (2, s2, man.sources_cam2)):
            sel = sources == 0
            u = stream.u[sel].astype(float)
            n = sel.sum()
            want = rec[f"center_u_cam{cam}"]
            assert abs(u.mean() - want) < 3 * spec.sigma_u_px / np.sqrt(n) + 0.05
            t = stream.times_s()[sel]
            assert t.min() >= rec["onset_s"] - 1e-6
            assert t.max() <= rec["onset_s"] + rec["duration_s"] + 1e-6

    def test_zero_burst_only_background_and_taps(self):
        spec = make_spec(seed=3, burst_events_per_press_per_camera=0.0)
        s1, _, man = generate(spec)
        assert np.all(man.sources_cam1 < 0)

    def test_zero_spread_split_mean_preserving(self):
        spec = make_spec(seed=4, sigma_u_px=0.0, cols=2, rows=1,
                         background_rate_per_camera=0.0,
                         burst_events_per_press_per_camera=8000.0)
        s1, _, man = generate(spec)
        rec = man.press_records[0]
        sel = man.sources_cam1 == 0
        u = s1.u[sel].astype(float)
        assert len(np.unique(u)) <= 2
        assert abs(u.mean() - rec["center_u_cam1"]) < 1.0 / len(u) + 1e-9

    def test_zero_spread_round_mode(self):
        spec = make_spec(seed=4, sigma_u_px=0.0, burst_u_quantize="round",
                         cols=2, rows=1, background_rate_per_camera=0.0)
        s1, _, man = generate(spec)
        sel = man.sources_cam1 == 0
        assert len(np.unique(s1.u[sel])) == 1

    def test_polarity_on_during_rise_off_during_fall(self):
        spec = make_spec(seed=5, background_rate_per_camera=0.0, cols=1, rows=1,
                         rate_profile=RateProfile(0.3, 0.3, 0.4))
        s1, _, man = generate(spec)
        rec = man.press_records[0]
        sel = man.sources_cam1 == 0
        rel = (s1.times_s()[sel] - rec["onset_s"]) / rec["duration_s"]
        pol = s1.polarity[sel]
        assert np.all(pol[rel < 0.6] == 1)
        assert np.all(pol[rel > 0.6] == 0)

    def test_tap_bursts_visible_in_rate_histogram(self):
        from tacloc.events import event_rate_histogram
        spec = make_spec(seed=6)
        s1, _, man = generate(spec)
        hist = event_rate_histogram(s1, 0.010)
        thr = 5 * np.median(hist.rates)
        starts = hist.bin_starts_s[hist.rates > thr]
        for tap in man.tap_times_s:
            assert np.any(np.abs(starts - tap) < 0.05)

    def test_cam2_offset_applied(self):
        base = make_spec(seed=8)
        off = make_spec(seed=8, cam2_extra_offset_s=0.5)
        _, s2a, _ = generate(base)
        _, s2b, _ = generate(off)
        assert np.array_equal(s2b.t, s2a.t + 500_000)

    def test_projected_center_matches_geometry(self):
        spec = make_spec(seed=9, background_rate_per_camera=0.0,
                         press_offset_sigma_px=0.0)
        _, _, man = generate(spec)
        for i, rec in enumerate(man.press_records):
            gt = spec.schedule.ground_truth_mm[i]
            want = project_point(spec.models[0], gt)
            assert rec["center_u_cam1"] == pytest.approx(want, abs=1e-9)

    def test_press_offsets_change_centers(self):
        spec = make_spec(seed=10, press_offset_sigma_px=2.0,
                         background_rate_per_camera=0.0)
        _, _, man = generate(spec)
        gt = spec.schedule.ground_truth_mm
        deltas = [rec["center_u_cam1"] - project_point(spec.models[0], gt[i])
                  for i, rec in enumerate(man.press_records)]
        assert np.std(deltas) > 0.5

    def test_secondary_blob_fraction(self):
        spec = make_spec(seed=11, secondary_blob_frac=0.3,
                         secondary_blob_offset_px=40.0,
                         background_rate_per_camera=0.0, cols=1, rows=1,
                         burst_events_per_press_per_camera=20_000.0)
        s1, _, man = generate(spec)
        rec = man.press_records[0]
        sel = man.sources_cam1 == 0
        u = s1.u[sel].astype(float)
        far = (u > rec["center_u_cam1"] + 20).mean()
        assert far == pytest.approx(0.3, abs=0.02)


def test_end_to_end_small_grid_oracle():
    # noise-free bursts triangulate back to the grid within 1 mm
    layout = small_layout(5, 4)
    schedule = make_schedule(layout, period_s=1.5, repetitions=1)
    spec = SynthSpec(layout=layout, schedule=schedule, seed=12,
                     burst_events_per_press_per_camera=500.0,
                     sigma_u_px=2.0, background_rate_per_camera=0.0)
    s1, s2, man = generate(spec)
    from tacloc import pipeline
    from tacloc.ingest import RunConfig
    cfg = RunConfig(layout=layout, schedule=schedule)
    prepared = pipeline.prepare_run(s1, s2, cfg)
    report, results, _ = pipeline.run_localization(prepared, cfg)
    assert report.n_valid == 20
    d = results.est_mm[results.valid] - results.gt_mm[results.valid]
    errs = np.hypot(d[:, 0], d[:, 1])
    assert max(errs) < 1.0
