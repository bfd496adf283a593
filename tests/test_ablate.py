from __future__ import annotations

import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tacloc import ablate
from tacloc.ablate import keep_mask, run_sweep, thin
from tacloc.cluster import weigh
from tacloc.events import EventStream, crop_roi
from tacloc.ingest import RunConfig, make_schedule
from tacloc.metrics import UndefinedMetricError, empty_report
from tacloc.segment import press_events, segment_by_schedule
from tacloc.synth import SynthSpec, generate
from tacloc import pipeline

from .conftest import small_layout, uniform_stream


class TestThin:
    def test_identity_at_k1(self):
        rng = np.random.default_rng(0)
        s = uniform_stream(rng, 1000)
        assert thin(s, 1, seed=5) is s

    def test_binomial_bounds(self):
        rng = np.random.default_rng(1)
        n = 1_000_000
        s = uniform_stream(rng, n)
        for k in (4, 64, 1024):
            kept = len(thin(s, k, seed=2))
            mean = n / k
            sigma = np.sqrt(n * (1 / k) * (1 - 1 / k))
            assert abs(kept - mean) < 4 * sigma, f"k={k}"

    def test_subsequence_property(self):
        rng = np.random.default_rng(2)
        s = uniform_stream(rng, 5000)
        t = thin(s, 4, seed=3)
        ords = t.ordinal_array()
        assert np.all(np.diff(ords) > 0)
        assert np.array_equal(t.t, s.t[ords])
        assert np.array_equal(t.u, s.u[ords])

    def test_reproducible(self):
        rng = np.random.default_rng(3)
        s = uniform_stream(rng, 20_000)
        a = thin(s, 16, seed=9)
        b = thin(s, 16, seed=9)
        assert np.array_equal(a.t, b.t)
        c = thin(s, 16, seed=10)
        assert len(c) != len(a) or not np.array_equal(a.t, c.t)

    def test_commutes_with_crop(self):
        rng = np.random.default_rng(4)
        s = uniform_stream(rng, 50_000)
        a = crop_roi(thin(s, 8, seed=1), 200, 360)
        b = thin(crop_roi(s, 200, 360), 8, seed=1)
        assert np.array_equal(a.ordinal_array(), b.ordinal_array())
        assert np.array_equal(a.t, b.t)
        assert np.array_equal(a.u, b.u)

    def test_cameras_thin_independently(self):
        rng = np.random.default_rng(5)
        t = np.sort(rng.integers(0, 10_000_000, 10_000))
        u = rng.integers(0, 640, 10_000)
        v = rng.integers(0, 480, 10_000)
        p = rng.integers(0, 2, 10_000)
        s1 = EventStream(1, t, u, v, p)
        s2 = EventStream(2, t, u, v, p)
        m1 = keep_mask(7, 1, s1.ordinal_array(), 4)
        m2 = keep_mask(7, 2, s2.ordinal_array(), 4)
        assert not np.array_equal(m1, m2)

    @pytest.mark.parametrize("seed", [0, -1, 2**63])
    def test_keep_masks_nest_in_k(self, seed):
        # an event kept at k2 is kept at every k1 <= k2, so the sweep can
        # hash once and compare against each factor's threshold
        ords = np.arange(200_000, dtype=np.int64)
        factors = [1, 2, 3, 4, 7, 64, 1000, 1024, 4096, 2**20]
        for camera in (1, 2):
            masks = [keep_mask(seed, camera, ords, k) for k in factors]
            assert masks[0].all()
            for wide, narrow in zip(masks, masks[1:]):
                assert not (narrow & ~wide).any()
            assert masks[-2].any()

    def test_rejects_bad_k(self):
        rng = np.random.default_rng(6)
        s = uniform_stream(rng, 10)
        with pytest.raises(ValueError):
            thin(s, 0, seed=0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5000),
       st.sampled_from([0, 1, -1, 2**63, 2**64 - 1, 12345]),
       st.lists(st.integers(2, 5000), min_size=1, max_size=5, unique=True),
       st.integers(1, 2))
def test_thinned_counts_equal_thinning_events(stream_seed, n, seed, factors,
                                              camera):
    # each factor's multiplicities, taken from one count over (pixel,
    # thresholds below the hash), are the pixel counts of the stream that
    # thin() keeps; a small box puts many events on each pixel
    rng = np.random.default_rng(stream_seed)
    s = uniform_stream(rng, n, camera=camera, v_lo=200, v_hi=205)
    s = s._subset(s.u < 12)
    factors = sorted(factors)
    ws, inverse = weigh(s.u, s.v, return_inverse=True)
    tops = np.array([ablate._keep_below(k) for k in reversed(factors)],
                    dtype=np.uint64)
    h = ablate._event_hash(seed, camera, s.ordinal_array())
    got = list(ablate._thinned_counts(ws, inverse, h, tops))
    assert len(got) == len(factors)
    for k, thinned in zip(reversed(factors), got):
        kept = thin(s, k, seed)
        want = weigh(kept.u, kept.v)
        for a, b in ((thinned.du + thinned.origin[0], want.du + want.origin[0]),
                     (thinned.dv + thinned.origin[1], want.dv + want.origin[1]),
                     (thinned.mult, want.mult)):
            assert np.array_equal(a, b), k
        assert (thinned.box, thinned.origin) == (ws.box, ws.origin)


def test_thinned_counts_keep_a_hash_at_the_threshold():
    # keep_mask keeps a hash equal to the threshold and drops one above
    # it; event i sits on pixel i
    tops = np.array([ablate._keep_below(k) for k in (64, 4)],
                    dtype=np.uint64)
    h = np.concatenate([tops, tops + np.uint64(1)])
    ws, inverse = weigh(np.arange(4), np.zeros(4, np.int64),
                        return_inverse=True)
    got = list(ablate._thinned_counts(ws, inverse, h, tops))
    for top, thinned in zip(tops, got):
        assert thinned.du.tolist() == np.flatnonzero(h <= top).tolist()
        assert (thinned.mult == 1).all()
    assert [len(t.du) for t in got] == [1, 3]


@pytest.fixture(scope="module")
def sweep_setup():
    layout = small_layout(5, 4)
    cfg = RunConfig(layout=layout,
                    schedule=make_schedule(layout, period_s=1.5, repetitions=1))
    spec = SynthSpec(layout=layout, schedule=cfg.schedule, seed=13,
                     burst_events_per_press_per_camera=4000.0,
                     sigma_u_px=0.0, burst_u_quantize="round",
                     burst_v_halfwidth_px=5.0,
                     press_offset_sigma_px=0.6,
                     background_rate_per_camera=0.0)
    s1, s2, _ = generate(spec)
    prepared = pipeline.prepare_run(s1, s2, cfg)
    report, table, _ = pipeline.run_localization(prepared, cfg)
    return prepared, cfg, report, table


def sweep_by_thinning(prepared, cfg, factors, seeds, baseline):
    """The sweep as thin -> segment -> localize of the whole recording at
    every cell: the oracle for :func:`run_sweep`. Returns the sweep and
    each thinned cell's trial reasons."""
    base_report, base_table = baseline
    ref = base_report.reference_p95_mm
    cells, reasons = [], {}
    for k in factors:
        for seed in seeds:
            if k == 1:
                cells.append(ablate.SweepCell(
                    1, seed, base_report, ablate._mean_cluster_size(base_table)))
                continue
            thinned = replace(prepared, s1=thin(prepared.s1, k, seed),
                              s2=thin(prepared.s2, k, seed))
            table = pipeline.localize_trials(pipeline.segment(thinned, cfg),
                                             cfg.camera_models, cfg.cluster)
            try:
                report = pipeline.evaluate_results(table, cfg,
                                                   reference_p95_mm=ref)
            except UndefinedMetricError:
                report = empty_report(len(table), ref)
            cells.append(ablate.SweepCell(k, seed, report,
                                          ablate._mean_cluster_size(table)))
            reasons[k, seed] = table.reason
    return ablate.AblationSweep(tuple(factors), tuple(seeds), cells, ref), reasons


class TestRunSweep:
    def test_equals_thinning_the_recording(self, sweep_setup):
        # at k = 4096 and 65536 the thinned streams end before the last
        # presses, which the oracle flags missing
        prepared, cfg, base, table = sweep_setup
        factors, seeds = [1, 4, 64, 4096, 65536], [0, 1, -1, 2**63]
        sweep = run_sweep(prepared, cfg, factors, seeds)
        want, reasons = sweep_by_thinning(prepared, cfg, factors, seeds,
                                          (base, table))
        assert "missing" not in table.reason
        assert any("missing" in r for r in reasons.values())
        assert json.dumps(sweep.csv_columns()) == json.dumps(want.csv_columns())
        assert json.dumps(sweep.curve()) == json.dumps(want.curve())
        for got, cell in zip(sweep.cells, want.cells):
            assert (got.k, got.seed) == (cell.k, cell.seed)
            assert json.dumps(got.report.to_json_dict()) \
                == json.dumps(cell.report.to_json_dict())


    def test_single_factor_equals_baseline(self, sweep_setup):
        prepared, cfg, base, table = sweep_setup
        sweep = run_sweep(prepared, cfg, [1], [0, 1])
        for cell in sweep.cells:
            assert cell.report.rmse_mm == base.rmse_mm
            assert cell.report.pass_rate_percent == base.pass_rate_percent

    def test_k1_cell_is_the_unthinned_run(self, sweep_setup):
        # the sweep takes its k = 1 cells from the baseline: thinning at
        # k = 1 and re-scoring with the baseline's p95 reproduces it
        prepared, cfg, base, table = sweep_setup
        trials = segment_by_schedule(thin(prepared.s1, 1, 3), thin(prepared.s2, 1, 3),
                                     cfg.schedule, baseline_s=cfg.baseline_s,
                                     anchor_s=prepared.anchor_s)
        again = pipeline.localize_trials(trials, cfg.camera_models,
                                         cfg.cluster)
        rescored = pipeline.evaluate_results(
            again, cfg, reference_p95_mm=base.reference_p95_mm)
        assert json.dumps(rescored.to_json_dict()) \
            == json.dumps(base.to_json_dict())
        for col in ("centroid_u", "cluster_size", "est_mm", "valid"):
            np.testing.assert_array_equal(getattr(again, col),
                                          getattr(table, col))
        assert again.reason == table.reason
        assert ablate._mean_cluster_size(again) == ablate._mean_cluster_size(table)

    def test_curve_non_increasing_within_noise(self, sweep_setup):
        prepared, cfg, base, table = sweep_setup
        sweep = run_sweep(prepared, cfg, [1, 4, 16, 64], [0, 1, 2])
        curve = sweep.curve()
        base_rate = curve[0]["pass_rate_mean"]
        for row in curve[1:]:
            slack = 2 * max(row["pass_rate_sd"], 0.10)
            assert row["pass_rate_mean"] <= base_rate + slack

    def test_csv_rows_complete(self, sweep_setup):
        prepared, cfg, base, table = sweep_setup
        sweep = run_sweep(prepared, cfg, [1, 8], [0])
        cols = sweep.csv_columns()
        assert len(cols["k"]) == 2
        assert set(cols["k"]) == {1, 8}
        assert all(len(cols[c]) == 2 for c in ("rmse_mm", "pass_rate_percent"))

    def test_all_excluded_cell_recorded_not_raised(self, sweep_setup):
        # a factor harsh enough to kill every cluster must still produce
        # a sweep row (pass rate 0), not abort the sweep
        prepared, cfg, base, table = sweep_setup
        sweep = run_sweep(prepared, cfg, [1, 4096], [0])
        dead = [c for c in sweep.cells if c.k == 4096][0]
        assert dead.report.n_valid == 0
        assert dead.report.pass_rate_percent == 0.0
        assert np.isnan(dead.report.rmse_mm)

    def test_mean_cluster_size_scales_inversely(self, sweep_setup):
        prepared, cfg, base, table = sweep_setup
        sweep = run_sweep(prepared, cfg, [1, 4], [0])
        sizes = {c.k: c.mean_cluster_size for c in sweep.cells}
        ratio = sizes[1] / sizes[4]
        sigma = 4 / np.sqrt(sizes[4])
        assert abs(ratio - 4.0) < 3 * sigma

    def test_memory_is_per_press_set(self):
        # every event lies in the band, as in the criterion-5 bursts, so
        # the prepared streams are the generated ones: a per-event array
        # held across press sets (an inverse, an ordinal array per time
        # slice) would cost 8 bytes per press event each
        layout = small_layout(5, 4)
        cfg = RunConfig(layout=layout, schedule=make_schedule(
            layout, period_s=1.5, repetitions=1))
        spec = SynthSpec(layout=layout, schedule=cfg.schedule, seed=5,
                         burst_events_per_press_per_camera=28000.0,
                         sigma_u_px=0.0, burst_u_quantize="round",
                         burst_v_halfwidth_px=5.0,
                         press_offset_sigma_px=0.72,
                         secondary_blob_frac=0.315,
                         secondary_blob_offset_px=11.5,
                         background_rate_per_camera=0.0)
        s1, s2, _ = generate(spec)
        prepared = pipeline.prepare_run(s1, s2, cfg)
        assert prepared.s1.t_low is s1.t_low and prepared.s2.t_low is s2.t_low
        n_press = sum(len(press_events(t, cam))
                      for t in pipeline.segment(prepared, cfg)
                      for cam in (1, 2))
        assert n_press >= 500_000
        tracemalloc.start()
        try:
            run_sweep(prepared, cfg, [1, 4, 64, 1024], [0, 1])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * n_press + 4e6
