from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tacloc.events import (EventStream, SensorLayout, crop_roi,
                           event_rate_histogram, meander_grid)

from .conftest import uniform_stream


def stream_from_rows(rows, camera=1):
    rows = np.asarray(rows)
    return EventStream(camera, rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3])


class TestEventStream:
    def test_sorts_and_validates(self):
        s = stream_from_rows([[30, 1, 2, 1], [10, 3, 4, 0], [20, 5, 6, 1]])
        assert list(s.t) == [10, 20, 30]
        assert list(s.u) == [3, 5, 1]

    def test_stable_for_ties(self):
        s = stream_from_rows([[10, 1, 0, 0], [10, 2, 0, 0], [5, 3, 0, 0]])
        assert list(s.u) == [3, 1, 2]

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            stream_from_rows([[10, 640, 0, 0]])
        with pytest.raises(ValueError):
            stream_from_rows([[10, 0, 480, 0]])
        with pytest.raises(ValueError):
            stream_from_rows([[-1, 0, 0, 0]])

    def test_immutable(self):
        s = stream_from_rows([[10, 1, 2, 1]])
        with pytest.raises(ValueError):
            s.t[0] = 5

    def test_offset_changes_aligned_times_only(self):
        s = stream_from_rows([[1_000_000, 1, 2, 1]])
        shifted = s.with_offset_us(500_000)
        assert shifted.t[0] == 1_000_000
        assert shifted.times_s()[0] == pytest.approx(1.5)


class TestCropRoi:
    def test_band_membership(self):
        s = stream_from_rows([[1, 0, 150, 0], [2, 0, 250, 0], [3, 0, 400, 0]])
        c = crop_roi(s, 200, 360)
        assert list(c.v) == [250]
        assert c.roi == (200, 360)

    def test_full_band_is_identity(self):
        rng = np.random.default_rng(0)
        s = uniform_stream(rng, 500)
        c = crop_roi(s, 0, 479)
        assert len(c) == len(s)
        assert np.array_equal(c.t, s.t)

    def test_invalid_bounds(self):
        s = stream_from_rows([[1, 0, 150, 0]])
        with pytest.raises(ValueError):
            crop_roi(s, 300, 200)
        with pytest.raises(ValueError):
            crop_roi(s, -1, 100)

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        s = uniform_stream(rng, 2000)
        once = crop_roi(s, 200, 360)
        twice = crop_roi(once, 200, 360)
        assert np.array_equal(once.t, twice.t)
        assert np.array_equal(once.ordinal_array(), twice.ordinal_array())

    def test_noise_retention_fraction(self):
        # band is 161 of 480 rows; a uniform-v background keeps ~33.5%
        rng = np.random.default_rng(2)
        n = 40_000
        s = uniform_stream(rng, n)
        kept = len(crop_roi(s, 200, 360))
        p = 161.0 / 480.0
        sigma = np.sqrt(n * p * (1 - p))
        assert abs(kept - n * p) < 4 * sigma

    def test_burst_in_band_fully_retained(self):
        rng = np.random.default_rng(3)
        burst = uniform_stream(rng, 3000, camera=1, v_lo=200, v_hi=360)
        assert len(crop_roi(burst, 200, 360)) == 3000


class TestRateHistogram:
    def test_uniform_density(self):
        t = np.arange(100) * 10_000  # 100 events over 1 s
        s = EventStream(1, t, np.zeros(100), np.zeros(100), np.zeros(100))
        h = event_rate_histogram(s, 0.010)
        assert len(h) == 100
        assert np.all(h.counts == 1)
        assert np.allclose(h.rates, 100.0)

    def test_single_event(self):
        s = stream_from_rows([[123, 1, 2, 1]])
        h = event_rate_histogram(s, 0.010)
        assert len(h) == 1
        assert h.rates[0] == pytest.approx(100.0)

    def test_empty_stream(self):
        s = EventStream(1, [], [], [], [])
        h = event_rate_histogram(s, 0.010)
        assert len(h) == 0

    def test_poisson_rate_recovery(self):
        lam = 5000.0
        rng = np.random.default_rng(4)
        n = rng.poisson(lam * 10.0)
        t = np.sort(rng.integers(0, 10_000_000, n))
        s = EventStream(1, t, np.zeros(n), np.zeros(n), np.zeros(n))
        h = event_rate_histogram(s, 0.010)
        sigma_bin = np.sqrt(lam * 0.010) / 0.010
        assert abs(h.rates.mean() - lam) < 3 * sigma_bin

    def test_count_conservation(self):
        rng = np.random.default_rng(5)
        s = uniform_stream(rng, 3333)
        h = event_rate_histogram(s, 0.007)
        assert h.total_events == len(s)

    def test_cropped_bins_never_exceed_uncropped(self):
        rng = np.random.default_rng(6)
        s = uniform_stream(rng, 5000)
        c = crop_roi(s, 200, 360)
        h_full = event_rate_histogram(s, 0.010)
        h_crop = event_rate_histogram(c, 0.010)
        # align cropped bins into the full series by start time
        off = int(round((h_crop.t0_s - h_full.t0_s) / h_full.bin_s))
        for i, cnt in enumerate(h_crop.counts):
            assert cnt <= h_full.counts[off + i]


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 10_000_000), st.integers(0, 639),
                          st.integers(0, 479), st.integers(0, 1)),
                min_size=1, max_size=200),
       st.sampled_from([0.001, 0.01, 0.13]))
def test_histogram_conservation_property(rows, bin_s):
    s = stream_from_rows(rows)
    h = event_rate_histogram(s, bin_s)
    assert h.total_events == len(rows)
    assert np.isclose((h.rates * h.bin_s).sum(), len(rows))


class TestSensorLayout:
    def test_default_meander(self):
        layout = SensorLayout()
        assert layout.n_presses == 250
        assert layout.grid_points.shape == (250, 2)
        pts = layout.grid_points
        assert np.all(pts >= 0) and np.all(pts <= 100)
        # serpentine: row transitions keep x continuous
        assert pts[24, 0] == pts[25, 0]

    def test_rejects_out_of_square(self):
        with pytest.raises(ValueError):
            SensorLayout(grid_points=np.array([[0.0, 120.0]]))

    def test_meander_spacing(self):
        g = meander_grid(cols=3, rows=2, spacing_mm=4.0, origin_mm=(0.0, 0.0))
        assert g.tolist() == [[0, 0], [4, 0], [8, 0], [8, 4], [4, 4], [0, 4]]
