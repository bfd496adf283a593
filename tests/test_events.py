from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tacloc.events import (EVENT_COLUMNS, EventStream, SensorLayout, crop_roi,
                           event_rate_histogram, meander_grid, sort_times)

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
        for t in ([[1, 2]], [[1.0, 2.0]]):
            with pytest.raises(ValueError, match="^column t_us must be one-"):
                EventStream(1, t, [[0, 0]], [[0, 0]], [[0, 0]])

    # each value a cast to the stored dtype used to wrap or truncate, and
    # values no int64 column can hold
    @pytest.mark.parametrize("column, value, name", [
        (1, 65541, "u"), (2, 65546, "v"), (3, 256, "polarity"),
        (0, -1, "t_us"), (0, 0.5, "t_us"), (0, 0.7, "t_us"),
        (1, float("nan"), "u"), (0, 2**64, "t_us"),
        (0, float(2**63), "t_us"), (1, -2**70, "u"),
        # a list that numpy holds as float64 is named by its exact int
        (0, 2**63, "t_us")])
    def test_refuses_what_the_cast_would_change(self, column, value, name):
        cols = [[10, 20], [1, 2], [3, 4], [0, 1]]
        cols[column] = [cols[column][0], value]
        with pytest.raises(ValueError, match=rf"^column {name} value "
                           rf"{re.escape(str(value))} outside \["):
            EventStream(1, *cols)

    def test_stores_whole_floats_and_unsigned_columns(self):
        s = EventStream(1, [10.0, 2.0**62], np.array([639, 0], np.uint16),
                        [479.0, 0.0], np.array([255, 0], np.uint64))
        assert s.t.tolist() == [10, 2**62]
        assert s.u.tolist() == [639, 0] and s.v.tolist() == [479, 0]
        assert s.polarity.tolist() == [255, 0]
        # an int item beside a float, which float64 would round to 2**63
        # (refused) or to 2**62
        for t in ([0.0, 2**63 - 1], (0.0, 2**62 + 1)):
            s = EventStream(1, t, [0, 0], [0, 0], [0, 0])
            assert s.t.tolist() == [0, t[1]]

    def test_sorts_tied_times_stably_with_one_packed_sort(self, monkeypatch):
        rng = np.random.default_rng(3)
        n = 5000
        t = rng.integers(0, 50, n)  # about 100 events per timestamp
        u = rng.integers(0, 640, n)
        order = np.argsort(t, kind="stable")

        def no_argsort(*args, **kwargs):
            raise AssertionError("a span this small takes the packed sort")

        monkeypatch.setattr(np, "argsort", no_argsort)
        s = EventStream(1, t, u, np.zeros(n), np.ones(n))
        assert s.t.tolist() == t[order].tolist()
        assert s.u.tolist() == u[order].tolist()

    def test_leaves_the_callers_arrays_writable(self):
        t = np.array([10, 20, 30], dtype=np.int64)
        u = np.array([1, 2, 3], dtype=np.int16)
        s = EventStream(1, t, u, [0, 0, 0], [0, 0, 0])
        t[0] = 5
        u[0] = 7
        assert s.t.tolist() == [10, 20, 30]
        assert s.u.tolist() == [1, 2, 3]

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

    def test_crop_without_ordinals_keeps_the_indices(self):
        rng = np.random.default_rng(4)
        s = uniform_stream(rng, 3000)
        assert s.ordinals is None
        c = crop_roi(s, 200, 360)
        keep = np.flatnonzero((s.v >= 200) & (s.v <= 360))
        assert np.array_equal(c.ordinals, keep)
        for name in ("t", "u", "v", "polarity"):
            assert np.array_equal(getattr(c, name), getattr(s, name)[keep])

    def test_subsets_stay_sorted_and_read_only(self):
        rng = np.random.default_rng(5)
        s = uniform_stream(rng, 3000).with_offset_us(250)
        for sub in (crop_roi(s, 200, 360), s.slice_time_s(0.2, 0.7),
                    crop_roi(s, 200, 360).slice_time_s(0.2, 0.7),
                    crop_roi(s.slice_time_s(0.2, 0.7), 200, 360)):
            assert np.all(np.diff(sub.t) >= 0)
            assert np.all(np.diff(sub.ordinals) > 0)
            assert sub.time_offset_us == 250
            assert np.array_equal(sub.t, s.t[sub.ordinals])
            assert np.array_equal(sub.v, s.v[sub.ordinals])
            for col in (sub.t, sub.u, sub.v, sub.polarity, sub.ordinals):
                assert not col.flags.writeable
                with pytest.raises(ValueError):
                    col[:1] = 0

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
        assert h.counts.sum() == len(s)

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
    assert h.counts.sum() == len(rows)
    assert np.isclose((h.rates * h.bin_s).sum(), len(rows))


@st.composite
def _int64_columns(draw):
    """Four equal-length int64 columns: mostly values every column holds,
    with some cells set to any int64."""
    n = draw(st.integers(0, 12))
    cols = [draw(st.lists(st.integers(0, 255), min_size=n, max_size=n))
            for _ in range(4)]
    for _ in range(draw(st.integers(0, 2)) if n else 0):
        k, i = draw(st.integers(0, 3)), draw(st.integers(0, n - 1))
        cols[k][i] = draw(st.integers(-2**63, 2**63 - 1))
    return cols


@settings(max_examples=200, deadline=None)
@given(_int64_columns())
def test_gate_refuses_or_stores_exactly(cols):
    # any int64 columns are refused naming a column that holds a value
    # outside its range, or stored as given (sorted by time)
    arrays = [np.array(c, dtype=np.int64) for c in cols]
    try:
        s = EventStream(1, *arrays)
    except ValueError as exc:
        m = re.fullmatch(r"column (\w+) value (-?\d+) outside \[(\d+), (\d+)\]",
                         str(exc))
        assert m
        k = [name for name, *_ in EVENT_COLUMNS].index(m[1])
        _, lo, hi, _ = EVENT_COLUMNS[k]
        assert (int(m[3]), int(m[4])) == (lo, hi)
        assert int(m[2]) in cols[k] and not lo <= int(m[2]) <= hi
        return
    for (_, lo, hi, _), c in zip(EVENT_COLUMNS, cols):
        assert all(lo <= x <= hi for x in c)
    order = np.argsort(arrays[0], kind="stable")
    for got, want in zip((s.t, s.u, s.v, s.polarity), arrays):
        assert got.tolist() == want[order].tolist()


@st.composite
def _tied_times(draw):
    """At least two heavily tied int64 times whose span is 3, one less
    than the bound below which ``sort_times`` packs, or that bound."""
    n = draw(st.integers(2, 60))
    bound = 1 << (63 - n.bit_length())
    span = draw(st.sampled_from([3, bound - 1, bound]))
    t0 = draw(st.integers(-2**63, 2**63 - 1 - span))
    offsets = draw(st.lists(st.sampled_from([0, 1, 2, span // 2, span]),
                            min_size=n - 2, max_size=n - 2))
    for end in (0, span):
        offsets.insert(draw(st.integers(0, len(offsets))), end)
    return np.array([t0 + x for x in offsets], dtype=np.int64)


@settings(max_examples=200, deadline=None)
@given(_tied_times())
@example(np.zeros(0, dtype=np.int64))
@example(np.array([-2**63]))
@example(np.array([2**63 - 1]))
def test_sort_times_is_the_stable_argsort(t):
    order = np.argsort(t, kind="stable")
    got_t, got_order = sort_times(t)
    assert got_order.tolist() == order.tolist()
    assert got_t.tolist() == t[order].tolist()


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
