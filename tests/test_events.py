from __future__ import annotations

import bisect
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tacloc.events import (EVENT_COLUMNS, US_PER_S, EventStream, SensorLayout,
                           crop_roi, event_rate_histogram, meander_grid,
                           sort_times)

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
            ords = sub.ordinal_array()
            assert np.all(np.diff(sub.t) >= 0)
            assert np.all(np.diff(ords) > 0)
            assert sub.time_offset_us == 250
            assert np.array_equal(sub.t, s.t[ords])
            assert np.array_equal(sub.v, s.v[ords])
            for col in (sub.t, sub.u, sub.v, sub.polarity, ords):
                assert not col.flags.writeable
                with pytest.raises(ValueError):
                    col[:1] = 0

    def test_burst_in_band_fully_retained(self):
        rng = np.random.default_rng(3)
        burst = uniform_stream(rng, 3000, camera=1, v_lo=200, v_hi=360)
        assert len(crop_roi(burst, 200, 360)) == 3000

    def test_stream_inside_band_is_returned_itself(self):
        rng = np.random.default_rng(7)
        s = uniform_stream(rng, 3000, v_lo=200, v_hi=360)
        c = crop_roi(s, 200, 360)
        assert c is s
        keep = np.flatnonzero((s.v >= 200) & (s.v <= 360))
        assert np.array_equal(c.ordinal_array(), keep)
        sub = s.slice_time_s(0.2, 0.7)
        assert crop_roi(sub, 200, 360) is sub


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


_SPAN = 2**32  # microseconds per high word


def _rule_of(t):
    """The high-word rule of sorted Python-int times, one event at a time:
    the start index and high word of each run that shares one."""
    starts, highs = [], []
    for i, x in enumerate(t):
        if not highs or x >> 32 != highs[-1]:
            starts.append(i)
            highs.append(x >> 32)
    return starts, highs


def _assert_holds_times(s, t):
    """``s`` holds exactly the sorted Python-int times ``t``: as its int64
    column, as uint32 low words and as the canonical high-word rule."""
    assert s.t.dtype == np.int64 and not s.t.flags.writeable
    assert s.t.tolist() == t
    assert s.t_low.dtype == np.uint32 and not s.t_low.flags.writeable
    assert s.t_low.tolist() == [x % _SPAN for x in t]
    assert (s.run_starts.tolist(), s.run_highs.tolist()) == _rule_of(t)


@st.composite
def _spanning_times(draw):
    """Sorted times that cross multiples of 2**32 us: values next to a
    boundary, anywhere in the first few spans, and anywhere up to
    2**63 - 1, so that neighbours may jump by up to 2**63 - 1; empty and
    one-event lists included."""
    value = st.one_of(
        st.builds(lambda k, d: max(0, k * _SPAN + d),
                  st.integers(0, 4), st.integers(-2, 2)),
        st.integers(0, 5 * _SPAN), st.integers(0, 2**63 - 1),
        st.just(2**63 - 1))
    return sorted(draw(st.lists(value, max_size=30)))


def _search_keys(t):
    """Raw-time keys before, between, at and after the events and the
    runs: each time and its neighbours, each multiple of 2**32 us in the
    first spans and its neighbours, and keys below 0 and past int64."""
    return sorted({-2**64, -1, 0, 2**63 - 1, 2**63, 2**64}
                  | {x + d for x in t for d in (-1, 0, 1)}
                  | {k * _SPAN + d for k in range(7) for d in (-1, 0, 1)})


@settings(max_examples=300, deadline=None)
@given(t=_spanning_times(), seed=st.integers(0, 2**32 - 1),
       offset=st.integers(-2**40, 2**40), data=st.data())
@example(t=[], seed=0, offset=0, data=None)
@example(t=[2**63 - 1], seed=0, offset=-5, data=None)
@example(t=[0, 2**63 - 1], seed=0, offset=0, data=None)
@example(t=[_SPAN - 1, _SPAN, 2 * _SPAN, 2 * _SPAN + 1], seed=0, offset=3,
         data=None)
def test_time_rule_matches_the_int64_column(t, seed, offset, data):
    n = len(t)
    rng = np.random.default_rng(seed)
    t64 = np.array(t, dtype=np.int64)
    # the constructor sorts a shuffled column before it builds the rule
    given_t = rng.permutation(t64) if seed % 2 else t64
    s = EventStream(1, given_t, rng.integers(0, 640, n),
                    rng.integers(0, 480, n),
                    rng.integers(0, 2, n)).with_offset_us(offset)
    _assert_holds_times(s, t)
    assert len(s.run_starts) <= n
    # the int64 arithmetic of the column, wrapping and all
    assert s.times_us().tolist() == (t64 + offset).tolist()
    assert np.array_equal(s.times_s(), (t64 + offset) / US_PER_S)
    assert s.extent_s() == (None if not n else ((t[0] + offset) / US_PER_S,
                                                (t[-1] + offset) / US_PER_S))
    keys = _search_keys(t)
    for key in keys:
        assert s._count_before(key) == bisect.bisect_left(t, key), key
    pairs = ([(keys[0], keys[-1])] if data is None else
             data.draw(st.lists(st.tuples(st.sampled_from(keys),
                                          st.sampled_from(keys)),
                                min_size=1, max_size=4)))
    for k0, k1 in pairs:
        t0_s, t1_s = k0 / US_PER_S, k1 / US_PER_S
        i0, i1 = (bisect.bisect_left(t, int(round(x * US_PER_S)) - offset)
                  for x in (t0_s, t1_s))
        sub = s.slice_time_s(t0_s, t1_s)
        _assert_holds_times(sub, t[i0:i1])
        assert sub.ordinal_array().tolist() == list(range(i0, i1))
        assert sub.time_offset_us == offset
        cropped = crop_roi(sub, 200, 360)
        keep = [i for i in range(i0, i1) if 200 <= s.v[i] <= 360]
        _assert_holds_times(cropped, [t[i] for i in keep])
        assert cropped.ordinal_array().tolist() == keep
    mask = rng.random(n) < rng.random()
    for sub, keep in ((s.subset(mask), np.flatnonzero(mask)),
                      (crop_roi(s, 200, 360),
                       np.flatnonzero((s.v >= 200) & (s.v <= 360)))):
        _assert_holds_times(sub, [t[i] for i in keep])
        assert sub.ordinal_array().tolist() == keep.tolist()
        assert sub.times_us().tolist() == (t64[keep] + offset).tolist()
    moved = s.with_offset_us(offset + 7)
    assert moved.t_low is s.t_low and moved.run_highs is s.run_highs
    assert moved.times_us().tolist() == (t64 + offset + 7).tolist()


def test_slice_time_s_allocates_nothing_per_event():
    # a Python-int or int64 key would make np.searchsorted cast the
    # uint32 low words to int64, 16 MB per call here
    s = uniform_stream(np.random.default_rng(8), 2_000_000, t_span_s=100.0)
    windows = np.linspace(0.0, 99.0, 200)
    tracemalloc.start()
    try:
        for a in windows:
            s.slice_time_s(a, a + 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_from_blocks_reads_any_block_source():
    # any callable that yields (bytes read, columns) blocks is a source; a
    # source out of time order is read a second time, through the gate
    rng = np.random.default_rng(7)
    n, per = 1000, 300
    cols = [np.sort(rng.integers(0, 10**6, n)), rng.integers(0, 640, n),
            rng.integers(0, 480, n), rng.integers(0, 256, n)]
    for shuffled in (False, True):
        if shuffled:
            cols = [c[rng.permutation(n)] for c in cols]
        calls = []

        def blocks():
            calls.append(None)
            for i in range(0, n, per):
                yield min(i + per, n) * 16, [c[i:i + per] for c in cols]

        whole = EventStream(2, *cols)
        for roi in (None, (200, 360)):
            calls.clear()
            got = EventStream.from_blocks(2, blocks, n * 16, roi)
            want = whole if roi is None else crop_roi(whole, *roi)
            assert len(calls) == 1 + shuffled
            assert got.camera_id == 2 and len(got) == len(want) > 0
            for name in ("t", "u", "v", "polarity"):
                assert np.array_equal(getattr(got, name), getattr(want, name))
            assert np.array_equal(got.ordinal_array(), want.ordinal_array())
        with pytest.raises(ValueError, match="invalid ROI"):
            EventStream.from_blocks(2, blocks, n * 16, (360, 200))


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
