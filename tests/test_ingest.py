from __future__ import annotations

import dataclasses
import gc
import json
import logging
import re
import struct
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from tacloc import ingest
from tacloc.ablate import thin
from tacloc.cluster import DbscanParams
from tacloc.events import (DEFAULT_ROI, EVENT_COLUMNS, EventStream,
                           SensorLayout, US_PER_S, crop_roi)
from tacloc.ingest import (_LINES_PER_BLOCK, _RECORD_DTYPE,
                           _RECORDS_PER_BLOCK, FormatError,
                           PressSchedule, SyncError, SyncSpec, align_streams,
                           RunConfig, config_from_dict, detect_sync_taps,
                           load_config, make_schedule, read_events,
                           write_events)
from tacloc.latency import CusumParams
from tacloc.synth import RateProfile, SynthSpec, generate, spec_from_config

from .conftest import small_layout, uniform_stream


_EVT_SIZE = 16 + 16 * 4  # the 4-record file of the binary fault test


@st.composite
def _evt_faults(draw):
    """One fault of a 4-record .evt file, as (start, stop, data): the
    file's bytes[start:stop] are replaced by data. The file is truncated,
    1 to 15 bytes are appended, or the magic, version, record count or
    one field of one record is overwritten."""
    part = draw(st.sampled_from(["truncate", "append", "magic", "version",
                                 "count", *_RECORD_DTYPE.names]))
    if part == "truncate":
        return draw(st.integers(0, _EVT_SIZE - 1)), _EVT_SIZE, b""
    if part == "append":
        return _EVT_SIZE, _EVT_SIZE, draw(st.binary(min_size=1, max_size=15))
    if part in _RECORD_DTYPE.names:
        dtype, offset = _RECORD_DTYPE.fields[part][:2]
        start, size = 16 + 16 * draw(st.integers(0, 3)) + offset, dtype.itemsize
    else:
        start, size = {"magic": (0, 4), "version": (4, 1), "count": (8, 8)}[part]
    return start, start + size, draw(st.binary(min_size=size, max_size=size))


def _evt_file(path, t, u, v, polarity):
    """Write a binary event file holding these records in this order."""
    rec = np.zeros(len(t), dtype=_RECORD_DTYPE)
    rec["t"], rec["u"], rec["v"], rec["polarity"] = t, u, v, polarity
    path.write_bytes(struct.pack("<4sB3xQ", b"EVT1", 1, len(t))
                     + rec.tobytes())


# any band; the whole sensor, the last row and the default band are drawn
_ROIS = st.one_of(
    st.sampled_from([(0, 480), (479, 480), DEFAULT_ROI]),
    st.integers(0, 479).flatmap(
        lambda lo: st.tuples(st.just(lo), st.integers(lo + 1, 480))))


@st.composite
def _roi_files(draw):
    """(block, roi, columns) of a binary file read in blocks of ``block``
    records: sorted, unsorted or with many equal times, or with every v
    inside or every v outside the band, at lengths around one block and
    across many blocks."""
    block = draw(st.sampled_from([1, 2, 3, 8]))
    roi = draw(_ROIS)
    n = draw(st.one_of(st.sampled_from([0, block - 1, block, block + 1]),
                       st.integers(0, 40)))
    kind = draw(st.sampled_from(["sorted", "unsorted", "ties", "inside",
                                 "outside"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = np.sort(rng.integers(0, 5 if kind == "ties" else 10**6, n))
    if kind == "unsorted":
        t = rng.permutation(t)
    in_band = np.arange(roi[0], min(roi[1], 479) + 1)
    rows = {"inside": in_band,
            "outside": np.setdiff1d(np.arange(480), in_band)}.get(kind)
    v = (rng.choice(rows, n) if rows is not None and len(rows)
         else rng.integers(0, 480, n))
    return block, roi, (t, rng.integers(0, 640, n), v,
                        rng.integers(0, 256, n))


def _arrays(s):
    """A stream's columns, its stored times and high-word rule, and its
    ``ordinal_array()``."""
    return (s.t, s.t_low, s.run_starts, s.run_highs, s.u, s.v, s.polarity,
            s.ordinal_array())


def _assert_same_stream(a, b):
    """Equal camera, offset, columns, stored times, high-word rule, dtypes
    and ``ordinal_array()``, and read-only columns and ordinals."""
    assert (a.camera_id, a.time_offset_us) == (b.camera_id, b.time_offset_us)
    for name, x, y in zip(("t", "t_low", "run_starts", "run_highs", "u", "v",
                           "polarity", "ordinals"), _arrays(a), _arrays(b)):
        assert x.dtype == y.dtype, name
        assert np.array_equal(x, y), name
        assert not x.flags.writeable, name


# every power-of-ten boundary a column can hold: 0, 9, 10, 99, 100, ...
_POW10_EDGES = sorted({0} | {10**k + d for k in range(1, 19) for d in (-1, 0)})


def _percent_format_csv(stream) -> bytes:
    """A CSV file's bytes as one %-format per block of rows writes them."""
    rows = np.column_stack([stream.t, stream.u, stream.v, stream.polarity])
    out = ["t_us,u,v,polarity\n"]
    for i in range(0, len(rows), _LINES_PER_BLOCK):
        block = rows[i:i + _LINES_PER_BLOCK]
        out.append("%d,%d,%d,%d\n" * len(block) % tuple(block.ravel().tolist()))
    return "".join(out).encode("ascii")


@st.composite
def _edge_streams(draw):
    """Streams whose columns mix random values under a drawn bound with
    the power-of-ten boundaries and the largest value of the column's
    range (all of them once the stream is long enough), at lengths
    around one block."""
    n = draw(st.sampled_from([0, 1, _LINES_PER_BLOCK - 1, _LINES_PER_BLOCK,
                              _LINES_PER_BLOCK + 1, None]))
    if n is None:
        n = draw(st.integers(2, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cols = []
    for _, lo, hi, _ in EVENT_COLUMNS:
        edges = [e for e in _POW10_EDGES if e < hi] + [hi]
        col = rng.integers(lo, draw(st.sampled_from(edges)), n, endpoint=True)
        at = rng.permutation(n)[:len(edges)]
        col[at] = rng.permutation(edges)[:len(at)]
        cols.append(col)
    return EventStream(1, *cols)


class TestEventFiles:
    def test_csv_row_format(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("t_us,u,v,polarity\n1000,320,240,1\n")
        s = read_events(p, 1)
        assert (s.t[0], s.u[0], s.v[0], s.polarity[0]) == (1000, 320, 240, 1)

    def test_csv_headerless(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("1000,320,240,1\n")
        assert len(read_events(p, 1)) == 1

    def test_empty_file(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("")
        assert len(read_events(p, 1)) == 0

    def test_malformed_lines_counted(self, tmp_path):
        rows = "\n".join(f"{i},1,2,1" for i in range(200))
        p = tmp_path / "a.csv"
        p.write_text("t_us,u,v,polarity\n" + rows + "\nbogus line\n")
        assert len(read_events(p, 1)) == 200

    def test_too_many_malformed(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("t_us,u,v,polarity\n1,2\n3,4\n1000,320,240,1\n")
        with pytest.raises(FormatError):
            read_events(p, 1)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IOError):
            read_events(tmp_path / "nope.csv", 1)

    def test_binary_layout(self, tmp_path):
        rng = np.random.default_rng(0)
        s = uniform_stream(rng, 7)
        p = tmp_path / "a.evt"
        write_events(s, p, "bin")
        raw = p.read_bytes()
        assert len(raw) == 16 + 16 * 7
        assert raw[:4] == b"EVT1"
        assert raw[16:] == b"".join(
            struct.pack("<qHHB3x", *row)
            for row in zip(s.t.tolist(), s.u.tolist(), s.v.tolist(),
                           s.polarity.tolist()))

    def test_binary_bad_magic(self, tmp_path):
        p = tmp_path / "a.evt"
        p.write_bytes(b"NOPE" + bytes(12))
        with pytest.raises(FormatError):
            read_events(p, 1)

    @pytest.mark.parametrize("fmt", ["csv", "bin"])
    def test_round_trip_large(self, tmp_path, fmt):
        rng = np.random.default_rng(1)
        s = uniform_stream(rng, 100_000)
        p = tmp_path / f"a.{fmt}"
        write_events(s, p, fmt)
        back = read_events(p, 1, fmt)
        assert np.array_equal(back.t, s.t)
        assert np.array_equal(back.u, s.u)
        assert np.array_equal(back.v, s.v)
        assert np.array_equal(back.polarity, s.polarity)

    def test_csv_and_bin_agree(self, tmp_path):
        rng = np.random.default_rng(2)
        s = uniform_stream(rng, 5000)
        write_events(s, tmp_path / "a.csv", "csv")
        write_events(s, tmp_path / "a.bin", "bin")
        a = read_events(tmp_path / "a.csv", 1, "csv")
        b = read_events(tmp_path / "a.bin", 1, "bin")
        assert np.array_equal(a.t, b.t)
        assert np.array_equal(a.u, b.u)
        assert np.array_equal(a.v, b.v)
        assert np.array_equal(a.polarity, b.polarity)

    @pytest.mark.parametrize("n", [0, 1, 70_000])
    def test_csv_bytes_match_line_format(self, tmp_path, n):
        # the block writer must write what one f-string per event writes,
        # across block boundaries and at every column's largest value
        rng = np.random.default_rng(n)
        s = uniform_stream(rng, n)
        if n:
            s = EventStream(1, np.append(s.t[:-1], 2**63 - 1),
                            np.append(s.u[:-1], 639), np.append(s.v[:-1], 479),
                            np.append(s.polarity[:-1], 255))
        p = tmp_path / "a.csv"
        write_events(s, p, "csv")
        want = "t_us,u,v,polarity\n" + "".join(
            f"{t},{u},{v},{q}\n" for t, u, v, q in zip(s.t, s.u, s.v, s.polarity))
        assert p.read_bytes() == want.encode("ascii")

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture,
                                     HealthCheck.too_slow])
    @given(s=_edge_streams())
    def test_csv_bytes_match_percent_format(self, tmp_path, s):
        p = tmp_path / "a.csv"
        write_events(s, p, "csv")
        assert p.read_bytes() == _percent_format_csv(s)
        back = read_events(p, 1, "csv")
        for got, want in zip((back.t, back.u, back.v, back.polarity),
                             (s.t, s.u, s.v, s.polarity)):
            assert np.array_equal(got, want)

    def test_csv_write_memory_is_per_block(self, tmp_path):
        s = uniform_stream(np.random.default_rng(4), 1_000_000, t_span_s=60.0)
        tracemalloc.start()
        try:
            write_events(s, tmp_path / "a.csv", "csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12e6

    @pytest.mark.parametrize("column, value, message", [
        ("u", 40000, "column u value 40000 outside [0, 639]"),
        ("u", 640, "column u value 640 outside [0, 639]"),
        ("v", 480, "column v value 480 outside [0, 479]"),
        ("t", -5, "column t_us value -5 outside [0, 9223372036854775807]")])
    def test_binary_out_of_range_names_file_and_value(self, tmp_path, column,
                                                      value, message):
        p = tmp_path / "a.evt"
        write_events(EventStream(1, [10, 20], [1, 2], [3, 4], [0, 1]), p, "bin")
        raw = bytearray(p.read_bytes())
        rec = np.frombuffer(raw, dtype=_RECORD_DTYPE, offset=16)
        rec[column][1] = value
        p.write_bytes(bytes(raw))
        for roi in (None, DEFAULT_ROI):
            with pytest.raises(FormatError, match=re.escape(f"{p}: {message}")):
                read_events(p, 1, roi=roi)

    @pytest.mark.parametrize("roi", [None, DEFAULT_ROI])
    def test_binary_faults_in_two_blocks_name_the_first_column(self, tmp_path,
                                                                roi):
        # v is out of range in block 0 and u in block 1; the stream's gate
        # checks column by column, so u is named
        n = _RECORDS_PER_BLOCK + 1
        u, v = np.zeros(n, dtype=np.int64), np.full(n, 250)
        v[0], u[-1] = 480, 640
        p = tmp_path / "a.evt"
        _evt_file(p, np.arange(n), u, v, np.zeros(n))
        with pytest.raises(FormatError, match=re.escape(
                f"{p}: column u value 640 outside [0, 639]")):
            read_events(p, 1, roi=roi)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(fault=_evt_faults())
    @example(fault=(_EVT_SIZE, _EVT_SIZE, b"\x00"))
    def test_binary_fault_reads_or_names_the_file(self, tmp_path, fault):
        p = tmp_path / "f.evt"
        write_events(EventStream(1, [10, 20, 30, 40], [1, 2, 3, 4],
                                 [5, 6, 7, 8], [0, 1, 0, 1]), p, "bin")
        raw = p.read_bytes()
        assert len(raw) == _EVT_SIZE
        start, stop, data = fault
        p.write_bytes(raw[:start] + data + raw[stop:])
        for roi in (None, DEFAULT_ROI):
            try:
                assert isinstance(read_events(p, 1, roi=roi), EventStream)
            except FormatError as exc:
                assert str(exc).startswith(f"{p}: ")

    def test_empty_round_trip(self, tmp_path):
        s = EventStream(1, [], [], [], [])
        for fmt in ("csv", "bin"):
            p = tmp_path / f"e.{fmt}"
            write_events(s, p, fmt)
            assert len(read_events(p, 1, fmt)) == 0


_MEMORY_ROWS = 1_000_000


# the memory files: each one's fraction of rows in the band, and whether
# those rows all lie at the end of the file
_MEMORY_FILES = ((0.5, False), (0.5, True), (0.95, False))


def _in_band_rows(frac, skewed):
    """Columns of ``_MEMORY_ROWS`` rows in time order, ``frac`` of them in
    ``DEFAULT_ROI``: mixed through the file, or (``skewed``) all at its
    end, so the kept columns first grow from there on and then to a
    count projected from the rows after it only. A file with 5 % of its
    rows outside the band keeps 95 % of them, whose ordinals an array
    would hold at 8 bytes each."""
    rng = np.random.default_rng(6)
    n = _MEMORY_ROWS
    lo, hi = DEFAULT_ROI
    inside = (np.arange(n) >= n - int(frac * n) if skewed
              else rng.random(n) < frac)
    v = np.where(inside, rng.integers(lo, hi + 1, n),
                 rng.integers(hi + 1, 480, n))
    return (np.sort(rng.integers(0, 6 * 10**7, n)), rng.integers(0, 640, n),
            v, rng.integers(0, 2, n))


def _assert_read_holds_the_kept_columns(path, frac):
    """Reading an ``_in_band_rows(frac, ...)`` file into ``DEFAULT_ROI``
    peaks, by ``tracemalloc``, under its four stored columns (times as
    uint32 low words) plus 8 bytes per dropped row plus 4 MB."""
    tracemalloc.start()
    try:
        c = read_events(path, 1, roi=DEFAULT_ROI)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(len(c) / _MEMORY_ROWS - frac) < 0.05
    kept = sum(x.nbytes for x in (c.t_low, c.u, c.v, c.polarity))
    dropped = _MEMORY_ROWS - len(c)
    assert peak < kept + 8 * dropped + 4e6


class TestBinaryRoiRead:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=_roi_files(), camera=st.sampled_from([1, 2]))
    def test_roi_read_is_the_crop_of_the_whole_read(self, tmp_path,
                                                    monkeypatch, case, camera):
        block, roi, cols = case
        monkeypatch.setattr(ingest, "_RECORDS_PER_BLOCK", block)
        p = tmp_path / "a.evt"
        _evt_file(p, *cols)
        whole = read_events(p, camera)
        _assert_same_stream(whole, EventStream(camera, *cols))
        _assert_same_stream(read_events(p, camera, "bin", roi=roi),
                            crop_roi(whole, *roi))

    def test_roi_read_memory_is_the_kept_columns(self, tmp_path):
        # read whole and then cropped, the file's bytes and its full
        # columns would exceed the bound
        for frac, skewed in _MEMORY_FILES:
            _evt_file(tmp_path / "a.evt", *_in_band_rows(frac, skewed))
            _assert_read_holds_the_kept_columns(tmp_path / "a.evt", frac)

    def test_no_file_handle_left_open(self, tmp_path):
        rows = ([10, 20, 30], [1, 2, 3], [250, 6, 300], [0, 1, 0])
        good, unsorted, bad, short = (tmp_path / f"{name}.evt" for name in
                                      ("good", "unsorted", "bad", "short"))
        _evt_file(good, *rows)
        _evt_file(unsorted, [30, 10, 20], *rows[1:])
        _evt_file(bad, rows[0], [1, 640, 3], *rows[2:])
        short.write_bytes(good.read_bytes()[:-3])
        good_csv, unsorted_csv, undecodable, malformed = (
            tmp_path / f"{name}.csv" for name in
            ("good", "unsorted", "undecodable", "malformed"))
        good_csv.write_text("t_us,u,v,polarity\n10,1,250,0\n20,2,6,1\n")
        unsorted_csv.write_text("20,2,6,1\n10,1,250,0\n")
        undecodable.write_bytes(b"10,1,250,0\n20,\xff,6,1\n")
        malformed.write_text("10,1,250,0\n20,2,6\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for roi in (None, DEFAULT_ROI):
                for p in (good, unsorted, good_csv, unsorted_csv):
                    read_events(p, 1, roi=roi)
                for p in (bad, short, undecodable, malformed):
                    with pytest.raises(FormatError):
                        read_events(p, 1, roi=roi)
            gc.collect()
        assert not [w for w in caught
                    if issubclass(w.category, ResourceWarning)]


_SPAN = 2**32  # microseconds per high word


@st.composite
def _spanning_files(draw):
    """(rows per block, CSV block bytes, roi, columns) of a file in time
    order whose times cross multiples of 2**32 us, read and written in
    blocks of a few rows: the high word changes inside blocks, at their
    edges, across many blocks at once and next to rows outside the
    band."""
    block = draw(st.sampled_from([1, 2, 3, 8]))
    csv_bytes = draw(st.sampled_from([1, 24, 100]))
    roi = draw(_ROIS)
    n = draw(st.integers(0, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    highs = rng.choice([0, 1, 2, 7, 2**31 - 1], n)
    lows = rng.choice([0, 1, _SPAN - 1, int(rng.integers(0, _SPAN))], n)
    t = np.sort(highs.astype(np.int64) * _SPAN + lows)
    return block, csv_bytes, roi, (t, rng.integers(0, 640, n),
                                   rng.integers(0, 480, n),
                                   rng.integers(0, 256, n))


def _stored_bytes(s):
    """The bytes a stream holds: its four columns, its high-word rule and
    its ordinal rule or array."""
    held = [s.t_low, s.u, s.v, s.polarity, s.run_starts, s.run_highs, s.gaps]
    return sum(x.nbytes for x in held) + (
        0 if s.ordinals is None else s.ordinals.nbytes)


class TestHighWordTimes:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=_spanning_files(), fmt=st.sampled_from(["bin", "csv"]),
           camera=st.sampled_from([1, 2]))
    def test_reads_and_writes_times_across_high_words(
            self, tmp_path, monkeypatch, case, fmt, camera):
        block, csv_bytes, roi, cols = case
        monkeypatch.setattr(ingest, "_RECORDS_PER_BLOCK", block)
        monkeypatch.setattr(ingest, "_CSV_BLOCK_BYTES", csv_bytes)
        monkeypatch.setattr(ingest, "_LINES_PER_BLOCK", block)
        s = EventStream(camera, *cols)
        p = tmp_path / f"a.{fmt}"
        write_events(s, p, fmt)
        if fmt == "bin":
            _evt_file(tmp_path / "want.evt", *cols)
            assert p.read_bytes() == (tmp_path / "want.evt").read_bytes()
        else:
            assert p.read_bytes() == _percent_format_csv(s)
        _assert_same_stream(read_events(p, camera), s)
        _assert_same_stream(read_events(p, camera, roi=roi),
                            crop_roi(s, *roi))

    @pytest.mark.parametrize("fmt", ["bin", "csv"])
    def test_multi_block_file_across_high_words(self, tmp_path, fmt):
        # the high word changes at the edge of the first two write and
        # binary read blocks, and inside the third
        rng = np.random.default_rng(9)
        n = 3 * _LINES_PER_BLOCK
        t = np.sort(rng.integers(0, _SPAN - 1, n))
        t[_LINES_PER_BLOCK - 1:] = _SPAN - 1
        t[_LINES_PER_BLOCK:] = np.sort(rng.integers(_SPAN, 3 * _SPAN,
                                                    n - _LINES_PER_BLOCK))
        t[_LINES_PER_BLOCK] = _SPAN
        cols = (t, rng.integers(0, 640, n), rng.integers(0, 480, n),
                rng.integers(0, 256, n))
        s = EventStream(1, *cols)
        assert s.run_starts.tolist() == [
            0, _LINES_PER_BLOCK, int(np.searchsorted(t, 2 * _SPAN))]
        p = tmp_path / f"a.{fmt}"
        write_events(s, p, fmt)
        if fmt == "bin":
            _evt_file(tmp_path / "want.evt", *cols)
            assert p.read_bytes() == (tmp_path / "want.evt").read_bytes()
        else:
            assert p.read_bytes() == _percent_format_csv(s)
        _assert_same_stream(read_events(p, 1), s)
        _assert_same_stream(read_events(p, 1, roi=DEFAULT_ROI),
                            crop_roi(s, *DEFAULT_ROI))

    def test_one_run_per_event_stays_linear(self, tmp_path):
        # every event its own high word: the rule holds n runs, and
        # reading, slicing and subsetting still do linear work
        n = 100_000
        rng = np.random.default_rng(10)
        t = (np.arange(n, dtype=np.int64) << 32) + rng.integers(0, _SPAN, n)
        start = time.perf_counter()
        s = EventStream(1, t, rng.integers(0, 640, n),
                        rng.integers(0, 480, n), np.zeros(n))
        assert len(s.run_starts) == n
        for fmt in ("bin", "csv"):
            write_events(s, tmp_path / f"a.{fmt}", fmt)
            for roi in (None, DEFAULT_ROI):
                got = read_events(tmp_path / f"a.{fmt}", 1, roi=roi)
                assert len(got.run_starts) == len(got)
        bounds = np.linspace(0, t[-1] / US_PER_S, 201)
        for a, b in zip(bounds[:-1], bounds[1:]):
            assert len(s.slice_time_s(a, b).run_starts) <= n
        assert len(crop_roi(s, *DEFAULT_ROI).run_starts) < n
        assert len(thin(s, 4, 0).run_starts) < n
        assert np.array_equal(s.times_us(), t)
        assert time.perf_counter() - start < 10.0

    def test_read_into_the_roi_stores_nine_bytes_per_event(self, tmp_path):
        # a file inside one 2**32 us span: 9 bytes per kept event (uint32
        # low word, int16 u and v, uint8 polarity), one run of the
        # high-word rule and one gap key per dropped row
        rng = np.random.default_rng(11)
        n = 50_000
        cols = (np.sort(rng.integers(0, 10**8, n)), rng.integers(0, 640, n),
                rng.integers(0, 480, n), rng.integers(0, 2, n))
        for fmt in ("bin", "csv"):
            p = tmp_path / f"a.{fmt}"
            write_events(EventStream(1, *cols), p, fmt)
            c = read_events(p, 1, roi=DEFAULT_ROI)
            assert 0 < len(c) < n and c.ordinals is None
            assert len(c.run_starts) == 1 and len(c.gaps) == n - len(c)
            assert _stored_bytes(c) == 9 * len(c) + 16 + 8 * len(c.gaps)

    def test_binary_write_memory_is_per_block(self, tmp_path):
        # a whole-stream record array and int64 time column would be
        # 24 MB
        s = uniform_stream(np.random.default_rng(12), 1_000_000,
                           t_span_s=60.0)
        tracemalloc.start()
        try:
            write_events(s, tmp_path / "a.bin", "bin")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6


def _line_rule(path):
    """Columns, malformed and non-blank line counts of a CSV file by the
    documented line rule, one line at a time."""
    cols = [[], [], [], []]
    malformed = total = 0
    with open(path, "r", encoding="utf-8") as fh:
        for i, line in enumerate(fh):
            line = line.strip()
            if not line or (i == 0 and line == "t_us,u,v,polarity"):
                continue
            total += 1
            try:
                vals = [int(p) for p in line.split(",")]
            except ValueError:
                malformed += 1
                continue
            if len(vals) != 4:
                malformed += 1
                continue
            for c, v in zip(cols, vals):
                c.append(v)
    return cols, malformed, total


def _assert_rule_columns(stream, cols):
    """The stream holds the rule's rows, stably sorted by timestamp."""
    order = np.argsort(np.asarray(cols[0], dtype=np.int64), kind="stable")
    for got, want in zip((stream.t, stream.u, stream.v, stream.polarity),
                         cols):
        assert np.array_equal(got, np.asarray(want, dtype=np.int64)[order])


_ODD_LINES = ["", "   ", "\t", "# comment", "t_us,u,v,polarity", "1,2,3,4,",
              ",1,2,3", "1,,2,3", "1,2,3,-", "-1,2,3,4-", "1,2,3", "1,2,3,4,5",
              " 1 , 2 , 3 , 4 ", "1,2,3,+4", "1_000,2,3,4", "1,2,3,4#",
              "\u0661,2,3,4", "0,2,3," + "0" * 30 + "1", "-0,2,3,4"]
_ODD_FIELDS = [" 7", "7 ", "\t12", "+3", "-0", "007", "1_000", "\u0661",
               "#", "# 5", "", "-", "--1", "1-2", "1.0", "0x10", "9" * 19,
               "9" * 25, "-" + "9" * 19, "0" * 30 + "5", "40000", "480"]


@st.composite
def _csv_documents(draw, in_order=False, min_rows=0):
    """CSV text mixing at least ``min_rows`` plain rows, in time order when
    ``in_order``, with lines the plain-decimal test must leave to the line
    rule."""
    plain = st.tuples(st.integers(0, 2**40), st.integers(0, 639),
                      st.integers(0, 479), st.integers(0, 1))
    field = st.one_of(st.integers(-10, 10**6).map(str),
                      st.sampled_from(_ODD_FIELDS))
    odd = st.one_of(
        st.lists(field, min_size=3, max_size=5).map(",".join),
        st.sampled_from(_ODD_LINES))
    rows = draw(st.lists(plain, min_size=min_rows, max_size=250))
    lines = [",".join(map(str, r)) for r in (sorted(rows) if in_order
                                              else rows)]
    for _ in range(draw(st.integers(0, 4))):
        lines.insert(draw(st.integers(0, len(lines))), draw(odd))
    if draw(st.booleans()):
        lines.insert(0, draw(st.sampled_from(
            ["t_us,u,v,polarity", " t_us,u,v,polarity\t", "t_us,u,v"])))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = newline.join(lines)
    return text + newline if draw(st.booleans()) else text


def _check_line_rule(p, caplog, doc):
    """Read ``doc`` as the CSV file ``p``: its columns and its malformed
    warning are the line rule's, or it raises FormatError when the rule
    finds too many malformed lines or a value out of range."""
    p.write_bytes(doc.encode("utf-8"))
    cols, malformed, total = _line_rule(p)
    too_many = total and malformed / total > 0.01
    out_of_range = any(not lo <= x <= hi for (_, lo, hi, _), col
                       in zip(EVENT_COLUMNS, cols) for x in col)
    caplog.clear()
    if too_many or out_of_range:
        with pytest.raises(FormatError):
            read_events(p, 1)
        return
    with caplog.at_level(logging.WARNING, logger="tacloc.ingest"):
        s = read_events(p, 1)
    _assert_rule_columns(s, cols)
    skipped = [r.getMessage() for r in caplog.records
               if "malformed" in r.getMessage()]
    assert skipped == ([f"{p}: skipped {malformed} malformed lines"]
                       if malformed else [])


class TestCsvLineRule:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(doc=_csv_documents())
    def test_matches_line_rule(self, tmp_path, caplog, doc):
        _check_line_rule(tmp_path / "f.csv", caplog, doc)

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(doc=_csv_documents())
    def test_matches_line_rule_in_7_byte_blocks(self, tmp_path, monkeypatch,
                                                caplog, doc):
        monkeypatch.setattr(ingest, "_CSV_BLOCK_BYTES", 7)
        _check_line_rule(tmp_path / "f.csv", caplog, doc)

    @pytest.mark.parametrize("odd", _ODD_LINES)
    def test_one_odd_line_in_many_matches_line_rule(self, tmp_path, odd):
        p = tmp_path / "a.csv"
        rows = [f"{i},{i % 640},{i % 480},1" for i in range(150)]
        rows.insert(70, odd)
        p.write_text("\n".join(rows) + "\n")
        _assert_rule_columns(read_events(p, 1), _line_rule(p)[0])

    @pytest.mark.parametrize("row, column", [
        ("1000,40000,240,1", "u"), ("1000,640,240,1", "u"),
        ("1000,320,-1,1", "v"), ("1000,320,240,256", "polarity"),
        (f"{2**63},320,240,1", "t_us"), ("-5,320,240,1", "t_us")])
    def test_out_of_range_value_names_file_and_column(self, tmp_path, row,
                                                      column):
        p = tmp_path / "a.csv"
        p.write_text(f"t_us,u,v,polarity\n0,1,2,1\n{row}\n")
        with pytest.raises(FormatError,
                           match=re.escape(f"{p}: column {column} value")):
            read_events(p, 1)

    def test_plain_and_odd_lines_keep_file_order(self, tmp_path):
        # equal timestamps keep the file order across both parse paths
        p = tmp_path / "a.csv"
        rows = [f"5,{u},1,0" if u % 3 else f" 5 , {u} ,1,0" for u in range(90)]
        p.write_text("\n".join(rows) + "\n")
        assert read_events(p, 1).u.tolist() == list(range(90))


# plain rows that the stream refuses, and byte sequences that are not UTF-8
_OUT_OF_RANGE_ROWS = ["-5,1,2,1", "5,640,2,1", "5,1,480,1", "5,1,2,256",
                      f"{2**63},1,2,1"]
_NOT_UTF8 = [b"\xff", b"\x80", b"\xe2\x82", b"\xed\xa0\x80", b"\xf0\x9f\x98"]


@st.composite
def _block_documents(draw):
    """The bytes of a ``_csv_documents`` text: its plain rows in time order,
    out of order, in order with one or two out-of-range rows put at line
    starts, or in order with one sequence that is not UTF-8 put anywhere."""
    kind = draw(st.sampled_from(["in order", "in order", "unsorted",
                                 "out of range", "not UTF-8"]))
    # enough rows that one malformed line is under 1% of them
    text = draw(_csv_documents(in_order=kind != "unsorted", min_rows=100))
    for _ in range(draw(st.integers(1, 2)) if kind == "out of range" else 0):
        starts = [0] + [i + 1 for i, c in enumerate(text) if c in "\r\n"]
        at = draw(st.sampled_from(starts))
        text = (text[:at] + draw(st.sampled_from(_OUT_OF_RANGE_ROWS)) + "\n"
                + text[at:])
    data = text.encode("utf-8")
    if kind == "not UTF-8":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from(_NOT_UTF8)) + data[at:]
    return data


def _csv_read(path, camera, roi, caplog):
    """``(stream or FormatError text, warnings logged)`` of one read."""
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="tacloc.ingest"):
        try:
            got = read_events(path, camera, "csv", roi)
        except FormatError as exc:
            got = str(exc)
    return got, [r.getMessage() for r in caplog.records]


class TestCsvBlockRead:
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=_block_documents(), block=st.sampled_from([1, 2, 7, 64]),
           roi=_ROIS, camera=st.sampled_from([1, 2]))
    def test_block_reads_are_the_crop_of_the_whole_read(
            self, tmp_path, monkeypatch, caplog, data, block, roi, camera):
        p = tmp_path / "f.csv"
        p.write_bytes(data)
        # one block holds the whole file
        monkeypatch.setattr(ingest, "_CSV_BLOCK_BYTES", len(data) + 1)
        whole, logged = _csv_read(p, camera, None, caplog)
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            assert whole == f"{p}: {exc}"
        monkeypatch.setattr(ingest, "_CSV_BLOCK_BYTES", block)
        for r in (None, roi):
            got, got_logged = _csv_read(p, camera, r, caplog)
            assert got_logged == logged
            if isinstance(whole, str):
                assert got == whole
            else:
                _assert_same_stream(got, whole if r is None
                                    else crop_roi(whole, *r))

    def test_roi_read_memory_is_the_kept_columns(self, tmp_path):
        # read whole and then cropped, the file's bytes and its parsed
        # rows would exceed the bound
        for frac, skewed in _MEMORY_FILES:
            write_events(EventStream(1, *_in_band_rows(frac, skewed)),
                         tmp_path / "a.csv", "csv")
            _assert_read_holds_the_kept_columns(tmp_path / "a.csv", frac)

    @pytest.mark.parametrize("bad", _NOT_UTF8, ids=bytes.hex)
    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b""],
                             ids=["LF", "CRLF", "none"])
    def test_undecodable_byte_in_a_later_block_is_placed_in_the_file(
            self, tmp_path, bad, newline):
        # the position in the message counts from the start of the file
        rows = b"".join(b"%d,%d,250,1\n" % (i, i % 640) for i in range(9000))
        raw = b"t_us,u,v,polarity\n" + rows + b"9000,1," + bad + newline
        assert len(raw) > 2 * ingest._CSV_BLOCK_BYTES
        p = tmp_path / "a.csv"
        p.write_bytes(raw)
        with pytest.raises(UnicodeDecodeError) as whole:
            raw.decode("utf-8")
        for roi in (None, DEFAULT_ROI):
            with pytest.raises(FormatError) as exc:
                read_events(p, 1, roi=roi)
            assert str(exc.value) == f"{p}: {whole.value}"

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"],
                             ids=["LF", "CRLF", "CR"])
    def test_blocks_are_cut_after_any_newline(self, tmp_path, monkeypatch,
                                              newline):
        # a block ends at its last newline byte, so no block holds more
        # than one read and the rest of a line, whatever the newlines
        monkeypatch.setattr(ingest, "_CSV_BLOCK_BYTES", 64)
        p = tmp_path / "a.csv"
        p.write_bytes(newline.join(f"{i},1,250,1" for i in range(200))
                      .encode("ascii"))
        with open(p, "rb") as fh:
            blocks = list(ingest._csv_blocks(fh))
        assert b"".join(data for _, data in blocks) == p.read_bytes()
        assert [offset for offset, _ in blocks] == list(np.cumsum(
            [0] + [len(data) for _, data in blocks[:-1]]))
        assert max(len(data) for _, data in blocks) < 64 + 12

    @pytest.mark.parametrize("roi", [None, DEFAULT_ROI])
    def test_faults_in_two_blocks_name_the_first_column(self, tmp_path,
                                                        monkeypatch, roi):
        # u is out of range in the first block and t_us in a later one;
        # the stream's gate checks column by column, so t_us is named
        monkeypatch.setattr(ingest, "_CSV_BLOCK_BYTES", 16)
        p = tmp_path / "a.csv"
        p.write_text("t_us,u,v,polarity\n10,640,250,1\n20,1,250,1\n"
                     "-5,1,250,1\n")
        with pytest.raises(FormatError, match=re.escape(
                f"{p}: column t_us value -5 outside [0, {2**63 - 1}]")):
            read_events(p, 1, roi=roi)


# values out of their column's range that a binary record can hold too
_HELD_OUT_OF_RANGE = {0: st.integers(-2**63, -1),
                      1: st.integers(640, 2**16 - 1),
                      2: st.integers(480, 2**16 - 1)}


@st.composite
def _both_format_rows(draw):
    """Columns of rows that both formats hold: in time order or unsorted,
    with up to two values out of their range (a negative ``t_us``, or a
    ``u`` or ``v`` past the sensor that fits uint16)."""
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = np.sort(rng.integers(0, 10**6, n))
    if draw(st.booleans()):
        t = rng.permutation(t)
    cols = [t, rng.integers(0, 640, n), rng.integers(0, 480, n),
            rng.integers(0, 256, n)]
    for _ in range(draw(st.integers(0, 2))):
        column = draw(st.sampled_from(sorted(_HELD_OUT_OF_RANGE)))
        cols[column][draw(st.integers(0, n - 1))] = draw(
            _HELD_OUT_OF_RANGE[column])
    return cols


def _read_or_error(path, camera, roi):
    """The stream read, or the FormatError text after the file's path."""
    try:
        return read_events(path, camera, roi=roi)
    except FormatError as exc:
        text = str(exc)
        assert text.startswith(f"{path}: ")
        return text[len(f"{path}: "):]


class TestBothFormats:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(cols=_both_format_rows(), records=st.sampled_from([1, 2, 3, 8]),
           block=st.sampled_from([1, 7, 64]), roi=_ROIS,
           camera=st.sampled_from([1, 2]))
    def test_the_same_rows_read_alike_from_either_format(
            self, tmp_path, monkeypatch, cols, records, block, roi, camera):
        monkeypatch.setattr(ingest, "_RECORDS_PER_BLOCK", records)
        monkeypatch.setattr(ingest, "_CSV_BLOCK_BYTES", block)
        evt, csv = tmp_path / "a.evt", tmp_path / "a.csv"
        _evt_file(evt, *cols)
        csv.write_text("t_us,u,v,polarity\n" + "".join(
            f"{t},{u},{v},{p}\n" for t, u, v, p in zip(*cols)))
        in_range = all(lo <= c.min() and c.max() <= hi
                       for c, (_, lo, hi, _) in zip(cols, EVENT_COLUMNS))
        for r in (None, roi):
            got = _read_or_error(evt, camera, r)
            want = _read_or_error(csv, camera, r)
            assert isinstance(want, EventStream) == in_range
            if in_range:
                _assert_same_stream(got, want)
            else:
                assert got == want


@st.composite
def _sliced_files(draw):
    """(block, roi, columns, window) of an in-order ``_roi_files`` file
    and a time window ``[a, b)`` in microseconds, each edge any time or
    one of the file's."""
    block, roi, cols = draw(_roi_files().filter(
        lambda case: np.all(np.diff(case[2][0]) >= 0)))
    edge = st.one_of(st.integers(-1, 10**6 + 1),
                     st.sampled_from(cols[0].tolist() or [0]))
    return block, roi, cols, (draw(edge), draw(edge))


class TestOrdinalRule:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=_sliced_files(), camera=st.sampled_from([1, 2]),
           k=st.sampled_from([2, 3, 1024]),
           seed=st.integers(-2**63, 2**64 - 1))
    def test_slices_of_roi_reads_are_slices_of_the_crop(
            self, tmp_path, monkeypatch, case, camera, k, seed):
        # the ROI read keeps its ordinals as a rule and the crop as an
        # array; a time slice and a thinning of each must agree
        block, roi, cols, (a, b) = case
        monkeypatch.setattr(ingest, "_RECORDS_PER_BLOCK", block)
        monkeypatch.setattr(ingest, "_CSV_BLOCK_BYTES", 8 * block)
        evt, csv = tmp_path / "a.evt", tmp_path / "a.csv"
        _evt_file(evt, *cols)
        csv.write_text("t_us,u,v,polarity\n" + "".join(
            f"{t},{u},{v},{p}\n" for t, u, v, p in zip(*cols)))
        for path in (evt, csv):
            got = read_events(path, camera, roi=roi).slice_time_s(
                a / US_PER_S, b / US_PER_S)
            want = crop_roi(read_events(path, camera), *roi).slice_time_s(
                a / US_PER_S, b / US_PER_S)
            _assert_same_stream(got, want)
            _assert_same_stream(thin(got, k, seed), thin(want, k, seed))


def _tap_run(seed=0, cam2_offset=0.0, background=800.0, taps_at=2.0):
    layout = small_layout(3, 2)
    from tacloc.ingest import RunConfig
    cfg = RunConfig(layout=layout,
                    schedule=make_schedule(layout, period_s=2.0, repetitions=1))
    spec = SynthSpec(layout=layout, schedule=cfg.schedule, seed=seed,
                     burst_events_per_press_per_camera=1500.0,
                     background_rate_per_camera=background,
                     tap_start_s=taps_at,
                     cam2_extra_offset_s=cam2_offset)
    s1, s2, man = generate(spec)
    return s1, s2, man


class TestSyncTaps:
    def test_detects_simulated_taps(self):
        s1, s2, man = _tap_run()
        taps = detect_sync_taps(s1)
        assert len(taps) == 3
        for got, want in zip(taps, man.tap_times_s):
            assert abs(got - want) < 0.020

    def test_spacing_constraint_rejects(self):
        # taps 0.5 s apart are outside the accepted spacing band
        s1, _, _ = _tap_run()
        spec = SyncSpec(tap_interval_s=0.5)
        rng = np.random.default_rng(3)
        n = 3000
        t = np.concatenate([rng.integers(int(o * 1e6), int(o * 1e6) + 100_000, 1000)
                            for o in (2.0, 2.5, 3.0)])
        s = EventStream(1, np.sort(t), rng.integers(0, 640, n),
                        rng.integers(200, 361, n), rng.integers(0, 2, n))
        with pytest.raises(SyncError):
            detect_sync_taps(s, SyncSpec())  # expects 1.0 s spacing

    def test_spurious_larger_burst_ignored(self):
        s1, _, man = _tap_run(seed=5)
        rng = np.random.default_rng(6)
        n = 40_000  # much larger than a tap burst
        t = np.sort(rng.integers(7_450_000, 7_600_000, n))
        spur = EventStream(1, t, rng.integers(0, 640, n),
                           rng.integers(200, 361, n), rng.integers(0, 2, n))
        merged = EventStream(1, np.concatenate([s1.t, spur.t]),
                             np.concatenate([s1.u, spur.u]),
                             np.concatenate([s1.v, spur.v]),
                             np.concatenate([s1.polarity, spur.polarity]))
        taps = detect_sync_taps(merged)
        for got, want in zip(taps, man.tap_times_s):
            assert abs(got - want) < 0.020

    def test_empty_stream(self):
        with pytest.raises(SyncError):
            detect_sync_taps(EventStream(1, [], [], [], []))


class TestAlignment:
    def test_recovers_known_shift(self):
        s1, s2, _ = _tap_run(seed=7, cam2_offset=1.234)
        _, a2, _, _ = align_streams(s1, s2)
        assert abs(a2.time_offset_us / US_PER_S + 1.234) < 0.020

    def test_identity(self):
        s1, _, _ = _tap_run(seed=8)
        _, a2, _, _ = align_streams(s1, s1)
        assert a2.time_offset_us == 0

    def test_robust_to_thinning(self):
        s1, s2, _ = _tap_run(seed=9, cam2_offset=0.7)
        _, a2_full, _, _ = align_streams(s1, s2)
        _, a2_thin, _, _ = align_streams(s1, thin(s2, 2, seed=1))
        assert abs(a2_full.time_offset_us - a2_thin.time_offset_us) < 20_000

    def test_translation_equivariance(self):
        s1, s2, _ = _tap_run(seed=10, cam2_offset=0.3)
        _, a2, _, _ = align_streams(s1, s2)
        delta = 5_000_000
        s1d = EventStream(1, s1.t + delta, s1.u, s1.v, s1.polarity)
        s2d = EventStream(2, s2.t + delta, s2.u, s2.v, s2.polarity)
        _, a2d, _, _ = align_streams(s1d, s2d)
        assert abs(a2d.time_offset_us - a2.time_offset_us) < 1000


class TestSchedule:
    def test_make_schedule_counts(self):
        layout = small_layout(5, 4, reps=3)
        sch = make_schedule(layout, onset0_s=5.0, period_s=2.0, repetitions=3)
        assert len(sch) == 60
        assert sch.onsets_s[0] == 5.0
        assert np.all(np.diff(sch.onsets_s) == 2.0)
        assert list(sch.repetition[:20]) == [0] * 20

    def test_onsets_must_increase(self):
        with pytest.raises(ValueError):
            PressSchedule(np.array([1.0, 1.0]), 0.55,
                          np.zeros((2, 2)), np.zeros(2, int), np.zeros(2, int))

    def test_onsets_at_least_one_press_apart(self):
        layout = small_layout(5, 4)
        # a period equal to the press duration keeps the windows disjoint,
        # whatever the float sums of the onsets round to
        assert len(make_schedule(layout, onset0_s=5.0,
                                 period_s=layout.press_duration_s)) == 20
        with pytest.raises(ValueError, match="closer than press_duration_s"):
            make_schedule(layout, period_s=0.01)


def _assert_same_fields(got, want, path="config"):
    """Dataclasses equal field by field, sequences item by item and arrays
    by dtype and value."""
    if dataclasses.is_dataclass(want):
        assert type(got) is type(want), path
        for f in dataclasses.fields(want):
            _assert_same_fields(getattr(got, f.name), getattr(want, f.name),
                                f"{path}.{f.name}")
    elif isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and np.array_equal(got, want), path
    elif isinstance(want, (tuple, list)):
        assert type(got) is type(want) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_same_fields(g, w, f"{path}[{i}]")
    else:
        assert type(got) is type(want) and got == want, path


class TestConfig:
    def test_load_minimal(self, tmp_path):
        doc = {
            "seed": 9,
            "files": {"cam1": "a.evt", "cam2": "b.evt", "format": "bin"},
            "layout": {"grid_cols": 5, "grid_rows": 4, "repetitions": 2},
            "schedule": {"onset0_s": 5.0, "period_s": 1.5},
            "roi": [200, 360],
        }
        p = tmp_path / "run.json"
        p.write_text(json.dumps(doc))
        cfg = load_config(p)
        assert cfg.seed == 9
        assert cfg.layout.n_presses == 20
        assert len(cfg.schedule) == 40
        assert cfg.cam1_path.endswith("a.evt")

    @pytest.mark.parametrize("doc, want", [
        ({}, RunConfig()),
        ({"layout": {"grid_spacing_mm": 3.0}},
         RunConfig(layout=SensorLayout(grid_spacing_mm=3.0))),
    ], ids=["empty", "layout-spacing"])
    def test_unset_keys_keep_the_dataclass_defaults(self, doc, want):
        _assert_same_fields(config_from_dict(doc), want)

    def test_sections_load_into_stage_dataclasses(self):
        cfg = config_from_dict({
            "cluster": {"eps_px": 6, "min_samples": 4},
            "latency": {"bin_s": 0.001},
            "synth": {"sigma_u_px": 2, "rate_profile": [0.1, 0.8, 0.1]}})
        assert cfg.cluster == DbscanParams(eps=6.0, min_samples=4)
        assert cfg.latency == CusumParams(bin_s=0.001)
        spec = spec_from_config(cfg.layout, cfg.schedule, cfg.sync,
                                cfg.camera_models, cfg.roi, cfg.seed,
                                cfg.synth)
        assert spec.sigma_u_px == 2.0
        assert spec.rate_profile == RateProfile(0.1, 0.8, 0.1)

    def test_invalid_json_reports_location(self, tmp_path):
        p = tmp_path / "run.json"
        p.write_text("{\n  \"seed\": ,\n}")
        with pytest.raises(FormatError, match="line"):
            load_config(p)

    def test_camera_models_parsed(self, tmp_path):
        doc = {
            "cameras": [
                {"x_mm": 0, "y_mm": 0, "orientation_rad": 0.7853981633974483,
                 "skew_rad": 0.01, "focal_px": 320, "u_center": 319.5, "k1": 0.0},
                {"x_mm": 100, "y_mm": 0, "orientation_rad": 2.356194490192345,
                 "skew_rad": -0.01, "focal_px": 320, "u_center": 319.5, "k1": 0.0},
            ],
        }
        p = tmp_path / "run.json"
        p.write_text(json.dumps(doc))
        cfg = load_config(p)
        assert cfg.camera_models[0].skew_rad == 0.01
        assert cfg.camera_models[1].x_mm == 100
