from __future__ import annotations

import dataclasses
import json
import logging
import re
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from tacloc.ablate import thin
from tacloc.cluster import DbscanParams
from tacloc.events import EVENT_COLUMNS, EventStream, SensorLayout, US_PER_S
from tacloc.ingest import (_RECORD_DTYPE, FormatError,
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
        with pytest.raises(FormatError, match=re.escape(f"{p}: {message}")):
            read_events(p, 1)

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
        try:
            assert isinstance(read_events(p, 1), EventStream)
        except FormatError as exc:
            assert str(exc).startswith(f"{p}: ")

    def test_empty_round_trip(self, tmp_path):
        s = EventStream(1, [], [], [], [])
        for fmt in ("csv", "bin"):
            p = tmp_path / f"e.{fmt}"
            write_events(s, p, fmt)
            assert len(read_events(p, 1, fmt)) == 0


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
def _csv_documents(draw):
    """CSV text mixing plain rows with lines the plain-decimal test must
    leave to the line rule."""
    plain = st.tuples(st.integers(0, 2**40), st.integers(0, 639),
                      st.integers(0, 479), st.integers(0, 1)).map(
        lambda r: ",".join(map(str, r)))
    field = st.one_of(st.integers(-10, 10**6).map(str),
                      st.sampled_from(_ODD_FIELDS))
    odd = st.one_of(
        st.lists(field, min_size=3, max_size=5).map(",".join),
        st.sampled_from(_ODD_LINES))
    lines = draw(st.lists(plain, max_size=250))
    for _ in range(draw(st.integers(0, 4))):
        lines.insert(draw(st.integers(0, len(lines))), draw(odd))
    if draw(st.booleans()):
        lines.insert(0, draw(st.sampled_from(
            ["t_us,u,v,polarity", " t_us,u,v,polarity\t", "t_us,u,v"])))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = newline.join(lines)
    return text + newline if draw(st.booleans()) else text


class TestCsvLineRule:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(doc=_csv_documents())
    def test_matches_line_rule(self, tmp_path, caplog, doc):
        p = tmp_path / "f.csv"
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
