"""Event file reading/writing, three-tap stream synchronization, and run
configuration loading.

File formats:

* CSV: header ``t_us,u,v,polarity``, one event per line, polarity
  0 to 255; ``write_events`` writes plain decimals, LF-terminated.
* Binary: 16-byte header (magic ``EVT1``, version byte, 3 reserved bytes,
  little-endian uint64 event count) followed by 16-byte records
  (int64 t_us, uint16 u, uint16 v, uint8 polarity, 3 pad bytes).
"""

from __future__ import annotations

import json
import logging
import os
import struct
import sys
from dataclasses import dataclass, field, fields
from functools import partial
from itertools import combinations
from pathlib import Path

import numpy as np

from .cluster import DbscanParams
from .events import (DEFAULT_ROI, SENSOR_HEIGHT, US_PER_S, EventStream,
                     SensorLayout, check_roi, event_rate_histogram,
                     meander_grid)
from .geometry import (CameraModel, FreeParams, check_camera_box,
                       default_models)
from .latency import CusumParams, check_window_bins

log = logging.getLogger(__name__)

BINARY_MAGIC = b"EVT1"
BINARY_VERSION = 1
# the sync histogram's search_window_s / bin_s bins, bounded at load
MAX_SYNC_BINS = 100_000
MAX_TAP_RESIDUAL_S = 0.050  # per-tap onset mismatch left after alignment
_RECORD_DTYPE = np.dtype([
    ("t", "<i8"), ("u", "<u2"), ("v", "<u2"), ("polarity", "u1"),
    ("pad", "u1", 3),
])
_EVENT_FIELDS = _RECORD_DTYPE.names[:4]  # t, u, v, polarity
_RECORDS_PER_BLOCK = 1 << 16  # per block of the binary reader


class IngestError(RuntimeError):
    pass


class FormatError(IngestError):
    pass


class SyncError(IngestError):
    """Tap-based synchronization could not find a qualifying tap triple."""

    def __init__(self, message, candidates_s=()):
        super().__init__(message)
        self.candidates_s = list(candidates_s)


@dataclass(frozen=True)
class SyncSpec:
    n_taps: int = 3
    tap_interval_s: float = 1.0
    search_window_s: float = 15.0
    spacing_tolerance_s: float = 0.25
    bin_s: float = 0.010
    onset_threshold_multiple: float = 5.0

    def __post_init__(self):
        if self.n_taps < 2:
            raise ValueError("n_taps must be >= 2")
        if min(self.tap_interval_s, self.search_window_s, self.bin_s) <= 0:
            raise ValueError("tap_interval_s, search_window_s and bin_s "
                             "must be positive")
        if min(self.spacing_tolerance_s, self.onset_threshold_multiple) < 0:
            raise ValueError("spacing_tolerance_s and "
                             "onset_threshold_multiple must not be negative")
        if self.search_window_s / self.bin_s > MAX_SYNC_BINS:
            raise ValueError(f"search_window_s {self.search_window_s:g} s "
                             f"over bin_s {self.bin_s:g} s needs more than "
                             f"MAX_SYNC_BINS {MAX_SYNC_BINS} bins")


@dataclass(frozen=True)
class PressSchedule:
    """Nominal press timing and ground truth, relative to the first sync tap."""

    onsets_s: np.ndarray          # at least press_duration_s apart
    press_duration_s: float
    ground_truth_mm: np.ndarray   # (n, 2)
    press_index: np.ndarray       # index into the grid path
    repetition: np.ndarray

    def __post_init__(self):
        onsets = np.asarray(self.onsets_s, dtype=np.float64)
        gt = np.asarray(self.ground_truth_mm, dtype=np.float64)
        pidx = np.asarray(self.press_index, dtype=np.int64)
        rep = np.asarray(self.repetition, dtype=np.int64)
        if np.any(np.diff(onsets) <= 0):
            raise ValueError("onsets must be strictly increasing")
        if not self.press_duration_s > 0:
            raise ValueError("press_duration_s must be positive")
        # windows are cut at whole microseconds; overlapping windows would
        # cluster the events they share once for every onset
        close = np.flatnonzero(np.diff(np.round(onsets * US_PER_S))
                               < round(self.press_duration_s * US_PER_S))
        if len(close):
            i = close[0]
            raise ValueError(f"onsets {onsets[i]:g} s and {onsets[i + 1]:g} s "
                             f"are closer than press_duration_s "
                             f"{self.press_duration_s:g} s")
        if not (len(onsets) == len(gt) == len(pidx) == len(rep)):
            raise ValueError("schedule columns must have equal length")
        for arr in (onsets, gt, pidx, rep):
            arr.flags.writeable = False
        object.__setattr__(self, "onsets_s", onsets)
        object.__setattr__(self, "ground_truth_mm", gt)
        object.__setattr__(self, "press_index", pidx)
        object.__setattr__(self, "repetition", rep)

    def __len__(self) -> int:
        return len(self.onsets_s)


def make_schedule(layout: SensorLayout, onset0_s: float = 5.0,
                  period_s: float = 2.0,
                  repetitions: int | None = None) -> PressSchedule:
    """Uniform-period schedule over the grid path, repeated in order."""
    reps = layout.repetitions if repetitions is None else repetitions
    n = layout.n_presses
    idx = np.tile(np.arange(n), reps)
    rep = np.repeat(np.arange(reps), n)
    onsets = onset0_s + np.arange(n * reps) * period_s
    return PressSchedule(onsets, layout.press_duration_s,
                         layout.grid_points[idx], idx, rep)


def read_events(path, camera_id, fmt: str | None = None,
                roi: tuple[int, int] | None = None) -> EventStream:
    """Load an event file (format inferred from the suffix unless given).

    With ``roi = (v_lo, v_hi)`` only the events inside the band are
    returned, exactly as ``crop_roi(read_events(path, camera_id, fmt),
    *roi)`` returns them: their ordinals are their positions in the
    file's time-sorted stream.

    Each format is a source of column blocks (``_binary_columns``,
    ``_csv_columns``), from which ``EventStream.from_blocks`` builds the
    stream.

    Malformed CSV lines are counted and logged; more than 1% malformed
    raises FormatError. So does a value that ``EventStream`` refuses, with
    its message after the file's path.
    """
    path = Path(path)
    if not path.exists():
        raise IOError(f"event file not found: {path}")
    if roi is not None:
        check_roi(*roi)
    if fmt is None:
        fmt = "bin" if path.suffix in (".bin", ".evt") else "csv"
    if fmt not in ("bin", "csv"):
        raise ValueError(f"unknown event format: {fmt}")
    with open(path, "rb") as fh:
        if fmt == "bin":
            count = _binary_header(fh, path)
            size = count * _RECORD_DTYPE.itemsize
            blocks = partial(_binary_columns, fh, count)
        else:
            size = os.fstat(fh.fileno()).st_size
            blocks = partial(_csv_columns, fh, path)
        return _build(EventStream.from_blocks, str(path), camera_id, blocks,
                      size, roi)


CSV_HEADER = "t_us,u,v,polarity"
_CSV_HEADER_LINE = CSV_HEADER.encode("ascii") + b"\n"
_NL, _COMMA = ord("\n"), ord(",")
_LINES_PER_BLOCK = 1 << 16  # rows per write of either writer
_CSV_BLOCK_BYTES = 1 << 16  # per block of the CSV reader
_MAX_PLAIN_FIELD = 18  # digits; any such value fits int64


def _csv_blocks(fh):
    """``(offset, data)`` of each block of whole lines of an open CSV file:
    about ``_CSV_BLOCK_BYTES`` bytes read from ``offset`` on and cut after
    their last LF, or their last CR if they hold no LF, so no line and no
    UTF-8 character straddles two blocks. The last block may lack its
    newline. Only a read without LF can cut a CRLF between its CR and its
    LF; that leaves a blank line, which the rule skips.
    """
    pieces, offset = [], 0
    while chunk := fh.read(_CSV_BLOCK_BYTES):
        # a blank line would send a CRLF file's block to the line rule
        cut = chunk.rfind(b"\n") + 1 or chunk.rfind(b"\r") + 1
        if not cut:  # a line longer than a block
            pieces.append(chunk)
            continue
        data = b"".join((*pieces, chunk[:cut]))
        yield offset, data
        offset += len(data)
        pieces = [chunk[cut:]]
    tail = b"".join(pieces)
    if tail:
        yield offset, tail


def _decode_error(path: Path, exc: UnicodeDecodeError,
                  offset: int) -> FormatError:
    """The error of decoding the whole file, from that of its block at
    byte ``offset``: the block starts at a character boundary, so the
    file's first bad byte is the block's, ``offset`` bytes further on."""
    start, end = offset + exc.start, offset + exc.end
    where = (f"byte 0x{exc.object[exc.start]:02x} in position {start}"
             if end == start + 1 else f"bytes in position {start}-{end - 1}")
    return FormatError(f"{path}: '{exc.encoding}' codec can't decode "
                       f"{where}: {exc.reason}")


def _csv_text(path: Path, offset: int, data: bytes) -> bytes:
    """A block of whole lines at byte ``offset`` of a CSV file, checked as
    UTF-8, with universal newlines (as text-mode reading translates them)
    and a final newline."""
    if not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise _decode_error(path, exc, offset) from None
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if not data.endswith(b"\n"):
        data += b"\n"
    return data


def _csv_rows(path: Path, offset: int, data: bytes):
    """``(rows, malformed, total)`` of a block of whole lines at byte
    ``offset`` of a CSV file, by the line rule (see ``_csv_line_rows``).

    A block that is all plain lines of four unsigned decimals, each of 1
    to ``_MAX_PLAIN_FIELD`` digits, after an optional exact header at
    byte 0 (every block this module writes), is parsed in one
    np.fromstring call; any other block goes through ``_csv_line_rows``.
    """
    data = _csv_text(path, offset, data)
    body = (data[len(_CSV_HEADER_LINE):]
            if offset == 0 and data.startswith(_CSV_HEADER_LINE) else data)
    seps = body.translate(None, b"0123456789")
    n = len(seps) // 4  # the line count, if the block passes
    if seps == b",,,\n" * n:
        # the separators alone are below "0"; a gap of 1 is an empty field
        sep = np.flatnonzero(np.frombuffer(body, np.uint8) < ord("0"))
        gaps = np.diff(sep, prepend=-1)
        if not n or (gaps.min() >= 2 and gaps.max() <= _MAX_PLAIN_FIELD + 1):
            rows = np.fromstring(body.replace(b"\n", b","), dtype=np.int64,
                                 sep=",")
            return rows.reshape(n, 4), 0, n
    return _csv_line_rows(path, offset, data)


def _csv_line_rows(path: Path, offset: int, data: bytes):
    """``(rows, malformed, total)`` of a block of whole lines at byte
    ``offset`` of a CSV file, by the line rule: its (n, 4) rows in file
    order (int64, or object when a value overflows int64), its malformed
    lines and its non-blank lines other than the header.

    Each line is stripped and blank lines are skipped; the file's first
    line may be the exact header; every other line must be four
    comma-separated fields that int() accepts, or it counts as malformed.
    """
    lines = _csv_text(path, offset, data).decode("utf-8").split("\n")
    # the header line is optional; a bare data row is accepted
    if offset == 0 and lines[0].strip() == CSV_HEADER:
        lines = lines[1:]
    rows = []
    malformed = total = 0
    for line in lines:
        line = line.strip()
        if not line:
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
        rows.append(vals)
    try:
        rows = np.array(rows, dtype=np.int64)
    except OverflowError:
        # outside every column's range: the stream's check names it
        rows = np.array(rows, dtype=object)
    return rows.reshape(-1, 4), malformed, total


def _csv_tally(path: Path, malformed: int, total: int) -> None:
    """Refuse a file with more than 1% malformed lines; log the rest."""
    if total and malformed / total > 0.01:
        raise FormatError(f"{path}: {malformed}/{total} malformed lines")
    if malformed:
        log.warning("%s: skipped %d malformed lines", path, malformed)
    if not total:
        log.warning("%s: empty event file", path)


def _csv_columns(fh, path: Path):
    """``(bytes read, columns)`` of each block of an open CSV file that
    holds rows, by the line rule (see ``_csv_rows``), read from its start.
    The malformed lines are tallied (``_csv_tally``) once the last block
    is read."""
    fh.seek(0)
    malformed = total = 0
    for offset, data in _csv_blocks(fh):
        rows, bad, lines = _csv_rows(path, offset, data)
        malformed += bad
        total += lines
        if len(rows):
            # contiguous columns reduce several times faster
            yield offset + len(data), [np.ascontiguousarray(c)
                                       for c in rows.T]
    _csv_tally(path, malformed, total)


def _binary_header(fh, path: Path) -> int:
    """The record count of an open binary event file, once its header and
    size are checked; the file is left at its first record."""
    head = fh.read(16)
    if len(head) < 16:
        raise FormatError(f"{path}: truncated header")
    magic, version, count = struct.unpack("<4sB3xQ", head)
    if magic != BINARY_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if version != BINARY_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    body = os.fstat(fh.fileno()).st_size - 16
    if body % _RECORD_DTYPE.itemsize:
        raise FormatError(f"{path}: {body} body bytes are not "
                          "whole 16-byte records")
    if body // _RECORD_DTYPE.itemsize != count:
        raise FormatError(f"{path}: header count {count} != "
                          f"{body // _RECORD_DTYPE.itemsize} records")
    if not count:
        log.warning("%s: empty event file", path)
    return count


def _binary_columns(fh, count: int):
    """``(bytes read, columns)`` of each block of at most
    ``_RECORDS_PER_BLOCK`` records of an open binary file, read from its
    first record on; the bytes read do not count the header."""
    fh.seek(16)
    width = _RECORD_DTYPE.itemsize
    for start in range(0, count, _RECORDS_PER_BLOCK):
        n = min(_RECORDS_PER_BLOCK, count - start)
        rec = np.frombuffer(fh.read(n * width), dtype=_RECORD_DTYPE)
        cols = [np.ascontiguousarray(rec[f]) for f in _EVENT_FIELDS]
        del rec  # the record bytes go before the consumer's gathers
        yield (start + n) * width, cols


def _csv_block(cols) -> np.ndarray:
    """The bytes of one block of CSV lines, as a uint8 array, from
    non-negative int columns.

    Each column's values are written right-aligned in as many digit
    places as its largest value needs, then a comma (a newline after the
    last column); the leading zeros are masked out, and one compress of
    the masked matrix is the block's text.
    """
    x = [np.asarray(c, dtype=np.int64) for c in cols]
    widths = [len(str(int(c.max()))) for c in x]
    chars = np.full((len(x[0]), sum(widths) + len(x)), _COMMA, dtype=np.uint8)
    chars[:, -1] = _NL
    keep = np.ones(chars.shape, dtype=bool)
    start = 0
    for value, w in zip(x, widths):
        rest = value
        for k in range(w):  # the digit of 10**k, k places from the right
            q = rest // 10
            chars[:, start + w - 1 - k] = rest - 10 * q + ord("0")
            if k:  # a leading zero unless value >= 10**k
                keep[:, start + w - 1 - k] = value >= 10 ** k
            rest = q
        start += w + 1  # the digits and their separator
    return chars[keep]


def write_events(stream: EventStream, path, fmt: str = "bin") -> None:
    """Write a stream so that read_events round-trips it exactly.

    Raw timestamps are written (no alignment offset applied). Both
    formats are written one block of ``_LINES_PER_BLOCK`` rows at a time,
    each block's int64 times built from the stream's high-word rule, so
    no whole time column or record array is ever held.
    """
    path = Path(path)
    if fmt not in ("bin", "csv"):
        raise ValueError(f"unknown event format: {fmt}")
    with open(path, "wb") as fh:
        if fmt == "csv":
            fh.write(CSV_HEADER.encode("ascii") + b"\n")
        else:
            fh.write(struct.pack("<4sB3xQ", BINARY_MAGIC, BINARY_VERSION,
                                 len(stream)))
        for i in range(0, len(stream), _LINES_PER_BLOCK):
            part = stream.subset(slice(i, i + _LINES_PER_BLOCK))
            cols = (part.t, part.u, part.v, part.polarity)
            if fmt == "csv":
                fh.write(_csv_block(cols))
                continue
            rec = np.zeros(len(part), dtype=_RECORD_DTYPE)
            for name, col in zip(_EVENT_FIELDS, cols):
                rec[name] = col
            fh.write(rec.data)


def detect_sync_taps(stream: EventStream, spec: SyncSpec = SyncSpec()) -> np.ndarray:
    """Onset times (aligned seconds) of the sync taps at the stream start.

    Peak regions are contiguous runs of ``spec.bin_s`` bins above a multiple
    of the search window's median bin rate; a qualifying triple must have
    consecutive spacings within the tolerance of the tap interval. Among
    qualifying triples the one with the largest total peak rate wins.
    """
    if not len(stream):
        raise SyncError("empty stream: no sync taps")
    start_s, _ = stream.extent_s()
    window = stream.slice_time_s(start_s, start_s + spec.search_window_s)
    hist = event_rate_histogram(window, spec.bin_s)
    if not len(hist):
        raise SyncError("no events in the sync search window")
    rates = hist.rates
    med = float(np.median(rates))
    # a silent background gives median 0; any active bin is then a peak
    thr = spec.onset_threshold_multiple * med
    above = rates > thr
    if not np.any(above):
        raise SyncError("no rate peaks above the sync threshold")
    # contiguous peak regions: (onset bin, peak rate), in time order; the
    # bins between and after them are at or below the threshold, so each
    # segment's maximum is its region's
    edges = np.flatnonzero(np.diff(np.concatenate(([0], above.view(np.int8), [0]))))
    starts = edges[::2]
    onsets = hist.bin_starts_s[starts]
    peak = np.maximum.reduceat(rates, starts)

    n = spec.n_taps
    if len(onsets) < n:
        raise SyncError(
            f"found {len(onsets)} rate peaks, need {n}",
            candidates_s=onsets.tolist())
    best = None
    for combo in combinations(range(len(onsets)), n):
        gaps = np.diff(onsets[list(combo)])
        if np.all(np.abs(gaps - spec.tap_interval_s) <= spec.spacing_tolerance_s):
            score = peak[list(combo)].sum()
            if best is None or score > best[0]:
                best = (score, combo)
    if best is None:
        raise SyncError(
            "no tap triple with the expected spacing",
            candidates_s=onsets.tolist())
    return onsets[list(best[1])]


def align_streams(s1: EventStream, s2: EventStream,
                  spec: SyncSpec = SyncSpec(),
                  ) -> tuple[EventStream, EventStream, np.ndarray, np.ndarray]:
    """Set s2's time offset so the mean tap onsets of both streams agree.

    The offset is averaged over all taps to soak up per-tap onset jitter;
    per-tap residuals beyond ``MAX_TAP_RESIDUAL_S`` raise SyncError. Returns
    both streams and the tap onsets found in each, before alignment.
    """
    taps1 = detect_sync_taps(s1, spec)
    taps2 = detect_sync_taps(s2, spec)
    offset_s = float(np.mean(taps1) - np.mean(taps2))
    offset_us = int(round(offset_s * US_PER_S))
    out2 = s2.with_offset_us(s2.time_offset_us + offset_us)
    residual = np.abs((taps2 + offset_us / US_PER_S) - taps1)
    if np.any(residual > MAX_TAP_RESIDUAL_S):
        raise SyncError(
            f"tap residuals after alignment exceed {MAX_TAP_RESIDUAL_S}s: "
            f"{residual.tolist()}")
    return s1, out2, taps1, taps2


@dataclass
class RunConfig:
    """Everything a batch run needs, loadable from a single JSON document."""

    cam1_path: str = ""
    cam2_path: str = ""
    file_format: str = "bin"
    layout: SensorLayout = field(default_factory=SensorLayout)
    sync: SyncSpec = field(default_factory=SyncSpec)
    schedule: PressSchedule | None = None
    camera_models: tuple[CameraModel, CameraModel] = None
    roi: tuple[int, int] = DEFAULT_ROI
    baseline_s: float = 0.3
    cluster: DbscanParams = field(default_factory=DbscanParams)
    calibration_free: FreeParams = field(default_factory=FreeParams)
    exclude_presses: tuple[int, ...] = ()
    seed: int = 0
    synth: dict = field(default_factory=dict)  # SynthSpec keyword arguments
    latency: CusumParams = field(default_factory=CusumParams)

    def __post_init__(self):
        if self.camera_models is None:
            self.camera_models = default_models(self.layout.side_mm)
        if self.schedule is None:
            self.schedule = make_schedule(self.layout)


def _kinds(cls) -> dict:
    """Keys and value types of a dataclass whose every field has a default."""
    return {f.name: type(f.default) for f in fields(cls)}


# each section's keys, with the JSON type of its scalar values; None marks
# a value that its own rule reads
_LAYOUT_KINDS = {"side_mm": float, "grid_points_mm": None, "grid_cols": int,
                 "grid_rows": int, "grid_spacing_mm": float,
                 "grid_origin_mm": None, "repetitions": int,
                 "press_duration_s": float}
_MEANDER_KEYS = ("grid_cols", "grid_rows", "grid_origin_mm")
_SCHEDULE_ARRAYS = ("onsets_s", "ground_truth_mm", "press_index", "repetition")
_GENERATOR_KINDS = {"onset0_s": float, "period_s": float, "repetitions": int}
_SCHEDULE_KINDS = {**dict.fromkeys(_SCHEDULE_ARRAYS), **_GENERATOR_KINDS,
                   "press_duration_s": float}
_CLUSTER_KINDS = {"eps_px": float, "min_samples": int,
                  "min_cluster_points": int}
# h is not a config key: --h or --tune sets it
_LATENCY_KINDS = {k: v for k, v in _kinds(CusumParams).items() if k != "h"}
_TOP_KINDS = {"files": None, "layout": None, "sync": None, "schedule": None,
              "cameras": None, "roi": None, "baseline_s": float,
              "cluster": None, "calibration": None, "exclude_presses": None,
              "seed": int, "synth": None, "latency": None}
_KIND_NAMES = {float: "a number", int: "an integer", bool: "true or false",
               str: "a string"}
_PLURAL_NAMES = {float: "numbers", int: "integers"}


def _typed(value, path: str, kind: type):
    """``value`` as ``kind``, once its JSON type is checked: a float takes
    any finite number, an int only an integer, and neither takes a bool."""
    if (type(value) not in ((int, float) if kind is float else (kind,))
            or kind is float and not abs(value) <= sys.float_info.max):
        raise FormatError(f"{path} must be {_KIND_NAMES[kind]}, got "
                          f"{json.dumps(value, default=str)}")
    return kind(value)


def _typed_list(value, path: str, kind: type, length: int | None = None):
    """A list of ``kind`` values (``length`` of them, when given)."""
    if (not isinstance(value, (list, tuple))
            or length not in (None, len(value))):
        count = "" if length is None else f"{length} "
        raise FormatError(f"{path} must be a list of {count}"
                          f"{_PLURAL_NAMES[kind]}, got "
                          f"{json.dumps(value, default=str)}")
    return [_typed(x, f"{path}[{i}]", kind) for i, x in enumerate(value)]


def _pairs(value, path: str) -> np.ndarray:
    """The (n, 2) array of a list of number pairs."""
    if not isinstance(value, list):
        raise FormatError(f"{path} must be a list of number pairs, got "
                          f"{json.dumps(value, default=str)}")
    return np.array([_typed_list(p, f"{path}[{i}]", float, 2)
                     for i, p in enumerate(value)], dtype=np.float64)


def _section(doc: dict, name: str, kinds: dict) -> dict:
    """The object at JSON path ``name`` (empty when absent), checked to hold
    only keys of ``kinds``; each value whose kind is a type is checked and
    converted by ``_typed``."""
    sub = doc
    for part in filter(None, name.split(".")):
        sub = sub.get(part, {})
    if not isinstance(sub, dict):
        raise FormatError(f"{name or 'config'} must be a JSON object")
    prefix = f"{name}." if name else ""
    _known(sub, prefix, kinds)
    return {k: v if kinds[k] is None else _typed(v, prefix + k, kinds[k])
            for k, v in sub.items()}


def _known(d: dict, prefix: str, keys) -> None:
    """Refuse a key of ``d`` outside ``keys``, at JSON path ``prefix``."""
    unknown = sorted(set(d) - set(keys))
    if unknown:
        raise FormatError(f"unknown key {prefix}{unknown[0]}")


def _only(d: dict, name: str, keys, form: str) -> None:
    """Refuse a key of section ``name`` that its ``form`` does not read."""
    extra = sorted(set(d) - set(keys))
    if extra:
        raise FormatError(f"{name}.{extra[0]} is not read by {form}")


def _build(make, name: str, *args, **kwargs):
    """``make(*args, **kwargs)``; the ValueError of a broken invariant is
    raised as FormatError at ``name``, a JSON path or an input file."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise FormatError(f"{name}: {exc}") from None


def camera_pair(cams, side_mm: float) -> tuple[CameraModel, CameraModel]:
    """The two camera models of a ``cameras`` list, each entry giving
    exactly the CameraModel parameters, as numbers, and a position inside
    the camera box of a ``side_mm`` skin."""
    if not isinstance(cams, list) or len(cams) != 2:
        raise FormatError("cameras must list exactly 2 camera models")
    models = []
    for i, cam in enumerate(cams):
        if not isinstance(cam, dict):
            raise FormatError(f"cameras[{i}] must be a JSON object")
        _known(cam, f"cameras[{i}].", (f.name for f in fields(CameraModel)))
        params = {}
        for f in fields(CameraModel):
            if f.name not in cam:
                raise FormatError(f"missing key cameras[{i}].{f.name}")
            params[f.name] = _typed(cam[f.name], f"cameras[{i}].{f.name}",
                                    float)
        models.append(_build(CameraModel, f"cameras[{i}]", **params))
        _build(check_camera_box, f"cameras[{i}]", models[-1], side_mm)
    return models[0], models[1]


def _given(d: dict, *keys, **renamed) -> dict:
    """The ``keys`` that ``d`` sets, and the ``renamed`` ones under their
    new names, as keyword arguments: a key the document leaves out keeps
    the default of the function they are passed to."""
    return {**{k: d[k] for k in keys if k in d},
            **{new: d[k] for k, new in renamed.items() if k in d}}


def _layout_from_dict(d: dict) -> SensorLayout:
    args = _given(d, "side_mm", "grid_spacing_mm", "repetitions",
                  "press_duration_s")
    if "grid_points_mm" in d:
        _only(d, "layout", set(_LAYOUT_KINDS) - set(_MEANDER_KEYS),
              "a layout with grid_points_mm")
        args["grid_points"] = _pairs(d["grid_points_mm"],
                                     "layout.grid_points_mm")
    elif any(k in d for k in _MEANDER_KEYS):
        for key in ("grid_cols", "grid_rows"):
            if d.get(key, 1) < 1:
                raise FormatError(f"layout.{key} must be at least 1, "
                                  f"got {d[key]}")
        meander = _given(d, grid_cols="cols", grid_rows="rows",
                         grid_spacing_mm="spacing_mm")
        if "grid_origin_mm" in d:
            meander["origin_mm"] = tuple(_typed_list(
                d["grid_origin_mm"], "layout.grid_origin_mm", float, 2))
        args["grid_points"] = meander_grid(**meander)
    return _build(SensorLayout, "layout", **args)


def _schedule_from_dict(d: dict, layout: SensorLayout) -> PressSchedule:
    if not any(k in d for k in _SCHEDULE_ARRAYS):
        _only(d, "schedule", _GENERATOR_KINDS, "a generator schedule")
        if d.get("repetitions", 0) < 0:
            raise FormatError("schedule.repetitions must not be negative, "
                              f"got {d['repetitions']}")
        return _build(make_schedule, "schedule", layout, **d)
    _only(d, "schedule", _SCHEDULE_ARRAYS + ("press_duration_s",),
          "an explicit schedule")
    for key in _SCHEDULE_ARRAYS:
        if key not in d:
            raise FormatError(f"missing key schedule.{key}")
    cols = {"onsets_s": _typed_list(d["onsets_s"], "schedule.onsets_s", float),
            "ground_truth_mm": _pairs(d["ground_truth_mm"],
                                      "schedule.ground_truth_mm"),
            "press_index": _typed_list(d["press_index"],
                                       "schedule.press_index", int),
            "repetition": _typed_list(d["repetition"], "schedule.repetition",
                                      int)}
    n = len(cols["onsets_s"])
    for key, col in cols.items():
        if len(col) != n:
            raise FormatError(f"schedule.{key} has {len(col)} entries, "
                              f"schedule.onsets_s has {n}")
    return _build(PressSchedule, "schedule", press_duration_s=d.get(
        "press_duration_s", layout.press_duration_s), **cols)


def _synth_from_dict(doc: dict) -> dict:
    """The "synth" section as SynthSpec keyword arguments."""
    # synth imports this module
    from .synth import SYNTH_KINDS, RateProfile, check_synth_values

    syn = _section(doc, "synth", SYNTH_KINDS)
    half = syn.get("burst_v_halfwidth_px")
    if half is not None:
        syn["burst_v_halfwidth_px"] = _typed(
            half, "synth.burst_v_halfwidth_px", float)
    try:
        check_synth_values(syn, "synth.")
    except ValueError as exc:
        raise FormatError(str(exc)) from None
    quantize = syn.get("burst_u_quantize", "split")
    if quantize not in ("split", "round"):
        raise FormatError('synth.burst_u_quantize must be "split" or "round", '
                          f"got {json.dumps(quantize, default=str)}")
    if "rate_profile" in syn:
        syn["rate_profile"] = _build(
            RateProfile, "synth.rate_profile",
            *_typed_list(syn["rate_profile"], "synth.rate_profile", float, 3))
    return syn


def _read_json(path: Path, what: str):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise FormatError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    except OSError as exc:
        raise IOError(f"cannot read {what} {path}: {exc}") from exc


def load_config(path) -> RunConfig:
    """Parse a run-config JSON file; raises FormatError with location info."""
    path = Path(path)
    return config_from_dict(_read_json(path, "config"), base_dir=path.parent)


def load_models(path, side_mm: float) -> tuple[CameraModel, CameraModel]:
    """The camera models of a JSON file: a calibrate report or a bare list."""
    doc = _read_json(Path(path), "models")
    if isinstance(doc, dict):
        if "cameras" not in doc:
            raise FormatError(f"{path}: missing key cameras")
        doc = doc["cameras"]
    return camera_pair(doc, side_mm)


def config_from_dict(doc: dict, base_dir: Path | None = None) -> RunConfig:
    """Build a RunConfig, each section as the dataclass its stage takes.

    Unknown keys, values of the wrong JSON type and values that break a
    dataclass invariant raise FormatError with their JSON path.
    """
    top = _section(doc, "", _TOP_KINDS)
    layout = _layout_from_dict(_section(doc, "layout", _LAYOUT_KINDS))
    sync = _build(SyncSpec, "sync", **_section(doc, "sync", _kinds(SyncSpec)))
    schedule = _schedule_from_dict(_section(doc, "schedule", _SCHEDULE_KINDS),
                                   layout)
    args = _given(top, "baseline_s", "seed")
    if args.get("baseline_s", 0) < 0:
        raise FormatError(f"baseline_s must not be negative, got "
                          f"{args['baseline_s']:g}")
    if "cameras" in top:
        args["camera_models"] = camera_pair(top["cameras"], layout.side_mm)
    files = _section(doc, "files", dict.fromkeys(("cam1", "cam2", "format"),
                                                 str))
    if files.get("format", "bin") not in ("bin", "csv"):
        raise FormatError('files.format must be "bin" or "csv", '
                          f"got {json.dumps(files['format'])}")
    for key in ("cam1", "cam2"):
        if files.get(key) and base_dir is not None:
            files[key] = str(base_dir / files[key])
    args.update(_given(files, format="file_format", cam1="cam1_path",
                       cam2="cam2_path"))
    clu = _section(doc, "cluster", _CLUSTER_KINDS)
    _section(doc, "calibration", {"free": None})
    cal = _section(doc, "calibration.free", _kinds(FreeParams))
    if "roi" in top:
        roi = top["roi"]
        if (not isinstance(roi, (list, tuple)) or len(roi) != 2
                or not all(type(b) is int for b in roi)
                or not 0 <= roi[0] < roi[1] <= SENSOR_HEIGHT):
            raise FormatError(f"roi must be two integers 0 <= lo < hi <= "
                              f"{SENSOR_HEIGHT}, got "
                              f"{json.dumps(roi, default=str)}")
        args["roi"] = tuple(roi)
    if "exclude_presses" in top:
        args["exclude_presses"] = tuple(_typed_list(
            top["exclude_presses"], "exclude_presses", int))
    latency = _build(CusumParams, "latency",
                     **_section(doc, "latency", _LATENCY_KINDS))
    # the CUSUM bins each trial's press and baseline windows
    _build(check_window_bins, "latency", latency,
           max(schedule.press_duration_s,
               args.get("baseline_s", RunConfig.baseline_s)))
    return RunConfig(
        layout=layout,
        sync=sync,
        schedule=schedule,
        cluster=_build(DbscanParams, "cluster",
                       **_given(clu, "min_samples", "min_cluster_points",
                                eps_px="eps")),
        calibration_free=FreeParams(**cal),
        synth=_synth_from_dict(doc),
        latency=latency,
        **args,
    )
