"""Event file reading/writing, three-tap stream synchronization, and run
configuration loading.

File formats:

* CSV: header ``t_us,u,v,polarity``, one event per line, polarity 0/1.
* Binary: 16-byte header (magic ``EVT1``, version byte, 3 reserved bytes,
  little-endian uint64 event count) followed by 16-byte records
  (int64 t_us, uint16 u, uint16 v, uint8 polarity, 3 pad bytes).
"""

from __future__ import annotations

import json
import logging
import struct
from dataclasses import dataclass, field, fields
from itertools import combinations
from pathlib import Path

import numpy as np

from .events import (DEFAULT_ROI, SENSOR_HEIGHT, SENSOR_WIDTH, US_PER_S,
                     EventStream, SensorLayout, event_rate_histogram,
                     meander_grid)
from .geometry import (CameraModel, FreeParams, check_camera_box,
                       default_models)

log = logging.getLogger(__name__)

BINARY_MAGIC = b"EVT1"
BINARY_VERSION = 1
_RECORD_DTYPE = np.dtype([
    ("t", "<i8"), ("u", "<u2"), ("v", "<u2"), ("polarity", "u1"),
    ("pad", "u1", 3),
])


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
        if self.tap_interval_s <= 0:
            raise ValueError("tap_interval_s must be positive")


@dataclass(frozen=True)
class PressSchedule:
    """Nominal press timing and ground truth, relative to the first sync tap."""

    onsets_s: np.ndarray          # strictly increasing
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


def read_events(path, camera_id, fmt: str | None = None) -> EventStream:
    """Load an event file (format inferred from the suffix unless given).

    Malformed CSV lines are counted and logged; more than 1% malformed
    raises FormatError.
    """
    path = Path(path)
    if not path.exists():
        raise IOError(f"event file not found: {path}")
    if fmt is None:
        fmt = "bin" if path.suffix in (".bin", ".evt") else "csv"
    if fmt == "bin":
        return _read_binary(path, camera_id)
    if fmt == "csv":
        return _read_csv(path, camera_id)
    raise ValueError(f"unknown event format: {fmt}")


CSV_HEADER = "t_us,u,v,polarity"
# every value an event column may hold (CSV names): what EventStream
# stores and accepts
CSV_RANGES = (("t_us", 0, 2**63 - 1), ("u", 0, SENSOR_WIDTH - 1),
              ("v", 0, SENSOR_HEIGHT - 1), ("polarity", 0, 255))
_NL, _COMMA, _MINUS = ord("\n"), ord(","), ord("-")
_LINES_PER_BLOCK = 1 << 16
_MAX_PLAIN_FIELD = 18  # digits and sign; any such value fits int64


def _plain_lines(buf: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Which lines of ``buf`` are four plain decimals, ``-?[0-9]+`` joined
    by commas, each at most ``_MAX_PLAIN_FIELD`` characters long.

    ``buf`` holds whole lines, each ending in a newline, and ``starts``
    the first byte of each. int() and np.fromstring read such a line the
    same way. A byte is at fault when it is none of digit, comma, minus
    or newline, a comma not between a digit and a field start, a minus
    not between a field start and a digit, or a separator that ends a
    field longer than the limit.
    """
    digit = (buf >= ord("0")) & (buf <= ord("9"))
    comma = buf == _COMMA
    minus = buf == _MINUS
    newline = buf == _NL
    fault = ~(digit | comma | minus | newline)
    fault[0] |= comma[0]
    fault[1:] |= comma[1:] & ~digit[:-1]
    fault[:-1] |= comma[:-1] & ~(digit[1:] | minus[1:])
    fault[1:] |= minus[1:] & ~(comma[:-1] | newline[:-1])
    fault[:-1] |= minus[:-1] & ~digit[1:]
    sep = np.flatnonzero(comma | newline)
    fault[sep[np.diff(sep, prepend=-1) > _MAX_PLAIN_FIELD + 1]] = True
    # separators per line: its commas and its newline
    n_sep = np.diff(np.searchsorted(sep, np.append(starts[1:], len(buf))),
                    prepend=0)
    # each reduced segment is a line and its newline, so none is empty
    return ~np.logical_or.reduceat(fault, starts) & (n_sep == 4)


def _read_csv(path: Path, camera_id) -> EventStream:
    """Events of a CSV file, by the line rule.

    Each line is stripped and blank lines are skipped; the first line may
    be the exact header; every other line must be four comma-separated
    fields that int() accepts, or it counts as malformed. Lines of plain
    decimals (see ``_plain_lines``), all of a file this module writes,
    are parsed in C by np.fromstring; the rule runs in Python only on the
    other lines.
    """
    raw = path.read_bytes()
    if not raw.isascii():
        raw.decode("utf-8")  # undecodable files fail as in text mode
    # universal newlines, as text-mode reading translates them
    data = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    del raw
    if not data.endswith(b"\n"):
        data += b"\n"
    buf = np.frombuffer(data, dtype=np.uint8)
    edges = np.concatenate(([0], np.flatnonzero(buf == _NL) + 1))
    n_lines = len(edges) - 1
    # in blocks of lines, so that per-byte masks and copies stay small
    fast = np.empty((n_lines, 4), dtype=np.int64)
    n_fast = 0
    plain = []
    for i in range(0, n_lines, _LINES_PER_BLOCK):
        e = edges[i:i + _LINES_PER_BLOCK + 1]
        chunk = buf[e[0]:e[-1]]
        ok = _plain_lines(chunk, e[:-1] - e[0])
        if not ok.all():
            chunk = chunk[np.repeat(ok, np.diff(e))]
        vals = np.fromstring(chunk.tobytes().replace(b"\n", b","),
                             dtype=np.int64, sep=",").reshape(-1, 4)
        fast[n_fast:n_fast + len(vals)] = vals
        n_fast += len(vals)
        plain.append(ok)
    fast = fast[:n_fast]
    plain = np.concatenate(plain)
    other = np.flatnonzero(~plain)
    # the header line is optional; a bare data row is accepted
    if len(other) and other[0] == 0 and (
            data[:edges[1]].decode("utf-8").strip() == CSV_HEADER):
        other = other[1:]

    rows, row_lines = [], []
    malformed = 0
    total = len(fast)
    for i in other.tolist():
        line = data[edges[i]:edges[i + 1]].decode("utf-8").strip()
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
        row_lines.append(i)
    if total and malformed / total > 0.01:
        raise FormatError(f"{path}: {malformed}/{total} malformed lines")
    if malformed:
        log.warning("%s: skipped %d malformed lines", path, malformed)
    if not total:
        log.warning("%s: empty event file", path)

    for k, (name, lo, hi) in enumerate(CSV_RANGES):
        col = [r[k] for r in rows]
        if len(fast):
            col += [int(fast[:, k].min()), int(fast[:, k].max())]
        bad = [x for x in col if not lo <= x <= hi]
        if bad:
            raise FormatError(f"{path}: column {name} value {bad[0]} "
                              f"outside [{lo}, {hi}]")
    if rows:
        lines = np.concatenate((np.flatnonzero(plain), row_lines))
        fast = np.concatenate((fast, np.array(rows, dtype=np.int64)))
        fast = fast[np.argsort(lines)]
    return EventStream(camera_id, fast[:, 0], fast[:, 1], fast[:, 2],
                       fast[:, 3])


def _read_binary(path: Path, camera_id) -> EventStream:
    raw = path.read_bytes()
    if len(raw) < 16:
        raise FormatError(f"{path}: truncated header")
    magic, version, count = struct.unpack("<4sB3xQ", raw[:16])
    if magic != BINARY_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if version != BINARY_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    body = np.frombuffer(raw, dtype=_RECORD_DTYPE, offset=16)
    if len(body) != count:
        raise FormatError(f"{path}: header count {count} != {len(body)} records")
    if not count:
        log.warning("%s: empty event file", path)
    cols = (body["t"], body["u"], body["v"], body["polarity"])
    for (name, lo, hi), col in zip(CSV_RANGES, cols):
        if count and not lo <= col.min() <= col.max() <= hi:
            bad = col[(col < lo) | (col > hi)][0]
            raise FormatError(f"{path}: column {name} value {bad} outside [{lo}, {hi}]")
    return EventStream(camera_id, body["t"], body["u"].astype(np.int16),
                       body["v"].astype(np.int16), body["polarity"])


def write_events(stream: EventStream, path, fmt: str = "bin") -> None:
    """Write a stream so that read_events round-trips it exactly.

    Raw timestamps are written (no alignment offset applied).
    """
    path = Path(path)
    if fmt == "csv":
        rows = np.column_stack([stream.t, stream.u, stream.v, stream.polarity])
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(CSV_HEADER + "\n")
            # one C-level format per block of rows
            for i in range(0, len(rows), _LINES_PER_BLOCK):
                block = rows[i:i + _LINES_PER_BLOCK]
                fh.write("%d,%d,%d,%d\n" * len(block) % tuple(block.ravel().tolist()))
        return
    if fmt == "bin":
        rec = np.zeros(len(stream), dtype=_RECORD_DTYPE)
        rec["t"] = stream.t
        rec["u"] = stream.u.astype(np.uint16)
        rec["v"] = stream.v.astype(np.uint16)
        rec["polarity"] = stream.polarity
        with open(path, "wb") as fh:
            fh.write(struct.pack("<4sB3xQ", BINARY_MAGIC, BINARY_VERSION,
                                 len(stream)))
            fh.write(rec.tobytes())
        return
    raise ValueError(f"unknown event format: {fmt}")


def detect_sync_taps(stream: EventStream, spec: SyncSpec = SyncSpec()) -> np.ndarray:
    """Onset times (aligned seconds) of the sync taps at the stream start.

    Peak regions are contiguous runs of 10 ms bins above a multiple of
    the search window's median bin rate; a qualifying triple must have
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
    # contiguous peak regions: (onset bin, peak rate)
    edges = np.flatnonzero(np.diff(np.concatenate(([0], above.view(np.int8), [0]))))
    starts, ends = edges[::2], edges[1::2]
    onsets = hist.bin_starts_s[starts]
    peak = np.array([rates[a:b].max() for a, b in zip(starts, ends)])

    n = spec.n_taps
    if len(onsets) < n:
        raise SyncError(
            f"found {len(onsets)} rate peaks, need {n}",
            candidates_s=onsets.tolist())
    best = None
    order = np.argsort(onsets)
    ot = onsets[order]
    op = peak[order]
    for combo in combinations(range(len(ot)), n):
        gaps = np.diff(ot[list(combo)])
        if np.all(np.abs(gaps - spec.tap_interval_s) <= spec.spacing_tolerance_s):
            score = op[list(combo)].sum()
            if best is None or score > best[0]:
                best = (score, combo)
    if best is None:
        raise SyncError(
            "no tap triple with the expected spacing",
            candidates_s=ot.tolist())
    return ot[list(best[1])]


def align_streams(s1: EventStream, s2: EventStream,
                  spec: SyncSpec = SyncSpec(),
                  max_residual_s: float = 0.050) -> tuple[EventStream, EventStream]:
    """Set s2's time offset so the mean tap onsets of both streams agree.

    The offset is averaged over all taps to soak up per-tap onset jitter;
    per-tap residuals beyond ``max_residual_s`` raise SyncError.
    """
    taps1 = detect_sync_taps(s1, spec)
    taps2 = detect_sync_taps(s2, spec)
    offset_s = float(np.mean(taps1) - np.mean(taps2))
    offset_us = int(round(offset_s * US_PER_S))
    out2 = s2.with_offset_us(s2.time_offset_us + offset_us)
    residual = np.abs((taps2 + offset_us / US_PER_S) - taps1)
    if np.any(residual > max_residual_s):
        raise SyncError(
            f"tap residuals after alignment exceed {max_residual_s}s: "
            f"{residual.tolist()}")
    return s1, out2


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
    cluster_eps_px: float = 10.0
    cluster_min_samples: int = 10
    cluster_min_points: int = 10
    calibration_free: FreeParams = field(default_factory=FreeParams)
    exclude_presses: tuple[int, ...] = ()
    seed: int = 0
    synth: dict = field(default_factory=dict)
    latency: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.camera_models is None:
            self.camera_models = default_models(self.layout.side_mm)
        if self.schedule is None:
            self.schedule = make_schedule(self.layout)


# each section's keys, with the JSON type of its scalar values; None marks
# a value that its own rule reads
_LAYOUT_KINDS = {"side_mm": float, "grid_points_mm": None, "grid_cols": int,
                 "grid_rows": int, "grid_spacing_mm": float,
                 "grid_origin_mm": None, "repetitions": int,
                 "press_duration_s": float}
_SCHEDULE_KINDS = {"onsets_s": None, "press_duration_s": float,
                   "ground_truth_mm": None, "press_index": None,
                   "repetition": None, "onset0_s": float, "period_s": float,
                   "repetitions": int}
_TOP_KINDS = {"files": None, "layout": None, "sync": None, "schedule": None,
              "cameras": None, "roi": None, "baseline_s": float,
              "cluster": None, "calibration": None, "exclude_presses": None,
              "seed": int, "synth": None, "latency": None}
_KIND_NAMES = {float: "a number", int: "an integer", bool: "true or false",
               str: "a string"}
_PLURAL_NAMES = {float: "numbers", int: "integers"}


def _kinds(cls) -> dict:
    """Keys and value types of a dataclass whose every field has a default."""
    return {f.name: type(f.default) for f in fields(cls)}


def _typed(value, path: str, kind: type):
    """``value`` as ``kind``, once its JSON type is checked: a float takes
    any number, an int only an integer, and neither takes a bool."""
    if type(value) not in ((int, float) if kind is float else (kind,)):
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
    unknown = sorted(set(sub) - set(kinds))
    if unknown:
        raise FormatError(f"unknown key {prefix}{unknown[0]}")
    return {k: v if kinds[k] is None else _typed(v, prefix + k, kinds[k])
            for k, v in sub.items()}


def camera_pair(cams, side_mm: float) -> tuple[CameraModel, CameraModel]:
    """The two camera models of a ``cameras`` list, each entry giving every
    CameraModel parameter as a number and a position inside the camera box
    of a ``side_mm`` skin."""
    if not isinstance(cams, list) or len(cams) != 2:
        raise FormatError("cameras must list exactly 2 camera models")
    models = []
    for i, cam in enumerate(cams):
        if not isinstance(cam, dict):
            raise FormatError(f"cameras[{i}] must be a JSON object")
        params = {}
        for f in fields(CameraModel):
            if f.name not in cam:
                raise FormatError(f"missing key cameras[{i}].{f.name}")
            params[f.name] = _typed(cam[f.name], f"cameras[{i}].{f.name}",
                                    float)
        try:
            models.append(CameraModel(**params))
            check_camera_box(models[-1], side_mm)
        except ValueError as exc:
            raise FormatError(f"cameras[{i}]: {exc}") from None
    return models[0], models[1]


def _layout_from_dict(d: dict) -> SensorLayout:
    grid = None
    if "grid_points_mm" in d:
        grid = np.asarray(d["grid_points_mm"], dtype=np.float64)
    elif any(k in d for k in ("grid_cols", "grid_rows", "grid_origin_mm")):
        origin = (_typed_list(d["grid_origin_mm"], "layout.grid_origin_mm",
                              float, 2)
                  if "grid_origin_mm" in d else (2.0, 32.0))
        grid = meander_grid(
            cols=d.get("grid_cols", 25),
            rows=d.get("grid_rows", 10),
            spacing_mm=d.get("grid_spacing_mm", 4.0),
            origin_mm=tuple(origin),
        )
    return SensorLayout(
        side_mm=d.get("side_mm", 100.0),
        grid_points=grid,
        grid_spacing_mm=d.get("grid_spacing_mm", 4.0),
        repetitions=d.get("repetitions", 10),
        press_duration_s=d.get("press_duration_s", 0.55),
    )


def _schedule_from_dict(d: dict, layout: SensorLayout) -> PressSchedule:
    if "onsets_s" in d:
        for key in ("ground_truth_mm", "press_index", "repetition"):
            if key not in d:
                raise FormatError(f"missing key schedule.{key}")
        return PressSchedule(
            np.asarray(d["onsets_s"], dtype=np.float64),
            d.get("press_duration_s", layout.press_duration_s),
            np.asarray(d["ground_truth_mm"], dtype=np.float64),
            np.asarray(d["press_index"], dtype=np.int64),
            np.asarray(d["repetition"], dtype=np.int64),
        )
    return make_schedule(layout, onset0_s=d.get("onset0_s", 5.0),
                         period_s=d.get("period_s", 2.0),
                         repetitions=d.get("repetitions"))


def load_config(path) -> RunConfig:
    """Parse a run-config JSON file; raises FormatError with location info."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise FormatError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc
    except OSError as exc:
        raise IOError(f"cannot read config {path}: {exc}") from exc
    return config_from_dict(doc, base_dir=path.parent)


def config_from_dict(doc: dict, base_dir: Path | None = None) -> RunConfig:
    """Build a RunConfig; unknown keys and values of the wrong JSON type
    raise FormatError with their path."""
    from .latency import CusumParams  # latency imports this module

    top = _section(doc, "", _TOP_KINDS)
    layout = _layout_from_dict(_section(doc, "layout", _LAYOUT_KINDS))
    sync = SyncSpec(**_section(doc, "sync", _kinds(SyncSpec)))
    schedule = _schedule_from_dict(_section(doc, "schedule", _SCHEDULE_KINDS),
                                   layout)
    cams = top.get("cameras")
    models = (default_models(layout.side_mm) if cams is None
              else camera_pair(cams, layout.side_mm))
    files = _section(doc, "files", dict.fromkeys(("cam1", "cam2", "format"),
                                                 str))
    cam1 = files.get("cam1", "")
    cam2 = files.get("cam2", "")
    if base_dir is not None:
        cam1 = str(base_dir / cam1) if cam1 else ""
        cam2 = str(base_dir / cam2) if cam2 else ""
    clu = _section(doc, "cluster", {"eps_px": float, "min_samples": int,
                                    "min_cluster_points": int})
    _section(doc, "calibration", {"free": None})
    cal = _section(doc, "calibration.free", _kinds(FreeParams))
    latency = _section(doc, "latency", _kinds(CusumParams))
    roi = top.get("roi", DEFAULT_ROI)
    if (not isinstance(roi, (list, tuple)) or len(roi) != 2
            or not all(type(b) is int for b in roi)
            or not 0 <= roi[0] < roi[1] <= SENSOR_HEIGHT):
        raise FormatError(f"roi must be two integers 0 <= lo < hi <= "
                          f"{SENSOR_HEIGHT}, got {json.dumps(roi, default=str)}")
    return RunConfig(
        cam1_path=cam1,
        cam2_path=cam2,
        file_format=files.get("format", "bin"),
        layout=layout,
        sync=sync,
        schedule=schedule,
        camera_models=models,
        roi=tuple(roi),
        baseline_s=top.get("baseline_s", 0.3),
        cluster_eps_px=clu.get("eps_px", 10.0),
        cluster_min_samples=clu.get("min_samples", 10),
        cluster_min_points=clu.get("min_cluster_points",
                                   clu.get("min_samples", 10)),
        calibration_free=FreeParams(**cal),
        exclude_presses=tuple(_typed_list(top.get("exclude_presses", []),
                                          "exclude_presses", int)),
        seed=top.get("seed", 0),
        synth=top.get("synth", {}),
        latency=latency,
    )
