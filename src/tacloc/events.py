"""Core data model for DVS events: streams, sensor layout, ROI crop, rate series."""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

SENSOR_WIDTH = 640
SENSOR_HEIGHT = 480
DEFAULT_ROI = (200, 360)
US_PER_S = 1_000_000
# every value an event column may hold (file column names), and the dtype
# the gate casts it to; times are then held as uint32 low words and a
# high-word rule (see EventStream)
EVENT_COLUMNS = (("t_us", 0, 2**63 - 1, np.int64),
                 ("u", 0, SENSOR_WIDTH - 1, np.int16),
                 ("v", 0, SENSOR_HEIGHT - 1, np.int16),
                 ("polarity", 0, 255, np.uint8))


class CameraId(IntEnum):
    CAM1 = 1
    CAM2 = 2


def meander_grid(cols: int = 25, rows: int = 10, spacing_mm: float = 4.0,
                 origin_mm: tuple[float, float] = (2.0, 32.0)) -> np.ndarray:
    """Serpentine press grid: left-to-right on even rows, reversed on odd rows.

    Returns an (cols*rows, 2) array of (x, y) positions in mm, in press order.
    """
    x0, y0 = origin_mm
    pts = []
    for r in range(rows):
        xs = np.arange(cols) * spacing_mm + x0
        if r % 2 == 1:
            xs = xs[::-1]
        for x in xs:
            pts.append((x, y0 + r * spacing_mm))
    return np.asarray(pts, dtype=np.float64)


@dataclass(frozen=True)
class SensorLayout:
    """Physical skin geometry and the press protocol constants."""

    side_mm: float = 100.0
    grid_points: np.ndarray = None  # (n, 2) mm; default 250-point meander
    grid_spacing_mm: float = 4.0
    repetitions: int = 10
    press_duration_s: float = 0.55

    def __post_init__(self):
        pts = self.grid_points
        if pts is None:
            pts = meander_grid(spacing_mm=self.grid_spacing_mm)
        pts = np.asarray(pts, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError("grid_points must be an (n, 2) array")
        if np.any(pts < 0) or np.any(pts > self.side_mm):
            raise ValueError("grid points must lie within the sensor square")
        if not self.press_duration_s > 0:
            raise ValueError("press_duration_s must be positive")
        pts.flags.writeable = False
        object.__setattr__(self, "grid_points", pts)

    @property
    def n_presses(self) -> int:
        return len(self.grid_points)

    @property
    def area_mm2(self) -> float:
        return self.side_mm * self.side_mm

    @property
    def diagonal_mm(self) -> float:
        return float(np.hypot(self.side_mm, self.side_mm))


# the ordinal rule's gaps of a stream that dropped no row, and the
# high-word rule of an empty stream
_NO_GAPS = np.empty(0, dtype=np.int64)
_NO_GAPS.flags.writeable = False
# the run starts of a stream whose times share one high word
_ONE_RUN = np.zeros(1, dtype=np.int64)
_ONE_RUN.flags.writeable = False
_LOW_MASK = (1 << 32) - 1
_MAX_HIGH = (2**63 - 1) >> 32


def _column(values, name: str, lo: int, hi: int, dtype) -> np.ndarray:
    """``values`` as a contiguous ``dtype`` array, once each is checked to
    be a whole number in [lo, hi], so the cast never wraps or truncates.
    The min and max of a contiguous copy (several times faster to reduce
    than a record field) compare exactly as Python scalars; nan fails.
    A list or tuple that numpy holds as floats or objects is checked and
    stored item by item, as Python ints: float64 would round an int item
    such as ``2**63 - 1`` next to a float."""
    def refuse(items):
        outside = (x for x in items if not (lo <= x <= hi and x == int(x)))
        bad = next(outside, None)
        if bad is not None:
            raise ValueError(f"column {name} value {bad} outside [{lo}, {hi}]")

    a = np.ascontiguousarray(values)
    if a.ndim != 1:
        raise ValueError(f"column {name} must be one-dimensional")
    if isinstance(values, (list, tuple)) and a.dtype.kind in "fO":
        refuse(values)
        return np.array([int(x) for x in values], dtype=dtype)
    if a.size and not (a.dtype.kind in "biuf"
                       and lo <= a.min().item() and a.max().item() <= hi
                       and (a.dtype.kind != "f"
                            or np.array_equal(a, np.floor(a)))):
        refuse(a.ravel().tolist())
    return a.astype(dtype, copy=False)


def sort_packed(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``keys`` sorted and the stable order that sorts them, from one sort
    of ``key << b | index`` with b the bit width of ``len(keys)``: equal
    keys sort by index. The int64 keys must lie in [0, 2**(63 - b))."""
    n = len(keys)
    b = n.bit_length()
    packed = np.sort(keys << b | np.arange(n))
    order = packed & ((1 << b) - 1)
    packed >>= b
    return packed, order


def sort_times(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(t[order], order)`` of an int64 time column, where ``order`` is
    exactly ``np.argsort(t, kind="stable")``. One ``sort_packed`` of
    ``t - t.min()`` gives both; the argsort runs only when the span does
    not fit the packing (about 50 days of microseconds at 1.2M events)."""
    n = len(t)
    t0 = int(t.min()) if n else 0
    if n and int(t.max()) - t0 < 1 << (63 - n.bit_length()):
        ordered, order = sort_packed(t - t0)
        ordered += t0
        return ordered, order
    order = np.argsort(t, kind="stable")
    return t[order], order


def high_rule(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The high-word rule of a sorted int64 time column: the start index
    and the high word ``t >> 32`` of each run of events that share one,
    both int64. Times that stay inside one 2**32 us span (71.6 min) are
    one run, found from the first and last time alone; only a column
    that crosses a multiple of 2**32 us takes a per-event pass."""
    if not len(t):
        return _NO_GAPS, _NO_GAPS
    if t[0] >> 32 == t[-1] >> 32:
        return _ONE_RUN, np.array([t[0] >> 32], dtype=np.int64)
    high = t >> 32
    starts = np.flatnonzero(high[1:] != high[:-1]) + 1
    starts = np.concatenate((_ONE_RUN, starts))
    return starts, high[starts]


def _in_range_and_order(cols, t_last: int) -> bool:
    """Whether the columns of a block of events hold only values in their
    ``EVENT_COLUMNS`` ranges, and times in order from ``t_last`` on."""
    t = cols[0]
    return (all(lo <= c.min() and c.max() <= hi
                for c, (_, lo, hi, _) in zip(cols, EVENT_COLUMNS))
            and t_last <= t[0] and not np.any(t[1:] < t[:-1]))


def _in_band(blocks, size: int, lo: int, hi: int) -> tuple | None:
    """The columns, the high-word rule and the ordinal gaps of the rows
    with ``lo <= v <= hi`` of ``(bytes read, columns)`` blocks out of
    ``size`` bytes, read in one pass, or None when a value lies outside
    its ``EVENT_COLUMNS`` range or the times are out of order.

    The kept rows go straight into their columns, times as uint32 low
    words, which grow in place (``ndarray.resize``, so no second copy is
    ever held) to the count that the kept rows so far project over
    ``size``, and shrink to the kept count at the end. The time order
    lets a block whose last kept high word is the current run's add no
    run. Each dropped row adds its gap key, the count of rows kept
    before it (``EventStream``'s ``d_j - j``), to the gaps, which grow
    in place by an eighth.
    """
    cols = [np.empty(0, dtype) for *_, dtype in EVENT_COLUMNS]
    cols[0] = np.empty(0, np.uint32)
    gaps = np.empty(0, np.int64)
    run_starts, run_highs = [], []
    at = n_gaps = t_last = 0
    high = -1  # the current run's high word; no run yet
    for read, block in blocks:
        if not _in_range_and_order(block, t_last):
            return None
        t, v = block[0], block[2]
        t_last = t[-1]
        inside = (v >= lo) & (v <= hi)
        keep = np.flatnonzero(inside)
        rows = slice(None) if len(keep) == len(t) else keep
        need = at + len(keep)
        if need > len(cols[0]):
            cap = max(need + need // 8, need * size // read)
            for col in cols:
                col.resize(cap, refcheck=False)
        for col, values in zip(cols, block):
            col[at:need] = values[rows]
        if len(keep) and t[keep[-1]] >> 32 != high:
            starts, highs = high_rule(t[rows])
            new = highs != high  # all but a first run that goes on
            run_starts.append(starts[new] + at)
            run_highs.append(highs[new])
            high = highs[-1]
        if len(keep) < len(t):
            drop = np.flatnonzero(~inside)
            end = n_gaps + len(drop)
            if end > len(gaps):
                gaps.resize(end + end // 8, refcheck=False)
            # the rows kept before the i-th dropped row of the block
            np.subtract(drop, np.arange(len(drop)), out=gaps[n_gaps:end])
            gaps[n_gaps:end] += at
            n_gaps = end
        at = need
    for col in cols:
        col.resize(at, refcheck=False)
    gaps.resize(n_gaps, refcheck=False)
    runs = [np.concatenate(r) if r else np.empty(0, np.int64)
            for r in (run_starts, run_highs)]
    return cols, runs, gaps


def _joined(blocks) -> list:
    """The columns of every ``(bytes read, columns)`` block, each joined
    across the blocks; a column's blocks are let go once it is joined."""
    pieces = [[] for _ in EVENT_COLUMNS]
    for _, block in blocks:
        for piece, col in zip(pieces, block):
            piece.append(col)
    return [np.concatenate(pieces.pop(0)) for _ in EVENT_COLUMNS]


class EventStream:
    """Time-sorted columnar event sequence for one camera.

    Events are stored as parallel numpy arrays (times in integer
    microseconds, u/v pixel coordinates, polarity). Instances are
    immutable after construction; all transforms return new streams that
    may share the underlying read-only arrays. The constructor copies a
    column that would share memory with its argument, so the caller's
    stays writable.

    Times are held as ``t_low``, the low 32 bits of each timestamp
    (uint32), and a high-word rule: ``run_starts`` and ``run_highs``
    hold the start index and the high word ``t >> 32`` of each run of
    events that share one (see :func:`high_rule`), so a stream inside one
    2**32 us span (71.6 min) has exactly one run and an empty stream
    none. A held event costs 9 bytes: uint32 + int16 + int16 + uint8.
    ``times_us``, ``times_s``, ``extent_s`` and ``slice_time_s`` read
    the rule directly; :attr:`t` builds a fresh read-only int64 array of
    the raw times on every access, so only code that needs the whole
    column should read it.

    The constructor is the one gate for column values: each must be a
    whole number in its ``EVENT_COLUMNS`` range, checked before the cast
    to its stored dtype, or it raises ``ValueError("column <name> value
    <x> outside [<lo>, <hi>]")``, which the file readers prefix with the
    path. No value is ever stored wrapped or truncated. A column that is
    not one-dimensional is refused too. An unsorted input is put in
    stable time order by ``sort_times``.

    ``time_offset_us`` is the synchronization correction: analysis-time
    positions are ``t + time_offset_us`` (see :meth:`times_s`), raw
    timestamps are never rewritten.

    Each event's ordinal is its position in the stream it was first
    constructed from (for a stream read from a file, its row in the
    file); subsetting operations preserve them so that counter-based
    sampling keyed on ordinals commutes with cropping. They are read
    with :meth:`ordinal_array`. ``ordinals`` holds them as an explicit
    array, or is ``None`` when the events are one contiguous run of the
    rows that a read kept: the ordinals are then the rule of
    ``ordinal0``, the run's first kept index, and ``gaps``, a sorted
    array holding ``d_j - j`` for the j-th dropped row ``d_j``. An empty
    ``gaps`` means the identity mapping ``ordinal0, ordinal0 + 1, ...``.

    Subsets (a time slice, an ROI crop, a thinning mask) keep events in
    their order, so they stay time-sorted and in range; they are built
    from the parent's columns without validating them again, and their
    columns are read-only like the parent's. A time slice is a view that
    shifts the run starts, keeps the ordinal rule (shifting ``ordinal0``)
    or slices the explicit array, so it allocates nothing per event; a
    mask gathers once through one index into an explicit ``ordinals``
    array and maps the run starts onto the kept events, dropping any run
    left empty.
    """

    __slots__ = ("camera_id", "t_low", "run_starts", "run_highs", "u", "v",
                 "polarity", "time_offset_us", "ordinals", "ordinal0", "gaps")

    def __init__(self, camera_id, t_us, u, v, polarity,
                 time_offset_us: int = 0):
        args = (t_us, u, v, polarity)
        cols = [_column(values, *spec)
                for values, spec in zip(args, EVENT_COLUMNS)]
        t = cols[0]
        if any(len(c) != len(t) for c in cols):
            raise ValueError("event columns must have equal length")
        # stable sort keeps file order for equal timestamps
        if np.any(t[1:] < t[:-1]):
            t, order = sort_times(t)
            cols = [t] + [c[order] for c in cols[1:]]
        # t itself is not kept: its low words are always a fresh array
        u, v, polarity = (c.copy() if np.may_share_memory(c, values) else c
                          for c, values in zip(cols[1:], args[1:]))
        self._fill(CameraId(camera_id), t.astype(np.uint32), *high_rule(t),
                   u, v, polarity, time_offset_us, None)

    @classmethod
    def from_blocks(cls, camera_id, blocks, size: int,
                    roi: tuple[int, int] | None = None) -> "EventStream":
        """The stream of the ``(bytes read, [t, u, v, polarity])`` blocks
        that ``blocks()`` yields out of ``size`` bytes, or with ``roi =
        (v_lo, v_hi)`` exactly its ``crop_roi(stream, *roi)``. Blocks in
        time order and in range are read in one pass (``_in_band``). Any
        others are read again from a second ``blocks()``, joined, and go
        through the constructor, the one gate that names the first bad
        value and sorts stably, and then through ``crop_roi``."""
        lo, hi = (0, SENSOR_HEIGHT) if roi is None else roi
        check_roi(lo, hi)
        kept = _in_band(blocks(), size, lo, hi)
        if kept is not None:
            (t_low, *cols), runs, gaps = kept
            return cls._from_valid(CameraId(camera_id), t_low, *runs, *cols,
                                   0, None, 0, gaps)
        cols = _joined(blocks())
        stream = cls(camera_id, *cols)
        del cols  # before the crop allocates its copies
        return stream if roi is None else crop_roi(stream, *roi)

    def _fill(self, camera_id, t_low, run_starts, run_highs, u, v, polarity,
              time_offset_us, ordinals, ordinal0=0, gaps=_NO_GAPS):
        for arr in (t_low, run_starts, run_highs, u, v, polarity, ordinals,
                    gaps):
            if arr is not None:
                arr.flags.writeable = False
        self.camera_id = camera_id
        self.t_low, self.run_starts, self.run_highs = t_low, run_starts, run_highs
        self.u, self.v, self.polarity = u, v, polarity
        self.time_offset_us = int(time_offset_us)
        self.ordinals = ordinals
        self.ordinal0 = int(ordinal0)
        self.gaps = gaps

    def __len__(self) -> int:
        return self.t_low.shape[0]

    def __repr__(self) -> str:
        return (f"EventStream(camera={self.camera_id.name}, n={len(self)}, "
                f"offset_us={self.time_offset_us})")

    @property
    def t(self) -> np.ndarray:
        """Raw event times in microseconds: a fresh read-only int64 array,
        built from the low words and the high-word rule on every access."""
        out = self._times(0)
        out.flags.writeable = False
        return out

    def _times(self, add: int) -> np.ndarray:
        """``t + add`` as a new int64 array, wrapping as int64 sums do."""
        highs = (self.run_highs << 32) + add
        if len(highs) > 1:
            highs = np.repeat(highs, np.diff(self.run_starts, append=len(self)))
        return np.add(self.t_low, highs, dtype=np.int64)

    def times_s(self) -> np.ndarray:
        """Aligned event times in seconds (offset applied)."""
        return self.times_us() / US_PER_S

    def times_us(self) -> np.ndarray:
        return self._times(self.time_offset_us)

    def ordinal_array(self) -> np.ndarray:
        """Every event's ordinal, int64 and read-only."""
        if self.ordinals is not None:
            return self.ordinals
        out = self._ordinals_at(np.arange(len(self), dtype=np.int64))
        out.flags.writeable = False
        return out

    def _ordinals_at(self, at: np.ndarray) -> np.ndarray:
        """The ordinals of the events at the int64 indices ``at``; ``at``
        itself serves when the rule is the identity from 0."""
        if self.ordinals is not None:
            return self.ordinals[at]
        if not len(self.gaps):
            return at + self.ordinal0 if self.ordinal0 else at
        k = at + self.ordinal0
        k += np.searchsorted(self.gaps, k, side="right")
        return k

    def extent_s(self) -> tuple[float, float] | None:
        """(first, last) aligned event time in seconds, or None when empty."""
        if not len(self):
            return None
        off = self.time_offset_us
        first = (int(self.run_highs[0]) << 32) + int(self.t_low[0])
        last = (int(self.run_highs[-1]) << 32) + int(self.t_low[-1])
        return (first + off) / US_PER_S, (last + off) / US_PER_S

    def _count_before(self, key: int) -> int:
        """The number of events with raw time below ``key``, which is
        ``np.searchsorted(self.t, key)``: one search of the run highs,
        then one of the matching run's low words by a uint32 key (a
        Python-int key would make numpy cast the whole column)."""
        n = len(self)
        if key <= 0:
            return 0
        high = key >> 32
        if high > _MAX_HIGH:
            return n
        j = int(np.searchsorted(self.run_highs, high))
        if j == len(self.run_highs):
            return n
        start = int(self.run_starts[j])
        if self.run_highs[j] != high:
            return start
        end = (int(self.run_starts[j + 1]) if j + 1 < len(self.run_starts)
               else n)
        return start + int(np.searchsorted(self.t_low[start:end],
                                           np.uint32(key & _LOW_MASK)))

    @classmethod
    def _from_valid(cls, *args) -> "EventStream":
        """A stream over columns that already hold every invariant: the
        dtypes, time order and ranges checked by ``__init__``, and the
        high-word rule of the times."""
        s = cls.__new__(cls)
        s._fill(*args)
        return s

    def _runs_in(self, start: int, stop: int) -> tuple:
        """The high-word rule of the events in ``[start, stop)``."""
        if start >= stop:
            return _NO_GAPS, _NO_GAPS
        j0 = int(np.searchsorted(self.run_starts, start, side="right")) - 1
        j1 = int(np.searchsorted(self.run_starts, stop))
        starts = self.run_starts[j0:j1] - start
        starts[0] = 0
        return starts, self.run_highs[j0:j1]

    def _runs_at(self, keep: np.ndarray) -> tuple:
        """The high-word rule of the events at the sorted indices
        ``keep``: each run starts at its first kept event, and the runs
        with none are dropped."""
        first = np.searchsorted(keep, self.run_starts)
        live = first < np.append(first[1:], len(keep))
        return first[live], self.run_highs[live]

    def subset(self, keep) -> "EventStream":
        """The events at ``keep``, a contiguous slice or a boolean mask, in
        order."""
        if isinstance(keep, slice):
            start, stop, _ = keep.indices(len(self))
            runs = self._runs_in(start, stop)
            rule = ((None, self.ordinal0 + start, self.gaps)
                    if self.ordinals is None else (self.ordinals[keep],))
        else:
            keep = np.flatnonzero(keep)
            runs = self._runs_at(keep)
            rule = (self._ordinals_at(keep),)
        return EventStream._from_valid(
            self.camera_id, self.t_low[keep], *runs, self.u[keep],
            self.v[keep], self.polarity[keep], self.time_offset_us, *rule)

    def slice_time_s(self, t0_s: float, t1_s: float) -> "EventStream":
        """Events with aligned time in the half-open window [t0, t1)."""
        lo = int(round(t0_s * US_PER_S)) - self.time_offset_us
        hi = int(round(t1_s * US_PER_S)) - self.time_offset_us
        return self.subset(slice(self._count_before(lo),
                                  self._count_before(hi)))

    def with_offset_us(self, offset_us: int) -> "EventStream":
        return EventStream._from_valid(
            self.camera_id, self.t_low, self.run_starts, self.run_highs,
            self.u, self.v, self.polarity, offset_us, self.ordinals,
            self.ordinal0, self.gaps)


@dataclass(frozen=True)
class RateSeries:
    """Histogram of event counts over uniform time bins, exposed as rates."""

    t0_s: float
    bin_s: float
    counts: np.ndarray  # int64 per bin

    def __post_init__(self):
        counts = np.ascontiguousarray(self.counts, dtype=np.int64)
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)

    def __len__(self) -> int:
        return self.counts.shape[0]

    @property
    def rates(self) -> np.ndarray:
        """Bin values in events/second."""
        return self.counts / self.bin_s

    @property
    def bin_starts_s(self) -> np.ndarray:
        return self.t0_s + np.arange(len(self)) * self.bin_s


def check_roi(v_lo: int, v_hi: int) -> None:
    """Refuse ROI bounds outside ``0 <= v_lo < v_hi <= SENSOR_HEIGHT``."""
    if not (0 <= v_lo < v_hi <= SENSOR_HEIGHT):
        raise ValueError(f"invalid ROI bounds [{v_lo}, {v_hi}]")


def crop_roi(stream: EventStream, v_lo: int, v_hi: int) -> EventStream:
    """Keep only events with v_lo <= v <= v_hi (inclusive band).

    Order is preserved. A stream whose events all lie in the band is
    returned itself, columns and ordinals included: a stream read into
    the ROI (``read_events(..., roi=...)``) is not copied again, and an
    uncropped one keeps its ordinal rule, whose ``ordinal_array()`` is
    the crop's.
    """
    check_roi(v_lo, v_hi)
    v = stream.v
    if not len(v) or (v_lo <= v.min() and v.max() <= v_hi):
        return stream
    return stream.subset((v >= v_lo) & (v <= v_hi))


def event_rate_histogram(stream: EventStream, bin_s: float) -> RateSeries:
    """Event rate over uniform bins tiling [t_first, t_last].

    Bin edges are quantized to whole microseconds so binning is exact and
    deterministic. Each bin's value is count/bin_s; the counts sum to the
    stream's event total.
    """
    if bin_s <= 0:
        raise ValueError("bin_s must be positive")
    if not len(stream):
        return RateSeries(0.0, bin_s, np.zeros(0, dtype=np.int64))
    bin_us = max(1, int(round(bin_s * US_PER_S)))
    t = stream.times_us()
    t0 = int(t[0])
    span = int(t[-1]) - t0
    n_bins = span // bin_us + 1
    idx = (t - t0) // bin_us
    counts = np.bincount(idx, minlength=n_bins)
    return RateSeries(t0 / US_PER_S, bin_us / US_PER_S, counts)
