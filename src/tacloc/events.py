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
# it is stored as
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


class EventStream:
    """Time-sorted columnar event sequence for one camera.

    Events are stored as parallel numpy arrays (t in integer microseconds,
    u/v pixel coordinates, polarity). Instances are immutable after
    construction; all transforms return new streams that may share the
    underlying read-only arrays. The constructor copies a column that
    would share memory with its argument, so the caller's stays writable.

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

    ``ordinals`` track each event's position in the stream it was first
    constructed from; subsetting operations preserve them so that
    counter-based sampling keyed on ordinals commutes with cropping.
    A value of ``None`` means the identity mapping 0..n-1.

    Subsets (a time slice, an ROI crop, a thinning mask) keep events in
    their order, so they stay time-sorted and in range; they are built
    from the parent's columns without validating them again. Every
    subset has ordinals, and its columns are read-only like the
    parent's: slices are views, masks gather once through one index.
    """

    __slots__ = ("camera_id", "t", "u", "v", "polarity", "time_offset_us",
                 "ordinals")

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
        cols = [c.copy() if np.may_share_memory(c, values) else c
                for c, values in zip(cols, args)]
        self._fill(CameraId(camera_id), *cols, time_offset_us, None)

    def _fill(self, camera_id, t, u, v, polarity, time_offset_us, ordinals):
        for arr in (t, u, v, polarity, ordinals):
            if arr is not None:
                arr.flags.writeable = False
        self.camera_id = camera_id
        self.t, self.u, self.v, self.polarity = t, u, v, polarity
        self.time_offset_us = int(time_offset_us)
        self.ordinals = ordinals

    def __len__(self) -> int:
        return self.t.shape[0]

    def __repr__(self) -> str:
        return (f"EventStream(camera={self.camera_id.name}, n={len(self)}, "
                f"offset_us={self.time_offset_us})")

    def times_s(self) -> np.ndarray:
        """Aligned event times in seconds (offset applied)."""
        return (self.t + self.time_offset_us) / US_PER_S

    def times_us(self) -> np.ndarray:
        return self.t + self.time_offset_us

    def ordinal_array(self) -> np.ndarray:
        if self.ordinals is None:
            return np.arange(len(self), dtype=np.int64)
        return self.ordinals

    def extent_s(self) -> tuple[float, float] | None:
        """(first, last) aligned event time in seconds, or None when empty."""
        if not len(self):
            return None
        off = self.time_offset_us
        return ((int(self.t[0]) + off) / US_PER_S,
                (int(self.t[-1]) + off) / US_PER_S)

    @classmethod
    def _from_valid(cls, *args) -> "EventStream":
        """A stream over columns that already hold every invariant: the
        dtypes, time order and ranges checked by ``__init__``."""
        s = cls.__new__(cls)
        s._fill(*args)
        return s

    def _subset(self, keep) -> "EventStream":
        """The events at ``keep``, a slice or a boolean mask, in order."""
        if isinstance(keep, slice):
            ordinals = (np.arange(*keep.indices(len(self)))
                        if self.ordinals is None else self.ordinals[keep])
        else:
            # one index serves as the gather and, from an unsubset
            # stream, as the ordinals
            keep = np.flatnonzero(keep)
            ordinals = keep if self.ordinals is None else self.ordinals[keep]
        return EventStream._from_valid(
            self.camera_id, self.t[keep], self.u[keep], self.v[keep],
            self.polarity[keep], self.time_offset_us, ordinals)

    def slice_time_s(self, t0_s: float, t1_s: float) -> "EventStream":
        """Events with aligned time in the half-open window [t0, t1)."""
        t_us = self.t
        lo = int(round(t0_s * US_PER_S)) - self.time_offset_us
        hi = int(round(t1_s * US_PER_S)) - self.time_offset_us
        i0 = int(np.searchsorted(t_us, lo, side="left"))
        i1 = int(np.searchsorted(t_us, hi, side="left"))
        return self._subset(slice(i0, i1))

    def with_offset_us(self, offset_us: int) -> "EventStream":
        return EventStream._from_valid(self.camera_id, self.t, self.u, self.v,
                                       self.polarity, offset_us, self.ordinals)


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


def crop_roi(stream: EventStream, v_lo: int, v_hi: int) -> EventStream:
    """Keep only events with v_lo <= v <= v_hi (inclusive band).

    Order is preserved.
    """
    if not (0 <= v_lo < v_hi <= SENSOR_HEIGHT):
        raise ValueError(f"invalid ROI bounds [{v_lo}, {v_hi}]")
    mask = (stream.v >= v_lo) & (stream.v <= v_hi)
    return stream._subset(mask)


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
