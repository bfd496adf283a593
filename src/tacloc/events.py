"""Core data model for DVS events: streams, sensor layout, ROI crop, rate series."""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

SENSOR_WIDTH = 640
SENSOR_HEIGHT = 480
DEFAULT_ROI = (200, 360)
US_PER_S = 1_000_000


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


class EventStream:
    """Time-sorted columnar event sequence for one camera.

    Events are stored as parallel numpy arrays (t in integer microseconds,
    u/v pixel coordinates, polarity). Instances are immutable after
    construction; all transforms return new streams that may share the
    underlying read-only arrays.

    ``time_offset_us`` is the synchronization correction: analysis-time
    positions are ``t + time_offset_us`` (see :meth:`times_s`), raw
    timestamps are never rewritten.

    ``ordinals`` track each event's position in the stream it was first
    constructed from; subsetting operations preserve them so that
    counter-based sampling keyed on ordinals commutes with cropping.
    A value of ``None`` means the identity mapping 0..n-1.
    """

    __slots__ = ("camera_id", "t", "u", "v", "polarity", "roi",
                 "time_offset_us", "ordinals")

    def __init__(self, camera_id, t_us, u, v, polarity,
                 roi=DEFAULT_ROI, time_offset_us: int = 0, ordinals=None):
        t_us = np.ascontiguousarray(t_us, dtype=np.int64)
        u = np.ascontiguousarray(u, dtype=np.int16)
        v = np.ascontiguousarray(v, dtype=np.int16)
        polarity = np.ascontiguousarray(polarity, dtype=np.uint8)
        n = t_us.shape[0]
        if not (u.shape[0] == v.shape[0] == polarity.shape[0] == n):
            raise ValueError("event columns must have equal length")
        if n:
            if t_us.min() < 0:
                raise ValueError("timestamps must be non-negative")
            if u.min() < 0 or u.max() >= SENSOR_WIDTH:
                raise ValueError(f"u out of range [0, {SENSOR_WIDTH})")
            if v.min() < 0 or v.max() >= SENSOR_HEIGHT:
                raise ValueError(f"v out of range [0, {SENSOR_HEIGHT})")
        if ordinals is not None:
            ordinals = np.ascontiguousarray(ordinals, dtype=np.int64)
            if ordinals.shape[0] != n:
                raise ValueError("ordinals must match event count")
        # stable sort keeps file order for equal timestamps
        if n and np.any(t_us[1:] < t_us[:-1]):
            order = np.argsort(t_us, kind="stable")
            t_us = t_us[order]
            u = u[order]
            v = v[order]
            polarity = polarity[order]
            if ordinals is not None:
                ordinals = ordinals[order]
        for arr in (t_us, u, v, polarity):
            arr.flags.writeable = False
        if ordinals is not None:
            ordinals.flags.writeable = False
        self.camera_id = CameraId(camera_id)
        self.t = t_us
        self.u = u
        self.v = v
        self.polarity = polarity
        self.roi = (int(roi[0]), int(roi[1]))
        self.time_offset_us = int(time_offset_us)
        self.ordinals = ordinals

    def __len__(self) -> int:
        return self.t.shape[0]

    def __repr__(self) -> str:
        return (f"EventStream(camera={self.camera_id.name}, n={len(self)}, "
                f"roi={self.roi}, offset_us={self.time_offset_us})")

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

    def _subset(self, mask_or_idx, roi=None) -> "EventStream":
        ords = self.ordinals
        if ords is None:
            ords = np.arange(len(self), dtype=np.int64)
        return EventStream(
            self.camera_id,
            self.t[mask_or_idx], self.u[mask_or_idx], self.v[mask_or_idx],
            self.polarity[mask_or_idx],
            roi=self.roi if roi is None else roi,
            time_offset_us=self.time_offset_us,
            ordinals=ords[mask_or_idx],
        )

    def slice_time_s(self, t0_s: float, t1_s: float) -> "EventStream":
        """Events with aligned time in the half-open window [t0, t1)."""
        t_us = self.t
        lo = int(round(t0_s * US_PER_S)) - self.time_offset_us
        hi = int(round(t1_s * US_PER_S)) - self.time_offset_us
        i0 = int(np.searchsorted(t_us, lo, side="left"))
        i1 = int(np.searchsorted(t_us, hi, side="left"))
        return self._subset(slice(i0, i1))

    def with_offset_us(self, offset_us: int) -> "EventStream":
        s = EventStream.__new__(EventStream)
        s.camera_id = self.camera_id
        s.t = self.t
        s.u = self.u
        s.v = self.v
        s.polarity = self.polarity
        s.roi = self.roi
        s.time_offset_us = int(offset_us)
        s.ordinals = self.ordinals
        return s


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

    @property
    def total_events(self) -> int:
        return int(self.counts.sum())


def crop_roi(stream: EventStream, v_lo: int, v_hi: int) -> EventStream:
    """Keep only events with v_lo <= v <= v_hi (inclusive band).

    Order is preserved and the stream's roi metadata is updated.
    """
    if not (0 <= v_lo < v_hi <= SENSOR_HEIGHT):
        raise ValueError(f"invalid ROI bounds [{v_lo}, {v_hi}]")
    mask = (stream.v >= v_lo) & (stream.v <= v_hi)
    return stream._subset(mask, roi=(v_lo, v_hi))


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


def merge_times_s(*streams: EventStream) -> np.ndarray:
    """Sorted aligned event times (seconds) pooled across streams."""
    parts = [s.times_s() for s in streams if len(s)]
    if not parts:
        return np.zeros(0, dtype=np.float64)
    merged = np.concatenate(parts)
    merged.sort(kind="stable")
    return merged
