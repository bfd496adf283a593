"""Synthetic dual-camera event generator.

Forward-projects scheduled presses through ground-truth camera models
into timed event bursts, adds frame-wide background noise and the
three-tap synchronization preamble, and keeps a per-event source map so
tests can check any pipeline stage against construction truth.

Every random quantity is drawn from a substream keyed by
(seed, camera, source), so generation order (or parallelism) cannot
change the output.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .events import (DEFAULT_ROI, SENSOR_HEIGHT, SENSOR_WIDTH, US_PER_S,
                     CameraId, EventStream, SensorLayout)
from .geometry import CameraModel, default_models, project_points
from .ingest import PressSchedule, SyncSpec, make_schedule

SOURCE_BACKGROUND = -1
SOURCE_TAP_BASE = -2  # tap i is encoded as SOURCE_TAP_BASE - i


@dataclass(frozen=True)
class RateProfile:
    """Within-press event-density shape: linear rise, plateau, linear fall."""

    rise: float = 0.2
    plateau: float = 0.6
    fall: float = 0.2

    def __post_init__(self):
        if min(self.rise, self.plateau, self.fall) < 0:
            raise ValueError("profile fractions must be non-negative")
        if abs(self.rise + self.plateau + self.fall - 1.0) > 1e-9:
            raise ValueError("profile fractions must sum to 1")

    def sample_times(self, rng, n: int) -> np.ndarray:
        """Inverse-CDF sample of n press-relative times in [0, 1)."""
        a, b, c = self.rise, self.plateau, self.fall
        # areas of the trapezoid pieces (peak density 1)
        w = np.array([a / 2.0, b, c / 2.0])
        w = w / w.sum()
        x = rng.random(n)
        out = np.empty(n)
        # a piece of zero width has an empty mask, except that w[0] + w[1]
        # may round below 1 when c is 0
        m0 = x < w[0]
        m2 = x >= w[0] + w[1]
        m1 = ~(m0 | m2)
        out[m0] = a * np.sqrt(x[m0] / w[0])
        out[m1] = a + (x[m1] - w[0]) / w[1] * b
        if c > 0:
            out[m2] = 1.0 - c * np.sqrt((1.0 - (x[m2] - w[0] - w[1]) / w[2]).clip(0))
        else:
            out[m2] = 1.0
        return out.clip(0.0, 1.0 - 1e-12)


@dataclass(frozen=True)
class SynthSpec:
    """Generation parameters for a full simulated recording."""

    layout: SensorLayout = field(default_factory=SensorLayout)
    models: tuple[CameraModel, CameraModel] = None
    schedule: PressSchedule = None
    sync: SyncSpec = field(default_factory=SyncSpec)
    burst_events_per_press_per_camera: float = 15000.0
    sigma_u_px: float = 3.0
    # None: v uniform over the ROI band; otherwise uniform over a band of
    # +-halfwidth around the ROI center (clipped to the ROI)
    burst_v_halfwidth_px: float | None = None
    rate_profile: RateProfile = field(default_factory=RateProfile)
    background_rate_per_camera: float = 2000.0
    roi: tuple[int, int] = DEFAULT_ROI
    # zero-spread quantization: "split" spreads events over the two
    # adjacent pixel columns so the mean reproduces the sub-pixel center,
    # "round" puts every event on the nearest column
    burst_u_quantize: str = "split"
    # per-(press, camera) systematic Gaussian offset of the burst center
    press_offset_sigma_px: float = 0.0
    # optional secondary activity blob (weaker reflection) at a fixed
    # pixel offset from the main one
    secondary_blob_frac: float = 0.0
    secondary_blob_offset_px: float = 30.0
    tap_events: float = 8000.0
    tap_duration_s: float = 0.15
    tap_start_s: float = 2.0
    cam2_extra_offset_s: float = 0.0
    tail_s: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.models is None:
            object.__setattr__(self, "models", default_models(self.layout.side_mm))
        if self.schedule is None:
            object.__setattr__(self, "schedule", make_schedule(self.layout))

    def duration_s(self) -> float:
        last = self.tap_start_s
        if len(self.schedule):
            last += float(self.schedule.onsets_s[-1]) + self.schedule.press_duration_s
        return last + self.tail_s


# the config "synth" keys: every number field of SynthSpec takes a number;
# None marks a key with its own rule in config_from_dict
SYNTH_KINDS = {**{f.name: float for f in fields(SynthSpec)
                  if type(f.default) is float},
               "burst_v_halfwidth_px": None, "burst_u_quantize": None,
               "rate_profile": None}


@dataclass(frozen=True)
class TruthManifest:
    """Construction truth for a generated recording."""

    press_records: list[dict]
    tap_times_s: list[float]
    first_press_onset_s: float
    duration_s: float
    # per-event generating source, aligned with each returned stream:
    # press index >= 0, -1 background, -2 - i for tap i
    sources_cam1: np.ndarray
    sources_cam2: np.ndarray
    spec_summary: dict

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "tap_times_s": self.tap_times_s,
            "first_press_onset_s": self.first_press_onset_s,
            "duration_s": self.duration_s,
            "presses": self.press_records,
            "spec": self.spec_summary,
        }


def _rng(spec: SynthSpec, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((spec.seed,) + key))


def _quantize_u(rng, center: float, sigma: float, n: int,
                mode: str = "split") -> np.ndarray:
    """Integer pixel columns around a sub-pixel center.

    With spread, plain rounding of Gaussian samples. At zero spread the
    default "split" mode reproduces the center's fraction with a
    deterministic two-pixel split, keeping the sample mean within
    1/(2n) px of the center; "round" puts everything on the nearest
    column (the quantization offset then stays in the data).
    """
    if sigma > 0:
        u = np.rint(rng.normal(center, sigma, n))
    elif mode == "round":
        u = np.full(n, np.rint(center))
    elif mode == "split":
        base = np.floor(center)
        frac = center - base
        n_hi = int(round(frac * n))
        u = np.full(n, base)
        u[:n_hi] += 1.0
        rng.shuffle(u)
    else:
        raise ValueError(f"unknown quantize mode: {mode}")
    return u.clip(0, SENSOR_WIDTH - 1).astype(np.int16)


# an empty burst: the t_us, u, v, polarity and source columns, typed
_NO_EVENTS = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int16),
              np.zeros(0, dtype=np.int16), np.zeros(0, dtype=np.uint8),
              np.zeros(0, dtype=np.int32))


def _burst(spec: SynthSpec, rng, center_u: float, t0_s: float, dur_s: float,
           mean_events: float, profile: RateProfile | None, source: int):
    """One activity burst for one camera: (t_us, u, v, polarity, source)."""
    n = int(rng.poisson(mean_events))
    if n == 0:
        return _NO_EVENTS
    if profile is None:
        rel = rng.random(n)
    else:
        rel = profile.sample_times(rng, n)
    t_us = (np.asarray(t0_s + rel * dur_s) * US_PER_S).round().astype(np.int64)
    u = _quantize_u(rng, center_u, spec.sigma_u_px, n, spec.burst_u_quantize)
    v_lo, v_hi = spec.roi
    if spec.burst_v_halfwidth_px is not None:
        mid = (v_lo + v_hi) // 2
        half = int(spec.burst_v_halfwidth_px)
        v_lo = max(v_lo, mid - half)
        v_hi = min(v_hi, mid + half)
    v = rng.integers(v_lo, v_hi + 1, n).astype(np.int16)
    pol = np.where(rel < (profile.rise + profile.plateau if profile else 0.5),
                   1, 0).astype(np.uint8)
    return t_us, u, v, pol, np.full(n, source, dtype=np.int32)


def _press_center_offsets(spec: SynthSpec, cam: int, n_press: int) -> np.ndarray:
    """Systematic per-press pixel offsets for one camera."""
    if spec.press_offset_sigma_px <= 0:
        return np.zeros(n_press)
    rng = _rng(spec, cam, 900001)
    return rng.normal(0.0, spec.press_offset_sigma_px, n_press)


def generate(spec: SynthSpec) -> tuple[EventStream, EventStream, TruthManifest]:
    """Produce the two camera streams and their construction truth.

    Presses that do not project into a camera's field of view are flagged
    in the manifest and generate no burst for that camera.
    """
    schedule = spec.schedule
    gt = schedule.ground_truth_mm
    n_press = len(schedule)
    dur = spec.duration_s()
    tap_times = [spec.tap_start_s + i * spec.sync.tap_interval_s
                 for i in range(spec.sync.n_taps)]
    center = (spec.layout.side_mm / 2.0, spec.layout.side_mm / 2.0)

    press_records = [{
        "press_index": int(schedule.press_index[i]),
        "repetition": int(schedule.repetition[i]),
        "onset_s": spec.tap_start_s + float(schedule.onsets_s[i]),
        "duration_s": schedule.press_duration_s,
        "ground_truth_mm": [float(gt[i, 0]), float(gt[i, 1])],
    } for i in range(n_press)]

    streams = []
    sources = []
    for cam in (1, 2):
        model = spec.models[cam - 1]
        u_stars, in_view = project_points(model, gt)
        offsets = _press_center_offsets(spec, cam, n_press)
        bursts = [_NO_EVENTS]

        u_tap, tap_ok = project_points(model, [center])
        for i, tt in enumerate(tap_times):
            if not tap_ok[0]:
                break
            bursts.append(_burst(spec, _rng(spec, cam, 1, i), float(u_tap[0]),
                                 tt, spec.tap_duration_s, spec.tap_events,
                                 None, SOURCE_TAP_BASE - i))

        for i in range(n_press):
            rec = press_records[i]
            key = f"in_view_cam{cam}"
            rec[key] = bool(in_view[i])
            if not in_view[i]:
                continue
            rng = _rng(spec, cam, 2, i)
            center_u = float(u_stars[i]) + float(offsets[i])
            onset = rec["onset_s"]
            n_main = spec.burst_events_per_press_per_camera \
                * (1.0 - spec.secondary_blob_frac)
            bursts.append(_burst(spec, rng, center_u, onset,
                                 schedule.press_duration_s, n_main,
                                 spec.rate_profile, i))
            rec[f"center_u_cam{cam}"] = center_u
            rec[f"n_events_cam{cam}"] = len(bursts[-1][0])
            if spec.secondary_blob_frac > 0:
                n_sec = spec.burst_events_per_press_per_camera \
                    * spec.secondary_blob_frac
                bursts.append(_burst(spec, _rng(spec, cam, 3, i),
                                     center_u + spec.secondary_blob_offset_px,
                                     onset, schedule.press_duration_s,
                                     n_sec, spec.rate_profile, i))
                rec[f"n_events_cam{cam}"] += len(bursts[-1][0])

        if spec.background_rate_per_camera > 0:
            rng = _rng(spec, cam, 4)
            n_bg = int(rng.poisson(spec.background_rate_per_camera * dur))
            bursts.append((
                (rng.random(n_bg) * dur * US_PER_S).round().astype(np.int64),
                rng.integers(0, SENSOR_WIDTH, n_bg).astype(np.int16),
                rng.integers(0, SENSOR_HEIGHT, n_bg).astype(np.int16),
                rng.integers(0, 2, n_bg).astype(np.uint8),
                np.full(n_bg, SOURCE_BACKGROUND, dtype=np.int32)))

        t_all, u_all, v_all, p_all, src_all = (np.concatenate(col)
                                               for col in zip(*bursts))
        if cam == 2 and spec.cam2_extra_offset_s:
            shift = int(round(spec.cam2_extra_offset_s * US_PER_S))
            t_all = t_all + shift
            if len(t_all) and t_all.min() < 0:
                t_all = t_all - t_all.min()
        order = np.argsort(t_all, kind="stable")
        streams.append(EventStream(CameraId(cam), t_all[order], u_all[order],
                                   v_all[order], p_all[order]))
        sources.append(src_all[order])

    manifest = TruthManifest(
        press_records=press_records,
        tap_times_s=tap_times,
        first_press_onset_s=press_records[0]["onset_s"] if press_records else 0.0,
        duration_s=dur,
        sources_cam1=sources[0],
        sources_cam2=sources[1],
        spec_summary={
            "seed": spec.seed,
            "burst_events_per_press_per_camera":
                spec.burst_events_per_press_per_camera,
            "sigma_u_px": spec.sigma_u_px,
            "burst_v_halfwidth_px": spec.burst_v_halfwidth_px,
            "background_rate_per_camera": spec.background_rate_per_camera,
            "press_offset_sigma_px": spec.press_offset_sigma_px,
            "secondary_blob_frac": spec.secondary_blob_frac,
            "secondary_blob_offset_px": spec.secondary_blob_offset_px,
            "cam2_extra_offset_s": spec.cam2_extra_offset_s,
            "n_presses": n_press,
        },
    )
    return streams[0], streams[1], manifest


def spec_from_config(layout: SensorLayout, schedule: PressSchedule,
                     sync: SyncSpec, models, roi, seed: int,
                     synth_options: dict) -> SynthSpec:
    """Build a SynthSpec from the config "synth" section, as
    ``config_from_dict`` checks it into SynthSpec keyword arguments."""
    return SynthSpec(layout=layout, models=tuple(models), schedule=schedule,
                     sync=sync, roi=tuple(roi), seed=seed, **synth_options)
