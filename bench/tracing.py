"""Spans around calls into tacloc's layer modules.

A span records a name (``<module>.<function>``), a start, an end, the
span that was open when it started, and per-call counts. Spans are kept
in memory and written out once, when the traced process ends. Times come
from CLOCK_MONOTONIC, which is one clock for every process on the
machine, so a parent process can place a child's spans inside the
interval it measured from spawn to exit.

The wrappers only observe: they pass arguments and results through
unchanged, so a traced run writes the same reports as an untraced one.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import math
import statistics
import sys
import threading
import time

# Public functions of each layer module that the tracer wraps. Internal
# stages (the DBSCAN compress/merge steps, for example) need spans inside
# the program and are not split out here.
WRAPPED = {
    "ingest": ("load_config", "read_events", "write_events",
               "align_streams", "detect_sync_taps"),
    "events": ("crop_roi",),
    "segment": ("segment_by_schedule", "press_events"),
    "cluster": ("extract_centroid", "exclude_press"),
    "geometry": ("triangulate", "triangulate_many", "calibrate"),
    "metrics": ("evaluate",),
    "ablate": ("thin", "run_sweep"),
    "latency": ("tune_threshold", "latency_report",
                "trial_background_snippets"),
    "pipeline": ("prepare_run", "run_localization", "run_calibration",
                 "localize_trials", "localize_trial", "evaluate_results"),
    "synth": ("generate",),
}


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# ---- per-call counts ------------------------------------------------------
# Each observer maps (bound arguments, result) to a dict of counts. They
# run after the span closes, so their small cost lands in the caller's
# self time, never in the observed function's.

def _segment_counts(args, trials, press_events):
    in_window = sum(len(press_events(t, 1)) + len(press_events(t, 2))
                    for t in trials if not t.missing)
    return {"trials": len(trials), "in_window": in_window,
            "events_in": len(args["s1"]) + len(args["s2"])}


def _thin_counts(args, kept):
    n, k = len(args["stream"]), int(args["k"])
    if k <= 1 or n == 0:
        return {"dev_sigma": 0.0}
    sigma = math.sqrt(n * (1.0 / k) * (1.0 - 1.0 / k))
    return {"dev_sigma": abs(len(kept) - n / k) / sigma}


def _observers(modules):
    press_events = modules["segment"].press_events
    return {
        "ingest.read_events": lambda a, r: {"events": len(r)},
        "events.crop_roi": lambda a, r: {"events_in": len(a["stream"]),
                                         "events_out": len(r)},
        "segment.segment_by_schedule":
            lambda a, r: _segment_counts(a, r, press_events),
        "cluster.extract_centroid": lambda a, r: {
            "events_in": len(a["u"]), "dominant": r.largest_cluster_size,
            "valid": int(r.valid)},
        "cluster.exclude_press": lambda a, r: {"excluded": int(not r.passed)},
        "geometry.calibrate": lambda a, r: {"iterations": r.iterations,
                                            "converged": int(r.converged)},
        "ablate.thin": _thin_counts,
        "ablate.run_sweep": lambda a, r: {"cells": len(r.cells)},
        "latency.tune_threshold": lambda a, r: {
            "grid_points": len(r.roc),
            "h_at_grid_edge": int(r.h >= max(p.h for p in r.roc))},
    }


class Tracer:
    """Records spans for the wrapped functions of the loaded tacloc modules.

    ``spans`` holds ``[id, name, parent_id, start, end, counts]`` lists;
    parent_id is -1 for a span opened with nothing open in its thread.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> list:
        stack = self._stack()
        span = [next(self._ids), name, stack[-1][0] if stack else -1,
                now(), None, {}]
        self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[4] = now()
        self._stack().pop()

    def add(self, name: str, start: float, end: float) -> None:
        """Record an interval measured without opening a span."""
        self.spans.append([next(self._ids), name, -1, start, end, {}])

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block that is not a wrapped call."""
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def _wrap(self, name: str, fn, observe):
        sig = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.close(span)
                span[5]["error"] = type(exc).__name__
                raise
            tracer.close(span)
            if observe is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span[5].update(observe(bound.arguments, result))
            return result

        return traced

    def install(self) -> None:
        """Replace every reference to a wrapped function in tacloc's modules.

        Modules import each other's functions by name, so the function
        objects are swapped wherever they are bound, not only in the
        module that defines them.
        """
        import tacloc  # noqa: F401 - loads every layer module
        modules = {layer: sys.modules[f"tacloc.{layer}"] for layer in WRAPPED}
        observers = _observers(modules)
        wrappers = {}
        for layer, names in WRAPPED.items():
            for fname in names:
                fn = getattr(modules[layer], fname)
                key = f"{layer}.{fname}"
                wrappers[id(fn)] = self._wrap(key, fn, observers.get(key))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "tacloc"
                                   or mod_name.startswith("tacloc.")):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and callable(value):
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()


# ---- analysis of recorded spans -------------------------------------------

def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans: list[list]) -> dict[int, float]:
    """Span id -> duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, _, parent, start, end, _ in spans:
        children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _, _, start, end, _ in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[sid] = (end - start) - covered
    return out


def descendants(spans: list[list], root_id: int) -> list[list]:
    kids: dict[int, list[list]] = {}
    for s in spans:
        kids.setdefault(s[2], []).append(s)
    out, todo = [], [root_id]
    while todo:
        for s in kids.get(todo.pop(), ()):
            out.append(s)
            todo.append(s[0])
    return out


# ---- per-layer metrics ----------------------------------------------------

TIMED = ("ingest.read_events", "ingest.align_streams", "ingest.detect_sync_taps",
         "events.crop_roi", "segment.segment_by_schedule",
         "segment.press_events", "cluster.extract_centroid",
         "geometry.triangulate", "geometry.triangulate_many",
         "geometry.calibrate", "metrics.evaluate", "ablate.thin",
         "ablate.run_sweep", "latency.tune_threshold",
         "latency.latency_report", "latency.trial_background_snippets",
         "pipeline.prepare_run", "pipeline.run_localization",
         "pipeline.run_calibration")
SELF_LAYERS = ("ingest", "events", "segment", "cluster", "geometry",
               "metrics", "ablate", "latency", "pipeline", "cli", "trace")


class Totals:
    """Per-function sums over every span of one or more traced commands."""

    def __init__(self):
        self.durations: dict[str, list[float]] = {}
        self.counts: dict[str, dict[str, float]] = {}
        self.errors: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.wall_s = 0.0

    def add(self, spans: list[list]) -> None:
        own = self_times(spans)
        for sid, name, parent, start, end, counts in spans:
            if parent == -2:  # the process span measured by the parent
                self.wall_s += end - start
            self.durations.setdefault(name, []).append(end - start)
            layer = layer_of(name)
            self.self_s[layer] = self.self_s.get(layer, 0.0) + own[sid]
            acc = self.counts.setdefault(name, {})
            for key, val in counts.items():
                if key == "error":
                    self.errors[name] = self.errors.get(name, 0) + 1
                elif key == "dev_sigma":
                    acc[key] = max(acc.get(key, 0.0), val)
                else:
                    acc[key] = acc.get(key, 0) + val

    def seconds(self, name: str) -> float:
        return sum(self.durations.get(name, ()))

    def count(self, name: str, key: str) -> float:
        return self.counts.get(name, {}).get(key, 0)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def tail_ms(durations: list[float]) -> tuple[float, float]:
    """(percentile, ms): the highest percentile of the ladder with at
    least ten calls beyond it; (0, 0) with fewer than twenty calls."""
    n = len(durations)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (100.0 - pct) / 100.0 >= 10.0 - 1e-9:
            q = statistics.quantiles(durations, n=1000, method="inclusive")
            return pct, 1e3 * q[int(round(pct * 10)) - 1]
    return 0.0, 0.0


def funnel(spans: list[list]) -> dict[str, int]:
    """Event counts along one command: raw, in the ROI, in press windows,
    in the dominant cluster, and presses that end valid.

    The cluster stages follow the command's first localization pass (the
    unthinned baseline in ``ablate``); a command that never clusters
    reports press-window events from its segmentation.
    """
    by_name: dict[str, list[list]] = {}
    for s in sorted(spans, key=lambda s: s[3]):
        by_name.setdefault(s[1], []).append(s)
    out = {"raw": sum(s[5].get("events", 0)
                      for s in by_name.get("ingest.read_events", ())),
           "in_roi": sum(s[5].get("events_out", 0)
                         for s in by_name.get("events.crop_roi", ())),
           "in_press_windows": 0, "in_dominant_cluster": 0, "valid_presses": 0}
    passes = (by_name.get("pipeline.run_localization", [])
              + by_name.get("pipeline.run_calibration", []))
    if passes:
        first = min(passes, key=lambda s: s[3])
        under = descendants(spans, first[0])
        centroids = [s for s in under if s[1] == "cluster.extract_centroid"]
        out["in_press_windows"] = sum(s[5]["events_in"] for s in centroids)
        out["in_dominant_cluster"] = sum(s[5]["dominant"] for s in centroids)
        passed = sum(1 for s in under if s[1] == "cluster.exclude_press"
                     and not s[5]["excluded"])
        degenerate = sum(1 for s in under if s[1] == "geometry.triangulate"
                         and "error" in s[5])
        out["valid_presses"] = passed - degenerate
    elif "segment.segment_by_schedule" in by_name:
        out["in_press_windows"] = by_name["segment.segment_by_schedule"][0][5][
            "in_window"]
    return out


def layer_metrics(traced: list[list[list]], threads2: list[list[list]],
                  setup: list[list], untraced_wall_s: float) -> dict[str, float]:
    """Per-layer metrics of a traced sequence (one span list per command).

    ``threads2`` is the same sequence at ``--threads 2``; ``setup`` holds
    the spans of the in-process input generation.
    """
    t = Totals()
    for spans in traced:
        t.add(spans)
    s = Totals()
    s.add(setup)
    t2 = Totals()
    for spans in threads2:
        t2.add(spans)

    m = {f"{name}.s": t.seconds(name) for name in TIMED}
    m["ingest.write_events.s"] = s.seconds("ingest.write_events")
    m["synth.generate.s"] = s.seconds("synth.generate")
    m["ingest.read_events.events"] = t.count("ingest.read_events", "events")
    m["events.crop_roi.kept_frac"] = _ratio(
        t.count("events.crop_roi", "events_out"),
        t.count("events.crop_roi", "events_in"))
    seg = "segment.segment_by_schedule"
    m["segment.trials"] = t.count(seg, "trials")
    m["segment.in_window_frac"] = _ratio(t.count(seg, "in_window"),
                                         t.count(seg, "events_in"))
    ec = "cluster.extract_centroid"
    durations = t.durations.get(ec, [])
    m[f"{ec}.calls"] = len(durations)
    m[f"{ec}.events_in"] = t.count(ec, "events_in")
    m[f"{ec}.p50_ms"] = 1e3 * statistics.median(durations) if durations else 0.0
    m[f"{ec}.tail_pct"], m[f"{ec}.tail_ms"] = tail_ms(durations)
    m["cluster.dominant_frac"] = _ratio(t.count(ec, "dominant"),
                                        t.count(ec, "events_in"))
    m["cluster.valid_frac"] = _ratio(t.count(ec, "valid"), len(durations))
    m["cluster.exclude_press.excluded"] = t.count("cluster.exclude_press",
                                                  "excluded")
    m["geometry.triangulate.calls"] = len(t.durations.get("geometry.triangulate", ()))
    m["geometry.triangulate.degenerate"] = t.errors.get("geometry.triangulate", 0)
    m["geometry.calibrate.iterations"] = t.count("geometry.calibrate",
                                                 "iterations")
    m["geometry.calibrate.converged"] = t.count("geometry.calibrate",
                                                "converged")
    m["ablate.thin.max_dev_sigma"] = t.count("ablate.thin", "dev_sigma")
    m["ablate.run_sweep.cells"] = t.count("ablate.run_sweep", "cells")
    tune = "latency.tune_threshold"
    grid = t.count(tune, "grid_points")
    m[f"{tune}.grid_points"] = grid
    m[f"{tune}.per_h_ms"] = 1e3 * _ratio(t.seconds(tune), grid)
    m["latency.h_at_grid_edge"] = t.count(tune, "h_at_grid_edge")
    m["pipeline.localize_trials.threads2_speedup"] = _ratio(
        t.seconds("pipeline.localize_trials"),
        t2.seconds("pipeline.localize_trials"))
    for layer in SELF_LAYERS:
        m[f"{layer}.self_s"] = t.self_s.get(layer, 0.0)
    m["cli.import_s"] = t.seconds("cli.import")
    m["trace.wall_s"] = t.wall_s
    m["trace.overhead_frac"] = (t.wall_s - untraced_wall_s) / untraced_wall_s
    for key, val in funnel(traced[-1]).items():
        m[f"funnel.{key}"] = val
    return m
