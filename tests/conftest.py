from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.database import DirectoryBasedExampleDatabase

from tacloc.events import EventStream, SensorLayout, meander_grid
from tacloc.ingest import RunConfig, make_schedule
from tacloc.synth import SynthSpec, generate

# On CI Hypothesis loads its "ci" profile, which draws the same examples
# every run and keeps no example database. Draw at random there too and
# keep the database, which CI caches between runs, so an example that
# failed once is replayed first on the next run.
if settings().derandomize and settings().database is None:
    settings.register_profile(
        "ci-replay", settings(), derandomize=False,
        database=DirectoryBasedExampleDatabase(".hypothesis/examples"))
    settings.load_profile("ci-replay")


def small_layout(cols=5, rows=4, reps=1):
    return SensorLayout(grid_points=meander_grid(cols=cols, rows=rows),
                        repetitions=reps)


def small_run(seed=3, cols=5, rows=4, reps=1, period_s=1.5, **synth_kwargs):
    """A compact simulated recording plus its config and truth manifest."""
    layout = small_layout(cols, rows, reps)
    cfg = RunConfig(layout=layout,
                    schedule=make_schedule(layout, period_s=period_s,
                                           repetitions=reps))
    defaults = dict(burst_events_per_press_per_camera=2000.0,
                    background_rate_per_camera=1000.0)
    defaults.update(synth_kwargs)
    spec = SynthSpec(layout=layout, schedule=cfg.schedule, seed=seed,
                     **defaults)
    s1, s2, manifest = generate(spec)
    return cfg, spec, s1, s2, manifest


@pytest.fixture(scope="session")
def tiny_run():
    return small_run()


def uniform_stream(rng, n, t_span_s=1.0, camera=1, v_lo=0, v_hi=479):
    t = np.sort(rng.integers(0, int(t_span_s * 1e6), n))
    return EventStream(camera, t,
                       rng.integers(0, 640, n),
                       rng.integers(v_lo, v_hi + 1, n),
                       rng.integers(0, 2, n))


def reference_dominant(u, labels, params):
    """Largest cluster size and centroid by the dominant-cluster rule, one
    event at a time: the largest cluster, ties to the lower mean u, then
    the lower id; the centroid is the mean of its members' u, and nan when
    the cluster is under ``min_cluster_points``."""
    if labels.max(initial=-1) < 0:
        return 0, float("nan")
    sizes = np.bincount(labels[labels >= 0])
    tied = np.flatnonzero(sizes == sizes.max())
    c = min(tied, key=lambda c: (u[labels == c].mean(), c))
    if sizes[c] < params.min_cluster_points:
        return int(sizes[c]), float("nan")
    return int(sizes[c]), float(np.mean(u[labels == c]))
