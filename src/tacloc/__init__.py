"""Event-camera opto-tactile press localization.

A library and CLI for dual DVS-camera tactile recordings: ingestion and
three-tap synchronization, press segmentation, density-based centroid
extraction, stereo triangulation with calibratable camera models,
accuracy metrics, stochastic-thinning ablation, CUSUM onset-latency
analysis, and a synthetic press generator that serves as the geometric
test oracle.
"""

from .ablate import AblationSweep, run_sweep, thin
from .cluster import ClusterResult, DbscanParams, dbscan, dbscan_brute, \
    exclude_press, extract_centroid
from .events import (CameraId, EventStream, RateSeries, SensorLayout,
                     bit_rate, crop_roi, event_rate_histogram, meander_grid)
from .geometry import (CameraModel, CalibrationResult, FreeParams,
                       Triangulation, calibrate, default_models,
                       pixel_to_bearing, project_point, project_points,
                       triangulate, triangulate_many)
from .ingest import (PressSchedule, RunConfig, SyncSpec, align_streams,
                     detect_sync_taps, load_config, make_schedule,
                     read_events, write_events)
from .latency import (CusumParams, LatencyReport, cusum_onsets,
                      latency_report, smoothed_rate, tune_threshold)
from .metrics import (EvaluationReport, cmre, effective_taxels, evaluate,
                      pass_rate, repeatability, rmse)
from .segment import PressTrial, segment_by_schedule
from .synth import RateProfile, SynthSpec, TruthManifest, generate

__version__ = "0.1.0"
