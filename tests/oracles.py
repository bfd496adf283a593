"""Reference implementations the tests compare the program's fast paths
with: an O(n^2) DBSCAN and a scalar two-ray intersection. Neither shares
code with the path it checks beyond the camera model's pixel-to-bearing
map."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from tacloc.cluster import NOISE, DbscanParams
from tacloc.geometry import (DEGENERACY_MIN_SIN, CameraModel, GeometryError,
                             pixel_to_bearing)


def dbscan_brute(points, params: DbscanParams) -> np.ndarray:
    """Reference DBSCAN from the full pairwise distance matrix.

    Implements the exact same semantics as :func:`dbscan` without any
    spatial index or duplicate compression; intended for testing on
    small inputs (O(n^2) memory).
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.size == 0:
        return np.zeros(0, dtype=np.int64)
    n = pts.shape[0]
    eps2 = params.eps * params.eps
    dx = pts[:, 0][:, None] - pts[:, 0][None, :]
    dy = pts[:, 1][:, None] - pts[:, 1][None, :]
    d2 = dx * dx + dy * dy
    within = d2 <= eps2
    core = within.sum(axis=1) >= params.min_samples

    labels = np.full(n, NOISE, dtype=np.int64)
    cluster = 0
    for i in range(n):
        if not core[i] or labels[i] != NOISE:
            continue
        # flood fill over cores reachable from i
        stack = [i]
        labels[i] = cluster
        while stack:
            j = stack.pop()
            for k in np.flatnonzero(within[j] & core):
                if labels[k] == NOISE:
                    labels[k] = cluster
                    stack.append(int(k))
        cluster += 1

    coord_rank = np.empty(n, dtype=np.int64)
    coord_rank[np.lexsort((pts[:, 1], pts[:, 0]))] = np.arange(n)
    for i in np.flatnonzero(~core):
        reach = within[i] & core
        if not np.any(reach):
            continue
        cand = np.flatnonzero(reach)
        best_d = d2[i, cand].min()
        tied = cand[d2[i, cand] == best_d]
        labels[i] = labels[tied[np.argmin(coord_rank[tied])]]
    return labels


class DegenerateGeometryError(GeometryError):
    """Rays are too close to parallel to intersect reliably."""


@dataclass(frozen=True)
class Triangulation:
    x_mm: float
    y_mm: float
    condition: float  # |sin(bearing difference)|


def triangulate_scalar(m1: CameraModel, u1: float, m2: CameraModel,
                       u2: float) -> Triangulation:
    """Intersect the two camera rays defined by pixel columns u1, u2, one
    pair at a time in Python floats; nearly parallel rays raise."""
    th1 = pixel_to_bearing(m1, float(u1))
    th2 = pixel_to_bearing(m2, float(u2))
    d1 = (math.cos(th1), math.sin(th1))
    d2 = (math.cos(th2), math.sin(th2))
    bx, by = m2.x_mm - m1.x_mm, m2.y_mm - m1.y_mm
    det = d2[0] * d1[1] - d1[0] * d2[1]
    cond = abs(det)  # equals |sin(th2 - th1)|
    if cond < DEGENERACY_MIN_SIN:
        raise DegenerateGeometryError(
            f"rays nearly parallel (|sin| = {cond:.3e})")
    t1 = (d2[0] * by - d2[1] * bx) / det
    return Triangulation(m1.x_mm + t1 * d1[0], m1.y_mm + t1 * d1[1], cond)
