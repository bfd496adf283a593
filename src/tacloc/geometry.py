"""Camera geometry: pixel-to-bearing mapping with radial distortion,
two-ray triangulation in the skin plane, and least-squares calibration
of the camera parameters against ground-truth press positions.

Frame convention: the skin is the square [0, side] x [0, side] in mm,
with the two cameras near the corners of the y = 0 edge. Bearings are
world-frame angles measured counterclockwise from the +x axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .events import SENSOR_WIDTH

DEGENERACY_MIN_SIN = 1e-6
CALIBRATION_MAX_ITERATIONS = 200  # accepted Levenberg-Marquardt steps
CALIBRATION_REL_TOL = 1e-10  # converged below this relative cost drop


class GeometryError(ValueError):
    pass


class CalibrationError(RuntimeError):
    pass


@dataclass(frozen=True)
class CameraModel:
    """Per-camera geometric parameters in the skin frame.

    ``orientation_rad`` is the nominal optical-axis direction and
    ``skew_rad`` the mounting correction on top of it; ``k1`` is the
    cubic radial distortion coefficient applied in normalized image
    coordinates.
    """

    x_mm: float
    y_mm: float
    orientation_rad: float
    skew_rad: float = 0.0
    focal_px: float = 320.0
    u_center: float = 319.5
    k1: float = 0.0

    def __post_init__(self):
        if self.focal_px <= 0:
            raise ValueError("focal_px must be positive")
        if abs(self.skew_rad) >= math.pi / 4:
            raise ValueError("skew_rad out of range (+-pi/4)")

    def axis_rad(self) -> float:
        return self.orientation_rad + self.skew_rad

    def to_dict(self) -> dict:
        return {
            "x_mm": self.x_mm, "y_mm": self.y_mm,
            "orientation_rad": self.orientation_rad,
            "skew_rad": self.skew_rad, "focal_px": self.focal_px,
            "u_center": self.u_center, "k1": self.k1,
        }


def check_camera_box(model: CameraModel, side_mm: float) -> None:
    """Raise ValueError unless the camera lies in [-side/2, 3*side/2] on
    both axes: the skin square grown by half a side on every edge."""
    lo, hi = -0.5 * side_mm, 1.5 * side_mm
    if not (lo <= model.x_mm <= hi and lo <= model.y_mm <= hi):
        raise ValueError(f"camera position ({model.x_mm:g}, {model.y_mm:g}) "
                         f"mm outside the expanded sensor box "
                         f"[{lo:g}, {hi:g}] mm")


def default_models(side_mm: float = 100.0) -> tuple[CameraModel, CameraModel]:
    """Cameras at the two corners of the y=0 edge, aimed at the skin center."""
    c = side_mm / 2.0
    return (
        CameraModel(0.0, 0.0, math.atan2(c, c)),
        CameraModel(side_mm, 0.0, math.atan2(c, -c)),
    )


def pixel_to_bearing(model: CameraModel, u) -> np.ndarray | float:
    """World-frame bearing of the ray through pixel column u.

    Normalized coordinate, cubic radial distortion, then the pinhole
    angle, offset by the camera's axis direction. Strict monotonicity in
    u requires 1 + 3*k1*u_n^2 > 0, which is asserted.
    """
    u_arr = np.asarray(u, dtype=np.float64)
    u_n = (u_arr - model.u_center) / model.focal_px
    if np.any(1.0 + 3.0 * model.k1 * u_n * u_n <= 0.0):
        raise GeometryError("distortion model non-monotone at requested pixel")
    u_d = u_n * (1.0 + model.k1 * u_n * u_n)
    theta = np.arctan(u_d) + model.axis_rad()
    return float(theta) if np.isscalar(u) else theta


def _invert_distortion(model: CameraModel, u_d):
    """Solve u_n * (1 + k1*u_n^2) = u_d by Newton iteration."""
    x = np.array(u_d, dtype=np.float64, copy=True)
    k1 = model.k1
    if k1 == 0.0:
        return x
    for _ in range(50):
        f = x * (1.0 + k1 * x * x) - u_d
        fp = 1.0 + 3.0 * k1 * x * x
        step = f / fp
        x -= step
        if np.all(np.abs(step) <= 1e-14):
            break
    return x


def project_points(model: CameraModel, points) -> tuple[np.ndarray, np.ndarray]:
    """Pixel columns for world points, plus an in-view mask.

    Points behind the camera plane, outside the +-pi/2 half-plane, in a
    non-monotone distortion region, or landing outside [0, 640) are
    flagged out of view (their u is nan).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    dx = pts[:, 0] - model.x_mm
    dy = pts[:, 1] - model.y_mm
    if np.any((dx == 0) & (dy == 0)):
        raise GeometryError("point coincides with the camera position")
    bearing = np.arctan2(dy, dx)
    theta = bearing - model.axis_rad()
    theta = (theta + math.pi) % (2.0 * math.pi) - math.pi
    in_front = np.abs(theta) < math.pi / 2.0
    u_d = np.where(in_front, np.tan(np.where(in_front, theta, 0.0)), np.nan)
    u_n = _invert_distortion(model, np.where(in_front, u_d, 0.0))
    ok = in_front & (1.0 + 3.0 * model.k1 * u_n * u_n > 0.0)
    # reject solutions the forward model would not map back to the same angle
    check = u_n * (1.0 + model.k1 * u_n * u_n)
    ok &= np.abs(check - np.where(in_front, u_d, 0.0)) <= 1e-9 * np.maximum(1.0, np.abs(u_d))
    u = model.u_center + model.focal_px * u_n
    ok &= (u >= -0.5) & (u < SENSOR_WIDTH - 0.5)
    return np.where(ok, u, np.nan), ok


def triangulate_many(m1: CameraModel, u1, m2: CameraModel, u2):
    """Vectorized ray intersection.

    Returns (estimates (n, 2), condition (n,), valid mask); degenerate
    rows hold nan estimates instead of raising.
    """
    th1 = pixel_to_bearing(m1, np.asarray(u1, dtype=np.float64))
    th2 = pixel_to_bearing(m2, np.asarray(u2, dtype=np.float64))
    c1, s1 = np.cos(th1), np.sin(th1)
    c2, s2 = np.cos(th2), np.sin(th2)
    bx = m2.x_mm - m1.x_mm
    by = m2.y_mm - m1.y_mm
    det = c2 * s1 - c1 * s2
    cond = np.abs(det)
    valid = cond >= DEGENERACY_MIN_SIN
    safe = np.where(valid, det, 1.0)
    t1 = (c2 * by - s2 * bx) / safe
    est = np.stack([m1.x_mm + t1 * c1, m1.y_mm + t1 * s1], axis=1)
    est[~valid] = np.nan
    return est, cond, valid


def triangulate(m1: CameraModel, u1: float, m2: CameraModel,
                u2: float) -> tuple[float, float]:
    """``(x_mm, y_mm)`` where the rays through pixel columns u1 and u2
    meet: one pair of :func:`triangulate_many`, so nan for nearly
    parallel rays."""
    est, _, _ = triangulate_many(m1, [u1], m2, [u2])
    return float(est[0, 0]), float(est[0, 1])


@dataclass(frozen=True)
class FreeParams:
    """Which camera parameters calibration may adjust (both cameras)."""

    position: bool = True
    skew: bool = True
    k1: bool = True
    focal: bool = False

    def names(self) -> list[str]:
        out = []
        if self.position:
            out += ["x_mm", "y_mm"]
        if self.skew:
            out += ["skew_rad"]
        if self.k1:
            out += ["k1"]
        if self.focal:
            out += ["focal_px"]
        return out


@dataclass(frozen=True)
class CalibrationResult:
    models: tuple[CameraModel, CameraModel]
    rmse_mm: float
    iterations: int
    converged: bool
    initial_rmse_mm: float
    residuals_mm: np.ndarray  # (n, 2); nan rows were degenerate
    n_degenerate: int


def _pack(models, names):
    return np.array([getattr(m, f) for m in models for f in names], dtype=np.float64)


def _unpack(models, names, x):
    out = []
    k = len(names)
    for i, m in enumerate(models):
        vals = {f: float(x[i * k + j]) for j, f in enumerate(names)}
        out.append(replace(m, **vals))
    return tuple(out)


def calibrate(models0, u1, u2, ground_truth, free: FreeParams = FreeParams(),
              side_mm: float = 100.0) -> CalibrationResult:
    """Levenberg-Marquardt fit of camera parameters to press observations.

    Minimizes the summed squared distance between triangulated positions
    and ground truth over the unmasked parameters, with a forward-difference
    Jacobian (backward on the camera-box edge). Only cost-improving steps
    are accepted (damping x10 on reject, /10 on accept), and a step that
    takes a camera out of the camera box of a ``side_mm`` skin is
    rejected; converged when the relative cost decrease of an accepted
    step falls below ``CALIBRATION_REL_TOL``, or after
    ``CALIBRATION_MAX_ITERATIONS`` accepted steps.
    """
    u1 = np.asarray(u1, dtype=np.float64)
    u2 = np.asarray(u2, dtype=np.float64)
    gt = np.asarray(ground_truth, dtype=np.float64)
    if not (len(u1) == len(u2) == len(gt)):
        raise ValueError("observation arrays must have equal length")
    if len(u1) < 10:
        raise CalibrationError("need at least 10 observations")
    names = free.names()
    if not names:
        raise CalibrationError("no free parameters selected")

    def residuals(x):
        try:
            m1, m2 = _unpack(models0, names, x)
            check_camera_box(m1, side_mm)
            check_camera_box(m2, side_mm)
        except ValueError as exc:  # parameter invariant violated
            raise CalibrationError(f"parameters left the valid range: {exc}") from exc
        est, _, valid = triangulate_many(m1, u1, m2, u2)
        r = est - gt
        r[~valid] = 0.0
        return r.ravel(), valid

    def cost_of(r):
        c = float(np.dot(r, r))
        if not math.isfinite(c):
            raise CalibrationError("non-finite calibration cost")
        return c

    x = _pack(models0, names)
    r, valid0 = residuals(x)
    cost = cost_of(r)
    n_obs_eff = max(1, int(valid0.sum()))
    initial_rmse = math.sqrt(cost / n_obs_eff)

    lam = 1e-3
    iterations = 0
    converged = False
    if cost < 1e-20:
        converged = True
    else:
        for _ in range(CALIBRATION_MAX_ITERATIONS):
            # forward-difference Jacobian, backward where the forward probe
            # would leave the camera box
            J = np.empty((len(r), len(x)))
            for j in range(len(x)):
                h = 1e-6 * max(1.0, abs(x[j]))
                xp = x.copy()
                xp[j] += h
                try:
                    rp, _ = residuals(xp)
                except CalibrationError:
                    h = -h
                    xp[j] = x[j] + h
                    rp, _ = residuals(xp)
                J[:, j] = (rp - r) / h
            g = J.T @ r
            jtj = J.T @ J
            d = np.diag(jtj).copy()
            d[d <= 0] = 1.0
            improved = False
            while lam < 1e14:
                try:
                    step = np.linalg.solve(jtj + lam * np.diag(d), -g)
                except np.linalg.LinAlgError:
                    lam *= 10.0
                    continue
                try:
                    r_new, _ = residuals(x + step)
                    c_new = cost_of(r_new)
                except CalibrationError:
                    lam *= 10.0
                    continue
                if c_new < cost:
                    improved = True
                    break
                lam *= 10.0
            if not improved:
                converged = True  # stalled: no improving step exists at any damping
                break
            x = x + step
            drop = (cost - c_new) / cost
            r = r_new
            cost = c_new
            lam = max(lam / 10.0, 1e-15)
            iterations += 1
            if drop < CALIBRATION_REL_TOL:
                converged = True
                break

    m1, m2 = _unpack(models0, names, x)
    est, _, valid = triangulate_many(m1, u1, m2, u2)
    res = est - gt
    res[~valid] = np.nan
    n_deg = int((~valid).sum())
    n_eff = max(1, int(valid.sum()))
    rmse = math.sqrt(np.nansum(res * res) / n_eff)
    return CalibrationResult((m1, m2), rmse, iterations, converged,
                             initial_rmse, res, n_deg)
