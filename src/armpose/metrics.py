"""Evaluation metrics and report writers for pose-and-configuration output."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._io import write_csv, write_json
from .kinematics import skeleton_keypoints, wrap_angle

# ADD threshold (m) of the area-under-curve score
ADD_THRESHOLD = 0.1


def add_metric(pose_gt, theta_gt, pose_est, theta_est, chain):
    """Average camera-frame distance between matched joint origins.

    Each side runs its own forward kinematics and applies its own pose, so
    the metric penalizes configuration and pose errors together.
    """
    origins_gt = _camera_origins(pose_gt, theta_gt, chain)
    origins_est = _camera_origins(pose_est, theta_est, chain)
    return float(np.mean(np.linalg.norm(origins_gt - origins_est, axis=1)))


def _camera_origins(pose, theta, chain):
    return np.array([pose.rotation @ t + pose.translation for t in skeleton_keypoints(chain, theta)[1:]])


def auc(errors, threshold=ADD_THRESHOLD):
    """Area under the accuracy-vs-threshold curve, as a percentage.

    Exact for the empirical step curve: each error e <= threshold contributes
    its full remaining margin, giving 100 * sum(threshold - e) / (n * threshold).
    """
    errs = np.asarray(errors, dtype=float).reshape(-1)
    if errs.size == 0:
        raise ValueError("need at least one error value")
    if np.any(errs < 0):
        raise ValueError("errors must be nonnegative")
    if not (math.isfinite(threshold) and threshold > 0):
        raise ValueError(f"threshold must be finite and positive, got {threshold}")
    kept = errs[errs <= threshold]
    return float(100.0 * np.sum(threshold - kept) / (errs.size * threshold))


def mae_config(theta_gt, theta_est):
    """Mean absolute joint-angle error in degrees, wrapped onto [0, pi]."""
    a = np.asarray(theta_gt, dtype=float).reshape(-1)
    b = np.asarray(theta_est, dtype=float).reshape(-1)
    if a.shape != b.shape:
        raise ValueError("configurations have different lengths")
    diff = np.abs(wrap_angle(a - b))
    return float(np.degrees(np.mean(diff)))


@dataclass(frozen=True)
class EvalRecord:
    """Per-scene evaluation result."""

    scene_index: int
    add: float
    mae_deg: float

    def to_json(self):
        return {"scene_index": self.scene_index, "add": self.add, "mae_deg": self.mae_deg}


def build_report(records, add_threshold=ADD_THRESHOLD):
    """Aggregate per-scene records into the report structure."""
    if not records:
        raise ValueError("no evaluation records")
    adds = np.array([r.add for r in records])
    maes = np.array([r.mae_deg for r in records])
    return {
        "per_scene": [r.to_json() for r in records],
        "aggregate": {
            "mean_add": float(np.mean(adds)),
            "median_add": float(np.median(adds)),
            "auc": auc(adds, threshold=add_threshold),
            "mae_deg": float(np.mean(maes)),
        },
    }


def write_report_json(report, path):
    write_json(path, report)


def write_report_csv(report, path):
    """CSV mirror of the per-scene table, aggregate row last."""
    agg = report["aggregate"]
    rows = [(row["scene_index"], row["add"], row["mae_deg"]) for row in report["per_scene"]]
    rows.append(("aggregate", agg["mean_add"], agg["mae_deg"]))
    write_csv(path, ("scene_index", "add", "mae_deg"), rows)
