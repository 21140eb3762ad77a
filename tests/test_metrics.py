import json
import math

import numpy as np
import pytest

from armpose import (
    EvalRecord,
    RigidTransform,
    add_metric,
    auc,
    build_report,
    builtin_chain,
    forward_kinematics,
    mae_config,
    write_report_csv,
    write_report_json,
)


def _rot_z(phi):
    return np.array(
        [
            [math.cos(phi), -math.sin(phi), 0.0],
            [math.sin(phi), math.cos(phi), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )


def test_add_matches_brute_force():
    chain = builtin_chain("panda7")
    rng = np.random.default_rng(2)
    lo, hi = chain.limits()
    for _ in range(10):
        theta_gt = rng.uniform(lo, hi)
        theta_est = rng.uniform(lo, hi)
        pose_gt = RigidTransform(_rot_z(rng.uniform(-3, 3)), rng.normal(size=3))
        pose_est = RigidTransform(_rot_z(rng.uniform(-3, 3)), rng.normal(size=3))
        got = add_metric(pose_gt, theta_gt, pose_est, theta_est, chain)
        # independent summation over matched joint origins
        acc = 0.0
        fg = forward_kinematics(chain, theta_gt)
        fe = forward_kinematics(chain, theta_est)
        for a, b in zip(fg, fe):
            pa = pose_gt.rotation @ a.translation + pose_gt.translation
            pb = pose_est.rotation @ b.translation + pose_est.translation
            acc += float(np.linalg.norm(pa - pb))
        assert abs(got - acc / chain.dof) < 1e-12


def test_add_zero_at_truth():
    chain = builtin_chain("planar2")
    theta = np.array([0.4, -0.8])
    pose = RigidTransform(_rot_z(0.3), np.array([0.1, 0.2, 2.0]))
    assert add_metric(pose, theta, pose, theta, chain) == 0.0


def test_auc_step_oracle_single_error():
    # one error at 0.05 under threshold 0.1: accuracy jumps to 1 at 0.05,
    # so the normalized area is (0.1 - 0.05) / 0.1 = 50%
    assert auc([0.05], threshold=0.1) == pytest.approx(50.0, abs=1e-12)


def test_auc_edge_cases_exact():
    assert auc([0.0, 0.0, 0.0]) == 100.0
    assert auc([0.2, 0.5, 10.0]) == 0.0
    assert auc([0.0, 0.2]) == 50.0


@pytest.mark.parametrize("threshold", [0.0, -0.1, math.nan, math.inf, -math.inf])
def test_auc_rejects_bad_threshold(threshold):
    with pytest.raises(ValueError, match="threshold"):
        auc([0.05], threshold=threshold)


def test_auc_step_matches_numeric_integration():
    rng = np.random.default_rng(4)
    for _ in range(5):
        errors = rng.uniform(0.0, 0.2, size=40)
        got = auc(errors, threshold=0.1)
        ts = np.linspace(0.0, 0.1, 100000)
        acc = np.mean(errors[None, :] <= ts[:, None], axis=1)
        numeric = 100.0 * float(np.mean(acc))  # grid mean of accuracy over [0, 0.1]
        assert abs(got - numeric) < 0.05


def test_mae_config_wraps():
    got = mae_config(np.array([math.pi - 0.05]), np.array([-math.pi + 0.05]))
    assert got == pytest.approx(math.degrees(0.1), abs=1e-9)
    assert mae_config(np.array([0.2, 0.4]), np.array([0.2, 0.4])) == 0.0
    got = mae_config(np.array([0.0, 0.0]), np.array([0.1, -0.3]))
    assert got == pytest.approx(math.degrees(0.2), abs=1e-9)


def test_build_report_aggregates():
    records = [EvalRecord(0, 0.05, 2.0), EvalRecord(1, 0.15, 4.0), EvalRecord(2, 0.0, 0.0)]
    report = build_report(records)
    agg = report["aggregate"]
    assert agg["mean_add"] == pytest.approx((0.05 + 0.15 + 0.0) / 3.0)
    assert agg["median_add"] == pytest.approx(0.05)
    assert agg["mae_deg"] == pytest.approx(2.0)
    assert agg["auc"] == pytest.approx(auc([0.05, 0.15, 0.0]))
    assert [row["scene_index"] for row in report["per_scene"]] == [0, 1, 2]


def test_report_files(tmp_path):
    records = [EvalRecord(0, 0.01, 1.0), EvalRecord(1, 0.02, 2.0)]
    report = build_report(records)
    jpath = tmp_path / "report.json"
    cpath = tmp_path / "report.csv"
    write_report_json(report, jpath)
    write_report_csv(report, cpath)
    loaded = json.loads(jpath.read_text(encoding="utf-8"))
    assert loaded["aggregate"]["mean_add"] == report["aggregate"]["mean_add"]
    lines = cpath.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == "scene_index,add,mae_deg"
    assert lines[-1].startswith("aggregate,")
    assert len(lines) == 4
