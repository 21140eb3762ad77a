import json
import math

import numpy as np
import pytest

from armpose import (
    CameraIntrinsics,
    InsufficientCorrespondencesError,
    Keypoints2D,
    PnpDegenerateError,
    ScaleUndefinedError,
    add_metric,
    builtin_chain,
    epnp,
    forward_kinematics,
    initial_estimate,
    joint_points,
    look_at,
    project_keypoints,
    rotation_geodesic,
    scale_factor,
    skeleton_keypoints,
    translation_from_scale,
)


def _camera():
    return CameraIntrinsics(fx=260.0, fy=260.0, cx=112.0, cy=112.0, width=224, height=224)


def _random_rotation(rng):
    a = rng.normal(size=3)
    a /= np.linalg.norm(a)
    b = rng.normal(size=3)
    b -= (b @ a) * a
    b /= np.linalg.norm(b)
    return np.stack([a, b, np.cross(a, b)], axis=1)


# ---------------------------------------------------------------------------
# intrinsics


def test_projection_oracle():
    k = _camera()
    pt = np.array([[0.2, -0.1, 2.0]])
    uv = k.project(pt)
    assert uv[0, 0] == pytest.approx(260.0 * 0.2 / 2.0 + 112.0, abs=1e-12)
    assert uv[0, 1] == pytest.approx(260.0 * (-0.1) / 2.0 + 112.0, abs=1e-12)


def test_normalized_undoes_pixels():
    k = _camera()
    pt = np.array([0.3, 0.25, 1.7])
    uv = k.project(pt[None, :])[0]
    n = k.normalized(uv)
    assert n[0] == pytest.approx(0.3 / 1.7, abs=1e-12)
    assert n[1] == pytest.approx(0.25 / 1.7, abs=1e-12)


def test_backproject_inverts_projection():
    k = _camera()
    pt = np.array([0.4, -0.3, 2.2])
    uv = k.project(pt[None, :])[0]
    back = k.backproject(2.2, uv)
    assert np.max(np.abs(back - pt)) < 1e-12


def test_intrinsics_matrix_and_json_round_trip():
    k = _camera()
    m = k.matrix()
    assert m[0, 0] == 260.0 and m[1, 1] == 260.0
    assert m[0, 2] == 112.0 and m[1, 2] == 112.0 and m[2, 2] == 1.0
    again = CameraIntrinsics.from_json(k.to_json())
    assert again == k


def test_keypoints_round_trip():
    kp = Keypoints2D(np.array([[1.5, 2.5], [3.0, 4.0]]), np.array([True, False]))
    items = kp.to_json()
    assert items[0] == {"u": 1.5, "v": 2.5, "visible": True}
    back = Keypoints2D.from_json(items)
    assert np.array_equal(back.uv, kp.uv)
    assert np.array_equal(back.visible, kp.visible)
    loaded = Keypoints2D.from_json(json.loads(json.dumps(items)))
    assert np.array_equal(loaded.uv, kp.uv)
    assert np.array_equal(loaded.visible, kp.visible)


def test_keypoints_validation():
    with pytest.raises(ValueError):
        Keypoints2D(np.array([[1.0, 2.0, 3.0]]), np.array([True]))
    with pytest.raises(ValueError):
        Keypoints2D(np.array([[np.nan, 2.0]]), np.array([True]))


# ---------------------------------------------------------------------------
# EPnP


def test_epnp_exact_on_noise_free_scenes():
    k = _camera()
    rng = np.random.default_rng(100)
    for _ in range(20):
        pts3d = rng.uniform(-0.5, 0.5, size=(8, 3))
        rot = _random_rotation(rng)
        tra = np.array([rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2), rng.uniform(2.0, 3.5)])
        cam = pts3d @ rot.T + tra
        uv = k.project(cam)
        pose, err = epnp(pts3d, uv, k)
        assert rotation_geodesic(pose.rotation, rot) < 1e-6
        assert np.max(np.abs(pose.translation - tra)) < 1e-6
        assert err < 1e-6


def test_epnp_exact_on_coplanar_points():
    k = _camera()
    rng = np.random.default_rng(200)
    for _ in range(10):
        flat = rng.uniform(-0.5, 0.5, size=(6, 3))
        flat[:, 2] = 0.0  # rank-2 cloud exercises the planar kernel
        rot = _random_rotation(rng)
        tra = np.array([0.1, -0.05, 2.5])
        uv = k.project(flat @ rot.T + tra)
        pose, err = epnp(flat, uv, k)
        assert rotation_geodesic(pose.rotation, rot) < 1e-5
        assert np.max(np.abs(pose.translation - tra)) < 1e-5


def test_epnp_input_validation():
    k = _camera()
    with pytest.raises(InsufficientCorrespondencesError):
        epnp(np.zeros((3, 3)), np.zeros((3, 2)), k)
    with pytest.raises(ValueError):
        epnp(np.zeros((4, 3)), np.zeros((5, 2)), k)
    collinear = np.stack([np.linspace(0, 1, 5)] * 3, axis=1)
    with pytest.raises(PnpDegenerateError):
        epnp(collinear, np.tile([100.0, 100.0], (5, 1)), k)


def test_epnp_picks_the_front_side_interpretation():
    # pixels of a scene behind the camera coincide with those of the
    # 180-degree rotated scene in front of it; the solver must return the
    # front-side pose (positive depths), never the impossible one
    k = _camera()
    rng = np.random.default_rng(7)
    pts3d = rng.uniform(-0.5, 0.5, size=(6, 3))
    cam = pts3d + np.array([0.0, 0.0, -3.0])
    uv = np.stack(
        [k.fx * cam[:, 0] / cam[:, 2] + k.cx, k.fy * cam[:, 1] / cam[:, 2] + k.cy], axis=-1
    )
    pose, err = epnp(pts3d, uv, k)
    assert np.all(pose.apply(pts3d)[:, 2] > 0.0)
    assert math.isfinite(err)


def test_epnp_moderate_noise_stays_sane():
    k = _camera()
    rng = np.random.default_rng(42)
    errors = []
    for _ in range(20):
        pts3d = rng.uniform(-0.5, 0.5, size=(8, 3))
        rot = _random_rotation(rng)
        tra = np.array([0.0, 0.0, 2.5])
        uv = k.project(pts3d @ rot.T + tra) + rng.normal(0.0, 2.0, size=(8, 2))
        pose, _ = epnp(pts3d, uv, k)
        errors.append(rotation_geodesic(pose.rotation, rot))
    assert np.median(errors) < 0.2


# ---------------------------------------------------------------------------
# scale and translation


def test_scale_factor_is_depth_for_fronto_parallel_link():
    k = _camera()
    depth = 2.3
    a = np.array([0.1, 0.2, depth])
    b = np.array([-0.15, 0.05, depth])
    ua = k.project(a[None, :])[0]
    ub = k.project(b[None, :])[0]
    lam = scale_factor(ua, ub, float(np.linalg.norm(a - b)), k)
    assert lam == pytest.approx(depth, abs=1e-9)


def test_scale_factor_overestimates_foreshortened_link():
    k = _camera()
    a = np.array([0.1, 0.0, 2.0])
    b = np.array([0.3, 0.0, 2.6])  # receding link
    ua = k.project(a[None, :])[0]
    ub = k.project(b[None, :])[0]
    lam = scale_factor(ua, ub, float(np.linalg.norm(a - b)), k)
    assert lam > 2.0


def test_scale_factor_errors():
    k = _camera()
    with pytest.raises(ValueError):
        scale_factor([0.0, 0.0], [1.0, 1.0], 0.0, k)
    with pytest.raises(ScaleUndefinedError):
        scale_factor([50.0, 60.0], [50.0, 60.0], 1.0, k)


def test_translation_reproduces_base_pixel():
    k = _camera()
    rng = np.random.default_rng(3)
    for _ in range(20):
        pix = rng.uniform(0, 223, size=2)
        lam = rng.uniform(0.5, 5.0)
        t = translation_from_scale(lam, k, pix)
        assert t[2] == pytest.approx(lam, abs=1e-12)
        uv = k.project(t[None, :])[0]
        assert np.max(np.abs(uv - pix)) < 1e-9
    with pytest.raises(ValueError):
        translation_from_scale(-1.0, k, [0.0, 0.0])


# ---------------------------------------------------------------------------
# assembled initialization


def test_initial_estimate_exact_for_fronto_parallel_base_link():
    # a level camera sees the vertical base link of the 7-DoF chain
    # fronto-parallel, so the single-link scale equals the true depth and the
    # assembled estimate reproduces the scene exactly
    chain = builtin_chain("panda7")
    k = _camera()
    rng = np.random.default_rng(11)
    lo, hi = chain.limits()
    theta = rng.uniform(lo, hi)
    points = skeleton_keypoints(chain, theta)
    base = np.zeros(3)
    cam_pos = base + np.array([2.4 * math.cos(0.7), 2.4 * math.sin(0.7), 0.0])
    pose = look_at(cam_pos, base)
    kp = project_keypoints(points, pose, k)
    assert kp.visible[0] and kp.visible[1]
    est = initial_estimate(kp, theta, chain, k)
    assert add_metric(pose, theta, est.pose(k), est.theta, chain) < 1e-6


def test_initial_estimate_requires_base_links_visible():
    chain = builtin_chain("panda7")
    k = _camera()
    theta = np.zeros(chain.dof)
    points = skeleton_keypoints(chain, theta)
    pose = look_at(np.array([2.0, 0.0, 0.3]), np.array([0.0, 0.0, 0.3]))
    kp = project_keypoints(points, pose, k)
    vis = kp.visible.copy()
    vis[1] = False
    masked = Keypoints2D(kp.uv, vis)
    if int(vis.sum()) >= 4:
        with pytest.raises(ScaleUndefinedError):
            initial_estimate(masked, theta, chain, k)
    few = Keypoints2D(kp.uv, np.array([True, True, True] + [False] * (chain.dof - 2)))
    with pytest.raises(InsufficientCorrespondencesError):
        initial_estimate(few, theta, chain, k)


def test_initial_estimate_checks_keypoint_count():
    chain = builtin_chain("panda7")
    k = _camera()
    kp = Keypoints2D(np.zeros((3, 2)), np.array([True] * 3))
    with pytest.raises(ValueError):
        initial_estimate(kp, np.zeros(chain.dof), chain, k)


def test_joint_points_drives_estimate_consistency():
    # the estimate's pose() maps FK points to camera space; at the true
    # configuration and true pose the reprojection must match the keypoints
    chain = builtin_chain("panda7")
    k = _camera()
    rng = np.random.default_rng(23)
    lo, hi = chain.limits()
    theta = rng.uniform(lo, hi)
    points = skeleton_keypoints(chain, theta)
    pose = look_at(np.array([2.2, 0.4, 0.0]), np.zeros(3))
    kp = project_keypoints(points, pose, k)
    if not (kp.visible[0] and kp.visible[1] and kp.visible.sum() >= 4):
        pytest.skip("sampled view does not satisfy the estimator preconditions")
    est = initial_estimate(kp, theta, chain, k)
    frames = forward_kinematics(chain, est.theta)
    pts = np.vstack([chain.base_frame.translation[None, :], [f.translation for f in frames]])
    uv = k.project(est.pose(k).apply(pts)[kp.visible])
    assert np.median(np.abs(uv - kp.uv[kp.visible])) < 5.0
