import json
import math

import numpy as np
import pytest

from armpose import poseinit
from armpose import (
    CameraIntrinsics,
    Estimate,
    InsufficientCorrespondencesError,
    Keypoints2D,
    PnpDegenerateError,
    RigidTransform,
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
)
from armpose.silhouette import pixel_centers


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
    uv = k.project(pt.T)[0].T
    assert uv[0, 0] == pytest.approx(260.0 * 0.2 / 2.0 + 112.0, abs=1e-12)
    assert uv[0, 1] == pytest.approx(260.0 * (-0.1) / 2.0 + 112.0, abs=1e-12)


def test_backproject_inverts_projection():
    k = _camera()
    pt = np.array([0.4, -0.3, 2.2])
    uv = k.project(pt)[0]
    back = k.backproject(2.2, uv)
    assert np.max(np.abs(back - pt)) < 1e-12


def test_intrinsics_matrix_and_json_round_trip():
    k = _camera()
    m = np.array([[k.fx, 0.0, k.cx], [0.0, k.fy, k.cy], [0.0, 0.0, 1.0]])
    pt = np.array([0.4, -0.3, 2.2])
    assert np.max(np.abs((m @ pt)[:2] / pt[2] - k.project(pt)[0])) < 1e-12
    again = CameraIntrinsics.from_json(k.to_json())
    assert again == k


@pytest.mark.parametrize("field", ["fx", "fy", "cx", "cy"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_intrinsics_reject_non_finite_values(field, value):
    fields = {"fx": 260.0, "fy": 260.0, "cx": 112.0, "cy": 112.0, "width": 224, "height": 224}
    with pytest.raises(ValueError, match="must be finite"):
        CameraIntrinsics(**{**fields, field: value})


@pytest.mark.parametrize("field", ["fx", "fy", "cx", "cy"])
@pytest.mark.parametrize("value", [True, False])
def test_intrinsics_refuse_booleans(field, value):
    fields = {"fx": 260.0, "fy": 260.0, "cx": 112.0, "cy": 112.0, "width": 224, "height": 224}
    with pytest.raises(ValueError, match=f"{field} must be a finite number, got {str(value).lower()}"):
        CameraIntrinsics(**{**fields, field: value})


@pytest.mark.parametrize("field", ["width", "height"])
@pytest.mark.parametrize("value", [224.5, 224.0, True, 0, -3, "224"])
def test_intrinsics_take_integer_image_sizes(field, value):
    fields = {"fx": 260.0, "fy": 260.0, "cx": 112.0, "cy": 112.0, "width": 224, "height": 224}
    with pytest.raises(ValueError, match=field):
        CameraIntrinsics(**{**fields, field: value})


@pytest.mark.parametrize("field", ["fx", "fy", "cx", "cy"])
@pytest.mark.parametrize("value", ["260", None, [260.0]])
def test_intrinsics_refuse_non_numbers_with_a_value_error(field, value):
    fields = {"fx": 260.0, "fy": 260.0, "cx": 112.0, "cy": 112.0, "width": 224, "height": 224}
    with pytest.raises(ValueError, match=f"must be finite: {field} must be a finite number"):
        CameraIntrinsics(**{**fields, field: value})


def test_project_takes_coordinates_on_the_first_axis():
    k = _camera()
    rng = np.random.default_rng(7)
    cam = rng.uniform(-0.5, 0.5, size=(3, 4, 5))
    cam[2] += 2.0
    pix, front = k.project(cam)
    assert pix.shape == (2, 4, 5) and front.shape == (4, 5) and front.all()
    for i, j in np.ndindex(4, 5):
        x, y, z = cam[:, i, j]
        assert pix[0, i, j] == (260.0 * x) / z + 112.0 and pix[1, i, j] == (260.0 * y) / z + 112.0
        one, ahead = k.project(cam[:, i, j])
        assert one.shape == (2,) and ahead and np.array_equal(one, pix[:, i, j])
    # a point not in front is projected from depth 1 and flagged
    pix, front = k.project(np.array([[0.5, 0.2], [0.1, -0.3], [-2.0, 2.0]]))
    assert front.tolist() == [False, True]
    assert pix[:, 0].tolist() == [260.0 * 0.5 + 112.0, 260.0 * 0.1 + 112.0]


def test_one_near_plane_rule_for_render_keypoints_and_epnp():
    """A point at half the near-plane depth is behind the camera for the
    renderer's pixel centers, keypoint visibility and EPnP scoring alike; one
    at twice that depth is in front for all three."""
    k = _camera()
    near = poseinit.NEAR_PLANE
    # on the optical axis, so a point in front lands on the principal point
    cam = np.array([[0.1, -0.2, 0.0, 0.0, 0.3], [0.2, 0.1, 0.0, 0.0, -0.1], [2.0, 2.5, near / 2, 2 * near, 3.0]])
    want = [True, True, False, True, True]
    pix, front = pixel_centers(cam, np.zeros(3), k)
    assert front.tolist() == want and pix[:, 2].tolist() == [0, 0]
    assert project_keypoints(cam.T, RigidTransform(), k).visible.tolist() == want
    uv = k.project(cam)[0].T
    errs, behind = poseinit._reprojection_errors(np.eye(3)[None], np.zeros((1, 3)), cam.T, uv, k)
    assert behind.tolist() == [1] and errs[0] == 1e6 / 5


def test_keypoints_round_trip():
    kp = Keypoints2D(np.array([[1.5, 2.5], [3.0, 4.0]]), np.array([True, False]))
    items = kp.to_json()
    assert items == {"uv": [[1.5, 2.5], [3.0, 4.0]], "visible": [True, False]}
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
        uv = k.project(cam.T)[0].T
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
        uv = k.project((flat @ rot.T + tra).T)[0].T
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
        uv = k.project((pts3d @ rot.T + tra).T)[0].T + rng.normal(0.0, 2.0, size=(8, 2))
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
    ua = k.project(a)[0]
    ub = k.project(b)[0]
    lam = scale_factor(ua, ub, float(np.linalg.norm(a - b)), k)
    assert lam == pytest.approx(depth, abs=1e-9)


def test_scale_factor_overestimates_foreshortened_link():
    k = _camera()
    a = np.array([0.1, 0.0, 2.0])
    b = np.array([0.3, 0.0, 2.6])  # receding link
    ua = k.project(a)[0]
    ub = k.project(b)[0]
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
        t = k.backproject(lam, pix)
        assert t[2] == pytest.approx(lam, abs=1e-12)
        uv = k.project(t)[0]
        assert np.max(np.abs(uv - pix)) < 1e-9
        assert np.array_equal(Estimate(np.zeros(7), np.eye(3), lam, pix).pose(k).translation, t)
    # a non-positive scale never reaches the back-projection
    with pytest.raises(ValueError):
        Estimate(np.zeros(7), np.eye(3), -1.0, [0.0, 0.0])


def test_from_pose_rejects_a_base_not_past_the_near_plane():
    # project gives a base at or before the near plane the pixel of depth 1,
    # which is no estimate of that pose
    k = _camera()
    for z in (5e-7, poseinit.NEAR_PLANE, 0.0, -1.0):
        with pytest.raises(ValueError, match="near plane"):
            Estimate.from_pose(np.zeros(7), RigidTransform(np.eye(3), [0.1, -0.05, z]), k)
    pose = RigidTransform(np.eye(3), [0.1, -0.05, 2.0 * poseinit.NEAR_PLANE])
    est = Estimate.from_pose(np.zeros(7), pose, k)
    assert est.scale == pose.translation[2]
    assert np.allclose(est.pose(k).translation, pose.translation, rtol=1e-9, atol=0.0)


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
    uv = k.project(est.pose(k).apply(pts)[kp.visible].T)[0].T
    assert np.median(np.abs(uv - kp.uv[kp.visible])) < 5.0


# ---------------------------------------------------------------------------
# EPnP against the loop-built, per-seed reference solver


def _ref_build_m(alphas, uv, k):
    j, nc = alphas.shape
    m = np.zeros((2 * j, 3 * nc))
    for i in range(j):
        u, v = uv[i]
        for c in range(nc):
            a = alphas[i, c]
            m[2 * i, 3 * c] = a * k.fx
            m[2 * i, 3 * c + 2] = a * (k.cx - u)
            m[2 * i + 1, 3 * c + 1] = a * k.fy
            m[2 * i + 1, 3 * c + 2] = a * (k.cy - v)
    return m


def _ref_pairs(nc):
    return [(a, b) for a in range(nc) for b in range(a + 1, nc)]


def _ref_rho(ctrl):
    return np.array([float(np.sum((ctrl[a] - ctrl[b]) ** 2)) for a, b in _ref_pairs(len(ctrl))])


def _ref_kernel_pair_diffs(kernel, nc):
    diffs = []
    for col in range(kernel.shape[1]):
        pts = kernel[:, col].reshape(nc, 3)
        diffs.append(np.array([pts[a] - pts[b] for a, b in _ref_pairs(nc)]))
    return diffs


def _ref_solve_betas(kernel, nc, rho, count):
    diffs = _ref_kernel_pair_diffs(kernel, nc)
    npairs = len(rho)
    if count == 1:
        s = diffs[0]
        norms2 = np.einsum("ij,ij->i", s, s)
        dists = np.sqrt(rho)
        return np.array([float(np.sum(np.sqrt(norms2) * dists) / np.sum(norms2))])
    if count == 2:
        cols = np.zeros((npairs, 3))
        cols[:, 0] = np.einsum("ij,ij->i", diffs[0], diffs[0])
        cols[:, 1] = 2.0 * np.einsum("ij,ij->i", diffs[0], diffs[1])
        cols[:, 2] = np.einsum("ij,ij->i", diffs[1], diffs[1])
        sol, *_ = np.linalg.lstsq(cols, rho, rcond=None)
        b1 = math.sqrt(abs(sol[0]))
        b2 = math.sqrt(abs(sol[2]))
        if sol[1] < 0:
            b2 = -b2
        return np.array([b1, b2])
    cols = np.zeros((npairs, 6))
    cols[:, 0] = np.einsum("ij,ij->i", diffs[0], diffs[0])
    cols[:, 1] = 2.0 * np.einsum("ij,ij->i", diffs[0], diffs[1])
    cols[:, 2] = np.einsum("ij,ij->i", diffs[1], diffs[1])
    cols[:, 3] = 2.0 * np.einsum("ij,ij->i", diffs[0], diffs[2])
    cols[:, 4] = 2.0 * np.einsum("ij,ij->i", diffs[1], diffs[2])
    cols[:, 5] = np.einsum("ij,ij->i", diffs[2], diffs[2])
    sol, *_ = np.linalg.lstsq(cols, rho, rcond=None)
    b1 = math.sqrt(abs(sol[0]))
    b2 = math.sqrt(abs(sol[2])) * (1.0 if sol[1] >= 0 else -1.0)
    b3 = math.sqrt(abs(sol[5])) * (1.0 if sol[3] >= 0 else -1.0)
    return np.array([b1, b2, b3])


def _ref_gauss_newton_betas(kernel, nc, rho, betas, iterations=10):
    diffs = _ref_kernel_pair_diffs(kernel, nc)
    betas = betas.copy()
    nb = betas.shape[0]
    for _ in range(iterations):
        combo = sum(betas[k] * diffs[k] for k in range(nb))
        resid = np.einsum("ij,ij->i", combo, combo) - rho
        jac = np.zeros((len(rho), nb))
        for k in range(nb):
            jac[:, k] = 2.0 * np.einsum("ij,ij->i", combo, diffs[k])
        step, *_ = np.linalg.lstsq(jac, -resid, rcond=None)
        betas = betas + step
    return betas


def _ref_kernel(pts3d, uv, k):
    """Control points, barycentric weights, kernel and rho, as the solver builds them."""
    ctrl, planar = poseinit._control_points(pts3d)
    nc = ctrl.shape[0]
    alphas = poseinit._barycentric(pts3d, ctrl)
    m = _ref_build_m(alphas, uv, k)
    _, evecs = np.linalg.eigh(m.T @ m)
    return ctrl, nc, alphas, evecs[:, : (3 if planar else 4)], _ref_rho(ctrl), planar


def _ref_polished_betas(pts3d, uv, k):
    """Per-seed lstsq Gauss-Newton betas, one row per seed count."""
    _, nc, _, kernel, rho, planar = _ref_kernel(pts3d, uv, k)
    rows = []
    for count in (1, 2) if planar else (1, 2, 3):
        betas = np.zeros(kernel.shape[1])
        betas[:count] = _ref_solve_betas(kernel, nc, rho, count)
        rows.append(_ref_gauss_newton_betas(kernel, nc, rho, betas))
    return np.array(rows)


def _ref_epnp(pts3d, uv, k):
    """The per-seed solver: rotation, translation and error of the winning seed."""
    _, nc, alphas, kernel, rho, planar = _ref_kernel(pts3d, uv, k)
    best = None
    for betas in _ref_polished_betas(pts3d, uv, k):
        ctrl_cam = sum(betas[c] * kernel[:, c].reshape(nc, 3) for c in range(betas.shape[0]))
        pts_cam = alphas @ ctrl_cam
        if np.sum(pts_cam[:, 2] < 0.0) > pts_cam.shape[0] // 2:
            pts_cam = -pts_cam
        src, dst = pts3d - pts3d.mean(axis=0), pts_cam - pts_cam.mean(axis=0)
        u, _, vt = np.linalg.svd(src.T @ dst)
        sign = np.sign(np.linalg.det(vt.T @ u.T)) or 1.0
        rot = vt.T @ np.diag([1.0, 1.0, sign]) @ u.T
        tra = pts_cam.mean(axis=0) - rot @ pts3d.mean(axis=0)
        cam = pts3d @ rot.T + tra
        behind = cam[:, 2] <= poseinit.NEAR_PLANE
        cam[behind, 2] = 1.0
        err = float(np.mean(np.where(behind, 1e6, np.linalg.norm(k.project(cam.T)[0].T - uv, axis=1))))
        if best is None or err < best[0]:
            best = (err, rot, tra)
    return best


def _epnp_inputs(count=200, seed=900):
    """Well-conditioned scenes in front of the camera, one in four coplanar,
    with 0.5 px pixel noise. Six or more points keep M's null space at most
    one-dimensional, so its kernel basis does not swing with the last bit."""
    k = _camera()
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        pts3d = rng.uniform(-0.5, 0.5, size=(int(rng.integers(6, 10)), 3))
        if i % 4 == 0:
            pts3d[:, 2] = 0.0
        rot = _random_rotation(rng)
        tra = np.array([rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2), rng.uniform(2.0, 3.5)])
        uv = k.project((pts3d @ rot.T + tra).T)[0].T + rng.normal(0.0, 0.5, size=(pts3d.shape[0], 2))
        out.append((pts3d, uv))
    return k, out


def test_epnp_setup_matches_loop_oracle_bitwise():
    k, inputs = _epnp_inputs(count=60)
    for pts3d, uv in inputs:
        ctrl, nc, alphas, kernel, rho, _ = _ref_kernel(pts3d, uv, k)
        assert np.array_equal(poseinit._build_m(alphas, uv, k), _ref_build_m(alphas, uv, k))
        assert np.array_equal(poseinit._rho(ctrl), rho)
        diffs = poseinit._kernel_pair_diffs(kernel, nc)
        ref_diffs = _ref_kernel_pair_diffs(kernel, nc)
        assert np.array_equal(diffs, np.stack(ref_diffs))
        gram = poseinit._pair_gram(diffs)
        for a, b in np.ndindex(gram.shape[0], gram.shape[2]):
            assert np.array_equal(gram[a, :, b], np.einsum("ij,ij->i", ref_diffs[a], ref_diffs[b]))
        for count in range(1, kernel.shape[1]):
            seed = poseinit._solve_betas(gram, rho, count)
            assert np.array_equal(seed, _ref_solve_betas(kernel, nc, rho, count))


def test_batched_gauss_newton_matches_per_seed_lstsq():
    k, inputs = _epnp_inputs()
    planar_seen = 0
    for pts3d, uv in inputs:
        _, nc, _, kernel, rho, planar = _ref_kernel(pts3d, uv, k)
        planar_seen += planar
        counts = (1, 2) if planar else (1, 2, 3)
        seeds = np.zeros((len(counts), kernel.shape[1]))
        for s, count in enumerate(counts):
            seeds[s, :count] = _ref_solve_betas(kernel, nc, rho, count)
        gram = poseinit._pair_gram(poseinit._kernel_pair_diffs(kernel, nc))
        got = poseinit._gauss_newton_betas(gram, rho, seeds)
        want = _ref_polished_betas(pts3d, uv, k)
        assert got.shape == want.shape
        scale = np.max(np.abs(want), axis=1)
        assert np.all(np.max(np.abs(got - want), axis=1) <= 1e-9 * scale)
    assert planar_seen == 50


def test_epnp_matches_per_seed_oracle():
    k, inputs = _epnp_inputs()
    for pts3d, uv in inputs:
        pose, err = epnp(pts3d, uv, k)
        want_err, want_rot, want_tra = _ref_epnp(pts3d, uv, k)
        assert rotation_geodesic(pose.rotation, want_rot) < 1e-9
        assert np.max(np.abs(pose.translation - want_tra)) < 1e-9
        assert err == pytest.approx(want_err, rel=1e-9)


def test_gauss_newton_singular_system_takes_the_lstsq_step():
    # zero betas make the Jacobian zero: lstsq's minimum-norm step is zero,
    # and the batched solve must give the same instead of raising
    k, inputs = _epnp_inputs(count=1)
    pts3d, uv = inputs[0]
    _, nc, _, kernel, rho, _ = _ref_kernel(pts3d, uv, k)
    zero = np.zeros((2, kernel.shape[1]))
    gram = poseinit._pair_gram(poseinit._kernel_pair_diffs(kernel, nc))
    got = poseinit._gauss_newton_betas(gram, rho, zero)
    assert np.array_equal(got, _ref_gauss_newton_betas(kernel, nc, rho, zero[0])[None].repeat(2, 0))
