import json
import math

import numpy as np
import pytest

from armpose import (
    DatasetFormatError,
    Keypoints2D,
    RenderSettings,
    SamplerConfig,
    Scene,
    SceneGenerationError,
    builtin_chain,
    build_scene,
    default_link_meshes,
    draw_scene,
    forward_kinematics,
    load_scene_mask,
    look_at,
    perturb_keypoints,
    project_keypoints,
    read_dataset,
    sample_link_clouds,
    sample_scene,
    skeleton_keypoints,
    write_dataset,
)


def test_sampler_config_validation_and_round_trip():
    cfg = SamplerConfig()
    again = SamplerConfig.from_json(cfg.to_json())
    assert again == cfg
    with pytest.raises(ValueError):
        SamplerConfig(distance=(3.0, 1.0))
    with pytest.raises(ValueError):
        SamplerConfig(distance=(0.0, 1.0))
    with pytest.raises(ValueError):
        SamplerConfig(noise_std=-1.0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("distance", (math.nan, math.nan)),
        ("distance", (1.8, math.inf)),
        ("elevation", (math.nan, 0.3)),
        ("azimuth", (-math.inf, 0.0)),
        ("focal", math.inf),
        ("focal", math.nan),
        ("focal", 0.0),
        ("noise_std", math.nan),
        ("noise_std", math.inf),
        ("focal", True),
        ("noise_std", True),
        ("noise_std", False),
    ],
)
def test_sampler_config_rejects_non_finite_values(field, value):
    with pytest.raises(ValueError, match=field):
        SamplerConfig(**{field: value})


@pytest.mark.parametrize(
    "field, value",
    [
        ("image_width", True),
        ("image_height", False),
        ("image_width", 224.0),
        ("image_height", "224"),
        ("image_width", 0),
        ("distance", (True, 2.0)),
        ("elevation", (0.1, True)),
        ("azimuth", ("a", 1.0)),
        ("azimuth", (None, 1.0)),
        ("distance", (1.8, 2.0, 3.0)),
        ("elevation", 0.3),
    ],
)
def test_sampler_config_refuses_wrongly_typed_fields(field, value):
    with pytest.raises(ValueError, match=field):
        SamplerConfig(**{field: value})


def test_look_at_geometry():
    cam = np.array([2.0, 0.0, 0.5])
    target = np.zeros(3)
    pose = look_at(cam, target)
    rot = pose.rotation
    assert np.max(np.abs(rot @ rot.T - np.eye(3))) < 1e-12
    assert np.linalg.det(rot) == pytest.approx(1.0, abs=1e-12)
    # the camera maps to the origin of camera space
    assert np.max(np.abs(pose.apply(cam))) < 1e-12
    # the target sits straight ahead on the +z axis
    t_cam = pose.apply(target)
    assert abs(t_cam[0]) < 1e-12 and abs(t_cam[1]) < 1e-12
    assert t_cam[2] == pytest.approx(np.linalg.norm(cam - target))
    with pytest.raises(ValueError):
        look_at(np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError):
        look_at(np.array([0.0, 0.0, 2.0]), np.zeros(3))  # view parallel to up


def test_look_at_is_the_numpy_cross_and_norm_form_bit_for_bit():
    rng = np.random.default_rng(2026)
    n = 4000
    cams = rng.normal(size=(n, 3)) * rng.uniform(1e-2, 1e2, size=(n, 1))
    targets = rng.normal(size=(n, 3)) * rng.uniform(1e-2, 1e2, size=(n, 1))
    ups = [(0.0, 0.0, 1.0)] * (n // 2) + rng.normal(size=(n - n // 2, 3)).tolist()
    for cam, target, up in zip(cams, targets, ups):
        z = target - cam
        z = z / np.linalg.norm(z)
        x = np.cross(z, up)
        x = x / np.linalg.norm(x)
        rot = np.vstack([x, np.cross(z, x), z])
        pose = look_at(cam, target, up)
        assert np.array_equal(pose.rotation, rot) and np.array_equal(pose.translation, -rot @ cam)


def test_scenes_compute_no_cross_product(monkeypatch):
    # meshes keep their area tables and look_at forms its cross products
    # from floats, so once the meshes exist no scene calls np.cross
    chain = builtin_chain("panda7")
    meshes = default_link_meshes(chain)
    cross, calls = np.cross, []
    monkeypatch.setattr(np, "cross", lambda *args, **kwargs: calls.append(1) or cross(*args, **kwargs))
    for index in range(3):
        build_scene(chain, SamplerConfig(), 0, index, meshes, RenderSettings())
    sample_link_clouds(meshes, RenderSettings())
    assert len(calls) == 0


def test_skeleton_keypoints_layout():
    chain = builtin_chain("panda7")
    theta = np.zeros(chain.dof)
    pts = skeleton_keypoints(chain, theta)
    assert pts.shape == (chain.dof + 1, 3)
    assert np.array_equal(pts[0], chain.base_frame.translation)
    frames = forward_kinematics(chain, theta)
    for i, frame in enumerate(frames):
        assert np.max(np.abs(pts[i + 1] - frame.translation)) < 1e-12


def test_project_keypoints_visibility():
    cfg = SamplerConfig()
    k = cfg.intrinsics()
    pose = look_at(np.array([0.0, -2.0, 0.3]), np.array([0.0, 0.0, 0.3]))
    pts = np.array(
        [
            [0.0, 0.0, 0.3],     # straight ahead, visible
            [0.0, 0.0, 10.0],    # far above: projects off-image
            [0.0, -3.0, 0.3],    # behind the camera
        ]
    )
    kp = project_keypoints(pts, pose, k)
    assert kp.visible.tolist() == [True, False, False]
    assert kp.uv[0, 0] == pytest.approx(k.cx, abs=1e-9)
    assert kp.uv[0, 1] == pytest.approx(k.cy, abs=1e-9)


def test_perturb_keypoints_stats_and_determinism():
    n = 100000
    kp = Keypoints2D(np.full((n, 2), 100.0), np.ones(n, dtype=bool))
    noisy = perturb_keypoints(kp, math.sqrt(30.0), seed=5)
    offsets = noisy.uv - kp.uv
    var = offsets.var(axis=0)
    assert np.all(np.abs(var - 30.0) < 0.03 * 30.0)
    assert np.all(np.abs(offsets.mean(axis=0)) < 3.0 * math.sqrt(30.0 / n))
    corr = np.corrcoef(offsets[:, 0], offsets[:, 1])[0, 1]
    assert abs(corr) < 0.02
    again = perturb_keypoints(kp, math.sqrt(30.0), seed=5)
    assert np.array_equal(again.uv, noisy.uv)
    same = perturb_keypoints(kp, 0.0, seed=5)
    assert np.array_equal(same.uv, kp.uv)
    assert np.array_equal(noisy.visible, kp.visible)


def test_sample_scene_deterministic_and_in_limits():
    chain = builtin_chain("panda7")
    cfg = SamplerConfig()
    lo, hi = chain.limits()
    theta_a, pose_a, kp_a = sample_scene(chain, cfg, seed=3, index=5)
    theta_b, pose_b, kp_b = sample_scene(chain, cfg, seed=3, index=5)
    assert np.array_equal(theta_a, theta_b)
    assert np.array_equal(pose_a.rotation, pose_b.rotation)
    assert np.array_equal(pose_a.translation, pose_b.translation)
    assert np.array_equal(kp_a.uv, kp_b.uv)
    assert np.all(theta_a >= lo) and np.all(theta_a <= hi)
    assert kp_a.visible[0] and kp_a.visible[1] and kp_a.visible.sum() >= 4
    theta_c, _, _ = sample_scene(chain, cfg, seed=3, index=6)
    assert not np.array_equal(theta_a, theta_c)


def test_sample_scene_visible_keypoints_in_frame():
    chain = builtin_chain("panda7")
    cfg = SamplerConfig()
    for index in range(10):
        _, _, kp = sample_scene(chain, cfg, seed=11, index=index)
        uv = kp.uv[kp.visible]
        assert np.all(uv[:, 0] >= 0) and np.all(uv[:, 0] <= cfg.image_width - 1)
        assert np.all(uv[:, 1] >= 0) and np.all(uv[:, 1] <= cfg.image_height - 1)


def test_sample_scene_gives_up_when_nothing_is_visible():
    chain = builtin_chain("panda7")
    # a huge focal on a tiny image leaves the off-axis joints outside the
    # frame every attempt
    cfg = SamplerConfig(image_width=8, image_height=8, focal=5000.0)
    with pytest.raises(SceneGenerationError):
        sample_scene(chain, cfg, seed=0, index=0)


def test_build_scene_reprojection_residual():
    chain = builtin_chain("panda7")
    cfg = SamplerConfig()
    k = cfg.intrinsics()
    meshes = default_link_meshes(chain)
    settings = RenderSettings(samples_per_link=100, splat_radius=1, seed=0)
    scene, mask = build_scene(chain, cfg, seed=2, index=0, meshes=meshes, render_settings=settings)
    pts = skeleton_keypoints(chain, scene.theta)
    uv = k.project(scene.pose.apply(pts).T)[0].T
    vis = scene.keypoints_true.visible
    assert np.max(np.abs(uv[vis] - scene.keypoints_true.uv[vis])) < 1e-9
    # noisy channel differs unless noise_std is zero
    assert not np.array_equal(scene.keypoints.uv, scene.keypoints_true.uv)
    assert mask.shape == (cfg.image_height, cfg.image_width)
    assert mask.any()


def test_draw_scene_is_the_scene_build_scene_renders():
    chain = builtin_chain("panda7")
    cfg = SamplerConfig()
    settings = RenderSettings(samples_per_link=20, splat_radius=1, seed=0)
    for index in range(3):
        scene, _ = build_scene(chain, cfg, 6, index, default_link_meshes(chain), settings)
        drawn = draw_scene(chain, cfg, 6, index)
        assert drawn.to_json() == scene.to_json()
        assert not np.array_equal(drawn.keypoints.uv, drawn.keypoints_true.uv)


def test_scene_json_round_trip():
    chain = builtin_chain("panda7")
    cfg = SamplerConfig()
    meshes = default_link_meshes(chain)
    settings = RenderSettings(samples_per_link=80, splat_radius=1, seed=0)
    scene, _ = build_scene(chain, cfg, seed=4, index=3, meshes=meshes, render_settings=settings)
    blob = scene.to_json()
    assert list(blob.keys()) == [
        "index",
        "theta",
        "rotation",
        "translation",
        "keypoints",
        "keypoints_true",
        "silhouette",
    ]
    again = Scene.from_json(blob)
    assert again.index == scene.index
    assert np.array_equal(again.theta, scene.theta)
    assert np.array_equal(again.pose.rotation, scene.pose.rotation)
    assert np.array_equal(again.pose.translation, scene.pose.translation)
    assert np.array_equal(again.keypoints.uv, scene.keypoints.uv)


def _scenes(chain, cfg, count, seed, settings):
    meshes = default_link_meshes(chain)
    return zip(*(build_scene(chain, cfg, seed, index, meshes, settings) for index in range(count)))


def test_dataset_round_trip_bitwise(tmp_path):
    chain = builtin_chain("panda7")
    cfg = SamplerConfig()
    settings = RenderSettings(samples_per_link=80, splat_radius=1, seed=0)
    scenes, masks = _scenes(chain, cfg, 4, 9, settings)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    write_dataset(out_a, chain, cfg, scenes, masks)
    chain2, k2, cfg2, scenes2 = read_dataset(out_a)
    assert cfg2 == cfg
    assert chain2.name == chain.name
    masks2 = [load_scene_mask(out_a, s, k2) for s in scenes2]
    write_dataset(out_b, chain2, cfg2, scenes2, masks2)
    for name in ["chain.json", "camera.json", "sampler.json", "scenes.jsonl"]:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    for s in scenes:
        rel = s.silhouette
        assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes()


def test_read_dataset_reports_bad_line(tmp_path):
    """A second scene row that does not parse, repeats the first row's index,
    or does not fit the chain is reported with its file and line."""
    chain = builtin_chain("panda7")
    cfg = SamplerConfig()
    settings = RenderSettings(samples_per_link=60, splat_radius=1, seed=0)
    scenes, masks = _scenes(chain, cfg, 2, 1, settings)
    out = tmp_path / "d"
    write_dataset(out, chain, cfg, scenes, masks)
    path = out / "scenes.jsonl"
    good = path.read_text(encoding="utf-8").splitlines()
    second = json.loads(good[1])
    bad_rows = [
        good[1][: len(good[1]) // 2],
        json.dumps({**second, "index": 0}),
        json.dumps({**second, "theta": second["theta"][:6]}),
        json.dumps({**second, "keypoints": second["keypoints"][:7]}),
    ]
    for bad in bad_rows:
        path.write_text("\n".join([good[0], bad]) + "\n", encoding="utf-8")
        with pytest.raises(DatasetFormatError, match=r"scenes\.jsonl:2:"):
            read_dataset(out)
