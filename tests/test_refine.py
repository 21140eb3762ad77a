import gc
import hashlib
import importlib
import itertools
import json
import math
import warnings

import numpy as np
import pytest

from armpose import (
    Estimate,
    RefinerConfig,
    RenderSettings,
    RigidTransform,
    add_metric,
    builtin_chain,
    config_loss,
    default_link_meshes,
    estimate_from_distances,
    forward_kinematics,
    joint_points,
    matrix_to_rot6d,
    pose_loss,
    refine,
    render_chain_silhouette,
    render_link_clouds,
    rot6d_to_matrix,
    rotation_geodesic,
    sample_link_clouds,
    silhouette_iou,
)
from armpose.datagen import SamplerConfig, build_scene, draw_scene
from armpose.kinematics import chain_frames
from armpose.distgeo import (
    TrainConfig,
    edm_from_configuration,
    init_regressor,
    keypoint_features,
    mlp_forward,
    train_gim,
)
from armpose.refine import _CachedObjective, _clip
from armpose.silhouette import pixel_centers


def _random_rotation(rng):
    a = rng.normal(size=3)
    a /= np.linalg.norm(a)
    b = rng.normal(size=3)
    b -= (b @ a) * a
    b /= np.linalg.norm(b)
    return np.stack([a, b, np.cross(a, b)], axis=1)


# ---------------------------------------------------------------------------
# 6D rotation parametrization


def test_rot6d_identity_encoding():
    assert np.max(np.abs(rot6d_to_matrix([1, 0, 0, 0, 1, 0]) - np.eye(3))) < 1e-15
    assert np.array_equal(matrix_to_rot6d(np.eye(3)), [1, 0, 0, 0, 1, 0])


def test_rot6d_round_trips():
    rng = np.random.default_rng(77)
    for _ in range(200):
        rot = _random_rotation(rng)
        back = rot6d_to_matrix(matrix_to_rot6d(rot))
        assert rotation_geodesic(rot, back) < 1e-12
        assert abs(np.linalg.det(back) - 1.0) < 1e-12
        assert np.max(np.abs(back @ back.T - np.eye(3))) < 1e-12


def test_rot6d_unnormalized_input_still_maps_to_rotation():
    r6 = np.array([2.0, 0.1, -0.3, 0.5, 3.0, 0.2])
    rot = rot6d_to_matrix(r6)
    assert np.max(np.abs(rot @ rot.T - np.eye(3))) < 1e-12
    assert abs(np.linalg.det(rot) - 1.0) < 1e-12


def test_rot6d_third_column_is_the_numpy_cross_product_bit_for_bit():
    rng = np.random.default_rng(2024)
    r6 = rng.normal(size=(12000, 6)) * rng.uniform(1e-3, 1e3, size=(12000, 1))
    rots = np.array([rot6d_to_matrix(v) for v in r6])
    assert np.array_equal(rots[:, :, 2], np.cross(rots[:, :, 0], rots[:, :, 1]))


def test_rot6d_columns_are_the_numpy_gram_schmidt_bit_for_bit():
    rng = np.random.default_rng(2025)
    for v in rng.normal(size=(3000, 6)) * rng.uniform(1e-3, 1e3, size=(3000, 1)):
        b1 = v[:3] / np.linalg.norm(v[:3])
        w = v[3:] - np.dot(b1, v[3:]) * b1
        rot = rot6d_to_matrix(v)
        assert np.array_equal(rot[:, 0], b1) and np.array_equal(rot[:, 1], w / np.linalg.norm(w))


def test_clip_is_np_clip_bit_for_bit():
    rng = np.random.default_rng(6)
    for lo, hi in [(-2.9, 2.9), (0.0, 1.0), (-0.0, 1.0), (-1.0, 0.0), (-1.0, -0.0)]:
        lo, hi = np.float64(lo), np.float64(hi)
        edges = [lo, hi, -0.0, 0.0, np.nextafter(lo, -9.0), np.nextafter(hi, 9.0)]
        for x in np.concatenate([rng.uniform(-3.0, 3.0, 500), edges]):
            assert _clip(x, lo, hi).tobytes() == np.clip(x, lo, hi).tobytes(), (x, lo, hi)


def test_rot6d_degenerate_raises():
    with pytest.raises(ValueError):
        rot6d_to_matrix([1, 0, 0, 2, 0, 0])  # parallel columns
    with pytest.raises(ValueError):
        rot6d_to_matrix([0, 0, 0, 1, 0, 0])


# ---------------------------------------------------------------------------
# estimates and updates


def _some_estimate():
    rng = np.random.default_rng(5)
    return Estimate(
        theta=rng.uniform(-1, 1, 7),
        rotation=_random_rotation(rng),
        scale=2.2,
        base_pixel=np.array([118.0, 104.0]),
    )


def test_estimate_validation():
    with pytest.raises(ValueError):
        Estimate(np.zeros(7), np.eye(3) * 2.0, 1.0, np.zeros(2))
    with pytest.raises(ValueError):
        Estimate(np.zeros(7), np.eye(3), -1.0, np.zeros(2))
    with pytest.raises(ValueError):
        Estimate(np.zeros(7), np.full((3, 3), np.nan), 2.0, np.zeros(2))
    with pytest.raises(ValueError):
        Estimate(np.zeros(7), np.eye(3), np.inf, np.zeros(2))
    with pytest.raises(ValueError):
        Estimate(np.zeros(7), np.eye(3), 2.0, np.array([np.nan, 1.0]))
    # non-finite angles are left for forward kinematics to reject
    assert np.all(np.isnan(Estimate(np.full(7, np.nan), np.eye(3), 2.0, np.zeros(2)).theta))


def test_estimate_pose_oracle():
    from armpose import CameraIntrinsics

    k = CameraIntrinsics(fx=260.0, fy=260.0, cx=112.0, cy=112.0, width=224, height=224)
    est = Estimate(np.zeros(7), np.eye(3), 2.0, np.array([112.0, 112.0]))
    pose = est.pose(k)
    # base pixel at the principal point puts the base straight ahead
    assert np.max(np.abs(pose.translation - [0.0, 0.0, 2.0])) < 1e-12
    est2 = Estimate(np.zeros(7), np.eye(3), 2.0, np.array([112.0 + 260.0, 112.0]))
    assert np.max(np.abs(est2.pose(k).translation - [2.0, 0.0, 2.0])) < 1e-12


def test_estimate_json_round_trip():
    est = _some_estimate()
    blob = est.to_json()
    assert set(blob) == {"theta", "rotation", "lambda", "p_base_pixel", "provenance"}
    assert len(blob["rotation"]) == 9  # row-major flat
    again = Estimate.from_json(json.loads(json.dumps(blob)))
    assert np.array_equal(again.theta, est.theta)
    assert np.array_equal(again.rotation, est.rotation)
    assert again.scale == est.scale
    assert np.array_equal(again.base_pixel, est.base_pixel)
    assert again.provenance == est.provenance


# ---------------------------------------------------------------------------
# losses


def test_config_loss_oracle():
    # sin/cos encoding of pi/2 vs 0 differs by 1 in each channel
    assert config_loss([math.pi / 2], [0.0]) == pytest.approx(2.0, abs=1e-12)
    assert config_loss([0.3, -0.7], [0.3, -0.7]) == 0.0


def test_config_loss_periodicity():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a = rng.uniform(-3, 3, 7)
        b = rng.uniform(-3, 3, 7)
        shifted = config_loss(a + 2.0 * math.pi, b)
        assert abs(shifted - config_loss(a, b)) < 1e-12


def test_pose_loss_zero_iff_equal():
    rng = np.random.default_rng(8)
    pts = rng.normal(size=(6, 3))
    pose = RigidTransform(_random_rotation(rng), rng.normal(size=3))
    assert pose_loss(pose, pose, pts) == 0.0
    for _ in range(50):
        other = RigidTransform(_random_rotation(rng), rng.normal(size=3))
        if rotation_geodesic(other.rotation, pose.rotation) < 1e-9 and np.max(
            np.abs(other.translation - pose.translation)
        ) < 1e-9:
            continue
        assert pose_loss(other, pose, pts) > 0.0


def test_pose_loss_translation_oracle():
    # pure translation offset d contributes n * |d|_1 through the trans term
    pts = np.random.default_rng(1).normal(size=(5, 3))
    rot = np.eye(3)
    gt = RigidTransform(rot, np.zeros(3))
    est = RigidTransform(rot, np.array([0.2, -0.1, 0.4]))
    assert pose_loss(est, gt, pts) == pytest.approx(5 * (0.2 + 0.1 + 0.4), abs=1e-12)


# ---------------------------------------------------------------------------
# refiner


def _scene_and_truth(seed=17, index=0):
    chain = builtin_chain("panda7")
    cfg = SamplerConfig()
    k = cfg.intrinsics()
    meshes = default_link_meshes(chain)
    settings = RenderSettings(samples_per_link=200, splat_radius=1, seed=0)
    scene, mask = build_scene(chain, cfg, seed=seed, index=index, meshes=meshes, render_settings=settings)
    truth = Estimate.from_pose(scene.theta, scene.pose, k, provenance="truth")
    return chain, k, meshes, settings, scene, mask, truth


def test_refiner_config_validation():
    with pytest.raises(ValueError, match="iterations must be at least 1, got 0"):
        RefinerConfig(iterations=0)
    with pytest.raises(ValueError, match="inner_evals_per_iteration must be at least 1, got 0"):
        RefinerConfig(inner_evals_per_iteration=0)


@pytest.mark.parametrize("field", ["iterations", "inner_evals_per_iteration"])
@pytest.mark.parametrize("value", [1.5, 2.5, 3.0, True, "2"])
def test_refiner_config_takes_integer_counts(field, value):
    with pytest.raises(ValueError, match=field):
        RefinerConfig(**{field: value})


@pytest.mark.parametrize("field", ["step_theta", "step_rot"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -0.05, True, "0.05"])
def test_refiner_config_rejects_bad_step_sizes(field, value):
    with pytest.raises(ValueError, match=field):
        RefinerConfig(**{field: value})
    RefinerConfig(**{field: 1e-3})


def test_refine_already_optimal_returns_unchanged():
    chain, k, meshes, settings, scene, mask, truth = _scene_and_truth()
    observed = render_chain_silhouette(chain, truth.theta, meshes, truth.pose(k), k, settings)
    cfg = RefinerConfig(iterations=2, inner_evals_per_iteration=40)
    refined, trace = refine(truth, observed, chain, meshes, k, cfg, settings)
    assert np.array_equal(refined.theta, truth.theta)
    assert np.array_equal(refined.rotation, truth.rotation)
    assert refined.scale == truth.scale
    assert all(row["objective"] == 0.0 for row in trace)


def test_refine_trace_contract():
    chain, k, meshes, settings, scene, mask, truth = _scene_and_truth()
    start = Estimate(
        np.clip(truth.theta + 0.12, *chain.limits()),
        truth.rotation,
        truth.scale * 1.08,
        truth.base_pixel,
    )
    cfg = RefinerConfig(iterations=3, inner_evals_per_iteration=60)
    refined, trace = refine(start, mask, chain, meshes, k, cfg, settings, ground_truth=truth)
    assert len(trace) == cfg.iterations + 1  # baseline row plus one per iteration
    objs = [row["objective"] for row in trace]
    assert all(b <= a + 1e-15 for a, b in zip(objs, objs[1:]))  # best-so-far
    assert trace[0]["evaluations"] == 0
    assert trace[-1]["evaluations"] <= cfg.iterations * cfg.inner_evals_per_iteration
    assert all("point_error" in row for row in trace)
    assert refined.provenance == "refined(3)"


def test_refine_improves_a_perturbed_start():
    chain, k, meshes, settings, scene, mask, truth = _scene_and_truth(seed=23, index=1)
    rng = np.random.default_rng(0)
    start = Estimate(
        np.clip(truth.theta + 0.1 * rng.choice([-1.0, 1.0], chain.dof), *chain.limits()),
        truth.rotation,
        truth.scale * 1.1,
        truth.base_pixel,
    )
    cfg = RefinerConfig(iterations=2, inner_evals_per_iteration=120)
    refined, trace = refine(start, mask, chain, meshes, k, cfg, settings)
    add0 = add_metric(scene.pose, scene.theta, start.pose(k), start.theta, chain)
    add1 = add_metric(scene.pose, scene.theta, refined.pose(k), refined.theta, chain)
    assert add1 < add0
    assert trace[-1]["objective"] < trace[0]["objective"]


def test_refine_checks_mask_shape():
    chain, k, meshes, settings, scene, mask, truth = _scene_and_truth()
    with pytest.raises(ValueError):
        refine(truth, mask[:100], chain, meshes, k, RefinerConfig(), settings)


def test_refine_checks_its_meshes():
    chain, k, meshes, settings, scene, mask, truth = _scene_and_truth()
    with pytest.raises(ValueError, match="need one mesh per link: got 7 meshes for 8 links"):
        refine(truth, mask, chain, meshes[:-1], k, RefinerConfig(), settings)
    with pytest.raises(ValueError, match="link 0 needs a Mesh, got None"):
        refine(truth, mask, chain, [None] * len(meshes), k, RefinerConfig(), settings)


# sha256 of one fixed short refinement, recorded from the pre-optimization
# code (per-compose validated FK, full-image splat, Estimate per candidate,
# every evaluation rendered from scratch). It guards the speed-ups since:
# unchecked FK, the crop-and-dilate splat, count-based IoU, and the cached
# objective that recomputes only the rows a probe moves and scores the splat
# window. A speed-up that flips a mask pixel, an accepted move or a tracked
# error on this path changes it. Re-recorded when the rotation probes became
# turns about three base-frame axes in place of steps of the 6D code, and
# again when a sweep stopped riding an improving step (one probe up and one
# down per coordinate) and a pattern point kept the incumbent's rotation bits
# after a sweep without a turn; _reference_refine takes the same path.
GOLDEN_REFINE_SHA256 = "d126fc68359bb18b55f49b171aaad22e639da228915b9e7a43085b04ecec71fd"


def _golden_scene():
    """Chain, camera, meshes, render settings, observed mask and truth of the
    golden refinement's scene."""
    chain = builtin_chain("panda7")
    cfg = SamplerConfig()
    k = cfg.intrinsics()
    meshes = default_link_meshes(chain)
    settings = RenderSettings(samples_per_link=300)
    scene, mask = build_scene(chain, cfg, seed=5, index=3, meshes=meshes, render_settings=settings)
    truth = Estimate.from_pose(scene.theta, scene.pose, k, provenance="truth")
    return chain, k, meshes, settings, mask, truth


def _criterion_9_case(index, settings=None):
    """Chain, camera, meshes, render settings, observed mask and start of
    criterion 9's scene index: theta +- 0.1 per joint, depth x 1.1."""
    chain, sampler = builtin_chain("panda7"), SamplerConfig()
    k, meshes, settings = sampler.intrinsics(), default_link_meshes(chain), settings or RenderSettings()
    scene, mask = build_scene(chain, sampler, 900, index, meshes=meshes, render_settings=settings)
    rng = np.random.default_rng(np.random.SeedSequence((900, index, 3)))
    theta = np.clip(scene.theta + 0.1 * rng.choice([-1.0, 1.0], size=chain.dof), *chain.limits())
    truth = Estimate.from_pose(scene.theta, scene.pose, k)
    return chain, k, meshes, settings, mask, Estimate(theta, truth.rotation, 1.1 * truth.scale, truth.base_pixel)


def test_refine_golden_digest():
    chain, k, meshes, settings, mask, truth = _golden_scene()
    start = Estimate(
        np.clip(truth.theta + 0.1, *chain.limits()), truth.rotation, truth.scale * 1.1, truth.base_pixel
    )
    refine_cfg = RefinerConfig(iterations=1, inner_evals_per_iteration=60)
    refined, trace = refine(start, mask, chain, meshes, k, refine_cfg, settings, ground_truth=truth)
    blob = json.dumps({"estimate": refined.to_json(), "trace": trace}, sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == GOLDEN_REFINE_SHA256


# sha256 of _golden_scene refined from the same start at the default
# RefinerConfig (one 250-probe iteration with pattern moves), recorded
# before the render rows became (3, n) columns. The digest above stops after
# 60 probes, two pattern points in; this one covers the default search.
# Re-recorded with the digest above, both times for the same reasons.
GOLDEN_REFINE_DEFAULT_SHA256 = "8f38bd7a185c92c9d2e93d3c7b0d0efd18b9996c918712076659c253e13be5a2"


def test_refine_golden_digest_at_the_default_search():
    chain, k, meshes, settings, mask, truth = _golden_scene()
    start = Estimate(
        np.clip(truth.theta + 0.1, *chain.limits()), truth.rotation, truth.scale * 1.1, truth.base_pixel
    )
    refined, trace = refine(start, mask, chain, meshes, k, RefinerConfig(), settings, ground_truth=truth)
    blob = json.dumps({"estimate": refined.to_json(), "trace": trace}, sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == GOLDEN_REFINE_DEFAULT_SHA256


def _turn(axis, angle):
    """The rotation by angle radians about base-frame axis e_axis, written
    out per axis."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array(
        [
            [[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]],
            [[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]],
            [[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]],
        ][axis]
    )


def _reference_refine(start, observed, chain, meshes, k, cfg, settings):
    """The search refine makes, with every point rendered in full and no
    memo: (final theta, rotation, scale, [(evaluations, objective)] per
    iteration, pattern points accepted)."""
    clouds = sample_link_clouds(meshes, settings)
    lo, hi = chain.limits()

    def point(theta, rotation, scale):
        frames = [chain.base_frame] + forward_kinematics(chain, theta)
        pose = RigidTransform(rotation, k.backproject(scale, start.base_pixel))
        value = 1.0 - silhouette_iou(render_link_clouds(clouds, frames, pose, k, settings), observed)
        return value, (theta, rotation, scale)

    def step(x, field, index, size):
        theta, rotation, scale = x
        if field == "step_theta":
            theta = theta.copy()
            theta[index] = np.clip(theta[index] + size, lo[index], hi[index])
        elif field == "step_rot":
            rotation = rotation @ _turn(index, size)
        else:
            scale = scale * (1.0 + size)
        return point(theta, rotation, scale)

    f, x = point(start.theta, start.rotation, start.scale)
    rows, total, accepted = [], 0, 0
    for _ in range(cfg.iterations):
        sizes = {field: getattr(cfg, field) for field in ("step_theta", "step_rot", "step_scale")}
        used, budget = 0, cfg.inner_evals_per_iteration
        while used < budget:
            moved, turned, base = False, False, x
            for field, index in _PROBES:
                trials = []
                for direction in (1.0, -1.0):
                    if used < budget:
                        trials.append(step(x, field, index, direction * sizes[field]))
                        used += 1
                if trials and min(trials, key=lambda t: t[0])[0] < f:
                    f, x = min(trials, key=lambda t: t[0])
                    moved, turned = True, turned or field == "step_rot"
            if not moved:
                sizes = {field: size * 0.5 for field, size in sizes.items()}
            elif used < budget and 2.0 * x[2] - base[2] > 0.0:
                theta = np.clip(2.0 * x[0] - base[0], lo, hi)
                rotation = x[1] @ base[1].T @ x[1] if turned else x[1]
                value, p = point(theta, rotation, 2.0 * x[2] - base[2])
                used += 1
                if value < f:
                    f, x, accepted = value, p, accepted + 1
        total += used
        rows.append((total, f))
    return *x, rows, accepted


def test_refine_matches_a_from_scratch_reference_search():
    # criterion 9's scene 2 and start, at a sampling density where the
    # search accepts a pattern point
    chain, k, meshes, settings, mask, start = _criterion_9_case(2, RenderSettings(samples_per_link=200))
    cfg = RefinerConfig(iterations=2, inner_evals_per_iteration=120)
    refined, trace = refine(start, mask, chain, meshes, k, cfg, settings)
    theta, rotation, scale, rows, accepted = _reference_refine(start, mask, chain, meshes, k, cfg, settings)
    assert accepted > 0 and not np.array_equal(rotation, start.rotation)
    assert np.array_equal(refined.theta, theta) and np.array_equal(refined.rotation, rotation)
    assert refined.scale == scale
    assert [(row["evaluations"], row["objective"]) for row in trace[1:]] == rows


@pytest.mark.parametrize("case", ["golden", 0, 1, 2])
def test_refine_renders_each_point_once_and_never_accepts_a_revisit(monkeypatch, case):
    if case == "golden":  # the golden-digest scene and start, with the default budget
        chain, k, meshes, settings, mask, truth = _golden_scene()
        start_theta = np.clip(truth.theta + 0.1, *chain.limits())
        start = Estimate(start_theta, truth.rotation, truth.scale * 1.1, truth.base_pixel)
    else:
        chain, k, meshes, settings, mask, start = _criterion_9_case(case)
    cfg = RefinerConfig()

    values, renders, probes, patterns = {}, [], [], []
    real_value = _CachedObjective.value

    def value(self, state):
        # one render per call; the states are kept alive, so no two share an id
        renders.append(state)
        values[id(state)] = (state, real_value(self, state))
        return values[id(state)][1]

    def counted(real, made):
        def probe(self, parent, *args):
            rendered = len(renders)
            probed = real(self, parent, *args)
            if probed is not None:  # a pattern point of non-positive scale is no probe
                # the parent is the incumbent when the probe is made
                made.append((probed[0], values[id(parent)][1], len(renders) > rendered))
            return probed

        return probe

    monkeypatch.setattr(_CachedObjective, "value", value)
    monkeypatch.setattr(_CachedObjective, "probe", counted(_CachedObjective.probe, probes))
    monkeypatch.setattr(_CachedObjective, "pattern", counted(_CachedObjective.pattern, patterns))
    _, trace = refine(start, mask, chain, meshes, k, cfg, settings)

    # the start point is rendered before any probe; a pattern point is a
    # probe, and a render unless it revisits a point, like any other
    assert renders.pop(0).theta is start.theta
    assert patterns
    probes += patterns
    hits = [(stored, incumbent) for stored, incumbent, rendered in probes if not rendered]
    assert len(renders) < len(probes) and len(renders) + len(hits) == len(probes)
    assert all(stored >= incumbent for stored, incumbent in hits)
    # every probe counts against the budget, a revisit included
    budget = cfg.inner_evals_per_iteration
    assert [row["evaluations"] for row in trace] == [i * budget for i in range(cfg.iterations + 1)]
    assert len(probes) == trace[-1]["evaluations"]


# sha256 of the estimate rows `armpose estimate` writes for ten fixed scenes,
# made here by the call it makes, estimate_from_distances, on the oracle path
# (true distances and anchors) and on the honest path (a regressor trained 30
# steps on 40 scenes, dropout off at inference). It covers MDS, alignment,
# the IK, EPnP and the scale; a change that moves a bit of an initial
# estimate changes it and has to say why.
GOLDEN_INIT_SHA256 = "e0eb38d5e8dc2ddd71763e5eb501137767dafb4a23fc576c7aff49ccac91fa92"


def _unrendered_scenes(chain, cfg, seed, count):
    """The scenes build_scene draws for (seed, 0..count-1), without their masks."""
    return [draw_scene(chain, cfg, seed, index) for index in range(count)]


def test_init_golden_digest():
    chain = builtin_chain("panda7")
    cfg = SamplerConfig()
    k = cfg.intrinsics()
    train = [
        (keypoint_features(s.keypoints, k.width, k.height), edm_from_configuration(chain, s.theta))
        for s in _unrendered_scenes(chain, cfg, seed=11, count=40)
    ]
    net = init_regressor(2 * (chain.dof + 1), chain.dof * (2 * chain.dof - 1), seed=0)
    net, _, _ = train_gim(net, train, TrainConfig(steps=30, warmup_steps=5))
    rows = []
    for oracle in (True, False):
        for scene in _unrendered_scenes(chain, cfg, seed=12, count=10):
            if oracle:
                d, targets = edm_from_configuration(chain, scene.theta), joint_points(chain, scene.theta)
            else:
                d, targets = mlp_forward(net, keypoint_features(scene.keypoints, k.width, k.height)), None
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                est = estimate_from_distances(scene.keypoints, d, chain, k, targets)
            rows.append({"index": scene.index, **est.to_json()})
    blob = json.dumps(rows, sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == GOLDEN_INIT_SHA256


def test_a_sweep_probes_each_coordinate_once_up_and_once_down(monkeypatch):
    chain, k, meshes, settings, mask, start = _criterion_9_case(0)
    real_probe, probed = _CachedObjective.probe, []

    def probe(self, state, coord, step):
        probed.append((coord, step))
        return real_probe(self, state, coord, step)

    monkeypatch.setattr(_CachedObjective, "probe", probe)
    refine(start, mask, chain, meshes, k, RefinerConfig(), settings)
    # an improving step is taken once, never ridden along its coordinate
    runs = [[step for _, step in run] for _, run in itertools.groupby(probed, key=lambda p: p[0])]
    assert max(map(len, runs)) == 2
    assert all(run == [run[0], -run[0]] for run in runs if len(run) == 2)


def test_a_pattern_point_after_a_sweep_without_a_turn_keeps_the_rotation_bits(monkeypatch):
    chain, k, meshes, settings, mask, start = _criterion_9_case(0)
    real_pattern, kept = _CachedObjective.pattern, []

    def pattern(self, state, theta, rotation, scale):
        probed = real_pattern(self, state, theta, rotation, scale)
        # a sweep that moved only theta or the scale ends on its start's rotation
        if np.array_equal(rotation, state.rotation) and probed is not None and probed[1] is not None:
            kept.append(np.array_equal(probed[1].rotation, state.rotation))
        return probed

    monkeypatch.setattr(_CachedObjective, "pattern", pattern)
    refine(start, mask, chain, meshes, k, RefinerConfig(), settings)
    assert kept and all(kept)


def test_refine_returns_a_validated_estimate():
    chain, k, meshes, settings, scene, mask, truth = _scene_and_truth(seed=23, index=1)
    start = Estimate(truth.theta, truth.rotation, truth.scale * 1.05, truth.base_pixel)
    cfg = RefinerConfig(iterations=1, inner_evals_per_iteration=40)
    refined, _ = refine(start, mask, chain, meshes, k, cfg, settings)
    assert type(refined) is Estimate
    rot = refined.rotation
    assert np.max(np.abs(rot @ rot.T - np.eye(3))) <= 1e-9 and abs(np.linalg.det(rot) - 1.0) <= 1e-9
    assert refined.scale > 0.0
    for arr in (refined.theta, refined.rotation, refined.base_pixel):
        assert not arr.flags.writeable
    # a start whose configuration is not finite is still rejected
    bad = Estimate(np.full(chain.dof, np.nan), truth.rotation, truth.scale, truth.base_pixel)
    with pytest.raises(ValueError):
        refine(bad, mask, chain, meshes, k, cfg, settings)


def test_refine_counts_every_rotation_probe_from_the_identity(monkeypatch):
    chain = builtin_chain("panda7")
    sampler = SamplerConfig()
    k, meshes, settings = sampler.intrinsics(), default_link_meshes(chain), RenderSettings(samples_per_link=50)
    scene, mask = build_scene(chain, sampler, seed=5, index=0, meshes=meshes, render_settings=settings)
    truth = Estimate.from_pose(scene.theta, scene.pose, k)
    # a turn of one radian from the identity is a rotation like any other:
    # every probe and pattern point is evaluated and counted against the budget
    start = Estimate(scene.theta, np.eye(3), truth.scale, truth.base_pixel)
    probed = []

    def recorded(real):
        def probe(self, *args):
            probed.append(real(self, *args))
            return probed[-1]

        return probe

    monkeypatch.setattr(_CachedObjective, "probe", recorded(_CachedObjective.probe))
    monkeypatch.setattr(_CachedObjective, "pattern", recorded(_CachedObjective.pattern))
    cfg = RefinerConfig(iterations=1, inner_evals_per_iteration=40, step_rot=1.0)
    refined, trace = refine(start, mask, chain, meshes, k, cfg, settings)
    assert all(p is not None and p[1] is not None for p in probed)
    assert len(probed) == cfg.inner_evals_per_iteration
    assert trace[-1]["evaluations"] == cfg.inner_evals_per_iteration
    assert type(refined) is Estimate and refined.provenance == "refined(1)"


def test_refine_frees_its_objective_without_the_cycle_collector():
    # the objective holds the link clouds and the memo; a reference cycle
    # through it would keep them alive until a collection, and a run of
    # many refines would hold several at once
    chain, k, meshes, settings, scene, mask, truth = _scene_and_truth()
    gc.disable()
    try:
        refine(truth, mask, chain, meshes, k, RefinerConfig(inner_evals_per_iteration=20), settings)
        assert not any(isinstance(obj, _CachedObjective) for obj in gc.get_objects())
    finally:
        gc.enable()


def test_refined_rotation_stays_orthonormal():
    # criterion 9's scene 0 and start, refined for 3 x 250 probes: the
    # rotation is a product of steps, never re-orthonormalized
    chain, k, meshes, settings, mask, start = _criterion_9_case(0)
    refined, _ = refine(start, mask, chain, meshes, k, RefinerConfig(iterations=3), settings)
    rot = refined.rotation
    assert not np.array_equal(rot, start.rotation)
    assert np.max(np.abs(rot.T @ rot - np.eye(3))) <= 1e-12 and abs(np.linalg.det(rot) - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# cached objective


# the search coordinates in sweep order, as (RefinerConfig step field, index):
# panda7's seven joints, the three base-frame rotation axes, the scale
_PROBES = [("step_theta", i) for i in range(7)] + [("step_rot", i) for i in range(3)] + [("step_scale", 0)]


def _full_render_objective(chain, meshes, settings, k, observed, theta, rotation, scale, base_pixel):
    clouds = sample_link_clouds(meshes, settings)
    frames = [chain.base_frame] + forward_kinematics(chain, theta)
    pose = RigidTransform(rotation, k.backproject(scale, base_pixel))
    return 1.0 - silhouette_iou(render_link_clouds(clouds, frames, pose, k, settings), observed)


@pytest.mark.parametrize(
    "case", ["default", "splat_radius_0", "near_plane", "off_image", "one_sample"]
)
def test_cached_objective_equals_full_render_for_every_probe(case):
    chain = builtin_chain("panda7")
    cfg = SamplerConfig()
    k = cfg.intrinsics()
    scene, observed = build_scene(
        chain, cfg, seed=11, index=0, meshes=default_link_meshes(chain), render_settings=RenderSettings()
    )
    meshes = default_link_meshes(chain)
    settings = RenderSettings()
    truth = Estimate.from_pose(scene.theta, scene.pose, k)
    scale, base_pixel = truth.scale, truth.base_pixel
    if case == "splat_radius_0":
        settings = RenderSettings(splat_radius=0)
    elif case == "one_sample":
        settings = RenderSettings(samples_per_link=1)  # one column per link
    elif case == "near_plane":
        scale *= 0.1
    elif case == "off_image":
        base_pixel = base_pixel + np.array([110.0, 0.0])

    rng = np.random.default_rng(sum(map(ord, case)))
    lo, hi = chain.limits()
    theta = np.clip(scene.theta + rng.uniform(-0.3, 0.3, chain.dof), lo, hi)
    rotation = scene.pose.rotation @ _turn(0, 0.04) @ _turn(1, -0.03) @ _turn(2, 0.05)
    cost = _CachedObjective(observed, chain, meshes, k, settings, base_pixel)
    assert [(coord.step, coord.index) for coord in cost.coords] == _PROBES
    _, state = cost.start(theta, rotation, scale)
    pix, front = pixel_centers(rotation @ state.world, scale * cost.ray, k)
    if case == "near_plane":
        assert front.any() and not front.all()
    if case == "off_image":
        assert pix[0].max() >= k.width + settings.splat_radius  # the clip branch runs
    assert cost.value(state) == _full_render_objective(
        chain, meshes, settings, k, observed, theta, rotation, scale, base_pixel
    )

    spread = {"step_theta": 0.2, "step_rot": 0.05, "step_scale": 0.05}
    for step, coord in enumerate(cost.coords * 2):
        size = rng.uniform(-1.0, 1.0) * spread[coord.step]
        new_theta, new_rotation, new_scale, world = coord.point(cost, state, coord.index, size)
        if coord.step == "step_rot":  # the closed-form turn about base-frame axis i
            assert np.array_equal(new_rotation, rotation @ _turn(coord.index, size))
        # a theta probe poses the clouds afresh; any other keeps its parent's
        assert world is None if coord.step == "step_theta" else world is state.world
        before = state.world.copy()
        value, probed = cost.probe(state, coord, size)
        want = _full_render_objective(
            chain, meshes, settings, k, observed, new_theta, new_rotation, new_scale, base_pixel
        )
        assert value == want, coord[:2]
        # the parent's world is untouched, and the probe's is its theta's pose
        assert np.array_equal(state.world, before)
        if probed is None:  # a theta step clipped back onto a point evaluated before
            continue
        assert np.array_equal(probed.world, cost.clouds.pose(chain_frames(chain, new_theta)))
        if step % 2 == 0:  # adopt the probe, as an accepted move does
            theta, rotation, scale, state = new_theta, new_rotation, new_scale, probed


def test_every_render_rotates_all_columns(monkeypatch):
    """The objective renders every evaluated point in full: each pixel-center
    call of a refine, at the start, a probe or a pattern point, takes all n
    camera-rotated columns of the posed link clouds."""
    chain, k, meshes, settings, scene, mask, truth = _scene_and_truth()
    theta = np.clip(truth.theta + 0.1, *chain.limits())
    start = Estimate(theta, truth.rotation, truth.scale * 1.1, truth.base_pixel)
    n = (chain.dof + 1) * settings.samples_per_link
    widths = []

    def centers(rotated, t, k):
        widths.append(rotated.shape)
        return pixel_centers(rotated, t, k)

    # the module, which the package's refine function shadows as an attribute
    monkeypatch.setattr(importlib.import_module("armpose.refine"), "pixel_centers", centers)
    refine(start, mask, chain, meshes, k, RefinerConfig(inner_evals_per_iteration=60), settings)
    assert len(widths) > 1 and set(widths) == {(3, n)}


@pytest.mark.parametrize("name", ["panda7", "planar2"])
def test_chain_frames_through_a_shared_memo_match_forward_kinematics(name):
    """chain_frames composes the joints with one memo of DH locals shared
    across calls, as the cached objective does. Every frame has the bits
    forward_kinematics gives it, angles at a joint limit included, whether
    its DH local is composed or read from the memo."""
    chain = builtin_chain(name)
    lo, hi = chain.limits()
    rng = np.random.default_rng(4)
    memo = {}
    first_theta = rng.uniform(lo, hi)
    chain_frames(chain, first_theta, memo)
    for changed in range(chain.dof):
        for bound in (lo, hi, None):
            # joints changed.. move, so the walk mixes stored and new locals
            theta = first_theta.copy()
            theta[changed:] = rng.uniform(lo, hi)[changed:] if bound is None else bound[changed:]
            want = [chain.base_frame] + forward_kinematics(chain, theta)
            for _ in range(2):  # the second walk reads every DH local from the memo
                got = chain_frames(chain, theta, memo)
                assert len(got) == chain.dof + 1
                assert all(
                    np.array_equal(r, f.rotation) and np.array_equal(t, f.translation) for (r, t), f in zip(got, want)
                ), (changed, bound is None)
    assert set(memo) >= {(i, first_theta[i].tobytes()) for i in range(chain.dof)}


def test_pattern_point_is_the_sweep_move_repeated_and_scores_as_a_full_render():
    chain = builtin_chain("panda7")
    cfg = SamplerConfig()
    k, meshes, settings = cfg.intrinsics(), default_link_meshes(chain), RenderSettings()
    scene, observed = build_scene(chain, cfg, seed=11, index=0, meshes=meshes, render_settings=settings)
    truth = Estimate.from_pose(scene.theta, scene.pose, k)
    scale, base_pixel = truth.scale, truth.base_pixel
    lo, hi = chain.limits()
    cost = _CachedObjective(observed, chain, meshes, k, settings, base_pixel)
    _, x = cost.start(np.clip(scene.theta + 0.05, lo, hi), scene.pose.rotation, scale)
    base_theta = x.theta - 0.02
    base_theta[0] = lo[0] + 2.0 * (x.theta[0] - lo[0]) + 0.01  # its reflection lies below the limit
    base_rotation = x.rotation @ _turn(0, 0.03) @ _turn(2, -0.02)

    value, p = cost.pattern(x, base_theta, base_rotation, 0.95 * scale)
    assert np.array_equal(p.theta, np.clip(2.0 * x.theta - base_theta, lo, hi)) and p.theta[0] == lo[0]
    # the sweep's net turn R_b^T R_x, applied to R_x once more
    assert np.array_equal(p.rotation, x.rotation @ base_rotation.T @ x.rotation)
    assert rotation_geodesic(p.rotation, x.rotation) == pytest.approx(rotation_geodesic(x.rotation, base_rotation))
    assert p.scale == 2.0 * scale - 0.95 * scale
    assert value == _full_render_objective(
        chain, meshes, settings, k, observed, p.theta, p.rotation, p.scale, base_pixel
    )
    assert np.array_equal(p.world, cost.clouds.pose(chain_frames(chain, p.theta)))
    # a point evaluated before gives its stored value and no state
    assert cost.pattern(x, base_theta, base_rotation, 0.95 * scale) == (value, None)
    # a scale that is not positive is no probe
    assert cost.pattern(x, base_theta, base_rotation, 2.0 * scale) is None

