import hashlib
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
from armpose.silhouette import _camera_rows


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
# error on this path changes it.
GOLDEN_REFINE_SHA256 = "dd26db26dbe7d1d4a0913ad813b88eb42a9c7f4dc1d1caddd521698f8e898a4c"


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
# 60 probes, before any pattern move; this one covers the default search.
GOLDEN_REFINE_DEFAULT_SHA256 = "6d2df0e6403e5072d86ee77154783db60265ea09bd47ea7d133b841afb12c587"


def test_refine_golden_digest_at_the_default_search():
    chain, k, meshes, settings, mask, truth = _golden_scene()
    start = Estimate(
        np.clip(truth.theta + 0.1, *chain.limits()), truth.rotation, truth.scale * 1.1, truth.base_pixel
    )
    refined, trace = refine(start, mask, chain, meshes, k, RefinerConfig(), settings, ground_truth=truth)
    blob = json.dumps({"estimate": refined.to_json(), "trace": trace}, sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == GOLDEN_REFINE_DEFAULT_SHA256


def _reference_refine(start, observed, chain, meshes, k, cfg, settings):
    """The search refine makes, with every point rendered in full and no
    memo: (final theta, rotation, scale, [(evaluations, objective)] per
    iteration, pattern points accepted)."""
    clouds = sample_link_clouds(meshes, settings)
    lo, hi = chain.limits()

    def point(theta, r6, rotation, scale):
        frames = [chain.base_frame] + forward_kinematics(chain, theta)
        pose = RigidTransform(rotation, k.backproject(scale, start.base_pixel))
        value = 1.0 - silhouette_iou(render_link_clouds(clouds, frames, pose, k, settings), observed)
        return value, (theta, r6, rotation, scale)

    def step(x, kind, index, size):
        theta, r6, rotation, scale = x
        if kind == "theta":
            theta = theta.copy()
            theta[index] = np.clip(theta[index] + size, lo[index], hi[index])
        elif kind == "rot":
            r6 = r6.copy()
            r6[index] += size
            try:
                rotation = rot6d_to_matrix(r6)
            except ValueError:
                return None
        else:
            scale = scale * (1.0 + size)
        return point(theta, r6, rotation, scale)

    f, x = point(start.theta, matrix_to_rot6d(start.rotation), start.rotation, start.scale)
    rows, total, accepted = [], 0, 0
    for _ in range(cfg.iterations):
        sizes = {"theta": cfg.step_theta, "rot": cfg.step_rot, "scale": cfg.step_scale}
        used, budget = 0, cfg.inner_evals_per_iteration
        while used < budget:
            moved, base = False, x
            for kind, index in _PROBES:
                trials = []
                for direction in (1.0, -1.0):
                    probed = step(x, kind, index, direction * sizes[kind]) if used < budget else None
                    if probed is not None:
                        trials.append((probed[0], direction, probed[1]))
                        used += 1
                if trials and min(trials, key=lambda t: t[0])[0] < f:
                    f, direction, x = min(trials, key=lambda t: t[0])
                    moved = True
                    while used < budget:
                        probed = step(x, kind, index, direction * sizes[kind])
                        if probed is None:
                            break
                        used += 1
                        if probed[0] >= f:
                            break
                        f, x = probed
            if not moved:
                sizes = {kind: size * 0.5 for kind, size in sizes.items()}
            elif used < budget and 2.0 * x[3] - base[3] > 0.0:
                r6 = 2.0 * x[1] - base[1]
                try:
                    rotation = rot6d_to_matrix(r6)
                except ValueError:
                    continue
                value, p = point(np.clip(2.0 * x[0] - base[0], lo, hi), r6, rotation, 2.0 * x[3] - base[3])
                used += 1
                if value < f:
                    f, x, accepted = value, p, accepted + 1
        total += used
        rows.append((total, f))
    return x[0], x[2], x[3], rows, accepted


def test_refine_matches_a_from_scratch_reference_search():
    # criterion 9's scene 2 and start, at a sampling density where the
    # search accepts a pattern point
    chain, sampler = builtin_chain("panda7"), SamplerConfig()
    k, meshes, settings = sampler.intrinsics(), default_link_meshes(chain), RenderSettings(samples_per_link=200)
    scene, mask = build_scene(chain, sampler, 900, 2, meshes=meshes, render_settings=settings)
    rng = np.random.default_rng(np.random.SeedSequence((900, 2, 3)))
    theta = np.clip(scene.theta + 0.1 * rng.choice([-1.0, 1.0], size=chain.dof), *chain.limits())
    truth = Estimate.from_pose(scene.theta, scene.pose, k)
    start = Estimate(theta, truth.rotation, 1.1 * truth.scale, truth.base_pixel)
    cfg = RefinerConfig(iterations=2, inner_evals_per_iteration=120)
    refined, trace = refine(start, mask, chain, meshes, k, cfg, settings)
    theta, rotation, scale, rows, accepted = _reference_refine(start, mask, chain, meshes, k, cfg, settings)
    assert accepted > 0
    assert np.array_equal(refined.theta, theta) and np.array_equal(refined.rotation, rotation)
    assert refined.scale == scale
    assert [(row["evaluations"], row["objective"]) for row in trace[1:]] == rows


@pytest.mark.parametrize("case", ["golden", 0, 1, 2])
def test_refine_renders_each_point_once_and_never_accepts_a_revisit(monkeypatch, case):
    if case == "golden":  # the golden-digest scene and start, with the default budget
        chain, k, meshes, settings, mask, truth = _golden_scene()
        start_theta = np.clip(truth.theta + 0.1, *chain.limits())
    else:  # criterion 9's scenes and starts: theta +- 0.1 per joint, depth x 1.1
        chain = builtin_chain("panda7")
        sampler = SamplerConfig()
        k, meshes, settings = sampler.intrinsics(), default_link_meshes(chain), RenderSettings()
        scene, mask = build_scene(chain, sampler, 900, case, meshes=meshes, render_settings=settings)
        truth = Estimate.from_pose(scene.theta, scene.pose, k)
        rng = np.random.default_rng(np.random.SeedSequence((900, case, 3)))
        signs = rng.choice([-1.0, 1.0], size=chain.dof)
        start_theta = np.clip(truth.theta + 0.1 * signs, *chain.limits())
    start = Estimate(start_theta, truth.rotation, truth.scale * 1.1, truth.base_pixel)
    cfg = RefinerConfig()

    values, renders, probes, patterns = {}, [], [], []
    real_value, real_moved, real_build = _CachedObjective.value, _CachedObjective.moved, _CachedObjective.build

    def value(self, state):
        # the states are kept alive, so no two of them share an id
        values[id(state)] = (state, real_value(self, state))
        return values[id(state)][1]

    def render(real):
        def rendered(self, *args):
            renders.append(args)
            return real(self, *args)

        return rendered

    def counted(real, made):
        def probe(self, parent, *args):
            rendered = len(renders)
            probed = real(self, parent, *args)
            if probed is not None:  # a degenerate rotation or pattern point is no probe
                # the parent is the incumbent when the probe is made
                made.append((probed[0], values[id(parent)][1], len(renders) > rendered))
            return probed

        return probe

    monkeypatch.setattr(_CachedObjective, "value", value)
    monkeypatch.setattr(_CachedObjective, "moved", render(real_moved))
    monkeypatch.setattr(_CachedObjective, "build", render(real_build))
    monkeypatch.setattr(_CachedObjective, "probe", counted(_CachedObjective.probe, probes))
    monkeypatch.setattr(_CachedObjective, "pattern", counted(_CachedObjective.pattern, patterns))
    _, trace = refine(start, mask, chain, meshes, k, cfg, settings)

    # the start point is built before any probe; a pattern point is a probe,
    # and a render unless it revisits a point, like any other
    assert renders.pop(0)[0] is start.theta
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


def test_refine_skips_degenerate_rotation_probes_without_counting_them(monkeypatch):
    chain = builtin_chain("panda7")
    sampler = SamplerConfig()
    k, meshes, settings = sampler.intrinsics(), default_link_meshes(chain), RenderSettings(samples_per_link=50)
    scene, mask = build_scene(chain, sampler, seed=5, index=0, meshes=meshes, render_settings=settings)
    truth = Estimate.from_pose(scene.theta, scene.pose, k)
    # from the identity's code (1, 0, 0, 0, 1, 0), a unit step down of r6[0]
    # or r6[4] zeroes a column, which rot6d_to_matrix rejects
    start = Estimate(scene.theta, np.eye(3), truth.scale, truth.base_pixel)
    real_probe, probed = _CachedObjective.probe, []

    def probe(self, *args):
        probed.append(real_probe(self, *args))  # None for a degenerate step
        return probed[-1]

    monkeypatch.setattr(_CachedObjective, "probe", probe)
    cfg = RefinerConfig(iterations=1, inner_evals_per_iteration=40, step_rot=1.0)
    refined, trace = refine(start, mask, chain, meshes, k, cfg, settings)
    skipped = sum(p is None for p in probed)
    assert skipped == 2 and len(probed) - skipped == cfg.inner_evals_per_iteration
    assert trace[-1]["evaluations"] == cfg.inner_evals_per_iteration
    assert type(refined) is Estimate and refined.provenance == "refined(1)"


# ---------------------------------------------------------------------------
# cached objective


_PROBES = [("theta", i) for i in range(7)] + [("rot", i) for i in range(6)] + [("scale", 0)]


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
        settings = RenderSettings(samples_per_link=1)  # one-row theta suffixes
    elif case == "near_plane":
        scale *= 0.1
    elif case == "off_image":
        base_pixel = base_pixel + np.array([110.0, 0.0])

    rng = np.random.default_rng(sum(map(ord, case)))
    lo, hi = chain.limits()
    theta = np.clip(scene.theta + rng.uniform(-0.3, 0.3, chain.dof), lo, hi)
    r6 = matrix_to_rot6d(scene.pose.rotation) + rng.normal(0.0, 0.05, 6)
    rotation = rot6d_to_matrix(r6)
    cost = _CachedObjective(observed, chain, meshes, k, settings, base_pixel)
    _, rows = cost.start(theta, rotation, scale)
    if case == "near_plane":
        assert rows.front.any() and not rows.front.all()
    if case == "off_image":
        assert rows.pix[0].max() >= k.width + settings.splat_radius  # the clip branch runs
    assert cost.value(rows) == _full_render_objective(
        chain, meshes, settings, k, observed, theta, rotation, scale, base_pixel
    )

    # a one-row product misses the stack's bits in about half the draws on
    # some BLAS builds, so that case runs enough rounds to see it
    rounds = 12 if case == "one_sample" else 2
    for step, (kind, index) in enumerate(_PROBES * rounds):
        new_theta, new_r6, new_rotation, new_scale = theta, r6, rotation, scale
        if kind == "theta":
            new_theta = theta.copy()
            new_theta[index] = np.clip(theta[index] + rng.uniform(-0.2, 0.2), lo[index], hi[index])
        elif kind == "rot":
            new_r6 = r6.copy()
            new_r6[index] += rng.uniform(-0.05, 0.05)
            new_rotation = rot6d_to_matrix(new_r6)
        else:
            new_scale = scale * (1.0 + rng.uniform(-0.05, 0.05))
        names = ("world", "rotated", "pix", "front")
        before = [getattr(rows, name).copy() for name in names]
        moved = cost.moved(rows, kind, index, new_theta, new_rotation, new_r6, new_scale)
        want = _full_render_objective(
            chain, meshes, settings, k, observed, new_theta, new_rotation, new_scale, base_pixel
        )
        assert cost.value(moved) == want, (kind, index)
        # the parent's rows are untouched, and the probe's equal a fresh build
        assert all(np.array_equal(old, getattr(rows, name)) for old, name in zip(before, names))
        fresh = cost.build(new_theta, new_rotation, new_r6, new_scale)
        assert all(np.array_equal(getattr(moved, name), getattr(fresh, name)) for name in names)
        if step % 2 == 0:  # adopt the probe's rows, as an accepted move does
            theta, r6, rotation, scale, rows = new_theta, new_r6, new_rotation, new_scale, moved


@pytest.mark.parametrize("name", ["panda7", "planar2"])
def test_chain_frames_from_every_first_match_forward_kinematics(name):
    """A theta probe's frames come from its parent's: chain_frames keeps
    frames[:first + 1] and composes joints first.. with one memo shared
    across calls, as the cached objective does. Every frame has the bits
    forward_kinematics gives it, angles at a joint limit included, whether
    its DH local is composed or read from the memo."""
    chain = builtin_chain(name)
    lo, hi = chain.limits()
    rng = np.random.default_rng(4)
    memo = {}
    parent_theta = rng.uniform(lo, hi)
    parent = chain_frames(chain, parent_theta, memo=memo)
    kept = list(parent)
    for first in range(chain.dof):
        for bound in (lo, hi, None):
            theta = parent_theta.copy()
            theta[first:] = rng.uniform(lo, hi)[first:] if bound is None else bound[first:]
            want = [chain.base_frame] + forward_kinematics(chain, theta)
            for _ in range(2):  # the second walk reads every DH local from the memo
                got = chain_frames(chain, theta, parent, first, memo)
                assert len(got) == chain.dof + 1
                assert all(
                    np.array_equal(r, f.rotation) and np.array_equal(t, f.translation) for (r, t), f in zip(got, want)
                ), (first, bound is None)
                assert all(a is b for a, b in zip(got[: first + 1], parent))
    # the parent's list is left as it was
    assert len(parent) == len(kept) and all(a is b for a, b in zip(parent, kept))
    assert set(memo) >= {(i, parent_theta[i].tobytes()) for i in range(chain.dof)}


def test_camera_rotation_rows_match_the_full_product():
    """The BLAS property on (n, 3) rows: over a stack of two or more rows,
    W[s:e] @ R.T equals rows s:e of W @ R.T bit for bit. The cached
    objective relies on its column form, checked below."""
    rng = np.random.default_rng(9)
    for n in (2, 3, 8, 601, 4800):
        w = rng.normal(size=(n, 3))
        rot = _random_rotation(rng)
        full = w @ rot.T
        for s in sorted({0, 1, n // 3, n // 2, n - 2} - {n - 1}):
            assert np.array_equal(w[s:] @ rot.T, full[s:]), (n, s)
            assert np.array_equal(w[s : s + 2] @ rot.T, full[s : s + 2]), (n, s)


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
    base_r6 = x.r6 + np.linspace(-0.03, 0.03, 6)

    value, p = cost.pattern(x, base_theta, base_r6, 0.95 * scale)
    assert np.array_equal(p.theta, np.clip(2.0 * x.theta - base_theta, lo, hi)) and p.theta[0] == lo[0]
    assert np.array_equal(p.r6, 2.0 * x.r6 - base_r6)
    assert np.array_equal(p.rotation, rot6d_to_matrix(p.r6))
    assert p.scale == 2.0 * scale - 0.95 * scale
    assert value == _full_render_objective(
        chain, meshes, settings, k, observed, p.theta, p.rotation, p.scale, base_pixel
    )
    fresh = cost.build(p.theta, p.rotation, p.r6, p.scale)
    assert all(np.array_equal(getattr(p, name), getattr(fresh, name)) for name in ("world", "rotated", "pix", "front"))
    # a point evaluated before gives its stored value and no state
    assert cost.pattern(x, base_theta, base_r6, 0.95 * scale) == (value, None)
    # a scale that is not positive, or a degenerate 6D code, is no probe
    assert cost.pattern(x, base_theta, base_r6, 2.0 * scale) is None
    assert cost.pattern(x, base_theta, 2.0 * x.r6 - np.array([0.0, 0.0, 0.0, 1.0, 0.0, 0.0]), scale) is None


def test_camera_rows_of_a_stack_match_the_full_product():
    """The same BLAS property for the product the renderer and the cached
    objective both make, ``_camera_rows``, on (3, n) columns: any run of two
    or more columns has the bits of the full product's columns."""
    rng = np.random.default_rng(10)
    for n in (2, 3, 8, 601, 4800):
        w = rng.normal(size=(3, n))
        rot = _random_rotation(rng)
        full = _camera_rows(w, rot)
        for s in sorted({0, 1, n // 3, n // 2, n - 2} - {n - 1}):
            assert np.array_equal(_camera_rows(w[:, s:], rot), full[:, s:]), (n, s)
            assert np.array_equal(_camera_rows(w[:, s : s + 2], rot), full[:, s : s + 2]), (n, s)
