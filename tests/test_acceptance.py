"""Release gates. One test per numbered criterion; each prints a PASS line
with the measured numbers after its assertions hold.

Criteria 9 and 10 share a 100-scene refinement sweep that takes a couple of
minutes; everything else is seconds.
"""

import math
import time
import warnings

import numpy as np
import pytest

from armpose import (
    CameraIntrinsics,
    Estimate,
    Mesh,
    PnpDegenerateError,
    RefinerConfig,
    RenderSettings,
    RigidTransform,
    SamplerConfig,
    TrainConfig,
    add_metric,
    align_points,
    auc,
    build_scene,
    builtin_chain,
    config_loss,
    configuration_from_points,
    default_link_meshes,
    draw_scene,
    edm_from_configuration,
    edm_from_points,
    epnp,
    estimate_from_distances,
    forward_kinematics,
    gram_from_edm,
    init_regressor,
    silhouette_iou,
    joint_points,
    keypoint_features,
    look_at,
    matrix_to_rot6d,
    mlp_forward,
    points_from_gram,
    pose_loss,
    project_keypoints,
    refine,
    regressor_widths,
    render_chain_silhouette,
    render_silhouette,
    rot6d_to_matrix,
    rotation_geodesic,
    sample_surface,
    scale_factor,
    skeleton_keypoints,
    train_gim,
)
from armpose.distgeo import _batch_loss_and_gradients


def _random_rotation(rng):
    a = rng.normal(size=3)
    a /= np.linalg.norm(a)
    b = rng.normal(size=3)
    b -= (b @ a) * a
    b /= np.linalg.norm(b)
    return np.stack([a, b, np.cross(a, b)], axis=1)


def _camera():
    return CameraIntrinsics(fx=260.0, fy=260.0, cx=112.0, cy=112.0, width=224, height=224)


# ---------------------------------------------------------------------------
# criterion 1: distance-geometry round trip


def test_criterion_01_gim_round_trip():
    chain = builtin_chain("panda7")
    lo, hi = chain.limits()
    rng = np.random.default_rng(12345)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        theta = rng.uniform(lo, hi)
        d = edm_from_configuration(chain, theta)
        cloud = points_from_gram(gram_from_edm(d))
        aligned = align_points(cloud, chain, joint_points(chain, theta))
        recovered = configuration_from_points(chain, aligned)
        worst = max(worst, float(np.max(np.abs(recovered - theta))))
    elapsed = time.perf_counter() - start
    assert worst < 1e-6
    assert elapsed < 10.0
    print(f"criterion 1 PASS: 100 round trips, worst joint error {worst:.2e} rad, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion 2: regressor gradients vs central differences


def _one_sample(net, x, target):
    """One sample's loss and gradients from the training kernel, as a batch of one."""
    losses, gw, gb = _batch_loss_and_gradients(net, x[None], target[None], None)
    return losses[0], gw, gb


def test_criterion_02_mlp_gradient_check():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    h = 1e-5
    worst_guarded = 0.0
    worst_strict = 0.0
    checked = 0
    for trial in range(10):
        m = 4 if trial % 2 == 0 else 14
        inp = 6 if m == 4 else 16
        net = init_regressor(inp, m * (m - 1) // 2, hidden=(12, 11), dropout_rate=0.0, seed=trial)
        x = rng.uniform(0, 1, inp)
        target = edm_from_points(rng.normal(size=(m, 3)))
        _, gw, gb = _one_sample(net, x, target)
        for s in range(3):
            for arr, grad in [(net.weights[s], gw[s]), (net.biases[s], gb[s])]:
                it = np.nditer(arr, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    orig = arr[idx]
                    arr[idx] = orig + h
                    hi_val = _one_sample(net, x, target)[0]
                    arr[idx] = orig - h
                    lo_val = _one_sample(net, x, target)[0]
                    arr[idx] = orig
                    fd = (hi_val - lo_val) / (2 * h)
                    g = grad[idx]
                    checked += 1
                    # round-off in the loss difference caps finite-difference
                    # accuracy near 1e-9 absolute, so tiny gradients are held
                    # to the guarded ratio and the rest to the strict one
                    worst_guarded = max(worst_guarded, abs(g - fd) / max(1.0, abs(g), abs(fd)))
                    if abs(fd) > 1e-3:
                        worst_strict = max(worst_strict, abs(g - fd) / abs(fd))
    elapsed = time.perf_counter() - start
    assert worst_guarded < 1e-4
    assert worst_strict < 1e-4
    assert elapsed < 30.0
    print(
        f"criterion 2 PASS: {checked} parameters over 10 nets, worst relative error "
        f"{max(worst_guarded, worst_strict):.2e}, {elapsed:.1f}s"
    )


# ---------------------------------------------------------------------------
# criterion 3: EPnP exactness


def test_criterion_03_epnp_exactness():
    k = _camera()
    rng = np.random.default_rng(333)
    start = time.perf_counter()
    worst_rot = 0.0
    worst_tra = 0.0
    for _ in range(100):
        pts = rng.uniform(-0.5, 0.5, size=(8, 3))
        rot = _random_rotation(rng)
        tra = np.array([rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2), rng.uniform(2.0, 3.5)])
        uv = k.project((pts @ rot.T + tra).T)[0].T
        pose, _ = epnp(pts, uv, k)
        worst_rot = max(worst_rot, rotation_geodesic(pose.rotation, rot))
        worst_tra = max(worst_tra, float(np.max(np.abs(pose.translation - tra))))
    elapsed = time.perf_counter() - start
    assert worst_rot < 1e-6
    assert worst_tra < 1e-6
    assert elapsed < 5.0
    print(
        f"criterion 3 PASS: 100 scenes, worst rotation {worst_rot:.2e} rad, "
        f"worst translation {worst_tra:.2e} m, {elapsed:.2f}s"
    )


# ---------------------------------------------------------------------------
# criterion 4: single-link scale and back-projection


def test_criterion_04_scale_and_backprojection():
    k = _camera()
    rng = np.random.default_rng(4)
    worst_scale = 0.0
    for _ in range(50):
        depth = rng.uniform(0.8, 4.0)
        a = np.array([rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3), depth])
        b = a + np.array([rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3), 0.0])
        lam = scale_factor(
            k.project(a)[0], k.project(b)[0], float(np.linalg.norm(a - b)), k
        )
        worst_scale = max(worst_scale, abs(lam - depth))
    worst_pix = 0.0
    for _ in range(50):
        pix = rng.uniform(0, 223, size=2)
        t = k.backproject(rng.uniform(0.5, 5.0), pix)
        uv = np.array([k.fx * t[0] / t[2] + k.cx, k.fy * t[1] / t[2] + k.cy])
        worst_pix = max(worst_pix, float(np.max(np.abs(uv - pix))))
    assert worst_scale < 1e-9
    assert worst_pix < 1e-12
    print(
        f"criterion 4 PASS: fronto-parallel scale error {worst_scale:.2e} m, "
        f"base pixel error {worst_pix:.2e} px"
    )


# ---------------------------------------------------------------------------
# criterion 5: loss contracts


def test_criterion_05_loss_contracts():
    rng = np.random.default_rng(77)
    worst_period = 0.0
    for trial in range(1000):
        a = rng.uniform(-np.pi, np.pi, 7)
        # draw the shifted joint from (pi, 3pi) and subtract 2pi, which is
        # exact (Sterbenz), so adding 2pi back reconstructs the draw bit for
        # bit and the probe itself carries no rounding; the other joints stay
        # bit-identical so their terms cancel exactly instead of inflating the
        # sum past where 1e-15 is below one ulp
        j = trial % 7
        b = a.copy()
        b[j] = rng.uniform(np.pi, 3 * np.pi) - 2.0 * np.pi
        shifted = b.copy()
        shifted[j] = b[j] + 2.0 * np.pi
        worst_period = max(worst_period, abs(config_loss(a, shifted) - config_loss(a, b)))
        worst_period = max(worst_period, config_loss(b, shifted))
    assert worst_period <= 1e-15

    pts = np.random.default_rng(8).normal(size=(12, 3))
    false_zeros = 0
    for trial in range(1000):
        rot = _random_rotation(rng)
        tra = rng.normal(size=3)
        gt = RigidTransform(rot, tra)
        kind = trial % 3
        rot_e = _random_rotation(rng) if kind != 1 else rot.copy()
        tra_e = tra + rng.normal(size=3) * 0.1 if kind != 0 else tra.copy()
        if kind == 0 and rotation_geodesic(rot_e, rot) < 1e-12:
            continue
        loss = pose_loss(RigidTransform(rot_e, tra_e), gt, pts)
        if loss <= 0.0:
            false_zeros += 1
        assert pose_loss(gt, gt, pts) == 0.0
    assert false_zeros == 0
    print(
        f"criterion 5 PASS: periodicity within {worst_period:.2e}, "
        f"0/1000 false zeros in pose_loss"
    )


# ---------------------------------------------------------------------------
# criterion 6: 6D rotation parametrization


def test_criterion_06_rotation_parametrization():
    rng = np.random.default_rng(66)
    worst_round = 0.0
    for _ in range(1000):
        rot = _random_rotation(rng)
        worst_round = max(worst_round, rotation_geodesic(rot6d_to_matrix(matrix_to_rot6d(rot)), rot))
    worst_ortho = 0.0
    worst_det = 0.0
    for _ in range(1000):
        out = rot6d_to_matrix(rng.normal(size=6))
        worst_ortho = max(worst_ortho, float(np.max(np.abs(out @ out.T - np.eye(3)))))
        worst_det = max(worst_det, abs(float(np.linalg.det(out)) - 1.0))
    assert worst_round < 1e-12
    assert worst_ortho < 1e-9
    assert worst_det < 1e-9
    print(
        f"criterion 6 PASS: 1000 round trips within {worst_round:.2e} rad, "
        f"orthonormality within {max(worst_ortho, worst_det):.2e}"
    )


# ---------------------------------------------------------------------------
# criterion 7: silhouette renderer


def _cube_mesh(center, half):
    c = np.asarray(center, dtype=float)
    signs = [(sx, sy, sz) for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)]
    verts = np.array([c + half * np.array(s) for s in signs])
    tris = np.array(
        [
            (0, 1, 3), (0, 3, 2),
            (4, 6, 7), (4, 7, 5),
            (0, 4, 5), (0, 5, 1),
            (2, 3, 7), (2, 7, 6),
            (0, 2, 6), (0, 6, 4),
            (1, 5, 7), (1, 7, 3),
        ]
    )
    return Mesh(verts, tris)


def test_criterion_07_renderer_and_iou():
    chain = builtin_chain("panda7")
    meshes = default_link_meshes(chain)
    k = _camera()
    pose = look_at(np.array([2.2, 0.5, 1.0]), np.array([0.0, 0.0, 0.4]))
    theta = np.random.default_rng(7).uniform(*chain.limits())
    settings = RenderSettings(samples_per_link=400, splat_radius=2, seed=3)
    first = render_chain_silhouette(chain, theta, meshes, pose, k, settings)
    second = render_chain_silhouette(chain, theta, meshes, pose, k, settings)
    assert first.tobytes() == second.tobytes()

    cube_k = CameraIntrinsics(fx=500.0, fy=500.0, cx=112.0, cy=112.0, width=224, height=224)
    r = 1
    pts = sample_surface(_cube_mesh([0.0, 0.0, 4.0], 0.5), 10000, seed=0)
    img = render_silhouette(pts, RigidTransform(), cube_k, RenderSettings(10000, r, 0))
    on = np.argwhere(img)
    lo_expect = 112.0 - 500.0 * 0.5 / 3.5
    hi_expect = 112.0 + 500.0 * 0.5 / 3.5
    bbox_err = 0.0
    for axis in (0, 1):
        bbox_err = max(bbox_err, abs(on[:, axis].min() - lo_expect))
        bbox_err = max(bbox_err, abs(on[:, axis].max() - hi_expect))
    assert bbox_err <= 1 + r

    a = np.zeros((10, 10), dtype=bool)
    b = np.zeros((10, 10), dtype=bool)
    a[2:6, 2:6] = True
    b[4:8, 4:8] = True
    assert silhouette_iou(a, b) == silhouette_iou(b, a)
    assert silhouette_iou(a, a) == 1.0
    assert silhouette_iou(a, np.zeros_like(a)) == 0.0
    print(f"criterion 7 PASS: repeat renders bit-identical, cube bbox off by {bbox_err:.2f} px")


# ---------------------------------------------------------------------------
# criterion 8: metric oracles


def test_criterion_08_metric_oracles():
    chain = builtin_chain("panda7")
    rng = np.random.default_rng(88)
    lo, hi = chain.limits()
    worst_add = 0.0
    for _ in range(20):
        theta_a = rng.uniform(lo, hi)
        theta_b = rng.uniform(lo, hi)
        pose_a = RigidTransform(_random_rotation(rng), rng.normal(size=3))
        pose_b = RigidTransform(_random_rotation(rng), rng.normal(size=3))
        total = 0.0
        for frame_a, frame_b in zip(
            forward_kinematics(chain, theta_a), forward_kinematics(chain, theta_b)
        ):
            pa = pose_a.rotation @ frame_a.translation + pose_a.translation
            pb = pose_b.rotation @ frame_b.translation + pose_b.translation
            total += float(np.linalg.norm(pa - pb))
        brute = total / chain.dof
        worst_add = max(worst_add, abs(add_metric(pose_a, theta_a, pose_b, theta_b, chain) - brute))
    assert worst_add < 1e-12

    errors = rng.uniform(0.0, 0.2, size=400)
    threshold = 0.1
    step_val = auc(errors, threshold=threshold)
    ts = np.linspace(0.0, threshold, 100000)
    numeric = 100.0 * float(np.mean([(errors <= t).mean() for t in ts]))
    assert abs(step_val - numeric) <= 0.05
    assert auc(np.zeros(5)) == 100.0
    assert auc(np.full(5, 0.11)) == 0.0
    print(
        f"criterion 8 PASS: ADD within {worst_add:.2e} of brute force, "
        f"AUC within {abs(step_val - numeric):.3f} of numeric integration"
    )


# ---------------------------------------------------------------------------
# criteria 9 and 10: refinement sweep


_SWEEP = {}


def _suite():
    """100 noisy scenes with perturbed starting estimates, built once."""
    if "scenes" not in _SWEEP:
        chain = builtin_chain("panda7")
        cfg = SamplerConfig()
        k = cfg.intrinsics()
        meshes = default_link_meshes(chain)
        settings = RenderSettings()
        lo, hi = chain.limits()
        scenes = []
        for i in range(100):
            scene, mask = build_scene(
                chain, cfg, seed=900, index=i, meshes=meshes, render_settings=settings
            )
            rng = np.random.default_rng(np.random.SeedSequence((900, i, 3)))
            signs = rng.choice([-1.0, 1.0], size=chain.dof)
            theta0 = np.clip(scene.theta + 0.1 * signs, lo, hi)
            truth = Estimate.from_pose(scene.theta, scene.pose, k, provenance="truth")
            init = Estimate(theta0, truth.rotation, 1.1 * truth.scale, truth.base_pixel)
            scenes.append((scene, mask, init, truth))
        _SWEEP["chain"] = chain
        _SWEEP["k"] = k
        _SWEEP["meshes"] = meshes
        _SWEEP["settings"] = settings
        _SWEEP["scenes"] = scenes
    return _SWEEP["scenes"]


def _run_sweep(iterations):
    key = ("refined", iterations)
    if key not in _SWEEP:
        scenes = _suite()
        cfg = RefinerConfig(iterations=iterations)
        start = time.perf_counter()
        results = []
        for scene, mask, init, truth in scenes:
            refined, trace = refine(
                init, mask, _SWEEP["chain"], _SWEEP["meshes"], _SWEEP["k"],
                cfg, _SWEEP["settings"], ground_truth=truth,
            )
            results.append((refined, trace))
        _SWEEP[key] = (results, time.perf_counter() - start)
    return _SWEEP[key]


def _add_summary(results):
    """(wins, initial median ADD, refined median ADD) of a sweep's results."""
    chain = _SWEEP["chain"]
    k = _SWEEP["k"]
    adds_init = []
    adds_ref = []
    for (scene, _mask, init, _truth), (refined, _trace) in zip(_suite(), results):
        adds_init.append(add_metric(scene.pose, scene.theta, init.pose(k), init.theta, chain))
        adds_ref.append(add_metric(scene.pose, scene.theta, refined.pose(k), refined.theta, chain))
    wins = sum(r < i for r, i in zip(adds_ref, adds_init))
    return wins, float(np.median(adds_init)), float(np.median(adds_ref))


def test_criterion_09_refinement_improves_initialization():
    results, elapsed = _run_sweep(3)
    wins, med_init, med_ref = _add_summary(results)
    ratio = med_ref / med_init
    # reference run on this seed: 99/100 improved, 0.2654 -> 0.0642
    assert elapsed < 300.0
    assert wins >= 90
    assert ratio <= 0.6
    print(
        f"criterion 9 PASS: {wins}/100 scenes improved, median ADD "
        f"{med_init:.4f} -> {med_ref:.4f} (ratio {ratio:.3f}), {elapsed:.0f}s"
    )


def test_criterion_10_more_iterations_do_not_hurt():
    three, _ = _run_sweep(3)
    one, elapsed_one = _run_sweep(1)
    finals_three = [trace[-1]["objective"] for _, trace in three]
    finals_one = [trace[-1]["objective"] for _, trace in one]
    med_three = float(np.median(finals_three))
    med_one = float(np.median(finals_one))
    assert med_three <= med_one
    # one iteration is the default budget, and it holds criterion 9's win
    # count and the median ADD the 3-iteration search without the pattern
    # move reached (reference run: 93/100, 0.2654 -> 0.0945; at one probe up
    # and one down per coordinate per sweep it reads 99/100, 0.2654 -> 0.0678)
    assert RefinerConfig() == RefinerConfig(iterations=1)
    wins, med_init, med_ref = _add_summary(one)
    assert wins >= 90
    assert med_ref <= 0.0962
    print(
        f"criterion 10 PASS: median final objective {med_three:.4f} with 3 iterations "
        f"vs {med_one:.4f} with 1; the default 1 iteration improves {wins}/100 scenes, "
        f"median ADD {med_init:.4f} -> {med_ref:.4f}, {elapsed_one:.0f}s"
    )


# ---------------------------------------------------------------------------
# criterion 11: pipeline determinism


def test_criterion_11_pipeline_determinism(tmp_path):
    from armpose.cli import main

    def run(*argv):
        assert main([str(a) for a in argv]) == 0

    trees = {}
    for tag in ("a", "b"):
        root = tmp_path / tag
        data = root / "data"
        run("gen", "--out", data, "--count", 3, "--seed", 21,
            "--samples-per-link", 300, "--workers", 1)
        net = root / "net.json"
        run("train-gim", "--data", data, "--out", net,
            "--steps", 150, "--batch-size", 8, "--seed", 2)
        est = root / "est.jsonl"
        run("estimate", "--data", data, "--out", est,
            "--net", net, "--freeze-dropout", "--workers", 1)
        refined = root / "refined.jsonl"
        run("refine", "--data", data, "--estimates", est, "--out", refined,
            "--iterations", 1, "--evals-per-iteration", 25,
            "--samples-per-link", 300, "--workers", 1)
        report = root / "report.json"
        run("eval", "--data", data, "--estimates", refined, "--out", report)
        tree = {}
        for path in sorted(root.rglob("*")):
            if path.is_file():
                tree[str(path.relative_to(root))] = path.read_bytes()
        trees[tag] = tree
    assert trees["a"].keys() == trees["b"].keys()
    for name in trees["a"]:
        assert trees["a"][name] == trees["b"][name], f"{name} differs between runs"
    print(f"criterion 11 PASS: {len(trees['a'])} files byte-identical across two pipeline runs")


# ---------------------------------------------------------------------------
# criterion 12: honest end-to-end quality


def _criterion_12_recipe(seed):
    """Train-gim, estimate --freeze-dropout and refine at their defaults, run
    in-process: nothing from ground truth reaches a scene's estimate. The
    regressor, initialized and trained at seed, learns from 500 scenes of
    dataset seed 1, without their masks; 30 scenes of dataset seed 2 are
    estimated from their noisy keypoints and refined against their masks.
    Returns (failed scenes, initial ADDs, refined ADDs, seconds)."""
    chain = builtin_chain("panda7")
    cfg = SamplerConfig()
    k = cfg.intrinsics()
    start = time.perf_counter()
    train = []
    for index in range(500):
        scene = draw_scene(chain, cfg, 1, index)
        features = keypoint_features(scene.keypoints, k.width, k.height)
        train.append((features, edm_from_configuration(chain, scene.theta)))
    net, _, _ = train_gim(init_regressor(*regressor_widths(chain), seed=seed), train, TrainConfig(seed=seed))
    meshes, settings = default_link_meshes(chain), RenderSettings()
    failed, adds_init, adds_ref = [], [], []
    for index in range(30):
        scene, mask = build_scene(chain, cfg, 2, index, meshes, settings)
        d = mlp_forward(net, keypoint_features(scene.keypoints, k.width, k.height))
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # as estimate runs it
                est = estimate_from_distances(scene.keypoints, d, chain, k)
        except (ValueError, PnpDegenerateError) as exc:
            failed.append(f"scene {index}: {exc}")
            continue
        refined, _ = refine(est, mask, chain, meshes, k, RefinerConfig(), settings)
        adds_init.append(add_metric(scene.pose, scene.theta, est.pose(k), est.theta, chain))
        adds_ref.append(add_metric(scene.pose, scene.theta, refined.pose(k), refined.theta, chain))
    return failed, adds_init, adds_ref, time.perf_counter() - start


def _criterion_12_summary(adds_init, adds_ref, elapsed):
    return (
        f"{len(adds_init)}/30 scenes estimated, median ADD {np.median(adds_init):.4f} "
        f"(mean {np.mean(adds_init):.4f}) -> {np.median(adds_ref):.4f} (mean {np.mean(adds_ref):.4f}) "
        f"after refine, {elapsed:.1f}s"
    )


def test_criterion_12_honest_end_to_end():
    failed, adds_init, adds_ref, elapsed = _criterion_12_recipe(seed=0)
    # reference run: 30/30 estimated, init median 0.6102 (mean 0.7132), refined
    # median 0.3540 (mean 0.4424) with 6D-code rotation probes, 0.3565 (mean
    # 0.4222) with turns about the base-frame axes, 0.3239 (mean 0.4487) with
    # one probe up and one down per coordinate per sweep. A z-mirrored MDS
    # cloud gave a better init (0.498) and a refined median of 0.464, which
    # only the refined bound sees.
    assert failed == []
    assert np.median(adds_init) <= 0.62
    assert np.median(adds_ref) <= 0.36
    assert np.mean(adds_ref) <= 0.45
    print(f"criterion 12 PASS: {_criterion_12_summary(adds_init, adds_ref, elapsed)}")


# criterion 12's recipe with the regressor at two more seeds, so that a change
# cannot pass on one regressor while it gets worse on the others. The bounds
# are (initial median, refined median, refined mean) ADD in metres, the first
# figures of this check rounded up to the next 0.01 m, and stay fixed.
# First figures: seed 1, 0.3912 -> 0.3287 (mean 0.3669); seed 2, 0.5677 ->
# 0.3604 (mean 0.4459).
@pytest.mark.parametrize("seed, bounds", [(1, (0.40, 0.33, 0.37)), (2, (0.57, 0.37, 0.45))])
def test_criterion_12_at_regressor_seeds_1_and_2(seed, bounds):
    failed, adds_init, adds_ref, elapsed = _criterion_12_recipe(seed)
    assert failed == []
    assert np.median(adds_init) <= bounds[0]
    assert np.median(adds_ref) <= bounds[1]
    assert np.mean(adds_ref) <= bounds[2]
    print(f"criterion 12 at regressor seed {seed} PASS: {_criterion_12_summary(adds_init, adds_ref, elapsed)}")
