import json
import math
import warnings

import numpy as np
import pytest

from armpose import (
    AdamState,
    NonEmbeddableWarning,
    TrainConfig,
    TrainingDivergedError,
    align_points,
    builtin_chain,
    configuration_from_points,
    draw_scene,
    edm_from_configuration,
    edm_from_points,
    gram_from_edm,
    init_regressor,
    joint_points,
    keypoint_features,
    load_regressor,
    look_at,
    mlp_forward,
    points_from_gram,
    project_keypoints,
    save_regressor,
    skeleton_keypoints,
    train_gim,
)
from armpose import ConfigurationAmbiguousWarning, Keypoints2D, SamplerConfig
from armpose import distgeo, kinematics
from armpose.distgeo import _zero_reference
from armpose.kinematics import dh_transform, kabsch, wrap_angle


# ---------------------------------------------------------------------------
# distance matrices and cMDS


def test_edm_from_points_hand_computed():
    pts = np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0], [0.0, 4.0, 0.0]])
    want = np.array([[0.0, 9.0, 16.0], [9.0, 0.0, 25.0], [16.0, 25.0, 0.0]])
    assert np.max(np.abs(edm_from_points(pts) - want)) < 1e-12


def test_gram_from_edm_two_point_oracle():
    # two points at squared distance 4: centered coordinates +-1, so the
    # Gram matrix is [[1, -1], [-1, 1]]
    d = np.array([[0.0, 4.0], [4.0, 0.0]])
    want = np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert np.max(np.abs(gram_from_edm(d) - want)) < 1e-12


def test_gram_from_edm_matches_centered_inner_products():
    rng = np.random.default_rng(3)
    for m in (4, 9, 20):
        pts = rng.normal(size=(m, 3))
        centered = pts - pts.mean(axis=0)
        want = centered @ centered.T
        got = gram_from_edm(edm_from_points(pts))
        assert np.max(np.abs(got - want)) < 1e-9


def test_edm_validation_errors():
    with pytest.raises(ValueError):
        gram_from_edm(np.array([[0.0, 1.0], [2.0, 0.0]]))  # asymmetric
    with pytest.raises(ValueError):
        gram_from_edm(np.array([[1.0, 1.0], [1.0, 0.0]]))  # nonzero diagonal
    with pytest.raises(ValueError):
        gram_from_edm(np.array([[0.0, -1.0], [-1.0, 0.0]]))  # negative entry
    with pytest.raises(ValueError):
        gram_from_edm(np.array([[0.0, np.inf], [np.inf, 0.0]]))


def test_cmds_round_trip_preserves_distances():
    rng = np.random.default_rng(12)
    for _ in range(10):
        pts = rng.normal(size=(10, 3))
        d = edm_from_points(pts)
        rec = points_from_gram(gram_from_edm(d))
        assert np.max(np.abs(edm_from_points(rec) - d)) < 1e-7


def test_points_from_gram_deterministic_and_warns():
    g = np.array([[0.0, 1.0], [1.0, 0.0]])  # eigenvalues +-1, not a Gram matrix
    with pytest.warns(NonEmbeddableWarning):
        points_from_gram(g)
    pts = np.random.default_rng(0).normal(size=(6, 3))
    g = gram_from_edm(edm_from_points(pts))
    a = points_from_gram(g)
    b = points_from_gram(g.copy())
    assert np.array_equal(a, b)


def test_edm_rigid_invariance_under_base_change():
    chain = builtin_chain("panda7")
    rng = np.random.default_rng(4)
    lo, hi = chain.limits()
    theta = rng.uniform(lo, hi)
    d0 = edm_from_configuration(chain, theta)
    # re-rooting the chain anywhere must not move any pairwise distance
    from armpose import KinematicChain, RigidTransform

    ang = 1.1
    rot = np.array(
        [
            [math.cos(ang), -math.sin(ang), 0.0],
            [math.sin(ang), math.cos(ang), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    moved = KinematicChain(
        name=chain.name,
        joints=chain.joints,
        base_frame=RigidTransform(rot, np.array([0.4, -0.2, 1.3])),
    )
    d1 = edm_from_configuration(moved, theta)
    assert np.max(np.abs(d1 - d0)) < 1e-12


# ---------------------------------------------------------------------------
# anchoring and configuration recovery


def test_anchor_indices_are_noncollinear():
    for name in ("panda7", "planar2"):
        chain = builtin_chain(name)
        idx = _zero_reference(chain)[1]
        assert len(idx) == 3
        pts = joint_points(chain, np.zeros(chain.dof))[list(idx)]
        area = np.linalg.norm(np.cross(pts[1] - pts[0], pts[2] - pts[0]))
        assert area > 1e-6


def test_align_points_recovers_rigidly_moved_cloud():
    chain = builtin_chain("panda7")
    rng = np.random.default_rng(21)
    lo, hi = chain.limits()
    for _ in range(10):
        theta = rng.uniform(lo, hi)
        truth = joint_points(chain, theta)
        ang = rng.uniform(-3, 3)
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        kx = np.array(
            [[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]]
        )
        rot = np.eye(3) + math.sin(ang) * kx + (1 - math.cos(ang)) * (kx @ kx)
        moved = truth @ rot.T + rng.normal(size=3)
        aligned = align_points(moved, chain, targets=truth)
        assert np.max(np.abs(aligned - truth)) < 1e-9


def test_align_points_resolves_reflection_with_targets():
    chain = builtin_chain("panda7")
    rng = np.random.default_rng(22)
    lo, hi = chain.limits()
    theta = rng.uniform(lo, hi)
    truth = joint_points(chain, theta)
    mirrored = truth * np.array([1.0, 1.0, -1.0])
    aligned = align_points(mirrored, chain, targets=truth)
    assert np.max(np.abs(aligned - truth)) < 1e-9


def test_align_points_fits_both_chiralities_in_one_kabsch_call(monkeypatch):
    """With targets, the cloud and its mirror are fit by one stacked Kabsch
    solve, and the kept fit is bit for bit the better of two separate solves."""
    chain = builtin_chain("panda7")
    idx = _zero_reference(chain)[1]
    rng = np.random.default_rng(24)
    lo, hi = chain.limits()
    calls = []

    def counting(src, dst):
        calls.append(np.shape(src))
        return kabsch(src, dst)

    monkeypatch.setattr(distgeo, "kabsch", counting)
    for _ in range(5):
        theta = rng.uniform(lo, hi)
        cloud = points_from_gram(gram_from_edm(edm_from_configuration(chain, theta)))
        targets = joint_points(chain, theta + rng.normal(scale=0.1, size=chain.dof))
        fits = []
        for candidate in (cloud, cloud * np.array([1.0, 1.0, -1.0])):
            rot, tra = kabsch(candidate[idx], targets[idx])
            fits.append(candidate @ rot.T + tra)
        want = min(fits, key=lambda fit: np.linalg.norm(fit - targets))
        calls.clear()
        assert np.array_equal(align_points(cloud, chain, targets=targets), want)
        assert calls == [(2, len(idx), 3)]


def test_canonical_alignment_keeps_the_cloud_chirality():
    """Without targets, a cloud and its mirror image each come back as their
    own anchor fit onto the zero-configuration skeleton: three anchors cannot
    tell the two apart, so neither is swapped for the other."""
    chain = builtin_chain("panda7")
    reference = joint_points(chain, np.zeros(chain.dof))
    idx = _zero_reference(chain)[1]
    rng = np.random.default_rng(23)
    lo, hi = chain.limits()
    for _ in range(5):
        cloud = points_from_gram(gram_from_edm(edm_from_configuration(chain, rng.uniform(lo, hi))))
        fits = []
        for candidate in (cloud, cloud * np.array([1.0, 1.0, -1.0])):
            rot, tra = kabsch(candidate[idx], reference[idx])
            fits.append(align_points(candidate, chain))
            assert np.array_equal(fits[-1], candidate @ rot.T + tra)
        residuals = [np.linalg.norm(fit[idx] - reference[idx]) for fit in fits]
        assert residuals[0] == pytest.approx(residuals[1], abs=1e-12)
        assert not np.allclose(fits[0], fits[1])


def test_full_round_trip_with_true_targets():
    chain = builtin_chain("panda7")
    rng = np.random.default_rng(31)
    lo, hi = chain.limits()
    for _ in range(20):
        theta = rng.uniform(lo, hi)
        d = edm_from_configuration(chain, theta)
        cloud = points_from_gram(gram_from_edm(d))
        targets = joint_points(chain, theta)
        aligned = align_points(cloud, chain, targets=targets)
        rec = configuration_from_points(chain, aligned)
        assert np.max(np.abs(rec - theta)) < 1e-8


def test_configuration_from_points_exact_on_true_points():
    for name in ("panda7", "planar2"):
        chain = builtin_chain(name)
        rng = np.random.default_rng(8)
        lo, hi = chain.limits()
        for _ in range(10):
            theta = rng.uniform(lo, hi)
            rec = configuration_from_points(chain, joint_points(chain, theta))
            assert np.max(np.abs(rec - theta)) < 1e-10


def _reference_configuration_from_points(chain, points):
    """The frame-object IK walk: compose RigidTransforms, np.cross and norm on 3-vectors.

    Returns (angles, indices of ambiguous joints).
    """
    stacked = np.asarray(points, dtype=float)
    half = stacked.shape[0] // 2
    p_obs, q_obs = stacked[:half], stacked[half:]
    frame = chain.base_frame
    angles = np.zeros(chain.dof)
    ambiguous = []
    for i, joint in enumerate(chain.joints):
        axis = frame.rotation[:, 2]
        origin = frame.translation
        ref_frame = frame @ dh_transform(joint, -joint.theta_offset)
        ref_vecs = [
            ref_frame.translation - origin,
            ref_frame.translation + ref_frame.rotation[:, 2] - origin,
        ]
        obs_vecs = [p_obs[i] - origin, q_obs[i] - origin]
        sin_acc = 0.0
        cos_acc = 0.0
        strength = 0.0
        for ref, obs in zip(ref_vecs, obs_vecs):
            ref_perp = ref - axis * (axis @ ref)
            obs_perp = obs - axis * (axis @ obs)
            sin_acc += float(axis @ np.cross(ref_perp, obs_perp))
            cos_acc += float(ref_perp @ obs_perp)
            strength += float(np.linalg.norm(ref_perp) * np.linalg.norm(obs_perp))
        if strength < 1e-10:
            ambiguous.append(i)
            phi = 0.0
        else:
            phi = math.atan2(sin_acc, cos_acc)
        theta = wrap_angle(phi - joint.theta_offset)
        if theta < joint.limit_lo and theta + 2.0 * math.pi <= joint.limit_hi:
            theta += 2.0 * math.pi
        elif theta > joint.limit_hi and theta - 2.0 * math.pi >= joint.limit_lo:
            theta -= 2.0 * math.pi
        angles[i] = theta
        frame = frame @ dh_transform(joint, phi - joint.theta_offset)
    return angles, ambiguous


@pytest.fixture(scope="module")
def honest_clouds():
    """Anchored clouds of the honest estimate path: a regressor trained for 150
    steps on 200 scenes of seed 0, applied with dropout off to 100 noisy
    scenes of seed 1 (the benchmark's init-train inputs at seed 0)."""
    chain = builtin_chain("panda7")
    cfg = SamplerConfig()
    k = cfg.intrinsics()

    def keypoint_sets(seed, count):
        out = []
        for i in range(count):
            scene = draw_scene(chain, cfg, seed, i)
            out.append((scene.theta, scene.keypoints))
        return out

    dataset = [
        (keypoint_features(kp, k.width, k.height), edm_from_configuration(chain, theta))
        for theta, kp in keypoint_sets(0, 200)
    ]
    net = init_regressor(2 * (chain.dof + 1), chain.dof * (2 * chain.dof - 1), seed=0)
    net, _, _ = train_gim(net, dataset, TrainConfig(steps=150, seed=0, warmup_steps=7))
    clouds = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _, kp in keypoint_sets(1, 100):
            d = mlp_forward(net, keypoint_features(kp, k.width, k.height))
            clouds.append(align_points(points_from_gram(gram_from_edm(d)), chain))
    return chain, clouds


def test_configuration_from_points_matches_frame_walk_bitwise(honest_clouds):
    chain, clouds = honest_clouds
    assert len(clouds) == 100
    for cloud in clouds:
        want, ambiguous = _reference_configuration_from_points(chain, cloud)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = configuration_from_points(chain, cloud)
        assert np.array_equal(got, want)
        flagged = [w for w in caught if issubclass(w.category, ConfigurationAmbiguousWarning)]
        assert len(flagged) == (1 if ambiguous else 0)

    planar = builtin_chain("planar2")
    rng = np.random.default_rng(61)
    lo, hi = planar.limits()
    for _ in range(50):
        cloud = joint_points(planar, rng.uniform(lo, hi))
        cloud = cloud + rng.normal(scale=0.01, size=cloud.shape)
        want, ambiguous = _reference_configuration_from_points(planar, cloud)
        assert not ambiguous
        assert np.array_equal(configuration_from_points(planar, cloud), want)


def test_configuration_from_points_ambiguous_joint_matches_frame_walk():
    chain = builtin_chain("panda7")
    cloud = joint_points(chain, np.full(chain.dof, 0.3))
    axis = chain.base_frame.rotation[:, 2]
    origin = chain.base_frame.translation
    # joint 1's origin and axis point both on the base axis: no lever
    cloud[0] = origin + 0.333 * axis
    cloud[chain.dof] = origin + 1.333 * axis
    want, ambiguous = _reference_configuration_from_points(chain, cloud)
    assert ambiguous == [0]
    with pytest.warns(ConfigurationAmbiguousWarning, match=r"joints \[0\]"):
        got = configuration_from_points(chain, cloud)
    assert np.array_equal(got, want)


def test_align_points_runs_forward_kinematics_once(monkeypatch):
    chain = builtin_chain("panda7")
    cloud = joint_points(chain, np.full(chain.dof, 0.2))
    # an equal chain loaded separately has its own cache entry
    want = align_points(cloud, builtin_chain("panda7"))
    calls = []
    original = kinematics.chain_frames

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(kinematics, "chain_frames", counting)
    got = align_points(cloud, chain)
    assert len(calls) == 1
    assert np.array_equal(got, want)
    # the zero-configuration reference and anchors are built once per chain
    assert np.array_equal(align_points(cloud, chain), want)
    assert _zero_reference(chain)[1] == [0, chain.dof, chain.dof + 1]
    assert len(calls) == 1


def test_configuration_from_points_shape_check():
    chain = builtin_chain("planar2")
    with pytest.raises(ValueError):
        configuration_from_points(chain, np.zeros((6, 3)))


# ---------------------------------------------------------------------------
# regressor


def test_upper_indices_are_made_once_per_size_and_read_only():
    rows, cols = distgeo._upper_indices(14)
    want_rows, want_cols = np.triu_indices(14, k=1)
    assert np.array_equal(rows, want_rows) and np.array_equal(cols, want_cols)
    assert distgeo._upper_indices(14)[0] is rows
    with pytest.raises(ValueError):
        rows[0] = 1


def test_keypoint_features_zeroes_invisible():
    kp = Keypoints2D(np.array([[112.0, 56.0], [10.0, 20.0]]), np.array([True, False]))
    feats = keypoint_features(kp, 224, 224)
    assert feats.shape == (4,)
    assert feats[0] == pytest.approx(0.5)
    assert feats[1] == pytest.approx(0.25)
    assert feats[2] == 0.0 and feats[3] == 0.0


def test_init_regressor_shapes_and_round_trip(tmp_path):
    net = init_regressor(16, 6, hidden=(24, 20), dropout_rate=0.1, seed=3)
    assert [w.shape for w in net.weights] == [(24, 16), (20, 24), (6, 20)]
    assert [b.shape for b in net.biases] == [(24,), (20,), (6,)]
    assert net.matrix_size == 4  # 6 = 4*3/2 upper-triangle entries
    assert all(not b.any() for b in net.biases)
    for i, b in enumerate(net.biases):  # so that the round trip below has bias bits to keep
        b[:] = np.linspace(-1.0, 1.0, b.size) / (i + 3)
    path = tmp_path / "net.json"
    save_regressor(net, path)
    again, state = load_regressor(path)
    assert state is None
    for a, b in zip(again.weights + again.biases, net.weights + net.biases):
        assert a.shape == b.shape and np.array_equal(a, b)
    # files that still carry the retired input_normalization key load the same
    blob = net.to_json()
    assert "input_normalization" not in blob
    blob["input_normalization"] = "image_size"
    path.write_text(json.dumps(blob) + "\n", encoding="utf-8")
    assert load_regressor(path)[0].to_json() == net.to_json()


def test_regressor_output_width_must_be_triangular():
    with pytest.raises(ValueError, match="output width 90 is not a triangular number"):
        init_regressor(16, 90)
    assert init_regressor(16, 91).matrix_size == 14


@pytest.mark.parametrize("hidden", [(0, 5), (5, 0), (-1, 5)])
def test_regressor_rejects_layers_narrower_than_one(hidden):
    with pytest.raises(ValueError, match="width"):
        init_regressor(6, 6, hidden=hidden)
    net = init_regressor(6, 6, hidden=(5, 5))
    dims = [6, hidden[0], hidden[1], 6]
    weights = [np.zeros((max(dims[i + 1], 0), max(dims[i], 0))) for i in range(3)]
    biases = [np.zeros(max(dims[i + 1], 0)) for i in range(3)]
    with pytest.raises(ValueError, match="width"):
        distgeo.MlpRegressor(layer_dims=dims, weights=weights, biases=biases)
    assert net.layer_dims == [6, 5, 5, 6]


def test_mlp_forward_is_symmetric_psd_shaped():
    net = init_regressor(6, 6, hidden=(16, 16), dropout_rate=0.0, seed=1)
    x = np.random.default_rng(2).uniform(0, 1, 6)
    d = mlp_forward(net, x)
    assert d.shape == (4, 4)
    assert np.array_equal(d, d.T)
    assert np.all(np.diag(d) == 0.0)
    assert np.all(d >= 0.0)  # squared distances


def test_mlp_dropout_modes():
    net = init_regressor(6, 6, hidden=(16, 16), dropout_rate=0.5, seed=1)
    x = np.random.default_rng(2).uniform(0, 1, 6)
    frozen_a = mlp_forward(net, x, dropout_active=False)
    frozen_b = mlp_forward(net, x, dropout_active=False)
    assert np.array_equal(frozen_a, frozen_b)
    rng = np.random.default_rng(5)
    live_a = mlp_forward(net, x, dropout_active=True, rng=rng)
    live_b = mlp_forward(net, x, dropout_active=True, rng=rng)
    assert not np.array_equal(live_a, live_b)  # fresh masks each call
    same_a = mlp_forward(net, x, dropout_active=True, rng=np.random.default_rng(9))
    same_b = mlp_forward(net, x, dropout_active=True, rng=np.random.default_rng(9))
    assert np.array_equal(same_a, same_b)
    with pytest.raises(ValueError, match="rng"):  # no unseeded fallback
        mlp_forward(net, x, dropout_active=True)


def _one_sample(net, x, target):
    """One sample's loss and gradients from the training kernel, as a batch of one."""
    losses, gw, gb = distgeo._batch_loss_and_gradients(net, x[None], target[None], None)
    return losses[0], gw, gb


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(17)
    for trial in range(3):
        net = init_regressor(6, 6, hidden=(10, 9), dropout_rate=0.0, seed=trial)
        x = rng.uniform(0, 1, 6)
        target = edm_from_points(rng.normal(size=(4, 3)))
        _, gw, gb = _one_sample(net, x, target)
        h = 1e-5
        for s in range(3):
            w = net.weights[s]
            for idx in [(0, 0), (w.shape[0] - 1, w.shape[1] - 1), (w.shape[0] // 2, w.shape[1] // 2)]:
                orig = w[idx]
                w[idx] = orig + h
                hi_val = _one_sample(net, x, target)[0]
                w[idx] = orig - h
                lo_val = _one_sample(net, x, target)[0]
                w[idx] = orig
                fd = (hi_val - lo_val) / (2 * h)
                denom = max(abs(fd), 1e-8)
                assert abs(gw[s][idx] - fd) / denom < 1e-4


def _per_sample_reference(net, x, target, masks):
    """Loss and gradients of one sample, as the per-sample trainer computed them."""
    h1 = np.tanh(net.weights[0] @ x + net.biases[0])
    if masks is not None:
        h1 = h1 * masks[0]
    h2 = np.tanh(net.weights[1] @ h1 + net.biases[1])
    if masks is not None:
        h2 = h2 * masks[1]
    raw = net.weights[2] @ h2 + net.biases[2]
    m = net.matrix_size
    iu = np.triu_indices(m, k=1)
    pred = np.zeros((m, m))
    pred[iu] = raw * raw
    resid = pred + pred.T - target
    loss = 0.5 * float(np.sum(resid * resid))
    d_raw = 2.0 * (resid[iu] + resid.T[iu]) * raw
    d_h2 = net.weights[2].T @ d_raw
    if masks is not None:
        d_h2 = d_h2 * masks[1]
    d_pre2 = d_h2 * (1.0 - np.tanh(net.weights[1] @ h1 + net.biases[1]) ** 2)
    d_h1 = net.weights[1].T @ d_pre2
    if masks is not None:
        d_h1 = d_h1 * masks[0]
    d_pre1 = d_h1 * (1.0 - np.tanh(net.weights[0] @ x + net.biases[0]) ** 2)
    gw = [np.outer(d_pre1, x), np.outer(d_pre2, h1), np.outer(d_raw, h2)]
    return loss, gw, [d_pre1, d_pre2, d_raw]


@pytest.mark.parametrize("dropout", [0.0, 0.1], ids=["masks-off", "masks-on"])
@pytest.mark.parametrize("batch", [1, 32])
@pytest.mark.parametrize(
    "dims", [(16, 160, 160, 91), (6, 32, 32, 6)], ids=["panda7", "planar2"]
)
def test_batched_kernel_matches_per_sample_oracle(dims, batch, dropout):
    net = init_regressor(dims[0], dims[3], hidden=dims[1:3], dropout_rate=dropout, seed=batch)
    m = net.matrix_size
    rng = np.random.default_rng(40 + batch)
    x = rng.uniform(0, 1, (batch, dims[0]))
    # a general target, so the residual is not symmetric
    targets = np.stack([edm_from_points(rng.normal(size=(m, 3))) for _ in range(batch)])
    targets += rng.normal(scale=0.5, size=targets.shape)
    masks = distgeo._sample_masks(net, rng, batch)
    assert (masks is None) == (dropout == 0.0)
    losses, gw, gb = distgeo._batch_loss_and_gradients(net, x, targets, masks)
    want_losses = []
    want = [np.zeros_like(a) for a in net.weights + net.biases]
    for b in range(batch):
        sample_masks = None if masks is None else [masks[0][b], masks[1][b]]
        loss, sgw, sgb = _per_sample_reference(net, x[b], targets[b], sample_masks)
        want_losses.append(loss)
        for acc, g in zip(want, sgw + sgb):
            acc += g
    assert np.max(np.abs(losses - want_losses) / np.abs(want_losses)) < 1e-12
    for got, ref in zip(gw + gb, want):
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_gradients_zero_at_exact_fit_and_linear_in_residual():
    net = init_regressor(6, 6, hidden=(10, 9), dropout_rate=0.0, seed=4)
    x = np.random.default_rng(0).uniform(0, 1, 6)
    pred = mlp_forward(net, x)
    _, gw, gb = _one_sample(net, x, pred)
    assert all(np.max(np.abs(g)) < 1e-12 for g in gw + gb)
    target = edm_from_points(np.random.default_rng(1).normal(size=(4, 3)))
    _, gw1, gb1 = _one_sample(net, x, target)
    # doubling the residual (pred - target) doubles every gradient
    _, gw2, gb2 = _one_sample(net, x, 2.0 * target - pred)
    for g1, g2 in zip(gw1 + gb1, gw2 + gb2):
        assert np.max(np.abs(g2 - 2.0 * g1)) < 1e-9


# ---------------------------------------------------------------------------
# training


def _planar_pairs(count, seed):
    chain = builtin_chain("planar2")
    cfg = SamplerConfig()
    k = cfg.intrinsics()
    lo, hi = chain.limits()
    rng = np.random.default_rng(seed)
    pairs = []
    while len(pairs) < count:
        theta = rng.uniform(lo, hi)
        az = rng.uniform(-math.pi, math.pi)
        el = rng.uniform(0.1, 0.5)
        dist = rng.uniform(2.5, 4.0)
        pts = skeleton_keypoints(chain, theta)
        target = 0.5 * (pts.min(axis=0) + pts.max(axis=0))
        cam = target + dist * np.array(
            [math.cos(el) * math.cos(az), math.cos(el) * math.sin(az), math.sin(el)]
        )
        kp = project_keypoints(pts, look_at(cam, target), k)
        if kp.visible.all():
            pairs.append((keypoint_features(kp, k.width, k.height), edm_from_configuration(chain, theta)))
    return pairs


def test_zero_learning_rate_keeps_loss_constant():
    # a single pair and no dropout make every batch identical, so lr 0 gives
    # a literally constant trace and untouched weights
    pairs = _planar_pairs(1, 2)
    net = init_regressor(6, 6, hidden=(8, 8), dropout_rate=0.0, seed=0)
    after, trace, _ = train_gim(net, pairs, TrainConfig(steps=40, learning_rate=0.0, seed=0))
    losses = [loss for _, loss in trace]
    assert len(set(losses)) == 1
    for a, b in zip(after.weights, net.weights):
        assert np.array_equal(a, b)
    for a, b in zip(after.biases, net.biases):
        assert np.array_equal(a, b)


# Per-step losses of the run below, recorded from the per-sample trainer
# that the batched kernel replaced. Only the gradient summation order
# differs, so the traces agree to rounding.
PER_SAMPLE_LOSS_TRACE = [
    10.438785196001447, 9.834860610357676, 9.221997946768974, 8.441778083831174,
    7.272289860641905, 6.608433218738595, 6.152011097561877, 5.857100272770913,
    4.947709653620767, 7.1527592182306705, 6.1802054282732755, 6.475623015494171,
    4.843094172718795, 4.141483182330633, 3.176285243166839, 2.838503263513206,
    3.42868106171364, 1.7388247111820156, 2.2184726862790667, 2.4653874079216562,
    2.6466931720859304, 2.620331421336479, 1.993522488770693, 3.5397280447473443,
    2.8625479252732755, 1.287795928927857, 1.8240818170771949, 1.3679295813662722,
    2.3879302438161867, 2.4432266297868597,
]


def test_training_matches_recorded_per_sample_trace():
    pairs = _planar_pairs(60, 5)
    net = init_regressor(6, 6, hidden=(12, 12), dropout_rate=0.1, seed=0)
    cfg = TrainConfig(steps=30, batch_size=8, learning_rate=1e-2, warmup_steps=5, seed=0)
    _, trace, _ = train_gim(net, pairs, cfg)
    assert [step for step, _ in trace] == list(range(30))
    got = np.array([loss for _, loss in trace])
    want = np.array(PER_SAMPLE_LOSS_TRACE)
    assert np.max(np.abs(got - want) / want) < 1e-10


def test_train_gim_draws_masks_in_per_sample_stream_order(monkeypatch):
    seen = []
    kernel = distgeo._batch_loss_and_gradients

    def spy(net, x, targets, masks):
        seen.append(masks)
        return kernel(net, x, targets, masks)

    monkeypatch.setattr(distgeo, "_batch_loss_and_gradients", spy)
    pairs = _planar_pairs(20, 3)
    net = init_regressor(6, 6, hidden=(12, 10), dropout_rate=0.3, seed=0)
    train_gim(net, pairs, TrainConfig(steps=4, batch_size=5, seed=4, start_step=2))
    assert len(seen) == 2
    keep = 1.0 - net.dropout_rate
    for step, masks in zip((2, 3), seen):
        rng = np.random.default_rng(np.random.SeedSequence((4, step)))
        rng.integers(0, len(pairs), size=5)
        for b in range(5):
            assert np.array_equal(masks[0][b], (rng.random(12) < keep).astype(float) / keep)
            assert np.array_equal(masks[1][b], (rng.random(10) < keep).astype(float) / keep)


@pytest.mark.parametrize(
    "field, value",
    [
        ("batch_size", 0),
        ("batch_size", -3),
        ("learning_rate", float("nan")),
        ("learning_rate", float("inf")),
        ("learning_rate", -1.0),
        ("steps", -1),
        ("warmup_steps", -1),
        ("start_step", -1),
        ("steps", 3.5),
        ("steps", 4.0),
        ("steps", True),
        ("warmup_steps", 1.5),
        ("start_step", 0.5),
        ("batch_size", True),
        ("batch_size", 8.0),
        ("seed", -1),
        ("seed", 1.5),
        ("seed", False),
        ("learning_rate", True),
        ("learning_rate", False),
        ("learning_rate", "1e-3"),
    ],
)
def test_train_config_rejects_bad_values(field, value):
    with pytest.raises(ValueError, match=field):
        TrainConfig(**{field: value})
    TrainConfig(learning_rate=0.0, steps=0, warmup_steps=0)


def test_desk_scale_training_run():
    # spec's desk-scale example: 2-DoF chain, 500 samples, 2000 steps
    pairs = _planar_pairs(500, 7)
    net = init_regressor(6, 6, hidden=(32, 32), dropout_rate=0.1, seed=0)
    trained, trace, _ = train_gim(net, pairs, TrainConfig(steps=2000, batch_size=32, seed=0))
    losses = np.array([loss for _, loss in trace])
    assert losses[-1] < 0.2 * losses[0]
    ma = np.convolve(losses, np.ones(50) / 50.0, mode="valid")
    rises = np.diff(ma)
    # minibatch noise leaves sub-0.1% wobble in the window-50 average on this
    # seeded run; the decreasing trend is asserted with that calibrated slack
    assert float(rises.max()) <= 2e-3 * float(ma[0])
    assert ma[-1] < 0.05 * ma[0]
    untrained = np.mean([_one_sample(net, x, t)[0] for x, t in pairs])
    final = np.mean([_one_sample(trained, x, t)[0] for x, t in pairs])
    assert final * 5.0 < untrained


def test_resume_matches_uninterrupted_run():
    pairs = _planar_pairs(60, 5)
    net = init_regressor(6, 6, hidden=(12, 12), dropout_rate=0.1, seed=0)
    full, trace_full, _ = train_gim(net, pairs, TrainConfig(steps=120, batch_size=8, seed=0))
    half, _, state = train_gim(net, pairs, TrainConfig(steps=60, batch_size=8, seed=0))
    resumed, trace_tail, _ = train_gim(
        half, pairs, TrainConfig(steps=120, batch_size=8, seed=0, start_step=60), adam_state=state
    )
    for a, b in zip(resumed.weights, full.weights):
        assert np.array_equal(a, b)
    for a, b in zip(resumed.biases, full.biases):
        assert np.array_equal(a, b)
    assert [l for _, l in trace_tail] == [l for _, l in trace_full[60:]]


def test_adam_state_round_trip(tmp_path):
    pairs = _planar_pairs(20, 9)
    net = init_regressor(6, 6, hidden=(8, 8), dropout_rate=0.0, seed=0)
    trained, _, state = train_gim(net, pairs, TrainConfig(steps=30, batch_size=8, seed=0))
    path = tmp_path / "net.json"
    save_regressor(trained, path, trainer_state=state)
    again, state2 = load_regressor(path)
    assert state2 is not None
    assert state2.step == state.step
    assert len(state2.m) == len(state.m) == 6 and len(state2.v) == len(state.v) == 6
    for a, b in zip(state2.m + state2.v, state.m + state.v):
        assert a.shape == b.shape and np.array_equal(a, b)
    with open(path, "r", encoding="utf-8") as fh:
        json.load(fh)


def test_saved_regressor_takes_at_most_12_bytes_per_value(tmp_path):
    # Base64 float64 is 10.7 characters a value; decimal text is about 19.
    net = init_regressor(16, 91, seed=0)
    rng = np.random.default_rng(0)
    params = net.weights + net.biases
    state = AdamState(
        m=[rng.standard_normal(p.shape) for p in params], v=[rng.random(p.shape) for p in params], step=5
    )
    path = tmp_path / "net.json"
    save_regressor(net, path, trainer_state=state)
    values = 3 * sum(p.size for p in params)
    assert values == 3 * 43131
    assert path.stat().st_size <= 12 * values


def test_training_divergence_raises():
    net = init_regressor(4, 3, hidden=(8, 8), dropout_rate=0.0, seed=0)
    pairs = [(np.ones(4), np.full((3, 3), 1e160) - 1e160 * np.eye(3))]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(TrainingDivergedError):
            train_gim(net, pairs, TrainConfig(steps=10, batch_size=1, learning_rate=1e3, seed=0))


def test_empty_dataset_rejected():
    net = init_regressor(4, 3, hidden=(8, 8), dropout_rate=0.0, seed=0)
    with pytest.raises(ValueError):
        train_gim(net, [], TrainConfig(steps=5))
