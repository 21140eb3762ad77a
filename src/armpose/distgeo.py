"""Distance-geometric configuration recovery and the keypoint-to-distance regressor.

The skeleton of a configuration is the 2n-point set [p_1..p_n, q_1..q_n]. Its
matrix of squared pairwise distances determines the configuration up to a
rigid motion, a reflection, and a gauge in the first two joints (rotating the
cloud about the base axis, or about joint 2's axis, which contains both p_1
and q_1, leaves every distance unchanged). Alignment against anchor targets
resolves what the distances cannot.
"""

from __future__ import annotations

import base64
import functools
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from ._io import check_float_fields, check_int_fields, json_field, read_json, write_json
from .kinematics import _cross, compose, dh_transform, joint_points, kabsch, wrap_angle


class AlignmentDegenerateError(ValueError):
    """Anchor points too close to collinear to pin down a rigid map."""


class ConfigurationAmbiguousWarning(UserWarning):
    """Some joint angle had no perpendicular lever in the point set."""


class NonEmbeddableWarning(UserWarning):
    """The Gram matrix has a significantly negative eigenvalue."""


class TrainingDivergedError(RuntimeError):
    """Training loss became non-finite."""


# ---------------------------------------------------------------------------
# distance matrices and classical scaling


def edm_from_points(points):
    """Squared-distance matrix of a point cloud (rows are points)."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError("expected an (m, 3) point array")
    diff = pts[:, None, :] - pts[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def edm_from_configuration(chain, theta):
    """Squared-distance matrix of the skeleton points of a configuration.

    Row/column order is [p_1..p_n, q_1..q_n]. Invariant to the chain's base
    placement since distances are rigid invariants.
    """
    return edm_from_points(joint_points(chain, theta))


def _check_edm(d):
    mat = np.asarray(d, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("distance matrix must be square")
    if not np.all(np.isfinite(mat)):
        raise ValueError("distance matrix entries must be finite")
    if np.max(np.abs(mat - mat.T)) > 1e-9:
        raise ValueError("distance matrix must be symmetric within 1e-9")
    if np.max(np.abs(np.diag(mat))) > 1e-9:
        raise ValueError("distance matrix diagonal must be zero within 1e-9")
    if mat.min() < -1e-9:
        raise ValueError("squared distances must be nonnegative")
    return mat


def gram_from_edm(d):
    """Double-center a squared-distance matrix: G = -0.5 * J D J, J = I - (1/m) 11^T."""
    mat = _check_edm(d)
    m = mat.shape[0]
    centering = np.eye(m) - np.full((m, m), 1.0 / m)
    gram = -0.5 * (centering @ mat @ centering)
    return 0.5 * (gram + gram.T)


def points_from_gram(g):
    """Recover a centered (m, 3) embedding from a Gram matrix.

    Takes the three largest eigenpairs; eigenvalues clipped at zero before the
    square root. Eigenvalues below -1e-6 raise NonEmbeddableWarning. Each kept
    eigenvector's sign is fixed so its first component above 1e-12 magnitude
    is positive, which makes the output deterministic under eigenvalue ties.
    """
    gram = np.asarray(g, dtype=float)
    if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
        raise ValueError("gram matrix must be square")
    if np.max(np.abs(gram - gram.T)) > 1e-9:
        raise ValueError("gram matrix must be symmetric within 1e-9")
    evals, evecs = np.linalg.eigh(gram)
    if evals.min() < -1e-6:
        warnings.warn(
            f"gram matrix has negative eigenvalue {evals.min():.3e}; "
            "distances are not embeddable in 3-space",
            NonEmbeddableWarning,
            stacklevel=2,
        )
    order = np.argsort(-evals, kind="stable")[:3]
    coords = np.zeros((gram.shape[0], 3))
    for col, idx in enumerate(order):
        vec = evecs[:, idx].copy()
        nonzero = np.nonzero(np.abs(vec) > 1e-12)[0]
        if nonzero.size and vec[nonzero[0]] < 0:
            vec = -vec
        coords[:, col] = math.sqrt(max(float(evals[idx]), 0.0)) * vec
    return coords


# ---------------------------------------------------------------------------
# anchoring


@functools.lru_cache(maxsize=16)
def _zero_reference(chain):
    """The chain's zero-configuration skeleton (read-only) and its alignment
    anchors, built once per chain: both depend only on its constants.

    The anchors are the first three base-side rows (p_1, q_1, p_2, q_2, p_3,
    ...) that are pairwise distinct and not collinear at the zero
    configuration.
    """
    reference = joint_points(chain, np.zeros(chain.dof))
    reference.flags.writeable = False
    n = chain.dof
    order = []
    for i in range(n):
        order.extend([i, n + i])
    scale = max(float(np.max(np.linalg.norm(reference - reference[0], axis=1))), 1e-6)
    chosen = [order[0]]
    for cand in order[1:]:
        pts = reference[chosen + [cand]]
        if len(chosen) == 1:
            if np.linalg.norm(pts[1] - pts[0]) > 1e-6 * scale:
                chosen.append(cand)
        else:
            area = np.linalg.norm(np.cross(pts[1] - pts[0], pts[2] - pts[0]))
            if area > 1e-8 * scale * scale:
                chosen.append(cand)
        if len(chosen) == 3:
            return reference, chosen
    raise AlignmentDegenerateError(
        f"chain {chain.name!r} has no non-collinear anchor triple at the zero configuration"
    )


def align_points(x_raw, chain, targets=None):
    """Rigidly map a recovered cloud onto anchor targets.

    x_raw is the (2n, 3) output of points_from_gram (any rigid placement,
    either chirality). The proper-rotation Procrustes solve always uses only
    the anchor rows _zero_reference selects. targets is a (2n, 3) matrix
    of known point locations; when given, the cloud and its mirror image are
    both fit and the full-cloud residual decides between them. With
    targets=None the zero-configuration skeleton serves as the anchor
    reference and only the cloud itself is fit: three anchor points cannot
    decide chirality (a triangle superposes onto its mirror image under a
    proper rotation, so both fits leave the same residual). That canonical
    alignment leaves the first two joint angles in a gauge the distances
    carry no information about, and the configuration's chirality follows
    the embedding's sign convention rather than the true arm.
    Returns the mapped (2n, 3) cloud.
    """
    cloud = np.asarray(x_raw, dtype=float)
    n = chain.dof
    if cloud.shape != (2 * n, 3):
        raise ValueError(f"expected a ({2 * n}, 3) cloud for chain {chain.name!r}")
    reference, idx = _zero_reference(chain)
    if targets is None:
        rot, tra = kabsch(cloud[idx], reference[idx])
        return cloud @ rot.T + tra
    target_full = np.asarray(targets, dtype=float)
    if target_full.shape != (2 * n, 3):
        raise ValueError(f"targets must be a ({2 * n}, 3) skeleton array")

    candidates = (cloud, cloud * np.array([1.0, 1.0, -1.0]))
    rots, tras = kabsch(np.stack([candidate[idx] for candidate in candidates]), target_full[idx])
    mapped = [candidate @ rot.T + tra for candidate, rot, tra in zip(candidates, rots, tras)]
    own, mirror = (float(np.linalg.norm(m - target_full)) for m in mapped)
    return mapped[1] if mirror < own else mapped[0]


# ---------------------------------------------------------------------------
# analytic configuration recovery


def configuration_from_points(chain, points):
    """Recover joint angles from an anchored (2n, 3) skeleton array.

    Walks the chain from the base. For joint i the observed vectors from the
    previous frame origin to p_i and q_i are compared against their zero-angle
    references; the least-squares rotation angle about the previous z axis is
    the joint angle. Joints whose points all sit on the rotation axis have no
    perpendicular lever: those angles are returned as the zero-angle reference
    and flagged with ConfigurationAmbiguousWarning. Recovered angles are
    shifted by 2*pi into the joint limits when that makes them in-range.
    """
    pts = np.asarray(points, dtype=float)
    if pts.shape != (2 * chain.dof, 3):
        raise ValueError(f"expected a ({2 * chain.dof}, 3) skeleton for chain {chain.name!r}")
    p_obs, q_obs = pts[: chain.dof], pts[chain.dof :]

    frame = chain.base_frame.pair
    angles = np.zeros(chain.dof)
    ambiguous = []
    for i, joint in enumerate(chain.joints):
        axis, origin = frame[0][:, 2], frame[1]
        zero_rot, zero_tra = compose(frame, dh_transform(joint, -joint.theta_offset).pair)
        ref_vecs = (zero_tra - origin, zero_tra + zero_rot[:, 2] - origin)
        obs_vecs = (p_obs[i] - origin, q_obs[i] - origin)
        sin_acc = 0.0
        cos_acc = 0.0
        strength = 0.0
        for ref, obs in zip(ref_vecs, obs_vecs):
            ref_perp = ref - axis * (axis @ ref)
            obs_perp = obs - axis * (axis @ obs)
            # np.cross and np.linalg.norm, by the same float operations
            sin_acc += float(axis @ _cross(ref_perp, obs_perp))
            cos_acc += float(ref_perp @ obs_perp)
            strength += math.sqrt(ref_perp @ ref_perp) * math.sqrt(obs_perp @ obs_perp)
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
        frame = compose(frame, dh_transform(joint, phi - joint.theta_offset).pair)
    if ambiguous:
        warnings.warn(
            f"joints {ambiguous} have no perpendicular lever; returned reference angles",
            ConfigurationAmbiguousWarning,
            stacklevel=2,
        )
    return angles


# ---------------------------------------------------------------------------
# the keypoint-to-distance regressor


@dataclass
class MlpRegressor:
    """Three-stage fully connected regressor from 2D keypoints to distances.

    Input is the flattened (u, v) keypoint list normalized to [0, 1] by the
    image dimensions; output is the upper triangle of the squared-distance
    matrix. Raw outputs are squared to enforce nonnegativity. Dropout acts on
    the hidden activations and is meant to stay active at inference time, so
    repeated estimates sample the regressor's predictive spread.
    """

    layer_dims: list
    weights: list
    biases: list
    activation: str = "tanh"
    dropout_rate: float = 0.1

    def __post_init__(self):
        _check_widths(self.layer_dims)
        if self.activation != "tanh":
            raise ValueError(f"unsupported activation {self.activation!r}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout rate must lie in [0, 1)")
        if len(self.weights) != 3 or len(self.biases) != 3:
            raise ValueError("expected exactly three weight matrices and bias vectors")
        for li, (w, b) in enumerate(zip(self.weights, self.biases)):
            expect = (self.layer_dims[li + 1], self.layer_dims[li])
            if w.shape != expect or b.shape != (expect[0],):
                raise ValueError(f"stage {li} has shape {w.shape}, expected {expect}")
        m, out = self.matrix_size, self.layer_dims[-1]
        if m * (m - 1) // 2 != out:
            raise ValueError(f"output width {out} is not a triangular number")

    @property
    def matrix_size(self):
        """Side length m of the emitted squared-distance matrix, whose upper
        triangle the output width holds (checked on construction)."""
        return int(round(0.5 * (1.0 + math.sqrt(1.0 + 8.0 * self.layer_dims[-1]))))

    def to_json(self):
        """The object a regressor file holds: every array is one base64 block of
        its little-endian float64 bytes, row-major, with its shape set by layer_dims."""
        return {
            "layer_dims": [int(v) for v in self.layer_dims],
            "activation": self.activation,
            "dropout_rate": self.dropout_rate,
            "weights": [_encode_array(w) for w in self.weights],
            "biases": [_encode_array(b) for b in self.biases],
        }

    @classmethod
    def from_json(cls, obj):
        dims = json_field(obj, "layer_dims", int, (None,))
        _check_widths(dims)
        return cls(
            layer_dims=dims,
            weights=_decode_arrays(obj["weights"], [(dims[i + 1], dims[i]) for i in range(3)], "weights"),
            biases=_decode_arrays(obj["biases"], [(n,) for n in dims[1:]], "biases"),
            activation=json_field(obj, "activation", str, default=cls.activation),
            dropout_rate=json_field(obj, "dropout_rate", float, default=cls.dropout_rate),
        )


def _check_widths(dims):
    if len(dims) != 4:
        raise ValueError("regressor is fixed at three weight stages (four layer dims)")
    json_field({"dims": dims}, "dims", int, (4,), name="layer widths")
    if min(dims) < 1:
        raise ValueError(f"every layer width must be at least 1, got {list(dims)}")


def _encode_array(a):
    """Base64 text of an array's little-endian float64 bytes, in row-major order."""
    return base64.b64encode(np.ascontiguousarray(a, dtype="<f8").tobytes()).decode("ascii")


def _decode_array(block, shape, name):
    """The float64 array of this shape held in a base64 block; ValueError naming
    the array when the block is not base64 or holds a different number of values."""
    if not isinstance(block, str):
        raise ValueError(f"{name} is not a base64 block")
    try:
        raw = base64.b64decode(block, validate=True)
    except ValueError as exc:
        raise ValueError(f"{name} is not a base64 block: {exc}") from None
    count = math.prod(shape)
    if len(raw) != 8 * count:
        raise ValueError(
            f"{name} holds {len(raw)} bytes, expected {8 * count} ({count} float64 values of shape {shape})"
        )
    return np.frombuffer(raw, dtype="<f8").astype(float).reshape(shape)


def _decode_arrays(blocks, shapes, name):
    """One array per shape, from a list holding exactly one base64 block for each."""
    if not isinstance(blocks, list) or len(blocks) != len(shapes):
        raise ValueError(f"{name} must be a list of {len(shapes)} base64 blocks")
    return [_decode_array(b, shape, f"{name}[{i}]") for i, (b, shape) in enumerate(zip(blocks, shapes))]


def regressor_widths(chain):
    """(input, output) widths of a regressor for this chain: (u, v) per keypoint
    in, the upper triangle of the (2n, 2n) skeleton distance matrix out."""
    n = chain.dof
    return 2 * (n + 1), n * (2 * n - 1)


def init_regressor(input_dim, output_dim, hidden=(160, 160), dropout_rate=MlpRegressor.dropout_rate, seed=0):
    """Fresh regressor with uniform Glorot weights and zero biases."""
    dims = [input_dim, hidden[0], hidden[1], output_dim]
    _check_widths(dims)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    weights = []
    biases = []
    for li in range(3):
        bound = math.sqrt(6.0 / (dims[li] + dims[li + 1]))
        weights.append(rng.uniform(-bound, bound, size=(dims[li + 1], dims[li])))
        biases.append(np.zeros(dims[li + 1]))
    return MlpRegressor(layer_dims=dims, weights=weights, biases=biases, dropout_rate=dropout_rate)


def save_regressor(net, path, trainer_state=None):
    obj = net.to_json()
    if trainer_state is not None:
        obj["trainer_state"] = trainer_state.to_json()
    write_json(path, obj, indent=None)


def load_regressor(path):
    """Load a regressor; returns (net, trainer_state_or_None)."""

    def parse(obj):
        net = MlpRegressor.from_json(obj)
        state = AdamState.from_json(obj["trainer_state"], net) if "trainer_state" in obj else None
        return net, state

    return read_json(path, parse)


def _sample_masks(net, rng, batch):
    """Inverted-dropout masks (batch, h1) and (batch, h2), or None when disabled.

    One (batch, h1 + h2) draw consumes the generator exactly as batch
    successive per-sample draws of h1 then h2 values would.
    """
    if net.dropout_rate == 0.0:
        return None
    keep = 1.0 - net.dropout_rate
    h1 = net.layer_dims[1]
    block = (rng.random((batch, h1 + net.layer_dims[2])) < keep).astype(float) / keep
    return block[:, :h1], block[:, h1:]


def _forward(net, x, masks):
    """Forward a (B, n_in) batch; returns raw outputs (B, out) and backprop caches.

    masks, when given, are the two hidden layers' dropout masks, each (B, h)
    or a single (h,) row shared by the batch.
    """
    t1 = np.tanh(x @ net.weights[0].T + net.biases[0])
    h1 = t1 if masks is None else t1 * masks[0]
    t2 = np.tanh(h1 @ net.weights[1].T + net.biases[1])
    h2 = t2 if masks is None else t2 * masks[1]
    raw = h2 @ net.weights[2].T + net.biases[2]
    return raw, (t1, h1, t2, h2)


@functools.cache
def _upper_indices(m):
    """np.triu_indices(m, k=1), made once per matrix size, as read-only arrays."""
    rows, cols = np.triu_indices(m, k=1)
    rows.flags.writeable = False
    cols.flags.writeable = False
    return rows, cols


def _matrix_from_upper(values, m):
    """Symmetric zero-diagonal (..., m, m) matrices from (..., m(m-1)/2) upper triangles."""
    mat = np.zeros(values.shape[:-1] + (m, m))
    iu = _upper_indices(m)
    mat[..., iu[0], iu[1]] = values
    return mat + np.swapaxes(mat, -1, -2)


def _residuals(net, raw, targets):
    """Full-matrix residuals prediction - target (B, m, m) and per-sample losses (B,)."""
    resid = _matrix_from_upper(raw * raw, net.matrix_size) - targets
    return resid, 0.5 * np.sum(resid * resid, axis=(1, 2))


def _batch_loss_and_gradients(net, x, targets, masks):
    """Per-sample losses (B,) and the gradients of their sum, in one pass over the batch."""
    raw, (t1, h1, t2, h2) = _forward(net, x, masks)
    resid, losses = _residuals(net, raw, targets)
    iu = _upper_indices(net.matrix_size)
    # Each upper-triangle value appears twice in the symmetric matrix.
    d_raw = 2.0 * (resid[:, iu[0], iu[1]] + resid[:, iu[1], iu[0]]) * raw
    d_h2 = d_raw @ net.weights[2]
    if masks is not None:
        d_h2 = d_h2 * masks[1]
    d_pre2 = d_h2 * (1.0 - t2 * t2)
    d_h1 = d_pre2 @ net.weights[1]
    if masks is not None:
        d_h1 = d_h1 * masks[0]
    d_pre1 = d_h1 * (1.0 - t1 * t1)
    gw = [d_pre1.T @ x, d_pre2.T @ h1, d_raw.T @ h2]
    gb = [d_pre1.sum(axis=0), d_pre2.sum(axis=0), d_raw.sum(axis=0)]
    return losses, gw, gb


def keypoint_features(keypoints, width, height):
    """Regressor input vector: per-keypoint (u/width, v/height), flattened.

    Invisible keypoints are zeroed so the layout stays fixed-width.
    """
    scaled = keypoints.uv / np.array([float(width), float(height)])
    scaled = np.where(keypoints.visible[:, None], scaled, 0.0)
    return scaled.ravel()


def mlp_forward(net, keypoints, dropout_active=False, rng=None):
    """Predict a squared-distance matrix from a normalized keypoint vector.

    keypoints is the flat (2k,) vector of [0, 1] coordinates. When
    dropout_active is set, hidden units are dropped with the net's rate using
    rng, which is then required, so outputs are stochastic but seeded.
    """
    x = np.asarray(keypoints, dtype=float).reshape(1, -1)
    if x.shape[1] != net.layer_dims[0]:
        raise ValueError(f"input has {x.shape[1]} values, regressor expects {net.layer_dims[0]}")
    if not np.all(np.isfinite(x)):
        raise ValueError("keypoint inputs must be finite")
    masks = None
    if dropout_active:
        if rng is None:
            raise ValueError("dropout at inference needs a seeded rng")
        masks = _sample_masks(net, rng, 1)
    raw, _ = _forward(net, x, masks)
    return _matrix_from_upper(raw[0] * raw[0], net.matrix_size)


@dataclass
class AdamState:
    """First/second moment accumulators plus the number of steps taken."""

    m: list
    v: list
    step: int = 0

    @classmethod
    def zeros_like(cls, net):
        shapes = [w for w in net.weights] + [b for b in net.biases]
        return cls(m=[np.zeros_like(a) for a in shapes], v=[np.zeros_like(a) for a in shapes])

    def to_json(self):
        return {
            "m": [_encode_array(a) for a in self.m],
            "v": [_encode_array(a) for a in self.v],
            "step": int(self.step),
        }

    @classmethod
    def from_json(cls, obj, net):
        """The state saved by to_json, with one moment of each parameter's shape per parameter of net."""
        shapes = [a.shape for a in net.weights + net.biases]
        step = json_field(obj, "step", int, name="trainer_state.step")
        if step < 0:
            raise ValueError(f"trainer_state.step must be a non-negative integer, got {step!r}")
        return cls(
            m=_decode_arrays(obj["m"], shapes, "trainer_state.m"),
            v=_decode_arrays(obj["v"], shapes, "trainer_state.v"),
            step=step,
        )


# Adam's moment decay rates and denominator guard, at the usual values.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class TrainConfig:
    """Optimizer settings; steps counts total optimization steps.

    warmup_steps is absolute (100 = 5% of the default 2000-step run) so the
    learning rate is a function of the global step alone and checkpointed
    runs stay on the schedule of the run they continue.
    """

    steps: int = 2000
    batch_size: int = 32
    learning_rate: float = 1e-3
    warmup_steps: int = 100
    seed: int = 0
    start_step: int = 0

    def __post_init__(self):
        check_int_fields(self, steps=0, batch_size=1, warmup_steps=0, seed=0, start_step=0)
        check_float_fields(self, "learning_rate")
        if not self.learning_rate >= 0.0:
            raise ValueError(f"learning_rate must be finite and non-negative, got {self.learning_rate}")


def train_gim(net, dataset, cfg, adam_state=None):
    """Train the regressor on (keypoint vector, target matrix) pairs with Adam.

    Each step forwards and backpropagates its whole batch in one matrix pass.
    The step's generator first draws the batch indices, then the dropout
    masks as one (batch, h1 + h2) block, which consumes the stream exactly as
    batch successive per-sample (h1, h2) draws; results match a per-sample
    loop up to the rounding of the gradient sums. The learning rate ramps
    linearly over the first warmup_steps optimization steps, then stays
    constant. Batch selection, dropout masks, and the learning rate are pure
    functions of (cfg.seed, global step), so a run resumed from start_step
    with the saved Adam state reproduces the uninterrupted run bitwise.
    adam_state, when given, has its moments updated in place. Returns (net,
    trace, adam_state) where trace rows are (step, batch loss before the
    update).
    """
    inputs = [np.asarray(kp, dtype=float).reshape(-1) for kp, _ in dataset]
    if not inputs:
        raise ValueError("training dataset is empty")
    inputs = np.stack(inputs)
    targets = np.stack([np.asarray(tg, dtype=float) for _, tg in dataset])
    warmup_steps = max(1, int(cfg.warmup_steps))
    state = adam_state if adam_state is not None else AdamState.zeros_like(net)
    weights = [w.copy() for w in net.weights]
    biases = [b.copy() for b in net.biases]
    work = replace(net, layer_dims=list(net.layer_dims), weights=weights, biases=biases)
    params = weights + biases
    # the update's two scratch buffers, sized to the largest parameter
    size = max(param.size for param in params)
    scratch_a, scratch_b = np.empty(size), np.empty(size)
    trace = []
    inv = 1.0 / cfg.batch_size
    for step in range(cfg.start_step, cfg.steps):
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, step)))
        batch = rng.integers(0, len(inputs), size=cfg.batch_size)
        masks = _sample_masks(work, rng, cfg.batch_size)
        losses, gw, gb = _batch_loss_and_gradients(work, inputs[batch], targets[batch], masks)
        loss = float(np.sum(losses)) * inv
        if not math.isfinite(loss):
            raise TrainingDivergedError(f"loss became non-finite at step {step}")
        trace.append((step, loss))
        lr = cfg.learning_rate * min(1.0, (step + 1) / warmup_steps)
        t = step + 1
        for param, grad, m, v in zip(params, gw + gb, state.m, state.v):
            # Adam in place, each product and sum as in m = b1 m + (1 - b1) g,
            # v = b2 v + ((1 - b2) g) g, param -= (lr m_hat) / (sqrt(v_hat) + eps)
            g = np.multiply(grad, inv, out=scratch_a[: param.size].reshape(param.shape))
            tmp = scratch_b[: param.size].reshape(param.shape)
            m *= ADAM_BETA1
            m += np.multiply(g, 1.0 - ADAM_BETA1, out=tmp)
            v *= ADAM_BETA2
            v += np.multiply(np.multiply(g, 1.0 - ADAM_BETA2, out=tmp), g, out=tmp)
            np.multiply(np.divide(m, 1.0 - ADAM_BETA1**t, out=tmp), lr, out=tmp)
            np.sqrt(np.divide(v, 1.0 - ADAM_BETA2**t, out=g), out=g)
            g += ADAM_EPS
            param -= np.divide(tmp, g, out=tmp)
        state.step = t
    return work, trace, state
