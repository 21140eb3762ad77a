"""Initial camera-to-robot pose and configuration from 2D keypoints.

estimate_from_distances is the geometric initialization: classical MDS of a
skeleton distance matrix, anchor alignment and the analytic IK give the
configuration. Rotation then comes from an EPnP solve over the visible
keypoints against forward kinematics at that configuration. The EPnP
translation is discarded: depth is recovered from the apparent length of the
base-adjacent link in normalized image coordinates, and the full translation
back-projects the base keypoint along its camera ray at that depth. The
result is an ``Estimate``, the record that refinement then moves and the CLI
reads and writes.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from ._io import check_float_fields, check_int_fields, json_field, json_record
from .distgeo import align_points, configuration_from_points, gram_from_edm, points_from_gram
from .kinematics import RigidTransform, check_configuration, check_rotation, kabsch, rotation_from_json
from .kinematics import skeleton_keypoints

# A camera-frame point is in front of the camera when its depth exceeds this;
# rendering, keypoint visibility and EPnP scoring all read it from project.
NEAR_PLANE = 1e-6

# EPnP's fewest correspondences: the visible keypoints initial_estimate and gen need
MIN_CORRESPONDENCES = 4


class InsufficientCorrespondencesError(ValueError):
    """Fewer than four usable 2D-3D correspondences."""


class PnpDegenerateError(RuntimeError):
    """The 3D points span too little of space to determine a pose."""


class ScaleUndefinedError(ValueError):
    """The scale factor cannot be computed from the given keypoints."""


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics in pixels plus the image size they refer to."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        where = "focal lengths and principal point must be finite"
        json_record(where, lambda record: check_float_fields(record, "fx", "fy", "cx", "cy"), self)
        if not (self.fx > 0 and self.fy > 0):
            raise ValueError("focal lengths must be positive")
        check_int_fields(self, width=1, height=1)

    def project(self, points):
        """Camera-frame points, coordinates on the first axis (3, ...), to
        (pixels (2, ...), front): each pixel is ``(f * x) / z + c`` and front
        is ``z > NEAR_PLANE``. A point not in front is projected from depth
        1, so its pixel is finite; its flag says to ignore it."""
        pts = np.asarray(points, dtype=float)
        z = pts[2]
        front = z > NEAR_PLANE
        # count_nonzero is the cheaper test that every flag is set (this
        # runs on every refine probe)
        if np.count_nonzero(front) < front.size:
            z = np.where(front, z, 1.0)
        # (fx, fy) and (cx, cy) as columns (2, 1, ...) over the points
        uv = np.multiply(np.array([self.fx, self.fy], ndmin=pts.ndim).T, pts[:2])
        uv /= z
        uv += np.array([self.cx, self.cy], ndmin=pts.ndim).T
        return uv, front

    def backproject(self, depth_scale, uv):
        """Point at camera depth depth_scale along the ray through pixel uv."""
        u, v = float(uv[0]), float(uv[1])
        return depth_scale * np.array([(u - self.cx) / self.fx, (v - self.cy) / self.fy, 1.0])

    def to_json(self):
        return asdict(self)

    @classmethod
    def from_json(cls, obj):
        return cls(
            fx=json_field(obj, "fx", float),
            fy=json_field(obj, "fy", float),
            cx=json_field(obj, "cx", float),
            cy=json_field(obj, "cy", float),
            width=json_field(obj, "width", int),
            height=json_field(obj, "height", int),
        )


def _camera_pose(rotation, scale, base_pixel, k):
    """Camera-from-base pose: the base sits at scale along the ray through
    base_pixel. rotation must already be a checked proper rotation."""
    return RigidTransform._unchecked(rotation, k.backproject(scale, base_pixel))


@dataclass(frozen=True)
class Estimate:
    """Joint angles plus camera-from-base pose split as (rotation, ray scale).

    The translation is recovered as scale * Kinv @ (u, v, 1) for the stored
    base pixel, so refinement moves the base along its viewing ray.
    """

    theta: np.ndarray
    rotation: np.ndarray
    scale: float
    base_pixel: np.ndarray
    provenance: str = "initial"

    def __post_init__(self):
        # theta may be non-finite here; forward kinematics rejects it on use
        theta = np.array(self.theta, dtype=float).reshape(-1)
        rot = check_rotation(self.rotation)
        scale = float(self.scale)
        if not (math.isfinite(scale) and scale > 0.0):
            raise ValueError("estimate scale must be finite and positive")
        pix = np.array(self.base_pixel, dtype=float).reshape(2)
        if not np.all(np.isfinite(pix)):
            raise ValueError("estimate base pixel must be finite")
        for arr in (theta, rot, pix):
            arr.flags.writeable = False
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "base_pixel", pix)

    def pose(self, k):
        """Camera-from-base transform implied by this estimate."""
        return _camera_pose(self.rotation, self.scale, self.base_pixel, k)

    @classmethod
    def from_pose(cls, theta, pose, k, provenance="initial"):
        """The estimate whose pose(k) is pose up to rounding: the base origin's
        depth is the scale and its projection the base pixel. A base not past
        the near plane raises ValueError."""
        t = pose.translation
        pixel, front = k.project(t)
        if not front:
            raise ValueError(f"the base origin's depth {t[2]} is not past the near plane {NEAR_PLANE}")
        return cls(theta, pose.rotation, float(t[2]), pixel, provenance)

    def to_json(self):
        # rotation is stored row-major as a flat list of 9 floats
        return {
            "theta": self.theta.tolist(),
            "rotation": self.rotation.ravel().tolist(),
            "lambda": self.scale,
            "p_base_pixel": self.base_pixel.tolist(),
            "provenance": self.provenance,
        }

    @classmethod
    def from_json(cls, obj):
        return cls(
            theta=json_field(obj, "theta", float, (None,)),
            rotation=rotation_from_json(obj),
            scale=json_field(obj, "lambda", float),
            base_pixel=json_field(obj, "p_base_pixel", float, (2,)),
            provenance=json_field(obj, "provenance", str, default=cls.provenance),
        )


@dataclass(frozen=True)
class Keypoints2D:
    """Pixel keypoints ordered base first, with per-point visibility flags,
    stored as they are held: {"uv": [[u, v], ...], "visible": [...]}."""

    uv: np.ndarray
    visible: np.ndarray

    def __post_init__(self):
        uv = np.array(self.uv, dtype=float)
        vis = np.array(self.visible, dtype=bool)
        if uv.ndim != 2 or uv.shape[1] != 2 or vis.shape != (uv.shape[0],):
            raise ValueError("keypoints need (k, 2) coordinates and (k,) visibility")
        if not np.all(np.isfinite(uv)):
            raise ValueError("keypoint coordinates must be finite")
        uv.flags.writeable = False
        vis.flags.writeable = False
        object.__setattr__(self, "uv", uv)
        object.__setattr__(self, "visible", vis)

    def __len__(self):
        return self.uv.shape[0]

    def to_json(self):
        return {"uv": self.uv.tolist(), "visible": self.visible.tolist()}

    @classmethod
    def from_json(cls, obj):
        return cls(json_field(obj, "uv", float, (None, 2)), json_field(obj, "visible", bool, (None,)))


# ---------------------------------------------------------------------------
# EPnP


def _control_points(pts):
    """Centroid plus principal directions; drops to 3 points for planar sets."""
    centroid = pts.mean(axis=0)
    centered = pts - centroid
    cov = centered.T @ centered / pts.shape[0]
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1]
    evals = evals[order]
    evecs = evecs[:, order]
    if evals[1] < 1e-10 * max(evals[0], 1e-12):
        raise PnpDegenerateError("3D points are collinear; pose is underdetermined")
    planar = evals[2] < 1e-8 * evals[0]
    n_ctrl = 3 if planar else 4
    ctrl = [centroid]
    for k in range(n_ctrl - 1):
        ctrl.append(centroid + math.sqrt(evals[k]) * evecs[:, k])
    return np.array(ctrl), planar


def _barycentric(pts, ctrl):
    """Coordinates of each point in the control-point affine basis (rows sum to 1)."""
    basis = (ctrl[1:] - ctrl[0]).T  # 3 x (nc-1)
    rel = (pts - ctrl[0]).T  # 3 x j
    coeff, *_ = np.linalg.lstsq(basis, rel, rcond=None)
    alphas = np.zeros((pts.shape[0], ctrl.shape[0]))
    alphas[:, 1:] = coeff.T
    alphas[:, 0] = 1.0 - coeff.T.sum(axis=1)
    return alphas


def _build_m(alphas, uv, k):
    """The (2j, 3nc) projection system: rows 2i and 2i + 1 hold point i's u and v
    equations, columns 3c to 3c + 2 control point c's camera coordinates."""
    j, nc = alphas.shape
    m = np.zeros((2 * j, 3 * nc))
    m[0::2, 0::3] = alphas * k.fx
    m[0::2, 2::3] = alphas * (k.cx - uv[:, 0:1])
    m[1::2, 1::3] = alphas * k.fy
    m[1::2, 2::3] = alphas * (k.cy - uv[:, 1:2])
    return m


# Control-point pair indices for the planar (3) and general (4) cases.
_PAIRS = {nc: np.triu_indices(nc, k=1) for nc in (3, 4)}

# Unknowns of the linearized distance equations for two and three kernel
# vectors: the products b_a b_c as kernel indices a and c, each with its
# weight (2 for a cross term). The solution lists them in this order.
_BETA_TERMS = {
    2: ([0, 0, 1], [0, 1, 1], [1.0, 2.0, 1.0]),
    3: ([0, 0, 1, 0, 1, 2], [0, 1, 1, 2, 2, 2], [1.0, 2.0, 1.0, 2.0, 2.0, 1.0]),
}


def _rho(ctrl):
    """Squared distances between control-point pairs, in np.triu_indices order."""
    a, b = _PAIRS[len(ctrl)]
    return np.sum((ctrl[a] - ctrl[b]) ** 2, axis=1)


def _kernel_pair_diffs(kernel, nc):
    """Per-pair control-point differences of every kernel vector, (nb, npairs, 3).

    C-contiguous on purpose: the row-wise dot products of _pair_gram round
    differently on strided views.
    """
    pts = kernel.T.reshape(kernel.shape[1], nc, 3)
    a, b = _PAIRS[nc]
    return np.ascontiguousarray(pts[:, a] - pts[:, b])


def _pair_gram(diffs):
    """g[l, p, k] = diffs[l, p] . diffs[k, p], shape (nb, npairs, nb)."""
    return np.einsum("lpi,kpi->lpk", diffs, diffs)


def _solve_betas(gram, rho, count):
    """Linearized solve for the first `count` beta coefficients."""
    if count == 1:
        norms2 = gram[0, :, 0]
        dists = np.sqrt(rho)
        beta = float(np.sum(np.sqrt(norms2) * dists) / np.sum(norms2))
        return np.array([beta])
    rows, cols, weights = _BETA_TERMS[count]
    sol, *_ = np.linalg.lstsq(gram[rows, :, cols].T * weights, rho, rcond=None)
    betas = [math.sqrt(abs(sol[0])), math.sqrt(abs(sol[2])) * (1.0 if sol[1] >= 0 else -1.0)]
    if count == 3:
        betas.append(math.sqrt(abs(sol[5])) * (1.0 if sol[3] >= 0 else -1.0))
    return np.array(betas)


def _gauss_newton_betas(gram, rho, betas, iterations=10):
    """Polish candidate beta vectors (S, nb) on the control-point distance constraints.

    The squared pair distances are betas . h with h = betas g, and their
    Jacobian is 2 h. Every candidate steps together: one batched
    normal-equation solve per iteration. An exactly singular system falls
    back to the minimum-norm least-squares step.
    """
    nb, npairs = gram.shape[:2]
    flat = gram.reshape(nb, npairs * nb)
    for _ in range(iterations):
        h = (betas @ flat).reshape(len(betas), npairs, nb)
        resid = h @ betas[..., None] - rho[:, None]
        h_t = np.swapaxes(h, 1, 2)
        try:
            step = np.linalg.solve(h_t @ h, h_t @ resid)
        except np.linalg.LinAlgError:
            step = np.linalg.pinv(h) @ resid
        betas = betas - 0.5 * step[..., 0]
    return betas


def _poses_from_betas(kernel, nc, betas, alphas, pts3d):
    """Kabsch pose of every candidate (S, nb), mirrored in front of the camera
    when most of its points land behind it. Returns (S, 3, 3) and (S, 3)."""
    ctrl_cam = (betas @ kernel.T).reshape(len(betas), nc, 3)
    pts_cam = alphas @ ctrl_cam
    flip = np.sum(pts_cam[..., 2] < 0.0, axis=1) > pts_cam.shape[1] // 2
    pts_cam = np.where(flip[:, None, None], -pts_cam, pts_cam)
    return kabsch(pts3d, pts_cam)


def _reprojection_errors(rots, tras, pts3d, uv, k):
    """Mean pixel error of each candidate pose and its count of points behind the
    camera; points behind the camera contribute a fixed penalty."""
    cam = pts3d @ np.swapaxes(rots, 1, 2) + tras[:, None, :]
    pix, front = k.project(cam.transpose(2, 0, 1))
    per_point = np.where(front, np.linalg.norm(pix.transpose(1, 2, 0) - uv, axis=-1), 1e6)
    return per_point.mean(axis=1), np.count_nonzero(~front, axis=1)


def epnp(points3d, points2d, k):
    """Full-pose PnP via control-point parametrization.

    points3d (j, 3) in the world/robot frame, points2d (j, 2) in pixels, j >= 4.
    Returns (RigidTransform world->camera, mean reprojection error in pixels).
    Coplanar point sets drop to the three-control-point variant; collinear
    sets raise PnpDegenerateError. Candidate solutions seeded from one, two,
    and three kernel vectors are polished together with Gauss-Newton on the
    control-point distances and the lowest reprojection error wins, the
    earlier seed on a tie.
    """
    pts3d = np.asarray(points3d, dtype=float)
    uv = np.asarray(points2d, dtype=float)
    if pts3d.ndim != 2 or pts3d.shape[1] != 3 or uv.shape != (pts3d.shape[0], 2):
        raise ValueError("epnp expects (j, 3) points and matching (j, 2) pixels")
    if pts3d.shape[0] < MIN_CORRESPONDENCES:
        raise InsufficientCorrespondencesError(
            f"need at least {MIN_CORRESPONDENCES} correspondences, got {pts3d.shape[0]}"
        )
    if not (np.all(np.isfinite(pts3d)) and np.all(np.isfinite(uv))):
        raise ValueError("correspondences must be finite")

    ctrl, planar = _control_points(pts3d)
    nc = ctrl.shape[0]
    alphas = _barycentric(pts3d, ctrl)
    m = _build_m(alphas, uv, k)
    mtm = m.T @ m
    _, evecs = np.linalg.eigh(mtm)
    n_kernel = 3 if planar else 4
    kernel = evecs[:, :n_kernel]
    rho = _rho(ctrl)
    gram = _pair_gram(_kernel_pair_diffs(kernel, nc))

    counts = (1, 2) if planar else (1, 2, 3)
    # polish over the full kernel width regardless of the seeding order
    betas = np.zeros((len(counts), n_kernel))
    for s, count in enumerate(counts):
        betas[s, :count] = _solve_betas(gram, rho, count)
    betas = _gauss_newton_betas(gram, rho, betas)
    rots, tras = _poses_from_betas(kernel, nc, betas, alphas, pts3d)
    errs, behind = _reprojection_errors(rots, tras, pts3d, uv, k)
    best = 0
    for s in range(1, len(counts)):
        if errs[s] < errs[best]:
            best = s
    if behind[best] > pts3d.shape[0] // 2:
        raise PnpDegenerateError("every candidate pose places most points behind the camera")
    return RigidTransform(rots[best], tras[best]), float(errs[best])


# ---------------------------------------------------------------------------
# scale and translation


def scale_factor(kp_i, kp_j, link_length, k):
    """Depth-like scale from one link's apparent length.

    Ratio of the 3D link length to the distance between the two keypoints in
    normalized image coordinates. Exact depth for a fronto-parallel link;
    foreshortened links overestimate.
    """
    if link_length <= 0:
        raise ValueError("link length must be positive")
    ni = k.backproject(1.0, kp_i)[:2]
    nj = k.backproject(1.0, kp_j)[:2]
    den = float(np.linalg.norm(ni - nj))
    if den < 1e-12:
        raise ScaleUndefinedError("keypoints coincide in normalized coordinates")
    return float(link_length) / den


def scale_link_visible(visible):
    """Whether the base and first-joint keypoints, whose link gives the scale, are visible."""
    return bool(visible[0] and visible[1])


def initial_estimate(keypoints, theta_init, chain, k):
    """Assemble the geometric initialization for one scene.

    Solves EPnP over the visible keypoints against forward kinematics at
    theta_init (keypoint order: base frame origin, then each joint origin),
    keeps only its rotation, and rebuilds the translation from the base
    keypoint ray at the scale of the base-adjacent link. The base and first
    joint keypoints must both be visible for the scale to exist.
    """
    theta = check_configuration(chain, theta_init)
    if len(keypoints) != chain.dof + 1:
        raise ValueError(
            f"expected {chain.dof + 1} keypoints (base plus joints), got {len(keypoints)}"
        )
    pts3d = skeleton_keypoints(chain, theta)
    vis = keypoints.visible
    if int(vis.sum()) < MIN_CORRESPONDENCES:
        raise InsufficientCorrespondencesError(
            f"only {int(vis.sum())} keypoints visible, need at least {MIN_CORRESPONDENCES}"
        )
    pose, _ = epnp(pts3d[vis], keypoints.uv[vis], k)
    if not scale_link_visible(vis):
        raise ScaleUndefinedError("base and first-joint keypoints must be visible for scale")
    link_length = float(np.linalg.norm(pts3d[1] - pts3d[0]))
    lam = scale_factor(keypoints.uv[0], keypoints.uv[1], link_length, k)
    return Estimate(
        theta=theta,
        rotation=pose.rotation,
        scale=lam,
        base_pixel=keypoints.uv[0],
        provenance="initial",
    )


def estimate_from_distances(keypoints, distances, chain, k, targets=None):
    """The geometric initialization of one scene from its skeleton distances.

    Embeds the squared-distance matrix by classical MDS, aligns the cloud onto
    targets (a (2n, 3) skeleton; None for the canonical alignment), reads the
    configuration off it with the analytic IK, and completes it with
    initial_estimate. MDS and the IK warn on a matrix no point set realizes
    and on a joint they cannot read.
    """
    cloud = points_from_gram(gram_from_edm(distances))
    theta = configuration_from_points(chain, align_points(cloud, chain, targets))
    return initial_estimate(keypoints, theta, chain, k)
