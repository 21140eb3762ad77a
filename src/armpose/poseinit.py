"""Initial camera-to-robot pose from 2D keypoints.

Rotation comes from an EPnP solve over the visible keypoints against forward
kinematics at the initial configuration. The EPnP translation is discarded:
depth is recovered from the apparent length of the base-adjacent link in
normalized image coordinates, and the full translation back-projects the base
keypoint along its camera ray at that depth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kinematics import RigidTransform, check_configuration, kabsch, skeleton_keypoints


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
        if not (self.fx > 0 and self.fy > 0):
            raise ValueError("focal lengths must be positive")
        if not (self.width >= 1 and self.height >= 1):
            raise ValueError("image dimensions must be at least 1x1")

    def matrix(self):
        return np.array([[self.fx, 0.0, self.cx], [0.0, self.fy, self.cy], [0.0, 0.0, 1.0]])

    def normalized(self, uv):
        """Pixel coordinates to normalized image-plane coordinates."""
        pts = np.asarray(uv, dtype=float)
        return (pts - np.array([self.cx, self.cy])) / np.array([self.fx, self.fy])

    def project(self, points_cam):
        """Camera-frame points (..., 3) to pixel coordinates (..., 2)."""
        pts = np.asarray(points_cam, dtype=float)
        z = pts[..., 2]
        return np.stack(
            [self.fx * pts[..., 0] / z + self.cx, self.fy * pts[..., 1] / z + self.cy], axis=-1
        )

    def backproject(self, depth_scale, uv):
        """Point at camera depth depth_scale along the ray through pixel uv."""
        u, v = float(uv[0]), float(uv[1])
        return depth_scale * np.array([(u - self.cx) / self.fx, (v - self.cy) / self.fy, 1.0])

    def to_json(self):
        return {
            "fx": self.fx,
            "fy": self.fy,
            "cx": self.cx,
            "cy": self.cy,
            "width": self.width,
            "height": self.height,
        }

    @classmethod
    def from_json(cls, obj):
        return cls(
            fx=float(obj["fx"]),
            fy=float(obj["fy"]),
            cx=float(obj["cx"]),
            cy=float(obj["cy"]),
            width=int(obj["width"]),
            height=int(obj["height"]),
        )


@dataclass(frozen=True)
class Keypoints2D:
    """Pixel keypoints ordered base first, with per-point visibility flags."""

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
        return [
            {"u": float(u), "v": float(v), "visible": bool(w)}
            for (u, v), w in zip(self.uv, self.visible)
        ]

    @classmethod
    def from_json(cls, items):
        uv = np.array([[it["u"], it["v"]] for it in items], dtype=float)
        vis = np.array([it["visible"] for it in items], dtype=bool)
        return cls(uv, vis)


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


def _pairs(nc):
    return [(a, b) for a in range(nc) for b in range(a + 1, nc)]


def _rho(ctrl):
    return np.array([float(np.sum((ctrl[a] - ctrl[b]) ** 2)) for a, b in _pairs(len(ctrl))])


def _kernel_pair_diffs(kernel, nc):
    """For each kernel vector, the per-pair control-point differences (npairs, 3)."""
    diffs = []
    for col in range(kernel.shape[1]):
        pts = kernel[:, col].reshape(nc, 3)
        diffs.append(np.array([pts[a] - pts[b] for a, b in _pairs(nc)]))
    return diffs


def _solve_betas(kernel, nc, rho, count):
    """Linearized solve for the first `count` beta coefficients."""
    diffs = _kernel_pair_diffs(kernel, nc)
    npairs = len(rho)
    if count == 1:
        s = diffs[0]
        norms2 = np.einsum("ij,ij->i", s, s)
        dists = np.sqrt(rho)
        beta = float(np.sum(np.sqrt(norms2) * dists) / np.sum(norms2))
        return np.array([beta])
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


def _gauss_newton_betas(kernel, nc, rho, betas, iterations=10):
    """Polish a full-width beta vector on the control-point distance constraints."""
    diffs = _kernel_pair_diffs(kernel, nc)
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


def _pose_from_betas(kernel, nc, betas, alphas, pts3d):
    ctrl_cam = sum(betas[k] * kernel[:, k].reshape(nc, 3) for k in range(betas.shape[0]))
    pts_cam = alphas @ ctrl_cam
    if np.sum(pts_cam[:, 2] < 0.0) > pts_cam.shape[0] // 2:
        pts_cam = -pts_cam
    return kabsch(pts3d, pts_cam)


def _reprojection_error(rot, tra, pts3d, uv, k):
    """Mean pixel error; points behind the camera contribute a fixed penalty."""
    cam = pts3d @ rot.T + tra
    behind = cam[:, 2] <= 1e-9
    cam[behind, 2] = 1.0
    per_point = np.where(behind, 1e6, np.linalg.norm(k.project(cam) - uv, axis=1))
    return float(np.mean(per_point)), int(behind.sum())


def epnp(points3d, points2d, k):
    """Full-pose PnP via control-point parametrization.

    points3d (j, 3) in the world/robot frame, points2d (j, 2) in pixels, j >= 4.
    Returns (RigidTransform world->camera, mean reprojection error in pixels).
    Coplanar point sets drop to the three-control-point variant; collinear
    sets raise PnpDegenerateError. Candidate solutions from one, two, and
    three kernel vectors are each polished with Gauss-Newton on the
    control-point distances and the lowest reprojection error wins.
    """
    pts3d = np.asarray(points3d, dtype=float)
    uv = np.asarray(points2d, dtype=float)
    if pts3d.ndim != 2 or pts3d.shape[1] != 3 or uv.shape != (pts3d.shape[0], 2):
        raise ValueError("epnp expects (j, 3) points and matching (j, 2) pixels")
    if pts3d.shape[0] < 4:
        raise InsufficientCorrespondencesError(
            f"need at least 4 correspondences, got {pts3d.shape[0]}"
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

    best = None
    for count in (1, 2, 3) if not planar else (1, 2):
        seed = _solve_betas(kernel, nc, rho, count)
        # polish over the full kernel width regardless of the seeding order
        betas = np.zeros(n_kernel)
        betas[:count] = seed
        betas = _gauss_newton_betas(kernel, nc, rho, betas)
        rot, tra = _pose_from_betas(kernel, nc, betas, alphas, pts3d)
        err, behind = _reprojection_error(rot, tra, pts3d, uv, k)
        if best is None or err < best[0]:
            best = (err, rot, tra, behind)
    err, rot, tra, behind = best
    if behind > pts3d.shape[0] // 2:
        raise PnpDegenerateError("every candidate pose places most points behind the camera")
    return RigidTransform(rot, tra), err


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
    ni = k.normalized(np.asarray(kp_i, dtype=float))
    nj = k.normalized(np.asarray(kp_j, dtype=float))
    den = float(np.linalg.norm(ni - nj))
    if den < 1e-12:
        raise ScaleUndefinedError("keypoints coincide in normalized coordinates")
    return float(link_length) / den


def translation_from_scale(scale, k, p_base_pixel):
    """Camera-frame translation: the base keypoint's ray scaled to depth `scale`."""
    if scale <= 0:
        raise ValueError("scale must be positive")
    return k.backproject(float(scale), p_base_pixel)


def initial_estimate(keypoints, theta_init, chain, k):
    """Assemble the geometric initialization for one scene.

    Solves EPnP over the visible keypoints against forward kinematics at
    theta_init (keypoint order: base frame origin, then each joint origin),
    keeps only its rotation, and rebuilds the translation from the base
    keypoint ray at the scale of the base-adjacent link. The base and first
    joint keypoints must both be visible for the scale to exist.
    """
    from .refine import Estimate

    theta = check_configuration(chain, theta_init)
    if len(keypoints) != chain.dof + 1:
        raise ValueError(
            f"expected {chain.dof + 1} keypoints (base plus joints), got {len(keypoints)}"
        )
    pts3d = skeleton_keypoints(chain, theta)
    vis = keypoints.visible
    if int(vis.sum()) < 4:
        raise InsufficientCorrespondencesError(
            f"only {int(vis.sum())} keypoints visible, need at least 4"
        )
    pose, _ = epnp(pts3d[vis], keypoints.uv[vis], k)
    if not (vis[0] and vis[1]):
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
