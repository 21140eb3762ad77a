"""Synthetic scene generation: configurations, cameras, keypoints, masks.

A dataset directory holds chain.json, camera.json, sampler.json,
scenes.jsonl (one Scene.to_json row per line, fixed key order) and each
scene's mask at Scene.silhouette, all written through _io. Every
random draw is keyed by (dataset seed, scene index, purpose), so scenes are
reproducible individually and independent of generation order.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, replace

import numpy as np

from ._io import (
    DatasetFormatError,
    check_float_fields,
    check_int_fields,
    json_field,
    json_record,
    read_json,
    read_jsonl,
    write_json,
    write_jsonl,
)
from .kinematics import RigidTransform, _cross, check_configuration, load_chain, skeleton_keypoints
from .poseinit import MIN_CORRESPONDENCES, CameraIntrinsics, Keypoints2D, scale_link_visible
from .silhouette import read_pgm, render_chain_silhouette, write_pgm

MAX_SCENE_ATTEMPTS = 50


class SceneGenerationError(RuntimeError):
    """Raised when a scene cannot be sampled."""


@dataclass(frozen=True)
class SamplerConfig:
    """Camera and noise distribution for synthetic scenes.

    Distances are in chain units, angles in radians. The camera sits on a
    sphere around the skeleton bounding-box center and looks at it with the
    world z axis up. noise_std is the per-axis pixel noise on keypoints.
    """

    distance: tuple = (1.8, 3.0)
    elevation: tuple = (0.05, 0.45)
    azimuth: tuple = (-math.pi, math.pi)
    image_width: int = 224
    image_height: int = 224
    focal: float = 260.0
    noise_std: float = math.sqrt(30.0)

    def __post_init__(self):
        for name in ("distance", "elevation", "azimuth"):
            lo, hi = json_field(vars(self), name, float, (2,))
            if hi < lo:
                raise ValueError(f"{name} range is inverted")
        if self.distance[0] <= 0:
            raise ValueError("camera distance must be positive")
        check_int_fields(self, image_width=1, image_height=1)
        check_float_fields(self, "focal", "noise_std")
        if not self.focal > 0:
            raise ValueError(f"focal must be finite and positive, got {self.focal}")
        if not self.noise_std >= 0:
            raise ValueError(f"noise_std must be finite and nonnegative, got {self.noise_std}")

    def intrinsics(self):
        return CameraIntrinsics(
            fx=self.focal,
            fy=self.focal,
            cx=self.image_width / 2.0,
            cy=self.image_height / 2.0,
            width=self.image_width,
            height=self.image_height,
        )

    def to_json(self):
        return asdict(self)

    @classmethod
    def from_json(cls, obj):
        return cls(
            distance=tuple(json_field(obj, "distance", float, (2,)).tolist()),
            elevation=tuple(json_field(obj, "elevation", float, (2,)).tolist()),
            azimuth=tuple(json_field(obj, "azimuth", float, (2,)).tolist()),
            image_width=json_field(obj, "image_width", int),
            image_height=json_field(obj, "image_height", int),
            focal=json_field(obj, "focal", float),
            noise_std=json_field(obj, "noise_std", float),
        )


@dataclass(frozen=True)
class Scene:
    """One synthetic observation with its ground truth.

    Its scenes.jsonl row is {index, theta, rotation, translation, keypoints,
    keypoints_true}, the pose and keypoints as their own to_json writes them.
    The mask is at silhouette, a path made from the non-negative index.
    """

    index: int
    theta: np.ndarray
    pose: RigidTransform
    keypoints: Keypoints2D
    keypoints_true: Keypoints2D

    def __post_init__(self):
        check_int_fields(self, index=0)

    @property
    def silhouette(self):
        """The mask's path inside the dataset directory."""
        return f"silhouettes/scene_{self.index:05d}.pgm"

    def to_json(self):
        return {
            "index": self.index,
            "theta": np.asarray(self.theta).tolist(),
            **self.pose.to_json(),
            "keypoints": self.keypoints.to_json(),
            "keypoints_true": self.keypoints_true.to_json(),
        }

    @classmethod
    def from_json(cls, obj):
        return cls(
            index=json_field(obj, "index", int),
            theta=json_field(obj, "theta", float, (None,)),
            pose=RigidTransform.from_json(obj),
            keypoints=json_record("keypoints", Keypoints2D.from_json, obj["keypoints"]),
            keypoints_true=json_record("keypoints_true", Keypoints2D.from_json, obj["keypoints_true"]),
        )


def look_at(camera_pos, target, up=(0.0, 0.0, 1.0)):
    """Camera-from-world transform for a camera at camera_pos facing target."""
    camera_pos = np.asarray(camera_pos, dtype=float)
    z = np.asarray(target, dtype=float) - camera_pos
    # each norm is np.linalg.norm's, sqrt(v.dot(v)), without its per-call dispatch
    dist = math.sqrt(z.dot(z))
    if dist < 1e-9:
        raise ValueError("camera sits on its target")
    z = z / dist
    x = _cross(z, np.asarray(up, dtype=float))
    nx = math.sqrt(x.dot(x))
    if nx < 1e-9:
        raise ValueError("view direction is parallel to the up vector")
    x = x / nx
    rot = np.array([x, _cross(z, x), z])
    return RigidTransform(rot, -rot @ camera_pos)


def project_keypoints(points, pose, k):
    """Project base-frame points to pixels with a visibility flag per point.

    A point is visible when it lands in front of the camera (``k.project``'s
    flag) and inside the image rectangle.
    """
    uv, front = k.project(pose.apply(points).T)
    u, v = uv
    visible = front & (u >= 0.0) & (u <= k.width - 1.0) & (v >= 0.0) & (v <= k.height - 1.0)
    return Keypoints2D(uv.T, visible)


def perturb_keypoints(keypoints, noise_std, seed):
    """Add i.i.d. Gaussian pixel noise; visibility flags are preserved."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    noise = rng.normal(0.0, noise_std, size=keypoints.uv.shape) if noise_std > 0 else 0.0
    return Keypoints2D(keypoints.uv + noise, keypoints.visible)


def sample_scene(chain, cfg, seed, index):
    """Draw one scene: configuration, camera, and true pixel keypoints.

    Retries with a fresh sub-seed until the view meets initial_estimate's
    visibility rules (``scale_link_visible``, ``MIN_CORRESPONDENCES``); gives up after 50 attempts.
    Returns (theta, pose, true keypoints).
    """
    k = cfg.intrinsics()
    lo, hi = chain.limits()
    for attempt in range(MAX_SCENE_ATTEMPTS):
        rng = np.random.default_rng(np.random.SeedSequence((seed, index, 0, attempt)))
        theta = rng.uniform(lo, hi)
        dist = rng.uniform(*cfg.distance)
        el = rng.uniform(*cfg.elevation)
        az = rng.uniform(*cfg.azimuth)
        points = skeleton_keypoints(chain, theta)
        target = 0.5 * (points.min(axis=0) + points.max(axis=0))
        camera_pos = target + dist * np.array(
            [math.cos(el) * math.cos(az), math.cos(el) * math.sin(az), math.sin(el)]
        )
        pose = look_at(camera_pos, target)
        keypoints = project_keypoints(points, pose, k)
        if scale_link_visible(keypoints.visible) and keypoints.visible.sum() >= MIN_CORRESPONDENCES:
            return theta, pose, keypoints
    raise SceneGenerationError(f"no valid view in {MAX_SCENE_ATTEMPTS} attempts")


def draw_scene(chain, cfg, seed, index):
    """The Scene build_scene makes for (seed, index), without rendering its
    mask: sample_scene's view, with the keypoint noise drawn from the key
    (seed, index, 1)."""
    theta, pose, keypoints_true = sample_scene(chain, cfg, seed, index)
    return Scene(
        index=index,
        theta=theta,
        pose=pose,
        keypoints=perturb_keypoints(keypoints_true, cfg.noise_std, (seed, index, 1)),
        keypoints_true=keypoints_true,
    )


def build_scene(chain, cfg, seed, index, meshes, render_settings):
    """Sample a scene and render its silhouette. Returns (Scene, mask)."""
    scene = draw_scene(chain, cfg, seed, index)
    render_seed = int(np.random.SeedSequence((seed, index, 2)).generate_state(1)[0])
    settings = replace(render_settings, seed=render_seed)
    mask = render_chain_silhouette(chain, scene.theta, meshes, scene.pose, cfg.intrinsics(), settings)
    return scene, mask


def write_dataset(out_dir, chain, cfg, scenes, masks):
    """Write chain.json, camera.json, sampler.json, scenes.jsonl and masks."""
    sil_dir = os.path.join(out_dir, "silhouettes")
    os.makedirs(sil_dir, exist_ok=True)
    chain.save(os.path.join(out_dir, "chain.json"))
    write_json(os.path.join(out_dir, "camera.json"), cfg.intrinsics().to_json())
    write_json(os.path.join(out_dir, "sampler.json"), cfg.to_json())
    for scene, mask in zip(scenes, masks):
        write_pgm(os.path.join(out_dir, scene.silhouette), mask)
    write_jsonl(os.path.join(out_dir, "scenes.jsonl"), (scene.to_json() for scene in scenes))


def read_dataset(in_dir):
    """Load a dataset directory. Returns (chain, intrinsics, sampler, scenes).

    A scene row must fit the chain (its angles, dof + 1 keypoints) and use
    an index no earlier row used.
    """
    chain = load_chain(os.path.join(in_dir, "chain.json"))
    k = read_json(os.path.join(in_dir, "camera.json"), CameraIntrinsics.from_json)
    cfg = read_json(os.path.join(in_dir, "sampler.json"), SamplerConfig.from_json)
    seen = set()

    def parse(obj):
        scene = Scene.from_json(obj)
        check_configuration(chain, scene.theta)
        if {len(scene.keypoints), len(scene.keypoints_true)} != {chain.dof + 1}:
            raise ValueError(f"chain {chain.name!r} needs {chain.dof + 1} keypoints per scene")
        if scene.index in seen:
            raise ValueError(f"scene {scene.index} is already on an earlier line")
        seen.add(scene.index)
        return scene

    scenes = read_jsonl(os.path.join(in_dir, "scenes.jsonl"), parse, "scene record")
    return chain, k, cfg, scenes


def load_scene_mask(in_dir, scene, k):
    """Read a scene's silhouette as a boolean mask; a DatasetFormatError
    naming the file when it does not fit camera k."""
    path = os.path.join(in_dir, scene.silhouette)
    mask = read_pgm(path) >= 128
    if mask.shape != (k.height, k.width):
        raise DatasetFormatError(f"{path}: mask is {mask.shape}, camera expects {(k.height, k.width)}")
    return mask
