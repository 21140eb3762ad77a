"""Serial-chain kinematics on standard (distal) DH parameters.

A chain is a list of revolute joints. Frame i is reached from frame i-1 by
Rz(theta_i + offset_i) * Tz(d_i) * Tx(a_i) * Rx(alpha_i). The skeleton used by
the distance-geometry stage attaches two points to every frame: the frame
origin p_i and the axis point q_i = p_i + R_i @ (0, 0, 1).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from importlib import resources

import numpy as np

from ._io import check_float_fields, json_field, json_record, read_json, write_json

_EYE3 = np.eye(3)


def wrap_angle(theta):
    """Wrap an angle (or array of angles) into (-pi, pi]."""
    if isinstance(theta, (float, int)):
        # Python's float % rounds exactly as np.remainder does
        wrapped = (float(theta) + math.pi) % (2.0 * math.pi) - math.pi
        return math.pi if wrapped == -math.pi else wrapped
    wrapped = np.remainder(np.asarray(theta, dtype=float) + math.pi, 2.0 * math.pi) - math.pi
    wrapped = np.where(wrapped == -math.pi, math.pi, wrapped)
    if np.ndim(theta) == 0:
        return float(wrapped)
    return wrapped


def check_rotation(rotation):
    """Return rotation as a float (3, 3) copy; raise ValueError unless it is
    finite, orthonormal within 1e-9 and of determinant +1 within 1e-9."""
    rot = np.array(rotation, dtype=float).reshape(3, 3)
    if not np.all(np.isfinite(rot)):
        raise ValueError("rotation entries must be finite")
    if np.max(np.abs(rot.T @ rot - _EYE3)) > 1e-9:
        raise ValueError("rotation is not orthonormal within 1e-9")
    if abs(np.linalg.det(rot) - 1.0) > 1e-9:
        raise ValueError("rotation determinant differs from +1 by more than 1e-9")
    return rot


def rotation_from_json(obj):
    """The (3, 3) rotation obj stores as "rotation", a flat row-major list of 9: that layout's one reader."""
    return json_field(obj, "rotation", float, (9,)).reshape(3, 3)


class RigidTransform:
    """An SE(3) element: orthonormal rotation (det +1) plus translation in meters.

    The constructor checks its inputs (no argument: the identity); a
    product trusts transforms that were checked when they were built.
    """

    __slots__ = ("rotation", "translation")

    def __init__(self, rotation=None, translation=None):
        rot = _EYE3.copy() if rotation is None else check_rotation(rotation)
        tra = np.zeros(3) if translation is None else np.array(translation, dtype=float).reshape(3)
        if not np.all(np.isfinite(tra)):
            raise ValueError("translation entries must be finite")
        rot.setflags(write=False)
        tra.setflags(write=False)
        self.rotation = rot
        self.translation = tra

    @classmethod
    def _unchecked(cls, rotation, translation):
        """Wrap a float (3, 3) rotation and (3,) translation already known to be
        valid, e.g. a product of valid transforms. Skips the checks and copies."""
        obj = cls.__new__(cls)
        rotation.setflags(write=False)
        translation.setflags(write=False)
        obj.rotation = rotation
        obj.translation = translation
        return obj

    @property
    def pair(self):
        return self.rotation, self.translation

    def __matmul__(self, other):
        """self applied after other."""
        return RigidTransform._unchecked(*compose(self.pair, other.pair))

    def apply(self, points):
        """Transform one point (3,) or a stack of points (..., 3)."""
        pts = np.asarray(points, dtype=float)
        return pts @ self.rotation.T + self.translation

    def to_json(self):
        return {
            "rotation": [float(v) for v in self.rotation.ravel()],
            "translation": [float(v) for v in self.translation],
        }

    @classmethod
    def from_json(cls, obj):
        return cls(rotation_from_json(obj), json_field(obj, "translation", float, (3,)))

    def __repr__(self):
        return f"RigidTransform(rotation={self.rotation.tolist()}, translation={self.translation.tolist()})"


def kabsch(src, dst):
    """Proper rotation + translation minimizing ||R src + t - dst||.

    src and dst are (n, 3) point sets, or stacks (..., n, 3) of them that
    broadcast against each other, solved in one pass; a stack returns
    (..., 3, 3) rotations and (..., 3) translations, each bitwise equal to
    solving its own pair alone.
    """
    src = np.asarray(src, dtype=float)
    dst = np.asarray(dst, dtype=float)
    c_src = src.mean(axis=-2)
    c_dst = dst.mean(axis=-2)
    h = np.swapaxes(src - c_src[..., None, :], -1, -2) @ (dst - c_dst[..., None, :])
    u, _, vt = np.linalg.svd(h)
    v, ut = np.swapaxes(vt, -1, -2), np.swapaxes(u, -1, -2)
    sign = np.sign(np.linalg.det(v @ ut))
    diag = np.ones(sign.shape + (3,))
    diag[..., 2] = np.where(sign == 0, 1.0, sign)
    rot = v * diag[..., None, :] @ ut
    return rot, c_dst - (rot @ c_src[..., None])[..., 0]


def rotation_geodesic(r_a, r_b):
    """Angle of the relative rotation between two rotation matrices, in radians.

    Uses atan2 of the skew part against the trace, which stays accurate near
    identity where the arccos form loses half the significant digits.
    """
    rel = np.asarray(r_a, dtype=float).T @ np.asarray(r_b, dtype=float)
    skew = 0.5 * np.array([rel[2, 1] - rel[1, 2], rel[0, 2] - rel[2, 0], rel[1, 0] - rel[0, 1]])
    cos_term = 0.5 * (np.trace(rel) - 1.0)
    return math.atan2(float(np.linalg.norm(skew)), float(cos_term))


def rot6d_to_matrix(r6):
    """Decode a 6-vector (two stacked 3-vectors) into a rotation matrix: the
    continuous 6D code of Zhou et al. (CVPR 2019), a rotation representation
    for network outputs.

    Gram-Schmidt: the first 3-vector fixes column one, the second is made
    orthogonal to it, and column three is their cross product. Degenerate
    inputs (zero or parallel vectors) raise ValueError.
    """
    r6 = np.asarray(r6, dtype=float).reshape(6)
    a1, a2 = r6[:3], r6[3:]
    n1 = np.linalg.norm(a1)
    if n1 < 1e-12:
        raise ValueError("first rotation column is numerically zero")
    b1 = a1 / n1
    w = a2 - np.dot(b1, a2) * b1
    n2 = np.linalg.norm(w)
    if n2 < 1e-12:
        raise ValueError("rotation columns are numerically parallel")
    b2 = w / n2
    return np.stack([b1, b2, np.cross(b1, b2)], axis=1)


def matrix_to_rot6d(rotation):
    """First two columns of the matrix, stacked into a 6-vector."""
    rotation = np.asarray(rotation, dtype=float).reshape(3, 3)
    return np.concatenate([rotation[:, 0], rotation[:, 1]])


@dataclass(frozen=True)
class JointSpec:
    """One revolute joint: standard DH constants plus joint limits (radians)."""

    a: float
    d: float
    alpha: float
    theta_offset: float = 0.0
    limit_lo: float = -math.pi
    limit_hi: float = math.pi

    def __post_init__(self):
        check_float_fields(self, "a", "d", "alpha", "theta_offset", "limit_lo", "limit_hi")
        if not self.limit_lo < self.limit_hi:
            raise ValueError(f"joint limits must satisfy lo < hi, got [{self.limit_lo}, {self.limit_hi}]")

    def to_json(self):
        return asdict(self)

    @classmethod
    def from_json(cls, obj):
        return cls(
            a=json_field(obj, "a", float),
            d=json_field(obj, "d", float),
            alpha=json_field(obj, "alpha", float),
            theta_offset=json_field(obj, "theta_offset", float, default=cls.theta_offset),
            limit_lo=json_field(obj, "limit_lo", float),
            limit_hi=json_field(obj, "limit_hi", float),
        )


@dataclass(frozen=True)
class KinematicChain:
    """A named serial chain: joints, base placement and the DH convention tag."""

    name: str
    joints: tuple
    base_frame: RigidTransform
    convention: str = "dh_standard"

    def __post_init__(self):
        if self.convention != "dh_standard":
            raise ValueError(f"unsupported DH convention: {self.convention!r}")
        if len(self.joints) < 1:
            raise ValueError("a chain needs at least one joint")
        if not isinstance(self.base_frame, RigidTransform):
            raise ValueError(f"base_frame must be a RigidTransform, got {self.base_frame!r}")
        object.__setattr__(self, "joints", tuple(self.joints))

    @property
    def dof(self):
        return len(self.joints)

    def limits(self):
        """Return (lo, hi) arrays of shape (dof,)."""
        lo = np.array([j.limit_lo for j in self.joints])
        hi = np.array([j.limit_hi for j in self.joints])
        return lo, hi

    def to_json(self):
        return {
            "name": self.name,
            "convention": self.convention,
            "joints": [j.to_json() for j in self.joints],
            "base_frame": self.base_frame.to_json(),
        }

    @classmethod
    def from_json(cls, obj):
        return cls(
            name=json_field(obj, "name", str),
            joints=tuple(json_record(f"joint {i}", JointSpec.from_json, j) for i, j in enumerate(obj["joints"])),
            base_frame=json_record("base_frame", RigidTransform.from_json, obj["base_frame"]),
            convention=json_field(obj, "convention", str, default=cls.convention),
        )

    def save(self, path):
        write_json(path, self.to_json())


def load_chain(path):
    """Load a chain definition from a JSON file."""
    return read_json(path, KinematicChain.from_json)


def builtin_chain(name):
    """Load one of the chain definitions shipped with the package."""
    ref = resources.files("armpose.data").joinpath(f"{name}.json")
    if not ref.is_file():
        raise ValueError(f"unknown builtin chain {name!r}")
    with resources.as_file(ref) as path:
        return load_chain(path)


def dh_transform(joint, theta):
    """Frame i-1 to frame i transform for one joint at angle theta (radians).

    Closed form of Rz(theta + offset) * Tz(d) * Tx(a) * Rx(alpha), which is
    proper by construction, so only the angle is checked.
    """
    theta = float(theta)
    if not math.isfinite(theta):
        raise ValueError("joint angle must be finite")
    phi = theta + joint.theta_offset
    cp, sp = math.cos(phi), math.sin(phi)
    ca, sa = math.cos(joint.alpha), math.sin(joint.alpha)
    a, d = joint.a, joint.d
    rot = np.array(
        [
            [cp, -sp * ca, sp * sa],
            [sp, cp * ca, -cp * sa],
            [0.0, sa, ca],
        ]
    )
    return RigidTransform._unchecked(rot, np.array([a * cp, a * sp, d]))


def check_configuration(chain, theta):
    """Validate a configuration vector: shape (dof,), finite entries."""
    arr = np.asarray(theta, dtype=float).reshape(-1)
    if arr.shape[0] != chain.dof:
        raise ValueError(f"configuration has {arr.shape[0]} angles, chain {chain.name!r} has {chain.dof} joints")
    if not np.all(np.isfinite(arr)):
        raise ValueError("configuration angles must be finite")
    return arr


def compose(frame, local):
    """The (rotation, translation) pair of frame applied after local, both pairs."""
    return frame[0] @ local[0], frame[0] @ local[1] + frame[1]


def _cross(a, b):
    """np.cross of two 3-vectors from plain floats: the products and
    differences np.cross forms, without its per-call array set-up."""
    (a0, a1, a2), (b0, b1, b2) = a.tolist(), b.tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def chain_frames(chain, theta, memo=None):
    """World <- frame i as (rotation, translation) pairs, i = 0..dof: the base frame, then
    each joint composed at theta, an unchecked array, with the DH locals kept in memo (by
    joint and angle bits) when given."""
    frames = [chain.base_frame.pair]
    memo = {} if memo is None else memo
    for i in range(chain.dof):
        key = (i, theta[i].tobytes())
        local = memo.get(key)
        if local is None:
            local = memo[key] = dh_transform(chain.joints[i], theta[i]).pair
        frames.append(compose(frames[i], local))
    return frames


def forward_kinematics(chain, theta):
    """Return one RigidTransform per joint, world <- frame i, i = 1..dof."""
    frames = chain_frames(chain, check_configuration(chain, theta))
    return [RigidTransform._unchecked(*frame) for frame in frames[1:]]


def skeleton_keypoints(chain, theta):
    """Base origin followed by each joint-frame origin, (dof + 1, 3)."""
    return np.vstack([t for _, t in chain_frames(chain, check_configuration(chain, theta))])


def joint_points(chain, theta):
    """The skeleton of a configuration as one (2n, 3) array: the frame origins
    p_1..p_n, then the axis points q_i = p_i + z_i."""
    frames = chain_frames(chain, check_configuration(chain, theta))[1:]
    p = np.array([t for _, t in frames])
    return np.vstack([p, p + np.array([r[:, 2] for r, _ in frames])])
