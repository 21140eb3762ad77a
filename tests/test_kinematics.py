import json
import math

import numpy as np
import pytest

from armpose import (
    JointSpec,
    KinematicChain,
    RigidTransform,
    builtin_chain,
    check_configuration,
    dh_transform,
    forward_kinematics,
    joint_points,
    load_chain,
    rotation_geodesic,
    wrap_angle,
)
from armpose.kinematics import kabsch


def _as_matrix(transform):
    """The 4 x 4 homogeneous matrix of a RigidTransform."""
    mat = np.eye(4)
    mat[:3, :3] = transform.rotation
    mat[:3, 3] = transform.translation
    return mat


def _dh_matrix_oracle(a, d, alpha, phi):
    """Standard DH homogeneous matrix written out entry by entry."""
    cp, sp = math.cos(phi), math.sin(phi)
    ca, sa = math.cos(alpha), math.sin(alpha)
    return np.array(
        [
            [cp, -sp * ca, sp * sa, a * cp],
            [sp, cp * ca, -cp * sa, a * sp],
            [0.0, sa, ca, d],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )


def test_wrap_angle_convention():
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)
    assert wrap_angle(math.pi + 0.1) == pytest.approx(-math.pi + 0.1)
    assert wrap_angle(3.0 * math.pi) == pytest.approx(math.pi)
    arr = wrap_angle(np.array([0.3, 2.0 * math.pi + 0.3, -7.0]))
    assert arr[0] == pytest.approx(0.3)
    assert arr[1] == pytest.approx(0.3)
    assert arr[2] == pytest.approx(-7.0 + 2.0 * math.pi)


def test_wrap_angle_scalar_path_matches_array_path_bitwise():
    rng = np.random.default_rng(12)
    values = np.concatenate(
        [rng.normal(scale=s, size=2000) for s in (1.0, 10.0, 1e6)]
        + [[math.pi, -math.pi, 3.0 * math.pi, -3.0 * math.pi, 0.0, -0.0, 2.0 * math.pi]]
        + [[math.nextafter(math.pi, 0.0), math.nextafter(-math.pi, 0.0), 1e300]]
    )
    wrapped = wrap_angle(values)
    for value, want in zip(values.tolist(), wrapped.tolist()):
        got = wrap_angle(value)
        assert isinstance(got, float)
        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)
    assert wrap_angle(np.float64(7.0)) == wrap_angle(np.array(7.0)) == wrap_angle(7)


def test_dh_transform_matches_hand_composed_matrix():
    joint = JointSpec(a=0.5, d=0.2, alpha=math.pi / 2, theta_offset=0.1)
    theta = 0.3
    got = _as_matrix(dh_transform(joint, theta))
    want = _dh_matrix_oracle(0.5, 0.2, math.pi / 2, theta + 0.1)
    assert np.max(np.abs(got - want)) < 1e-15


def test_dh_transform_zero_joint_is_identity():
    joint = JointSpec(a=0.0, d=0.0, alpha=0.0)
    got = _as_matrix(dh_transform(joint, 0.0))
    assert np.max(np.abs(got - np.eye(4))) < 1e-15


def test_rigid_transform_group_properties():
    rng = np.random.default_rng(11)
    for _ in range(25):
        j1 = JointSpec(a=rng.uniform(-1, 1), d=rng.uniform(-1, 1), alpha=rng.uniform(-3, 3))
        j2 = JointSpec(a=rng.uniform(-1, 1), d=rng.uniform(-1, 1), alpha=rng.uniform(-3, 3))
        t1 = dh_transform(j1, rng.uniform(-3, 3))
        t2 = dh_transform(j2, rng.uniform(-3, 3))
        pts = rng.normal(size=(6, 3))
        composed = (t1 @ t2).apply(pts)
        chained = t1.apply(t2.apply(pts))
        assert np.max(np.abs(composed - chained)) < 1e-12
        round_trip = (t1.apply(pts) - t1.translation) @ t1.rotation  # the inverse, R^T (p - t)
        assert np.max(np.abs(round_trip - pts)) < 1e-12
    ident = RigidTransform()
    assert np.array_equal(_as_matrix(ident), np.eye(4))


def test_rotation_geodesic_oracle():
    phi = 0.7
    rz = np.array(
        [
            [math.cos(phi), -math.sin(phi), 0.0],
            [math.sin(phi), math.cos(phi), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    assert rotation_geodesic(np.eye(3), rz) == pytest.approx(phi, abs=1e-12)
    assert rotation_geodesic(rz, rz) == pytest.approx(0.0, abs=1e-7)


def test_planar_two_link_forward_kinematics_oracle():
    chain = builtin_chain("planar2")
    for t1, t2 in [(0.0, 0.0), (math.pi / 2, 0.0), (0.4, -0.9), (-1.2, 2.1)]:
        frames = forward_kinematics(chain, np.array([t1, t2]))
        elbow = np.array([math.cos(t1), math.sin(t1), 0.0])
        tip = elbow + np.array([math.cos(t1 + t2), math.sin(t1 + t2), 0.0])
        assert np.max(np.abs(frames[0].translation - elbow)) < 1e-12
        assert np.max(np.abs(frames[1].translation - tip)) < 1e-12


def test_forward_kinematics_equals_incremental_dh_products():
    # bit for bit: the walk composes with kinematics.compose, as RigidTransform @ does
    for name in ("panda7", "planar2"):
        chain = builtin_chain(name)
        rng = np.random.default_rng(5)
        lo, hi = chain.limits()
        for _ in range(20):
            theta = rng.uniform(lo - 1.0, hi + 1.0)
            frames = forward_kinematics(chain, theta)
            assert len(frames) == chain.dof
            acc = chain.base_frame
            for joint, ang, frame in zip(chain.joints, theta, frames):
                acc = acc @ dh_transform(joint, ang)
                assert isinstance(frame, RigidTransform)
                assert (frame.rotation == acc.rotation).all()
                assert (frame.translation == acc.translation).all()
                assert not frame.rotation.flags.writeable
                assert not frame.translation.flags.writeable


def test_validation_stays_at_the_boundaries():
    with pytest.raises(ValueError):
        RigidTransform(np.eye(3) * 1.01, np.zeros(3))
    with pytest.raises(ValueError):
        RigidTransform(np.diag([1.0, 1.0, -1.0]), np.zeros(3))  # a reflection
    with pytest.raises(ValueError):
        RigidTransform(np.eye(3), np.array([0.0, float("nan"), 0.0]))
    with pytest.raises(ValueError):
        RigidTransform(np.full((3, 3), float("inf")))
    chain = builtin_chain("panda7")
    with pytest.raises(ValueError):
        forward_kinematics(chain, np.zeros(chain.dof - 1))
    with pytest.raises(ValueError):
        forward_kinematics(chain, np.zeros(chain.dof + 1))
    theta = np.zeros(chain.dof)
    theta[3] = float("nan")
    with pytest.raises(ValueError):
        forward_kinematics(chain, theta)
    # derived transforms skip the checks but match the checked constructor
    with pytest.raises(ValueError):
        dh_transform(chain.joints[0], float("nan"))
    joint = chain.joints[2]
    m = _dh_matrix_oracle(joint.a, joint.d, joint.alpha, 0.7 + joint.theta_offset)
    t1 = dh_transform(joint, 0.7)
    t2 = RigidTransform(dh_transform(chain.joints[5], -1.3).rotation, [0.3, -0.2, 0.9])
    r1, r2 = t1.rotation, t2.rotation
    pairs = [
        (t1, RigidTransform(m[:3, :3], m[:3, 3])),
        (t1 @ t2, RigidTransform(r1 @ r2, r1 @ t2.translation + t1.translation)),
    ]
    for derived, checked in pairs:
        assert np.array_equal(derived.rotation, checked.rotation)
        assert np.array_equal(derived.translation, checked.translation)
        assert not derived.rotation.flags.writeable
        assert not derived.translation.flags.writeable


def test_joint_points_layout():
    chain = builtin_chain("panda7")
    theta = np.zeros(chain.dof)
    pts = joint_points(chain, theta)
    frames = forward_kinematics(chain, theta)
    assert pts.shape == (2 * chain.dof, 3)
    for i, frame in enumerate(frames):
        assert np.max(np.abs(pts[i] - frame.translation)) < 1e-12
        assert np.max(np.abs(pts[chain.dof + i] - (frame.translation + frame.rotation[:, 2]))) < 1e-12


def test_check_configuration_rejects_bad_input():
    chain = builtin_chain("planar2")
    with pytest.raises(ValueError):
        check_configuration(chain, np.array([0.0]))
    with pytest.raises(ValueError):
        check_configuration(chain, np.array([0.0, float("inf")]))
    # limits do not gate FK; out-of-range angles are still a valid configuration
    theta = check_configuration(chain, [0.1, 3.5])
    assert theta.shape == (2,)


def test_joint_limits_validation():
    with pytest.raises(ValueError):
        JointSpec(a=0.1, d=0.0, alpha=0.0, limit_lo=1.0, limit_hi=1.0)
    with pytest.raises(ValueError):
        JointSpec(a=float("nan"), d=0.0, alpha=0.0)


def test_chain_save_load_round_trip(tmp_path):
    chain = builtin_chain("panda7")
    path = tmp_path / "chain.json"
    chain.save(path)
    again = load_chain(path)
    assert again.name == chain.name
    assert again.dof == chain.dof
    for a, b in zip(again.joints, chain.joints):
        assert a == b
    assert np.array_equal(_as_matrix(again.base_frame), _as_matrix(chain.base_frame))
    # file must be valid plain JSON
    with open(path, "r", encoding="utf-8") as fh:
        blob = json.load(fh)
    # files that still carry the retired link_mesh_ids key load the same
    assert "link_mesh_ids" not in blob
    blob["link_mesh_ids"] = [f"link{i}" for i in range(chain.dof + 1)]
    path.write_text(json.dumps(blob, indent=2) + "\n", encoding="utf-8")
    assert load_chain(path).to_json() == chain.to_json()


def test_builtin_chain_names():
    assert builtin_chain("panda7").dof == 7
    assert builtin_chain("planar2").dof == 2
    with pytest.raises(ValueError, match="unknown builtin chain 'nope'"):
        builtin_chain("nope")


def test_unsupported_convention_rejected():
    with pytest.raises(ValueError):
        KinematicChain(
            name="bad",
            joints=(JointSpec(a=1.0, d=0.0, alpha=0.0),),
            base_frame=RigidTransform(),
            convention="dh_modified",
        )


def _reference_kabsch(src, dst):
    """The single-pair Kabsch solve as written before it took stacks."""
    c_src = src.mean(axis=0)
    c_dst = dst.mean(axis=0)
    h = (src - c_src).T @ (dst - c_dst)
    u, _, vt = np.linalg.svd(h)
    sign = np.sign(np.linalg.det(vt.T @ u.T))
    if sign == 0:
        sign = 1.0
    rot = vt.T @ np.diag([1.0, 1.0, sign]) @ u.T
    return rot, c_dst - rot @ c_src


def test_kabsch_pairs_and_stacks_match_single_pair_reference_bitwise():
    rng = np.random.default_rng(17)
    for trial in range(200):
        n = int(rng.integers(3, 12))
        src = rng.normal(size=(n, 3))
        # odd trials: a reflected target, so the determinant fix is exercised
        mirror = np.diag([1.0, 1.0, -1.0]) if trial % 2 else np.eye(3)
        dst = src @ (rng.normal(size=(3, 3)) @ mirror) + rng.normal(scale=0.1, size=(n, 3))
        rot, tra = kabsch(src, dst)
        want_rot, want_tra = _reference_kabsch(src, dst)
        assert np.array_equal(rot, want_rot) and np.array_equal(tra, want_tra)
        stack = np.stack([dst, dst[::-1], rng.normal(size=(n, 3))])
        rots, tras = kabsch(src, stack)
        assert rots.shape == (3, 3, 3) and tras.shape == (3, 3)
        for s in range(3):
            want_rot, want_tra = _reference_kabsch(src, stack[s])
            assert np.array_equal(rots[s], want_rot) and np.array_equal(tras[s], want_tra)
