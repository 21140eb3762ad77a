"""Iterative silhouette-based refinement of a pose-and-configuration estimate.

The estimate is parameterized as joint angles, a base rotation (a 3x3
matrix), and a positive scale factor that slides the base origin along the
camera ray through a fixed pixel. The reference refiner is a deterministic
pattern search on the rendered-silhouette overlap, so it needs no
derivatives of the renderer.

The search coordinates are one table, ``_CachedObjective.coords``, in sweep
order: each joint angle, a turn about each base-frame axis, and the scale.
A turn of s radians about axis i takes the rotation R to ``R @ exp(s
[e_i]x)``, a local increment on SO(3) (Sola, Deray and Atchuthan, "A micro
Lie theory for state estimation in robotics", 2018), so the rotation stays a
matrix. Over a 3 x 250-probe refine the products drift from orthonormality
by about 1e-15, far inside ``Estimate``'s 1e-9 check, so they are not
re-orthonormalized.

Each sweep probes every coordinate once one step up and once one step down
from the incumbent, keeps the better of the two only when it strictly lowers
the objective, and halves the step sizes when nothing moved. After a sweep
that moved, and while budget remains, the search probes the pattern point once
(the exploratory and pattern moves of Hooke and Jeeves, J. ACM 8(2), 1961).
With x the incumbent after the sweep and b the incumbent at its start, the
pattern point repeats the sweep's net move: theta 2 x - b clipped to the
joint limits, the rotation ``R_x R_b^T R_x`` (the net turn applied once
more, on the group; ``R_x`` itself, bits included, after a sweep without a
turn), and the scale 2 x - b. A coordinate search alone stops at a fixed
point of its pattern, where more iterations change nothing; the pattern move
follows the sweep's net direction off it.

A search point is one ``_State``: its coordinates and world, the link
clouds posed at its theta as (3, n) columns in ``silhouette._LinkClouds``'
order. The start, each theta probe and each pattern point pose every link
from ``kinematics.chain_frames``, with a per-call memo of DH locals; a
rotation or scale probe shares its parent's world. The value rotates,
projects and splats all n columns, so it is bitwise equal to ``1 -
silhouette_iou(render_link_clouds(...), observed)``: the frames come from
the walk ``forward_kinematics`` wraps, the world columns from
render_link_clouds' own pose, ``_LinkClouds.pose``, the camera rows from
the same ``R @ cols`` product over the same columns, and the
translation, the scale times the ray through the base pixel at depth 1
(read once per refine call), has the bits of ``CameraIntrinsics.backproject``
at that scale. The splat window holds every disc pixel inside the image,
and the IoU is integer counts, taken on that window against the observed
mask.

Each refine call also keeps a memo of every point it has evaluated, keyed by
the exact bits of (theta, rotation matrix, scale). A probe that lands on a
stored point (a step undone to the same bits, a theta step clipped back onto
the incumbent, a pattern point on a point an earlier probe tried) takes the
stored value and renders nothing. No stored value lies below the
incumbent's: each one was either accepted, or lost to a probe that was, or
was not below the incumbent of its time, and the incumbent's value never
rises. A pattern point goes through the same memo and the same
strict-decrease rule as any probe, so this holds for it too. A probe is
accepted only on a strict decrease, so a revisited point is never accepted
and its state is never needed. A revisit still counts against
inner_evals_per_iteration, so the search takes the same path it would
without the memo, and the trace's ``evaluations`` column counts probes,
revisits and pattern points included, not renders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from ._io import check_float_fields, check_int_fields
from .kinematics import chain_frames, check_configuration
from .metrics import add_metric
from .poseinit import Estimate, _camera_pose
from .silhouette import RenderSettings, _iou_of_counts, _LinkClouds, _splat_window
from .silhouette import pixel_centers, sample_link_clouds
from .silhouette import render_link_clouds  # noqa: F401  (perfbench's tracer wraps it here)


# ---------------------------------------------------------------------------
# losses


def config_loss(theta_a, theta_b):
    """L1 distance between (sin, cos) encodings; inherently 2pi-periodic."""
    a = np.asarray(theta_a, dtype=float).reshape(-1)
    b = np.asarray(theta_b, dtype=float).reshape(-1)
    if a.shape != b.shape:
        raise ValueError("configurations have different lengths")
    return float(np.sum(np.abs(np.sin(a) - np.sin(b))) + np.sum(np.abs(np.cos(a) - np.cos(b))))


def pose_loss(pose_est, pose_gt, points):
    """Rotation and translation errors decoupled through a shared point set.

    Swaps one component at a time against the reference transform and sums
    the L1 distances of the transformed points.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    rot_mix = pts @ pose_est.rotation.T + pose_gt.translation
    trans_mix = pts @ pose_gt.rotation.T + pose_est.translation
    ref = pose_gt.apply(pts)
    return float(np.sum(np.abs(rot_mix - ref)) + np.sum(np.abs(trans_mix - ref)))


# ---------------------------------------------------------------------------
# reference refiner


@dataclass(frozen=True)
class RefinerConfig:
    """The pattern search's budget and first step sizes: step_theta in
    radians of a joint angle, step_rot in radians about a base-frame axis,
    and step_scale as a fraction of the scale."""

    iterations: int = 1
    inner_evals_per_iteration: int = 250
    step_theta: float = 0.05
    step_rot: float = 0.02
    step_scale: float = 0.02

    def __post_init__(self):
        check_int_fields(self, iterations=1, inner_evals_per_iteration=1)
        check_float_fields(self, "step_theta", "step_rot", "step_scale")
        for name in ("step_theta", "step_rot"):
            step = getattr(self, name)
            if not step > 0.0:
                raise ValueError(f"{name} must be finite and positive, got {step}")
        if not (0.0 < self.step_scale < 1.0):
            raise ValueError("step_scale must lie in (0, 1)")


@dataclass
class _State:
    """One search point: raw coordinates (theta, the rotation matrix, the
    scale) and world, the link clouds posed at theta as (3, n) columns; only
    the returned result is validated. world is never written after
    construction, so states share it freely."""

    theta: np.ndarray
    rotation: np.ndarray
    scale: float
    world: np.ndarray


class _Coordinate(NamedTuple):
    """A row of the coordinate table: the ``RefinerConfig`` field of its
    first step, its index (a joint or a base-frame axis), and ``point(cost,
    state, index, step)``, the stepped (theta, rotation, scale, world),
    where cost is the ``_CachedObjective`` and world is state's when theta
    is unchanged, else None."""

    step: str
    index: int
    point: Callable


class _CachedObjective:
    """One minus the silhouette IoU of a search point against the observed
    mask, with a memo of every point evaluated (see the module docstring)."""

    def __init__(self, observed, chain, meshes, k, settings, base_pixel):
        if len(meshes) != chain.dof + 1:
            raise ValueError(f"need one mesh per link: got {len(meshes)} meshes for {chain.dof + 1} links")
        self.clouds = _LinkClouds(sample_link_clouds(meshes, settings))
        self.chain, self.k, self.radius = chain, k, settings.splat_radius
        self.lo, self.hi = chain.limits()
        self.observed = observed
        self.n_observed = int(np.count_nonzero(observed))
        # the camera ray through the base pixel at depth 1: the base of a
        # point at scale s sits at s * ray, as Estimate.pose puts it
        self.ray = k.backproject(1.0, base_pixel)
        # value of every point evaluated so far, by its exact coordinates
        self.seen = {}
        # chain_frames' DH locals, by joint and angle bits
        self.dh = {}
        # the search coordinates in sweep order, with the class's functions:
        # bound methods would tie a cycle that outlives refine's return
        cls = type(self)
        self.coords = (
            [_Coordinate("step_theta", j, cls._theta_point) for j in range(chain.dof)]
            + [_Coordinate("step_rot", i, cls._rotation_point) for i in range(3)]
            + [_Coordinate("step_scale", 0, cls._scale_point)]
        )

    def start(self, theta, rotation, scale):
        """(value, state) of the search's start point, stored in the memo;
        theta is checked here."""
        check_configuration(self.chain, theta)
        return self._evaluate(theta, rotation, scale, None)

    def probe(self, state, coord, step):
        """(value, state) one step from state along coord, a row of
        self.coords; state is left untouched. A point evaluated before gives
        its stored value and None for its state, which the search never
        accepts (see the module docstring)."""
        return self._evaluate(*coord.point(self, state, coord.index, step))

    def pattern(self, state, theta, rotation, scale):
        """(value, state) at the pattern point of state x and an earlier point
        b = (theta, rotation, scale): theta 2 x - b clipped to the joint
        limits, the rotation R_x R_b^T R_x (R_x itself when b's rotation is
        x's own object), the scale 2 x - b; state is left untouched.

        None when the scale is not positive; a point evaluated before gives
        its stored value and None, as in probe.
        """
        scale = 2.0 * state.scale - scale
        if not scale > 0.0:
            return None
        theta = np.clip(2.0 * state.theta - theta, self.lo, self.hi)
        if rotation is not state.rotation:  # else the sweep made no turn: keep its bits
            rotation = state.rotation @ rotation.T @ state.rotation
        return self._evaluate(theta, rotation, scale, None)

    def _evaluate(self, theta, rotation, scale, world):
        """(value, state) at (theta, rotation, scale): the stored value and
        None for a point evaluated before; else the state with world, the
        clouds posed at theta here when world is None, whose value is stored."""
        key = _state_key(theta, rotation, scale)
        value = self.seen.get(key)
        if value is not None:
            return value, None
        if world is None:
            world = self.clouds.pose(chain_frames(self.chain, theta, self.dh))
        state = _State(theta, rotation, scale, world)
        value = self.seen[key] = self.value(state)
        return value, state

    def _theta_point(self, state, j, step):
        theta = state.theta.copy()
        theta[j] = _clip(theta[j] + step, self.lo[j], self.hi[j])
        return theta, state.rotation, state.scale, None

    def _rotation_point(self, state, i, step):
        return state.theta, state.rotation @ _axis_rotation(i, step), state.scale, state.world

    def _scale_point(self, state, _, step):
        return state.theta, state.rotation, state.scale * (1.0 + step), state.world

    def value(self, state):
        """1 - IoU of the state's splat window against the observed mask: all
        of its world columns rotated into the camera, projected and splatted
        as render_silhouette does."""
        pix, front = pixel_centers(state.rotation @ state.world, state.scale * self.ray, self.k)
        splat = _splat_window(pix, front, self.k, self.radius)
        inter = drawn = 0
        if splat is not None:
            window, y0, x0 = splat
            h, w = window.shape
            drawn = np.count_nonzero(window)
            inter = np.count_nonzero(window & self.observed[y0 : y0 + h, x0 : x0 + w])
        return 1.0 - _iou_of_counts(inter, drawn, self.n_observed)


def _axis_rotation(axis, angle):
    """exp(angle [e_axis]x): the rotation by angle radians about the unit
    axis e_axis, in closed form."""
    c, s = math.cos(angle), math.sin(angle)
    j, k = (axis + 1) % 3, (axis + 2) % 3
    rot = np.eye(3)
    rot[j, j] = rot[k, k] = c
    rot[k, j], rot[j, k] = s, -s
    return rot


def _clip(x, lo, hi):
    """np.clip(x, lo, hi) for one float, with its comparisons (a value equal
    to a bound stays, signed zero included) and without its per-call cost."""
    return lo if x < lo else hi if x > hi else x


def _state_key(theta, rotation, scale):
    """The memo key of a search state: the bytes of theta and of the rotation
    matrix, and the scale, which is positive, so float equality is bit
    equality."""
    return theta.tobytes(), rotation.tobytes(), float(scale)


def refine(estimate, observed, chain, meshes, k, cfg=None, settings=None, ground_truth=None):
    """Pattern-search refinement against an observed silhouette.

    Returns (refined estimate, trace). The trace has one row per iteration
    plus a baseline row, each a dict with the iteration number, cumulative
    objective evaluations, and the best objective value so far; when ground
    truth is supplied each row also carries the current pose-point error.
    The objective is one minus the silhouette IoU, so it needs only the
    observed mask; ground truth never steers the search. meshes holds one
    ``silhouette.Mesh`` per link, base first (``chain.dof + 1``); a link
    without one raises ValueError naming it.
    """
    cfg = cfg or RefinerConfig()
    settings = settings or RenderSettings()
    observed = np.asarray(observed, dtype=bool)
    if observed.shape != (k.height, k.width):
        raise ValueError(f"observed mask is {observed.shape}, camera expects {(k.height, k.width)}")

    base_pixel = estimate.base_pixel
    cost = _CachedObjective(observed, chain, meshes, k, settings, base_pixel)
    if ground_truth is not None:
        gt_pose = ground_truth.pose(k)

    def tracked_error(cand):
        if ground_truth is None:
            return None
        # every candidate rotation is a valid estimate's or a product of
        # rotations, proper up to rounding, so its pose needs no check
        pose = _camera_pose(cand.rotation, cand.scale, base_pixel, k)
        return add_metric(gt_pose, ground_truth.theta, pose, cand.theta, chain)

    f_curr, state = cost.start(estimate.theta, estimate.rotation, estimate.scale)
    trace = [_trace_row(0, 0, f_curr, tracked_error(state))]
    evals_total = 0
    budget = cfg.inner_evals_per_iteration

    for it in range(1, cfg.iterations + 1):
        steps = [getattr(cfg, coord.step) for coord in cost.coords]
        used = 0
        while used < budget:
            moved = False
            # the sweep's start point; its coordinates only, not its world
            base = state.theta, state.rotation, state.scale
            for coord, step in zip(cost.coords, steps):
                if used >= budget:
                    break
                # one step up and one down from the incumbent, as the budget allows
                trials = [cost.probe(state, coord, s) for s in (step, -step)[: budget - used]]
                used += len(trials)
                f_new, cand = min(trials, key=lambda t: t[0])
                if f_new < f_curr:
                    f_curr, state = f_new, cand
                    moved = True
            if not moved:
                steps = [step * 0.5 for step in steps]
            elif used < budget:
                # Hooke-Jeeves pattern move: repeat the sweep's net move once
                probed = cost.pattern(state, *base)
                if probed is not None:
                    used += 1
                    if probed[0] < f_curr:
                        f_curr, state = probed
        evals_total += used
        trace.append(_trace_row(it, evals_total, f_curr, tracked_error(state)))

    refined = Estimate(
        theta=state.theta,
        rotation=state.rotation,
        scale=state.scale,
        base_pixel=base_pixel,
        provenance=f"refined({cfg.iterations})",
    )
    return refined, trace


def _trace_row(iteration, evaluations, value, point_error):
    row = {"iteration": iteration, "evaluations": evaluations, "objective": float(value)}
    if point_error is not None:
        row["point_error"] = point_error
    return row
