"""Iterative silhouette-based refinement of a pose-and-configuration estimate.

The estimate is parameterized as joint angles, a base rotation stored as a
3x3 matrix but searched through a continuous 6D encoding (the first two
matrix columns, re-orthogonalized on decode), and a positive scale factor
that slides the base origin along the camera ray through a fixed pixel.
The reference refiner is a deterministic pattern search on the
rendered-silhouette overlap, so it needs no derivatives of the renderer.

Each sweep of the search probes every coordinate one step up and down,
rides an improving direction while it pays, and halves the step sizes when
nothing moved. After a sweep that moved, and while budget remains, the search
probes the pattern point ``2 x - b`` once (the Hooke-Jeeves pattern move:
Hooke and Jeeves, J. ACM 8(2), 1961): x is the incumbent after the sweep and
b the incumbent at its start, theta is clipped to the joint limits, the 6D
code is extrapolated and decoded, and the scale is extrapolated linearly. A
coordinate search alone stops at a fixed point of its pattern, where more
iterations change nothing; the pattern move follows the sweep's net
direction off it. On the acceptance suite's 100 scenes, one 250-probe
iteration with the move refines as well as three without it did.

A search point is one ``_State``: its coordinates and its render rows (FK
frames as plain (rotation, translation) pairs and, per link sample in
``silhouette._LinkClouds``' column order, its world point, the point rotated
into the camera, its int64 pixel center and its near-plane flag). Rows are
coordinate-major, (3, n) for points and (2, n) for centers, as in
``silhouette``. The start and each pattern point are built from scratch
(``_CachedObjective.build``). Every other probe moves one coordinate, so the
objective is evaluated from the incumbent's rows and recomputes only what
the probe moves:

- a theta_j probe keeps frames 0..j and the columns of links 0..j, has
  ``kinematics.chain_frames`` compose frames j+1.. with a per-call memo of
  DH locals, poses the clouds of links j+1.. with ``_LinkClouds.pose``, and
  recomputes the rotated and pixel columns of that contiguous suffix;
- a rotation probe keeps the frames and world columns, and recomputes the
  camera rotation (``silhouette._camera_rows``) and the projection
  (``pixel_centers``, which adds the translation and projects through
  ``CameraIntrinsics.project``);
- a scale probe keeps the rotated columns too, and recomputes only the
  projection. Its translation is the scale times the ray through the base
  pixel at depth 1, which each refine call reads once: the bits of
  ``CameraIntrinsics.backproject`` at that scale.

A rejected probe leaves the incumbent's state untouched; an accepted one
becomes the incumbent. Across a sweep the search keeps only b's coordinates,
not its rows. The value is bitwise equal to ``1 -
silhouette_iou(render_link_clouds(...), observed)`` because each recomputed
column goes through the same float operations in the same order: the
frames come from the walk ``forward_kinematics`` wraps, the world columns
from render_link_clouds' own pose, ``_LinkClouds.pose``, which gives a link
the same bits from any first link, the camera product ``_camera_rows`` over
any run of two or more columns gives each column the bits the full product
gives it (invariants the tests check; a one-column product takes another
BLAS path, so a theta suffix is multiplied together with the lead column
before it), and the add, projection and rounding are elementwise. The
splat window depends only on the set of pixel centers, and the IoU is
integer counts, taken on that window against the observed mask.

Each refine call also keeps a memo of every point it has evaluated, keyed by
the exact bits of (theta, rotation matrix, scale); the matrix is keyed, not
its 6D code, because the start rotation need not equal the decode of its
own encoding. A probe that lands on a stored point (a rotation step undone,
a theta step clipped back onto the incumbent, a pattern point that repeats a
step the sweep already tried) takes the stored value and builds no rows. No
stored value lies below the incumbent's: each one was either accepted, or
lost to a probe that was, or was not below the incumbent of its time, and
the incumbent's value never rises. A pattern point goes through the same
memo and the same strict-decrease rule as any probe, so this holds for it
too. A probe is accepted only on a strict decrease, so a revisited point is
never accepted and its rows are never needed. A revisit still counts
against inner_evals_per_iteration, so the search takes the same path it
would without the memo, and the trace's ``evaluations`` column counts
probes, revisits and pattern points included, not renders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._io import check_float_fields, check_int_fields
from .kinematics import chain_frames, check_configuration
from .metrics import add_metric
from .poseinit import Estimate, _camera_pose
from .silhouette import RenderSettings, _camera_rows, _LinkClouds, _splat_window, pixel_centers, sample_link_clouds
from .silhouette import render_link_clouds  # noqa: F401  (perfbench's tracer wraps it here)


def rot6d_to_matrix(r6):
    """Decode a 6-vector (two stacked 3-vectors) into a rotation matrix.

    Gram-Schmidt: the first 3-vector fixes column one, the second is made
    orthogonal to it, and column three is their cross product. Degenerate
    inputs (zero or parallel vectors) raise ValueError.
    """
    r6 = np.asarray(r6, dtype=float).reshape(6)
    a1, a2 = r6[:3], r6[3:]
    # the Euclidean norm as np.linalg.norm takes it, sqrt(x.dot(x)),
    # without its per-call dispatch
    n1 = math.sqrt(a1.dot(a1))
    if n1 < 1e-12:
        raise ValueError("first rotation column is numerically zero")
    b1 = a1 / n1
    w = a2 - np.dot(b1, a2) * b1
    n2 = math.sqrt(w.dot(w))
    if n2 < 1e-12:
        raise ValueError("rotation columns are numerically parallel")
    b2 = w / n2
    # plain-float cross product: the products and differences np.cross forms,
    # without its per-call array set-up
    x1, y1, z1 = b1.tolist()
    x2, y2, z2 = b2.tolist()
    b3 = (y1 * z2 - z1 * y2, z1 * x2 - x1 * z2, x1 * y2 - y1 * x2)
    return np.array([[x1, x2, b3[0]], [y1, y2, b3[1]], [z1, z2, b3[2]]])


def matrix_to_rot6d(rotation):
    """First two columns of the matrix, stacked into a 6-vector."""
    rotation = np.asarray(rotation, dtype=float).reshape(3, 3)
    return np.concatenate([rotation[:, 0], rotation[:, 1]])


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
    """One search point: raw coordinates (theta, the rotation matrix and its
    6D code, the scale) and their render rows; only the returned result is
    validated. frames are ``kinematics.chain_frames``' pairs, base first;
    world and rotated are (3, n); pix is (2, n), as ``pixel_centers`` returns
    it, with zeros where front is False. The arrays are never written after
    construction, so states share them freely."""

    theta: np.ndarray
    rotation: np.ndarray
    r6: np.ndarray
    scale: float
    frames: list
    world: np.ndarray
    rotated: np.ndarray
    pix: np.ndarray
    front: np.ndarray


class _CachedObjective:
    """One minus the silhouette IoU of a search point against the observed
    mask, evaluated from render rows, with a memo of every point evaluated
    (see the module docstring)."""

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

    def start(self, theta, rotation, scale):
        """(value, state) of the search's start point, built from scratch and
        stored in the memo; theta is checked here."""
        check_configuration(self.chain, theta)
        return self._evaluate(theta, rotation, matrix_to_rot6d(rotation), scale)

    def probe(self, state, kind, index, step):
        """(value, state) one step from state along the coordinate (kind,
        index): theta[index] + step clipped to the joint limits, r6[index] +
        step, or scale * (1 + step); state is left untouched.

        None when the stepped 6D code is degenerate. A point evaluated before
        gives its stored value and None for its state, which the search never
        accepts (see the module docstring).
        """
        theta, rotation, r6, scale = state.theta, state.rotation, state.r6, state.scale
        if kind == "theta":
            theta = theta.copy()
            theta[index] = _clip(theta[index] + step, self.lo[index], self.hi[index])
        elif kind == "rot":
            r6 = r6.copy()
            r6[index] += step
            try:
                rotation = rot6d_to_matrix(r6)
            except ValueError:
                return None
        else:
            scale = scale * (1.0 + step)
        return self._evaluate(theta, rotation, r6, scale, state, kind, index)

    def pattern(self, state, theta, r6, scale):
        """(value, state) at the pattern point 2 x - b of state x and an
        earlier point b = (theta, r6, scale): theta clipped to the joint
        limits, the 6D code decoded, the scale linear. The point moves every
        coordinate, so it is built from scratch; state is left untouched.

        None when the 6D code is degenerate or the scale is not positive; a
        point evaluated before gives its stored value and None, as in probe.
        """
        scale = 2.0 * state.scale - scale
        if not scale > 0.0:
            return None
        r6 = 2.0 * state.r6 - r6
        try:
            rotation = rot6d_to_matrix(r6)
        except ValueError:
            return None
        theta = np.clip(2.0 * state.theta - theta, self.lo, self.hi)
        return self._evaluate(theta, rotation, r6, scale)

    def _evaluate(self, theta, rotation, r6, scale, parent=None, kind=None, index=None):
        """(value, state) at (theta, rotation, r6, scale): the stored value
        and None for a point evaluated before; else a state built from
        parent's rows along (kind, index), or from scratch without a parent,
        whose value is stored."""
        key = _state_key(theta, rotation, scale)
        value = self.seen.get(key)
        if value is not None:
            return value, None
        if parent is None:
            state = self.build(theta, rotation, r6, scale)
        else:
            state = self.moved(parent, kind, index, theta, rotation, r6, scale)
        value = self.seen[key] = self.value(state)
        return value, state

    def build(self, theta, rotation, r6, scale):
        """The state at (theta, rotation, r6, scale), built from scratch."""
        frames = chain_frames(self.chain, theta, memo=self.dh)
        world = self.clouds.pose(frames)
        rotated = _camera_rows(world, rotation)
        return _State(theta, rotation, r6, scale, frames, world, rotated, *self._project(rotated, scale))

    def moved(self, parent, kind, index, theta, rotation, r6, scale):
        """The state at (theta, rotation, r6, scale), which differs from
        parent's only in the coordinate (kind, index), built from parent's
        rows; parent is left untouched."""
        coords = (theta, rotation, r6, scale)
        if kind == "theta":
            frames = chain_frames(self.chain, theta, parent.frames, index, self.dh)
            start = (index + 1) * self.clouds.stack.shape[2]  # link index + 1's first column
            world = np.empty_like(parent.world)
            world[:, :start] = parent.world[:, :start]
            self.clouds.pose(frames, index + 1, world)
            # a one-column product takes another BLAS path than a stack does,
            # so the suffix is multiplied together with the column before it
            rotated = _camera_rows(world[:, start - 1 :], rotation)[:, 1:]
            pix, front = self._project(rotated, scale)
            return _State(
                *coords,
                frames,
                world,
                np.concatenate([parent.rotated[:, :start], rotated], axis=1),
                np.concatenate([parent.pix[:, :start], pix], axis=1),
                np.concatenate([parent.front[:start], front]),
            )
        rotated = _camera_rows(parent.world, rotation) if kind == "rot" else parent.rotated
        return _State(*coords, parent.frames, parent.world, rotated, *self._project(rotated, scale))

    def value(self, state):
        """1 - IoU of the state's splat window against the observed mask."""
        splat = _splat_window(state.pix, state.front, self.k, self.radius)
        inter = drawn = 0
        if splat is not None:
            window, y0, x0 = splat
            h, w = window.shape
            drawn = np.count_nonzero(window)
            inter = np.count_nonzero(window & self.observed[y0 : y0 + h, x0 : x0 + w])
        union = drawn + self.n_observed - inter
        return 1.0 - (1.0 if union == 0 else float(inter) / union)

    def _project(self, rotated, scale):
        """(pix, front) of camera-rotated rows, as render_silhouette projects them."""
        return pixel_centers(rotated, scale * self.ray, self.k)


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
        # every candidate rotation comes from a valid estimate or from
        # rot6d_to_matrix, so it is proper and its pose needs no check
        pose = _camera_pose(cand.rotation, cand.scale, base_pixel, k)
        return add_metric(gt_pose, ground_truth.theta, pose, cand.theta, chain)

    f_curr, state = cost.start(estimate.theta, estimate.rotation, estimate.scale)
    trace = [_trace_row(0, 0, f_curr, tracked_error(state))]
    evals_total = 0
    budget = cfg.inner_evals_per_iteration
    coords = [("theta", i) for i in range(chain.dof)] + [("rot", i) for i in range(6)] + [("scale", 0)]

    for it in range(1, cfg.iterations + 1):
        steps = {"theta": cfg.step_theta, "rot": cfg.step_rot, "scale": cfg.step_scale}
        used = 0
        while used < budget:
            moved = False
            # the sweep's start point; its coordinates only, not its rows
            base = state.theta, state.r6, state.scale
            for kind, index in coords:
                if used >= budget:
                    break
                trials = []
                for direction in (1.0, -1.0):
                    if used >= budget:
                        break
                    probed = cost.probe(state, kind, index, direction * steps[kind])
                    if probed is not None:
                        trials.append((probed[0], direction, probed[1]))
                        used += 1
                if not trials:
                    continue
                f_new, direction, cand = min(trials, key=lambda t: t[0])
                if f_new < f_curr:
                    f_curr, state = f_new, cand
                    moved = True
                    # ride the same direction while it keeps paying off
                    while used < budget:
                        probed = cost.probe(state, kind, index, direction * steps[kind])
                        if probed is None:
                            break
                        f_new, cand = probed
                        used += 1
                        if f_new < f_curr:
                            f_curr, state = f_new, cand
                        else:
                            break
            if not moved:
                steps = {kind: step * 0.5 for kind, step in steps.items()}
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
