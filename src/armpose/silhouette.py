"""Rasterization-free silhouette rendering and mask I/O.

A silhouette is a boolean (height, width) array. Rendering samples points on
the link surfaces, transforms them through forward kinematics and the camera
pose, projects them with ``CameraIntrinsics.project`` (the package's one
pinhole model and near-plane rule), and splats a small disc per sample.
Everything is deterministic given the settings, and sampling is prefix-stable:
the first s samples drawn for a mesh do not depend on the total sample count.
The one sampler, ``sample_surface``, draws one mesh per call (so one link
at a time) from an area table each ``Mesh`` builds once, when it is made
(triangle corners, cumulative areas and their total, by the per-call
formula's arithmetic), so every sample keeps that formula's bits; scenes
reseed their samples, so only the table is shared across scenes.

Render rows are coordinate-major: n points are one (3, n) array, x, y and z
on rows 0, 1 and 2, so each transform is one ``R @ cols + t[:, None]`` and
each coordinate is one contiguous run. Link clouds are posed in one place,
``_LinkClouds.pose`` (one stacked product, for render_link_clouds and the
refiner's objective alike), and rotated into the camera by the plain
product ``R @ cols``. Camera-rotated columns and
the camera translation become pixel centers in one place,
``pixel_centers``, which translates, projects and rounds half up, and the
splat has one implementation, ``_splat_window``:
it turns the centers in front of the near plane into the clipped image
window their discs cover.
Centers are one contiguous int64 array of shape (2, n), u on row 0 and v on
row 1. render_silhouette pastes the window into a full image, as does
render_polyline, whose centers are a line's pixels at radius 0; the refiner
scores it directly against the observed mask. The window depends only on
the set of centers, not on their order or multiplicity, so any caller that
produces the same centers gets the same window.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._io import DatasetFormatError, atomic_write_bytes, check_int_fields
from .kinematics import forward_kinematics


@dataclass(frozen=True)
class Mesh:
    """Triangle mesh: finite (n, 3) vertices and integer (t, 3) triangles of
    positive total area. Malformed input raises ValueError rather than being
    reshaped."""

    vertices: np.ndarray
    triangles: np.ndarray

    def __post_init__(self):
        verts = np.array(self.vertices, dtype=float)
        if verts.ndim != 2 or verts.shape[1] != 3:
            raise ValueError(f"mesh vertices must be an (n, 3) array, got shape {verts.shape}")
        if verts.shape[0] == 0:
            raise ValueError("mesh has no vertices")
        if not np.all(np.isfinite(verts)):
            raise ValueError("mesh vertices must be finite")
        tris = np.array(self.triangles)
        if tris.dtype.kind not in "iu" or tris.ndim != 2 or tris.shape[1] != 3:
            raise ValueError(f"mesh triangles must be an integer (t, 3) array, got {tris.dtype} {tris.shape}")
        if tris.shape[0] == 0:
            raise ValueError("mesh has no triangles")
        if tris.min() < 0 or tris.max() >= verts.shape[0]:
            raise ValueError("triangle indices out of range")
        tris = tris.astype(int, copy=False)
        verts.flags.writeable = tris.flags.writeable = False
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "triangles", tris)
        # not a field: replace() runs __post_init__ and builds it again
        object.__setattr__(self, "_table", _area_table(verts, tris))


def _area_table(verts, tris):
    """sample_surface's table of a mesh, built once per Mesh: (corners,
    cumulative areas, total area), all read-only; a mesh of zero total area
    raises ValueError. corners is (9, T), coordinate-major: row 3 * c + j
    holds coordinate j of each triangle's corner c."""
    tri = verts[tris]
    areas = 0.5 * np.linalg.norm(np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]), axis=1)
    total = float(areas.sum())
    if not total > 0.0:
        raise ValueError("mesh triangles must have positive total area")
    corners = np.ascontiguousarray(tri.reshape(-1, 9).T)
    cum = np.cumsum(areas)
    corners.flags.writeable = False
    cum.flags.writeable = False
    return corners, cum, total


@dataclass(frozen=True)
class RenderSettings:
    """Sampling density, splat size in pixels, and the sampling seed."""

    samples_per_link: int = 600
    splat_radius: int = 2
    seed: int = 0

    def __post_init__(self):
        # the dilation, the sample count and SeedSequence each need an integer
        check_int_fields(self, samples_per_link=1, splat_radius=0, seed=0)


def sample_surface(mesh, count, seed):
    """Draw `count` surface points, area-weighted over triangles, as (count, 3).

    Triangles are picked from the mesh's area table and points placed by
    uniform barycentric weights (Osada et al., "Shape Distributions", 2002).
    The draw for sample i depends only on (seed, i), so prefixes agree
    across different counts. It is the one sampler, one mesh per call.
    """
    if not isinstance(mesh, Mesh):
        raise ValueError(f"sample_surface needs a Mesh, got {mesh!r}")
    if count < 1:
        raise ValueError("sample count must be at least 1")
    corners, cum, total = mesh._table
    draws = np.random.default_rng(np.random.SeedSequence(seed)).random((count, 3))
    idx = np.searchsorted(cum, draws[:, 0] * total, side="right")
    # clip mode takes index T, a draw at the very top of the total area, as
    # the last triangle; chosen is (9, count), coordinate-major like corners
    chosen = corners.take(idx, axis=1, mode="clip")
    sq = np.sqrt(draws[:, 1])
    w0 = 1.0 - sq
    w1 = sq * (1.0 - draws[:, 2])
    w2 = sq * draws[:, 2]
    return (w0 * chosen[0:3] + w1 * chosen[3:6] + w2 * chosen[6:9]).T


@functools.cache
def _disc_rows(radius):
    """The disc of the given radius as horizontal runs: for each half-width
    h = 0..radius, the row offsets dy > 0 whose run is h wide on each side,
    h = floor(sqrt(radius^2 - dy^2)). The centre row's run has half-width
    radius."""
    rows = [[] for _ in range(radius + 1)]
    for dy in range(1, radius + 1):
        rows[math.isqrt(radius * radius - dy * dy)].append(dy)
    return tuple(tuple(dys) for dys in rows)


def render_silhouette(points, pose, k, settings):
    """Project base-frame points (n, 3) through pose and splat into a boolean mask;
    points of any other shape raise ValueError.

    Points behind the camera's near plane (see ``k.project``) are dropped. Pixel
    centers come from ``pixel_centers``; each surviving sample sets a disc of
    settings.splat_radius pixels, clipped to the image. The discs are drawn
    by ``_splat_window``, whose window ``_mask`` pastes into the image.
    """
    return _mask(*_point_centers(points, pose, k), k, settings.splat_radius)


def render_polyline(points, pose, k):
    """Project base-frame points (n, 3) through pose and draw, clipped to the
    image, the segment between each two consecutive points in front of the
    near plane; points of any other shape raise ValueError. A segment from
    pixel center p0 to p1 is the s + 1 centers p0 + (p1 - p0) i / s for
    i = 0..s, s = max(|du|, |dv|), rounded half up as by ``pixel_centers``:
    8-connected, both ends set, and painted by ``_splat_window`` at radius 0.
    Only the steps that can be painted are made, so a segment costs at most
    one image width or height of centers however far off the image it ends."""
    pix, front = _point_centers(points, pose, k)
    start, delta = pix[:, :-1], np.diff(pix)
    span = np.abs(delta).max(axis=0)
    # along the longer axis, center i lies exactly i pixels from the start:
    # counted from the image edge the segment moves away from, at c + i,
    # which is in the image for i in [-c, edge - c] (edge = extent - 1)
    segs = np.arange(span.size)
    longer = (np.abs(delta[1]) > np.abs(delta[0])).astype(np.int64)
    edge = np.where(longer, k.height, k.width) - 1
    c = start[longer, segs]
    c = np.where(delta[longer, segs] < 0, edge - c, c)
    first = np.maximum(-c, 0)
    count = np.where(front[1:] & front[:-1], np.maximum(np.minimum(span, edge - c) - first + 1, 0), 0)
    seg = np.repeat(segs, count)
    i = np.arange(seg.size) - (np.cumsum(count) - count)[seg] + first[seg]
    centers = np.floor(start[:, seg] + delta[:, seg] * i / np.maximum(span[seg], 1) + 0.5)
    return _mask(centers.astype(np.int64), np.ones(seg.size, dtype=bool), k, 0)


def _point_centers(points, pose, k):
    """``pixel_centers`` of base-frame points (n, 3) seen from pose; other shapes raise ValueError."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"points must be an (n, 3) array, got shape {pts.shape}")
    return pixel_centers(pose.rotation @ pts.T, pose.translation, k)


def _mask(pix, front, k, r):
    """The boolean image of ``_splat_window(pix, front, k, r)``, False outside its window."""
    bits = np.zeros((k.height, k.width), dtype=bool)
    splat = _splat_window(pix, front, k, r)
    if splat is not None:
        window, y0, x0 = splat
        bits[y0 : y0 + window.shape[0], x0 : x0 + window.shape[1]] = window
    return bits


def pixel_centers(rotated, t, k):
    """Pixel centers of camera-rotated columns (3, n) translated by t, rounded half-up.

    Returns the int64 centers as one contiguous (2, n) array, u on row 0 and
    v on row 1, and the front mask of ``k.project``, which projects the
    translated columns; columns behind the near plane hold zeros.
    """
    uv, front = k.project(rotated + t[:, None])
    uv += 0.5
    np.floor(uv, out=uv)
    if np.count_nonzero(front) < front.size:
        uv[:, ~front] = 0.0
    return uv.astype(np.int64), front


def _splat_window(pix, front, k, r):
    """Discs of radius r around the int64 pixel centers (2, n) whose front
    flag is set (``pixel_centers``' pair), as an image window.

    The centers are dilated inside their bounding box, padded by r, and the
    result is clipped to the image. Returns (window, y0, x0), where window[y, x]
    is image pixel (y0 + y, x0 + x) and every disc pixel inside the image lies
    in the window, or None when no disc reaches the image. The window depends
    only on the set of centers, not on their order or multiplicity.
    """
    if np.count_nonzero(front) < front.size:
        pix = pix[:, front]
    if pix.shape[1] == 0:
        return None
    (u0, v0), (u1, v1) = pix.min(axis=1).tolist(), pix.max(axis=1).tolist()
    if u0 < -r or u1 >= k.width + r or v0 < -r or v1 >= k.height + r:
        # centers this far out cannot reach the image
        ui, vi = pix
        near = (ui >= -r) & (ui < k.width + r) & (vi >= -r) & (vi < k.height + r)
        pix = pix[:, near]
        if pix.shape[1] == 0:
            return None
        (u0, v0), (u1, v1) = pix.min(axis=1).tolist(), pix.max(axis=1).tolist()
    # the crop is the centers' bounding box padded by r on every side, kept
    # flat: the padding stops a disc from wrapping into the next row, so each
    # shift below is one shift of the whole flat array, and one flat index
    # per center is far cheaper to scatter than a (row, col) pair
    height, width = v1 - v0 + 1 + 2 * r, u1 - u0 + 1 + 2 * r
    size = height * width
    centers = np.zeros(size, dtype=bool)
    flat = pix[1] * width
    flat += pix[0]
    flat += (r - v0) * width + r - u0
    centers[flat] = True
    # crop pixel (y, x) is image pixel (v0 - r + y, u0 - r + x); the disc is
    # dilated separably: run grows to each half-width h in turn, and the
    # rows dy whose disc chord is h wide take it shifted by whole rows
    run = centers.copy()
    crop = np.zeros(size, dtype=bool)
    for h, dys in enumerate(_disc_rows(r)):
        if h:
            _or_shifted(run, centers, h)
            _or_shifted(run, centers, -h)
        for dy in dys:
            _or_shifted(crop, run, dy * width)
            _or_shifted(crop, run, -dy * width)
    crop |= run
    crop = crop.reshape(height, width)
    top, left = v0 - r, u0 - r
    y0, x0 = max(top, 0), max(left, 0)
    y1, x1 = min(top + height, k.height), min(left + width, k.width)
    return crop[y0 - top : y1 - top, x0 - left : x1 - left], y0, x0


def _or_shifted(dst, src, shift):
    """dst[i] |= src[i - shift] wherever both indices lie in the flat arrays."""
    if shift >= 0:
        dst[shift:] |= src[: src.size - shift]
    else:
        dst[:shift] |= src[-shift:]


def render_chain_silhouette(chain, theta, meshes, pose, k, settings):
    """Sample, pose, and render the whole chain in one call."""
    clouds = sample_link_clouds(meshes, settings)
    frames = [chain.base_frame] + forward_kinematics(chain, theta)
    return render_link_clouds(clouds, frames, pose, k, settings)


def sample_link_clouds(meshes, settings):
    """Per-link local-frame surface samples, one sample_surface call per link:
    link li's at a seed drawn from (settings.seed, li). Every link needs a Mesh."""
    for li, mesh in enumerate(meshes):
        if not isinstance(mesh, Mesh):
            raise ValueError(f"link {li} needs a Mesh, got {mesh!r}")
    seeds = [int(np.random.SeedSequence((settings.seed, li)).generate_state(1)[0]) for li in range(len(meshes))]
    return [sample_surface(mesh, settings.samples_per_link, seed) for mesh, seed in zip(meshes, seeds)]


def render_link_clouds(clouds, frames, pose, k, settings):
    """Render presampled local clouds given their world frames."""
    if len(clouds) != len(frames):
        raise ValueError("need one frame per link cloud")
    return render_silhouette(_LinkClouds(clouds).pose([f.pair for f in frames]).T, pose, k, settings)


class _LinkClouds:
    """``sample_link_clouds``' clouds, all of one sample count m, posed as
    world columns (3, n) stacked link by link, so link i's columns start at
    i * m: the one pose of render_link_clouds and the refiner's objective."""

    def __init__(self, clouds):
        if len(clouds) == 0:
            raise ValueError("need at least one link cloud")
        counts = sorted({cloud.shape[0] for cloud in clouds})
        if len(counts) > 1:
            raise ValueError(f"link clouds must hold one sample count, got {counts}")
        # the clouds as one (links, 3, m) stack
        self.stack = np.stack([cloud.T for cloud in clouds])

    def pose(self, frames):
        """The world columns (3, n) of the clouds posed under frames,
        ``kinematics.chain_frames``' pairs, by one stacked product and one
        translation add: each link's columns have the bits of
        ``frame.apply(cloud).T``."""
        links, _, m = self.stack.shape
        world = np.empty((3, links * m))
        rot = np.array([r for r, _ in frames])
        tra = np.array([t for _, t in frames])
        # world's columns by link, as (3, links, m)
        cols = world.reshape(3, links, m)
        np.matmul(rot, self.stack, out=cols.transpose(1, 0, 2))
        cols += tra.T[:, :, None]
        return world


def silhouette_iou(a, b):
    """Intersection over union of two equal-shape masks; empty vs empty is 1."""
    ma = np.asarray(a, dtype=bool)
    mb = np.asarray(b, dtype=bool)
    if ma.shape != mb.shape:
        raise ValueError(f"mask shapes differ: {ma.shape} vs {mb.shape}")
    return _iou_of_counts(np.count_nonzero(ma & mb), np.count_nonzero(ma), np.count_nonzero(mb))


def _iou_of_counts(inter, count_a, count_b):
    """The IoU of two masks from their pixel counts and the count of their
    intersection: inter / (count_a + count_b - inter), 1 when the union is empty."""
    union = count_a + count_b - inter
    return 1.0 if union == 0 else float(inter) / union


# ---------------------------------------------------------------------------
# mask files


def write_pgm(path, image):
    """Write a binary (P5, maxval 255) PGM. Boolean masks map to {0, 255}."""
    arr = np.asarray(image)
    if arr.dtype == bool:
        arr = arr.view(np.uint8) * np.uint8(255)
    else:
        arr = arr.astype(np.uint8)
    if arr.ndim != 2:
        raise ValueError("PGM images must be 2-D")
    header = f"P5\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode("ascii")
    atomic_write_bytes(path, header + arr.tobytes())


def read_pgm(path):
    """Read a binary PGM into a uint8 (height, width) array; a file that is not
    one raises DatasetFormatError naming it."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(b"P5"):
        raise DatasetFormatError(f"{path}: not a binary PGM (P5) file")
    fields = []
    pos = 2
    while len(fields) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if not data[start:pos].isdigit():
            raise DatasetFormatError(f"{path}: truncated or bad PGM header")
        fields.append(int(data[start:pos]))
    pos += 1  # single whitespace byte after maxval
    width, height, maxval = fields
    if maxval != 255:
        raise DatasetFormatError(f"{path}: unsupported maxval {maxval}")
    raw = data[pos : pos + width * height]
    if len(raw) != width * height:
        raise DatasetFormatError(f"{path}: pixel payload truncated")
    return np.frombuffer(raw, dtype=np.uint8).reshape(height, width)


# ---------------------------------------------------------------------------
# built-in link geometry


def _box_between(start, end, half_width):
    """Rectangular prism around the segment from start to end, 12 triangles."""
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    axis = end - start
    length = np.linalg.norm(axis)
    if length < 1e-9:
        return _cube_at(end, half_width * 1.5)
    axis = axis / length
    pick = np.array([0.0, 0.0, 1.0]) if abs(axis[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    b1 = np.cross(axis, pick)
    b1 /= np.linalg.norm(b1)
    b2 = np.cross(axis, b1)
    corners = []
    for anchor in (start, end):
        for s1 in (-1.0, 1.0):
            for s2 in (-1.0, 1.0):
                corners.append(anchor + half_width * (s1 * b1 + s2 * b2))
    tris = [
        (0, 1, 3), (0, 3, 2),
        (4, 6, 7), (4, 7, 5),
        (0, 4, 5), (0, 5, 1),
        (1, 5, 7), (1, 7, 3),
        (3, 7, 6), (3, 6, 2),
        (2, 6, 4), (2, 4, 0),
    ]
    return Mesh(np.array(corners), np.array(tris))


def _cube_at(center, half_width):
    center = np.asarray(center, dtype=float)
    return _box_between(center - [0, 0, half_width * 0.999], center + [0, 0, half_width * 0.999], half_width)


def default_link_meshes(chain, half_width=0.035):
    """Simple box geometry for each link, in that link's own frame.

    Link i spans from the previous frame origin, which sits at the constant
    point -(a, d sin(alpha), d cos(alpha)) in frame i, to frame i's origin.
    The base link is a small cube at the base origin.
    """
    meshes = [_cube_at(np.zeros(3), half_width * 1.4)]
    for joint in chain.joints:
        proximal = -np.array(
            [joint.a, joint.d * math.sin(joint.alpha), joint.d * math.cos(joint.alpha)]
        )
        meshes.append(_box_between(proximal, np.zeros(3), half_width))
    return meshes
