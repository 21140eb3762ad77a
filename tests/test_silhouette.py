import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from armpose import (
    CameraIntrinsics,
    Mesh,
    RenderSettings,
    RigidTransform,
    builtin_chain,
    default_link_meshes,
    forward_kinematics,
    read_pgm,
    render_chain_silhouette,
    render_link_clouds,
    render_polyline,
    render_silhouette,
    sample_link_clouds,
    sample_surface,
    silhouette_iou,
    write_pgm,
)
from armpose.poseinit import NEAR_PLANE
from armpose.kinematics import chain_frames
from armpose import silhouette
from armpose.silhouette import _disc_rows, _LinkClouds, _splat_window, pixel_centers


def _cube_mesh(center, half):
    c = np.asarray(center, dtype=float)
    signs = [(sx, sy, sz) for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)]
    verts = np.array([c + half * np.array(s) for s in signs])
    tris = np.array(
        [
            (0, 1, 3), (0, 3, 2),
            (4, 6, 7), (4, 7, 5),
            (0, 4, 5), (0, 5, 1),
            (2, 3, 7), (2, 7, 6),
            (0, 2, 6), (0, 6, 4),
            (1, 5, 7), (1, 7, 3),
        ]
    )
    return Mesh(verts, tris)


def _camera(width=224, height=224, f=260.0):
    return CameraIntrinsics(fx=f, fy=f, cx=width / 2.0, cy=height / 2.0, width=width, height=height)


# ---------------------------------------------------------------------------
# meshes


_TRIANGLE = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]


def test_mesh_validation():
    with pytest.raises(ValueError, match="no vertices"):
        Mesh(np.zeros((0, 3)), [[0, 1, 2]])
    with pytest.raises(ValueError, match="finite"):
        Mesh(np.array([[0.0, 0.0, np.inf]] * 3), [[0, 1, 2]])
    with pytest.raises(ValueError, match="out of range"):
        Mesh(np.zeros((3, 3)), np.array([[0, 1, 5]]))
    mesh = Mesh(_TRIANGLE, [[0, 1, 2]])
    assert mesh.triangles.dtype == int and mesh.triangles.shape == (1, 3)
    assert not mesh.vertices.flags.writeable and not mesh.triangles.flags.writeable


@pytest.mark.parametrize(
    "vertices, triangles, message",
    [
        (_TRIANGLE, [[0, 1.9, 2]], "integer"),
        (_TRIANGLE, np.array([[0, 1], [2, 0], [1, 2]]), "integer"),
        ([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 1, 1]], r"\(n, 3\)"),
        (_TRIANGLE, np.array([[False, True, True]]), "integer"),
        (_TRIANGLE, None, "integer"),
        (_TRIANGLE, np.zeros((0, 3), dtype=int), "no triangles"),
        (_TRIANGLE, [[0, 1, 1], [2, 2, 2]], "positive total area"),
        ([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [3.0, 3.0, 3.0]], [[0, 1, 2]], "positive total area"),
    ],
    ids=["float_index", "triangles_3x2", "vertices_3x2", "bool_index", "no_triangle_array", "zero_triangles", "zero_area", "collinear"],
)
def test_mesh_refuses_malformed_input(vertices, triangles, message):
    """A mesh is finite (n, 3) vertices and integer (t, 3) triangles of
    positive total area: nothing else is reshaped, cast or sampled by its
    vertices."""
    with pytest.raises(ValueError, match=message):
        Mesh(vertices, triangles)


@pytest.mark.parametrize(
    "field, value",
    [
        ("samples_per_link", 10.5),
        ("samples_per_link", 0),
        ("samples_per_link", True),
        ("splat_radius", 2.5),
        ("splat_radius", -1),
        ("splat_radius", False),
        ("seed", -1),
        ("seed", 1.0),
        ("seed", True),
        ("seed", "0"),
    ],
)
def test_render_settings_check_their_fields(field, value):
    with pytest.raises(ValueError, match=field):
        RenderSettings(**{field: value})


def test_render_settings_take_python_integers_only():
    settings = RenderSettings(samples_per_link=1, splat_radius=0, seed=0)
    assert (settings.samples_per_link, settings.splat_radius, settings.seed) == (1, 0, 0)
    with pytest.raises(ValueError, match="seed must be an integer, got \"np.uint32"):
        RenderSettings(seed=np.uint32(7))


# ---------------------------------------------------------------------------
# surface sampling


def test_sample_surface_points_lie_on_triangle():
    tri = Mesh(np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), np.array([[0, 1, 2]]))
    pts = sample_surface(tri, 4000, seed=1)
    assert pts.shape == (4000, 3)
    assert np.all(pts[:, 2] == 0.0)
    # inside the triangle: x/2 + y <= 1, x >= 0, y >= 0
    assert np.all(pts[:, 0] >= -1e-12)
    assert np.all(pts[:, 1] >= -1e-12)
    assert np.all(pts[:, 0] / 2.0 + pts[:, 1] <= 1.0 + 1e-9)
    centroid = np.array([2.0 / 3.0, 1.0 / 3.0, 0.0])
    assert np.max(np.abs(pts.mean(axis=0) - centroid)) < 0.03


def test_sample_surface_area_weighting():
    # two triangles with areas 0.5 and 1.5: expect ~75% of samples on the big one
    verts = np.array(
        [
            [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
            [5.0, 0.0, 0.0], [8.0, 0.0, 0.0], [5.0, 1.0, 0.0],
        ]
    )
    mesh = Mesh(verts, np.array([[0, 1, 2], [3, 4, 5]]))
    n = 20000
    pts = sample_surface(mesh, n, seed=3)
    frac = np.mean(pts[:, 0] >= 4.0)
    sigma = math.sqrt(0.75 * 0.25 / n)
    assert abs(frac - 0.75) < 4.0 * sigma


def test_sample_surface_prefix_stable():
    mesh = _cube_mesh([0.0, 0.0, 0.0], 1.0)
    a = sample_surface(mesh, 100, seed=9)
    b = sample_surface(mesh, 400, seed=9)
    assert np.array_equal(b[:100], a)


def _reference_sample_surface(mesh, count, seed):
    """sample_surface as it read before meshes kept an area table: the
    areas, their total and their running sum recomputed on every call."""
    if count < 1:
        raise ValueError("sample count must be at least 1")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    tri = mesh.vertices[mesh.triangles]
    areas = 0.5 * np.linalg.norm(
        np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]), axis=1
    )
    total = float(areas.sum())
    draws = rng.random((count, 3))
    cum = np.cumsum(areas)
    idx = np.minimum(
        np.searchsorted(cum, draws[:, 0] * total, side="right"), len(areas) - 1
    )
    sq = np.sqrt(draws[:, 1])
    w0 = 1.0 - sq
    w1 = sq * (1.0 - draws[:, 2])
    w2 = sq * draws[:, 2]
    chosen = tri[idx]
    return (
        w0[:, None] * chosen[:, 0]
        + w1[:, None] * chosen[:, 1]
        + w2[:, None] * chosen[:, 2]
    )


def _sampling_meshes():
    """The built-in links, then a mesh with one zero-area triangle among
    others (it is never drawn)."""
    line = [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [3.0, 3.0, 3.0]]
    return default_link_meshes(builtin_chain("panda7")) + [
        Mesh(line + [[0.0, 2.0, 0.5], [1.0, 0.0, -1.0]], [[0, 3, 1], [0, 1, 2], [1, 4, 2], [2, 3, 4]]),
    ]


@pytest.mark.parametrize("count", [1, 2, 37, 600])
def test_sampling_is_the_per_call_formula_bit_for_bit(count):
    meshes = _sampling_meshes()
    for seed in (0, 1, 9, 2**32 - 1):
        for mesh in meshes:
            assert np.array_equal(sample_surface(mesh, count, seed), _reference_sample_surface(mesh, count, seed))
    # every link in one call
    for seed in (0, 5):
        clouds = sample_link_clouds(meshes, RenderSettings(samples_per_link=count, seed=seed))
        assert len(clouds) == len(meshes)
        for li, mesh in enumerate(meshes):
            link_seed = int(np.random.SeedSequence((seed, li)).generate_state(1)[0])
            assert np.array_equal(clouds[li], _reference_sample_surface(mesh, count, link_seed))


def test_sampling_holds_one_link_at_a_time():
    """sample_link_clouds draws link by link, so its tracemalloc peak stays
    below twice the clouds it returns plus one link's (9, m) corner gather;
    a pass over every link at once holds several arrays of them all."""
    meshes = default_link_meshes(builtin_chain("panda7"))
    settings = RenderSettings()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        clouds = sample_link_clouds(meshes, settings)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if started:
            tracemalloc.stop()
    gather = np.empty((9, settings.samples_per_link)).nbytes
    assert peak - before < 2 * sum(cloud.nbytes for cloud in clouds) + gather


def test_replaced_mesh_samples_its_new_geometry():
    mesh = _cube_mesh([0.0, 0.0, 0.0], 1.0)
    for moved in [replace(mesh, vertices=2.0 * mesh.vertices + 1.0), replace(mesh, triangles=mesh.triangles[:6])]:
        pts = sample_surface(moved, 50, seed=3)
        assert np.array_equal(pts, _reference_sample_surface(moved, 50, seed=3))
        assert not np.array_equal(pts, sample_surface(mesh, 50, seed=3))
    with pytest.raises(ValueError, match="integer"):
        replace(mesh, triangles=None)


# ---------------------------------------------------------------------------
# rendering


def test_render_is_deterministic_and_clips_behind_camera():
    k = _camera()
    settings = RenderSettings(samples_per_link=200, splat_radius=1, seed=0)
    mesh = _cube_mesh([0.0, 0.0, 0.0], 0.3)
    pts = sample_surface(mesh, 500, seed=2)
    pose = RigidTransform(np.eye(3), np.array([0.0, 0.0, 3.0]))
    a = render_silhouette(pts, pose, k, settings)
    b = render_silhouette(pts, pose, k, settings)
    assert a.dtype == bool and a.shape == (224, 224)
    assert np.array_equal(a, b)
    assert a.any()
    behind = RigidTransform(np.eye(3), np.array([0.0, 0.0, -3.0]))
    empty = render_silhouette(pts, behind, k, settings)
    assert not empty.any()


def test_render_half_up_rounding_single_point():
    k = CameraIntrinsics(fx=100.0, fy=100.0, cx=0.0, cy=0.0, width=32, height=32)
    settings = RenderSettings(samples_per_link=1, splat_radius=0, seed=0)
    # u = 100*0.105 = 10.5 rounds up to 11; v = 100*0.203 = 20.3 rounds to 20
    pts = np.array([[0.105, 0.203, 1.0]])
    img = render_silhouette(pts, RigidTransform(), k, settings)
    on = np.argwhere(img)
    assert on.shape == (1, 2)
    assert (on[0] == [20, 11]).all()  # row = v, column = u


@pytest.mark.parametrize("shape", [(3, 2), (2, 3, 3), (3,), (6,)])
def test_render_silhouette_takes_points_as_n_by_3(shape):
    k = CameraIntrinsics(fx=100.0, fy=100.0, cx=16.0, cy=16.0, width=32, height=32)
    points = np.full(shape, 0.1)
    points[..., -1] = 1.0
    with pytest.raises(ValueError, match=r"points must be an \(n, 3\) array"):
        render_silhouette(points, RigidTransform(), k, RenderSettings())
    with pytest.raises(ValueError, match=r"points must be an \(n, 3\) array"):
        render_polyline(points, RigidTransform(), k)


def test_pixel_centers_round_half_up_and_zero_rows_behind():
    k = CameraIntrinsics(fx=2.0, fy=2.0, cx=10.0, cy=10.0, width=20, height=20)
    # four camera-frame points as columns: x, y and z on rows 0, 1 and 2
    cam = np.array(
        [[0.0, 0.25, 0.3, 0.1], [0.0, -0.25, 0.2, 0.1], [1.0, 1.0, -1.0, NEAR_PLANE]]
    )
    pix, front = pixel_centers(cam, np.zeros(3), k)
    assert pix.dtype == np.int64 and pix.shape == (2, 4) and pix.flags.c_contiguous
    # 10.5 and 9.5 both round up
    assert pix.T.tolist() == [[10, 10], [11, 10], [0, 0], [0, 0]]
    assert front.tolist() == [True, True, False, False]
    # projecting only the front columns gives those columns' centers unchanged
    front_pix, front_only = pixel_centers(cam[:, :2], np.zeros(3), k)
    assert front_only.all() and np.array_equal(front_pix, pix[:, :2])


def test_pixel_centers_equal_the_projection_of_the_translated_rows():
    k = CameraIntrinsics(fx=260.0, fy=255.0, cx=112.0, cy=108.0, width=224, height=224)
    rng = np.random.default_rng(31)
    for trial in range(60):
        n = int(rng.integers(1, 400))
        rotated = rng.normal(0.0, 0.4, size=(3, n))
        t = np.array([rng.normal(0.0, 0.3), rng.normal(0.0, 0.3), rng.uniform(-0.5, 2.5)])
        if trial % 3 == 0:
            # a few columns just in front of the camera land far outside the image
            near = rng.random(n) < 0.1
            rotated[2, near] = rng.uniform(1e-5, 1e-3, near.sum()) - t[2]
        if trial % 5 == 0:
            rotated[2, rng.random(n) < 0.1] = NEAR_PLANE - t[2]
        # columns aimed at half-pixel boundaries, where a reordered float
        # operation flips the rounded center
        edge = (rng.random(n) < 0.3) & (rotated[2] + t[2] > 0.1)
        z = rotated[2, edge] + t[2]
        for axis, f, c in ((0, k.fx, k.cx), (1, k.fy, k.cy)):
            rotated[axis, edge] = (rng.integers(0, 224, edge.sum()) - 0.5 - c) * z / f - t[axis]
        pix, front = pixel_centers(rotated, t, k)
        cam = rotated.T + t
        assert np.array_equal(front, cam[:, 2] > NEAR_PLANE)
        want = np.zeros((n, 2), dtype=np.int64)
        want[front] = np.floor(k.project(cam[front].T)[0].T + 0.5).astype(np.int64)
        assert pix.dtype == np.int64 and pix.flags.c_contiguous
        assert np.array_equal(pix, want.T), trial


def _reference_splat_window(pix, k, r):
    """The splat window as a full (rows, cols) scatter of the (n, 2) centers
    dilated in a 2-D crop, clipped to the image (the layout before the
    centers became one (2, n) array)."""
    pix = pix.T
    if pix.shape[0] == 0:
        return None
    ui, vi = pix[:, 0], pix[:, 1]
    near = (ui >= -r) & (ui < k.width + r) & (vi >= -r) & (vi < k.height + r)
    ui, vi = ui[near], vi[near]
    if ui.size == 0:
        return None
    u0, u1, v0, v1 = int(ui.min()), int(ui.max()), int(vi.min()), int(vi.max())
    ch, cw = v1 - v0 + 1, u1 - u0 + 1
    centers = np.zeros((ch, cw), dtype=bool)
    centers[vi - v0, ui - u0] = True
    crop = np.zeros((ch + 2 * r, cw + 2 * r), dtype=bool)
    for dy in range(-r, r + 1):
        for dx in range(-r, r + 1):
            if dx * dx + dy * dy <= r * r:
                crop[r + dy : r + dy + ch, r + dx : r + dx + cw] |= centers
    top, left = v0 - r, u0 - r
    y0, x0 = max(top, 0), max(left, 0)
    y1, x1 = min(top + crop.shape[0], k.height), min(left + crop.shape[1], k.width)
    return crop[y0 - top : y1 - top, x0 - left : x1 - left], y0, x0


def test_splat_window_matches_the_two_dimensional_reference():
    k = CameraIntrinsics(fx=100.0, fy=100.0, cx=20.0, cy=15.0, width=40, height=30)
    rng = np.random.default_rng(12)
    flags = np.random.default_rng(13)  # near-plane flags, apart from the centers' draws
    assert _splat_window(np.zeros((2, 0), dtype=np.int64), np.ones(0, dtype=bool), k, 2) is None
    assert _splat_window(np.full((2, 3), 20, dtype=np.int64), np.zeros(3, dtype=bool), k, 2) is None
    for trial in range(300):
        r = int(rng.integers(0, 4))
        n = int(rng.integers(1, 60))
        spread = (8, 60, 1000)[trial % 3]  # inside, around the edges, mostly far out
        pix = np.stack([rng.integers(20 - spread, 20 + spread, n), rng.integers(15 - spread, 15 + spread, n)])
        # every center in front, then only those a random near-plane flag keeps
        for front in (np.ones(n, dtype=bool), flags.random(n) < 0.7):
            got, want = _splat_window(pix, front, k, r), _reference_splat_window(pix[:, front], k, r)
            if want is None:
                assert got is None, trial
                continue
            assert got[1:] == want[1:] and np.array_equal(got[0], want[0]), trial


def test_splat_discs_match_the_two_dimensional_reference_up_to_radius_4():
    # the separable dilation builds each row's run from _disc_rows; every
    # radius up to 4 gives the disc the per-offset reference draws
    k = CameraIntrinsics(fx=100.0, fy=100.0, cx=20.0, cy=15.0, width=40, height=30)
    rng = np.random.default_rng(14)
    for r in range(5):
        rows = _disc_rows(r)
        assert sorted(dy for dys in rows for dy in dys) == list(range(1, r + 1))
        for h, dys in enumerate(rows):
            assert all(h * h + dy * dy <= r * r < (h + 1) ** 2 + dy * dy for dy in dys)
        for trial in range(40):
            n = int(rng.integers(1, 30))
            spread = (1, 8, 30)[trial % 3]
            pix = np.stack([rng.integers(20 - spread, 20 + spread, n), rng.integers(15 - spread, 15 + spread, n)])
            front = np.ones(n, dtype=bool)
            got, want = _splat_window(pix, front, k, r), _reference_splat_window(pix, k, r)
            if want is None:
                assert got is None, (r, trial)
                continue
            assert got[1:] == want[1:] and np.array_equal(got[0], want[0]), (r, trial)


def test_render_splat_disc_shape():
    k = CameraIntrinsics(fx=100.0, fy=100.0, cx=16.0, cy=16.0, width=32, height=32)
    settings = RenderSettings(samples_per_link=1, splat_radius=2, seed=0)
    pts = np.array([[0.0, 0.0, 1.0]])
    img = render_silhouette(pts, RigidTransform(), k, settings)
    want = set()
    for dy in range(-2, 3):
        for dx in range(-2, 3):
            if dx * dx + dy * dy <= 4:
                want.add((16 + dy, 16 + dx))
    assert set(map(tuple, np.argwhere(img))) == want


def test_cube_scene_bounding_box_analytic():
    # unit cube centered 4 units ahead: the front face (z = 3.5) bounds the
    # projected extent at cx +- f*0.5/3.5
    k = CameraIntrinsics(fx=500.0, fy=500.0, cx=112.0, cy=112.0, width=224, height=224)
    r = 1
    settings = RenderSettings(samples_per_link=10000, splat_radius=r, seed=0)
    mesh = _cube_mesh([0.0, 0.0, 4.0], 0.5)
    pts = sample_surface(mesh, 10000, seed=0)
    img = render_silhouette(pts, RigidTransform(), k, settings)
    on = np.argwhere(img)
    lo_a = 112.0 - 500.0 * 0.5 / 3.5
    hi_a = 112.0 + 500.0 * 0.5 / 3.5
    tol = 1 + r
    for axis in (0, 1):
        assert abs(on[:, axis].min() - lo_a) <= tol
        assert abs(on[:, axis].max() - hi_a) <= tol


def test_render_resolution_consistency():
    # doubling the image grid and intrinsics doubles every projected center to
    # within half a fine pixel; a fine splat of radius 2r+2 therefore covers
    # the 2x2 fine block of every coarse on-pixel
    k = _camera(width=64, height=64, f=80.0)
    k2 = CameraIntrinsics(fx=160.0, fy=160.0, cx=64.0, cy=64.0, width=128, height=128)
    mesh = _cube_mesh([0.05, -0.02, 2.5], 0.4)
    pts = sample_surface(mesh, 800, seed=4)
    pose = RigidTransform()
    r = 1
    coarse = render_silhouette(pts, pose, k, RenderSettings(800, splat_radius=r, seed=0))
    fine = render_silhouette(pts, pose, k2, RenderSettings(800, splat_radius=2 * r + 2, seed=0))
    for i, j in np.argwhere(coarse):
        assert fine[2 * i : 2 * i + 2, 2 * j : 2 * j + 2].any()


def test_render_chain_and_clouds_agree():
    chain = builtin_chain("panda7")
    k = _camera()
    meshes = default_link_meshes(chain)
    settings = RenderSettings(samples_per_link=150, splat_radius=1, seed=0)
    theta = np.zeros(chain.dof)
    pose = RigidTransform(np.eye(3), np.array([0.0, 0.0, 2.5]))
    direct = render_chain_silhouette(chain, theta, meshes, pose, k, settings)
    clouds = sample_link_clouds(meshes, settings)
    frames = [chain.base_frame] + forward_kinematics(chain, theta)
    via_clouds = render_link_clouds(clouds, frames, pose, k, settings)
    assert np.array_equal(direct, via_clouds)


@pytest.mark.parametrize("samples", [1, 2, 37, 600])
def test_link_clouds_pose_is_each_frame_apply_as_columns(samples):
    """The one pose of link clouds, _LinkClouds.pose: each link's columns
    have the bits of its own ``frame.apply(cloud).T``, and link i's columns
    start at i * samples. The camera product of the posed columns has the
    bits of the row-major product too."""
    chain = builtin_chain("panda7")
    rng = np.random.default_rng(samples)
    clouds = sample_link_clouds(default_link_meshes(chain), RenderSettings(samples_per_link=samples))
    stacked = _LinkClouds(clouds)
    for _ in range(3):
        theta = rng.uniform(*chain.limits())
        fk = [chain.base_frame] + forward_kinematics(chain, theta)
        # the per-link reference: each link transformed alone
        want = np.concatenate([f.apply(c) for c, f in zip(clouds, fk)]).T
        frames = chain_frames(chain, theta)
        cols = stacked.pose(frames)
        assert cols.shape == (3, 8 * samples) and np.array_equal(cols, want), samples
        rotation = _random_rotation(rng)
        rowwise = want.T @ np.ascontiguousarray(rotation.T)  # the camera product on (n, 3) rows
        assert np.array_equal(rotation @ cols, rowwise.T), samples


def test_render_link_clouds_checks_its_clouds():
    chain = builtin_chain("panda7")
    k = _camera()
    settings = RenderSettings(samples_per_link=10)
    meshes = default_link_meshes(chain)
    clouds = sample_link_clouds(meshes, settings)
    frames = [chain.base_frame] + forward_kinematics(chain, np.zeros(chain.dof))
    pose = RigidTransform(np.eye(3), np.array([0.0, 0.0, 2.5]))
    assert render_link_clouds(clouds, frames, pose, k, settings).any()
    with pytest.raises(ValueError, match="need one frame per link cloud"):
        render_link_clouds(clouds, frames[:-1], pose, k, settings)
    mixed = clouds[:3] + sample_link_clouds(meshes, RenderSettings(samples_per_link=11))[3:]
    with pytest.raises(ValueError, match=r"link clouds must hold one sample count, got \[10, 11\]"):
        render_link_clouds(mixed, frames, pose, k, settings)
    with pytest.raises(ValueError, match="need at least one link cloud"):
        render_link_clouds([], [], pose, k, settings)
    with pytest.raises(ValueError, match="sample_surface needs a Mesh, got None"):
        sample_surface(None, 5, 0)


def test_render_link_clouds_is_render_silhouette_of_the_stacked_rows():
    chain = builtin_chain("panda7")
    k = _camera()
    settings = RenderSettings(samples_per_link=120, splat_radius=2, seed=4)
    clouds = sample_link_clouds(default_link_meshes(chain), settings)
    rng = np.random.default_rng(5)
    for _ in range(5):
        frames = [chain.base_frame] + forward_kinematics(chain, rng.uniform(*chain.limits()))
        pose = RigidTransform(_random_rotation(rng), np.array([0.0, 0.0, 2.5]) + rng.normal(0.0, 0.2, 3))
        rows = np.concatenate([f.apply(c) for c, f in zip(clouds, frames)])
        got = render_link_clouds(clouds, frames, pose, k, settings)
        assert got.any() and np.array_equal(got, render_silhouette(rows, pose, k, settings))


def _reference_render(points, pose, k, radius):
    """Per-offset scatter over the full image: the renderer's exact semantics."""
    cam = pose.apply(np.asarray(points, dtype=float).reshape(-1, 3))
    cam = cam[cam[:, 2] > 1e-6]
    bits = np.zeros((k.height, k.width), dtype=bool)
    if cam.shape[0] == 0:
        return bits
    pix = np.floor(k.project(cam.T)[0].T + 0.5).astype(np.int64)
    for dy in range(-radius, radius + 1):
        for dx in range(-radius, radius + 1):
            if dx * dx + dy * dy > radius * radius:
                continue
            xs = pix[:, 0] + dx
            ys = pix[:, 1] + dy
            ok = (xs >= 0) & (xs < k.width) & (ys >= 0) & (ys < k.height)
            bits[ys[ok], xs[ok]] = True
    return bits


def _random_rotation(rng):
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
        ]
    )


def _oracle_pose(rng, k, case):
    """A camera pose that puts a unit-scale cloud in the named situation."""
    depth = rng.uniform(1.0, 4.0)
    u = rng.uniform(0, k.width)
    v = rng.uniform(0, k.height)
    if case == "behind":  # cloud straddles the camera plane
        depth = rng.uniform(-0.3, 0.3)
    elif case == "off":  # well outside the image on some side
        side = rng.integers(4)
        u = [-3 * k.width, 4 * k.width, u, u][side]
        v = [v, v, -3 * k.height, 4 * k.height][side]
    elif case.startswith("edge"):  # centered on one image border
        side = int(case[-1])
        u = [0.0, k.width - 1.0, u, u][side] + rng.uniform(-3, 3)
        v = [v, v, 0.0, k.height - 1.0][side] + rng.uniform(-3, 3)
    tra = np.array([(u - k.cx) / k.fx, (v - k.cy) / k.fy, 1.0]) * depth
    if case == "behind":
        tra[:2] = rng.uniform(-0.2, 0.2, 2)
        tra[2] = depth
    return RigidTransform(_random_rotation(rng), tra)


def test_render_matches_full_image_scatter_oracle():
    k = CameraIntrinsics(fx=90.0, fy=80.0, cx=37.0, cy=21.5, width=72, height=44)
    rng = np.random.default_rng(2024)
    cloud = sample_surface(_cube_mesh([0.0, 0.0, 0.0], 0.25), 300, seed=3)
    cases = ["inside", "behind", "off", "edge0", "edge1", "edge2", "edge3"]
    seen = {"partly_behind": 0, "empty_off": 0, "border": [0, 0, 0, 0]}
    for trial in range(308):
        case = cases[trial % len(cases)]
        pose = _oracle_pose(rng, k, case)
        pts = cloud[: rng.integers(1, cloud.shape[0] + 1)]
        cam_z = pose.apply(pts)[:, 2]
        for radius in range(4):
            settings = RenderSettings(samples_per_link=1, splat_radius=radius, seed=0)
            got = render_silhouette(pts, pose, k, settings)
            want = _reference_render(pts, pose, k, radius)
            assert got.dtype == bool and got.shape == (k.height, k.width)
            assert np.array_equal(got, want), (trial, case, radius)
        if (cam_z <= 1e-6).any() and want.any():
            seen["partly_behind"] += 1
        if case == "off" and not want.any():
            seen["empty_off"] += 1
        for side, edge in enumerate((want[:, 0], want[:, -1], want[0], want[-1])):
            seen["border"][side] += bool(edge.any())
    # every situation the test means to cover did occur
    assert seen["partly_behind"] >= 10 and seen["empty_off"] >= 10
    assert min(seen["border"]) >= 10
    empty = np.zeros((0, 3))
    for radius in range(4):
        settings = RenderSettings(samples_per_link=1, splat_radius=radius, seed=0)
        got = render_silhouette(empty, RigidTransform(), k, settings)
        assert got.shape == (k.height, k.width) and not got.any()


# ---------------------------------------------------------------------------
# lines


def _polyline(pixels, k):
    """render_polyline of points that k (unit focal lengths, principal point
    at the origin) projects onto these pixel centers."""
    uv = np.asarray(pixels, dtype=float)
    return render_polyline(np.column_stack([uv, np.ones(len(uv))]), RigidTransform(), k)


def test_render_polyline_draws_eight_connected_segments_with_both_ends():
    k = CameraIntrinsics(fx=1.0, fy=1.0, cx=0.0, cy=0.0, width=16, height=16)
    got = np.argwhere(_polyline([(0, 0), (5, 2)], k))[:, ::-1]
    assert np.array_equal(got, [[0, 0], [1, 0], [2, 1], [3, 1], [4, 2], [5, 2]])
    # a step half-way between two pixels rounds up, whichever end the segment starts from
    for ends in ([(0, 0), (2, 1)], [(2, 1), (0, 0)]):
        assert np.array_equal(np.argwhere(_polyline(ends, k))[:, ::-1], [[0, 0], [1, 1], [2, 1]])
    # any octant: max(|du|, |dv|) + 1 pixels, both ends set, one pixel per
    # step along the longer axis and at most one step across it
    for p0, p1 in [((11, 14), (6, 1)), ((3, 2), (3, 9)), ((12, 3), (1, 7)), ((2, 13), (9, 12)), ((5, 5), (5, 5))]:
        mask = _polyline([p0, p1], k)
        steps = max(abs(p1[0] - p0[0]), abs(p1[1] - p0[1]))
        assert np.count_nonzero(mask) == steps + 1
        assert mask[p0[1], p0[0]] and mask[p1[1], p1[0]]
        along = 0 if abs(p1[0] - p0[0]) >= abs(p1[1] - p0[1]) else 1
        line = np.argwhere(mask)[:, ::-1]
        line = line[np.argsort(line[:, along])]
        assert np.abs(np.diff(line, axis=0)).max(initial=0) <= 1
    # a polyline is its segments; a point behind the near plane drops both of its own
    path = _polyline([(1, 1), (8, 1), (8, 6)], k)
    assert np.array_equal(path, _polyline([(1, 1), (8, 1)], k) | _polyline([(8, 1), (8, 6)], k))
    broken = render_polyline(
        np.array([[1.0, 1.0, 1.0], [8.0, 1.0, 1.0], [3.0, 3.0, -1.0], [8.0, 6.0, 1.0], [8.0, 9.0, 1.0]]),
        RigidTransform(),
        k,
    )
    assert np.array_equal(broken, _polyline([(1, 1), (8, 1)], k) | _polyline([(8, 6), (8, 9)], k))
    for points in (np.zeros((0, 3)), np.array([[4.0, 4.0, 1.0]])):
        assert not render_polyline(points, RigidTransform(), k).any()


def test_render_polyline_clips_to_the_image():
    k = CameraIntrinsics(fx=1.0, fy=1.0, cx=0.0, cy=0.0, width=10, height=10)
    want = np.zeros((10, 10), dtype=bool)
    want[5, 0:5] = True
    assert np.array_equal(_polyline([(-3, 5), (4, 5)], k), want)
    # an end 10**6 pixels off the image: only the in-image pixels are set
    want[:] = False
    want[3, 2:] = True
    assert np.array_equal(_polyline([(2, 3), (2 + 10**6, 3)], k), want)
    far = _polyline([(2, 3), (-(10**6), 10**6 + 3)], k)
    want[:] = False
    want[np.arange(3, 6), 2 - np.arange(3)] = True
    assert np.array_equal(far, want)


def _every_step_polyline(points, pose, k):
    """render_polyline as it made every step of each segment, in or out of
    the image, before _splat_window clipped them."""
    pix, front = silhouette._point_centers(points, pose, k)
    start, delta = pix[:, :-1], np.diff(pix)
    count = np.where(front[1:] & front[:-1], np.abs(delta).max(axis=0) + 1, 0)
    seg = np.repeat(np.arange(count.size), count)
    i = np.arange(seg.size) - (np.cumsum(count) - count)[seg]
    centers = np.floor(start[:, seg] + delta[:, seg] * i / np.maximum(count[seg] - 1, 1) + 0.5)
    return silhouette._mask(centers.astype(np.int64), np.ones(seg.size, dtype=bool), k, 0)


def test_render_polyline_equals_every_step_drawn_and_clipped():
    rng = np.random.default_rng(41)
    for trial in range(200):
        k = _camera(width=int(rng.integers(8, 90)), height=int(rng.integers(8, 90)), f=float(rng.uniform(20.0, 120.0)))
        n = int(rng.integers(2, 12))
        points = np.column_stack([rng.normal(0.0, 0.6, (n, 2)), rng.uniform(0.2, 3.0, n)])
        # some points close in front of the camera land up to about 10**5 px
        # off the image (the reference makes every step, so no farther), and
        # some lie behind the near plane
        near = rng.random(n) < 0.3
        points[near, 2] = rng.uniform(1e-3, 1e-2, near.sum())
        points[rng.random(n) < 0.1, 2] = -1.0
        pose = RigidTransform()
        assert np.array_equal(render_polyline(points, pose, k), _every_step_polyline(points, pose, k)), trial


def test_render_polyline_makes_at_most_one_image_extent_of_centers(monkeypatch):
    k = CameraIntrinsics(fx=1.0, fy=1.0, cx=0.0, cy=0.0, width=10, height=8)
    made = []

    def mask(pix, front, k, r):
        made.append(pix.shape[1])
        return real_mask(pix, front, k, r)

    real_mask = silhouette._mask
    monkeypatch.setattr(silhouette, "_mask", mask)
    want = np.zeros((8, 10), dtype=bool)
    want[3, 2:] = True
    assert np.array_equal(_polyline([(2, 3), (2 + 10**8, 3)], k), want)
    want[:] = False
    want[3, :3] = True
    assert np.array_equal(_polyline([(2 - 10**8, 3), (2, 3)], k), want)
    # across the whole image from 10**8 px off each side, and along v
    assert _polyline([(-(10**8), -(10**8) // 2), (10**8, 10**8 // 2)], k).any()
    assert _polyline([(4, 10**8), (4, -(10**8))], k)[:, 4].all()
    # the bound is on the longer axis only: a segment beside the image makes
    # one image height of centers, which the splat clips
    assert not _polyline([(-5, 10**8), (-5, -(10**8))], k).any()
    assert made == [8, 3, 10, 8, 8]


# ---------------------------------------------------------------------------
# IoU and files


def test_iou_properties():
    a = np.zeros((8, 8), dtype=bool)
    b = np.zeros((8, 8), dtype=bool)
    a[0:2, :] = True
    b[1:3, :] = True
    assert silhouette_iou(a, b) == pytest.approx(1.0 / 3.0)
    assert silhouette_iou(a, b) == silhouette_iou(b, a)
    assert silhouette_iou(a, a) == 1.0
    c = np.zeros((8, 8), dtype=bool)
    c[5:, :] = True
    assert silhouette_iou(a, c) == 0.0
    empty = np.zeros((8, 8), dtype=bool)
    assert silhouette_iou(empty, empty) == 1.0
    with pytest.raises(ValueError):
        silhouette_iou(a, np.zeros((4, 4), dtype=bool))


def test_iou_equals_the_or_and_formula_exactly():
    rng = np.random.default_rng(31)
    for trial in range(200):
        shape = (int(rng.integers(1, 40)), int(rng.integers(1, 40)))
        a = rng.random(shape) < rng.uniform(0, 1) * (trial % 5 != 0)
        b = rng.random(shape) < rng.uniform(0, 1) * (trial % 7 != 0)
        union = int(np.logical_or(a, b).sum())
        want = 1.0 if union == 0 else float(np.logical_and(a, b).sum()) / union
        assert silhouette_iou(a, b) == want


def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    mask = rng.random((16, 12)) > 0.5
    path = tmp_path / "m.pgm"
    write_pgm(path, mask)
    raw = path.read_bytes()
    assert raw.startswith(b"P5")
    arr = read_pgm(path)
    assert arr.dtype == np.uint8
    assert set(np.unique(arr)).issubset({0, 255})
    assert np.array_equal(arr > 0, mask)
    write_pgm(path, mask.T)  # a strided boolean view
    assert np.array_equal(read_pgm(path), np.where(mask.T, 255, 0))
    write_pgm(path, arr)  # uint8 passthrough
    assert np.array_equal(read_pgm(path), arr)


def test_read_pgm_rejects_bad_headers(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P2\n4 4\n255\n" + bytes(16))
    with pytest.raises(ValueError):
        read_pgm(path)
    path.write_bytes(b"P5\n4 4\n65535\n" + bytes(32))
    with pytest.raises(ValueError):
        read_pgm(path)
    path.write_bytes(b"P5\n4 4\n255\n" + bytes(3))  # truncated payload
    with pytest.raises(ValueError):
        read_pgm(path)
