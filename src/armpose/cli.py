"""Command line front end.

Subcommands cover the full loop: gen (synthetic datasets), train-gim (the
keypoint-to-distance regressor), estimate (geometric initialization),
refine (silhouette refinement), eval (metrics reports), and render
(diagnostic overlays). Options may come from a JSON config file via
--config; explicit flags win over the file, which wins over defaults.

Exit codes: 0 success, 2 configuration or missing-input errors, 3 I/O
failures, 4 training divergence, 5 an input file holding a bad record, or
no scene processed.
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys
import warnings
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from ._io import DatasetFormatError, json_field, read_json, read_jsonl, write_csv, write_jsonl
from .datagen import (
    SamplerConfig,
    SceneGenerationError,
    build_scene,
    load_scene_mask,
    read_dataset,
    write_dataset,
)
from .distgeo import (
    MlpRegressor,
    TrainConfig,
    TrainingDivergedError,
    edm_from_configuration,
    edm_from_points,
    init_regressor,
    keypoint_features,
    load_regressor,
    mlp_forward,
    regressor_widths,
    save_regressor,
    train_gim,
)
from .kinematics import builtin_chain, check_configuration, joint_points, load_chain, skeleton_keypoints
from .kinematics import forward_kinematics  # noqa: F401  (perfbench's tracer wraps it here)
from .metrics import ADD_THRESHOLD, EvalRecord, add_metric, build_report, mae_config
from .metrics import write_report_csv, write_report_json
from .poseinit import Estimate, PnpDegenerateError, estimate_from_distances
from .refine import RefinerConfig, refine
from .silhouette import (
    RenderSettings,
    default_link_meshes,
    render_chain_silhouette,
    render_polyline,
    write_pgm,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_TRAINING = 4
EXIT_DATA = 5

BUILTIN_CHAINS = ("panda7", "planar2")


# ---------------------------------------------------------------------------
# option plumbing


def _read_config(path):
    """The option values a --config file holds. A file that does not parse
    is a configuration error (exit 2), not a bad data file (exit 5)."""

    def parse(obj):
        if not isinstance(obj, dict):
            raise ValueError("must hold a JSON object of option values")
        return obj

    try:
        return read_json(path, parse)
    except DatasetFormatError as exc:
        raise ValueError(f"config file {exc}") from None


def _config_value(from_file, key, action):
    """from_file[key] of the option's type and nargs, as its own flag would
    give it; exits 2 on a value that flag could not produce."""
    kind = bool if action.nargs == 0 else action.type or str  # nargs 0: store_true
    shape = (action.nargs,) if action.nargs else ()
    value = json_field(from_file, key, kind, shape, name=f"config key {key!r}")
    return value.tolist() if shape and kind is float else value


def _parse_args(argv):
    """Parse argv with precedence defaults < --config file < explicit flags.

    The file may set any option that has a default, to a value of that
    option's type and shape. Its values become the subcommand's defaults, and
    argv is parsed again on top of them.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        command = args.command_parser
        from_file = _read_config(args.config)
        settable = {
            key for key in vars(args)
            if key not in ("func", "command_parser") and command.get_default(key) is not None
        }
        unknown = sorted(set(from_file) - settable)
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        actions = {action.dest: action for action in command._actions}
        command.set_defaults(**{key: _config_value(from_file, key, actions[key]) for key in from_file})
        args = parser.parse_args(argv)
    _check_values(args)
    return args


def _check_values(args):
    """Reject, naming the option, values that would fail later inside a scene
    or mean nothing: seeds feed np.random.SeedSequence, which takes no
    negative integer, a worker count is a number of processes (0 = all
    cores), and a zero-width hidden layer makes every predicted distance
    matrix the same."""
    for dest in ("seed", "render_seed", "workers"):
        value = getattr(args, dest, None)
        if value is not None and value < 0:
            option = "--" + dest.replace("_", "-")
            raise ValueError(f"{option} must be a non-negative integer, got {value}")
    hidden = getattr(args, "hidden", None)
    if hidden is not None and min(hidden) < 1:
        widths = " ".join(str(h) for h in hidden)
        raise ValueError(f"--hidden widths must each be at least 1, got {widths}")


def _resolve_chain(spec):
    if spec in BUILTIN_CHAINS:
        return builtin_chain(spec)
    if not os.path.exists(spec):
        raise ValueError(f"chain {spec!r} is neither a built-in ({', '.join(BUILTIN_CHAINS)}) nor a file")
    return load_chain(spec)


def _render_settings(args):
    return RenderSettings(
        samples_per_link=args.samples_per_link, splat_radius=args.splat_radius, seed=args.render_seed
    )


def _scene_rows(worker, payloads, workers, none_done):
    """Run a per-scene worker over payloads, in this process when workers is
    1 and in a pool of that many processes otherwise (0 = all cores); its
    (index, result, error) rows sorted by scene index.

    A worker returns result None and an error text for a scene it could not
    do; each such scene gets one warning. Raises DatasetFormatError(none_done)
    when no scene succeeded.
    """
    workers = min(workers or os.cpu_count() or 1, len(payloads))
    if workers <= 1:
        rows = [worker(p) for p in payloads]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(worker, payloads))
    rows.sort(key=lambda r: r[0])
    for index, result, error in rows:
        if result is None:
            print(f"warning: scene {index}: {error}", file=sys.stderr)
    if all(result is None for _, result, _ in rows):
        raise DatasetFormatError(none_done)
    return rows


def _dataset_scene(by_index, index):
    """The scene with this index; DatasetFormatError when there is none."""
    if index not in by_index:
        raise DatasetFormatError(f"scene {index} is not in the dataset")
    return by_index[index]


def _load_estimates(path, chain, scenes):
    """estimates.jsonl joined to the dataset: (Scene, Estimate or None, error)
    rows in file order.

    A row that does not parse, whose angles do not fit the chain, or that
    names a scene the dataset lacks or an earlier row already named is
    reported with its file and line.
    """
    by_index = {scene.index: scene for scene in scenes}
    seen = set()

    def parse(obj):
        index = json_field(obj, "index", int)
        if "error" in obj:
            est, error = None, json_field(obj, "error", str)
        else:
            est, error = Estimate.from_json(obj), None
            check_configuration(chain, est.theta)
        if index in seen:
            raise ValueError(f"scene {index} already has an estimate")
        seen.add(index)
        return _dataset_scene(by_index, index), est, error

    return read_jsonl(path, parse, "estimate record")


def _chain_regressor(path, chain):
    """(net, trainer state or None) saved in path; ValueError naming the file
    when the regressor's input or output width does not fit the chain."""
    net, state = load_regressor(path)
    have, want = (net.layer_dims[0], net.layer_dims[-1]), regressor_widths(chain)
    if have != want:
        raise ValueError(
            f"{path}: a regressor of widths (in, out) = {have} does not match this dataset's chain "
            f"{chain.name!r}, which needs {want}"
        )
    return net, state


def _write_estimates(path, rows):
    records = ({"index": index, **({"error": error} if est is None else est.to_json())} for index, est, error in rows)
    write_jsonl(path, records)


# ---------------------------------------------------------------------------
# gen


def _gen_worker(payload):
    chain, cfg, seed, index, meshes, settings = payload
    try:
        return index, build_scene(chain, cfg, seed, index, meshes, settings), None
    except SceneGenerationError as exc:
        return index, None, f"{type(exc).__name__}: {exc}"


def cmd_gen(args):
    chain = _resolve_chain(args.chain)
    if args.count < 1:
        raise ValueError("--count must be at least 1")
    cfg = SamplerConfig(
        distance=tuple(args.distance),
        elevation=tuple(args.elevation),
        azimuth=tuple(args.azimuth),
        image_width=args.image_size[0],
        image_height=args.image_size[1],
        focal=args.focal,
        noise_std=args.noise_std,
    )
    settings = RenderSettings(samples_per_link=args.samples_per_link, splat_radius=args.splat_radius)
    meshes = default_link_meshes(chain)
    payloads = [
        (chain, cfg, args.seed, index, meshes, settings) for index in range(args.count)
    ]
    rows = _scene_rows(_gen_worker, payloads, args.workers, "every scene failed to sample")
    scenes, masks = zip(*(result for _, result, _ in rows if result is not None))
    write_dataset(args.out, chain, cfg, scenes, masks)
    print(f"wrote {len(scenes)} scenes to {args.out}")


# ---------------------------------------------------------------------------
# train-gim


def cmd_train_gim(args):
    chain, k, _, scenes = read_dataset(args.data)
    dataset = [
        (keypoint_features(scene.keypoints, k.width, k.height), edm_from_configuration(chain, scene.theta))
        for scene in scenes
    ]
    adam_state = None
    if args.resume:
        net, adam_state = _chain_regressor(args.resume, chain)
        if adam_state is None:
            raise ValueError(f"{args.resume} has no trainer state to resume from")
    else:
        net = init_regressor(
            *regressor_widths(chain),
            hidden=args.hidden,
            dropout_rate=args.dropout,
            seed=args.seed,
        )
    cfg = TrainConfig(
        steps=args.steps,
        batch_size=args.batch_size,
        learning_rate=args.learning_rate,
        warmup_steps=args.warmup_steps,
        seed=args.seed,
        start_step=adam_state.step if args.resume else 0,
    )
    if cfg.start_step >= cfg.steps:
        if args.resume:
            raise ValueError(f"checkpoint already at step {cfg.start_step}, nothing to do")
        raise ValueError(f"--steps must be at least 1, got {cfg.steps}")
    net, trace, adam_state = train_gim(net, dataset, cfg, adam_state)
    save_regressor(net, args.out, trainer_state=adam_state)
    if args.trace:
        write_csv(args.trace, ("step", "loss"), trace)
    print(f"trained {cfg.steps - cfg.start_step} steps, final loss {trace[-1][1]:.6g}, saved {args.out}")


# ---------------------------------------------------------------------------
# estimate


def _estimate_scene(payload):
    chain, k, scene, net, oracle, freeze, seed = payload
    try:
        if oracle:
            targets = joint_points(chain, scene.theta)
            d = edm_from_points(targets)
        else:
            feats = keypoint_features(scene.keypoints, k.width, k.height)
            rng = None if freeze else np.random.default_rng(np.random.SeedSequence((seed, scene.index)))
            d = mlp_forward(net, feats, dropout_active=not freeze, rng=rng)
            targets = None
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            est = estimate_from_distances(scene.keypoints, d, chain, k, targets)
        return scene.index, est, None
    except (ValueError, PnpDegenerateError) as exc:
        return scene.index, None, f"{type(exc).__name__}: {exc}"


def cmd_estimate(args):
    chain, k, _, scenes = read_dataset(args.data)
    if not (args.oracle_edm or args.net):
        raise ValueError("estimate needs --net unless --oracle-edm is set")
    net = None if args.oracle_edm else _chain_regressor(args.net, chain)[0]
    payloads = [
        (chain, k, scene, net, args.oracle_edm, args.freeze_dropout, args.seed)
        for scene in scenes
    ]
    rows = _scene_rows(_estimate_scene, payloads, args.workers, "no scene produced an estimate")
    good = sum(1 for _, est, _ in rows if est is not None)
    _write_estimates(args.out, rows)
    print(f"estimated {good}/{len(rows)} scenes, wrote {args.out}")


# ---------------------------------------------------------------------------
# refine


def _refine_worker(payload):
    chain, k, data_dir, scene, est, error, meshes, cfg, settings = payload
    if est is None:  # the estimate failed; its row keeps that error
        return scene.index, None, error
    try:
        observed = load_scene_mask(data_dir, scene, k)
        truth = Estimate.from_pose(scene.theta, scene.pose, k, provenance="truth")  # lets traces carry ADD
        result = refine(est, observed, chain, meshes, k, cfg, settings, ground_truth=truth)
        return scene.index, result, None
    except (ValueError, OSError) as exc:
        return scene.index, None, f"{type(exc).__name__}: {exc}"


def cmd_refine(args):
    chain, k, _, scenes = read_dataset(args.data)
    estimates = _load_estimates(args.estimates, chain, scenes)
    cfg = RefinerConfig(
        iterations=args.iterations,
        inner_evals_per_iteration=args.evals_per_iteration,
        step_theta=args.step_theta,
        step_rot=args.step_rot,
        step_scale=args.step_scale,
    )
    settings = _render_settings(args)
    meshes = default_link_meshes(chain)
    payloads = [
        (chain, k, args.data, scene, est, error, meshes, cfg, settings) for scene, est, error in estimates
    ]
    rows = _scene_rows(_refine_worker, payloads, args.workers, "no estimate could be refined")
    _write_estimates(args.out, [(index, result and result[0], error) for index, result, error in rows])
    traces = [(index, result[1]) for index, result, _ in rows if result is not None]
    if args.trace_dir:
        os.makedirs(args.trace_dir, exist_ok=True)
        for index, trace in traces:
            write_csv(
                os.path.join(args.trace_dir, f"trace_{index:05d}.csv"),
                ("iteration", "evals", "objective", "add"),
                [(r["iteration"], r["evaluations"], r["objective"], r["point_error"]) for r in trace],
            )
    print(f"refined {len(traces)}/{len(rows)} scenes, wrote {args.out}")


# ---------------------------------------------------------------------------
# eval


def cmd_eval(args):
    chain, k, _, scenes = read_dataset(args.data)
    records = []
    for scene, est, _ in _load_estimates(args.estimates, chain, scenes):
        if est is None:
            continue
        records.append(
            EvalRecord(
                scene_index=scene.index,
                add=add_metric(scene.pose, scene.theta, est.pose(k), est.theta, chain),
                mae_deg=mae_config(scene.theta, est.theta),
            )
        )
    if not records:
        raise DatasetFormatError("no scene has a usable estimate to evaluate")
    report = build_report(records, add_threshold=args.threshold)
    write_report_json(report, args.out)
    if args.csv:
        write_report_csv(report, args.csv)
    agg = report["aggregate"]
    print(
        f"evaluated {len(records)} scenes: mean ADD {agg['mean_add']:.4f}, "
        f"median ADD {agg['median_add']:.4f}, AUC {agg['auc']:.2f}, MAE {agg['mae_deg']:.2f} deg"
    )


# ---------------------------------------------------------------------------
# render


def cmd_render(args):
    chain, k, _, scenes = read_dataset(args.data)
    scene = _dataset_scene({scene.index: scene for scene in scenes}, args.scene)
    theta, pose = scene.theta, scene.pose
    if args.estimates:
        rows = _load_estimates(args.estimates, chain, scenes)
        est = next((est for row_scene, est, _ in rows if row_scene is scene), None)
        if est is None:
            raise DatasetFormatError(f"{args.estimates}: no usable entry for scene {args.scene}")
        theta, pose = est.theta, est.pose(k)
    meshes = default_link_meshes(chain)
    observed = load_scene_mask(args.data, scene, k)
    model = render_chain_silhouette(chain, theta, meshes, pose, k, _render_settings(args))
    overlay = np.zeros((k.height, k.width), dtype=np.uint8)
    overlay[observed] = 128
    overlay[model] = 255
    write_pgm(args.out, overlay)
    if args.skeleton:
        write_pgm(args.skeleton, render_polyline(skeleton_keypoints(chain, theta), pose, k))
    print(f"wrote {args.out}")


# ---------------------------------------------------------------------------
# parser


def build_parser():
    parser = argparse.ArgumentParser(
        prog="armpose",
        description="Estimate robot arm pose and configuration from keypoints and silhouettes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", help="JSON file with option defaults")
        p.set_defaults(func=func, command_parser=p)
        return p

    def workers_option(p):
        p.add_argument("--workers", type=int, default=0, help="process count, 0 = all cores")

    def render_options(p, with_seed=True):
        p.add_argument("--samples-per-link", type=int, default=RenderSettings.samples_per_link)
        p.add_argument("--splat-radius", type=int, default=RenderSettings.splat_radius)
        if with_seed:
            p.add_argument("--render-seed", type=int, default=RenderSettings.seed)

    p = command("gen", cmd_gen, "generate a synthetic dataset")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--chain", default="panda7", help="built-in chain name or chain JSON path")
    p.add_argument("--count", type=int, default=20, help="number of scenes")
    p.add_argument("--seed", type=int, default=0, help="dataset seed")
    p.add_argument(
        "--noise-std", type=float, default=SamplerConfig.noise_std, help="keypoint noise in pixels"
    )
    for name in ("distance", "elevation", "azimuth"):
        default = getattr(SamplerConfig, name)
        p.add_argument(f"--{name}", type=float, nargs=2, default=default, metavar=("LO", "HI"))
    p.add_argument(
        "--image-size",
        type=int,
        nargs=2,
        default=(SamplerConfig.image_width, SamplerConfig.image_height),
        metavar=("W", "H"),
    )
    p.add_argument("--focal", type=float, default=SamplerConfig.focal)
    render_options(p, with_seed=False)
    workers_option(p)

    p = command("train-gim", cmd_train_gim, "train the keypoint-to-distance regressor")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--out", required=True, help="output regressor JSON")
    p.add_argument("--steps", type=int, default=TrainConfig.steps)
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p.add_argument("--learning-rate", type=float, default=TrainConfig.learning_rate)
    p.add_argument("--warmup-steps", type=int, default=TrainConfig.warmup_steps)
    hidden = inspect.signature(init_regressor).parameters["hidden"].default
    p.add_argument("--hidden", type=int, nargs=2, default=hidden, metavar=("H1", "H2"))
    p.add_argument("--dropout", type=float, default=MlpRegressor.dropout_rate)
    p.add_argument("--seed", type=int, default=TrainConfig.seed)
    p.add_argument("--resume", help="regressor JSON with trainer state to continue from")
    p.add_argument("--trace", help="write per-step losses to this CSV")

    p = command("estimate", cmd_estimate, "geometric initialization for every scene")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--out", required=True, help="output estimates JSONL")
    p.add_argument("--net", help="trained regressor JSON")
    p.add_argument(
        "--oracle-edm",
        action="store_true",
        help="use ground-truth distances and alignment anchors instead of the regressor",
    )
    p.add_argument(
        "--freeze-dropout",
        action="store_true",
        help="disable inference-time dropout",
    )
    p.add_argument(
        "--seed", type=int, default=0, help="dropout seed; each scene draws from (seed, scene index)"
    )
    workers_option(p)

    p = command("refine", cmd_refine, "silhouette refinement of existing estimates")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--estimates", required=True, help="estimates JSONL to refine")
    p.add_argument("--out", required=True, help="output refined JSONL")
    p.add_argument("--iterations", type=int, default=RefinerConfig.iterations)
    p.add_argument(
        "--evals-per-iteration", type=int, default=RefinerConfig.inner_evals_per_iteration
    )
    p.add_argument("--step-theta", type=float, default=RefinerConfig.step_theta)
    p.add_argument(
        "--step-rot",
        type=float,
        default=RefinerConfig.step_rot,
        help="first rotation step, in radians about a base-frame axis",
    )
    p.add_argument("--step-scale", type=float, default=RefinerConfig.step_scale)
    render_options(p)
    p.add_argument("--trace-dir", help="write per-scene objective traces here")
    workers_option(p)

    p = command("eval", cmd_eval, "score estimates against ground truth")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--estimates", required=True, help="estimates JSONL to score")
    p.add_argument("--out", required=True, help="output report JSON")
    p.add_argument("--csv", help="also write the per-scene table as CSV")
    p.add_argument(
        "--threshold", type=float, default=ADD_THRESHOLD, help="ADD threshold for the area-under-curve score"
    )

    p = command("render", cmd_render, "overlay and skeleton images for one scene")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--scene", type=int, required=True, help="scene index")
    p.add_argument("--out", required=True, help="output overlay PGM")
    p.add_argument("--skeleton", help="also write a projected-skeleton PGM")
    p.add_argument("--estimates", help="render this estimates file instead of ground truth")
    render_options(p)

    return parser


def main(argv=None):
    try:
        args = _parse_args(argv)
        args.func(args)
        return EXIT_OK
    except TrainingDivergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TRAINING
    except DatasetFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except FileNotFoundError as exc:
        print(f"error: missing file: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
