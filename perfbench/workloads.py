"""The benchmark's three workloads.

Each workload has a ``setup`` that builds its inputs from the workload seed
and a ``job`` that does one fixed pass of work over those inputs. A run
repeats the job in a closed loop (one caller, next job after the previous
one ends), so every job of a run does identical work and must produce
identical outputs; the digest of the first job is the run's output digest.

- refine-sweep: library calls. Scenes from ``build_scene`` at the default
  sampler and render settings, started from criterion 9's perturbed truth
  (theta +- 0.1 rad per joint, depth x 1.1) and refined with the default
  ``RefinerConfig``. Almost all of its time is the refinement hot path; it
  never touches the trainer or EPnP.
- init-train: library calls. ``train_gim`` on a generated training set,
  then the honest estimate path on a held-out test set. Skips
  ``silhouette`` and ``refine``.
- pipeline: the CLI in-process (gen, train-gim, estimate --freeze-dropout,
  refine, eval), every call with ``--workers 1`` where the subcommand has
  it. The path users run, with honest end-to-end quality.

Training scenes use dataset seed ``2 * seed`` and test scenes ``2 * seed + 1``,
so the two sets never share a scene.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import statistics
import time
import warnings
from dataclasses import dataclass

import numpy as np

import armpose as ap
from armpose import cli


class BenchmarkError(RuntimeError):
    """A workload step failed in a way that makes the run invalid."""


@dataclass(frozen=True)
class Sizes:
    """How much work one job does. The defaults are the benchmark's sizes."""

    sweep_scenes: int = 4
    train_scenes: int = 200
    train_steps: int = 150
    test_scenes: int = 100
    pipeline_train_scenes: int = 60
    pipeline_train_steps: int = 100
    pipeline_test_scenes: int = 3


def warmup_steps(steps):
    """Learning-rate warmup in the default proportion (100 of 2000 steps), so
    the short training runs here leave warmup early instead of ending in it."""
    return max(1, steps // 20)


# Small enough for the benchmark's own tests; same code paths.
TINY = Sizes(
    sweep_scenes=1,
    train_scenes=16,
    train_steps=4,
    test_scenes=3,
    pipeline_train_scenes=6,
    pipeline_train_steps=4,
    pipeline_test_scenes=2,
)

ESTIMATE_ERRORS = (ValueError, ap.PnpDegenerateError)

# (unit, better) of the figures each run prints and stores without gating them.
REPORTED_UNITS = {
    "failed_frac": ("ratio", "lower"),
    "scene_ms.p50": ("ms", "lower"),
    "scene_ms.tail": ("ms", "lower"),
    "train_steps_per_s": ("steps/s", "higher"),
    "estimate_scenes_per_s": ("scenes/s", "higher"),
    "pipeline_s": ("s", "lower"),
    "refine_add_median_m": ("m", "lower"),
    "refine_init_add_median_m": ("m", "lower"),
    "refine_mae_deg": ("deg", "lower"),
    "init_add_median_m": ("m", "lower"),
    "init_mae_deg": ("deg", "lower"),
    "init_auc_pct": ("%", "higher"),
    "pipeline_add_median_m": ("m", "lower"),
    "pipeline_mae_deg": ("deg", "lower"),
    "pipeline_auc_pct": ("%", "higher"),
}


def _span(tracer, name, layer):
    return tracer.span(name, layer) if tracer else contextlib.nullcontext()


def _set_scene(tracer, index):
    if tracer:
        tracer.set_scene(index)


def _truth(scene, k):
    """Ground truth as an Estimate: rotation, depth scale and base pixel."""
    t = scene.pose.translation
    pix = np.array([k.fx * t[0] / t[2] + k.cx, k.fy * t[1] / t[2] + k.cy])
    return ap.Estimate(scene.theta, scene.pose.rotation, float(t[2]), pix, provenance="truth")


def estimate_problems(est):
    """Reasons an estimate is invalid: non-finite angles, improper rotation, bad scale."""
    problems = []
    if not np.all(np.isfinite(est.theta)):
        problems.append("non-finite theta")
    rot = est.rotation
    if not (np.all(np.isfinite(rot)) and np.max(np.abs(rot @ rot.T - np.eye(3))) < 1e-6
            and abs(np.linalg.det(rot) - 1.0) < 1e-6):
        problems.append("rotation is not proper")
    if not (np.isfinite(est.scale) and est.scale > 0.0):
        problems.append("scale is not positive")
    return problems


def _check_estimates(checks, label, estimates):
    checks[f"{label} estimates valid"] = bool(estimates) and not any(
        estimate_problems(est) for est in estimates)


def _digest(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode("utf-8")).hexdigest()


def _job_result(seconds, scenes, latencies_ms, attempted, failures, digest, quality,
                checks, stages, bytes_written=0):
    return {
        "seconds": seconds,
        "scenes": scenes,
        "latencies_ms": latencies_ms,
        "attempted": attempted,
        "failures": failures,
        "failed": sum(failures.values()),
        "digest": digest,
        "quality": quality,
        "checks": checks,
        "stages": stages,
        "bytes_written": bytes_written,
    }


# ---------------------------------------------------------------------------
# refine-sweep


def sweep_setup(seed, sizes, workdir, tracer=None):
    chain = ap.builtin_chain("panda7")
    cfg = ap.SamplerConfig()
    k = cfg.intrinsics()
    meshes = ap.default_link_meshes(chain)
    settings = ap.RenderSettings()
    lo, hi = chain.limits()
    scenes, skipped = [], 0
    for i in range(sizes.sweep_scenes):
        try:
            scene, mask = ap.build_scene(chain, cfg, seed, i, meshes, settings)
        except ap.SceneGenerationError:
            skipped += 1
            continue
        rng = np.random.default_rng(np.random.SeedSequence((seed, i, 3)))
        signs = rng.choice([-1.0, 1.0], size=chain.dof)
        truth = _truth(scene, k)
        init = ap.Estimate(np.clip(scene.theta + 0.1 * signs, lo, hi), truth.rotation,
                           1.1 * truth.scale, truth.base_pixel)
        scenes.append((scene, mask, init, truth))
    return {"chain": chain, "k": k, "meshes": meshes, "settings": settings,
            "scenes": scenes, "gen_skipped": skipped}


def sweep_job(inp, tracer=None):
    chain, k = inp["chain"], inp["k"]
    start = time.perf_counter()
    results, latencies, refine_failed = [], [], 0
    for scene, mask, init, truth in inp["scenes"]:
        _set_scene(tracer, scene.index)
        t0 = time.perf_counter()
        try:
            refined, trace = ap.refine(init, mask, chain, inp["meshes"], k, ap.RefinerConfig(),
                                       inp["settings"], ground_truth=truth)
        except ValueError:
            refine_failed += 1
            continue
        latencies.append(1e3 * (time.perf_counter() - t0))
        results.append((scene, init, refined, trace))
    seconds = time.perf_counter() - start
    _set_scene(tracer, "job")

    adds_init = [ap.add_metric(s.pose, s.theta, i.pose(k), i.theta, chain) for s, i, _, _ in results]
    adds_ref = [ap.add_metric(s.pose, s.theta, r.pose(k), r.theta, chain) for s, _, r, _ in results]
    maes = [ap.mae_config(s.theta, r.theta) for s, _, r, _ in results]
    attempted = inp["gen_skipped"] + len(inp["scenes"])
    checks = {}
    _check_estimates(checks, "refined", [r for _, _, r, _ in results])
    checks["scene counts match"] = len(results) + refine_failed == len(inp["scenes"])
    checks["refined median ADD below initial"] = bool(
        results and np.median(adds_ref) < np.median(adds_init))
    digest = _digest([[s.index, r.to_json(), tr] for s, _, r, tr in results])
    quality = {}
    if results:
        quality = {"refine_add_median_m": float(np.median(adds_ref)),
                   "refine_init_add_median_m": float(np.median(adds_init)),
                   "refine_mae_deg": float(np.mean(maes))}
    return _job_result(seconds, len(results), latencies, attempted,
                       {"gen_skipped": inp["gen_skipped"], "refine_errors": refine_failed},
                       digest, quality, checks, {})


# ---------------------------------------------------------------------------
# init-train


def _keypoint_scenes(chain, cfg, seed, count):
    """(index, theta, pose, noisy keypoints) per scene, with the keypoints
    ``build_scene`` would give; scenes that fail to sample are skipped."""
    out = []
    for i in range(count):
        try:
            theta, pose, keypoints = ap.sample_scene(chain, cfg, seed, i)
        except ap.SceneGenerationError:
            continue
        out.append((i, theta, pose, ap.perturb_keypoints(keypoints, cfg.noise_std, (seed, i, 1))))
    return out


def init_setup(seed, sizes, workdir, tracer=None):
    chain = ap.builtin_chain("panda7")
    cfg = ap.SamplerConfig()
    k = cfg.intrinsics()
    train = _keypoint_scenes(chain, cfg, 2 * seed, sizes.train_scenes)
    test = _keypoint_scenes(chain, cfg, 2 * seed + 1, sizes.test_scenes)
    dataset = [(ap.keypoint_features(kp, k.width, k.height), ap.edm_from_configuration(chain, theta))
               for _, theta, _, kp in train]
    net = ap.init_regressor(2 * (chain.dof + 1), chain.dof * (2 * chain.dof - 1), seed=seed)
    return {"chain": chain, "k": k, "dataset": dataset, "test": test, "net": net,
            "gen_skipped": sizes.test_scenes - len(test),
            "train_cfg": ap.TrainConfig(steps=sizes.train_steps, seed=seed,
                                        warmup_steps=warmup_steps(sizes.train_steps))}


def _honest_estimate(net, keypoints, chain, k):
    """The estimate path the CLI runs: dropout off, no ground truth anywhere."""
    d = ap.mlp_forward(net, ap.keypoint_features(keypoints, k.width, k.height))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cloud = ap.points_from_gram(ap.gram_from_edm(d))
        aligned = ap.align_points(cloud, chain, None)
        theta0 = ap.configuration_from_points(chain, aligned)
    return ap.initial_estimate(keypoints, theta0, chain, k)


def init_job(inp, tracer=None):
    chain, k = inp["chain"], inp["k"]
    start = time.perf_counter()
    net, loss_trace, _ = ap.train_gim(inp["net"], inp["dataset"], inp["train_cfg"])
    train_s = time.perf_counter() - start
    rows, latencies, errors = [], [], 0
    for index, theta, pose, keypoints in inp["test"]:
        _set_scene(tracer, index)
        t0 = time.perf_counter()
        try:
            est = _honest_estimate(net, keypoints, chain, k)
        except ESTIMATE_ERRORS:
            errors += 1
            continue
        latencies.append(1e3 * (time.perf_counter() - t0))
        rows.append((index, theta, pose, est))
    seconds = time.perf_counter() - start
    _set_scene(tracer, "job")

    adds = [ap.add_metric(pose, theta, e.pose(k), e.theta, chain) for _, theta, pose, e in rows]
    maes = [ap.mae_config(theta, e.theta) for _, theta, _, e in rows]
    checks = {}
    _check_estimates(checks, "initial", [e for _, _, _, e in rows])
    checks["scene counts match"] = len(rows) + errors == len(inp["test"])
    checks["training loss finite"] = bool(np.all(np.isfinite([loss for _, loss in loss_trace])))
    digest = _digest({
        "net": [w.tolist() for w in net.weights] + [b.tolist() for b in net.biases],
        "loss": loss_trace,
        "estimates": [[i, e.to_json()] for i, _, _, e in rows],
    })
    quality = {}
    if rows:
        quality = {"init_add_median_m": float(np.median(adds)),
                   "init_mae_deg": float(np.mean(maes)),
                   "init_auc_pct": ap.auc(adds, threshold=0.1)}
    stages = {"train_s": train_s, "train_steps": inp["train_cfg"].steps,
              "estimate_s": seconds - train_s}
    return _job_result(seconds, len(inp["test"]), latencies, len(inp["test"]) + inp["gen_skipped"],
                       {"gen_skipped": inp["gen_skipped"], "estimate_errors": errors},
                       digest, quality, checks, stages)


# ---------------------------------------------------------------------------
# pipeline


def _cli(tracer, span_name, *argv):
    """Run one subcommand in-process with its console output captured."""
    out, err = io.StringIO(), io.StringIO()
    with _span(tracer, span_name, "cli"), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise BenchmarkError(f"armpose {argv[0]} exited {code}: {err.getvalue().strip()}")


def _fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def _jsonl(path):
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def pipeline_setup(seed, sizes, workdir, tracer=None):
    """Generate the training dataset with ``armpose gen``."""
    train = os.path.join(_fresh_dir(os.path.join(workdir, "pipeline-setup")), "train")
    _cli(tracer, "cli.gen_train", "gen", "--out", train, "--count", sizes.pipeline_train_scenes,
         "--seed", 2 * seed, "--workers", 1)
    return {"seed": seed, "sizes": sizes, "train": train, "workdir": workdir}


def pipeline_job(inp, tracer=None):
    sizes, seed = inp["sizes"], inp["seed"]
    root = _fresh_dir(os.path.join(inp["workdir"], "pipeline-job"))
    test = os.path.join(root, "test")
    net = os.path.join(root, "net.json")
    est = os.path.join(root, "estimates.jsonl")
    refined = os.path.join(root, "refined.jsonl")
    report = os.path.join(root, "report.json")
    stages = {}
    steps = [
        ("gen", ["gen", "--out", test, "--count", sizes.pipeline_test_scenes,
                 "--seed", 2 * seed + 1, "--workers", 1]),
        ("train_gim", ["train-gim", "--data", inp["train"], "--out", net,
                       "--steps", sizes.pipeline_train_steps, "--seed", seed,
                       "--warmup-steps", warmup_steps(sizes.pipeline_train_steps),
                       "--trace", os.path.join(root, "loss.csv")]),
        ("estimate", ["estimate", "--data", test, "--out", est, "--net", net,
                      "--freeze-dropout", "--workers", 1]),
        ("refine", ["refine", "--data", test, "--estimates", est, "--out", refined,
                    "--trace-dir", os.path.join(root, "traces"), "--workers", 1]),
        ("eval", ["eval", "--data", test, "--estimates", refined, "--out", report,
                  "--csv", os.path.join(root, "report.csv")]),
    ]
    start = time.perf_counter()
    for stage, argv in steps:
        _set_scene(tracer, "job")
        t0 = time.perf_counter()
        _cli(tracer, f"cli.{stage}", *argv)
        stages[f"{stage}_s"] = time.perf_counter() - t0
    seconds = time.perf_counter() - start

    scenes = _jsonl(os.path.join(test, "scenes.jsonl"))
    est_rows, ref_rows = _jsonl(est), _jsonl(refined)
    with open(report, "r", encoding="utf-8") as fh:
        agg = json.load(fh)
    est_errors = sum("error" in r for r in est_rows)
    ref_errors = sum("error" in r for r in ref_rows) - est_errors
    gen_skipped = sizes.pipeline_test_scenes - len(scenes)
    checks = {}
    for label, rows in (("initial", est_rows), ("refined", ref_rows)):
        try:
            parsed = [ap.Estimate.from_json(r) for r in rows if "error" not in r]
        except ValueError:
            checks[f"{label} estimates valid"] = False
        else:
            _check_estimates(checks, label, parsed)
    checks["scene counts match"] = (
        len(est_rows) == len(scenes) and len(ref_rows) == len(est_rows)
        and len(agg["per_scene"]) == len(ref_rows) - est_errors - ref_errors)

    files, bytes_written = [], 0
    for dirpath, _dirs, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                data = fh.read()
            bytes_written += len(data)
            files.append((os.path.relpath(path, root), hashlib.sha256(data).hexdigest()))
    aggregate = agg["aggregate"]
    quality = {"pipeline_add_median_m": aggregate["median_add"],
               "pipeline_mae_deg": aggregate["mae_deg"],
               "pipeline_auc_pct": aggregate["auc"]}
    n = sizes.pipeline_test_scenes
    # No per-scene latency: the CLI stages each run over all scenes at once.
    return _job_result(seconds, n, [], n,
                       {"gen_skipped": gen_skipped, "estimate_errors": est_errors,
                        "refine_errors": ref_errors},
                       _digest(sorted(files)), quality, checks, stages, bytes_written)


def sweep_report(jobs):
    # scenes_per_s and scene_ms.* (added for every workload) are the refine rates.
    return {}


def init_report(jobs):
    return {
        "train_steps_per_s": sum(j["stages"]["train_steps"] for j in jobs)
        / sum(j["stages"]["train_s"] for j in jobs),
        "estimate_scenes_per_s": sum(len(j["latencies_ms"]) for j in jobs)
        / sum(j["stages"]["estimate_s"] for j in jobs),
    }


def pipeline_report(jobs):
    # Stage times stay in each job's "stages"; traced runs report them per layer.
    return {"pipeline_s": statistics.mean(j["seconds"] for j in jobs)}


@dataclass(frozen=True)
class Workload:
    name: str
    setup: object
    job: object
    report: object


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("refine-sweep", sweep_setup, sweep_job, sweep_report),
        Workload("init-train", init_setup, init_job, init_report),
        Workload("pipeline", pipeline_setup, pipeline_job, pipeline_report),
    )
}
