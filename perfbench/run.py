"""Run one armpose benchmark workload and print its metrics.

    python3 perfbench/run.py --workload refine-sweep --seed 0 --seconds 40 --trace 0

Builds the workload's inputs from --seed, repeats its job in a closed loop
for --seconds, checks the outputs, prints every metric by name with unit and
direction, writes the full result (environment, digests, failure counts,
reported quality) to perfbench/out/, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``. With --trace 0 the metrics
are the end-to-end ones; with --trace 1 the run spends half of --seconds
untraced and half traced, and the metrics are the per-layer ones from the
traced half, plus the tracing overhead. Exits 1 when an output check fails
and 2 when the program cannot be imported from src/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

from tracer import TARGETS, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
DEFAULT_SEED = 0
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
# Set-up is repeated after every job, so its median spans the whole run the
# way the job times do, rather than the machine speed of its first second.
SETUP_BATCH_SECONDS = 0.2
SETUP_BATCH_MAX = 10


def limit_blas_threads():
    """One BLAS thread per pool, whatever the shell says; must run before numpy loads."""
    for var in BLAS_VARS:
        os.environ[var] = "1"


def import_program():
    """Import armpose from this checkout's src/, never from anywhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import armpose
    except ImportError as exc:
        print(f"error: cannot import armpose from {src}: {exc}", file=sys.stderr)
        raise SystemExit(2) from exc
    if not os.path.abspath(armpose.__file__).startswith(src + os.sep):
        print(f"error: armpose was imported from {armpose.__file__}, not {src}", file=sys.stderr)
        raise SystemExit(2)
    return armpose


def git_commit():
    """HEAD commit when the checkout is itself a git work tree, else 'unknown'."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown"
    return lines[1]


def environment(trace):
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "git_commit": git_commit(),
        "tracing": bool(trace),
        "machine": platform.machine(),
    }


def tail(values):
    """(value, percentile) at the highest percentile with >= 10 samples beyond
    it; None below 20 samples, where that percentile would not be a tail."""
    n = len(values)
    if n < 20:
        return None, None
    return sorted(values)[n - 11], 100.0 * (n - 10) / n


def run_jobs(workload, setup, tracer, budget, resetup=False):
    """Closed loop: repeat the job (at least once) while the next round
    would end less than half a round past `budget` seconds, so a run takes
    about `budget` whatever the job length. With `resetup`, each round also
    sets up again for about SETUP_BATCH_SECONDS; every job runs on the
    inputs of the latest set-up."""
    jobs = []
    inputs = setup()
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        if tracer:
            tracer.set_scene("job")
        jobs.append(workload.job(inputs, tracer))
        if resetup:
            batch_start = time.perf_counter()
            for _ in range(SETUP_BATCH_MAX):
                inputs = setup()
                if time.perf_counter() - batch_start >= SETUP_BATCH_SECONDS:
                    break
        now = time.perf_counter()
        if now - start + 0.5 * (now - round_start) > budget:
            return jobs


def scenes_per_s(jobs):
    """Scenes completed per second of job time, over all of a run's jobs."""
    return sum(j["scenes"] for j in jobs) / sum(j["seconds"] for j in jobs)


def end_to_end(setup_times, jobs):
    return {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "scenes_per_s": scenes_per_s(jobs),
    }


def per_layer(tracer, jobs, overhead_pct, metric_specs):
    """Per-layer metrics from the traced half. Counts, totals and self times
    are per job, taken over spans inside jobs. Per-call medians use every
    span, set-up included, so that set-up-only calls (build_scene on
    refine-sweep) are measured too; dataset reads and writes, whose size
    differs between set-up and job, are per-job totals instead.
    A layer the workload never calls reads 0."""
    n_jobs = len(jobs)
    setup_scene = f"{tracer.workload}:setup"
    durations, job_calls, job_total, job_self = {}, {}, {}, {}
    for name, _layer, scene, _parent, t0, t1, child in tracer.spans:
        durations.setdefault(name, []).append(t1 - t0)
        if scene != setup_scene:
            job_calls[name] = job_calls.get(name, 0) + 1
            job_total[name] = job_total.get(name, 0.0) + (t1 - t0)
            job_self[name] = job_self.get(name, 0.0) + (t1 - t0 - child)

    def p50(span, scale):
        return scale * statistics.median(durations[span]) if span in durations else 0.0

    c = tracer.counters
    refine_calls = job_calls.get("refine.refine", 0)
    steps = c["train_gim.steps"]
    m = {
        "refine.refine.self_s": job_self.get("refine.refine", 0.0) / n_jobs,
        "refine.evals": c["refine.evals"] / refine_calls if refine_calls else 0.0,
        "refine.late_gain_frac": c["refine.late_drop"] / c["refine.drop"] if c["refine.drop"] else 0.0,
        "train_gim.ms_per_step": 1e3 * sum(durations.get("distgeo.train_gim", [])) / steps if steps else 0.0,
        "distgeo.warnings.nonembeddable": c["distgeo.warnings.nonembeddable"] / n_jobs,
        "distgeo.warnings.ambiguous": c["distgeo.warnings.ambiguous"] / n_jobs,
        "build_scene.ms_p50": p50("datagen.build_scene", 1e3),
        "write_dataset.s": job_total.get("datagen.write_dataset", 0.0) / n_jobs,
        "read_dataset.s": job_total.get("datagen.read_dataset", 0.0) / n_jobs,
        "io.bytes_written": statistics.mean(j["bytes_written"] for j in jobs),
        "trace.overhead_pct": overhead_pct,
    }
    for stage in ("gen", "train_gim", "estimate", "refine", "eval"):
        m[f"cli.{stage}_s"] = p50(f"cli.{stage}", 1.0)
    # The rest are "<function>.<calls|self_s|us_p50>" of a wrapped function.
    span_of = {fname: f"{modname}.{fname}" for _, modname, fname in TARGETS}
    for spec in metric_specs:
        fname, _, kind = spec["name"].rpartition(".")
        if spec["name"] in m:
            continue
        span = span_of[fname]
        if kind == "calls":
            m[spec["name"]] = job_calls.get(span, 0) / n_jobs
        elif kind == "self_s":
            m[spec["name"]] = job_self.get(span, 0.0) / n_jobs
        else:
            m[spec["name"]] = p50(span, 1e6)
    return m


def load_spec():
    """BENCHMARK.json: metric names, units and directions, and workload reasons."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def measure(workload, seed, seconds, trace, sizes, workdir):
    """Set up, run the untraced (and, with trace, the traced) loop, and check."""
    setup_times = []

    def timed_setup():
        t0 = time.perf_counter()
        inputs = workload.setup(seed, sizes, workdir)
        setup_times.append(time.perf_counter() - t0)
        return inputs

    jobs = run_jobs(workload, timed_setup, None, seconds / 2.0 if trace else seconds, resetup=True)
    result = {"setup_times_s": setup_times, "jobs": jobs, "traced_jobs": [], "tracer": None}
    e2e = end_to_end(setup_times, jobs)
    if trace:
        tracer = Tracer(workload.name)
        tracer.install()
        try:
            traced = run_jobs(workload, lambda: workload.setup(seed, sizes, workdir, tracer),
                              tracer, seconds / 2.0)
        finally:
            tracer.uninstall()
        overhead = 100.0 * (scenes_per_s(jobs) / scenes_per_s(traced) - 1.0)
        result.update(traced_jobs=traced, tracer=tracer, overhead_pct=overhead)
    result["end_to_end"] = e2e
    return result


def summarize(workload, seed, seconds, trace, measured):
    jobs, traced = measured["jobs"], measured["traced_jobs"]
    every = jobs + traced
    digests = sorted({j["digest"] for j in every})
    checks = {name: all(j["checks"][name] for j in every) for name in jobs[0]["checks"]}
    checks["outputs identical across jobs"] = len(digests) == 1
    attempted = sum(j["attempted"] for j in every)
    failed = sum(j["failed"] for j in every)
    failures = {key: sum(j["failures"][key] for j in every) for key in jobs[0]["failures"]}
    report = workload.report(jobs)
    lat = [ms for j in jobs for ms in j["latencies_ms"]]
    tail_value, tail_pct = tail(lat)
    report.update({
        "failed_frac": failed / attempted,
        "scene_ms.p50": statistics.median(lat) if lat else None,
        "scene_ms.tail": tail_value,
        "scene_ms.tail_percentile": tail_pct,
        "scene_ms.samples": len(lat),
        "jobs": len(jobs),
    })
    summary = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "environment": environment(trace),
        "end_to_end": measured["end_to_end"],
        "reported": report,
        "quality": jobs[0]["quality"],
        "output_digest": digests[0] if len(digests) == 1 else digests,
        "checks": checks,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "setup_times_s": measured["setup_times_s"],
        "job_seconds": [j["seconds"] for j in jobs],
        "stages": [j["stages"] for j in jobs],
    }
    if trace:
        tracer = measured["tracer"]
        summary["tracing_overhead_pct"] = measured["overhead_pct"]
        summary["traced_job_seconds"] = [j["seconds"] for j in traced]
        summary["per_layer"] = per_layer(tracer, traced, measured["overhead_pct"],
                                         load_spec()["per_layer"])
        summary["layers_seen"] = tracer.layers_seen()
        summary["spans"] = len(tracer.spans)
    return summary


def print_report(summary, spec):
    from workloads import REPORTED_UNITS

    why = {w["name"]: w["why"] for w in spec["workloads"]}
    print(f"workload {summary['workload']}  seed {summary['seed']}  "
          f"tracing {'on' if summary['environment']['tracing'] else 'off'}")
    print(f"  why: {why[summary['workload']]}")
    rows = [(m, summary["end_to_end"][m["name"]], "") for m in spec["end_to_end"]]
    for name, value in list(summary["reported"].items()) + list(summary["quality"].items()):
        if name in REPORTED_UNITS and value is not None:
            unit, better = REPORTED_UNITS[name]
            rows.append(({"name": name, "unit": unit, "better": better}, value, " (not gated)"))
    if "per_layer" in summary:
        rows += [(m, summary["per_layer"][m["name"]], " (per layer)") for m in spec["per_layer"]]
    for m, value, note in rows:
        print(f"  {m['name']:34s} {value:14.6g} {m['unit']:11s} {m['better']} is better{note}")
    print(f"  failed/attempted {summary['failed']}/{summary['attempted']} {summary['failures']}")
    for name, ok in summary["checks"].items():
        print(f"  check {'ok  ' if ok else 'FAIL'} {name}")
    print(f"  output sha256 {summary['output_digest']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    limit_blas_threads()
    import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    spec = load_spec()
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    try:
        measured = measure(workload, args.seed, args.seconds, args.trace, workloads.Sizes(), workdir)
    except workloads.BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    summary = summarize(workload, args.seed, args.seconds, args.trace, measured)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    if args.trace:
        measured["tracer"].write_spans(stem + "-spans.jsonl")

    print_report(summary, spec)
    correct = all(summary["checks"].values())
    values = summary["per_layer"] if args.trace else summary["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}
    print(json.dumps({"correct": correct, "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
