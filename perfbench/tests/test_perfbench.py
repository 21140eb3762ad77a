"""Tests of the benchmark harness itself, run at tiny sizes."""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402

run.import_program()

import tracer  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")
SEED = 5


@pytest.fixture(scope="module")
def summaries(tmp_path_factory):
    """One untraced and one traced tiny run of every workload."""
    out = {}
    for name, workload in workloads.WORKLOADS.items():
        for trace in (0, 1):
            workdir = str(tmp_path_factory.mktemp(f"{name}-{trace}"))
            measured = run.measure(workload, SEED, 0.0, trace, workloads.TINY, workdir)
            out[name, trace] = run.summarize(workload, SEED, 0.0, trace, measured)
    return out


def test_every_named_metric_appears_with_a_unit(summaries):
    spec = run.load_spec()
    with open(os.path.join(BENCH, "layer_map.json"), encoding="utf-8") as fh:
        layer_map = json.load(fh)["per_layer"]
    assert [m["name"] for m in spec["per_layer"]] == [m["name"] for m in layer_map]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(m["name"]) and m["unit"] and m["better"] in ("lower", "higher"), m
    for (workload, trace), summary in summaries.items():
        for m in spec["end_to_end"]:
            assert summary["end_to_end"][m["name"]] > 0, (workload, m["name"])
        if trace:
            assert set(summary["per_layer"]) == {m["name"] for m in spec["per_layer"]}, workload


def test_traced_runs_emit_spans_for_every_layer(summaries):
    seen = set()
    for (workload, trace), summary in summaries.items():
        if trace:
            assert summary["spans"] > 0, workload
            seen.update(summary["layers_seen"])
    assert set(tracer.LAYERS) <= seen
    assert set(tracer.LAYERS) <= set(summaries["pipeline", 1]["layers_seen"])


def test_two_runs_give_identical_digests_and_pass_checks(summaries):
    for name in workloads.WORKLOADS:
        first, second = summaries[name, 0], summaries[name, 1]
        assert isinstance(first["output_digest"], str), name
        assert first["output_digest"] == second["output_digest"], name
        assert all(first["checks"].values()) and all(second["checks"].values()), name
        assert first["attempted"] >= 1 and first["failed"] == 0, name


def test_uninstall_restores_every_wrapped_function():
    refine_mod, cli_mod = sys.modules["armpose.refine"], sys.modules["armpose.cli"]

    def current():
        return (refine_mod.render_link_clouds, refine_mod.refine, cli_mod.refine,
                cli_mod.forward_kinematics, workloads.ap.refine)

    originals = current()
    t = tracer.Tracer("probe")
    t.install()
    assert all(now is not before for now, before in zip(current(), originals))
    t.uninstall()
    assert current() == originals


def test_invalid_estimate_is_reported():
    import numpy as np

    good = workloads.ap.Estimate(np.zeros(7), np.eye(3), 2.0, np.zeros(2))
    assert workloads.estimate_problems(good) == []
    bad = workloads.ap.Estimate(np.full(7, np.nan), np.eye(3), 2.0, np.zeros(2))
    assert workloads.estimate_problems(bad) == ["non-finite theta"]


def test_fails_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark, the run must fail."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pipeline", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
