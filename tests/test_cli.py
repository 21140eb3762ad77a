"""End-to-end tests that drive the command line in process via main(argv)."""

import base64
import hashlib
import json
import math
import shutil

import numpy as np
import pytest

from armpose import AdamState, RenderSettings, init_regressor, save_regressor
from armpose.cli import main


def run(*argv):
    return main([str(a) for a in argv])


def gen_dataset(path, count=4, seed=42, extra=()):
    code = run(
        "gen", "--out", path, "--count", count, "--seed", seed, "--workers", 1, *extra
    )
    assert code == 0
    return path


@pytest.fixture(scope="module")
def fronto_dataset(tmp_path_factory):
    """Noise-free scenes with the camera level with the arm.

    A level camera sees the vertical base link at constant depth, which is
    the regime where the single-link scale recovery is exact.
    """
    path = tmp_path_factory.mktemp("cli") / "fronto"
    return gen_dataset(
        str(path), count=5, seed=42, extra=["--noise-std", 0, "--elevation", 0, 0]
    )


@pytest.fixture(scope="module")
def noisy_dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "noisy"
    return gen_dataset(str(path), count=8, seed=7)


@pytest.fixture(scope="module")
def trained_net(tmp_path_factory, noisy_dataset):
    path = tmp_path_factory.mktemp("cli") / "net.json"
    code = run(
        "train-gim", "--data", noisy_dataset, "--out", path,
        "--steps", 150, "--batch-size", 16, "--seed", 0,
    )
    assert code == 0
    return str(path)


def test_parser_lists_all_subcommands():
    from armpose.cli import build_parser

    parser = build_parser()
    text = parser.format_help()
    for name in ["gen", "train-gim", "estimate", "refine", "eval", "render"]:
        assert name in text


def test_unknown_flag_exits_two():
    with pytest.raises(SystemExit) as info:
        run("gen", "--out", "x", "--bogus-flag")
    assert info.value.code == 2


def test_missing_config_file_exits_two(tmp_path):
    assert run("gen", "--out", tmp_path / "d", "--config", tmp_path / "nope.json") == 2


def test_unknown_config_key_exits_two(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus_key": 1}))
    assert run("gen", "--out", tmp_path / "d", "--config", cfg) == 2
    assert "bogus_key" in capsys.readouterr().err


@pytest.mark.parametrize(
    "body, key",
    [
        ({"count": 2.5}, "count"),
        ({"count": True}, "count"),
        ({"noise_std": "5"}, "noise_std"),
        ({"chain": 7}, "chain"),
        ({"distance": [1.0, 2.0, 3.0]}, "distance"),
        ({"distance": 2.0}, "distance"),
        ({"count": [2]}, "count"),
        ({"count": {"n": 2}}, "count"),
    ],
)
def test_config_value_of_wrong_type_exits_two(tmp_path, capsys, body, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(body))
    assert run("gen", "--out", tmp_path / "d", "--config", cfg) == 2
    assert repr(key) in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize(
    "extra, field",
    [
        (["--noise-std", "nan"], "noise_std"),
        (["--distance", "nan", "nan"], "distance"),
        (["--elevation", "nan", "0.3"], "elevation"),
        (["--focal", "inf"], "focal"),
    ],
)
def test_gen_non_finite_sampler_value_exits_two(tmp_path, capsys, extra, field):
    out = tmp_path / "d"
    assert run("gen", "--out", out, "--count", 2, "--workers", 1, *extra) == 2
    assert f"{field} " in capsys.readouterr().err
    assert not out.exists()


def test_config_flag_accepts_only_booleans(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"freeze_dropout": 1}))
    assert run("estimate", "--data", tmp_path, "--out", tmp_path / "e", "--config", cfg) == 2
    assert "'freeze_dropout'" in capsys.readouterr().err


def test_config_file_must_hold_an_object(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps([1, 2]))
    assert run("gen", "--out", tmp_path / "d", "--config", cfg) == 2
    assert "JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("body", [b"{", b"\xff\xfe{"], ids=["not-json", "not-utf8"])
def test_config_file_that_does_not_parse_exits_two_naming_it(tmp_path, capsys, body):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(body)
    assert run("gen", "--out", tmp_path / "d", "--config", cfg) == 2
    err = capsys.readouterr().err
    assert str(cfg) in err and "Traceback" not in err
    assert not (tmp_path / "d").exists()


def test_config_pair_values_convert_like_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"count": 1, "distance": [2, 3]}))
    assert run("gen", "--out", tmp_path / "a", "--config", cfg, "--workers", 1) == 0
    assert run("gen", "--out", tmp_path / "b", "--count", 1, "--distance", 2, 3, "--workers", 1) == 0
    assert (tmp_path / "a" / "sampler.json").read_bytes() == (tmp_path / "b" / "sampler.json").read_bytes()


def test_config_file_supplies_defaults_flags_win(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"count": 2, "seed": 5, "noise_std": 0.0}))
    out_a = tmp_path / "a"
    assert run("gen", "--out", out_a, "--config", cfg, "--workers", 1) == 0
    assert len((out_a / "scenes.jsonl").read_text().splitlines()) == 2
    # an explicit flag overrides the file value
    out_b = tmp_path / "b"
    assert run("gen", "--out", out_b, "--config", cfg, "--count", 3, "--workers", 1) == 0
    assert len((out_b / "scenes.jsonl").read_text().splitlines()) == 3


def test_gen_is_bitwise_repeatable(tmp_path):
    import pathlib

    a = gen_dataset(str(tmp_path / "a"), count=3, seed=5)
    masks_a = sorted(pathlib.Path(a).glob("silhouettes/*.pgm"))
    assert len(masks_a) == 3
    # a second run, in one process and in a pool of two
    for other, workers in [("b", 1), ("c", 2)]:
        b = tmp_path / other
        assert run("gen", "--out", b, "--count", 3, "--seed", 5, "--workers", workers) == 0
        for name in ["chain.json", "camera.json", "sampler.json", "scenes.jsonl"]:
            assert (pathlib.Path(a) / name).read_bytes() == (b / name).read_bytes()
        masks_b = sorted(b.glob("silhouettes/*.pgm"))
        assert [m.name for m in masks_b] == [m.name for m in masks_a]
        for ma, mb in zip(masks_a, masks_b):
            assert ma.read_bytes() == mb.read_bytes()


# sha256 over every file gen writes for six scenes of seed 3, once at the
# default sample count and once at 37 samples per link, recorded before link
# surfaces were sampled from a per-mesh table. A speed-up of gen that moves a
# keypoint, a pose or a mask pixel changes it.
GOLDEN_GEN_SHA256 = "d97d949793ba0e8d8a8225650049ce6f9034e258e02c70ecf1f89fbff3c0c5de"


def _gen_tree_sha256(roots):
    digest = hashlib.sha256()
    for root in roots:
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            digest.update(path.relative_to(root).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


@pytest.mark.parametrize("workers", [1, 2])
def test_gen_writes_the_golden_bytes(tmp_path, workers):
    roots = []
    for samples in (RenderSettings.samples_per_link, 37):
        out = tmp_path / f"samples{samples}"
        args = ["--count", 6, "--seed", 3, "--samples-per-link", samples, "--workers", workers]
        assert run("gen", "--out", out, *args) == 0
        roots.append(out)
    assert _gen_tree_sha256(roots) == GOLDEN_GEN_SHA256


def test_gen_all_scenes_failing_exits_five(tmp_path, capsys):
    code = run(
        "gen", "--out", tmp_path / "d", "--count", 2, "--workers", 1,
        "--image-size", 8, 8, "--focal", 5000,
    )
    assert code == 5
    # the warning names the scene once, ahead of the sampler's own message
    warned = [line for line in capsys.readouterr().err.splitlines() if line.startswith("warning:")]
    assert warned == [
        f"warning: scene {index}: SceneGenerationError: no valid view in 50 attempts" for index in (0, 1)
    ]


def test_oracle_estimate_recovers_truth_on_level_camera(fronto_dataset, tmp_path, capsys):
    est = tmp_path / "est.jsonl"
    report = tmp_path / "report.json"
    assert run("estimate", "--data", fronto_dataset, "--out", est, "--oracle-edm", "--workers", 1) == 0
    assert run("eval", "--data", fronto_dataset, "--estimates", est, "--out", report) == 0
    out = capsys.readouterr().out
    assert "AUC 100.00" in out
    rep = json.loads(report.read_text())
    assert rep["aggregate"]["mean_add"] < 1e-9
    assert rep["aggregate"]["mae_deg"] < 1e-9
    assert len(rep["per_scene"]) == 5


def test_estimate_without_net_or_oracle_exits_two(noisy_dataset, tmp_path):
    assert run("estimate", "--data", noisy_dataset, "--out", tmp_path / "e.jsonl") == 2


def test_estimate_frozen_dropout_is_deterministic(noisy_dataset, trained_net, tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    for out in [a, b]:
        code = run(
            "estimate", "--data", noisy_dataset, "--out", out,
            "--net", trained_net, "--freeze-dropout", "--workers", 1,
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    assert '"error"' not in a.read_text()


def test_estimate_live_dropout_is_stochastic(noisy_dataset, trained_net, tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    for out, seed in [(a, 0), (b, 1)]:
        code = run(
            "estimate", "--data", noisy_dataset, "--out", out,
            "--net", trained_net, "--seed", seed, "--workers", 1,
        )
        assert code == 0
    assert a.read_bytes() != b.read_bytes()


def test_estimate_live_dropout_is_seeded(noisy_dataset, trained_net, tmp_path):
    outs = [tmp_path / "a.jsonl", tmp_path / "b.jsonl", tmp_path / "c.jsonl"]
    for out, extra in zip(outs, [(), ("--seed", 0), ("--workers", 2)]):
        args = ["estimate", "--data", noisy_dataset, "--out", out, "--net", trained_net]
        if "--workers" not in extra:
            args += ["--workers", 1]
        assert run(*args, *extra) == 0
    # the default seed is 0, and scenes draw their own streams whatever the worker count
    assert outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()
    frozen = tmp_path / "frozen.jsonl"
    assert run(
        "estimate", "--data", noisy_dataset, "--out", frozen,
        "--net", trained_net, "--freeze-dropout", "--workers", 1,
    ) == 0
    assert frozen.read_bytes() != outs[0].read_bytes()


def test_train_zero_learning_rate_writes_flat_trace(tmp_path):
    data = gen_dataset(str(tmp_path / "one"), count=1, seed=3)
    trace = tmp_path / "trace.csv"
    code = run(
        "train-gim", "--data", data, "--out", tmp_path / "net.json",
        "--steps", 30, "--learning-rate", 0, "--dropout", 0, "--trace", trace,
    )
    assert code == 0
    lines = trace.read_text().splitlines()
    assert lines[0] == "step,loss"
    assert len(lines) == 31
    losses = {line.split(",")[1] for line in lines[1:]}
    assert len(losses) == 1


def test_train_resume_matches_single_run(noisy_dataset, tmp_path):
    full = tmp_path / "full.json"
    half = tmp_path / "half.json"
    resumed = tmp_path / "resumed.json"
    base = ["train-gim", "--data", noisy_dataset, "--batch-size", 16, "--seed", 9]
    assert run(*base, "--out", full, "--steps", 120) == 0
    assert run(*base, "--out", half, "--steps", 60) == 0
    assert run(*base, "--resume", half, "--out", resumed, "--steps", 120) == 0
    assert full.read_bytes() == resumed.read_bytes()


def test_train_resume_at_final_step_exits_two(noisy_dataset, tmp_path):
    done = tmp_path / "done.json"
    base = ["train-gim", "--data", noisy_dataset, "--seed", 1]
    assert run(*base, "--out", done, "--steps", 20) == 0
    assert run(*base, "--resume", done, "--out", tmp_path / "again.json", "--steps", 20) == 2


@pytest.mark.parametrize("dims", [(14, 91), (16, 6)], ids=["input", "output"])
def test_train_resume_of_a_regressor_for_another_chain_exits_two(noisy_dataset, tmp_path, capsys, dims):
    checkpoint = tmp_path / "other.json"
    net = init_regressor(*dims, hidden=(8, 8))
    save_regressor(net, checkpoint, trainer_state=AdamState.zeros_like(net))
    capsys.readouterr()
    args = ["train-gim", "--data", noisy_dataset, "--resume", checkpoint, "--out", tmp_path / "net.json"]
    assert run(*args, "--steps", 2) == 2
    assert "does not match this dataset's chain" in capsys.readouterr().err


@pytest.mark.parametrize("dims", [(14, 91), (16, 6)], ids=["input", "output"])
def test_estimate_with_a_regressor_for_another_chain_exits_two_naming_it(fronto_dataset, tmp_path, capsys, dims):
    net = tmp_path / "other.json"
    save_regressor(init_regressor(*dims, hidden=(8, 8)), net)
    out = tmp_path / "est.jsonl"
    capsys.readouterr()
    assert run("estimate", "--data", fronto_dataset, "--out", out, "--net", net, "--workers", 1) == 2
    err = capsys.readouterr().err
    assert str(net) in err and "does not match this dataset's chain" in err
    assert f"{dims} " in err and "(16, 91)" in err
    assert not out.exists()


def test_train_divergence_exits_four(noisy_dataset, tmp_path):
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = run(
            "train-gim", "--data", noisy_dataset, "--out", tmp_path / "net.json",
            "--steps", 10, "--learning-rate", 1e100,
        )
    assert code == 4


@pytest.mark.parametrize(
    "flags, field",
    [
        (["--batch-size", 0], "batch_size"),
        (["--batch-size", -3], "batch_size"),
        (["--learning-rate", "nan"], "learning_rate"),
        (["--learning-rate", -1], "learning_rate"),
        (["--steps", -1], "steps"),
        (["--warmup-steps", -1], "warmup_steps"),
        (["--steps", 0], "steps"),
    ],
)
def test_train_bad_optimizer_setting_exits_two(noisy_dataset, tmp_path, capsys, flags, field):
    net = tmp_path / "net.json"
    assert run("train-gim", "--data", noisy_dataset, "--out", net, *flags) == 2
    err = capsys.readouterr().err
    assert field in err and "Traceback" not in err
    assert not net.exists()


def test_refine_writes_traces_and_provenance(fronto_dataset, tmp_path):
    est = tmp_path / "est.jsonl"
    refined = tmp_path / "refined.jsonl"
    traces = tmp_path / "traces"
    assert run("estimate", "--data", fronto_dataset, "--out", est, "--oracle-edm", "--workers", 1) == 0
    code = run(
        "refine", "--data", fronto_dataset, "--estimates", est, "--out", refined,
        "--iterations", 2, "--evals-per-iteration", 10, "--samples-per-link", 150,
        "--trace-dir", traces, "--workers", 1,
    )
    assert code == 0
    rows = [json.loads(line) for line in refined.read_text().splitlines()]
    assert len(rows) == 5
    for row in rows:
        assert row["provenance"] == "refined(2)"
        assert len(row["rotation"]) == 9
        assert "lambda" in row and "p_base_pixel" in row
    files = sorted(traces.glob("trace_*.csv"))
    assert len(files) == 5
    lines = files[0].read_text().splitlines()
    assert lines[0] == "iteration,evals,objective,add"
    assert len(lines) == 4  # baseline row plus one per iteration
    assert lines[1].split(",")[1] == "0"
    objectives = [float(line.split(",")[2]) for line in lines[1:]]
    assert objectives == sorted(objectives, reverse=True) or all(
        b <= a + 1e-12 for a, b in zip(objectives, objectives[1:])
    )


@pytest.mark.parametrize(
    "flag, value", [("--step-theta", "nan"), ("--step-theta", "-0.1"), ("--step-rot", "0"), ("--step-rot", "inf")]
)
def test_refine_bad_step_size_exits_two(fronto_dataset, tmp_path, capsys, flag, value):
    est = tmp_path / "est.jsonl"
    out = tmp_path / "refined.jsonl"
    assert run("estimate", "--data", fronto_dataset, "--out", est, "--oracle-edm", "--workers", 1) == 0
    capsys.readouterr()
    code = run(
        "refine", "--data", fronto_dataset, "--estimates", est, "--out", out,
        "--iterations", 1, "--evals-per-iteration", 4, "--workers", 1, flag, value,
    )
    assert code == 2
    err = capsys.readouterr().err
    assert flag[2:].replace("-", "_") in err and "Traceback" not in err
    assert not out.exists()


def test_refine_passes_failed_estimates_through(fronto_dataset, tmp_path, capsys):
    """An estimate that failed upstream keeps its error row. It and a refine
    that fails each get one warning, in scene order whatever the file order;
    the inherited warning names the estimate's own error."""
    from armpose import write_pgm

    data = shutil.copytree(fronto_dataset, tmp_path / "data")
    write_pgm(str(data / "silhouettes" / "scene_00003.pgm"), np.zeros((100, 100), dtype=bool))
    est = tmp_path / "est.jsonl"
    assert run("estimate", "--data", data, "--out", est, "--oracle-edm", "--workers", 1) == 0
    lines = est.read_text().splitlines()
    lines[1] = json.dumps({"index": json.loads(lines[1])["index"], "error": "ValueError: synthetic failure"})
    est.write_text("\n".join(reversed(lines)) + "\n")
    capsys.readouterr()
    refined = tmp_path / "refined.jsonl"
    code = run(
        "refine", "--data", data, "--estimates", est, "--out", refined,
        "--iterations", 1, "--evals-per-iteration", 5, "--samples-per-link", 100,
        "--workers", 1,
    )
    assert code == 0
    out, err = capsys.readouterr()
    warned = [line for line in err.splitlines() if line.startswith("warning:")]
    assert len(warned) == 2
    assert warned[0] == "warning: scene 1: ValueError: synthetic failure"
    assert warned[1].startswith("warning: scene 3:") and "silhouettes/scene_00003.pgm" in warned[1]
    rows = [json.loads(line) for line in refined.read_text().splitlines()]
    assert [row["index"] for row in rows] == [0, 1, 2, 3, 4]
    assert rows[1]["error"] == "ValueError: synthetic failure"
    assert [("error" in row) for row in rows] == [False, True, False, True, False]
    assert out.startswith("refined 3/5 scenes")


def test_refine_is_the_same_in_a_process_pool(fronto_dataset, tmp_path):
    est = tmp_path / "est.jsonl"
    assert run("estimate", "--data", fronto_dataset, "--out", est, "--oracle-edm", "--workers", 1) == 0
    outs = []
    for workers in (1, 2):
        out, traces = tmp_path / f"refined{workers}.jsonl", tmp_path / f"traces{workers}"
        assert run(
            "refine", "--data", fronto_dataset, "--estimates", est, "--out", out,
            "--iterations", 1, "--evals-per-iteration", 8, "--samples-per-link", 100,
            "--trace-dir", traces, "--workers", workers,
        ) == 0
        files = sorted(traces.glob("trace_*.csv"))
        assert len(files) == 5
        outs.append([out.read_bytes()] + [(f.name, f.read_bytes()) for f in files])
    assert outs[0] == outs[1]


def test_refine_names_a_mask_of_the_wrong_size(fronto_dataset, tmp_path, capsys):
    import shutil

    import numpy as np

    from armpose import write_pgm

    data = shutil.copytree(fronto_dataset, tmp_path / "data")
    write_pgm(str(data / "silhouettes" / "scene_00000.pgm"), np.zeros((100, 100), dtype=bool))
    est = tmp_path / "est.jsonl"
    refined = tmp_path / "refined.jsonl"
    assert run("estimate", "--data", data, "--out", est, "--oracle-edm", "--workers", 1) == 0
    capsys.readouterr()
    assert run(
        "refine", "--data", data, "--estimates", est, "--out", refined,
        "--iterations", 1, "--evals-per-iteration", 5, "--samples-per-link", 100, "--workers", 1,
    ) == 0
    warned = [line for line in capsys.readouterr().err.splitlines() if line.startswith("warning:")]
    assert len(warned) == 1
    assert warned[0].startswith("warning: scene 0:") and "silhouettes/scene_00000.pgm" in warned[0]
    rows = [json.loads(line) for line in refined.read_text().splitlines()]
    assert rows[0]["index"] == 0 and "silhouettes/scene_00000.pgm" in rows[0]["error"]
    assert all("error" not in row for row in rows[1:])


def _assert_bad_second_row_rejected(dataset, tmp_path, capsys, key, value):
    """eval, refine and render --estimates exit 5 naming path:2 when row 2 of
    a good file gets key = value."""
    est = tmp_path / "est.jsonl"
    assert run("estimate", "--data", dataset, "--out", est, "--oracle-edm", "--workers", 1) == 0
    lines = est.read_text().splitlines()[:2]
    bad = json.loads(lines[1])
    bad[key] = value
    lines[1] = json.dumps(bad)
    est.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run("eval", "--data", dataset, "--estimates", est, "--out", tmp_path / "r.json") == 5
    assert f"{est}:2" in capsys.readouterr().err
    code = run(
        "refine", "--data", dataset, "--estimates", est, "--out", tmp_path / "refined.jsonl",
        "--iterations", 1, "--evals-per-iteration", 5, "--samples-per-link", 100, "--workers", 1,
    )
    assert code == 5
    assert f"{est}:2" in capsys.readouterr().err
    assert run("render", "--data", dataset, "--scene", 0, "--estimates", est, "--out", tmp_path / "x.pgm") == 5
    assert f"{est}:2" in capsys.readouterr().err
    for name in ("r.json", "refined.jsonl", "x.pgm"):
        assert not (tmp_path / name).exists()


def test_nan_rotation_row_is_rejected_with_its_line(fronto_dataset, tmp_path, capsys):
    _assert_bad_second_row_rejected(fronto_dataset, tmp_path, capsys, "rotation", [float("nan")] * 9)


@pytest.mark.parametrize(
    "theta",
    [[float("nan")] * 7, [0.0] * 6],
    ids=["nan-angles", "wrong-length"],
)
def test_bad_theta_row_is_rejected_with_its_line(fronto_dataset, tmp_path, capsys, theta):
    _assert_bad_second_row_rejected(fronto_dataset, tmp_path, capsys, "theta", theta)


@pytest.mark.parametrize("index", [0, 999], ids=["repeated", "unknown"])
def test_row_naming_a_repeated_or_unknown_scene_is_rejected(fronto_dataset, tmp_path, capsys, index):
    _assert_bad_second_row_rejected(fronto_dataset, tmp_path, capsys, "index", index)


def test_eval_rejects_estimate_for_unknown_scene(fronto_dataset, tmp_path):
    orphan = tmp_path / "orphan.jsonl"
    orphan.write_text(
        json.dumps(
            {
                "index": 999,
                "theta": [0.0] * 7,
                "rotation": [1, 0, 0, 0, 1, 0, 0, 0, 1],
                "lambda": 2.0,
                "p_base_pixel": [112.0, 112.0],
                "provenance": "initial",
            }
        )
        + "\n"
    )
    assert run("eval", "--data", fronto_dataset, "--estimates", orphan, "--out", tmp_path / "r.json") == 5


def test_eval_unwritable_output_exits_three(fronto_dataset, tmp_path):
    est = tmp_path / "est.jsonl"
    assert run("estimate", "--data", fronto_dataset, "--out", est, "--oracle-edm", "--workers", 1) == 0
    blocker = tmp_path / "blocker.txt"
    blocker.write_text("in the way")
    assert run("eval", "--data", fronto_dataset, "--estimates", est, "--out", blocker / "r.json") == 3


def test_eval_non_finite_threshold_exits_two(fronto_dataset, tmp_path, capsys):
    est = tmp_path / "est.jsonl"
    assert run("estimate", "--data", fronto_dataset, "--out", est, "--oracle-edm", "--workers", 1) == 0
    for value in ("nan", "inf"):
        report = tmp_path / f"r_{value}.json"
        code = run("eval", "--data", fronto_dataset, "--estimates", est, "--out", report, "--threshold", value)
        assert code == 2
        assert "threshold must be finite and positive" in capsys.readouterr().err
        assert not report.exists()


def test_eval_writes_csv_report(fronto_dataset, tmp_path):
    est = tmp_path / "est.jsonl"
    csv_path = tmp_path / "report.csv"
    assert run("estimate", "--data", fronto_dataset, "--out", est, "--oracle-edm", "--workers", 1) == 0
    assert run(
        "eval", "--data", fronto_dataset, "--estimates", est,
        "--out", tmp_path / "r.json", "--csv", csv_path,
    ) == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "scene_index,add,mae_deg"
    assert lines[-1].startswith("aggregate,")
    assert len(lines) == 7  # header, five scenes, aggregate


def test_render_overlay_and_skeleton(fronto_dataset, tmp_path):
    import numpy as np

    from armpose import read_pgm

    out = tmp_path / "overlay.pgm"
    skel = tmp_path / "skeleton.pgm"
    code = run(
        "render", "--data", fronto_dataset, "--scene", 0, "--out", out,
        "--skeleton", skel, "--samples-per-link", 150,
    )
    assert code == 0
    overlay = read_pgm(str(out))
    assert overlay.shape == (224, 224)
    assert set(np.unique(overlay).tolist()) <= {0, 128, 255}
    assert (overlay == 255).any()
    skeleton = read_pgm(str(skel))
    assert set(np.unique(skeleton).tolist()) == {0, 255}
    # byte-identical on rerun
    again = tmp_path / "again.pgm"
    assert run(
        "render", "--data", fronto_dataset, "--scene", 0, "--out", again,
        "--samples-per-link", 150,
    ) == 0
    assert again.read_bytes() == out.read_bytes()


def test_render_unknown_scene_exits_five(fronto_dataset, tmp_path):
    assert run("render", "--data", fronto_dataset, "--scene", 77, "--out", tmp_path / "x.pgm") == 5


def test_render_mask_of_the_wrong_size_exits_five_naming_it(fronto_dataset, tmp_path, capsys):
    import shutil

    import numpy as np

    from armpose import write_pgm

    data = shutil.copytree(fronto_dataset, tmp_path / "data")
    mask = data / "silhouettes" / "scene_00000.pgm"
    write_pgm(str(mask), np.zeros((100, 100), dtype=bool))  # the camera is 224 x 224
    capsys.readouterr()
    assert run("render", "--data", data, "--scene", 0, "--out", tmp_path / "x.pgm") == 5
    err = capsys.readouterr().err
    assert "scene_00000.pgm" in err and "Traceback" not in err
    assert not (tmp_path / "x.pgm").exists()


def test_refine_has_no_objective_option(tmp_path):
    base = ("refine", "--data", tmp_path, "--estimates", tmp_path / "e.jsonl", "--out", tmp_path / "o")
    with pytest.raises(SystemExit) as info:
        run(*base, "--objective", "iou")
    assert info.value.code == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"objective": "iou"}))
    assert run(*base, "--config", cfg) == 2


@pytest.mark.parametrize("hidden", [(0, 5), (5, 0)], ids=["first", "second"])
def test_train_zero_hidden_width_exits_two(noisy_dataset, tmp_path, capsys, hidden):
    net = tmp_path / "net.json"
    assert run("train-gim", "--data", noisy_dataset, "--out", net, "--steps", 2, "--hidden", *hidden) == 2
    err = capsys.readouterr().err
    assert "--hidden" in err and "Traceback" not in err
    assert not net.exists()


@pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
@pytest.mark.parametrize(
    "command, option",
    [
        pytest.param("gen", "--seed", id="gen"),
        pytest.param("train-gim", "--seed", id="train-gim"),
        pytest.param("estimate", "--seed", id="estimate"),
        pytest.param("refine", "--render-seed", id="refine"),
        pytest.param("render", "--render-seed", id="render"),
        pytest.param("gen", "--workers", id="gen-workers"),
        pytest.param("estimate", "--workers", id="estimate-workers"),
        pytest.param("refine", "--workers", id="refine-workers"),
    ],
)
def test_negative_seed_exits_two_naming_the_option(
    fronto_dataset, trained_net, tmp_path, capsys, command, option, via_config
):
    out = tmp_path / "out"
    est = tmp_path / "est.jsonl"
    assert run("estimate", "--data", fronto_dataset, "--out", est, "--oracle-edm", "--workers", 1) == 0
    args = {
        "gen": ["--out", out, "--count", 2, "--workers", 1],
        "train-gim": ["--data", fronto_dataset, "--out", out, "--steps", 2],
        "estimate": ["--data", fronto_dataset, "--out", out, "--net", trained_net, "--workers", 1],
        "refine": [
            "--data", fronto_dataset, "--estimates", est, "--out", out,
            "--iterations", 1, "--evals-per-iteration", 4, "--workers", 1,
        ],
        "render": ["--data", fronto_dataset, "--scene", 0, "--out", out],
    }[command]
    if option == "--workers":  # an explicit --workers 1 would win over the file
        at = args.index("--workers")
        del args[at : at + 2]
    if via_config:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({option[2:].replace("-", "_"): -1}))
        args += ["--config", cfg]
    else:
        args += [option, -1]
    capsys.readouterr()
    assert run(command, *args) == 2
    err = capsys.readouterr().err
    assert option in err and "-1" in err and "Traceback" not in err
    assert not out.exists()


def _edit_json(path, edit):
    obj = json.loads(path.read_text())
    edit(obj)
    path.write_text(json.dumps(obj))
    return str(path)


def _edit_second_row(path, edit):
    lines = path.read_text().splitlines()
    row = json.loads(lines[1])
    edit(row)
    lines[1] = json.dumps(row)
    path.write_text("\n".join(lines) + "\n")
    return f"{path}:2:"


def _edit_second_scene(data, edit):
    return _edit_second_row(data / "scenes.jsonl", edit)


def _edit_second_estimate(data, edit):
    """Edit the second row of the estimates file written beside the dataset copy."""
    return _edit_second_row(data.parent / "est.jsonl", edit)


def _write(path, text):
    path.write_text(text)
    return str(path)


def _block(values):
    """Base64 text of little-endian float64 values, as a regressor file stores an array."""
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def _write_regressor(path, dims, encode=_block):
    """A regressor file with zero weights and the given layer widths, each array written by encode."""
    weights = [encode(np.zeros(dims[i] * dims[i + 1])) for i in range(3)]
    biases = [encode(np.zeros(n)) for n in dims[1:]]
    path.write_text(json.dumps({"layer_dims": dims, "weights": weights, "biases": biases}))
    return str(path)


def _saved_regressor(path, edit):
    """A saved 16-8-8-91 regressor with zero Adam moments, then edit(its JSON object)."""
    net = init_regressor(16, 91, hidden=(8, 8))
    save_regressor(net, path, trainer_state=AdamState.zeros_like(net))
    return _edit_json(path, edit)


def _truncate(path):
    path.write_bytes(path.read_bytes()[:-10])
    return str(path)


# (id, corrupt the copied dataset and return what the error must name (the
#  file, or a tuple of the file and other phrases), the command that reads the
#  corrupted file)
_MALFORMED = [
    ("camera-without-fx", lambda d, net: _edit_json(d / "camera.json", lambda o: o.pop("fx")), "estimate"),
    ("camera-negative-fx", lambda d, net: _edit_json(d / "camera.json", lambda o: o.update(fx=-1)), "estimate"),
    (
        "camera-fractional-width",
        lambda d, net: (_edit_json(d / "camera.json", lambda o: o.update(width=224.9)), "width must be an integer"),
        "estimate",
    ),
    (
        "camera-boolean-fx",
        lambda d, net: (_edit_json(d / "camera.json", lambda o: o.update(fx=True)), "fx must be a finite number"),
        "estimate",
    ),
    (
        "camera-nan-cx",
        lambda d, net: (_edit_json(d / "camera.json", lambda o: o.update(cx=math.nan)), "cx must be a finite number"),
        "estimate",
    ),
    (
        "chain-joint-length-as-text",
        lambda d, net: (
            _edit_json(d / "chain.json", lambda o: o["joints"][2].update(a="0")),
            "joint 2: a must be a finite number",
        ),
        "estimate",
    ),
    (
        "chain-joint-without-limit",
        lambda d, net: (
            _edit_json(d / "chain.json", lambda o: o["joints"][2].pop("limit_lo")),
            "joint 2: missing key 'limit_lo'",
        ),
        "estimate",
    ),
    ("sampler-not-json", lambda d, net: _write(d / "sampler.json", "{"), "estimate"),
    ("scene-six-angles", lambda d, net: _edit_second_scene(d, lambda r: r["theta"].pop()), "eval"),
    ("scene-seven-keypoints", lambda d, net: _edit_second_scene(d, lambda r: r["keypoints"].pop()), "train-gim"),
    ("scene-repeated-index", lambda d, net: _edit_second_scene(d, lambda r: r.update(index=0)), "estimate"),
    ("scene-fractional-index", lambda d, net: _edit_second_scene(d, lambda r: r.update(index=1.7)), "estimate"),
    (
        "scene-visible-as-text",
        lambda d, net: (
            _edit_second_scene(d, lambda r: r["keypoints"][1].update(visible="false")),
            "keypoint 1 visible must be true or false",
        ),
        "estimate",
    ),
    (
        "scene-keypoint-as-text",
        lambda d, net: (
            _edit_second_scene(d, lambda r: r["keypoints"][1].update(u="100.5")),
            "keypoints: keypoint 1 u must be a finite number",
        ),
        "estimate",
    ),
    (
        "scene-true-keypoint-as-text",
        lambda d, net: (
            _edit_second_scene(d, lambda r: r["keypoints_true"][1].update(u="100.5")),
            "keypoints_true: keypoint 1 u must be a finite number",
        ),
        "estimate",
    ),
    (
        "scene-angle-as-text",
        lambda d, net: (_edit_second_scene(d, lambda r: r["theta"].__setitem__(0, "0.3")), "theta must be a list"),
        "eval",
    ),
    (
        "estimate-boolean-index",
        lambda d, net: (_edit_second_estimate(d, lambda r: r.update(index=True)), "index must be an integer"),
        "eval",
    ),
    ("mask-truncated", lambda d, net: _truncate(d / "silhouettes" / "scene_00000.pgm"), "render"),
    ("regressor-without-weights", lambda d, net: str(net), "estimate-net"),
    ("checkpoint-without-weights", lambda d, net: str(net), "train-gim-resume"),
    (
        "regressor-output-not-triangular",
        lambda d, net: (_write_regressor(net, [16, 8, 8, 90]), "triangular"),
        "estimate-net",
    ),
    (
        "regressor-in-list-format",
        lambda d, net: (
            _write_regressor(net, [16, 8, 8, 91], encode=np.ndarray.tolist),
            "weights[0] is not a base64 block",
        ),
        "estimate-net",
    ),
    (
        "regressor-weights-one-value-short",
        lambda d, net: (
            _saved_regressor(net, lambda o: o["weights"].__setitem__(1, _block(np.zeros(63)))),
            "weights[1] holds 504 bytes",
        ),
        "estimate-net",
    ),
    (
        "regressor-block-not-base64",
        lambda d, net: (
            _saved_regressor(net, lambda o: o["biases"].__setitem__(0, "*" + o["biases"][0])),
            "biases[0] is not a base64 block",
        ),
        "estimate-net",
    ),
    (
        "regressor-dropout-as-text",
        lambda d, net: (
            _saved_regressor(net, lambda o: o.update(dropout_rate="0.1")),
            "dropout_rate must be a finite number",
        ),
        "estimate-net",
    ),
    (
        "checkpoint-missing-a-moment",
        lambda d, net: (
            _saved_regressor(net, lambda o: o["trainer_state"]["m"].pop()),
            "trainer_state.m must be a list of 6",
        ),
        "train-gim-resume",
    ),
    (
        "checkpoint-moment-of-wrong-shape",
        lambda d, net: (
            _saved_regressor(net, lambda o: o["trainer_state"]["v"].__setitem__(0, _block(np.zeros((8, 15))))),
            "trainer_state.v[0] holds 960 bytes",
        ),
        "train-gim-resume",
    ),
    (
        "checkpoint-negative-step",
        lambda d, net: (
            _saved_regressor(net, lambda o: o["trainer_state"].update(step=-4)),
            "trainer_state.step must be a non-negative integer",
        ),
        "train-gim-resume",
    ),
]


@pytest.mark.parametrize("corrupt, command", [c[1:] for c in _MALFORMED], ids=[c[0] for c in _MALFORMED])
def test_malformed_input_file_exits_five_naming_it(fronto_dataset, tmp_path, capsys, corrupt, command):
    data = shutil.copytree(fronto_dataset, tmp_path / "data")
    est = tmp_path / "est.jsonl"
    assert run("estimate", "--data", data, "--out", est, "--oracle-edm", "--workers", 1) == 0
    net = tmp_path / "net.json"
    net.write_text(json.dumps({"layer_dims": [16, 8, 8, 91]}))
    named = corrupt(data, net)
    named = (named,) if isinstance(named, str) else named
    out = tmp_path / "out"
    argv = {
        "estimate": ["estimate", "--data", data, "--out", out, "--oracle-edm", "--workers", 1],
        "estimate-net": ["estimate", "--data", data, "--out", out, "--net", net, "--workers", 1],
        "eval": ["eval", "--data", data, "--estimates", est, "--out", out],
        "train-gim": ["train-gim", "--data", data, "--out", out, "--steps", 2],
        "train-gim-resume": ["train-gim", "--data", data, "--out", out, "--steps", 2, "--resume", net],
        "render": ["render", "--data", data, "--scene", 0, "--out", out],
    }[command]
    capsys.readouterr()
    assert run(*argv) == 5
    err = capsys.readouterr().err
    assert all(phrase in err for phrase in named) and "Traceback" not in err
    assert not out.exists()


def test_missing_dataset_directory_exits_two_naming_it(tmp_path, capsys):
    data = tmp_path / "nowhere"
    assert run("estimate", "--data", data, "--out", tmp_path / "e.jsonl", "--oracle-edm") == 2
    err = capsys.readouterr().err
    assert str(data) in err and "Traceback" not in err
