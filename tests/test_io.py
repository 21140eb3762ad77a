import base64
import json
import os
import re

import numpy as np
import pytest

from armpose import (
    CameraIntrinsics,
    DatasetFormatError,
    JointSpec,
    KinematicChain,
    RefinerConfig,
    builtin_chain,
    init_regressor,
    load_chain,
    load_regressor,
    save_regressor,
)
from armpose._io import atomic_write_bytes, json_field, read_json, read_jsonl, write_json, write_jsonl


def test_failed_atomic_write_keeps_old_file_and_cleans_up(tmp_path):
    path = tmp_path / "out.bin"
    path.write_bytes(b"old")
    with pytest.raises(TypeError):
        atomic_write_bytes(path, "not bytes")
    assert path.read_bytes() == b"old"
    assert os.listdir(tmp_path) == ["out.bin"]


def _one_value_short(block):
    """A base64 float64 block without its last value."""
    return base64.b64encode(base64.b64decode(block)[:-8]).decode("ascii")


def test_loaders_name_a_bad_file(tmp_path):
    chain = builtin_chain("panda7").to_json()
    del chain["joints"][2]["limit_lo"]
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(chain))
    with pytest.raises(DatasetFormatError, match=re.escape(f"{path}: joint 2: missing key 'limit_lo'")):
        load_chain(path)
    path = tmp_path / "net.json"
    path.write_text(json.dumps({"layer_dims": [16, 8, 8, 91]}))
    with pytest.raises(DatasetFormatError, match=re.escape(f"{path}: missing key 'weights'")):
        load_regressor(path)
    path.write_text("{")
    with pytest.raises(DatasetFormatError, match=re.escape(f"{path}: ")):
        load_regressor(path)
    save_regressor(init_regressor(16, 91, hidden=(8, 8)), path)
    good = json.loads(path.read_text())
    bad_blocks = [
        ("weights", 0, [0.0] * 128, "weights[0] is not a base64 block"),  # the earlier list format
        ("weights", 2, _one_value_short(good["weights"][2]), "weights[2] holds 5816 bytes, expected 5824"),
        ("biases", 1, good["biases"][1] + "*", "biases[1] is not a base64 block"),
    ]
    for key, index, block, reason in bad_blocks:
        obj = json.loads(json.dumps(good))
        obj[key][index] = block
        path.write_text(json.dumps(obj))
        with pytest.raises(DatasetFormatError, match=re.escape(f"{path}: {reason}")):
            load_regressor(path)


def test_read_jsonl_skips_blank_lines_and_rejects_a_file_without_records(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_text('{"a": 1}\n\n{"a": 2}\n')
    assert read_jsonl(path, lambda obj: obj["a"], "row") == [1, 2]
    path.write_text('{"a": 1}\n\n[3]\n')
    with pytest.raises(DatasetFormatError, match=re.escape(f"{path}:3: bad row: ")):
        read_jsonl(path, lambda obj: obj["a"], "row")
    path.write_text("\n")
    with pytest.raises(DatasetFormatError, match=re.escape(f"{path}: no rows")):
        read_jsonl(path, lambda obj: obj["a"], "row")


_VALUE = {"name": "arm", "theta": [0.5, -1.25], "ok": True, "none": None}


def test_write_json_indents_by_two_spaces_and_ends_the_file_with_a_newline(tmp_path):
    path = tmp_path / "value.json"
    write_json(path, _VALUE)
    assert path.read_bytes() == (json.dumps(_VALUE, indent=2) + "\n").encode("utf-8")
    assert read_json(path, lambda obj: obj) == _VALUE


def test_write_json_without_indent_writes_one_line(tmp_path):
    path = tmp_path / "value.json"
    write_json(path, _VALUE, indent=None)
    assert path.read_bytes() == (json.dumps(_VALUE) + "\n").encode("utf-8")
    assert read_json(path, lambda obj: obj) == _VALUE


def test_write_jsonl_writes_one_record_a_line(tmp_path):
    path = tmp_path / "rows.jsonl"
    records = [{"index": 0, "error": "ValueError: bad"}, _VALUE, [1, 2.5]]
    write_jsonl(path, iter(records))
    assert path.read_bytes() == "".join(json.dumps(record) + "\n" for record in records).encode("utf-8")
    assert read_jsonl(path, lambda obj: obj, "record") == records


def test_json_field_reads_numbers_as_float64_like_numpy():
    obj = json.loads('{"n": 3, "x": 0.1, "m": [[1, 2.5], [3, 4]], "v": [], "flag": false}')
    assert json_field(obj, "n", int) == 3 and type(json_field(obj, "n", float)) is float
    assert json_field(obj, "x", float) == np.asarray(obj["x"], dtype=float)
    m = json_field(obj, "m", float, (2, 2))
    assert m.dtype == np.float64 and np.array_equal(m, np.asarray(obj["m"], dtype=float))
    assert json_field(obj, "v", float, (None,)).shape == (0,)
    assert json_field(obj, "flag", bool) is False
    assert json_field(obj, "absent", float, default=0.5) == 0.5


@pytest.mark.parametrize(
    "text, kind, shape, reason",
    [
        ('{"k": true}', int, (), "k must be an integer, got true"),
        ('{"k": 2.0}', int, (), "k must be an integer, got 2.0"),
        ('{"k": true}', float, (), "k must be a finite number, got true"),
        ('{"k": "1.5"}', float, (), 'k must be a finite number, got "1.5"'),
        ('{"k": NaN}', float, (), "k must be a finite number, got NaN"),
        ('{"k": -Infinity}', float, (), "k must be a finite number, got -Infinity"),
        ('{"k": 1' + "0" * 400 + "}", float, (), "k must be a finite number"),
        ('{"k": 0}', bool, (), "k must be true or false, got 0"),
        ('{"k": 7}', str, (), "k must be a string, got 7"),
        ('{"k": [1, "2"]}', float, (2,), 'k must be a list of 2 values, each a finite number, got [1, "2"]'),
        ('{"k": [1, 2, 3]}', float, (2,), "k must be a list of 2 values"),
        ('{"k": [[1, 2], [3]]}', float, (2, 2), "k must be a list of 2 values, each a list of 2 values"),
        ('{"k": [[1], [2]]}', float, (None,), "k must be a list of values, each a finite number"),
        ('{"k": 1}', float, (None,), "k must be a list of values"),
    ],
)
def test_json_field_rejects_other_values_naming_the_field(text, kind, shape, reason):
    with pytest.raises(ValueError, match=re.escape(reason)):
        json_field(json.loads(text), "k", kind, shape)
    with pytest.raises(ValueError, match=re.escape("config key 'k' must be")):
        json_field(json.loads(text), "k", kind, shape, name="config key 'k'")


def test_json_field_shows_a_numpy_scalar_by_its_repr():
    """np.float64 subclasses float, so json.dumps would print it as a valid
    number; the error names its type instead."""
    with pytest.raises(ValueError, match=re.escape('got "np.float64(0.05)"')):
        RefinerConfig(step_theta=np.float64(0.05))
    with pytest.raises(ValueError, match=re.escape('fx must be a finite number, got "np.float64(591.5)"')):
        CameraIntrinsics(np.float64(591.5), 591.5, 320.0, 240.0, 640, 480)
    with pytest.raises(ValueError, match=re.escape('got [1, "np.int64(2)"]')):
        json_field({"k": [1, np.int64(2)]}, "k", int, (2,))


@pytest.mark.parametrize(
    "build, reason",
    [
        (lambda: JointSpec(True, 0.1, 0.0), "a must be a finite number, got true"),
        (lambda: JointSpec("0.1", 0.1, 0.0), 'a must be a finite number, got "0.1"'),
        (lambda: JointSpec(0.1, 0.1, 0.0, limit_hi=float("inf")), "limit_hi must be a finite number, got Infinity"),
        (
            lambda: KinematicChain("x", (JointSpec(0.1, 0.0, 0.0),), None),
            "base_frame must be a RigidTransform, got None",
        ),
        (
            lambda: init_regressor(16, 91, hidden=(2.7, 3)),
            "layer widths must be a list of 4 values, each an integer, got [16, 2.7, 3, 91]",
        ),
    ],
    ids=["joint-bool", "joint-str", "joint-inf", "chain-base-none", "regressor-float-width"],
)
def test_constructors_refuse_what_from_json_refuses(build, reason):
    with pytest.raises(ValueError, match=re.escape(reason)):
        build()
