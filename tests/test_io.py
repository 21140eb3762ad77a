import base64
import json
import os
import re

import pytest

from armpose import DatasetFormatError, builtin_chain, init_regressor, load_chain, load_regressor, save_regressor
from armpose._io import atomic_write_bytes, read_jsonl


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
    with pytest.raises(DatasetFormatError, match=re.escape(f"{path}: missing key 'limit_lo'")):
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
