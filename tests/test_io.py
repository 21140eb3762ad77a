import os

import pytest

from armpose._io import atomic_write_bytes


def test_failed_atomic_write_keeps_old_file_and_cleans_up(tmp_path):
    path = tmp_path / "out.bin"
    path.write_bytes(b"old")
    with pytest.raises(TypeError):
        atomic_write_bytes(path, "not bytes")
    assert path.read_bytes() == b"old"
    assert os.listdir(tmp_path) == ["out.bin"]
