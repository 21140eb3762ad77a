"""Atomic file writes: stage into a sibling temp file, then rename over."""

import os


def atomic_write_bytes(path, data):
    # The temp name is unique to the process, so concurrent writers of one
    # path never share a staging file; the last rename wins.
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def atomic_write_text(path, text):
    atomic_write_bytes(path, text.encode("utf-8"))
