"""File input and output shared by every module.

Writes are atomic: stage into a sibling temp file, then rename over. Every
JSON input file is read through read_json or read_jsonl, which turn text
that does not parse, or a record its parser rejects, into a
DatasetFormatError naming the file (and line). A missing file stays a
FileNotFoundError.
"""

import json
import os


class DatasetFormatError(ValueError):
    """Raised when an input file does not parse or holds a bad record."""


def _parse(where, parse, raw):
    """parse(the JSON value in raw); where starts the error for raw that is
    not JSON or that parse rejects with a bad value, a missing key or a
    value of the wrong type."""
    try:
        return parse(json.loads(raw))
    except (ValueError, KeyError, TypeError) as exc:
        reason = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise DatasetFormatError(f"{where}: {reason}") from exc


def json_int(obj, key):
    """obj[key]; ValueError unless it is a JSON integer (int() would take a fraction or a boolean)."""
    value = obj[key]
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{key} must be an integer, got {json.dumps(value)}")
    return value


def read_json(path, parse):
    """parse(the JSON value held in path)."""
    with open(path, "rb") as fh:
        return _parse(path, parse, fh.read())


def read_jsonl(path, parse, what):
    """[parse(obj) for the JSON value on each non-blank line of path]; what
    names one record in the error for a bad line or a file with none."""
    with open(path, "rb") as fh:
        records = [
            _parse(f"{path}:{lineno}: bad {what}", parse, line)
            for lineno, line in enumerate(fh, start=1)
            if line.strip()
        ]
    if not records:
        raise DatasetFormatError(f"{path}: no {what}s")
    return records


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
