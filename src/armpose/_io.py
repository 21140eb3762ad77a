"""File input and output shared by every module.

Writes are atomic: stage into a sibling temp file, then rename over. Every
JSON input file is read through read_json or read_jsonl, which turn text
that does not parse, or a record its parser rejects, into a
DatasetFormatError naming the file (and line). A missing file stays a
FileNotFoundError. Every JSON, JSONL and CSV output file is written through
write_json, write_jsonl or write_csv, so this is the only module that
imports json and the one place each output layout is decided.

This module also owns the field types: every field of every record, and
every --config value, is read through json_field, so what counts as a JSON
integer, number, flag or string is decided here alone.
"""

import json
import math
import os

import numpy as np


class DatasetFormatError(ValueError):
    """Raised when an input file does not parse or holds a bad record."""


def json_record(where, parse, value, error=ValueError):
    """parse(value); a bad value, a missing key or a value of the wrong type
    raises error, its message started by where. A from_json reads each record
    nested in its own this way, so the error names the record."""
    try:
        return parse(value)
    except (ValueError, KeyError, TypeError) as exc:
        reason = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise error(f"{where}: {reason}") from exc


def _parse(where, parse, raw):
    """parse(the JSON value in raw); a DatasetFormatError started by where
    for raw that is not JSON or that parse rejects."""
    return json_record(where, lambda text: parse(json.loads(text)), raw, DatasetFormatError)


# For each field kind: the exact types its JSON values parse to, and its
# name in an error. A boolean is never a number, although bool subclasses int.
_KINDS = {int: ({int}, "an integer"), float: ({int, float}, "a finite number"), bool: ({bool}, "true or false"),
          str: ({str}, "a string")}


def _leaves(value, shape):
    """The scalars of value as nested lists (or to_json's tuples) of this shape; None for another shape."""
    if not shape:
        return (value,)
    if type(value) not in (list, tuple) or shape[0] not in (None, len(value)):
        return None
    if len(shape) == 1:
        return value
    inner = [_leaves(item, shape[1:]) for item in value]
    return None if None in inner else [leaf for part in inner for leaf in part]


def _as_json(value):
    """value with each leaf whose type is not exactly a JSON type (a numpy scalar) as its repr."""
    if type(value) in (list, tuple):
        return [_as_json(item) for item in value]
    return value if type(value) in (int, float, bool, str, dict, type(None)) else repr(value)


def json_field(obj, key, kind, shape=(), name=None, default=None):
    """obj[key] as a JSON value of kind (int, float, bool or str) nested in
    lists of the lengths in shape (None: any length), or default, when not
    None, for an absent key; a ValueError naming name (default: key) otherwise.

    A number is a finite JSON number, an integer included, never a boolean,
    a string, NaN or Infinity. It comes back as float64: a Python float, or
    an array of this shape. Other kinds come back as given.
    """
    if default is not None and key not in obj:
        return default
    raw = obj[key]
    types, want = _KINDS[kind]
    leaves = _leaves(raw, shape)
    ok = leaves is not None and types.issuperset(map(type, leaves))
    if ok and kind is float:
        try:
            ok = all(map(math.isfinite, leaves))
        except OverflowError:  # an integer beyond float64's range
            ok = False
    if not ok:
        for n in reversed(shape):
            want = f"a list of {'' if n is None else f'{n} '}values, each {want}"
        raise ValueError(f"{name or key} must be {want}, got {json.dumps(_as_json(raw), default=repr)}")
    if kind is not float:
        return raw
    return np.array(raw, dtype=float) if shape else float(raw)


def check_int_fields(record, **least):
    """Each named field of a dataclass record is an integer by json_field's
    rule (never a boolean or a float) and at least its bound in least; a
    ValueError naming the field otherwise."""
    for name, bound in least.items():
        value = json_field(vars(record), name, int)
        if value < bound:
            raise ValueError(f"{name} must be at least {bound}, got {value}")


def check_float_fields(record, *names):
    """Each named field of a dataclass record is a number by json_field's rule
    (finite, an integer included, never a boolean); a ValueError naming the
    field otherwise."""
    for name in names:
        json_field(vars(record), name, float)


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


def write_csv(path, header, rows):
    """Write the header line, then one line per row: each string as it is,
    each int or float as its repr (a numpy scalar would print its type)."""
    lines = (",".join(v if type(v) is str else repr(v) for v in row) for row in (header, *rows))
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_json(path, value, indent=2):
    """Write value as JSON, indented by indent spaces (None: one line), then a newline."""
    atomic_write_text(path, json.dumps(value, indent=indent) + "\n")


def write_jsonl(path, records):
    """Write each record as one line of JSON."""
    atomic_write_text(path, "".join(json.dumps(record) + "\n" for record in records))
