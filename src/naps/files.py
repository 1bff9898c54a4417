"""File formats: every file the package writes or reads goes through here.

JSON is strict both ways: ``write_json`` refuses ``NaN`` and ``Infinity``,
and ``read_json`` rejects their literals and any number that overflows to
them. Keys are sorted, so a payload always writes the same bytes.
Delimited text (``write_table``) is RFC 4180: ``field`` quotes text that
holds a comma, a quote or a line break, and writes ``None`` as an empty
field. Both writers create the parent directory.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os

import numpy as np

from .errors import ConfigError

# Floats in delimited text keep 17 significant digits, so they read back bit-exact.
FLOAT_FMT = "%.17g"
# Rows formatted per write of write_table, so its text buffer stays a few MB.
_TABLE_ROWS = 65536


def jsonable(value):
    """``value`` in JSON's types: a dataclass is the dict of its fields that are not None.

    Tuples become lists and arrays ``tolist()``; plain dicts keep their None values.
    """
    if dataclasses.is_dataclass(value):
        fields = ((f.name, getattr(value, f.name)) for f in dataclasses.fields(value))
        return {name: jsonable(v) for name, v in fields if v is not None}
    if isinstance(value, dict):
        return {k: jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


def _parent_dir(path) -> None:
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)


def write_json(path, payload, indent: int | None = 2) -> None:
    """``jsonable(payload)`` as strict JSON with sorted keys."""
    _parent_dir(path)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(jsonable(payload), fh, indent=indent, sort_keys=True, allow_nan=False)


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text} is not strict JSON")
    return value


def read_json(path, parse, what: str):
    """``parse`` of the strict JSON in ``path``.

    A file that cannot be read, bad or non-finite JSON, and a ``ConfigError``,
    ``KeyError``, ``TypeError``, ``ValueError`` or ``OverflowError`` from
    ``parse`` all raise one ``ConfigError`` naming the file; ``what`` says
    what the file holds.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh, parse_float=_finite, parse_constant=_finite)
        return parse(data)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc.strerror or exc}") from exc
    except (ConfigError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"malformed {what} {path}: {type(exc).__name__}: {exc}") from exc


def field(value) -> str:
    """One delimited-text field: None is empty; text with a comma, quote or line break is quoted."""
    if value is None:
        return ""
    text = str(value)
    if any(c in text for c in ',"\n\r'):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_table(path, header, row_format: str | None, columns) -> None:
    """Delimited text: the ``header`` names, then ``row_format % row`` per row of ``columns``.

    ``columns`` are equal-length arrays or lists. Rows are formatted in
    chunks of ``_TABLE_ROWS``, one ``tolist`` per array column and chunk.
    With no ``row_format`` every value is text, written through ``field``.
    """
    if row_format is None:
        row_format = ",".join(["%s"] * len(header))
        columns = [list(map(field, c)) for c in columns]
    _parent_dir(path)
    line = row_format + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(map(field, header)) + "\n")
        for start in range(0, len(columns[0]), _TABLE_ROWS):
            chunk = (c[start : start + _TABLE_ROWS] for c in columns)
            rows = zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in chunk))
            fh.write("".join(map(line.__mod__, rows)))
