"""File formats: every file the package writes or reads goes through here.

JSON is strict both ways: ``write_json`` refuses ``NaN`` and ``Infinity``,
``read_json`` rejects their literals, and ``parse`` rejects any number that
overflows to them. Keys are sorted, so a payload always writes the same bytes.
``jsonable`` turns a config or artifact dataclass into JSON's types, and
``parse`` is its inverse: the dataclass's field annotations are the schema,
so an unknown key, a missing field or a value of the wrong type is one
``ConfigError`` naming the key path, and no class parses its own fields.
Delimited text (``write_table``) is RFC 4180: ``field`` quotes text that
holds a comma, a quote or a line break, and writes ``None`` as an empty
field. Both writers create the parent directory.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import os
import reprlib
import sys
import types
import typing

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


def parse(cls, data):
    """The inverse of ``jsonable``: the ``cls`` dataclass built from ``data``, typed by its annotations.

    A field left out takes its default, and an ``init=False`` one may appear only with its own value.
    A mismatch is a ``ConfigError`` naming the key path, e.g. ``ExperimentConfig.methods[0].gamma_rule``.
    """
    return _parse(cls, data, cls.__name__)


# What each plain annotation takes, as an error names it; a dataclass takes an object.
_EXPECTED = {str: "a string", int: "an integer", float: "a finite number"}


@functools.cache
def _schema(cls) -> dict:
    """Each field's name -> (annotation, field); ``get_type_hints`` is too slow to run per read."""
    hints = typing.get_type_hints(cls)
    return {f.name: (hints[f.name], f) for f in dataclasses.fields(cls)}


def _mismatch(path: str, expected: str, data) -> ConfigError:
    return ConfigError(f"{path} must be {expected}, got {reprlib.repr(data)}")


def _parse(tp, data, path: str):
    if typing.get_origin(tp) in (typing.Union, types.UnionType):  # X | None
        (tp,) = set(typing.get_args(tp)) - {type(None)}
        return None if data is None else _parse(tp, data, path)
    if typing.get_origin(tp) is tuple:
        args = typing.get_args(tp)
        if not isinstance(data, list) or args[-1] is not Ellipsis and len(data) != len(args):
            raise _mismatch(path, "a list" if args[-1] is Ellipsis else f"a list of {len(args)} entries", data)
        args = args[:1] * len(data) if args[-1] is Ellipsis else args
        return tuple(_parse(arg, v, f"{path}[{i}]") for i, (arg, v) in enumerate(zip(args, data)))
    if tp is np.ndarray:
        try:
            array = np.array(data if isinstance(data, list) else None)
        except ValueError:  # ragged nesting
            array = np.array(None)
        # np.array reads [true, 0.5] as [1.0, 0.5]: a bool is no number here either
        if array.dtype.kind not in "iuf" or not np.all(np.isfinite(array)) or _holds_bool(data, array.ndim):
            raise _mismatch(path, "a list of finite numbers", data)
        return array.astype(float, copy=False)
    accepted = (int, float) if tp is float else dict if dataclasses.is_dataclass(tp) else tp
    # a bool is no number; abs(x) <= max is False for NaN and infinities, and compares a huge int without overflow
    if not isinstance(data, accepted) or isinstance(data, bool) or tp is float and not abs(data) <= sys.float_info.max:
        raise _mismatch(path, _EXPECTED.get(tp, "an object"), data)
    if not dataclasses.is_dataclass(tp):
        return float(data) if tp is float else data
    unknown = [f"{path}.{key}" for key in data if key not in _schema(tp)]
    if unknown:
        raise ConfigError(f"unknown key {', '.join(unknown)}")
    kwargs = {}
    for name, (hint, f) in _schema(tp).items():
        if name not in data:
            if f.init and f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
                raise ConfigError(f"missing key {path}.{name}")
        elif not f.init and data[name] != f.default:
            raise _mismatch(f"{path}.{name}", repr(f.default), data[name])
        elif f.init:
            kwargs[name] = _parse(hint, data[name], f"{path}.{name}")
    try:
        return tp(**kwargs)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _holds_bool(data: list, ndim: int) -> bool:
    """Whether a rectangular list nested ``ndim`` deep holds a bool."""
    for _ in range(ndim - 1):
        data = itertools.chain.from_iterable(data)
    return bool in map(type, data)


def _parent_dir(path) -> None:
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)


def write_json(path, payload, indent: int | None = 2) -> None:
    """``jsonable(payload)`` as strict JSON with sorted keys, encoded first: a refused payload leaves no file."""
    text = json.dumps(jsonable(payload), indent=indent, sort_keys=True, allow_nan=False)
    _parent_dir(path)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _reject_constant(text: str):
    raise ValueError(f"non-finite number {text} is not strict JSON")


def read_json(path, build, what: str):
    """``build`` of the strict JSON in ``path``.

    A file that cannot be read, bad JSON or a ``NaN`` or ``Infinity`` literal,
    and a ``ConfigError`` or ``ValueError`` from ``build`` all raise one
    ``ConfigError`` naming the file; ``what`` says what the file holds. An
    overflowing number such as ``1e999`` reads as infinite, and ``parse``
    refuses it wherever it lands.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh, parse_constant=_reject_constant)
        return build(data)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc.strerror or exc}") from exc
    except (ConfigError, ValueError) as exc:
        raise ConfigError(f"malformed {what} {path}: {exc}") from exc


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
