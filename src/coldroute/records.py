"""One reader and one writer for every file coldroute reads or writes.

Three forms: ``jsonl`` (one object per line, blank lines skipped),
``array`` (a JSON array of objects: the card files) and ``doc`` (one
JSON object).  :func:`read` checks each row against a schema.  A failure,
a domain error raised while building a row, and a missing or unreadable
file are a ``ConfigError`` naming the file, with ``:line`` for JSONL and
``[entry N]`` for an array.  So is a ``ValueError`` raised while building
a row, such as an unknown enum value.

A schema maps keys to kinds, or is a dataclass whose type hints give
them.  ``str`` and ``Path`` mean a nonempty string, ``int`` an integer,
``float`` a number read as a float (``true`` is neither), ``dict`` and
``list`` an object and a list, ``dict[str, K]`` and ``list[K]`` ones whose
items are K, and ``K | None`` K or null.  A nullable key, and a
dataclass field with a default, may be left out.  :func:`at_least`
checks a number's kind and its least value.

:func:`write` gives ``jsonl`` rows (sorted keys, one ``\\n`` each) or a
``compact`` or ``pretty`` (indent 2, final newline) document.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import reprlib
import tempfile
import types
import typing
from pathlib import Path

from .errors import ColdRouteError, ConfigError


_KIND_NAMES = {str: "a nonempty string", Path: "a nonempty string", int: "an integer",
               float: "a number", dict: "an object", list: "a list"}


def read(path: str | Path, form: str = "doc", schema=None, build=None):
    """The document (``doc``) or rows (``jsonl``, ``array``) of ``path``, each checked
    against ``schema`` and then passed through ``build``."""
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8
        raise ConfigError(f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}") from None
    where = ""  # the row being read, for the error message
    try:
        if form == "jsonl":
            items = [(f":{n}", line) for n, line in enumerate(text.splitlines(), 1) if line.strip()]
        else:
            doc = json.loads(text)
            if form == "doc":
                return check(doc, schema) if build is None else build(check(doc, schema))
            if not isinstance(doc, list):
                raise ConfigError("not a JSON array")
            items = [(f"[entry {i}]", row) for i, row in enumerate(doc)]
        rows = []
        for where, item in items:
            row = check(json.loads(item) if form == "jsonl" else item, schema)
            rows.append(row if build is None else build(row))
        return rows
    except (ColdRouteError, ValueError) as exc:  # ValueError: bad JSON, or an unknown enum value
        what = f"not valid JSON: {exc}" if isinstance(exc, json.JSONDecodeError) else exc
        raise ConfigError(f"{path}{where}: {what}") from exc


def check(entry, schema=None):
    """``entry`` checked against ``schema``: a new dict, or an instance of a dataclass schema."""
    if not isinstance(entry, dict):
        raise ConfigError(f"not a JSON object: {reprlib.repr(entry)}")
    if schema is None:
        return entry
    cls, fields = _fields(tuple(schema.items()) if isinstance(schema, dict) else schema)
    out = {} if cls else dict(entry)
    for key, kind, required in fields:
        if key in entry:
            out[key] = _convert(entry[key], kind, key)
        elif required:
            raise ConfigError(f"missing key {key!r}")
    return cls(**out) if cls else out


def at_least(name: str, value, least: float, above: bool = False) -> None:
    """``ConfigError`` unless ``value`` is at least ``least`` (``above``: more), and of its kind:
    an integer when ``least`` is an ``int``, else any number."""
    integer = type(least) is int
    fits = isinstance(value, int if integer else (int, float)) and not isinstance(value, bool)
    if not (fits and (value > least if above else value >= least)):
        kind = "an integer" if integer else "a number"
        raise ConfigError(f"{name} must be {kind} {'>' if above else '>='} {least:g}: {value!r}")


@functools.cache
def _fields(schema) -> tuple:
    """(dataclass or None, [(key, kind, required)]) of a dataclass or of (key, kind) pairs."""
    if isinstance(schema, tuple):
        return None, [(key, kind, not _nullable(kind)) for key, kind in schema]
    hints = typing.get_type_hints(schema)
    missing = dataclasses.MISSING
    return schema, [
        (f.name, hints[f.name], f.default is missing and f.default_factory is missing)
        for f in dataclasses.fields(schema)
    ]


def _nullable(kind) -> bool:
    return isinstance(kind, types.UnionType) and type(None) in kind.__args__


def _convert(value, kind, name: str):
    """``value`` read as ``kind``; a value of another kind raises ``ConfigError``."""
    if type(value) is kind and (kind is not str or value.strip()):  # the common case, fast
        return value
    if _nullable(kind):
        if value is None:
            return None
        (kind,) = [k for k in kind.__args__ if k is not type(None)]
    origin = typing.get_origin(kind) or kind
    if origin in (list, dict) and isinstance(value, origin):
        if kind is origin:
            return value
        item = typing.get_args(kind)[-1]
        if origin is list:
            return [_convert(v, item, f"{name}[{i}]") for i, v in enumerate(value)]
        return {k: _convert(v, item, k) for k, v in value.items()}
    if origin in (str, Path) and isinstance(value, str) and value.strip():
        return kind(value)
    if origin in (int, float) and isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            if kind is float or isinstance(value, int):
                return kind(value)
        except OverflowError:  # an integer too large for a float
            pass
    raise ConfigError(f"{name!r} is not {_KIND_NAMES[origin]}: {reprlib.repr(value)}")


def dumps(payload, form: str = "compact") -> str:
    """The text of a ``compact`` or ``pretty`` document."""
    if form == "pretty":
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    return json.dumps(payload, sort_keys=True)


def write(path: str | Path, payload, form: str = "compact") -> None:
    """Write a document, or ``jsonl`` rows one at a time (``payload`` may be a generator)."""
    with Path(path).open("w") as fh:
        if form == "jsonl":
            fh.writelines(json.dumps(row, sort_keys=True) + "\n" for row in payload)
        else:
            fh.write(dumps(payload, form))


class Unsynced(OSError):
    """The file has its new name, but the directory sync after the rename failed."""


def write_atomic(path: Path, text: str, *, durable: bool) -> None:
    """Write through a temporary file so readers never see a torn file.

    With ``durable`` the data reach the disk before the file takes its
    name, so a crash leaves the old file or the new one, never a torn one,
    and the directory is synced after the rename, so the new name survives
    (a failed sync raises ``Unsynced``: the file has its new name).  A cache
    entry needs no such care: a lost entry is only a miss.  A directory that
    cannot take the file raises an ``OSError`` naming ``path``.
    """
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.stem, suffix=".tmp")
    except OSError as exc:  # it names the temporary file
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
            if durable:
                fh.flush()
                os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise
    if durable:
        try:
            dir_fd = os.open(path.parent, os.O_RDONLY)
            try:
                os.fsync(dir_fd)
            finally:
                os.close(dir_fd)
        except OSError as exc:
            raise Unsynced(exc.errno, f"renamed, not synced: {exc.strerror}", str(path)) from exc
