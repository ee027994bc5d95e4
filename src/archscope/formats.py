"""The one home of the conventions every document shares (docs/FORMATS.md):
indented sorted-key JSON, CSV under '# key=value' headers, resolving a config
from an instance, a mapping, a preset name, or a JSON file path, and checking
the fields inside them. Every input file is read here, so a file that cannot
be read is a ConfigError naming it, and every input field is checked here, so
a field of the wrong type is a ConfigError naming the field."""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

from .errors import ConfigError


def write_json(doc, path) -> None:
    """Write doc as indented, key-sorted JSON ending in a newline."""
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def write_csv(path, header: dict, rows) -> None:
    """One '# key=value' line per header field, in order, then rows as CSV with LF newlines."""
    buf = io.StringIO()
    buf.write("".join(f"# {key}={value}\n" for key, value in header.items()))
    csv.writer(buf, lineterminator="\n").writerows(rows)
    Path(path).write_text(buf.getvalue())


def _read_text(path) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read ({exc.strerror or exc})") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(
            f"{path}: not {exc.encoding} text ({exc.reason} at byte {exc.start})") from exc


def read_csv(path):
    """Inverse of write_csv: the '# key=value' fields, and a CSV reader over the
    non-blank lines after them. '#' lines without '=' are skipped; a repeated
    key keeps its last value."""
    header: dict[str, str] = {}
    body = []
    for line in _read_text(path).splitlines():
        if line.startswith("#"):
            key, sep, value = line.lstrip("#").strip().partition("=")
            if sep:
                header[key.strip()] = value.strip()
        elif line.strip():
            body.append(line)
    return header, csv.reader(body)


def resolve_config(source, cls: type, presets: dict, parse, noun: str):
    """An instance of cls from itself, a mapping (via parse), a preset name, or a JSON path."""
    if isinstance(source, cls):
        return source
    if isinstance(source, dict):
        return parse(source)
    if isinstance(source, (str, Path)):
        key = str(source)
        if key in presets:
            return presets[key]()
        path = Path(source)
        if path.exists():
            try:
                config = json.loads(_read_text(path))
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
            return parse(config)
        raise ConfigError(
            f"unknown {noun} {key!r}: not a preset ({', '.join(presets)}) and no such file"
        )
    raise ConfigError(f"cannot load a {noun} from {type(source).__name__}")


_MISSING = object()


def require(container, key, kind, where, default=_MISSING):
    """container[key] checked to be a kind (float takes any number, int no
    bool); errors name the field where.key, or where[key] for a list index.
    A missing key gives default when one is passed."""
    field = f"{where}[{key}]" if isinstance(key, int) else f"{where}.{key}"
    if isinstance(key, str) and key not in container:
        if default is not _MISSING:
            return default
        raise ConfigError(f"{field}: missing")
    value = container[key]
    if kind is float:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ConfigError(f"{field}: expected a number, got {value!r}")
        return float(value)
    if kind is int and isinstance(value, bool) or not isinstance(value, kind):
        raise ConfigError(f"{field}: expected {kind.__name__}, got {value!r}")
    return value


def refuse_unknown(container: dict, keys, where) -> None:
    """Refuse a key outside keys, so a misspelt optional field cannot take its
    default silently."""
    for key in container:
        if key not in keys:
            raise ConfigError(f"{where}.{key}: unknown field")


def require_each(values: list, kind, where) -> tuple:
    return tuple(require(values, i, kind, where) for i in range(len(values)))


def integer(text: str, where: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{where}: expected an integer, got {text!r}") from None


def finite(text: str, where: str) -> float:
    try:
        value = float(text)
        if math.isfinite(value):
            return value
    except (TypeError, ValueError):
        pass
    raise ConfigError(f"{where}: expected a finite number, got {text!r}")


def int_or_finite(text: str, where: str):
    """An integer when text spells one, else a finite number: '3' -> 3, '0.25' -> 0.25."""
    try:
        return integer(text, where)
    except ConfigError:
        return finite(text, where)
