"""Artifact files: every output is written and every text input read here.
Text is UTF-8 with ``\\n`` line ends; every write is atomic."""

from __future__ import annotations

import csv
import io
import json
import os

from .errors import ParseError, ValidationError


def write_bytes(path, data: bytes) -> None:
    """Write ``<path>.<pid>.tmp`` beside ``path``, making the directory, then
    rename it over ``path``: ``path`` holds its old bytes or all of ``data``,
    and the temp file never outlives the call."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    os.makedirs(os.path.dirname(tmp) or ".", exist_ok=True)
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def write_csv(path, header, rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    write_bytes(path, buf.getvalue().encode("utf-8"))


def canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def write_json(path, obj) -> None:
    write_bytes(path, f"{json.dumps(obj, indent=2, sort_keys=True)}\n".encode("utf-8"))


def read_text(path) -> str:
    """The file's text, line ends untouched; ParseError unless UTF-8."""
    with open(path, "rb") as fh:
        return _utf8(fh.read(), path)


def _utf8(data: bytes, name) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{name} is not UTF-8 text: {exc}") from None


def parse_json(data: bytes, name):
    """The value UTF-8 JSON ``data`` holds; ValidationError naming ``name``
    unless it decodes and parses, within the parser's nesting limit."""
    text = _utf8(data, name)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"{name} is not valid JSON: {exc}") from None


def read_json(path):
    with open(path, "rb") as fh:
        return parse_json(fh.read(), path)


def read_csv(path, columns):
    """Yield ``(line, {column: value})`` per record, all ``columns`` filled."""
    reader = csv.DictReader(io.StringIO(read_text(path), newline=""))
    missing = [col for col in columns if col not in (reader.fieldnames or ())]
    if missing:
        raise ValidationError(f"{path}: missing column(s) {', '.join(missing)}")
    try:
        for row in reader:
            if None in row or None in row.values():
                raise ParseError(f"expected {len(reader.fieldnames)} fields",
                                 reader.line_num)
            yield reader.line_num, row
    except csv.Error as exc:
        # Python 3.10's reader rejects a NUL byte before it counts that line
        raise ParseError(str(exc), reader.line_num + 1) from None
