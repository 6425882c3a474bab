"""Validation helpers shared by every file format the toolkit reads.

Each helper checks one JSON value and raises ParseError at the value's
location (for example ``plan.params[1][2]``), so a malformed file surfaces as
a parse error, never as a numpy or type error further down.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import ParseError


def load_json(data: bytes | str, source: str = ""):
    """Parse UTF-8 JSON text; a syntax error is located at ``source:offset N``."""

    prefix = f"{source}:" if source else ""
    try:
        return json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", location=f"{prefix}offset {exc.pos}") from exc
    except (ValueError, RecursionError) as exc:  # bad UTF-8, an over-long integer, deep nesting
        raise ParseError(f"invalid JSON: {exc}", location=source) from exc


def field(obj, key: str, location: str, kind: type = object) -> tuple:
    """The required member ``key`` of the object at ``location``, paired with
    its own location so that it can be passed straight to another helper."""

    if not isinstance(obj, dict):
        raise ParseError("expected an object", location=location)
    if key not in obj:
        raise ParseError(f"missing field {key!r}", location=location)
    where = f"{location}.{key}"
    if not isinstance(obj[key], kind):
        raise ParseError(f"field {key!r} has the wrong type", location=where)
    return obj[key], where


def _finite(value) -> float | None:
    """The value as a float if it is a finite JSON number (not a bool)."""

    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        out = float(value)
    except OverflowError:  # an integer beyond the float range
        return None
    return out if math.isfinite(out) else None


def number(value, location: str) -> float:
    out = _finite(value)
    if out is None:
        raise ParseError("expected a finite number", location=location)
    return out


def positive_int(value, location: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ParseError("expected a positive integer", location=location)
    return value


def vector(value, location: str, length: int | None = None) -> np.ndarray:
    """A list of finite numbers, of exactly ``length`` entries when given."""

    if not isinstance(value, list):
        raise ParseError("expected a list of numbers", location=location)
    if length is not None and len(value) != length:
        raise ParseError(f"expected {length} numbers, got {len(value)}",
                         location=location)
    out = [_finite(v) for v in value]
    if None in out:
        raise ParseError("expected a finite number",
                         location=f"{location}[{out.index(None)}]")
    return np.array(out, dtype=float)


def matrix(value, location: str, width: int | None = None) -> np.ndarray:
    """A list of rows of ``width`` finite numbers each (the first row's length
    when None).  Errors are located at the matrix; ``entry`` in the details
    names the offending row or number."""

    if not isinstance(value, list):
        raise ParseError("expected a list of rows", location=location)
    if width is None:
        width = len(value[0]) if value and isinstance(value[0], list) else 0
    rows = []
    for i, row in enumerate(value):
        try:
            rows.append(vector(row, f"{location}[{i}]", width))
        except ParseError as exc:
            raise ParseError(exc.message, location=location, entry=exc.location) from None
    return np.array(rows, dtype=float).reshape(len(rows), width)
