"""JSON input and output shared by every document kind.

This module is what every command loads: :func:`load_document`, the
emitter :func:`dump_document`, and the field and scalar parsers that each
kind's schema is built from.  The schemas themselves (a kind's ``parse_*``
and ``*_to_json`` functions) live beside the model they read, and each
command imports its own: diagrams, colored links and surgery presentations
in :mod:`.model`, spines in :mod:`.tqftdim`, and Verlinde documents in
:mod:`.closedform`.

Numbers in input files may be plain JSON numbers, exact rational strings
``"p/q"``, decimal strings ``"0.25"``, or complex objects ``{"re": …,
"im": …}`` whose parts are any of the former.  Rational and decimal
strings are parsed exactly (a plain ``"p/q"`` as the correctly rounded
quotient of two integers, anything else via ``fractions.Fraction``) before
conversion to floating point, so fixtures never lose precision to a
decimal-binary round trip.  Emitted numbers are ``repr`` strings of the floats, which
parse back to the identical float — results round-trip bit-for-bit.
:func:`dump_document` writes the bytes of ``json.dumps(doc, indent=2,
sort_keys=True)``.

Schema errors raise :class:`~unrolledsl2.errors.SchemaError` with a
JSON-path-style location (``$.edges[3].grading``) naming the offending
field.
"""

from __future__ import annotations

import json
import math
import re
from collections.abc import Mapping
from json.encoder import encode_basestring_ascii as _quote
from typing import Any

from .errors import SchemaError


# ----------------------------------------------------------------------
# scalars and fields
# ----------------------------------------------------------------------


_RATIO = re.compile(r"[+-]?[0-9]+/[0-9]+")  # a plain "p/q": no spaces, underscores or point


def parse_real(value: Any, path: str) -> float:
    """A finite real number from a JSON number, "p/q" string, or decimal string.

    NaN, infinities and values beyond double range (``1e400``, the JSON
    ``NaN`` / ``Infinity`` literals, ``"nan"``, ``"inf"``) are schema errors.
    """
    if isinstance(value, bool):
        raise SchemaError(f"{path}: expected a number, got a boolean")
    if isinstance(value, str):
        try:
            if _RATIO.fullmatch(value):  # the correctly rounded float(Fraction(value))
                p, q = value.split("/")
                number = int(p) / int(q)
            else:  # fractions (with decimal) loads only for such a string
                from fractions import Fraction

                number = Fraction(value)
        except OverflowError:
            number = math.inf
        except (ValueError, ZeroDivisionError):  # also q = 0 and digits beyond int()'s limit
            try:
                number = float(value)
            except ValueError:
                raise SchemaError(
                    f"{path}: {value!r} is not a rational 'p/q' string, a "
                    "decimal string, or a number"
                ) from None
    elif isinstance(value, (int, float)):
        number = value
    else:
        raise SchemaError(f"{path}: expected a number, got {type(value).__name__}")
    try:
        out = float(number)
    except OverflowError:
        out = math.inf
    if not math.isfinite(out):
        raise SchemaError(f"{path}: {value!r} is not a finite number")
    return out


def parse_complex(value: Any, path: str) -> complex:
    """A complex number; plain reals are accepted as having zero imaginary part."""
    if isinstance(value, Mapping):
        extra = set(value) - {"re", "im"}
        if extra:
            raise SchemaError(f"{path}: unexpected fields {sorted(extra)}")
        re = parse_real(value.get("re", 0), f"{path}.re")
        im = parse_real(value.get("im", 0), f"{path}.im")
        return complex(re, im)
    return complex(parse_real(value, path))


def complex_to_json(z: complex) -> dict:
    z = complex(z)
    return {"re": repr(z.real), "im": repr(z.imag)}


def require(doc: Mapping, key: str, path: str) -> Any:
    """Field ``key`` of the object ``doc`` found at ``path``."""
    if not isinstance(doc, Mapping):
        raise SchemaError(f"{path}: expected an object, got {type(doc).__name__}")
    if key not in doc:
        raise SchemaError(f"{path}: missing required field {key!r}")
    return doc[key]


def str_field(doc: Mapping, key: str, path: str) -> str:
    """String field ``key`` of the object ``doc`` found at ``path``."""
    v = require(doc, key, path)
    if not isinstance(v, str):
        raise SchemaError(f"{path}.{key}: expected a string")
    return v


def int_field(value: Any, path: str) -> int:
    """``value``, found at ``path``, as an integer; a boolean is not one."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{path}: expected an integer, got {value!r}")
    return value


def int_map(doc: Any, path: str) -> dict:
    """An object of integers, keyed by strings."""
    if not isinstance(doc, Mapping):
        raise SchemaError(f"{path}: expected an object")
    return {str(k): int_field(v, f"{path}.{k}") for k, v in doc.items()}


# ----------------------------------------------------------------------
# file handling
# ----------------------------------------------------------------------


def load_document(path: str) -> Any:
    """Parse a JSON file, reporting syntax errors with line/column.

    A file that cannot be read (missing, a directory, no permission), is
    not UTF-8 text or nests deeper than the parser's recursion limit is a
    schema error naming the path.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise SchemaError(f"{path}: no such file") from None
    except OSError as exc:
        raise SchemaError(f"{path}: cannot read: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise SchemaError(
            f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from None
    except json.JSONDecodeError as exc:
        raise SchemaError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}"
        ) from None
    except RecursionError:
        raise SchemaError(f"{path}: nested too deeply") from None


_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _emit(value: Any, indent: str) -> str:
    """``value`` as ``json.dumps`` writes it, nested at ``indent``."""
    if isinstance(value, str):
        return _quote(value)
    inner = indent + "  "
    if isinstance(value, dict):
        items = [f"{inner}{_quote(k)}: {_emit(v, inner)}" for k, v in sorted(value.items())]
        return "{" + ",".join(items) + indent + "}" if items else "{}"
    if isinstance(value, (list, tuple)):
        items = [inner + _emit(v, inner) for v in value]
        return "[" + ",".join(items) + indent + "]" if items else "[]"
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _FLOAT_WORDS.get(text := float.__repr__(value), text)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def dump_document(doc: Any) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True)``, without its slow
    pure-Python encoder (the C one ignores ``indent``); string keys only."""
    return _emit(doc, "\n")
