"""JSON schemas for diagrams, surgery presentations, graphs, and results.

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
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from typing import Any

import numpy as np

from .diagram import (
    Braid,
    Cap,
    Coupon,
    Cup,
    Id,
    SlicedDiagram,
    Strand,
)
from .errors import SchemaError
from .invariant import SurgeryPresentation
from .qscalar import RootParams
from .tqftdim import GraphEdge, TrivalentGraph


# ----------------------------------------------------------------------
# scalar parsing
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
            else:
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


def _require(doc: Mapping, key: str, path: str) -> Any:
    if not isinstance(doc, Mapping):
        raise SchemaError(f"{path}: expected an object, got {type(doc).__name__}")
    if key not in doc:
        raise SchemaError(f"{path}: missing required field {key!r}")
    return doc[key]


def _str_field(doc: Mapping, key: str, path: str) -> str:
    v = _require(doc, key, path)
    if not isinstance(v, str):
        raise SchemaError(f"{path}.{key}: expected a string")
    return v


def _int_field(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{path}: expected an integer, got {value!r}")
    return value


def _int_map(doc: Any, path: str) -> dict:
    if not isinstance(doc, Mapping):
        raise SchemaError(f"{path}: expected an object")
    return {str(k): _int_field(v, f"{path}.{k}") for k, v in doc.items()}


# ----------------------------------------------------------------------
# diagrams
# ----------------------------------------------------------------------

_VARIANTS_CUP = ("coev", "coevprime")
_VARIANTS_CAP = ("ev", "evprime")


def _parse_strand(value: Any, path: str) -> Strand:
    if not isinstance(value, Mapping):
        raise SchemaError(f"{path}: expected a strand object")
    comp = _str_field(value, "component", path)
    up = _require(value, "up", path)
    if not isinstance(up, bool):
        raise SchemaError(f"{path}.up: expected true or false")
    return Strand(comp, up)


def _parse_slice(value: Any, path: str):
    kind = _str_field(value, "slice", path)
    if kind == "id":
        return Id()
    if kind == "braid":
        sign = _int_field(_require(value, "sign", path), f"{path}.sign")
        if sign not in (1, -1):
            raise SchemaError(f"{path}.sign: expected +1 or -1, got {sign}")
        return Braid(_int_field(_require(value, "position", path), f"{path}.position"), sign)
    if kind in ("cup", "cap"):
        variants = _VARIANTS_CUP if kind == "cup" else _VARIANTS_CAP
        variant = value.get("variant", "coev" if kind == "cup" else "evprime")
        if variant not in variants:
            raise SchemaError(f"{path}.variant: expected one of {variants}, "
                              f"got {variant!r}")
        position = _int_field(_require(value, "position", path), f"{path}.position")
        if kind == "cap":
            return Cap(position, variant)
        return Cup(position, _str_field(value, "component", path), variant)
    if kind == "coupon":
        ins = _require(value, "inputs", path)
        outs = _require(value, "outputs", path)
        if not isinstance(ins, list) or not isinstance(outs, list):
            raise SchemaError(f"{path}: coupon inputs/outputs must be arrays")
        matrix = _require(value, "matrix", path)
        if not isinstance(matrix, list):
            raise SchemaError(f"{path}.matrix: expected an array of rows")
        for i, row in enumerate(matrix):
            if not isinstance(row, list):
                raise SchemaError(f"{path}.matrix[{i}]: expected an array of entries")
            if len(row) != len(matrix[0]):
                raise SchemaError(f"{path}.matrix[{i}]: expected {len(matrix[0])} "
                                  f"entries like row 0, got {len(row)}")
        rows = [
            [parse_complex(x, f"{path}.matrix[{i}][{j}]") for j, x in enumerate(row)]
            for i, row in enumerate(matrix)
        ]
        return Coupon(
            _int_field(_require(value, "position", path), f"{path}.position"),
            tuple(_parse_strand(s, f"{path}.inputs[{i}]") for i, s in enumerate(ins)),
            tuple(_parse_strand(s, f"{path}.outputs[{i}]") for i, s in enumerate(outs)),
            np.asarray(rows, dtype=complex),
        )
    raise SchemaError(
        f"{path}.slice: unknown slice kind {kind!r} "
        "(expected id, braid, cup, cap, or coupon)"
    )


def parse_diagram(doc: Any, path: str = "$") -> SlicedDiagram:
    """A sliced diagram from its JSON object."""
    if not isinstance(doc, Mapping):
        raise SchemaError(f"{path}: expected a diagram object")
    source = doc.get("source", [])
    if not isinstance(source, list):
        raise SchemaError(f"{path}.source: expected an array")
    slices = _require(doc, "width-changes", path)
    if not isinstance(slices, list):
        raise SchemaError(f"{path}.width-changes: expected an array of slices")
    return SlicedDiagram(
        tuple(
            _parse_slice(sl, f"{path}.width-changes[{i}]")
            for i, sl in enumerate(slices)
        ),
        tuple(_parse_strand(s, f"{path}.source[{i}]") for i, s in enumerate(source)),
    )


def _strand_to_json(s: Strand) -> dict:
    return {"component": s.component, "up": bool(s.up)}


def _slice_to_json(sl) -> dict:
    if isinstance(sl, Id):
        return {"slice": "id"}
    if isinstance(sl, Braid):
        return {"slice": "braid", "position": sl.position, "sign": sl.sign}
    if isinstance(sl, Cup):
        return {
            "slice": "cup",
            "position": sl.position,
            "component": sl.component,
            "variant": sl.variant,
        }
    if isinstance(sl, Cap):
        return {"slice": "cap", "position": sl.position, "variant": sl.variant}
    if isinstance(sl, Coupon):
        return {
            "slice": "coupon",
            "position": sl.position,
            "inputs": [_strand_to_json(s) for s in sl.inputs],
            "outputs": [_strand_to_json(s) for s in sl.outputs],
            "matrix": [
                [complex_to_json(x) for x in row] for row in np.asarray(sl.matrix)
            ],
        }
    raise SchemaError(f"cannot serialize slice {sl!r}")


def diagram_to_json(diagram: SlicedDiagram) -> dict:
    return {
        "source": [_strand_to_json(s) for s in diagram.source],
        "width-changes": [_slice_to_json(sl) for sl in diagram.slices],
    }


# ----------------------------------------------------------------------
# colored-link (F') documents
# ----------------------------------------------------------------------


def _parse_value_map(doc: Any, path: str) -> dict:
    if doc is None:
        return {}
    if not isinstance(doc, Mapping):
        raise SchemaError(f"{path}: expected an object mapping component names")
    return {str(k): parse_complex(v, f"{path}.{k}") for k, v in doc.items()}


def parse_flink(
    doc: Any, path: str = "$"
) -> tuple[SlicedDiagram, dict, str | None, dict]:
    """A colored-link document: diagram, colors, optional cut and framings."""
    diagram = parse_diagram(_require(doc, "diagram", path), f"{path}.diagram")
    colors = _parse_value_map(_require(doc, "colors", path), f"{path}.colors")
    cut = doc.get("cut")
    if cut is not None and not isinstance(cut, str):
        raise SchemaError(f"{path}.cut: expected a component name string")
    framings = _int_map(doc.get("framings") or {}, f"{path}.framings")
    return diagram, colors, cut, framings


def flink_to_json(
    diagram: SlicedDiagram,
    colors: Mapping,
    cut: str | None,
    framings: Mapping | None = None,
) -> dict:
    out = {
        "diagram": diagram_to_json(diagram),
        "colors": {k: complex_to_json(v) for k, v in colors.items()},
    }
    if cut is not None:
        out["cut"] = cut
    if framings:
        out["framings"] = dict(framings)
    return out


# ----------------------------------------------------------------------
# surgery presentations
# ----------------------------------------------------------------------


def parse_surgery(doc: Any, ctx: RootParams, path: str = "$") -> SurgeryPresentation:
    """A surgery presentation from its JSON object."""
    diagram = parse_diagram(_require(doc, "diagram", path), f"{path}.diagram")
    framings = _int_map(_require(doc, "framings", path), f"{path}.framings")
    meridians = _parse_value_map(
        _require(doc, "meridians", path), f"{path}.meridians"
    )
    colors = _parse_value_map(doc.get("colors"), f"{path}.colors")
    graph_framings = _int_map(doc.get("graph_framings") or {}, f"{path}.graph_framings")
    defect = _int_field(doc.get("defect", 0), f"{path}.defect")
    try:
        return SurgeryPresentation(
            ctx,
            diagram,
            framings,
            meridians,
            colors,
            graph_framings=graph_framings,
            defect=defect,
        )
    except SchemaError:
        raise
    except Exception as exc:  # domain validation errors keep their type
        raise type(exc)(f"{path}: {exc}") from exc


def surgery_to_json(sp: SurgeryPresentation) -> dict:
    out = {
        "diagram": diagram_to_json(sp.diagram),
        "framings": dict(sp.framings),
        "meridians": {k: complex_to_json(v) for k, v in sp.meridian_values.items()},
        "colors": {k: complex_to_json(v) for k, v in sp.colors.items()},
        "defect": sp.defect,
    }
    if sp.graph_framings:
        out["graph_framings"] = dict(sp.graph_framings)
    return out


# ----------------------------------------------------------------------
# trivalent graphs
# ----------------------------------------------------------------------


def parse_graph(doc: Any, ctx: RootParams, path: str = "$") -> TrivalentGraph:
    """A graded trivalent graph from its JSON object."""
    vertices_doc = _require(doc, "vertices", path)
    if not isinstance(vertices_doc, list):
        raise SchemaError(f"{path}.vertices: expected an array")
    order: dict[str, int] = {}
    for i, v in enumerate(vertices_doc):
        name = _str_field(v, "name", f"{path}.vertices[{i}]")
        if name in order:
            raise SchemaError(f"{path}.vertices[{i}]: duplicate vertex {name!r}")
        order[name] = _int_field(
            v.get("order", i), f"{path}.vertices[{i}].order"
        )
    edges_doc = _require(doc, "edges", path)
    if not isinstance(edges_doc, list):
        raise SchemaError(f"{path}.edges: expected an array")
    edges = []
    for i, e in enumerate(edges_doc):
        epath = f"{path}.edges[{i}]"
        name = _str_field(e, "name", epath)
        tail = e.get("tail")
        head = e.get("head")
        for label, v in (("tail", tail), ("head", head)):
            if v is not None and not isinstance(v, str):
                raise SchemaError(f"{epath}.{label}: expected a vertex name or null")
            if v is not None and v not in order:
                raise SchemaError(
                    f"{epath}.{label}: vertex {v!r} is not in the vertex list"
                )
        grading = parse_complex(_require(e, "grading", epath), f"{epath}.grading")
        color = e.get("color")
        if color is not None:
            color = parse_complex(color, f"{epath}.color")
        edges.append(GraphEdge(name, tail, head, grading, color=color))
    vertex_order = tuple(sorted(order, key=lambda v: (order[v], v)))
    try:
        return TrivalentGraph(ctx, tuple(edges), vertex_order)
    except SchemaError:
        raise
    except Exception as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def graph_to_json(graph: TrivalentGraph) -> dict:
    edges = []
    for e in graph.edges:
        entry: dict[str, Any] = {
            "name": e.name,
            "tail": e.tail,
            "head": e.head,
            "grading": complex_to_json(e.grading),
        }
        if e.color is not None:
            entry["color"] = complex_to_json(e.color)
        edges.append(entry)
    return {
        "vertices": [
            {"name": v, "order": i} for i, v in enumerate(graph.vertex_order)
        ],
        "edges": edges,
    }


# ----------------------------------------------------------------------
# closed-form evaluation documents
# ----------------------------------------------------------------------


def parse_verlinde(doc: Any, path: str = "$") -> tuple[int, complex, list[complex]]:
    """A Verlinde-evaluation document: genus, parameter, point colors."""
    genus = _int_field(_require(doc, "genus", path), f"{path}.genus")
    beta = parse_complex(_require(doc, "beta", path), f"{path}.beta")
    points_doc = doc.get("points", [])
    if not isinstance(points_doc, list):
        raise SchemaError(f"{path}.points: expected an array of colors")
    points = [
        parse_complex(c, f"{path}.points[{i}]") for i, c in enumerate(points_doc)
    ]
    return genus, beta, points


def verlinde_to_json(genus: int, beta: complex, points: list[complex]) -> dict:
    out: dict[str, Any] = {"genus": genus, "beta": complex_to_json(beta)}
    if points:
        out["points"] = [complex_to_json(c) for c in points]
    return out


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
