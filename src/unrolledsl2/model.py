"""The diagram documents: sliced tangle diagrams and their JSON schemas.

Sliced tangle diagrams (:class:`SlicedDiagram` of :class:`Id`,
:class:`Braid`, :class:`Cup`, :class:`Cap` and :class:`Coupon` slices over
:class:`Strand` words, checked by :func:`typecheck`), evaluated by
:mod:`.diagram`, each a :class:`~.qscalar.Record`; and the schemas of the
three documents built on them: a diagram (:func:`parse_diagram`), a
colored link (:func:`parse_flink`) and a surgery presentation
(:func:`parse_surgery`), each with its ``*_to_json`` echo.  The ``flink``
and ``zinv`` commands import this module through their engine; importing
it loads no numpy and no ``inspect``.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import TYPE_CHECKING, Any, Union

from .errors import DiagramTypeError, DomainError, SchemaError
from .jsonio import complex_to_json, int_field, int_map, parse_complex, require, str_field
from .qscalar import Record

if TYPE_CHECKING:  # for the annotations; parse_surgery imports the engine as it runs
    from .invariant import SurgeryPresentation
    from .qscalar import RootParams

__all__ = [
    "Strand",
    "Id",
    "Braid",
    "Cup",
    "Cap",
    "Coupon",
    "SlicedDiagram",
    "typecheck",
    "parse_diagram",
    "diagram_to_json",
    "parse_flink",
    "flink_to_json",
    "parse_surgery",
    "surgery_to_json",
]


# ----------------------------------------------------------------------
# strands and slices
# ----------------------------------------------------------------------


class Strand(Record):
    """One point of a horizontal boundary word: component name + direction."""

    def __init__(self, component: str, up: bool):
        self._set("component", component)
        self._set("up", up)

    @property
    def orientation(self) -> int:
        return 1 if self.up else -1

    def __str__(self) -> str:  # as a document names it: "K up", "K down"
        return f"{self.component} {'up' if self.up else 'down'}"


class Id(Record):
    """Identity slice."""


class Braid(Record):
    """Crossing of strands (position, position+1); sign ∈ {+1, −1}."""

    def __init__(self, position: int, sign: int):
        self._set("position", position)
        self._set("sign", sign)


class Cup(Record):
    """Local minimum creating two strands of ``component``.

    variant "coev" creates (up, down); variant "coevprime" creates
    (down, up).
    """

    def __init__(self, position: int, component: str, variant: str = "coev"):
        self._set("position", position)
        self._set("component", component)
        self._set("variant", variant)


class Cap(Record):
    """Local maximum closing strands (position, position+1).

    variant "ev" consumes (down, up); variant "evprime" consumes (up, down).
    """

    def __init__(self, position: int, variant: str = "evprime"):
        self._set("position", position)
        self._set("variant", variant)


class Coupon(Record):
    """A morphism box consuming ``inputs`` and emitting ``outputs``.

    ``matrix`` has shape (prod of output dims, prod of input dims) once
    colors are bound: an ndarray or the rows a document gives, which the
    engine converts with ``np.asarray(matrix, dtype=complex)``.  A coupon
    holding a matrix is not hashable;
    :func:`~unrolledsl2.diagram.compile_diagram` keys it by its position
    and strands.  Its ``repr`` leaves the matrix out.
    """

    _hidden = ("matrix",)

    def __init__(self, position: int, inputs: tuple, outputs: tuple, matrix: Any = None):
        self._set("position", position)
        self._set("inputs", tuple(inputs))
        self._set("outputs", tuple(outputs))
        self._set("matrix", matrix)


SliceType = Union[Id, Braid, Cup, Cap, Coupon]


class SlicedDiagram(Record):
    """A typed word of slices with a fixed source boundary word."""

    def __init__(self, slices: tuple, source: tuple = ()):
        self._set("slices", tuple(slices))
        self._set("source", tuple(source))

    def component_names(self) -> list[str]:
        """All component names, in first-appearance order."""
        seen: dict[str, None] = {}
        for strand in self.source:
            seen.setdefault(strand.component, None)
        for sl in self.slices:
            if isinstance(sl, Cup):
                seen.setdefault(sl.component, None)
            elif isinstance(sl, Coupon):
                for strand in sl.inputs + sl.outputs:
                    seen.setdefault(strand.component, None)
        return list(seen)


# ----------------------------------------------------------------------
# typechecking
# ----------------------------------------------------------------------


def _apply_slice(word: tuple, sl: SliceType, index: int) -> tuple:
    """The word above slice ``sl`` given the word below; raises on mismatch."""

    def bail(message: str):
        raise DiagramTypeError(f"slice {index} ({type(sl).__name__}): {message}")

    if isinstance(sl, Id):
        return word

    if isinstance(sl, Braid):
        if sl.sign not in (1, -1):
            bail(f"braid sign must be +1 or -1, got {sl.sign!r}")
        i = sl.position
        if not (0 <= i <= len(word) - 2):
            bail(f"braid position {i} out of range for width {len(word)}")
        return word[:i] + (word[i + 1], word[i]) + word[i + 2 :]

    if isinstance(sl, Cup):
        i = sl.position
        if not (0 <= i <= len(word)):
            bail(f"cup position {i} out of range for width {len(word)}")
        if sl.variant == "coev":
            pair = (Strand(sl.component, True), Strand(sl.component, False))
        elif sl.variant == "coevprime":
            pair = (Strand(sl.component, False), Strand(sl.component, True))
        else:
            bail(f"unknown cup variant {sl.variant!r}")
        return word[:i] + pair + word[i:]

    if isinstance(sl, Cap):
        i = sl.position
        if not (0 <= i <= len(word) - 2):
            bail(f"cap position {i} out of range for width {len(word)}")
        s1, s2 = word[i], word[i + 1]
        if s1.component != s2.component:
            bail(
                f"cap joins different components {s1.component!r} and "
                f"{s2.component!r}"
            )
        want = (False, True) if sl.variant == "ev" else (True, False)
        if sl.variant not in ("ev", "evprime"):
            bail(f"unknown cap variant {sl.variant!r}")
        if (s1.up, s2.up) != want:
            bail(
                f"cap variant {sl.variant!r} needs orientations {want}, "
                f"found ({s1.up}, {s2.up})"
            )
        return word[:i] + word[i + 2 :]

    if isinstance(sl, Coupon):
        i = sl.position
        ins = sl.inputs
        if word[i : i + len(ins)] != ins:
            want, found = (", ".join(map(str, w)) for w in (ins, word[i : i + len(ins)]))
            bail(f"coupon inputs [{want}] do not match word segment [{found}]")
        return word[:i] + sl.outputs + word[i + len(ins) :]

    bail(f"unknown slice kind {type(sl).__name__}")


def typecheck(diagram: SlicedDiagram) -> list[tuple]:
    """All boundary words of the diagram, bottom to top (length #slices+1).

    Raises :class:`DiagramTypeError` (a TypeError) with the offending slice
    index on any composition mismatch.
    """
    words = [tuple(diagram.source)]
    for index, sl in enumerate(diagram.slices):
        words.append(_apply_slice(words[-1], sl, index))
    return words


# ----------------------------------------------------------------------
# diagram documents
# ----------------------------------------------------------------------

_VARIANTS_CUP = ("coev", "coevprime")
_VARIANTS_CAP = ("ev", "evprime")


def _parse_strand(value: Any, path: str) -> Strand:
    if not isinstance(value, Mapping):
        raise SchemaError(f"{path}: expected a strand object")
    comp = str_field(value, "component", path)
    up = require(value, "up", path)
    if not isinstance(up, bool):
        raise SchemaError(f"{path}.up: expected true or false")
    return Strand(comp, up)


def _parse_slice(value: Any, path: str):
    kind = str_field(value, "slice", path)
    if kind == "id":
        return Id()
    if kind == "braid":
        sign = int_field(require(value, "sign", path), f"{path}.sign")
        if sign not in (1, -1):
            raise SchemaError(f"{path}.sign: expected +1 or -1, got {sign}")
        return Braid(int_field(require(value, "position", path), f"{path}.position"), sign)
    if kind in ("cup", "cap"):
        variants = _VARIANTS_CUP if kind == "cup" else _VARIANTS_CAP
        variant = value.get("variant", "coev" if kind == "cup" else "evprime")
        if variant not in variants:
            raise SchemaError(f"{path}.variant: expected one of {variants}, "
                              f"got {variant!r}")
        position = int_field(require(value, "position", path), f"{path}.position")
        if kind == "cap":
            return Cap(position, variant)
        return Cup(position, str_field(value, "component", path), variant)
    if kind == "coupon":
        ins = require(value, "inputs", path)
        outs = require(value, "outputs", path)
        if not isinstance(ins, list) or not isinstance(outs, list):
            raise SchemaError(f"{path}: coupon inputs/outputs must be arrays")
        matrix = require(value, "matrix", path)
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
            int_field(require(value, "position", path), f"{path}.position"),
            tuple(_parse_strand(s, f"{path}.inputs[{i}]") for i, s in enumerate(ins)),
            tuple(_parse_strand(s, f"{path}.outputs[{i}]") for i, s in enumerate(outs)),
            rows,
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
    slices = require(doc, "width-changes", path)
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
                [complex_to_json(x) for x in row] for row in sl.matrix
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
    diagram = parse_diagram(require(doc, "diagram", path), f"{path}.diagram")
    colors = _parse_value_map(require(doc, "colors", path), f"{path}.colors")
    cut = doc.get("cut")
    if cut is not None and not isinstance(cut, str):
        raise SchemaError(f"{path}.cut: expected a component name string")
    framings = int_map(doc.get("framings") or {}, f"{path}.framings")
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
    from .invariant import SurgeryPresentation

    diagram = parse_diagram(require(doc, "diagram", path), f"{path}.diagram")
    framings = int_map(require(doc, "framings", path), f"{path}.framings")
    meridians = _parse_value_map(
        require(doc, "meridians", path), f"{path}.meridians"
    )
    colors = _parse_value_map(doc.get("colors"), f"{path}.colors")
    graph_framings = int_map(doc.get("graph_framings") or {}, f"{path}.graph_framings")
    defect = int_field(doc.get("defect", 0), f"{path}.defect")
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
    except DomainError as exc:  # each keeps its type
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


