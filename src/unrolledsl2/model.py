"""The document model: what :mod:`.jsonio` parses, without numpy or an engine.

Sliced tangle diagrams (:class:`SlicedDiagram` of :class:`Id`,
:class:`Braid`, :class:`Cup`, :class:`Cap` and :class:`Coupon` slices over
:class:`Strand` words, checked by :func:`typecheck`), evaluated by
:mod:`.diagram`; graded trivalent spines (:class:`TrivalentGraph` of
:class:`GraphEdge`) and their degree histograms (:class:`GradedDimension`),
computed by :mod:`.tqftdim`.  Each is a :class:`~.qscalar.Record`.
Importing this module loads no numpy, no engine and no ``inspect``, so a
command that only parses and emits starts quickly.
"""

from __future__ import annotations

from functools import cached_property
from typing import Any, Mapping, Union

from .errors import DiagramTypeError, DomainError
from .qscalar import Record, RootParams

__all__ = [
    "Strand",
    "Id",
    "Braid",
    "Cup",
    "Cap",
    "Coupon",
    "SlicedDiagram",
    "typecheck",
    "GraphEdge",
    "TrivalentGraph",
    "GradedDimension",
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
# graded trivalent graphs
# ----------------------------------------------------------------------


class GraphEdge(Record):
    """One oriented edge of a trivalent graph.

    ``tail`` and ``head`` name internal vertices (``tail`` is left,
    ``head`` is entered).  An *external* edge carries a fixed ``color``
    and has exactly one endpoint; an internal edge has color ``None``
    and either two endpoints (possibly equal, a loop) or none (a free
    circle component).  ``grading`` is the ℂ/2ℤ class of the edge
    meridian, stored as any complex representative.
    """

    def __init__(self, name: str, tail: str | None, head: str | None,
                 grading: complex, color: complex | None = None):
        self._set("name", name)
        self._set("tail", tail)
        self._set("head", head)
        self._set("grading", grading)
        self._set("color", color)

    @property
    def endpoints(self) -> tuple[str, ...]:
        return tuple(v for v in (self.tail, self.head) if v is not None)

    @property
    def is_external(self) -> bool:
        return self.color is not None

    @property
    def is_circle(self) -> bool:
        return self.tail is None and self.head is None


class TrivalentGraph(Record):
    """An oriented uni-trivalent graph with ℂ/2ℤ edge gradings.

    Internal vertices are the names appearing as edge endpoints or in
    ``vertex_order``, and must have three incidences each (loops count
    twice); univalent outer ends of external edges are implicit.
    ``vertex_order`` records the ordering of trivalent vertices that a
    basis needs for even r; the grid and the contraction both iterate
    vertices in that order.
    ``incidence``, derived and not a field, is the signed incidence table
    both read: per vertex, its three ``(edge, sign)`` entries in edge order,
    +1 where the edge enters (its head) and −1 where it leaves (its tail), a
    loop once with each sign.  Construction validates the 1-cycle condition
    from it: at every internal vertex the signed sum of incident gradings
    vanishes mod 2, which is what makes the class well defined, and external
    colors must have degree equal to their edge grading.  A grading or color
    with a part of size 2^23 or more is a DomainError: doubles there are
    spaced wider than ``epsilon_int``, so its class mod 2 cannot be decided.
    """

    incidence: Mapping[str, tuple[tuple[GraphEdge, int], ...]]

    def __init__(self, ctx: RootParams, edges: tuple[GraphEdge, ...],
                 vertex_order: tuple[str, ...] = ()):
        self._set("ctx", ctx)
        self._set("edges", edges)
        self._set("vertex_order", vertex_order)
        names = [e.name for e in self.edges]
        if len(set(names)) != len(names):
            raise DomainError(f"duplicate edge names in {names}")
        table: dict[str, list] = {}
        for e in self.edges:
            if e.is_external and len(e.endpoints) != 1:
                raise DomainError(
                    f"external edge {e.name!r} must have exactly one endpoint"
                )
            if not e.is_external and len(e.endpoints) == 1:
                raise DomainError(
                    f"edge {e.name!r} has one endpoint but no color; external "
                    "edges need a fixed color"
                )
            if e.tail is not None:  # tail first: the order faults are reported in
                table.setdefault(e.tail, [])
            for v, sign in ((e.head, 1), (e.tail, -1)):
                if v is not None:
                    table.setdefault(v, []).append((e, sign))
        for v in self.vertex_order:  # a listed vertex that no edge touches
            table.setdefault(v, [])
        for v, ends in table.items():
            if len(ends) != 3:
                raise DomainError(f"vertex {v!r} has {len(ends)} incidences, need 3")
        if self.vertex_order:
            if sorted(self.vertex_order) != sorted(table):
                raise DomainError(
                    "vertex_order must be a permutation of the internal vertices"
                )
        else:
            self._set("vertex_order", tuple(sorted(table)))
        for e in self.edges:
            for what, x in (("grading", e.grading), ("color", e.color)):
                z = complex(x or 0)
                if max(abs(z.real), abs(z.imag)) >= 2**23:
                    raise DomainError(
                        f"edge {e.name!r}: {what} {x} is too large to decide "
                        "its class mod 2 (a part of size 2^23 or more)"
                    )
            if e.is_external and not ctx.is_congruent_mod2(
                e.grading, complex(e.color) + (ctx.r - 1)
            ):
                raise DomainError(
                    f"external edge {e.name!r}: grading {e.grading} is not the "
                    f"degree of its color {e.color}"
                )
        for v in self.vertex_order:
            total = 0.0 + 0.0j
            for e, sign in table[v]:
                g = complex(e.grading)
                total = total + g if sign > 0 else total - g
            if not ctx.is_congruent_mod2(total, 0.0):
                raise DomainError(
                    f"edge gradings are not a 1-cycle: signed sum {total} at "
                    f"vertex {v!r} is nonzero mod 2"
                )
        self._set("incidence", {v: tuple(ends) for v, ends in table.items()})

    # -- derived structure -------------------------------------------------

    @cached_property
    def internal_edges(self) -> tuple[GraphEdge, ...]:
        return tuple(e for e in self.edges if not e.is_external)

    @cached_property
    def external_edges(self) -> tuple[GraphEdge, ...]:
        return tuple(e for e in self.edges if e.is_external)

    @cached_property
    def circles(self) -> tuple[GraphEdge, ...]:
        return tuple(e for e in self.edges if e.is_circle)

    @cached_property
    def genus(self) -> int:
        """First Betti number of the graph (= genus of its surface)."""
        from .planner import UnionFind

        uf = UnionFind()
        ids = {v: uf.make() for v in self.vertex_order}
        arcs = [e for e in self.internal_edges if not e.is_circle]
        for e in arcs:
            uf.union(ids[e.tail], ids[e.head])
        components = len({uf.find(i) for i in ids.values()})
        # every vertex-free circle is its own component with Betti number 1
        return len(arcs) - len(ids) + components + len(self.circles)


class GradedDimension(Record):
    """Finitely supported degree histogram k ↦ dim of a graded space.

    ``parity_mode`` selects the evaluation rule: ``"plain"`` (odd r) sums
    dim·t^k, ``"super"`` (even r) sums (−1)^k·dim·t^k.
    """

    def __init__(self, coefficients: Mapping[int, int], parity_mode: str):
        if parity_mode not in ("plain", "super"):
            raise DomainError(f"unknown parity mode {parity_mode!r}")
        self._set("coefficients", {int(k): int(v) for k, v in sorted(coefficients.items()) if v})
        self._set("parity_mode", parity_mode)

    @property
    def total(self) -> int:
        """Plain dimension count Σ_k dim_k (no supersign)."""
        return sum(self.coefficients.values())

    def evaluate(self, t: complex) -> complex:
        """Σ dim_k t^k, with the factor (−1)^k in super mode."""
        out = 0.0 + 0.0j
        for k, dim in self.coefficients.items():
            term = dim * complex(t) ** k
            if self.parity_mode == "super" and k % 2:
                term = -term
            out += term
        return out

    def evaluate_at(self, ctx: RootParams, beta: complex) -> complex:
        """Evaluate at the root-of-unity point t = q^(2r'β)."""
        return self.evaluate(ctx.q_pow(2 * ctx.rprime * complex(beta)))
