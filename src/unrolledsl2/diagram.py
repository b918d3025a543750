"""Sliced tangle diagrams and their evaluation to matrices.

A diagram is a vertical stack of elementary *slices* read bottom to top, each
acting on a horizontal *word* of strands.  A strand is a pair (component
name, orientation): ``up`` strands evaluate to the component's color module
V, ``down`` strands to its dual V*.  The five slice kinds are

* :class:`Id` — no-op (optionally asserting the expected word),
* :class:`Braid` — a crossing of two adjacent strands (sign ±1, where +1 is
  the crossing whose value is the braiding c),
* :class:`Cup` — a local minimum creating two strands of one component, in
  one of the two duality variants (``coev``: up/down, ``coevprime``:
  down/up),
* :class:`Cap` — a local maximum closing two adjacent strands (``ev``:
  down/up, ``evprime``: up/down),
* :class:`Coupon` — an arbitrary morphism box with declared input/output
  strand words.

Evaluation contracts slice tensors into a running ndarray with one axis per
strand position, so no operator on the full word width is ever materialized.
The same engine supports *cutting* a closed diagram open at a chosen cup or
cap of one component: the two strand axes of that slice are parked instead
of contracted, which turns the closed diagram into the matrix of a 1-1
tangle on the cut component (used by the renormalized link invariant).

Geometric bookkeeping (writhes and linking numbers) is extracted from the
same slice walk: a crossing between strands with orientations o₁, o₂ and
braid sign ε contributes ε·o₁·o₂ to the writhe of its component (self
crossing) or to twice the linking number (mixed crossing).  Diagrams are
blackboard framed; explicit framing integers are applied downstream through
twist scalars.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .errors import DiagramTypeError, DomainError
from .qscalar import RootParams
from .repcat import (
    MorphismMatrix,
    WeightModule,
    braiding_matrix,
    dual,
    make_valpha,
    tensor,
    trivial_module,
)

__all__ = [
    "Strand",
    "Id",
    "Braid",
    "Cup",
    "Cap",
    "Coupon",
    "SlicedDiagram",
    "typecheck",
    "evaluate",
    "evaluate_cut",
    "cut_is_enclosed",
    "writhe_and_linking",
    "unknot_diagram",
    "curl_diagram",
    "clasp_diagram",
    "braid_closure",
]


# ----------------------------------------------------------------------
# strands and slices
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Strand:
    """One point of a horizontal boundary word: component name + direction."""

    component: str
    up: bool

    @property
    def orientation(self) -> int:
        return 1 if self.up else -1


@dataclass(frozen=True)
class Id:
    """Identity slice; if ``word`` is given, typechecking asserts it."""

    word: Optional[tuple] = None


@dataclass(frozen=True)
class Braid:
    """Crossing of strands (position, position+1); sign ∈ {+1, −1}."""

    position: int
    sign: int


@dataclass(frozen=True)
class Cup:
    """Local minimum creating two strands of ``component``.

    variant "coev" creates (up, down); variant "coevprime" creates
    (down, up).
    """

    position: int
    component: str
    variant: str = "coev"


@dataclass(frozen=True)
class Cap:
    """Local maximum closing strands (position, position+1).

    variant "ev" consumes (down, up); variant "evprime" consumes (up, down).
    """

    position: int
    variant: str = "evprime"


@dataclass(frozen=True)
class Coupon:
    """A morphism box consuming ``inputs`` and emitting ``outputs``.

    ``matrix`` has shape (prod of output dims, prod of input dims) once
    colors are bound; it is supplied directly as an ndarray.
    """

    position: int
    inputs: tuple
    outputs: tuple
    matrix: np.ndarray = field(repr=False, default=None)


SliceType = Union[Id, Braid, Cup, Cap, Coupon]


@dataclass(frozen=True)
class SlicedDiagram:
    """A typed word of slices with a fixed source boundary word."""

    slices: tuple
    source: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "slices", tuple(self.slices))
        object.__setattr__(self, "source", tuple(self.source))

    @property
    def target(self) -> tuple:
        return typecheck(self)[-1]

    @property
    def is_closed(self) -> bool:
        words = typecheck(self)
        return not words[0] and not words[-1]

    def component_names(self) -> list[str]:
        """All component names, in first-appearance order."""
        seen: dict[str, None] = {}
        for strand in self.source:
            seen.setdefault(strand.component, None)
        for sl in self.slices:
            if isinstance(sl, Cup):
                seen.setdefault(sl.component, None)
            elif isinstance(sl, Coupon):
                for strand in tuple(sl.inputs) + tuple(sl.outputs):
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
        if sl.word is not None and tuple(sl.word) != word:
            bail(f"identity slice expects word {sl.word}, found {word}")
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
        ins = tuple(sl.inputs)
        if word[i : i + len(ins)] != ins:
            bail(
                f"coupon inputs {ins} do not match word segment "
                f"{word[i:i + len(ins)]}"
            )
        return word[:i] + tuple(sl.outputs) + word[i + len(ins) :]

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
# geometric bookkeeping
# ----------------------------------------------------------------------


def writhe_and_linking(
    diagram: SlicedDiagram,
) -> tuple[dict[str, int], dict[frozenset, int]]:
    """Per-component writhes and pairwise linking numbers of the diagram.

    Returns ``(writhe, linking)`` where ``linking`` maps frozenset pairs of
    component names to their linking number (half the signed count of mixed
    crossings).
    """
    words = typecheck(diagram)
    writhe: dict[str, int] = {name: 0 for name in diagram.component_names()}
    mixed: dict[frozenset, int] = {}
    for word, sl in zip(words, diagram.slices):
        if not isinstance(sl, Braid):
            continue
        s1, s2 = word[sl.position], word[sl.position + 1]
        crossing = sl.sign * s1.orientation * s2.orientation
        if s1.component == s2.component:
            writhe[s1.component] += crossing
        else:
            key = frozenset((s1.component, s2.component))
            mixed[key] = mixed.get(key, 0) + crossing
    linking: dict[frozenset, int] = {}
    for key, total in mixed.items():
        if total % 2 != 0:
            raise DiagramTypeError(
                f"odd mixed-crossing sum {total} between {sorted(key)}; "
                "the diagram does not close these components"
            )
        linking[key] = total // 2
    return writhe, linking


class _UnionFind:
    def __init__(self):
        self.parent: list[int] = []

    def make(self) -> int:
        self.parent.append(len(self.parent))
        return self.parent[-1]

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        self.parent[self.find(a)] = self.find(b)


def cut_is_enclosed(diagram: SlicedDiagram, cut_slice: int) -> bool:
    """True if other strands fence in the cut point at ``cut_slice``.

    Cutting a cup (cap) open drags its two strand ends straight down
    (straight up) to the boundary.  That is a planar move only when no
    connected piece of the diagram below (above) the slice reaches both
    sides of the drop line; crossings count as contact, since the dragged
    strands cannot pass a crossing without acquiring new ones.  Enclosed
    cuts are rejected rather than evaluated with missing crossings.
    """
    sl = diagram.slices[cut_slice]
    uf = _UnionFind()
    if isinstance(sl, Cup):
        ids = [uf.make() for _ in diagram.source]
        lower = diagram.slices[:cut_slice]
        creator, consumer = Cup, Cap
    elif isinstance(sl, Cap):
        ids = [uf.make() for _ in typecheck(diagram)[-1]]
        lower = tuple(reversed(diagram.slices[cut_slice + 1 :]))
        creator, consumer = Cap, Cup
    else:
        raise DomainError(f"cut slice {cut_slice} is not a cup or cap")
    for s in lower:
        if isinstance(s, Braid):
            p = s.position
            uf.union(ids[p], ids[p + 1])
            ids[p], ids[p + 1] = ids[p + 1], ids[p]
        elif isinstance(s, creator):
            fresh = uf.make()
            ids[s.position : s.position] = [fresh, fresh]
        elif isinstance(s, consumer):
            a = ids.pop(s.position)
            b = ids.pop(s.position)
            uf.union(a, b)
        elif isinstance(s, Coupon):
            fresh = uf.make()
            eaten = s.inputs if creator is Cup else s.outputs
            made = s.outputs if creator is Cup else s.inputs
            for _ in eaten:
                uf.union(fresh, ids.pop(s.position))
            ids[s.position : s.position] = [fresh] * len(made)
    gap = sl.position
    left = {uf.find(x) for x in ids[:gap]}
    right = {uf.find(x) for x in ids[gap:]}
    return bool(left & right)


# ----------------------------------------------------------------------
# evaluation
# ----------------------------------------------------------------------


def _resolve_colors(
    ctx: RootParams, diagram: SlicedDiagram, colors: dict
) -> dict[str, WeightModule]:
    resolved = {}
    for name in diagram.component_names():
        if name not in colors:
            raise DomainError(f"no color given for component {name!r}")
        value = colors[name]
        resolved[name] = (
            value if isinstance(value, WeightModule) else make_valpha(ctx, value)
        )
    return resolved


class _Engine:
    """Single evaluation pass; tracks the running tensor and parked axes.

    Braiding arrays are built once per (strand, strand, sign) and reused by
    every crossing of this pass; nothing outlives the engine.
    """

    def __init__(self, ctx, diagram, colors, cut_slice=None):
        self.ctx = ctx
        self.diagram = diagram
        self.colors = colors
        self.cut_slice = cut_slice
        self.cut_info = None  # (kind, variant, module) once parked
        self.words = typecheck(diagram)
        self._duals: dict[str, WeightModule] = {}
        self._braidings: dict[tuple, np.ndarray] = {}

    def module_of(self, strand: Strand) -> WeightModule:
        base = self.colors[strand.component]
        if strand.up:
            return base
        if strand.component not in self._duals:
            self._duals[strand.component] = dual(base)
        return self._duals[strand.component]

    def run(self) -> np.ndarray:
        word = self.words[0]
        dims = [self.module_of(s).dim for s in word]
        # identity wires: current axes then one parked input axis per source strand
        t = np.eye(int(np.prod(dims, dtype=int)), dtype=complex).reshape(
            dims + dims
        ) if word else np.ones((), dtype=complex)
        for index, sl in enumerate(self.diagram.slices):
            word_below = self.words[index]
            if isinstance(sl, Id):
                continue
            if isinstance(sl, Braid):
                t = self._braid(t, sl, word_below)
            elif isinstance(sl, Cup):
                t = self._cup(t, sl, cut=(index == self.cut_slice))
            elif isinstance(sl, Cap):
                t = self._cap(t, sl, word_below, cut=(index == self.cut_slice))
            elif isinstance(sl, Coupon):
                t = self._coupon(t, sl)
            else:  # pragma: no cover - typecheck already rejects
                raise DiagramTypeError(f"unknown slice {sl!r}")
        return t

    def _braid(self, t, sl, word):
        i = sl.position
        key = (word[i], word[i + 1], sl.sign)
        c4 = self._braidings.get(key)
        if c4 is None:
            m1, m2 = self.module_of(word[i]), self.module_of(word[i + 1])
            c4 = braiding_matrix(m1, m2, sl.sign).reshape(
                m2.dim, m1.dim, m1.dim, m2.dim
            )
            self._braidings[key] = c4
        t = np.tensordot(t, c4, axes=([i, i + 1], [2, 3]))
        return np.moveaxis(t, (-2, -1), (i, i + 1))

    def _cup(self, t, sl, cut=False):
        module = self.colors[sl.component]
        d = module.dim
        if sl.variant == "coev":
            block = np.eye(d, dtype=complex)
        else:  # coevprime
            block = np.diag(1.0 / module.pivot_diag)
        i = sl.position
        if cut:
            self.cut_info = ("cup", sl.variant, module)
            # two identity wires: current axes at i, i+1 and two parked inputs
            t = np.multiply.outer(t, np.eye(d, dtype=complex))  # axes (x1, p1)
            t = np.multiply.outer(t, np.eye(d, dtype=complex))  # axes (x2, p2)
            # current order: (..., x1, p1, x2, p2) -> park p1, p2 at the end
            t = np.moveaxis(t, (-4, -2), (i, i + 1))
            return t
        t = np.multiply.outer(t, block)
        return np.moveaxis(t, (-2, -1), (i, i + 1))

    def _cap(self, t, sl, word, cut=False):
        i = sl.position
        s1 = word[i]
        module = self.colors[s1.component]
        if cut:
            self.cut_info = ("cap", sl.variant, module)
            return np.moveaxis(t, (i, i + 1), (-2, -1))
        d = module.dim
        if sl.variant == "ev":
            block = np.eye(d, dtype=complex)
        else:  # evprime
            block = np.diag(module.pivot_diag)
        return np.tensordot(t, block, axes=([i, i + 1], [0, 1]))

    def _coupon(self, t, sl):
        i = sl.position
        in_dims = [self.module_of(s).dim for s in sl.inputs]
        out_dims = [self.module_of(s).dim for s in sl.outputs]
        matrix = np.asarray(sl.matrix, dtype=complex)
        expected = (int(np.prod(out_dims, dtype=int)), int(np.prod(in_dims, dtype=int)))
        if matrix.shape != expected:
            raise DiagramTypeError(
                f"coupon matrix shape {matrix.shape} != expected {expected}"
            )
        block = matrix.reshape(out_dims + in_dims)
        in_axes = list(range(i, i + len(in_dims)))
        t = np.tensordot(t, block, axes=(in_axes, list(range(len(out_dims), len(out_dims) + len(in_dims)))))
        n_out = len(out_dims)
        if n_out:
            t = np.moveaxis(t, list(range(-n_out, 0)), list(range(i, i + n_out)))
        return t


def evaluate(
    diagram: SlicedDiagram, colors: dict, ctx: RootParams
) -> MorphismMatrix:
    """Evaluate a diagram to the matrix of the induced morphism.

    ``colors`` maps component names to weight modules (or complex α, which
    is shorthand for V_α).  The result's source/target are the tensor
    products of the boundary words (the monoidal unit for empty words).
    """
    resolved = _resolve_colors(ctx, diagram, colors)
    engine = _Engine(ctx, diagram, resolved)
    t = engine.run()

    def word_module(word):
        module = None
        for strand in word:
            m = engine.module_of(strand)
            module = m if module is None else tensor(module, m)
        return module if module is not None else trivial_module(ctx)

    source = word_module(engine.words[0])
    target = word_module(engine.words[-1])
    matrix = np.asarray(t, dtype=complex).reshape(target.dim, source.dim)
    return MorphismMatrix(source, target, matrix)


def evaluate_cut(
    diagram: SlicedDiagram, colors: dict, ctx: RootParams, cut_slice: int
) -> tuple[np.ndarray, WeightModule]:
    """Evaluate a closed diagram cut open at a cup/cap slice of one component.

    Returns ``(m, module)`` where ``m`` is the matrix of the resulting 1-1
    tangle as an endomorphism of the cut component's color ``module``.  The
    parked pair of strand axes is converted to an endomorphism using the
    duality conventions of the cut slice (this is the inverse of closing an
    endomorphism with the corresponding cup/cap pair).
    """
    words = typecheck(diagram)
    if words[0] or words[-1]:
        raise DomainError("cut evaluation requires a closed diagram")
    sl = diagram.slices[cut_slice]
    if not isinstance(sl, (Cup, Cap)):
        raise DomainError(f"cut slice {cut_slice} is not a cup or cap")
    if cut_is_enclosed(diagram, cut_slice):
        raise DiagramTypeError(
            f"cut slice {cut_slice} is enclosed by other strands; re-slice "
            "the diagram so the cut component has an outermost cup or cap"
        )
    resolved = _resolve_colors(ctx, diagram, colors)
    engine = _Engine(ctx, diagram, resolved, cut_slice=cut_slice)
    t = engine.run()
    kind, variant, module = engine.cut_info
    w = np.asarray(t, dtype=complex)
    if w.shape != (module.dim, module.dim):
        raise DomainError(f"cut evaluation left unexpected shape {w.shape}")
    g = module.pivot_diag
    if kind == "cap" and variant == "evprime":
        m = w
    elif kind == "cap" and variant == "ev":
        m = w.T * g[None, :]
    elif kind == "cup" and variant == "coev":
        m = (1.0 / g)[:, None] * w.T
    else:  # cup / coevprime
        m = w
    return m, module


# ----------------------------------------------------------------------
# diagram families
# ----------------------------------------------------------------------


def unknot_diagram(component: str = "K", style: str = "coev") -> SlicedDiagram:
    """A 0-crossing unknot; ``style`` picks which duality pair realizes it."""
    if style == "coev":
        return SlicedDiagram((Cup(0, component, "coev"), Cap(0, "evprime")))
    if style == "coevprime":
        return SlicedDiagram((Cup(0, component, "coevprime"), Cap(0, "ev")))
    raise DomainError(f"unknown unknot style {style!r}")


def curl_diagram(component: str = "K", sign: int = 1) -> SlicedDiagram:
    """An unknot with a single kink of the given sign (writhe = sign)."""
    return SlicedDiagram(
        (
            Cup(0, component, "coev"),
            Cup(1, component, "coev"),
            Braid(0, sign),
            Cap(1, "evprime"),
            Cap(0, "evprime"),
        )
    )


def clasp_diagram(lk: int, comp_a: str = "A", comp_b: str = "B") -> SlicedDiagram:
    """Two 0-writhe circles with linking number ``lk`` (clasp/torus pattern).

    ``lk = 0`` gives a split unlink; ``lk = ±1`` the Hopf link.
    """
    slices: list = [Cup(0, comp_b, "coev"), Cup(1, comp_a, "coev")]
    sign = 1 if lk >= 0 else -1
    slices += [Braid(0, sign)] * (2 * abs(lk))
    slices += [Cap(1, "evprime"), Cap(0, "evprime")]
    return SlicedDiagram(tuple(slices))


def braid_closure(
    word: list[tuple[int, int]], n_strands: int, component: str = "K"
) -> SlicedDiagram:
    """Trace closure of a braid word on ``n_strands`` strands.

    ``word`` lists (position, sign) pairs with 0 ≤ position ≤ n−2.  All
    strands belong to one named component, so the closure must be a knot for
    the bookkeeping to be meaningful.
    """
    slices: list = [Cup(j, component, "coev") for j in range(n_strands)]
    slices += [Braid(i, s) for i, s in word]
    slices += [Cap(j, "evprime") for j in reversed(range(n_strands))]
    return SlicedDiagram(tuple(slices))
