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
A leading term axis carries a batch of colorings of the same diagram through
one walk over the slices (:class:`CutTangle`); the single-coloring calls
:func:`evaluate` and :func:`evaluate_cut` are batches of one.
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

import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .errors import DiagramTypeError, DomainError
from .qscalar import RootParams
from .repcat import (
    ModuleStack,
    MorphismMatrix,
    WeightModule,
    braiding_stack,
    tensor,
    trivial_module,
    valpha_stack,
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
    "CutTangle",
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
    diagram: SlicedDiagram, words: Optional[list] = None
) -> tuple[dict[str, int], dict[frozenset, int]]:
    """Per-component writhes and pairwise linking numbers of the diagram.

    Returns ``(writhe, linking)`` where ``linking`` maps frozenset pairs of
    component names to their linking number (half the signed count of mixed
    crossings).  ``words`` are the diagram's :func:`typecheck` words when
    the caller already has them.
    """
    words = typecheck(diagram) if words is None else words
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


def cut_is_enclosed(
    diagram: SlicedDiagram, cut_slice: int, words: Optional[list] = None
) -> bool:
    """True if other strands fence in the cut point at ``cut_slice``.

    Cutting a cup (cap) open drags its two strand ends straight down
    (straight up) to the boundary.  That is a planar move only when no
    connected piece of the diagram below (above) the slice reaches both
    sides of the drop line; crossings count as contact, since the dragged
    strands cannot pass a crossing without acquiring new ones.  Enclosed
    cuts are rejected rather than evaluated with missing crossings.
    ``words`` are the diagram's :func:`typecheck` words, if already known.
    """
    sl = diagram.slices[cut_slice]
    uf = _UnionFind()
    if isinstance(sl, Cup):
        ids = [uf.make() for _ in diagram.source]
        lower = diagram.slices[:cut_slice]
        creator, consumer = Cup, Cap
    elif isinstance(sl, Cap):
        top = (typecheck(diagram) if words is None else words)[-1]
        ids = [uf.make() for _ in top]
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


def _stack_colors(
    ctx: RootParams, diagram: SlicedDiagram, colors: dict
) -> dict[str, ModuleStack]:
    """Each component's color as a module stack.

    A color is a weight module, a complex α (shorthand for V_α), a sequence
    of weight modules, one per term, or a :class:`ModuleStack`.  Stacks of
    more than one term must all have the same number of terms.
    """
    stacks = {}
    for name in diagram.component_names():
        if name not in colors:
            raise DomainError(f"no color given for component {name!r}")
        value = colors[name]
        if isinstance(value, ModuleStack):
            stacks[name] = value
        elif isinstance(value, (list, tuple)):
            stacks[name] = ModuleStack.of(value)
        elif isinstance(value, WeightModule):
            stacks[name] = ModuleStack.of((value,))
        else:
            stacks[name] = valpha_stack(ctx, (value,))
    if len({st.terms for st in stacks.values()} - {1}) > 1:
        raise DomainError("component colors give different numbers of terms")
    return stacks


class _Engine:
    """One walk over the slices for a batch of colorings of one diagram.

    The running tensor has a leading term axis, then one axis per strand of
    the current word, then the parked axes.  A slice whose block does not
    depend on the term (a one-term stack) broadcasts over that axis, so the
    axis has length 1 until the first block that does.  Each :meth:`run` is
    one pass: it builds a braiding stack once per (strand, strand, sign) and
    reuses it for every crossing of that pass.
    """

    def __init__(self, diagram, words, cut_slice=None):
        self.diagram = diagram
        self.words = words
        self.cut_slice = cut_slice

    def run(self, stacks: dict[str, ModuleStack]) -> np.ndarray:
        self.stacks = stacks
        self._braidings: dict[tuple, np.ndarray] = {}
        word = self.words[0]
        dims = [self.stack_of(s).dim for s in word]
        # identity wires: current axes then one parked input axis per source strand
        t = np.eye(math.prod(dims), dtype=complex).reshape([1] + dims + dims)
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
        terms = max((st.terms for st in stacks.values()), default=1)
        if t.shape[0] != terms:  # no block depended on the term
            t = np.broadcast_to(t, (terms,) + t.shape[1:])
        return t

    def stack_of(self, strand: Strand) -> ModuleStack:
        base = self.stacks[strand.component]
        return base if strand.up else base.dual

    @staticmethod
    def _apply(t, i, n_in, block, out_dims):
        """Replace the ``n_in`` strand axes from ``i`` by ``block``'s outputs.

        ``block`` has shape (terms, prod(out_dims), prod of the input dims).
        """
        shape = t.shape
        x = t.reshape(shape[0], math.prod(shape[1 : i + 1]), block.shape[-1], -1)
        y = np.matmul(block[:, None], x)
        return y.reshape((y.shape[0],) + shape[1 : i + 1] + out_dims + shape[i + 1 + n_in :])

    def _braid(self, t, sl, word):
        i = sl.position
        key = (word[i], word[i + 1], sl.sign)
        c = self._braidings.get(key)
        if c is None:
            c = braiding_stack(self.stack_of(word[i]), self.stack_of(word[i + 1]), sl.sign)
            self._braidings[key] = c
        return self._apply(t, i, 2, c, (t.shape[i + 2], t.shape[i + 1]))

    def _cup(self, t, sl, cut=False):
        stack = self.stacks[sl.component]
        d = stack.dim
        i = sl.position
        shape = t.shape
        head, tail = shape[1 : i + 1], shape[i + 1 :]
        x = t.reshape(shape[0], math.prod(head), 1, 1, math.prod(tail))
        if cut:
            # two identity wires: current axes at i, i+1 and parked ones at the end
            eye = np.eye(d, dtype=complex)
            wires = eye[:, None, None, :, None] * eye[None, :, None, None, :]
            t = x[..., None, None] * wires  # (x1, x2, tail, p1, p2)
            return t.reshape((shape[0],) + head + (d, d) + tail + (d, d))
        if sl.variant == "coev":
            block = np.eye(d, dtype=complex)[None]
        else:  # coevprime
            block = np.eye(d) * (1.0 / stack.pivot)[:, None, :]
        t = x * block[:, None, :, :, None]
        return t.reshape((t.shape[0],) + head + (d, d) + tail)

    def _cap(self, t, sl, word, cut=False):
        i = sl.position
        if cut:
            return np.moveaxis(t, (i + 1, i + 2), (-2, -1))
        stack = self.stacks[word[i].component]
        d = stack.dim
        if sl.variant == "ev":
            block = np.eye(d, dtype=complex)[None]
        else:  # evprime
            block = np.eye(d) * stack.pivot[:, None, :]
        return self._apply(t, i, 2, block.reshape(-1, 1, d * d), ())

    def _coupon(self, t, sl):
        i = sl.position
        in_dims = tuple(self.stack_of(s).dim for s in sl.inputs)
        out_dims = tuple(self.stack_of(s).dim for s in sl.outputs)
        matrix = np.asarray(sl.matrix, dtype=complex)
        expected = (math.prod(out_dims), math.prod(in_dims))
        if matrix.shape != expected:
            raise DiagramTypeError(
                f"coupon matrix shape {matrix.shape} != expected {expected}"
            )
        return self._apply(t, i, len(in_dims), matrix[None], out_dims)


def evaluate(
    diagram: SlicedDiagram, colors: dict, ctx: RootParams
) -> MorphismMatrix:
    """Evaluate a diagram to the matrix of the induced morphism.

    ``colors`` maps component names to weight modules (or complex α, which
    is shorthand for V_α).  The result's source/target are the tensor
    products of the boundary words (the monoidal unit for empty words).
    """
    words = typecheck(diagram)
    stacks = _stack_colors(ctx, diagram, colors)
    engine = _Engine(diagram, words)
    t = engine.run(stacks)[0]

    def word_module(word):
        module = None
        for strand in word:
            m = engine.stack_of(strand).modules[0]
            module = m if module is None else tensor(module, m)
        return module if module is not None else trivial_module(ctx)

    source = word_module(words[0])
    target = word_module(words[-1])
    matrix = t.reshape(target.dim, source.dim)
    return MorphismMatrix(source, target, matrix)


class CutTangle:
    """A closed diagram cut open at a cup/cap slice of one component.

    The diagram is typechecked and the cut checked for enclosure once, at
    construction (``words`` skips the typecheck when the caller already has
    the diagram's words); :meth:`matrices` then evaluates the resulting 1-1
    tangle for any batch of colorings in one engine pass.
    """

    def __init__(
        self, diagram: SlicedDiagram, cut_slice: int, words: Optional[list] = None
    ):
        words = typecheck(diagram) if words is None else words
        if words[0] or words[-1]:
            raise DomainError("cut evaluation requires a closed diagram")
        sl = diagram.slices[cut_slice]
        if not isinstance(sl, (Cup, Cap)):
            raise DomainError(f"cut slice {cut_slice} is not a cup or cap")
        if cut_is_enclosed(diagram, cut_slice, words):
            raise DiagramTypeError(
                f"cut slice {cut_slice} is enclosed by other strands; re-slice "
                "the diagram so the cut component has an outermost cup or cap"
            )
        self.diagram = diagram
        self.slice = sl
        self.component = (
            sl.component if isinstance(sl, Cup) else words[cut_slice][sl.position].component
        )
        self._engine = _Engine(diagram, words, cut_slice=cut_slice)

    def matrices(self, colors: dict, ctx: RootParams) -> np.ndarray:
        """The tangle's endomorphism of the cut component's color, per term.

        ``colors`` is as for :func:`evaluate`, except that a component may
        carry several terms (a sequence of weight modules or a
        :class:`ModuleStack`); the result has shape (terms, d, d).  The
        parked pair of strand axes is converted to an endomorphism using the
        duality conventions of the cut slice (the inverse of closing an
        endomorphism with the corresponding cup/cap pair).
        """
        return self._matrices(_stack_colors(ctx, self.diagram, colors))

    def _matrices(self, stacks: dict[str, ModuleStack]) -> np.ndarray:
        w = self._engine.run(stacks)
        stack = stacks[self.component]
        if w.shape[1:] != (stack.dim, stack.dim):
            raise DomainError(f"cut evaluation left unexpected shape {w.shape[1:]}")
        variant = self.slice.variant
        if variant == "ev":  # cap
            return w.swapaxes(1, 2) * stack.pivot[:, None, :]
        if variant == "coev":  # cup
            return (1.0 / stack.pivot)[:, :, None] * w.swapaxes(1, 2)
        return w  # cap / evprime, cup / coevprime


def evaluate_cut(
    diagram: SlicedDiagram, colors: dict, ctx: RootParams, cut_slice: int
) -> tuple[np.ndarray, WeightModule]:
    """Evaluate a closed diagram cut open at a cup/cap slice of one component.

    Returns ``(m, module)`` where ``m`` is the matrix of the resulting 1-1
    tangle as an endomorphism of the cut component's color ``module``: the
    one-term call of :meth:`CutTangle.matrices`.
    """
    cut = CutTangle(diagram, cut_slice)
    stacks = _stack_colors(ctx, diagram, colors)
    return cut._matrices(stacks)[0], stacks[cut.component].modules[0]


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
