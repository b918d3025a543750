"""Sliced tangle diagrams and their evaluation to matrices.

A diagram is a vertical stack of elementary *slices* read bottom to top, each
acting on a horizontal *word* of strands.  A strand is a pair (component
name, orientation): ``up`` strands evaluate to the component's color module
V, ``down`` strands to its dual V*.  The five slice kinds are

* :class:`Id` — no-op,
* :class:`Braid` — a crossing of two adjacent strands (sign ±1, where +1 is
  the crossing whose value is the braiding c),
* :class:`Cup` — a local minimum creating two strands of one component, in
  one of the two duality variants (``coev``: up/down, ``coevprime``:
  down/up),
* :class:`Cap` — a local maximum closing two adjacent strands (``ev``:
  down/up, ``evprime``: up/down),
* :class:`Coupon` — an arbitrary morphism box with declared input/output
  strand words.

Evaluation contracts the diagram as a tensor network: each crossing and
coupon is one tensor, and cups and caps only join legs (their pivot weights
ride on the joined leg).  A greedy planner (:mod:`.planner`) orders the
contraction from the strand dimensions alone, and a memory preflight
refuses a plan whose peak exceeds physical memory before any block is
built.  A leading term axis carries a batch of colorings of the same
diagram through one contraction.  *Cutting* a closed diagram at a cup or
cap of one component (:meth:`CompiledDiagram.cut`, :func:`evaluate_cut`)
leaves that slice's two strands as open legs, which turns it into the
matrix of a 1-1 tangle on the cut component (used by the renormalized
link invariant).

Everything the colors cannot change (the words, the bookkeeping, the cut
checks, the network, its plans and each crossing's scatter positions) is
compiled once per diagram structure and kept in one process-wide cache
(:func:`compile_diagram`); each call still computes every value, runs the
memory preflight, and contracts with the same operations in the same
order.

Geometric bookkeeping (writhes and linking numbers) is extracted from the
same slice walk: a crossing between strands with orientations o₁, o₂ and
braid sign ε contributes ε·o₁·o₂ to the writhe of its component (self
crossing) or to twice the linking number (mixed crossing).  Diagrams are
blackboard framed; explicit framing integers are applied downstream through
twist scalars.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Optional, Union

import numpy as np

from .errors import DiagramTypeError, DomainError
from .planner import UnionFind, greedy_order, require_memory
from .qscalar import RootParams
from .repcat import ModuleStack, braiding_entries, valpha_stack

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
    "CompiledDiagram",
    "compile_diagram",
    "cut_is_enclosed",
    "writhe_and_linking",
    "unknot_diagram",
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
    """Identity slice."""


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
    colors are bound; it is supplied directly as an ndarray.  A coupon
    holding a matrix is not hashable; :func:`compile_diagram` keys it by
    its position and strands.
    """

    position: int
    inputs: tuple
    outputs: tuple
    matrix: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "outputs", tuple(self.outputs))


SliceType = Union[Id, Braid, Cup, Cap, Coupon]


@dataclass(frozen=True)
class SlicedDiagram:
    """A typed word of slices with a fixed source boundary word."""

    slices: tuple
    source: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "slices", tuple(self.slices))
        object.__setattr__(self, "source", tuple(self.source))

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
            bail(
                f"coupon inputs {ins} do not match word segment "
                f"{word[i:i + len(ins)]}"
            )
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
    uf = UnionFind()
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


def _stack_colors(ctx: RootParams, names, colors: dict) -> dict[str, ModuleStack]:
    """The color of each component in ``names``, as a module stack.

    A color is a :class:`ModuleStack` (a one-term stack is a module) or a
    complex α (shorthand for V_α).
    """
    stacks = {}
    for name in names:
        if name not in colors:
            raise DomainError(f"no color given for component {name!r}")
        value = colors[name]
        if isinstance(value, ModuleStack):
            stacks[name] = value
        else:
            stacks[name] = valpha_stack(ctx, (value,))
    return stacks


class CompiledDiagram:
    """Everything about evaluating a diagram that its colors cannot change.

    Built once per diagram structure by :func:`compile_diagram`, at once:
    the :func:`typecheck` words and the component names.  On first use: the
    writhes and linking numbers, the enclosure check of each cup or cap,
    and the tensor network (:class:`_Network`) of the whole diagram or of
    one cut, each kept per slice index, so at most one per slice.  A coupon
    counts by its position and strands only; its matrix is read from the
    diagram each evaluation is given.  Every value here is shared by all
    callers and must not be modified.
    """

    def __init__(self, skeleton: SlicedDiagram):
        self.words = tuple(typecheck(skeleton))
        self.names = tuple(skeleton.component_names())
        self._diagram = skeleton
        self._enclosed: dict[int, bool] = {}
        self._networks: dict[Optional[int], _Network] = {}

    @functools.cached_property
    def writhe_and_linking(self) -> tuple[dict[str, int], dict[frozenset, int]]:
        """:func:`writhe_and_linking` of the diagram."""
        return writhe_and_linking(self._diagram, self.words)

    def enclosed(self, cut_slice: int) -> bool:
        """:func:`cut_is_enclosed` at ``cut_slice``."""
        if cut_slice not in self._enclosed:
            self._enclosed[cut_slice] = cut_is_enclosed(self._diagram, cut_slice, self.words)
        return self._enclosed[cut_slice]

    def network(self, cut_slice: Optional[int] = None) -> "_Network":
        """The network of the diagram, or of it cut open at ``cut_slice``."""
        if cut_slice not in self._networks:
            self._networks[cut_slice] = _Network(self._diagram, self.words, cut_slice)
        return self._networks[cut_slice]

    def _owner(self, index: int) -> Optional[str]:
        """The component of the cup or cap at slice ``index``, else None."""
        sl = self._diagram.slices[index]
        if isinstance(sl, Cup):
            return sl.component
        if isinstance(sl, Cap):
            return self.words[index][sl.position].component
        return None

    def open_cut(self, component: str) -> Optional[int]:
        """The component's last cup or cap that is not enclosed, or None."""
        for index in reversed(range(len(self._diagram.slices))):
            if self._owner(index) == component and not self.enclosed(index):
                return index
        return None

    def cut(self, cut_slice: int) -> tuple[str, "_Network"]:
        """The cut component and the network of the diagram cut open at
        ``cut_slice``: a cup or cap of the closed diagram that other strands
        do not enclose (:func:`cut_is_enclosed`)."""
        if self.words[0] or self.words[-1]:
            raise DomainError("cut evaluation requires a closed diagram")
        component = self._owner(cut_slice)
        if component is None:
            raise DomainError(f"cut slice {cut_slice} is not a cup or cap")
        if self.enclosed(cut_slice):
            raise DiagramTypeError(
                f"cut slice {cut_slice} is enclosed by other strands; re-slice "
                "the diagram so the cut component has an outermost cup or cap"
            )
        return component, self.network(cut_slice)


@functools.lru_cache
def _compiled(skeleton: SlicedDiagram) -> CompiledDiagram:
    return CompiledDiagram(skeleton)


def compile_diagram(diagram: SlicedDiagram) -> CompiledDiagram:
    """The diagram's :class:`CompiledDiagram`, from a process-wide cache.

    The cache is keyed by the diagram's structure: the diagram itself, or,
    when it holds coupons, a copy whose coupons carry no matrix.  It keeps
    the 128 structures used last (``functools.lru_cache``); a diagram that
    does not typecheck raises :class:`DiagramTypeError` on every call.
    """
    if Coupon in map(type, diagram.slices):
        diagram = SlicedDiagram(
            tuple(replace(sl, matrix=None) if isinstance(sl, Coupon) else sl
                  for sl in diagram.slices),
            diagram.source,
        )
    return _compiled(diagram)


class _Network:
    """A diagram as a tensor network over integer leg ids.

    Each crossing and coupon is one tensor, one leg per strand end (outputs
    first); cups and caps only join legs.  A tensor is ("braid", its key
    in ``braids``), ("coupon", its slice index) or, for a leg with both
    ends open, ("wire", None).  A leg carries pivot**(#ev′ − #coev′) over
    the cups and caps it passes, folded into the last tensor holding it.  A
    leg no tensor holds is a loop (its weighted trace).  ``open`` is the
    target word then the source word, or the cut slice's strands as row
    and column of the endomorphism that closing with that cup or cap
    inverts.  A network depends on the diagram's structure and cut only,
    and keeps its plans (:class:`_Plan`) per strand dimensions.
    """

    def __init__(self, diagram: SlicedDiagram, words, cut_slice=None):
        uf, owner, power, braids = UnionFind(), [], [], {}

        def fresh(component, k=0):
            owner.append(component)
            power.append(k)
            return uf.make()

        word = [fresh(s.component) for s in words[0]]
        source, ends, raw = list(word), [], []
        for index, sl in enumerate(diagram.slices):
            i = getattr(sl, "position", 0)
            if isinstance(sl, Braid):
                a, b = words[index][i : i + 2]
                new = [fresh(b.component), fresh(a.component)]
                key = braids.setdefault((a, b, sl.sign), len(braids))
                raw.append((("braid", key), new + word[i : i + 2]))
                word[i : i + 2] = new
            elif isinstance(sl, Coupon):
                new = [fresh(s.component) for s in sl.outputs]
                raw.append((("coupon", index), new + word[i : i + len(sl.inputs)]))
                word[i : i + len(sl.inputs)] = new
            elif isinstance(sl, Cup) and index == cut_slice:
                pair = [fresh(sl.component), fresh(sl.component, -(sl.variant == "coev"))]
                word[i:i] = pair
                ends = pair if sl.variant == "coevprime" else pair[::-1]
            elif isinstance(sl, Cup):
                word[i:i] = [fresh(sl.component, -(sl.variant == "coevprime"))] * 2
            elif isinstance(sl, Cap):
                a, b = word[i : i + 2]
                del word[i : i + 2]
                if index == cut_slice:
                    power[a] += sl.variant == "ev"
                    ends = [a, b] if sl.variant == "evprime" else [b, a]
                else:
                    power[a] += sl.variant == "evprime"
                    uf.union(a, b)
        root = [uf.find(x) for x in range(len(owner))]
        ids: dict[int, int] = {}  # union-find root -> leg id
        self.braids = list(braids)
        self.tensors = [tensor for tensor, _ in raw]
        self.outputs = [len(diagram.slices[arg].outputs) if kind == "coupon" else 0
                        for kind, arg in self.tensors]
        self.legs = [[ids.setdefault(root[x], len(ids)) for x in held] for _, held in raw]
        self.open = [ids.setdefault(root[x], len(ids)) for x in ends or word + source]
        self.component = [owner[x] for x in ids]
        self.power, loops = [0] * len(ids), {}
        for x, k in enumerate(power):
            if root[x] in ids:
                self.power[ids[root[x]]] += k
            else:
                loops[root[x]] = loops.get(root[x], 0) + k
        self.loops = [(owner[x], k) for x, k in loops.items()]
        for pos, leg in enumerate(self.open):
            if leg in self.open[:pos]:  # both ends open: a wire
                self.open[pos] = len(self.component)
                self.tensors.append(("wire", None))
                self.outputs.append(0)
                self.legs.append([leg, len(self.component)])
                self.component.append(self.component[leg])
                self.power.append(0)
        last = {leg: t for t, held in enumerate(self.legs) for leg in held}
        self.weights = [[] for _ in self.legs]  # the weighted legs each tensor holds last
        for leg in filter(self.power.__getitem__, range(len(self.power))):
            self.weights[last[leg]].append(leg)
        self.free = [held if len(set(held)) == len(held) else
                     [leg for leg in held if held.count(leg) == 1] for held in self.legs]
        self.names = tuple(dict.fromkeys(self.component))  # the components on legs
        self._plans: dict[tuple, _Plan] = {}

    def plan(self, dims: dict[str, int]) -> "_Plan":
        """The contraction plan at the color dimensions ``dims``, made once
        per dimensions (which the root order and the color kinds fix)."""
        key = tuple(dims[name] for name in self.names)
        if key not in self._plans:
            self._plans[key] = _Plan(self, key)
        return self._plans[key]

    def contract(self, stacks: dict[str, ModuleStack], diagram: SlicedDiagram) -> np.ndarray:
        """The value per term: a leading term axis, then ``open``.

        Stacks of more than one term must all have the same number of
        terms; a one-term stack serves every term.  The plan's bytes
        (peak × terms, plus the braiding blocks) must fit in physical
        memory before any block is built.  Then every tensor is built as
        its plan says (:class:`_Crossing`, :class:`_Block`), ``diagram``
        giving the coupon matrices, and each merge is one batched matmul.
        """
        terms = {st.terms for st in stacks.values()} - {1}
        if len(terms) > 1:
            raise DomainError("component colors give different numbers of terms")
        terms = max(terms, default=1)
        plan = self.plan({name: st.dim for name, st in stacks.items()})
        need = 16 * terms * (plan.peak + plan.braid_elements)
        require_memory(need, "the contraction")
        entries = [
            braiding_entries(*(stacks[s.component] if s.up else stacks[s.component].dual
                               for s in (a, b)), sign)
            for a, b, sign in self.braids
        ]
        arrays = [tensor.build(stacks, entries, diagram) for tensor in plan.tensors]
        for i, j, x_axes, y_axes, k, shape in plan.merges:
            x = arrays[i] if x_axes is None else arrays[i].transpose(x_axes)
            y = arrays[j] if y_axes is None else arrays[j].transpose(y_axes)
            z = np.matmul(x.reshape(x.shape[0], -1, k), y.reshape(y.shape[0], k, -1))
            arrays[i] = z.reshape(z.shape[:1] + shape)
        if plan.last is None:
            out = np.ones(1, dtype=complex)
        else:
            out = arrays[plan.last] if plan.final is None else arrays[plan.last].transpose(plan.final)
        for name, k in self.loops:
            trace = (stacks[name].pivot ** k).sum(axis=1)
            out = out * trace.reshape((-1,) + (1,) * (out.ndim - 1))
        if out.shape[0] != terms:  # no block depended on the term
            out = np.broadcast_to(out, (terms,) + out.shape[1:])
        return out


class _Plan:
    """A network's contraction at fixed strand dimensions: all of
    :meth:`_Network.contract` that no color changes.

    ``merges`` are :func:`.planner.greedy_order`'s, then outer products of
    the tensors left sharing no leg, each as (i, j, axes of i, axes of j,
    shared elements, result shape); the axes order i's legs left + shared
    and j's shared + right, None if already so.  A tensor's layout is its
    leg order at its first merge (``open`` for a last tensor that never
    merges), and ``tensors`` say how to build each one in its layout.
    ``last`` is the tensor left at the end and ``final`` its axes (None
    if already in ``open`` order), ``peak`` the most elements per term
    and ``braid_elements`` those of the dense braiding blocks, for the
    memory preflight.
    """

    def __init__(self, net: _Network, dims: tuple):
        dims = dict(zip(net.names, dims))
        leg_dims = [dims[c] for c in net.component]
        order, peak = greedy_order(net.legs, leg_dims)
        rest = sorted(set(range(len(net.legs))) - {j for _, j in order})
        order += [(rest[0], t) for t in rest[1:]]
        self.peak = max(peak, math.prod([leg_dims[leg] for leg in net.open]))
        self.braid_elements = sum(
            (dims[a.component] * dims[b.component]) ** 2 for a, b, _ in net.braids)
        live, layouts, merged, self.merges = list(net.free), list(net.free), set(), []

        def arrange(t, legs):
            if t not in merged:
                layouts[t] = legs
                return None
            axes = [live[t].index(leg) for leg in legs]
            return None if axes == sorted(axes) else [0] + [1 + x for x in axes]

        for i, j in order:
            a, b = live[i], live[j]
            shared = [leg for leg in a if leg in b]
            left = [leg for leg in a if leg not in b]
            right = [leg for leg in b if leg not in a]
            self.merges.append((
                i, j, arrange(i, left + shared), arrange(j, shared + right),
                math.prod([leg_dims[leg] for leg in shared]),
                tuple(leg_dims[leg] for leg in left + right),
            ))
            merged |= {i, j}
            live[i] = left + right
        self.last = rest[0] if rest else None
        self.final = None if self.last is None else arrange(self.last, net.open)
        self.tensors = []
        for (kind, arg), held, free, weights, layout, outputs in zip(
                net.tensors, net.legs, net.free, net.weights, layouts, net.outputs):
            weighted = [(net.component[leg], net.power[leg], held.index(leg)) for leg in weights]
            if kind == "braid" and len(free) == len(held):
                axes = [held.index(leg) for leg in layout]
                self.tensors.append(_Crossing(
                    arg, weighted, _Scatter(axes, [leg_dims[leg] for leg in layout])))
            else:
                subscripts = None
                if weights or len(free) < len(held):
                    subscripts = ([0] + [1 + held.index(leg) for leg in held],
                                  [0] + [1 + held.index(leg) for leg in free])
                self.tensors.append(_Block(
                    kind, arg, outputs, [leg_dims[leg] for leg in held], weighted,
                    subscripts, [0] + [1 + free.index(leg) for leg in layout]))


class _Scatter:
    """Zeros of shape (terms, *shape) but for a braiding's entries (terms,
    entries) at their (k, i, j, l) read in ``axes`` order.  The flat
    positions are kept for the last (k, i, j, l) arrays seen, which
    :func:`.repcat.braiding_entries` hands out unchanged per nonzero
    pattern."""

    def __init__(self, axes, shape):
        self.axes, self.shape = tuple(axes), tuple(shape)
        self._last = (None, None)  # (the (k, i, j, l) arrays, their flat positions)

    def __call__(self, values: np.ndarray, index: tuple) -> np.ndarray:
        seen, flat = self._last
        if seen is not index:
            flat = 0
            for axis, n in zip(self.axes, self.shape):
                flat = flat * n + index[axis]
            self._last = (index, flat)
        block = np.zeros((len(values), math.prod(self.shape)), dtype=complex)
        block[:, flat] = values
        return block.reshape(len(values), *self.shape)


class _Crossing:
    """A crossing without a self-traced leg: its braiding's nonzero entries
    (:func:`.repcat.braiding_entries`) times the pivot powers of its
    weighted legs, scattered straight into its layout."""

    def __init__(self, key: int, weights: list, scatter: _Scatter):
        self.key, self.weights, self.scatter = key, weights, scatter

    def build(self, stacks: dict, entries: list, diagram: SlicedDiagram) -> np.ndarray:
        values, index = entries[self.key]
        if self.weights:  # multiplied as _Block's einsum multiplies
            operands = [values, [0, 1]]
            for name, power, axis in self.weights:
                pivot = stacks[name].pivot ** power
                operands += [pivot[:, index[axis]], [0, 1]]
            values = np.einsum(*operands, [0, 1])
        return self.scatter(values, index)


class _Block:
    """A kink (a crossing with a self-traced leg), coupon or wire: built
    whole, weighted and traced by one einsum (``subscripts``: those of its
    legs and of its free legs, None when there is nothing to do), and
    viewed in its layout."""

    def __init__(self, kind, arg, outputs, shape, weights, subscripts, layout):
        self.kind, self.arg, self.outputs, self.shape = kind, arg, outputs, shape
        self.weights, self.subscripts, self.layout = weights, subscripts, layout
        self.scatter = _Scatter(range(4), shape) if kind == "braid" else None

    def build(self, stacks: dict, entries: list, diagram: SlicedDiagram) -> np.ndarray:
        shape = self.shape
        if self.kind == "braid":
            block = self.scatter(*entries[self.arg])
        elif self.kind == "wire":
            block = np.eye(shape[0], dtype=complex)
        else:
            n = self.outputs
            block = np.asarray(diagram.slices[self.arg].matrix, dtype=complex)
            expected = (math.prod(shape[:n]), math.prod(shape[n:]))
            if block.shape != expected:
                raise DiagramTypeError(f"coupon matrix shape {block.shape} != {expected}")
        block = block.reshape([-1] + shape)
        if self.subscripts is not None:  # fold in weights, trace self-legs
            legs, free = self.subscripts
            operands = [block, legs]
            for name, power, axis in self.weights:
                operands += [stacks[name].pivot ** power, [0, 1 + axis]]
            block = np.einsum(*operands, free)
        return block.transpose(self.layout)


def evaluate(diagram: SlicedDiagram, colors: dict, ctx: RootParams) -> np.ndarray:
    """Evaluate a diagram to the matrix of the induced morphism.

    ``colors`` maps component names to modules (or complex α, which is
    shorthand for V_α).  The matrix has shape (∏ target dims, ∏ source
    dims), the dimensions of the boundary words' strands; an empty word
    has dimension 1, the monoidal unit.  The diagram is contracted as a
    tensor network (:class:`_Network`, from :func:`compile_diagram`) whose
    open legs are the target strands, then the source strands.
    """
    compiled = compile_diagram(diagram)
    stacks = _stack_colors(ctx, compiled.names, colors)

    def dim(word):
        return math.prod(stacks[strand.component].dim for strand in word)

    matrix = compiled.network().contract(stacks, diagram)[0]
    return matrix.reshape(dim(compiled.words[-1]), dim(compiled.words[0]))


def evaluate_cut(
    diagram: SlicedDiagram, colors: dict, ctx: RootParams, cut_slice: int
) -> np.ndarray:
    """Evaluate a closed diagram cut open at a cup/cap slice of one component.

    The cut must be a cup or cap that other strands do not enclose
    (:meth:`CompiledDiagram.cut`).  ``colors`` is as for :func:`evaluate`,
    except that a component may carry several terms (a :class:`ModuleStack`
    built by :func:`.repcat.valpha_stack`, :meth:`.ModuleStack.take` or
    :func:`.repcat.tensor`).  Returns the matrix of the resulting 1-1 tangle
    as an endomorphism of the cut component's color, per term: shape
    (terms, d, d).
    """
    compiled = compile_diagram(diagram)
    _component, network = compiled.cut(cut_slice)
    return network.contract(_stack_colors(ctx, compiled.names, colors), diagram)


# ----------------------------------------------------------------------
# diagram families
# ----------------------------------------------------------------------


def unknot_diagram(component: str = "K") -> SlicedDiagram:
    """A 0-crossing unknot: a coev cup closed by an evprime cap."""
    return SlicedDiagram((Cup(0, component, "coev"), Cap(0, "evprime")))


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
