"""Sliced tangle diagrams and their evaluation to matrices.

A diagram is a vertical stack of elementary *slices* read bottom to top, each
acting on a horizontal *word* of strands.  A strand is a pair (component
name, orientation): ``up`` strands evaluate to the component's color module
V, ``down`` strands to its dual V*.  The five slice kinds, defined with
the strands in :mod:`.model`, are

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
refuses a contraction whose peak, or a sector layout whose index arrays,
exceed physical memory before any block or index is built.  A leading
term axis carries a batch of colorings of the same diagram through one
contraction, by one of two routes (:meth:`_Network.route`):

* dense: every tensor a dense, zero-filled block, each merge one batched
  matmul (:class:`_Plan`);
* weight sectors: every crossing preserves the H-weight, so each merge
  is block-diagonal over the weight (an integer charge) of the legs it
  sums; crossings are placed from their nonzero entries into padded
  sector blocks, and each merge is one gather per operand and one
  batched matmul (:class:`_Sectors`).  Entries outside every sector,
  such as those off the diagonal of a cut, come out exactly 0.

A batch takes the sector route when it has more than one term, every
tensor of the network is a crossing without a self-traced leg, and the
dense plan's peak is at least ``_SECTOR_MIN_PEAK`` elements per term; any
other evaluation, every one-term evaluation among them, is dense.  The
memory preflight counts the route taken.

*Cutting* a closed diagram at a cup or cap of one component
(:meth:`CompiledDiagram.cut`) leaves that slice's two strands as open
legs, which turns it into the matrix of a 1-1 tangle on the cut component
(used by the renormalized link invariant and the surgery invariant).

Everything the colors cannot change (the words, the bookkeeping, the cut
checks, the network, its plans and sector layouts, and each crossing's
scatter positions) is compiled once per diagram structure and kept in one
process-wide cache (:func:`compile_diagram`); each call still computes
every value, runs the memory preflight, and contracts with the same
operations in the same order.

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
from typing import Optional, Union

import numpy as np

from .errors import DiagramTypeError, DomainError
from .model import Braid, Cap, Coupon, Cup, SlicedDiagram, typecheck
from .planner import UnionFind, greedy_order, require_memory
from .qscalar import RootParams
from .repcat import ModuleStack, braiding_entries, valpha_stack

__all__ = [
    "evaluate",
    "CompiledDiagram",
    "compile_diagram",
    "unknot_diagram",
    "clasp_diagram",
    "braid_closure",
]


# ----------------------------------------------------------------------
# evaluation
# ----------------------------------------------------------------------


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
        """Per-component writhes and pairwise linking numbers of the diagram.

        ``(writhe, linking)``, where ``linking`` maps frozenset pairs of
        component names to their linking number (half the signed count of
        mixed crossings).
        """
        writhe: dict[str, int] = {name: 0 for name in self.names}
        mixed: dict[frozenset, int] = {}
        for word, sl in zip(self.words, self._diagram.slices):
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

    def enclosed(self, cut_slice: int) -> bool:
        """True if other strands fence in the cut point at ``cut_slice``.

        Cutting a cup (cap) open drags its two strand ends straight down
        (straight up) to the boundary.  That is a planar move only when no
        connected piece of the diagram below (above) the slice reaches both
        sides of the drop line; crossings count as contact, since the
        dragged strands cannot pass a crossing without acquiring new ones.
        Enclosed cuts are rejected rather than evaluated with missing
        crossings.
        """
        if cut_slice in self._enclosed:
            return self._enclosed[cut_slice]
        slices = self._diagram.slices
        sl = slices[cut_slice]
        uf = UnionFind()
        if isinstance(sl, Cup):
            ids = [uf.make() for _ in self.words[0]]
            lower = slices[:cut_slice]
            creator, consumer = Cup, Cap
        elif isinstance(sl, Cap):
            ids = [uf.make() for _ in self.words[-1]]
            lower = tuple(reversed(slices[cut_slice + 1 :]))
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
        self._enclosed[cut_slice] = bool(left & right)
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

    def cut(self, cut_slice: int) -> "_Network":
        """The network of the diagram cut open at ``cut_slice``: a cup or
        cap of the closed diagram that other strands do not enclose
        (:meth:`enclosed`)."""
        if self.words[0] or self.words[-1]:
            raise DomainError("cut evaluation requires a closed diagram")
        if self.enclosed(cut_slice):  # a DomainError unless a cup or cap
            raise DiagramTypeError(
                f"cut slice {cut_slice} is enclosed by other strands; re-slice "
                "the diagram so the cut component has an outermost cup or cap"
            )
        return self.network(cut_slice)


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
            tuple(Coupon(sl.position, sl.inputs, sl.outputs) if isinstance(sl, Coupon) else sl
                  for sl in diagram.slices),
            diagram.source,
        )
    return _compiled(diagram)


# The least dense peak per term (elements) at which a batch of crossings
# contracts on sector blocks.  Below it the gathers cost more than the zeros
# they skip: on 2 vCPUs with one BLAS thread, cut clasps of linking number
# 1-3 with 2 to 25 terms took up to 13 µs longer on sectors at r = 2 and 3
# (peak 2⁴ and 3⁴; 29 of 30 cases), and at r = 5 and 6 (peak 5⁴ and 6⁴) at
# most 0.1 µs longer, with 25 terms 27-850 µs less.
_SECTOR_MIN_PEAK = 4**4

# Bytes charged per dense element (the plan's peak per term) before a sector
# layout is built: building one held 25-37 bytes per element at its traced
# peak on the cut lens_7_2 network at r = 9-31 (int64 index arrays of the
# dense size, three live at once), so the figure is 1.1-1.6 times that peak.
_LAYOUT_BYTES = 40


class _Network:
    """A diagram as a tensor network over integer leg ids.

    Each crossing and coupon is one tensor, one leg per strand end (outputs
    first); cups and caps only join legs.  A tensor is ("braid", its key
    in ``braids``), ("coupon", its slice index) or, for a leg with both
    ends open, ("wire", None).  A crossing's ``signs`` give each of its
    legs the orientation of its strand, negated on the two inputs: the
    H-weights of its entries, so signed, sum to zero (None for other
    tensors).  A leg carries pivot**(#ev′ − #coev′) over the cups and caps
    it passes, folded into the last tensor holding it.  A leg no tensor
    holds is a loop (its weighted trace).  ``open`` is the target word
    then the source word, or the cut slice's strands as row and column of
    the endomorphism that closing with that cup or cap inverts.  A network
    depends on the diagram's structure and cut only, and keeps its plans
    (:class:`_Plan`) per strand dimensions.
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
                o_a, o_b = a.orientation, b.orientation
                raw.append((("braid", key), new + word[i : i + 2], [o_b, o_a, -o_a, -o_b]))
                word[i : i + 2] = new
            elif isinstance(sl, Coupon):
                new = [fresh(s.component) for s in sl.outputs]
                raw.append((("coupon", index), new + word[i : i + len(sl.inputs)], None))
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
        self.tensors = [tensor for tensor, _, _ in raw]
        self.signs = [signs for _, _, signs in raw]
        self.outputs = [len(diagram.slices[arg].outputs) if kind == "coupon" else 0
                        for kind, arg in self.tensors]
        self.legs = [[ids.setdefault(root[x], len(ids)) for x in held] for _, held, _ in raw]
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
                self.signs.append(None)
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

    def route(self, stacks: dict[str, ModuleStack], terms: int) -> Union["_Plan", "_Sectors"]:
        """What a batch of ``terms`` colored by ``stacks`` contracts by.

        That is the plan at the stacks' dimensions, or its sector layout
        (:class:`_Sectors`) at the stacks' charges when the batch has more
        than one term, the plan holds crossings only, and its dense peak is
        at least ``_SECTOR_MIN_PEAK`` elements per term.  The layout is made
        once per plan and charges, after ``_LAYOUT_BYTES`` per dense element
        are charged against memory; a component's charges are its first
        term's weights as steps of −2 from the first weight.
        """
        plan = self.plan({name: st.dim for name, st in stacks.items()})
        if terms == 1 or plan.sectors is None or plan.peak < _SECTOR_MIN_PEAK:
            return plan
        charges = []
        for name in self.names:
            weights = stacks[name].weights[0].real.tolist()
            charges.append(tuple(round((weights[0] - w) / 2) for w in weights))
        key = tuple(charges)
        if key not in plan.sectors:
            require_memory(_LAYOUT_BYTES * plan.peak, "the weight-sector layout")
            plan.sectors[key] = _Sectors(self, plan, key)
        return plan.sectors[key]

    def contract(self, stacks: dict[str, ModuleStack], diagram: SlicedDiagram) -> np.ndarray:
        """The value per term: a leading term axis, then ``open``.

        Stacks of more than one term must all have the same number of
        terms; a one-term stack serves every term.  The bytes of the
        batch's route (:meth:`route`: peak × terms, plus the crossing
        blocks) must fit in physical memory before any block is built.
        Then the route contracts the braiding entries, ``diagram`` giving
        the coupon matrices, and the loops' traces multiply the result.
        """
        terms = {st.terms for st in stacks.values()} - {1}
        if len(terms) > 1:
            raise DomainError("component colors give different numbers of terms")
        terms = max(terms, default=1)
        route = self.route(stacks, terms)
        require_memory(16 * terms * (route.peak + route.braid_elements), "the contraction")
        entries = [
            braiding_entries(*(stacks[s.component] if s.up else stacks[s.component].dual
                               for s in (a, b)), sign)
            for a, b, sign in self.braids
        ]
        out = route.run(stacks, entries, diagram)
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
    memory preflight.  ``sectors`` keeps the plan's sector layouts per charges
    (:meth:`_Network.route`), or is None unless every tensor is a
    crossing without a self-traced leg and there are at least two.
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
                    arg, weighted, axes, [leg_dims[leg] for leg in layout]))
            else:
                subscripts = None
                if weights or len(free) < len(held):
                    subscripts = ([0] + [1 + held.index(leg) for leg in held],
                                  [0] + [1 + held.index(leg) for leg in free])
                self.tensors.append(_Block(
                    kind, arg, outputs, [leg_dims[leg] for leg in held], weighted,
                    subscripts, [0] + [1 + free.index(leg) for leg in layout]))
        crossings = all(isinstance(tensor, _Crossing) for tensor in self.tensors)
        self.sectors = {} if crossings and len(self.tensors) > 1 else None

    def run(self, stacks: dict, entries: list, diagram: SlicedDiagram) -> np.ndarray:
        """The contraction, a leading term axis then ``open``: every tensor
        built in its layout (:class:`_Crossing`, :class:`_Block`), then each
        merge one batched matmul of dense blocks."""
        arrays = [tensor.build(stacks, entries, diagram) for tensor in self.tensors]
        for i, j, x_axes, y_axes, k, shape in self.merges:
            x = arrays[i] if x_axes is None else arrays[i].transpose(x_axes)
            y = arrays[j] if y_axes is None else arrays[j].transpose(y_axes)
            z = np.matmul(x.reshape(x.shape[0], -1, k), y.reshape(y.shape[0], k, -1))
            arrays[i] = z.reshape(z.shape[:1] + shape)
        if self.last is None:
            return np.ones(1, dtype=complex)
        return arrays[self.last] if self.final is None else arrays[self.last].transpose(self.final)


class _Crossing:
    """A crossing's braiding entries (terms, entries)
    (:func:`.repcat.braiding_entries`), times the pivot powers of its
    weighted legs (``weights``), scattered into zeros of shape (terms,
    *out).  An entry goes to the row-major flat position of its
    (k, i, j, l) read in ``axes`` order over ``shape`` (``out`` is
    ``shape``), or, given ``places``, to the place that position maps to
    in a sector block of shape ``out`` (:class:`_Sectors`), past the block
    where its merge drops the sector.  The places are kept for the last
    (k, i, j, l) arrays seen, which :func:`.repcat.braiding_entries` hands
    out unchanged per root order, sign and sides of the two ladders."""

    def __init__(self, key: int, weights: list, axes, shape, places=None, out=None):
        self.key, self.weights = key, weights
        self.axes, self.shape, self.places = tuple(axes), tuple(shape), places
        self.out = self.shape if out is None else tuple(out)
        self._last = (None, None)  # (the (k, i, j, l) arrays, their places)

    def build(self, stacks: dict, entries: list, diagram: SlicedDiagram) -> np.ndarray:
        values, index = entries[self.key]
        if self.weights:  # multiplied as _Block's einsum multiplies
            operands = [values, [0, 1]]
            for name, power, axis in self.weights:
                pivot = stacks[name].pivot ** power
                operands += [pivot[:, index[axis]], [0, 1]]
            values = np.einsum(*operands, [0, 1])
        seen, flat = self._last
        if seen is not index:
            flat = 0
            for axis, n in zip(self.axes, self.shape):
                flat = flat * n + index[axis]
            if self.places is not None:
                flat = self.places[flat]
            self._last = (index, flat)
        size = math.prod(self.out)
        block = np.zeros((len(values), size + (self.places is not None)), dtype=complex)
        block[:, flat] = values
        return block[:, :size].reshape(len(values), *self.out)


class _Block:
    """A kink (a crossing with a self-traced leg, built whole by a
    weightless :class:`_Crossing`), coupon or wire: weighted and traced by
    one einsum (``subscripts``: those of its legs and of its free legs,
    None when there is nothing to do), and viewed in its layout."""

    def __init__(self, kind, arg, outputs, shape, weights, subscripts, layout):
        self.kind, self.arg, self.outputs, self.shape = kind, arg, outputs, shape
        self.weights, self.subscripts, self.layout = weights, subscripts, layout
        self.crossing = _Crossing(arg, [], range(4), shape) if kind == "braid" else None

    def build(self, stacks: dict, entries: list, diagram: SlicedDiagram) -> np.ndarray:
        shape = self.shape
        if self.kind == "braid":
            block = self.crossing.build(stacks, entries, diagram)
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


def _charge(legs: list, signs: dict, charges: list) -> np.ndarray:
    """Σ sign·charge over ``legs`` of each of their multi-indices, flat in
    row-major order."""
    total = np.zeros(1, dtype=np.intp)
    for leg in legs:
        total = (total[:, None] + signs[leg] * charges[leg]).ravel()
    return total


def _grouped(charge: np.ndarray, sectors: np.ndarray) -> np.ndarray:
    """Per sector, the positions in ``charge`` holding its value, ascending
    and padded with −1 to the most of any sector: (sectors, most)."""
    order = np.argsort(charge, kind="stable")
    start = np.searchsorted(charge[order], sectors)
    count = np.searchsorted(charge[order], sectors, side="right") - start
    k = np.arange(count.max(initial=0))
    at = np.minimum(start[:, None] + k, len(order) - 1)
    return np.where(k < count[:, None], order[at], -1)


def _relabel(legs: list, order: list, dims: list) -> np.ndarray:
    """The row-major flat index over ``legs`` of each multi-index over
    ``order``, the same legs reordered, itself flat in row-major order."""
    shape = [dims[leg] for leg in legs]
    return np.arange(math.prod(shape)).reshape(shape).transpose(
        [legs.index(leg) for leg in order]).ravel()


class _Sectors:
    """A crossing-only plan's merges on padded weight-sector blocks.

    Each basis vector of a leg has an integer charge (its component's
    charges), and the entries of a crossing conserve the sum of their legs'
    charges times the crossing's ``signs``; so does every merge result.  A
    merge of legs left + shared with shared + right groups both operands
    by sector c: the left multi-indices of charge −c, the shared ones of
    charge c (signed as in the first operand) and the right ones of charge
    c (signed as in the second), each padded to the most of any sector.
    Each operand is then a block (terms, C, rows, columns), and the merge
    one batched matmul; sectors missing from either operand are dropped.

    A crossing is placed from its entries straight into the block of its
    one merge (a :class:`_Crossing` given each entry's place in that
    block).  A result is kept flat with one zero after it, and ``steps``
    give, per operand, the gather from it (None when its flat order
    already is the block's); a padding place gathers that zero.  ``final`` gathers the last result into the dense ``open``
    layout, so an entry outside every sector, such as one off the
    diagonal of a cut, is exactly 0.  ``peak`` and ``braid_elements``
    count as :class:`_Plan`'s do, padding included.
    """

    def __init__(self, net: _Network, plan: _Plan, charges: tuple):
        leg_charges = [np.array(charges[net.names.index(c)], dtype=np.intp)
                       for c in net.component]
        dims = [len(n) for n in leg_charges]
        live = [list(held) for held in net.legs]
        signs = [dict(zip(held, s)) for held, s in zip(net.legs, net.signs)]
        kept: list = [None] * len(live)  # a result's flat place per multi-index, and its size
        self.steps, self.peak, self.braid_elements = [], 0, 0

        def operand(t, row_legs, col_legs, rows, cols):
            n_cols = math.prod([dims[leg] for leg in col_legs])
            valid = ((rows >= 0)[:, :, None] & (cols >= 0)[:, None, :]).ravel()
            dense = (rows[:, :, None] * n_cols + cols[:, None, :]).ravel()
            source = _relabel(live[t], row_legs + col_legs, dims)[np.where(valid, dense, 0)]
            self.peak = max(self.peak, len(valid))
            if kept[t] is None:  # a crossing; its entries in dropped sectors go past the block
                shape = [dims[leg] for leg in live[t]]
                at = np.full(math.prod(shape), len(valid))
                at[source[valid]] = np.flatnonzero(valid)
                self.braid_elements += len(valid)
                crossing = plan.tensors[t]
                return _Crossing(crossing.key, crossing.weights, range(len(shape)), shape,
                                 at, rows.shape + cols.shape[1:])
            places, size = kept[t]
            gather = np.where(valid, places[source], size)
            return None if np.array_equal(gather, np.arange(size)) else gather

        for i, j, *_ in plan.merges:
            a, b = live[i], live[j]
            shared = [leg for leg in a if leg in b]
            left = [leg for leg in a if leg not in b]
            right = [leg for leg in b if leg not in a]
            row_q = -_charge(left, signs[i], leg_charges)
            mid_q = _charge(shared, signs[i], leg_charges)
            col_q = _charge(right, signs[j], leg_charges)
            sectors = np.array(sorted(set(row_q.tolist()) & set(mid_q.tolist())
                                      & set(col_q.tolist())), dtype=np.intp)
            rows, mids, cols = (_grouped(q, sectors) for q in (row_q, mid_q, col_q))
            x = operand(i, left, shared, rows, mids)
            y = operand(j, shared, right, mids, cols)
            valid = ((rows >= 0)[:, :, None] & (cols >= 0)[:, None, :]).ravel()
            places = np.full(len(row_q) * len(col_q), len(valid))
            dense = (rows[:, :, None] * len(col_q) + cols[:, None, :]).ravel()
            places[dense[valid]] = np.flatnonzero(valid)
            kept[i], kept[j] = (places, len(valid)), None
            live[i], signs[i] = left + right, signs[i] | signs[j]
            self.peak = max(self.peak, len(valid))
            self.steps.append((i, j, x, y, (len(sectors), rows.shape[1], mids.shape[1],
                                            cols.shape[1])))
        places, _ = kept[plan.last]
        self.last = plan.last
        self.final = places[_relabel(live[plan.last], net.open, dims)]
        self.shape = tuple(dims[leg] for leg in net.open)

    def run(self, stacks: dict, entries: list, diagram: SlicedDiagram) -> np.ndarray:
        """The contraction, a leading term axis then ``open``."""
        kept: dict[int, np.ndarray] = {}

        def block(spec, t):
            if isinstance(spec, _Crossing):
                return spec.build(stacks, entries, diagram)
            flat = kept.pop(t)
            return flat[:, :-1] if spec is None else flat.take(spec, axis=1)

        for i, j, x, y, (c, n_rows, k, n_cols) in self.steps:
            x = block(x, i).reshape(-1, c, n_rows, k)
            y = block(y, j).reshape(-1, c, k, n_cols)
            lead = max(len(x), len(y))
            flat = np.empty((lead, c * n_rows * n_cols + 1), dtype=complex)
            flat[:, -1] = 0
            np.matmul(x, y, out=flat[:, :-1].reshape(lead, c, n_rows, n_cols))
            kept[i] = flat
        return kept[self.last].take(self.final, axis=1).reshape((-1,) + self.shape)


def evaluate(diagram: SlicedDiagram, colors: dict, ctx: RootParams) -> np.ndarray:
    """Evaluate a diagram to the matrix of the induced morphism.

    ``colors`` maps component names to :class:`.repcat.ModuleStack` stacks
    of V_α or their duals (or complex α, which is shorthand for V_α).  The
    matrix has shape (∏ target dims, ∏ source dims), the dimensions of the
    boundary words' strands; an empty word has dimension 1, the monoidal
    unit.  The diagram is contracted as a tensor network (:class:`_Network`,
    from :func:`compile_diagram`) whose open legs are the target strands,
    then the source strands.
    """
    compiled = compile_diagram(diagram)
    stacks = {}
    for name in compiled.names:
        if name not in colors:
            raise DomainError(f"no color given for component {name!r}")
        value = colors[name]
        stacks[name] = value if isinstance(value, ModuleStack) else valpha_stack(ctx, (value,))

    def dim(word):
        return math.prod(stacks[strand.component].dim for strand in word)

    matrix = compiled.network().contract(stacks, diagram)[0]
    return matrix.reshape(dim(compiled.words[-1]), dim(compiled.words[0]))


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
