"""Graded dimensions of the TQFT spaces attached to trivalent graphs.

A genus-g handlebody deformation-retracts onto a trivalent spine; the
boundary surface carries a cohomology class with values in ℂ/2ℤ recorded
edge-by-edge as the class of the edge meridian.  When every internal edge
grading is nonintegral, the space attached to the surface has a basis of
*r-admissible colorings*: each edge receives a color in the congruence
class of its grading (shifted by the weight offset r−1), constrained to a
canonical window, and every vertex receives an integer degree k with the
three incident colors summing into H_r + 2r'k.  This module computes the
degree histogram of that basis along three independent routes:

* through zeroth Hochschild homology (:func:`hh0_dimension_generic`), the
  production engine behind the ``tqftdim`` and ``hh0`` subcommands: it
  contracts per-vertex multiplicity tensors edge by edge, never lists
  colorings, costs time and memory linear in each degree axis, and is
  exact at any size (float64 on BLAS below 2^53 colorings, then int64,
  then Python integers);
* from the dense grid of all colorings (:func:`graded_dimension`), whose
  memory grows as r'^E in the number E of edges; it is the small-size
  oracle that the self-test and the test suite compare the contraction
  against;
* the closed form (:func:`~unrolledsl2.closedform.verlinde`), which the
  histogram reproduces when evaluated at t = q^(2r'β), with a supersign
  for even r.

The grid and the contraction share the color windows and the incidence
table (:attr:`TrivalentGraph.incidence`), and each keeps its own degree
arithmetic: the grid reads degrees off float color sums
(:func:`_degree_window`), the contraction from integer label offsets, so
each checks the other's.

The spines themselves (:class:`TrivalentGraph` of :class:`GraphEdge`),
their degree histograms (:class:`GradedDimension`) and the schema of the
spine documents the ``tqftdim`` and ``hh0`` commands read
(:func:`parse_graph`, :func:`graph_to_json`) live here too, so a command
that reads another kind of document never compiles them.

Conventions.  An edge grading is the value of the class on the edge
meridian, equal to the degree of a module transported along the edge; a
module V_c has degree c + r − 1 (mod 2).  At a vertex, an outgoing edge
counts as an incoming edge with the opposite color.  The color window
applies to a class's real part, which may be an integer (as in 1 + 0.5i):
real parts in ]−r, r] for odd r (r representatives per class) and [0, r[
for even r (r/2 representatives).  For even r each vertex admits two
consecutive degrees and a basis element fixes one of them; dimension
counts carry that factor 2 per vertex.
"""

from __future__ import annotations

import functools
import math
import sys
from collections.abc import Mapping
from typing import Any, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import DomainError, NonGenericError, SchemaError
from .jsonio import complex_to_json, int_field, parse_complex, require, str_field
from .planner import UnionFind, greedy_order, require_memory
from .qscalar import Record, RootParams

__all__ = [
    "GraphEdge",
    "TrivalentGraph",
    "GradedDimension",
    "parse_graph",
    "graph_to_json",
    "graded_dimension",
    "hh0_dimension_generic",
    "circle_graph",
    "theta_graph",
    "necklace_graph",
    "tetrahedron_graph",
    "dumbbell_graph",
    "add_point_chain",
    "random_generic_graph",
]


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

    @functools.cached_property
    def internal_edges(self) -> tuple[GraphEdge, ...]:
        return tuple(e for e in self.edges if not e.is_external)

    @functools.cached_property
    def external_edges(self) -> tuple[GraphEdge, ...]:
        return tuple(e for e in self.edges if e.is_external)

    @functools.cached_property
    def circles(self) -> tuple[GraphEdge, ...]:
        return tuple(e for e in self.edges if e.is_circle)

    @functools.cached_property
    def genus(self) -> int:
        """First Betti number of the graph (= genus of its surface)."""
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


# ----------------------------------------------------------------------
# spine documents
# ----------------------------------------------------------------------


def parse_graph(doc: Any, ctx: RootParams, path: str = "$") -> TrivalentGraph:
    """A graded trivalent graph from its JSON object."""
    vertices_doc = require(doc, "vertices", path)
    if not isinstance(vertices_doc, list):
        raise SchemaError(f"{path}.vertices: expected an array")
    order: dict[str, int] = {}
    for i, v in enumerate(vertices_doc):
        name = str_field(v, "name", f"{path}.vertices[{i}]")
        if name in order:
            raise SchemaError(f"{path}.vertices[{i}]: duplicate vertex {name!r}")
        order[name] = int_field(
            v.get("order", i), f"{path}.vertices[{i}].order"
        )
    edges_doc = require(doc, "edges", path)
    if not isinstance(edges_doc, list):
        raise SchemaError(f"{path}.edges: expected an array")
    edges = []
    for i, e in enumerate(edges_doc):
        epath = f"{path}.edges[{i}]"
        name = str_field(e, "name", epath)
        tail = e.get("tail")
        head = e.get("head")
        for label, v in (("tail", tail), ("head", head)):
            if v is not None and not isinstance(v, str):
                raise SchemaError(f"{epath}.{label}: expected a vertex name or null")
            if v is not None and v not in order:
                raise SchemaError(
                    f"{epath}.{label}: vertex {v!r} is not in the vertex list"
                )
        grading = parse_complex(require(e, "grading", epath), f"{epath}.grading")
        color = e.get("color")
        if color is not None:
            color = parse_complex(color, f"{epath}.color")
        edges.append(GraphEdge(name, tail, head, grading, color=color))
    vertex_order = tuple(sorted(order, key=lambda v: (order[v], v)))
    try:
        return TrivalentGraph(ctx, tuple(edges), vertex_order)
    except DomainError as exc:  # each keeps its type
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
# color windows and degree extraction
# ----------------------------------------------------------------------


def _window_low(ctx: RootParams, grading: complex) -> complex:
    """Lowest in-window color of a nonintegral edge grading.

    The colors form the class grading + (r−1) mod 2 (module degree offset)
    whose real parts lie in ]−r, r] for odd r and [0, r[ for even r.  The
    window applies to the class's real part, which may be an integer (as
    in 1 + 0.5i), so that class points sit on both ends; counted from the
    first point in the window, the colors are r (odd) or r/2 (even), i.e.
    r' either way once the even case's doubled degree choice is counted
    separately.
    """
    g = complex(grading)
    if ctx.is_near_int(g):
        raise NonGenericError(
            f"edge grading {g} is integral; only nonintegral (generic) edge "
            "gradings admit the simple-color basis"
        )
    base = g + (ctx.r - 1)
    if ctx.r % 2:
        return base + 2.0 * (math.floor((-ctx.r - base.real) / 2.0) + 1)
    return base + 2.0 * math.ceil(-base.real / 2.0)


def _color_reps(ctx: RootParams, grading: complex) -> np.ndarray:
    """The r' in-window color representatives of a nonintegral edge grading
    (:func:`_window_low`), spaced by 2."""
    return _window_low(ctx, grading) + 2.0 * np.arange(ctx.rprime)


def _degree_window(ctx: RootParams, s: np.ndarray) -> np.ndarray:
    """Lowest admissible degree k for real color sums s ∈ H_r + 2r'k.

    Shifted by r−1, the sums are even integers up to roundoff, so adding
    0.5 before the mod keeps them away from the wrap boundary.  For odd r
    the returned k is the unique degree; for even r the degrees are
    {k, k+1} (H_r double-covers the residues mod 2r' = r).
    """
    two_rp = 2 * ctx.rprime
    shifted = np.mod(s + (ctx.r - 1) + 0.5, two_rp) - 0.5 - (ctx.r - 1)
    k = np.rint((s - shifted) / two_rp)
    if ctx.r % 2 == 0:
        k = k - 1  # shifted lands in [1−r, 0); the other H_r match is shifted+r
    return k.astype(np.int64)


# ----------------------------------------------------------------------
# the dense grid (test oracle)
# ----------------------------------------------------------------------


def graded_dimension(graph: TrivalentGraph) -> GradedDimension:
    """Degree histogram of the admissible-coloring basis, from the full grid.

    Broadcasts the per-edge color windows to a full grid, extracts every
    vertex's lowest degree in one pass, and histograms the total; for even
    r the two-degree choice per vertex enters as a binomial convolution.
    The grid has one cell per coloring, so this is an oracle for small
    graphs that tests compare :func:`hh0_dimension_generic` against; the
    command line never calls it.  A grid whose arrays (about 128 bytes a
    cell) exceed physical memory is a MemoryError before any is built.
    """
    ctx = graph.ctx
    edges = graph.internal_edges
    non_circle = [e for e in edges if not e.is_circle]
    require_memory(128 * ctx.rprime ** len(non_circle), "the coloring grid")
    circle_factor = 1
    for e in edges:
        if e.is_circle:
            circle_factor *= len(_color_reps(ctx, e.grading))
    index = {e.name: i for i, e in enumerate(non_circle)}
    reps = [_color_reps(ctx, e.grading) for e in non_circle]
    shape = [len(rs) for rs in reps]
    grids = []
    for i, rs in enumerate(reps):
        ax = [1] * len(reps)
        ax[i] = len(rs)
        grids.append(rs.reshape(ax))
    vertices = list(graph.vertex_order)
    total_k = np.zeros(shape or (1,), dtype=np.int64)
    for v in vertices:
        s = np.asarray(0j)
        for e, sign in graph.incidence[v]:  # a loop's two signs cancel
            s = s + sign * (complex(e.color) if e.is_external else grids[index[e.name]])
        s = np.broadcast_to(s, shape or (1,))
        total_k = total_k + _degree_window(ctx, s.real)
    flat = total_k.reshape(-1)
    k_min = int(flat.min())
    counts = np.bincount(flat - k_min).astype(object)
    if ctx.r % 2 == 0 and vertices:
        binom = [math.comb(len(vertices), j) for j in range(len(vertices) + 1)]
        counts = np.convolve(counts, np.asarray(binom, dtype=object))
    coefficients = {
        k_min + i: int(c) * circle_factor for i, c in enumerate(counts) if c
    }
    return GradedDimension(coefficients, "plain" if ctx.r % 2 else "super")


# ----------------------------------------------------------------------
# Hochschild-homology route to the same histogram
# ----------------------------------------------------------------------


class _Cluster(NamedTuple):
    """A partially contracted product of vertex multiplicity tensors.

    ``array`` has one axis per open edge slot plus a trailing degree axis;
    entries are integer multiplicities of the degree offsets.  ``slots``
    names the open edges in axis order; ``k_min`` anchors the degree axis.
    ``entry_bytes`` is what an entry a merge computes holds: its 8-byte
    slot and, in the Python-integer tier, the int it points to
    (:func:`hh0_dimension_generic`).
    """

    slots: Sequence[str]
    array: np.ndarray
    k_min: int
    entry_bytes: int = 8


class _Group(NamedTuple):
    """The vertices of a spine plan with one slot count and one loop count,
    whose tensors one batch holds: row t is vertex ``vertices[t]``, and
    ``signs[t, e]`` the sign σ_e of its e-th slot."""

    vertices: tuple[int, ...]
    loop_factor: int
    signs: np.ndarray


class _SpinePlan(NamedTuple):
    """What a spine's topology fixes of its HH0 contraction at one r'.

    ``vertices`` holds, per vertex in the graph's order, its open slots,
    their signs σ_e, its external edges with their incidence signs, and the
    label extremes below and above the vertex's offset (r'−1 times its
    negative and positive slot counts); ``groups`` the batches of vertex
    tensors (:class:`_Group`); ``merges`` every merge in order, each as
    (i, j, the label cells of clusters i and j and of the result, r' to the
    power of their open slot counts, then the groups whose last vertex it
    consumes).  No grading or color enters it.
    """

    vertices: tuple[tuple, ...]
    groups: tuple[_Group, ...]
    merges: tuple[tuple, ...]


@functools.lru_cache
def _spine_plan(rprime: int, rows: tuple) -> _SpinePlan:
    """The plan of the spine whose vertices have the incidence ``rows``, each
    a tuple of (edge name, sign, external?) in :attr:`TrivalentGraph.incidence`
    order, from a process-wide cache of the 128 structures used last.

    The vertex rows are in the algebra-slot convention, which negates the
    incidence signs: σ_e = +1 for an outgoing edge (a projective slot, color
    +β for label β), −1 for an ingoing one (the dual slot), summed per
    internal edge.  A loop's signs cancel: its axis is summed out, a factor
    r'.  The merges are the shared greedy plan (:func:`.planner.greedy_order`)
    over the vertices' slots, then the first connected piece absorbing the
    others.
    """
    top = rprime - 1  # the largest label
    vertices, kinds = [], []
    for row in rows:
        slot_signs: dict[str, int] = {}
        externals = []
        for name, sign, external in row:
            if external:
                externals.append((name, sign))
            else:
                slot_signs[name] = slot_signs.get(name, 0) - sign
        slots = tuple(name for name, sign in slot_signs.items() if sign)
        signs = tuple(slot_signs[name] for name in slots)
        vertices.append((slots, signs, tuple(externals),
                         top * signs.count(-1), top * signs.count(1)))
        kinds.append((len(slots), len(slot_signs) - len(slots)))
    groups, group_of = [], {}
    for n, loops in dict.fromkeys(kinds):
        members = tuple(v for v, kind in enumerate(kinds) if kind == (n, loops))
        signs = np.array([vertices[v][1] for v in members], np.int64).reshape(len(members), n)
        signs.flags.writeable = False
        group_of.update(dict.fromkeys(members, len(groups)))
        groups.append(_Group(members, rprime**loops, signs))
    slots = [set(vertex[0]) for vertex in vertices]
    order, _peak = greedy_order([vertex[0] for vertex in vertices],
                                {name: rprime for held in slots for name in held})
    pieces = sorted(set(range(len(vertices))) - {j for _, j in order})  # one per connected piece
    left = [len(group.vertices) for group in groups]  # each group's unmerged vertices
    merged = [False] * len(vertices)
    merges = []
    for i, j in order + [(pieces[0], j) for j in pieces[1:]]:
        released = []
        for x in (i, j):
            if not merged[x]:
                left[group_of[x]] -= 1
                if not left[group_of[x]]:
                    released.append(group_of[x])
        cells = rprime ** len(slots[i]), rprime ** len(slots[j])
        slots[i] ^= slots[j]
        merged[i] = True
        merges.append((i, j, *cells, rprime ** len(slots[i]), tuple(released)))
    return _SpinePlan(tuple(vertices), tuple(groups), tuple(merges))


def _batch_bytes(m: int, n: int, rprime: int, width: int, item: int) -> int:
    """Bytes of a batch of m vertex tensors with n slots and a degree axis
    ``width`` wide of ``item``-byte entries, built by :func:`_vertex_batch`:
    the tensors, two label sums at a time, and the steps σ_e·i_e."""
    return m * rprime**n * (16 + width * item) + 8 * rprime * (m * n + 1)


def _vertex_batch(ctx: RootParams, group: _Group, shifts: list[int], width: int,
                  dtype, held: int) -> np.ndarray:
    """Multiplicity tensors of a group's vertices, one row of the batch each.

    Vertex t's label tuple i is the color tuple low_e + 2i_e, and its lowest
    admissible degree, counted from the vertex's lowest, is
    ⌊(shifts[t] + Σσ_e·i_e) / r'⌋ (:func:`hh0_dimension_generic`).  Each
    entry is the row of an identity band, ``width`` wide and times the
    group's loop factor, that one-hot encodes that degree, or for even r
    that degree and the next.  The batch, its int64 label sums and their
    per-slot steps σ_e·i_e, on top of the ``held`` bytes already live, are
    charged through :func:`.planner.require_memory` before any is built
    (:func:`_batch_bytes`).  An object batch points at two ints, 0 and the
    loop factor, so its entries are charged as their slots alone.
    """
    rp = ctx.rprime
    m, n = group.signs.shape
    require_memory(held + _batch_bytes(m, n, rp, width, np.dtype(dtype).itemsize),
                   "a batch of HH0 vertex tensors")
    steps = group.signs[..., None] * np.arange(rp)
    labels = np.array(shifts).reshape((m,) + (1,) * n)
    for e in range(n):
        labels = labels + steps[:, e].reshape((m,) + (1,) * e + (rp,) + (1,) * (n - 1 - e))
    labels //= rp
    band = np.zeros((width - 1 + ctx.r % 2, width), dtype)
    band.flat[:: width + 1] = group.loop_factor
    if ctx.r % 2 == 0:
        band.flat[1 :: width + 1] = group.loop_factor
    return np.take(band, labels, axis=0)


def _merge_clusters(a: _Cluster, b: _Cluster, held: int) -> _Cluster:
    """Contract every edge two clusters share and convolve their degrees.

    The larger operand a becomes a (degree·free, shared) matrix L and the
    smaller one a (shared, free, degree) array R; degree j of b adds the
    product L @ R[:, :, j] to the result's degrees j to j + ka − 1.  So a
    merge does ka·kb times the work of one degree pair (on BLAS in the
    float64 tier, below 2^53 colorings: see :func:`hh0_dimension_generic`),
    and its memory is linear in each degree axis.  Clusters that share no
    edge just convolve.  The result keeps a's open slots, then b's, then
    the degree axis.  The transposed copies of both operands, the result
    and one product, on top of the ``held`` bytes already live (the
    operands among them), are charged through
    :func:`.planner.require_memory` first: the copies as slots, which point
    at the operands' entries, and the result and product at a's
    ``entry_bytes``.
    """
    if a.array.size < b.array.size:
        a, b = b, a
    shared = [name for name in a.slots if name in b.slots]
    free_a = [name for name in a.slots if name not in shared]
    free_b = [name for name in b.slots if name not in shared]
    ka, kb = a.array.shape[-1], b.array.shape[-1]
    lhs = a.array.transpose([-1] + [a.slots.index(n) for n in free_a + shared])
    rhs = b.array.transpose([b.slots.index(n) for n in shared + free_b] + [-1])
    free = lhs.shape[1 : 1 + len(free_a)] + rhs.shape[len(shared) : -1]
    require_memory(held + a.array.nbytes + b.array.nbytes  # the result and one product
                   + a.entry_bytes * math.prod(free) * (2 * ka + kb - 1), "an HH0 merge")
    n_shared = math.prod(rhs.shape[: len(shared)])
    lhs, rhs = lhs.reshape(-1, n_shared), rhs.reshape(n_shared, -1, kb)
    out = np.zeros((ka + kb - 1,) + free, b.array.dtype)
    for j in range(kb):
        out[j : j + ka] += (lhs @ rhs[:, :, j]).reshape((ka,) + free)
    return _Cluster(free_a + free_b, out.transpose((*range(1, out.ndim), 0)), a.k_min + b.k_min,
                    a.entry_bytes)


def hh0_dimension_generic(graph: TrivalentGraph) -> GradedDimension:
    """The degree histogram through zeroth Hochschild homology.

    At a generic grading the algebra of an internal edge is commutative
    semisimple, concentrated in degree 0, with one idempotent per window
    summand; the vertex multiplicity modules form a bimodule over the
    tensor product of these algebras, and passing to the quotient by
    commutators matches the idempotent labels across every edge.  No
    algebra or module is built: each vertex contributes its multiplicity
    tensor indexed by idempotent labels (:func:`_vertex_batch`), and the
    quotient is the contraction of those tensors over shared labels
    (:func:`_merge_clusters`), never listing joint colorings.  The merge
    order is the shared greedy plan (:func:`.planner.greedy_order`): each
    step merges the two clusters that share an edge and whose result has
    the fewest label elements (the first such pair on ties), contracting
    all their shared edges in one step.  That leaves one cluster per
    connected piece of the spine and no open slot (a slot's two holders
    share it), and the first piece absorbs the others through the same
    merge.  A free circle contributes its algebra's own class, one
    degree-0 idempotent per summand: a factor r'.  It finally mirrors the
    degree (the algebra-slot convention grades opposite to the coloring
    convention).  Graphs with an integral internal grading raise
    :class:`NonGenericError`.

    Everything the topology fixes (slots, signs, loop factors, the batches
    of vertex tensors and the merge sequence) is the spine plan
    (:func:`_spine_plan`), compiled once per structure and r' and never
    holding a grading or a color.  A call computes each vertex's offset
    and degree window: with const the external colors times σ, c = const +
    Σσ_e·low_e + r−1 is an even integer 2h up to roundoff (the 1-cycle and
    leg-degree conditions :class:`TrivalentGraph` enforces on
    construction), and the label tuple's lowest admissible degree is
    ⌊(h + Σσ_e·i_e) / r'⌋ (less one for even r, which admits that degree
    and the next).

    Counts are exact at any size: every partial entry, and every product
    and partial sum a merge forms, is a nonnegative integer at most the
    number of colorings, known in advance.  The tensors hold float64 below
    2^53 colorings (exact, and merged on BLAS), int64 below 2^63 and
    Python integers above, where an entry a merge computes is charged as
    its pointer plus an int as large as the coloring count.  Every batch's
    and every merge's shape is known
    before any is built, so the largest figure of the whole contraction,
    with every array still live, is charged against physical memory first,
    and each step is charged again as it is built: a contraction that
    cannot fit is a MemoryError up front.
    """
    ctx = graph.ctx
    lows = {  # every window has r' colors; circles (no slots) are checked first
        e.name: _window_low(ctx, e.grading) for e in graph.circles + graph.internal_edges
    }
    colorings = ctx.rprime ** len(lows)
    if ctx.r % 2 == 0:
        colorings <<= len(graph.vertex_order)
    dtype = (np.float64 if colorings < 2**53
             else np.int64 if colorings < 2**63 else object)
    item = np.dtype(dtype).itemsize
    entry = item + (sys.getsizeof(colorings) if dtype is object else 0)
    rp, odd = ctx.rprime, ctx.r % 2
    plan = _spine_plan(rp, tuple(tuple((e.name, sign, e.is_external) for e, sign in
                                       graph.incidence[v]) for v in graph.vertex_order))
    colors = {e.name: complex(e.color) for e in graph.external_edges}
    shifts, widths, k_mins = [], [], []
    for slots, signs, externals, down, up in plan.vertices:
        const = 0j
        for name, sign in externals:
            const -= sign * colors[name]
        c = const + sum(s * lows[name] for name, s in zip(slots, signs)) + (ctx.r - 1)
        base, offset = divmod(round(c.real / 2), rp)  # base may exceed int64; offset < r'
        lo = (offset - down) // rp
        shifts.append(offset - lo * rp)
        widths.append((offset + up) // rp - lo + 2 - odd)  # the degree axis
        k_mins.append(base + lo - 1 + odd)
    # every step's figure, in order, from the shapes alone
    held, charges, batches = 0, [], []
    for group in plan.groups:
        width = max(widths[v] for v in group.vertices)
        m, n = group.signs.shape
        cells = m * rp**n
        charges.append((held + _batch_bytes(m, n, rp, width, item),
                        "a batch of HH0 vertex tensors"))
        batches.append((width, held, cells * width * item))
        held += cells * width * item
    k, own, helds = list(widths), [0] * len(widths), []
    for i, j, cells_i, cells_j, cells_out, released in plan.merges:
        size_a, size_b = cells_i * k[i], cells_j * k[j]
        ka, kb = (k[j], k[i]) if size_a < size_b else (k[i], k[j])
        charges.append((held + item * (size_a + size_b) + entry * cells_out * (2 * ka + kb - 1),
                        "an HH0 merge"))
        helds.append(held)
        out = cells_out * (ka + kb - 1)
        held += entry * out - own[i] - own[j] - sum(batches[g][2] for g in released)
        k[i], own[i] = ka + kb - 1, entry * out
    require_memory(*max(charges, default=(0, "an HH0 contraction")))
    live = {}
    for group, (width, held, _) in zip(plan.groups, batches):  # no name outlives a batch
        live.update({v: _Cluster(plan.vertices[v][0], tensor[..., : widths[v]], k_mins[v], entry)
                     for v, tensor in zip(group.vertices, _vertex_batch(
                         ctx, group, [shifts[v] for v in group.vertices], width, dtype, held))})
    for (i, j, *_), held in zip(plan.merges, helds):
        a, b = live[i], live.pop(j)
        live[i] = _merge_clusters(a, b, held)
    (total,) = live.values() or [_Cluster([], np.ones(1, dtype), 0)]
    scale = rp ** len(graph.circles)
    mirrored = {-(total.k_min + i): int(v) * scale
                for i, v in enumerate(total.array.tolist()) if v}
    return GradedDimension(mirrored, "plain" if odd else "super")


# ----------------------------------------------------------------------
# builders
# ----------------------------------------------------------------------


def circle_graph(ctx: RootParams, grading: complex) -> TrivalentGraph:
    """The vertex-free circle spine ``c0`` of a torus (genus 1)."""
    return TrivalentGraph(ctx, (GraphEdge("c0", None, None, grading),))


def theta_graph(ctx: RootParams, g1: complex, g2: complex) -> TrivalentGraph:
    """Two vertices joined by three parallel edges (genus 2).

    Edges e1 and e2 run from u to v with gradings g1 and g2, and e3 runs
    back with g1+g2, so the signed sums close at both vertices.
    """
    return TrivalentGraph(
        ctx,
        (
            GraphEdge("e1", "u", "v", g1),
            GraphEdge("e2", "u", "v", g2),
            GraphEdge("e3", "v", "u", complex(g1) + complex(g2)),
        ),
    )


def necklace_graph(
    ctx: RootParams,
    genus: int,
    bigon_gradings: Iterable[complex] | None = None,
    connector_grading: complex | None = None,
) -> TrivalentGraph:
    """A ring of g−1 bigons joined by connector edges (genus g, bridge-free).

    Vertices v0..v_{2g−3}; bigon i doubles (v_{2i}, v_{2i+1}) with gradings
    a_i and x−a_i, and every connector carries the same class x (forced by
    the cycle conditions).  genus 1 degenerates to the circle.
    """
    if genus < 1:
        raise DomainError(f"genus must be >= 1, got {genus}")
    x = 0.5 if connector_grading is None else complex(connector_grading)
    if genus == 1:
        return circle_graph(ctx, x)
    n = genus - 1
    bigons = (
        [complex(a) for a in bigon_gradings]
        if bigon_gradings is not None
        else [x / 2 + 0.25 * (i + 1) for i in range(n)]
    )
    if len(bigons) != n:
        raise DomainError(f"need {n} bigon gradings for genus {genus}")
    edges: list[GraphEdge] = []
    for i in range(n):
        u, v = f"v{2 * i}", f"v{2 * i + 1}"
        w = f"v{(2 * i + 2) % (2 * n)}"
        edges.append(GraphEdge(f"a{i}", u, v, bigons[i]))
        edges.append(GraphEdge(f"b{i}", u, v, x - bigons[i]))
        edges.append(GraphEdge(f"c{i}", v, w, x))
    return TrivalentGraph(ctx, tuple(edges))


def tetrahedron_graph(
    ctx: RootParams, g_b: complex, g_d: complex, g_e: complex
) -> TrivalentGraph:
    """The complete graph on four vertices (genus 3, bridge-free).

    Edges oriented from lower to higher vertex index; the three given
    gradings sit on (0−2, 1−2, 1−3) and determine the rest through the
    vertex cycle conditions.
    """
    b, d, e = complex(g_b), complex(g_d), complex(g_e)
    gradings = {
        ("x0", "x1"): d + e,
        ("x0", "x2"): b,
        ("x0", "x3"): -e - b - d,
        ("x1", "x2"): d,
        ("x1", "x3"): e,
        ("x2", "x3"): b + d,
    }
    edges = tuple(
        GraphEdge(f"{u}{v}", u, v, g) for (u, v), g in gradings.items()
    )
    return TrivalentGraph(ctx, edges)


def dumbbell_graph(ctx: RootParams, loop1: complex, loop2: complex) -> TrivalentGraph:
    """Two loops joined by a bridge (genus 2, but the bridge is separating).

    A separating edge has null-homologous meridian, so its grading is
    forced integral (zero here); both dimension routes therefore raise
    NonGenericError on this graph by construction.
    """
    return TrivalentGraph(
        ctx,
        (
            GraphEdge("l1", "u", "u", loop1),
            GraphEdge("br", "u", "v", 0.0),
            GraphEdge("l2", "v", "v", loop2),
        ),
    )


def add_point_chain(
    graph: TrivalentGraph, edge_name: str, colors: Iterable[complex]
) -> TrivalentGraph:
    """Attach marked points in a row along one edge.

    The host edge is subdivided at one new vertex per point, each hanging
    an inward leg; the grading climbs by the point degree at every step.
    Because the sum of all point meridians bounds, the degrees of the
    colors must sum to 0 mod 2 (on a circle host the closing arc enforces
    this, on an open host the far endpoint does); otherwise construction
    fails the 1-cycle validation.
    """
    ctx = graph.ctx
    host = next((e for e in graph.edges if e.name == edge_name), None)
    if host is None or host.is_external:
        raise DomainError(f"no internal edge named {edge_name!r}")
    cs = [complex(c) for c in colors]
    if not cs:
        return graph
    base = sum(e.is_external for e in graph.edges)
    others = tuple(e for e in graph.edges if e.name != edge_name)
    g = complex(host.grading)
    new: list[GraphEdge] = []
    if host.is_circle:
        n = len(cs)
        for i, c in enumerate(cs):
            deg = c + (ctx.r - 1)
            x, nxt = f"x_p{base + i}", f"x_p{base + (i + 1) % n}"
            new.append(GraphEdge(f"p{base + i}", None, x, deg, color=c))
            g = g + deg
            new.append(GraphEdge(f"{edge_name}.{i}", x, nxt, g))
    else:
        prev = host.tail
        for i, c in enumerate(cs):
            deg = c + (ctx.r - 1)
            x = f"x_p{base + i}"
            new.append(GraphEdge(f"{edge_name}.{i}", prev, x, g))
            new.append(GraphEdge(f"p{base + i}", None, x, deg, color=c))
            g = g + deg
            prev = x
        new.append(GraphEdge(f"{edge_name}.{len(cs)}", prev, host.head, g))
    return TrivalentGraph(ctx, others + tuple(new))


def random_generic_graph(
    ctx: RootParams,
    rng: np.random.Generator,
    genus: int,
    n_legs: int = 0,
) -> TrivalentGraph:
    """A random admissibly-graded spine of the given genus with marked points.

    Gradings are drawn away from integers so every internal edge stays
    generic.  Marked-point degrees must sum to 0 mod 2, so the last color
    is solved from the others; a single point is forced to degree 0̄,
    realized by the projective color 0 for odd r and impossible for even r
    (projective simple colors all have odd degree there).
    """

    def draw() -> float:
        while True:
            v = float(rng.uniform(-2.0, 2.0))
            if abs(v - round(v)) > 0.05:
                return v

    if n_legs == 1 and ctx.r % 2 == 0:
        raise DomainError(
            "a single simple marked point needs a degree-0̄ color (its "
            "meridian sum bounds), impossible for even r"
        )
    for _ in range(200):
        if genus == 1:
            base = circle_graph(ctx, draw())
        elif genus == 2 and rng.random() < 0.5:
            base = theta_graph(ctx, draw(), draw())
        elif genus == 3 and rng.random() < 0.5:
            base = tetrahedron_graph(ctx, draw(), draw(), draw())
        else:
            x = draw()
            base = necklace_graph(
                ctx, genus, [draw() for _ in range(genus - 1)], x
            )
        if n_legs == 1:
            colors = [0.0]
        elif n_legs:
            colors = [draw() for _ in range(n_legs - 1)]
            colors.append(-sum(colors) - n_legs * (ctx.r - 1))
            if abs(colors[-1] - round(colors[-1])) <= 0.05:
                continue
        else:
            colors = []
        graph = base
        if colors:
            host = base.internal_edges[int(rng.integers(len(base.internal_edges)))]
            graph = add_point_chain(base, host.name, colors)
        try:
            for e in graph.internal_edges:
                _window_low(ctx, e.grading)
        except NonGenericError:
            continue
        return graph
    raise DomainError("failed to draw a generic graph in 200 attempts")
