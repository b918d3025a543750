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
  colorings, and is exact at any size;
* from the dense grid of all colorings (:func:`graded_dimension`), whose
  memory grows as r'^E in the number E of edges; it is the small-size
  oracle that the self-test and the test suite compare the contraction
  against;
* the closed form (:func:`verlinde`), which the histogram reproduces when
  evaluated at t = q^(2r'β), with a supersign for even r.

The grid and the contraction share only the color windows and the degree
extraction (:func:`triple_admissible` exposes the latter for one triple).

Conventions.  An edge grading is the value of the class on the edge
meridian, equal to the degree of a module transported along the edge; a
module V_c has degree c + r − 1 (mod 2).  At a vertex, an outgoing edge
counts as an incoming edge with the opposite color.  Colors live in the
window ]−r, r] for odd r (r representatives per class) and [0, r[ for
even r (r/2 representatives).  For even r each vertex admits two
consecutive degrees and a basis element fixes one of them; dimension
counts carry that factor 2 per vertex.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import DomainError, NonGenericError
from .qscalar import RootParams

__all__ = [
    "GraphEdge",
    "TrivalentGraph",
    "GradedDimension",
    "triple_admissible",
    "graded_dimension",
    "verlinde",
    "hh0_dimension_generic",
    "circle_graph",
    "theta_graph",
    "necklace_graph",
    "tetrahedron_graph",
    "dumbbell_graph",
    "add_leg",
    "random_generic_graph",
]


# ----------------------------------------------------------------------
# graph data model
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class GraphEdge:
    """One oriented edge of a trivalent graph.

    ``tail`` and ``head`` name internal vertices (``tail`` is left,
    ``head`` is entered).  An *external* edge carries a fixed ``color``
    and has exactly one endpoint; an internal edge has color ``None``
    and either two endpoints (possibly equal, a loop) or none (a free
    circle component).  ``grading`` is the ℂ/2ℤ class of the edge
    meridian, stored as any complex representative.
    """

    name: str
    tail: str | None
    head: str | None
    grading: complex
    color: complex | None = None

    @property
    def endpoints(self) -> tuple[str, ...]:
        return tuple(v for v in (self.tail, self.head) if v is not None)

    @property
    def is_external(self) -> bool:
        return self.color is not None

    @property
    def is_circle(self) -> bool:
        return self.tail is None and self.head is None


@dataclass(frozen=True)
class TrivalentGraph:
    """An oriented uni-trivalent graph with ℂ/2ℤ edge gradings.

    Internal vertices are exactly the names appearing as edge endpoints
    and must have three incidences each (loops count twice); univalent
    outer ends of external edges are implicit.  ``vertex_order`` records
    the ordering of trivalent vertices that a basis needs for even r; it
    is stored but never consumed by dimension counts.  Construction
    validates the 1-cycle condition: at every internal vertex the signed
    sum of incident gradings vanishes mod 2 (incoming +, outgoing −),
    which is what makes the class well defined, and external colors must
    have degree equal to their edge grading.
    """

    ctx: RootParams
    edges: tuple[GraphEdge, ...]
    vertex_order: tuple[str, ...] = ()

    def __post_init__(self):
        names = [e.name for e in self.edges]
        if len(set(names)) != len(names):
            raise DomainError(f"duplicate edge names in {names}")
        incidence: dict[str, int] = {}
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
            for v in e.endpoints:
                incidence[v] = incidence.get(v, 0) + 1
        for v, n in incidence.items():
            if n != 3:
                raise DomainError(f"vertex {v!r} has {n} incidences, need 3")
        if self.vertex_order:
            if sorted(self.vertex_order) != sorted(incidence):
                raise DomainError(
                    "vertex_order must be a permutation of the internal vertices"
                )
        else:
            object.__setattr__(self, "vertex_order", tuple(sorted(incidence)))
        ctx = self.ctx
        for e in self.edges:
            if e.is_external and not ctx.is_congruent_mod2(
                e.grading, complex(e.color) + (ctx.r - 1)
            ):
                raise DomainError(
                    f"external edge {e.name!r}: grading {e.grading} is not the "
                    f"degree of its color {e.color}"
                )
        for v in self.vertex_order:
            total = 0.0 + 0.0j
            for e in self.edges:
                if e.head == v:
                    total += complex(e.grading)
                if e.tail == v:
                    total -= complex(e.grading)
            if not ctx.is_congruent_mod2(total, 0.0):
                raise DomainError(
                    f"edge gradings are not a 1-cycle: signed sum {total} at "
                    f"vertex {v!r} is nonzero mod 2"
                )

    # -- derived structure -------------------------------------------------

    @property
    def internal_edges(self) -> tuple[GraphEdge, ...]:
        return tuple(e for e in self.edges if not e.is_external)

    @property
    def external_edges(self) -> tuple[GraphEdge, ...]:
        return tuple(e for e in self.edges if e.is_external)

    @property
    def circles(self) -> tuple[GraphEdge, ...]:
        return tuple(e for e in self.edges if e.is_circle)

    @property
    def genus(self) -> int:
        """First Betti number of the graph (= genus of its surface)."""
        parent: dict[str, str] = {v: v for v in self.vertex_order}

        def find(x: str) -> str:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        edge_count = 0
        for e in self.internal_edges:
            if e.is_circle:
                continue
            edge_count += 1
            a, b = e.tail, e.head
            parent.setdefault(a, a)
            parent.setdefault(b, b)
            parent[find(a)] = find(b)
        components = len({find(v) for v in parent})
        # every vertex-free circle is its own component with Betti number 1
        return edge_count - len(parent) + components + len(self.circles)


@dataclass(frozen=True)
class GradedDimension:
    """Finitely supported degree histogram k ↦ dim of a graded space.

    ``parity_mode`` selects the evaluation rule: ``"plain"`` (odd r) sums
    dim·t^k, ``"super"`` (even r) sums (−1)^k·dim·t^k.
    """

    coefficients: Mapping[int, int]
    parity_mode: str

    def __post_init__(self):
        if self.parity_mode not in ("plain", "super"):
            raise DomainError(f"unknown parity mode {self.parity_mode!r}")
        object.__setattr__(
            self,
            "coefficients",
            {int(k): int(v) for k, v in sorted(self.coefficients.items()) if v},
        )

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
# color windows and degree extraction
# ----------------------------------------------------------------------


def _color_reps(ctx: RootParams, grading: complex) -> np.ndarray:
    """In-window color representatives of a nonintegral edge grading.

    The colors form the class grading + (r−1) mod 2 (module degree offset)
    restricted to ]−r, r] for odd r and [0, r[ for even r.  Since the
    window ends are integers and the class is not, the half-open ends are
    never ambiguous; the count is r (odd) or r/2 (even), i.e. r' either way
    once the even case's doubled degree choice is counted separately.
    """
    g = complex(grading)
    if ctx.is_near_int(g):
        raise NonGenericError(
            f"edge grading {g} is integral; only nonintegral (generic) edge "
            "gradings admit the simple-color basis"
        )
    base = g + (ctx.r - 1)
    lo, hi = (-ctx.r, ctx.r) if ctx.r % 2 else (0, ctx.r)
    m_min = math.ceil((lo - base.real) / 2.0)
    m_max = math.floor((hi - base.real) / 2.0)
    reps = base + 2.0 * np.arange(m_min, m_max + 1)
    if len(reps) != (hi - lo) // 2:
        raise DomainError(
            f"internal error: {len(reps)} window representatives for grading {g}"
        )
    return reps


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
    residual = np.max(np.abs(s - shifted - two_rp * k), initial=0.0)
    if residual > 1e-6:
        raise DomainError(
            f"vertex color sums are off the admissible lattice by {residual:g}; "
            "the edge gradings are inconsistent"
        )
    if ctx.r % 2 == 0:
        k = k - 1  # shifted lands in [1−r, 0); the other H_r match is shifted+r
    return k.astype(np.int64)


def triple_admissible(
    ctx: RootParams, alpha: complex, beta: complex, gamma: complex
) -> set[int]:
    """Degrees k with α+β+γ ∈ H_r + 2r'k (incoming-color convention).

    Nonempty iff α+β+γ+r−1 ≡ 0 mod 2ℤ; when nonempty the set has exactly
    one element for odd r and two consecutive elements for even r.  The
    condition is weight arithmetic and accepts any complex colors.
    """
    s = complex(alpha) + complex(beta) + complex(gamma)
    if abs(s.imag) > ctx.epsilon_int:
        return set()
    if not ctx.is_congruent_mod2(s + (ctx.r - 1), 0.0):
        return set()
    k = int(_degree_window(ctx, np.asarray([s.real]))[0])
    return {k} if ctx.r % 2 else {k, k + 1}


# ----------------------------------------------------------------------
# vertex incidence bookkeeping
# ----------------------------------------------------------------------


def _vertex_terms(
    graph: TrivalentGraph, edge_index: Mapping[str, int]
) -> dict[str, tuple[list[tuple[int, float]], complex]]:
    """Per vertex: [(grid-axis index, sign)] plus the fixed-color offset.

    Sign +1 for an incoming edge, −1 for outgoing; a loop contributes both
    and so cancels in the color sum while still sharing its color label.
    External edges contribute their fixed color to the constant offset.
    """
    out: dict[str, tuple[list[tuple[int, float]], complex]] = {}
    for v in graph.vertex_order:
        terms: list[tuple[int, float]] = []
        const = 0.0 + 0.0j
        for e in graph.edges:
            for end, sign in ((e.head, +1.0), (e.tail, -1.0)):
                if end != v:
                    continue
                if e.is_external:
                    const += sign * complex(e.color)
                else:
                    terms.append((edge_index[e.name], sign))
        out[v] = (terms, const)
    return out


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
    command line never calls it.
    """
    ctx = graph.ctx
    edges = graph.internal_edges
    non_circle = [e for e in edges if not e.is_circle]
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
    vterms = _vertex_terms(graph, index)
    vertices = list(graph.vertex_order)
    total_k = np.zeros(shape or (1,), dtype=np.int64)
    for v in vertices:
        terms, const = vterms[v]
        s = np.asarray(const, dtype=complex)
        for i, sign in terms:
            s = s + sign * grids[i]
        s = np.broadcast_to(s, shape or (1,))
        if np.max(np.abs(s.imag), initial=0.0) > 1e-6:
            raise DomainError(
                "vertex color sum has a nonzero imaginary part; the edge "
                "gradings are inconsistent"
            )
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
# the closed form
# ----------------------------------------------------------------------


def verlinde(
    ctx: RootParams,
    genus: int,
    beta: complex,
    point_colors: Iterable[complex] = (),
) -> complex:
    """Closed-form graded dimension of the genus-g space at t = q^(2r'β).

    With n marked points of colors c_i and c = Σc_i the value is
    (−1)^{n(r−1)}/r · (r')^g · q^{cβ} · Σ_{k∈H_r} q^{ck} ({rβ}/{β+k})^{2g−2+n};
    without points the prefactors collapse to (1/r)(r')^g.
    """
    points = [complex(c) for c in point_colors]
    if genus < 0:
        raise DomainError(f"genus must be nonnegative, got {genus}")
    b = complex(beta)
    if ctx.is_near_int(b):
        raise DomainError(
            f"beta={beta!r} is integral; the closed form needs a nonintegral "
            "class"
        )
    n = len(points)
    c = sum(points)
    num = ctx.q_num(ctx.r * b)
    exponent = 2 * genus - 2 + n
    terms = []
    for k in ctx.h_r_set():
        den = ctx.q_num(b + k)
        if abs(den) <= 1e-12:
            raise DomainError(
                f"{{beta + {k}}} vanishes at beta={beta!r}; the summand is "
                "singular"
            )
        terms.append((ctx.q_pow(c * k), num / den))
    sign = -1.0 if (n * (ctx.r - 1)) % 2 else 1.0
    try:
        total = 0.0 + 0.0j
        for phase, ratio in terms:
            total += phase * ratio**exponent
        value = sign / ctx.r * ctx.rprime**genus * ctx.q_pow(c * b) * total
    except OverflowError:
        value = complex(math.inf)
    if cmath.isfinite(value):
        return value
    # Some factor left double range: redo the sum with every power divided
    # by the largest one, and keep the scale as a logarithm.
    logs = [exponent * math.log(abs(ratio)) if ratio else -math.inf
            for _, ratio in terms]
    top = max(logs)
    total = sum(
        phase * (ratio / abs(ratio)) ** exponent * math.exp(log - top)
        for (phase, ratio), log in zip(terms, logs)
        if ratio
    )
    value = sign * ctx.q_pow(c * b) * total
    if not value:
        return 0.0 + 0.0j
    log_abs = (
        math.log(abs(value)) + top + genus * math.log(ctx.rprime) - math.log(ctx.r)
    )
    if log_abs >= math.log(sys.float_info.max):
        raise DomainError(
            f"the genus-{genus} value at beta={beta!r} has magnitude "
            f"e^{log_abs:.1f}, which overflows double precision"
        )
    return value / abs(value) * math.exp(log_abs)


# ----------------------------------------------------------------------
# Hochschild-homology route to the same histogram
# ----------------------------------------------------------------------


class _Cluster:
    """A partially contracted product of vertex multiplicity tensors.

    ``array`` has one axis per open edge slot plus a trailing degree axis;
    entries are integer multiplicities of the degree offsets.  ``slots``
    names the open edges in axis order; ``k_min`` anchors the degree axis.
    """

    def __init__(self, slots: list[str], array: np.ndarray, k_min: int):
        self.slots = slots
        self.array = array
        self.k_min = k_min


def _vertex_cluster(
    ctx: RootParams,
    graph: TrivalentGraph,
    vertex: str,
    reps: Mapping[str, np.ndarray],
    dtype,
) -> _Cluster:
    """Multiplicity tensor of one vertex in the algebra-slot convention.

    Outgoing internal edges contribute a projective slot (color +β for
    summand label β), ingoing edges the dual slot (−β); external edges
    contribute their fixed color with the same sign rule.  The color sums
    of all label tuples form one broadcast grid, and the entry at a label
    tuple is the one-hot histogram of its admissible degrees (two adjacent
    degrees for even r).  A loop's two signs cancel, so its label never
    enters the sum and its axis is summed out here, as a factor r'.
    """
    slot_signs: dict[str, float] = {}
    const = 0.0 + 0.0j
    for e in graph.edges:
        for end, sign in ((e.tail, +1.0), (e.head, -1.0)):
            if end != vertex:
                continue
            if e.is_external:
                const += sign * complex(e.color)
            else:
                slot_signs[e.name] = slot_signs.get(e.name, 0.0) + sign
    slots = [name for name, sign in slot_signs.items() if sign]
    loop_factor = math.prod(
        len(reps[name]) for name, sign in slot_signs.items() if not sign
    )
    shape = [len(reps[name]) for name in slots]
    s = np.asarray(const, dtype=complex)
    for i, name in enumerate(slots):
        ax = [1] * len(slots)
        ax[i] = shape[i]
        s = s + slot_signs[name] * reps[name].reshape(ax)
    s = np.broadcast_to(s, shape)
    if np.max(np.abs(s.imag), initial=0.0) > 1e-6:
        raise DomainError(
            "vertex color sum has a nonzero imaginary part; the edge "
            "gradings are inconsistent"
        )
    k = _degree_window(ctx, s.real)
    k_min = int(k.min())
    offset = (k - k_min)[..., None]
    degrees = np.arange(int(k.max()) - k_min + (1 if ctx.r % 2 else 2))
    onehot = degrees == offset
    if ctx.r % 2 == 0:
        onehot |= degrees == offset + 1
    array = onehot.astype(np.int64).astype(dtype) * loop_factor
    return _Cluster(slots, array, k_min)


def _merge_clusters(a: _Cluster, b: _Cluster) -> _Cluster:
    """Contract every edge two clusters share and convolve their degrees.

    One ``tensordot`` does both: the degree axis of the smaller operand is
    lifted to a Toeplitz band (``lift[..., k, i] = b[..., k − i]``), so
    summing a's degree index i against it together with the shared label
    axes yields the degree convolution.  The result keeps the larger
    operand's open slots, then the smaller's, then the degree axis.
    """
    if a.array.size < b.array.size:
        a, b = b, a
    shared = [name for name in a.slots if name in b.slots]
    ka, kb = a.array.shape[-1], b.array.shape[-1]
    # np.zeros, not np.pad: padding an object array inserts int64 zeros
    padded = np.zeros(b.array.shape[:-1] + (kb + 2 * ka - 2,), b.array.dtype)
    padded[..., ka - 1 : ka - 1 + kb] = b.array
    band = np.lib.stride_tricks.sliding_window_view(padded, ka, axis=-1)[..., ::-1]
    out = np.tensordot(
        a.array,
        band,
        axes=(
            [a.slots.index(name) for name in shared] + [a.array.ndim - 1],
            [b.slots.index(name) for name in shared] + [band.ndim - 1],
        ),
    )
    slots = [name for name in a.slots if name not in shared] + [
        name for name in b.slots if name not in shared
    ]
    return _Cluster(slots, out, a.k_min + b.k_min)


def hh0_dimension_generic(graph: TrivalentGraph) -> GradedDimension:
    """The degree histogram through zeroth Hochschild homology.

    At a generic grading the algebra of an internal edge is commutative
    semisimple, concentrated in degree 0, with one idempotent per window
    summand; the vertex multiplicity modules form a bimodule over the
    tensor product of these algebras, and passing to the quotient by
    commutators matches the idempotent labels across every edge.  No
    algebra or module is built: each vertex contributes its multiplicity
    tensor indexed by idempotent labels (:func:`_vertex_cluster`), and the
    quotient is the contraction of those tensors over shared labels
    (:func:`_merge_clusters`), never listing joint colorings.  Each step
    merges the two clusters that share an edge and whose result has the
    fewest label elements (the first such pair on ties), contracting all
    their shared edges in one step.  It finally mirrors the degree (the
    algebra-slot convention grades opposite to the coloring convention).
    A free circle contributes its algebra's own class, one degree-0
    idempotent per summand.  Graphs with an integral internal grading
    raise :class:`NonGenericError`.

    Counts are exact at any size: every partial contraction entry is at
    most the number of colorings, which is known in advance, so the
    tensors hold int64 below 2^63 colorings and Python integers above.
    """
    ctx = graph.ctx
    factor = 1
    for e in graph.circles:
        factor *= len(_color_reps(ctx, e.grading))
    reps = {
        e.name: _color_reps(ctx, e.grading)
        for e in graph.internal_edges
        if not e.is_circle
    }
    colorings = math.prod(len(rs) for rs in reps.values()) * factor
    if ctx.r % 2 == 0:
        colorings <<= len(graph.vertex_order)
    dtype = np.int64 if colorings < 2**63 else object
    clusters = [
        _vertex_cluster(ctx, graph, v, reps, dtype) for v in graph.vertex_order
    ]
    while True:
        best = None
        for i, a in enumerate(clusters):
            for j in range(i + 1, len(clusters)):
                b = clusters[j]
                if set(a.slots).isdisjoint(b.slots):
                    continue
                labels = math.prod(
                    len(reps[name]) for name in set(a.slots) ^ set(b.slots)
                )
                if best is None or labels < best[0]:
                    best = (labels, i, j)
        if best is None:
            break
        _, i, j = best
        clusters[i] = _merge_clusters(clusters[i], clusters[j])
        del clusters[j]
    coeffs = np.asarray([factor], dtype=object)
    k_min = 0
    for c in clusters:
        if c.slots:
            raise DomainError(
                f"cluster retains open slots {c.slots}; the graph is inconsistent"
            )
        coeffs = np.convolve(coeffs, c.array.astype(object))
        k_min += c.k_min
    mirrored = {
        -(k_min + i): int(v) for i, v in enumerate(coeffs) if v
    }
    return GradedDimension(mirrored, "plain" if ctx.r % 2 else "super")


# ----------------------------------------------------------------------
# builders
# ----------------------------------------------------------------------


def circle_graph(ctx: RootParams, grading: complex, name: str = "c0") -> TrivalentGraph:
    """The vertex-free circle spine of a torus (genus 1)."""
    return TrivalentGraph(ctx, (GraphEdge(name, None, None, grading),))


def theta_graph(
    ctx: RootParams, g1: complex, g2: complex, g3: complex | None = None
) -> TrivalentGraph:
    """Two vertices joined by three parallel edges (genus 2).

    With all edges oriented the same way the 1-cycle condition reads
    g1+g2+g3 ≡ 0 mod 2; g3 defaults to −g1−g2.
    """
    if g3 is None:
        g3 = -complex(g1) - complex(g2)
    return TrivalentGraph(
        ctx,
        (
            GraphEdge("e1", "u", "v", g1),
            GraphEdge("e2", "u", "v", g2),
            GraphEdge("e3", "v", "u", -complex(g3)),
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


def add_leg(
    graph: TrivalentGraph,
    edge_name: str,
    color: complex,
    leg_name: str | None = None,
    into: bool = True,
) -> TrivalentGraph:
    """Attach a marked point: subdivide an edge and hang an external leg.

    The host edge u→w splits at a new vertex x into u→x (old grading g)
    and x→w (grading g ± degree(color), signed by the leg orientation);
    ``into`` orients the leg toward x.  A lone marked point only yields a
    valid graph when its color has degree 0 mod 2 (the sum of all point
    meridians bounds, so a single point's degree is forced); points with
    generic colors come in compensating groups — see ``add_point_chain``.
    """
    ctx = graph.ctx
    host = next((e for e in graph.edges if e.name == edge_name), None)
    if host is None or host.is_external:
        raise DomainError(f"no internal edge named {edge_name!r}")
    leg = leg_name or f"p{sum(e.is_external for e in graph.edges)}"
    x = f"x_{leg}"
    c = complex(color)
    deg = c + (ctx.r - 1)
    g = complex(host.grading)
    others = tuple(e for e in graph.edges if e.name != edge_name)
    leg_edge = GraphEdge(
        leg, None if into else x, x if into else None, deg, color=c
    )
    if host.is_circle:
        new = (GraphEdge(f"{edge_name}.l", x, x, g), leg_edge)
    else:
        g2 = g + deg if into else g - deg
        new = (
            GraphEdge(f"{edge_name}.1", host.tail, x, g),
            GraphEdge(f"{edge_name}.2", x, host.head, g2),
            leg_edge,
        )
    return TrivalentGraph(ctx, others + new)


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
                _color_reps(ctx, e.grading)
        except NonGenericError:
            continue
        return graph
    raise DomainError("failed to draw a generic graph in 200 attempts")
