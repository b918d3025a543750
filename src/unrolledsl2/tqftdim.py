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
  colorings, and is exact at any size (float64 on BLAS below 2^53
  colorings, then int64, then Python integers);
* from the dense grid of all colorings (:func:`graded_dimension`), whose
  memory grows as r'^E in the number E of edges; it is the small-size
  oracle that the self-test and the test suite compare the contraction
  against;
* the closed form (:func:`verlinde`), which the histogram reproduces when
  evaluated at t = q^(2r'β), with a supersign for even r.

The grid and the contraction share the color windows and the incidence
table (:attr:`TrivalentGraph.incidence`), and each keeps its own degree
arithmetic: the grid reads degrees off float color sums
(:func:`_degree_window`), the contraction from integer label offsets, so
each checks the other's.

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
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .errors import DomainError, NonGenericError
from .planner import UnionFind, greedy_order, require_memory
from .qscalar import RootParams

_EPS = sys.float_info.epsilon

__all__ = [
    "GraphEdge",
    "TrivalentGraph",
    "GradedDimension",
    "graded_dimension",
    "verlinde",
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
    the ordering of trivalent vertices that a basis needs for even r; the
    grid and the contraction both iterate vertices in that order.
    ``incidence`` is the signed incidence table both read: per vertex, its
    three ``(edge, sign)`` entries in edge order, +1 where the edge enters
    (its head) and −1 where it leaves (its tail), a loop once with each
    sign.  Construction validates the 1-cycle condition from it: at every
    internal vertex the signed sum of incident gradings vanishes mod 2,
    which is what makes the class well defined, and external colors must
    have degree equal to their edge grading.  A grading or color with a
    part of size 2^23 or more is a DomainError: doubles there are spaced
    wider than ``epsilon_int``, so its class mod 2 cannot be decided.
    """

    ctx: RootParams
    edges: tuple[GraphEdge, ...]
    vertex_order: tuple[str, ...] = ()
    incidence: Mapping[str, tuple[tuple[GraphEdge, int], ...]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
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
        for v, ends in table.items():
            if len(ends) != 3:
                raise DomainError(f"vertex {v!r} has {len(ends)} incidences, need 3")
        if self.vertex_order:
            if sorted(self.vertex_order) != sorted(table):
                raise DomainError(
                    "vertex_order must be a permutation of the internal vertices"
                )
        else:
            object.__setattr__(self, "vertex_order", tuple(sorted(table)))
        ctx = self.ctx
        for e in self.edges:
            for what, x in (("grading", e.grading), ("color", e.color)):
                z = complex(x or 0)
                if math.ulp(max(abs(z.real), abs(z.imag))) > ctx.epsilon_int:
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
        table = {v: tuple(ends) for v, ends in table.items()}
        object.__setattr__(self, "incidence", table)

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
        uf = UnionFind()
        ids = {v: uf.make() for v in self.vertex_order}
        arcs = [e for e in self.internal_edges if not e.is_circle]
        for e in arcs:
            uf.union(ids[e.tail], ids[e.head])
        components = len({uf.find(i) for i in ids.values()})
        # every vertex-free circle is its own component with Betti number 1
        return len(arcs) - len(ids) + components + len(self.circles)


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


def _window_low(ctx: RootParams, grading: complex) -> complex:
    """Lowest in-window color of a nonintegral edge grading.

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
    count = math.floor((hi - base.real) / 2.0) - m_min + 1
    if count != ctx.rprime:
        raise DomainError(
            f"internal error: {count} window representatives for grading {g}"
        )
    return base + 2.0 * m_min


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
    residual = np.abs(s - shifted - two_rp * k).max(initial=0.0)
    if residual > 1e-6:
        raise DomainError(
            f"vertex color sums are off the admissible lattice by {residual:g}; "
            "the edge gradings are inconsistent"
        )
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
    without points the prefactors collapse to (1/r)(r')^g.  A DomainError
    when an a-priori bound on its rounding exceeds tol·max(1, |value|) (a
    zero tol, which no bound meets, stands for the default 1e-9).
    """
    points = [complex(c) for c in point_colors]
    if genus < 0:
        raise DomainError(f"genus must be nonnegative, got {genus}")
    b = complex(beta)
    if ctx.is_near_int(b):
        raise DomainError(f"beta={beta!r} is integral; the closed form needs a "
                          "nonintegral class")
    n, c = len(points), sum(points)
    try:
        num, overflow = ctx.q_num(ctx.r * b), None
    except DomainError as exc:  # {rβ} leaves double range: see _far_ratio
        num, overflow = None, exc
    exponent = 2 * genus - 2 + n
    terms, errors = [], []  # each term's own rounding; that of {rβ}^e is common
    for k in ctx.h_r_set():
        if num is None:
            ratio, error = _far_ratio(ctx, b, k), _q_error(ctx, (ctx.r - 1) * b - k)
        else:
            ratio, error = num / (den := ctx.q_num(b + k)), _q_error(ctx, b + k, den)
        terms.append((ctx.q_pow(c * k), ratio))
        errors.append(_q_error(ctx, c * k) + abs(exponent) * (error + 4 * _EPS) + 2 * ctx.r * _EPS)
    common = _q_error(ctx, c * b) + 4 * _EPS
    if num is not None:
        common += abs(exponent) * _q_error(ctx, ctx.r * b, num)
    sign = -1.0 if (n * (ctx.r - 1)) % 2 else 1.0
    if num is not None:
        try:
            total, spread = 0.0 + 0.0j, 0.0
            for (phase, ratio), error in zip(terms, errors):
                total += (term := phase * ratio**exponent)
                spread += abs(term) * error
            value = sign / ctx.r * ctx.rprime**genus * (pre := ctx.q_pow(c * b)) * total
        except OverflowError:
            value = complex(math.inf)
        if cmath.isfinite(value):
            _check_rounding(ctx, genus, beta, pre, total, spread, common, 0.0)
            return value
        terms = [(phase, ratio and (math.log(abs(ratio)), ratio / abs(ratio)))
                 for phase, ratio in terms]
    elif not all(math.isfinite(ratio[0]) for _, ratio in terms):
        raise overflow
    # Some factor left double range: redo the sum with every power divided
    # by the largest one, and keep the scale as a logarithm.  Each ratio is
    # now (log |ratio|, ratio / |ratio|), or 0.
    logs = [exponent * ratio[0] if ratio else -math.inf for _, ratio in terms]
    top = max(logs)
    if top == math.inf:  # a term's scale itself leaves double range
        raise DomainError(f"the genus-{genus} value at beta={beta!r} overflows "
                          "double precision")
    total, spread = 0.0 + 0.0j, 0.0
    for (phase, ratio), log, error in zip(terms, logs, errors):
        if ratio:
            total += (term := phase * ratio[1] ** exponent * math.exp(log - top))
            spread += abs(term) * error
    value = sign * (pre := ctx.q_pow(c * b)) * total
    _check_rounding(ctx, genus, beta, pre, total, spread, common + _EPS * abs(top), top)
    if not value:
        return 0.0 + 0.0j
    log_abs = math.log(abs(value)) + top + genus * math.log(ctx.rprime) - math.log(ctx.r)
    if log_abs >= math.log(sys.float_info.max):
        raise DomainError(
            f"the genus-{genus} value at beta={beta!r} has magnitude "
            f"e^{log_abs:.1f}, which overflows double precision"
        )
    return value / abs(value) * math.exp(log_abs)


def _q_error(ctx: RootParams, x: complex, brace=None) -> float:
    """A bound on the relative rounding of q**x (its argument iπx/r is off by
    a few ulps, the exponential by one more); given the computed {x} as
    ``brace``, that of {x}: times the cancellation (|q**x| + |q**(−x)|)/|{x}|.
    For real x the two powers are conjugate, so {x} is 2i·sin θ̂ exactly,
    θ̂ the rounded θ = πx/r: sin's own rounding and θ̂'s times |θ·cot θ|."""
    if brace is not None and not x.imag:
        theta = math.pi * x.real / ctx.r
        return _EPS * (2 + 4 * abs(theta * math.cos(theta) / (brace.imag / 2)))
    error = _EPS * (2 + 4 * math.pi * abs(x) / ctx.r)
    if brace is None:
        return error
    return error * math.cosh(math.pi * x.imag / ctx.r) / abs(brace / 2) + _EPS


def _check_rounding(ctx, genus, beta, pre, total, spread, common, top) -> None:
    """DomainError unless the value ±(r')^g/r·e^top·pre·total is known to
    within tol·max(1, |value|).  ``spread`` bounds the rounding of ``total``
    term by term, ``common`` is the relative error shared by all terms, and
    ``pre`` = q**(cβ) and the product may each underflow by a subnormal."""
    tiny, tol = 5e-324, ctx.tol or RootParams.tol
    bound = (abs(pre) + tiny) * (spread + abs(total) * common) + tiny * (abs(total) + 1)
    log_scale = top + genus * math.log(ctx.rprime) - math.log(ctx.r)
    log_value = math.log(size) + log_scale if (size := abs(pre * total)) else -math.inf
    if math.log(bound) + log_scale > math.log(tol) + max(0.0, log_value):
        raise DomainError(f"the genus-{genus} value at beta={beta!r} is lost to rounding "
                          "in double precision")


def _far_ratio(ctx: RootParams, b: complex, k: int) -> tuple[float, complex]:
    """(log |{rβ}/{β+k}|, the ratio's phase) where |Im β| puts {rβ} out of
    double range.  With σ the sign of Im β the ratio is
    q^(−σ((r−1)β−k))·(1−q^(2σrβ))/(1−q^(2σ(β+k))), whose powers of q in
    the last factor are tiny."""
    sigma = 1 if b.imag > 0 else -1
    x = -sigma * ((ctx.r - 1) * b - k)
    factor = (1 - ctx.q_pow(2 * sigma * ctx.r * b)) / (1 - ctx.q_pow(2 * sigma * (b + k)))
    log = -math.pi * x.imag / ctx.r + math.log(abs(factor))
    return log, cmath.exp(1j * math.pi * x.real / ctx.r) * factor / abs(factor)


# ----------------------------------------------------------------------
# Hochschild-homology route to the same histogram
# ----------------------------------------------------------------------


class _Cluster(NamedTuple):
    """A partially contracted product of vertex multiplicity tensors.

    ``array`` has one axis per open edge slot plus a trailing degree axis;
    entries are integer multiplicities of the degree offsets.  ``slots``
    names the open edges in axis order; ``k_min`` anchors the degree axis.
    """

    slots: list[str]
    array: np.ndarray
    k_min: int


def _vertex_cluster(
    ctx: RootParams,
    ends: Iterable[tuple[GraphEdge, int]],
    lows: Mapping[str, complex],
    dtype,
    held: int,
) -> _Cluster:
    """Multiplicity tensor of one vertex in the algebra-slot convention.

    ``ends`` is the vertex's row of :attr:`TrivalentGraph.incidence`, whose
    signs this convention negates: σ_e = +1 for an outgoing edge (a
    projective slot, color +β for label β), −1 for an ingoing one (the dual
    slot), summed per internal edge; const sums the external colors times
    σ.  Label i_e < r' is the color low_e + 2i_e, so c = const + Σσ_e·low_e
    + r−1 must be an even integer 2h (checked once), and the label tuple's
    lowest admissible degree is ⌊(h + Σσ_e·i_e) / r'⌋ (less one for even
    r, which admits that degree and the next).  Each entry is the row of an
    identity band that one-hot encodes those degrees.  A loop's signs
    cancel: its axis is summed out, a factor r'.  The tensor and its three
    int64 label arrays, on top of the ``held`` bytes already live, are
    charged through :func:`.planner.require_memory` before any is built.
    """
    slot_signs: dict[str, int] = {}
    const = 0j
    for e, sign in ends:
        if e.is_external:
            const -= sign * complex(e.color)
        else:
            slot_signs[e.name] = slot_signs.get(e.name, 0) - sign
    slots = [name for name, sign in slot_signs.items() if sign]
    loop_factor = ctx.rprime ** (len(slot_signs) - len(slots))
    c = const + sum(slot_signs[n] * lows[n] for n in slots) + (ctx.r - 1)
    if not abs(c.imag) <= 1e-6:
        raise DomainError("vertex color sum has a nonzero imaginary part; the "
                          "edge gradings are inconsistent")
    h = round(c.real / 2) if math.isfinite(c.real) else 0
    if not (residual := abs(c.real - 2 * h)) <= 1e-6:
        raise DomainError(f"vertex color sums are off the admissible lattice by "
                          f"{residual:g}; the edge gradings are inconsistent")
    base, offset = divmod(h, ctx.rprime)  # base may exceed int64; offset < r'
    top = ctx.rprime - 1  # the largest label
    lo = (offset - top * sum(slot_signs[n] < 0 for n in slots)) // ctx.rprime
    hi = (offset + top * sum(slot_signs[n] > 0 for n in slots)) // ctx.rprime
    width = hi - lo + 2 - ctx.r % 2  # the degree axis
    cells = ctx.rprime ** len(slots)
    require_memory(held + cells * (24 + width * np.dtype(dtype).itemsize),
                   "an HH0 vertex tensor")
    labels, steps = np.asarray(offset), np.arange(ctx.rprime)
    for n in slots:
        labels = np.add.outer(labels, slot_signs[n] * steps)
    k = labels // ctx.rprime
    band = np.eye(width, dtype=dtype)
    if ctx.r % 2 == 0:
        band = band[:-1] + band[1:]
    return _Cluster(slots, (band * loop_factor)[k - lo], base + lo - 1 + ctx.r % 2)


def _merge_clusters(a: _Cluster, b: _Cluster, held: int) -> _Cluster:
    """Contract every edge two clusters share and convolve their degrees.

    One matrix product does both: the larger operand a becomes a (free,
    shared·degree) matrix and the smaller one a Toeplitz band
    ``band[s, i, f, k] = b[f, s, k − i]`` built in ka slice copies.  The
    result keeps a's open slots, then b's, then the degree axis.  It is
    exact in every dtype tier; the float64 one (below 2^53 colorings, see
    :func:`hh0_dimension_generic`) runs on BLAS.  The transposed copies of
    both operands, the band and the result, on top of the ``held`` bytes
    already live (the operands among them), are charged through
    :func:`.planner.require_memory` before any is built.
    """
    if a.array.size < b.array.size:
        a, b = b, a
    shared = [name for name in a.slots if name in b.slots]
    free_a = [name for name in a.slots if name not in shared]
    free_b = [name for name in b.slots if name not in shared]
    ka, kb = a.array.shape[-1], b.array.shape[-1]
    lhs = a.array.transpose([a.slots.index(n) for n in free_a + shared] + [-1])
    rhs = b.array.transpose([b.slots.index(n) for n in shared + free_b] + [-1])
    n_shared = math.prod(rhs.shape[: len(shared)])
    shape = lhs.shape[: len(free_a)] + rhs.shape[len(shared) : -1] + (ka + kb - 1,)
    band_cells = b.array.size // kb * ka * (ka + kb - 1)
    require_memory(held + a.array.nbytes + b.array.nbytes
                   + b.array.itemsize * (band_cells + math.prod(shape)), "an HH0 merge")
    rhs = rhs.reshape(n_shared, -1, kb)
    band = np.zeros((n_shared, ka, rhs.shape[1], ka + kb - 1), b.array.dtype)
    for i in range(ka):
        band[:, i, :, i : i + kb] = rhs
    out = lhs.reshape(-1, n_shared * ka) @ band.reshape(n_shared * ka, -1)
    return _Cluster(free_a + free_b, out.reshape(shape), a.k_min + b.k_min)


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
    (:func:`_merge_clusters`), never listing joint colorings.  The merge
    order is the shared greedy plan (:func:`.planner.greedy_order`): each
    step merges the two clusters that share an edge and whose result has
    the fewest label elements (the first such pair on ties), contracting
    all their shared edges in one step.  It finally mirrors the degree (the
    algebra-slot convention grades opposite to the coloring convention).
    A free circle contributes its algebra's own class, one degree-0
    idempotent per summand.  Graphs with an integral internal grading
    raise :class:`NonGenericError`.

    Counts are exact at any size: every partial entry, and every product
    and partial sum a merge forms, is a nonnegative integer at most the
    number of colorings, known in advance.  The tensors hold float64 below
    2^53 colorings (exact, and merged on BLAS), int64 below 2^63 and
    Python integers above.  Each vertex tensor and each merge is charged,
    with every array still live, against physical memory before it is
    built, so a contraction that cannot fit is a MemoryError up front.
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
    live, held = {}, 0  # the clusters, and the bytes of their arrays
    for i, v in enumerate(graph.vertex_order):
        live[i] = _vertex_cluster(ctx, graph.incidence[v], lows, dtype, held)
        held += live[i].array.nbytes
    dims = dict.fromkeys(lows, ctx.rprime)
    order, _peak = greedy_order([c.slots for c in live.values()], dims)
    for i, j in order:
        a, b = live[i], live.pop(j)
        live[i] = _merge_clusters(a, b, held)
        held += live[i].array.nbytes - a.array.nbytes - b.array.nbytes
    coeffs = np.asarray([ctx.rprime ** len(graph.circles)], dtype=object)
    k_min = 0
    for c in live.values():
        if c.slots:
            raise DomainError(
                f"cluster retains open slots {c.slots}; the graph is inconsistent"
            )
        coeffs = np.convolve(coeffs, c.array.astype(object))
        k_min += c.k_min
    mirrored = {-(k_min + i): int(v) for i, v in enumerate(coeffs) if v}
    return GradedDimension(mirrored, "plain" if ctx.r % 2 else "super")


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
