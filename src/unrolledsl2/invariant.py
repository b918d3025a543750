"""Renormalized link invariant F' and the surgery invariants N and Z.

The renormalized invariant of a closed colored diagram is computed by
cutting one projective-colored component open: the resulting 1-1 tangle is a
scalar s times the identity (Schur), and F' = d(color) · s, corrected by
twist scalars when declared framings differ from the diagram's blackboard
writhes.

A closed 3-manifold is presented by a framed surgery link L (with a
cohomology value on each meridian) plus an embedded colored graph T.  When
the presentation is *computable* — every L-meridian value nonintegral and
the class vanishing on all preferred parallels, or L empty with an
admissible graph — the invariant is assembled from the Kirby-color
expansion: each L-component i takes colors V_{α_i+k} weighted by the
modified dimensions d(α_i+k) over k ∈ H_r, and

    Z = η λ**m δ**(−σ+n) Σ (Π d(α_i+k_i)) F'(term),

with m the number of surgery components, σ the linking-matrix signature and
n the integer framing defect.  The same data also evaluates through the
normalization N = F'_total / (Δ₊**p Δ₋**s) and Z = η λ**b₁ δ**n N; the two
routes share only the Kirby sum and must agree, which is exercised by the
test suite on every computable fixture.

The Kirby terms share the diagram, the cut and the slice sequence; only the
colors change.  :func:`z_invariant` therefore evaluates them on the term
axis of the diagram network, as many per pass as an element budget allows,
and sums the term values in the same order as a term-by-term loop would.
Both entry points raise DomainError, not numpy warnings, when an evaluation
leaves double range.
"""

from __future__ import annotations

import functools
import itertools
import numbers
from typing import Optional

import numpy as np

from .diagram import CompiledDiagram, clasp_diagram, compile_diagram, unknot_diagram
from .errors import (
    DomainError,
    NotComputableError,
    UnsupportedSlideError,
)
from .model import Coupon, SlicedDiagram
from .qscalar import Record, RootParams
from .repcat import (
    ModuleStack,
    scalar_of,
    scalars_of,
    tensor,
    twist_scalar,
    valpha_stack,
)

__all__ = [
    "LinkingData",
    "SurgeryPresentation",
    "ZResult",
    "f_prime",
    "linking_data",
    "z_invariant",
    "handle_slide",
    "signature_pair_exact",
    "unknot_presentation",
    "standard_two_component",
]


# ----------------------------------------------------------------------
# renormalized link invariant
# ----------------------------------------------------------------------


def _in_double_range(evaluate):
    """Run ``evaluate`` with numpy overflow, invalid values and division by
    zero raising, and report them as one DomainError (scoped to the call)."""

    @functools.wraps(evaluate)
    def run(*args, **kwargs):
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                return evaluate(*args, **kwargs)
        except FloatingPointError:
            raise DomainError("the evaluated tangle overflows double precision") from None

    return run


def _valpha_colors(ctx: RootParams, colors: dict) -> dict[str, ModuleStack]:
    """Each color α as the one-term stack V_α.  F' and Z color every
    component by a number α; anything else, a module too, is a DomainError."""
    stacks = {}
    for name, alpha in colors.items():
        if not isinstance(alpha, numbers.Number):
            raise DomainError(
                f"color of {name!r} must be a number α (for V_α), "
                f"got {type(alpha).__name__}"
            )
        stacks[name] = valpha_stack(ctx, (alpha,))
    return stacks


def _word_action(stacks: dict[str, ModuleStack], word: tuple) -> tuple:
    """E, F and H acting on the tensor product of a word's strands, per
    term: three arrays of shape (terms, d, d); on the empty word, the
    monoidal unit, they are 0."""
    if not word:
        zero = np.zeros((1, 1, 1), dtype=complex)
        return zero, zero, zero
    module = functools.reduce(
        tensor, (stacks[s.component] if s.up else stacks[s.component].dual for s in word))
    return module.action("e"), module.action("f"), module.weights[:, :, None] * np.eye(module.dim)


def _check_coupons(diagram: SlicedDiagram, stacks: dict[str, ModuleStack], tol: float) -> None:
    """DomainError unless every coupon's matrix M is a morphism for every
    term of ``stacks``: for X = E, F and H, the max-norm residual of
    M·ρ_in(X) − ρ_out(X)·M is at most tol·max(1, ‖M‖)·‖ρ(X)‖, ‖ρ(X)‖
    being the larger of the two actions' largest entries.  Schur's lemma
    holds for a morphism only, so a coupon that is not one is a bad input,
    not a failing Schur check.  Called once the contraction has checked
    each matrix's shape."""
    for index, sl in enumerate(diagram.slices):
        if not isinstance(sl, Coupon):
            continue
        m = np.asarray(sl.matrix, dtype=complex)
        size = max(1.0, float(np.abs(m).max(initial=0.0)))
        actions = zip("EFH", _word_action(stacks, sl.inputs), _word_action(stacks, sl.outputs))
        for name, x_in, x_out in actions:
            residual = np.abs(m @ x_in - x_out @ m).max(axis=(1, 2))
            norm = np.maximum(np.abs(x_in).max(axis=(1, 2)), np.abs(x_out).max(axis=(1, 2)))
            failing = np.flatnonzero(residual > tol * size * norm)
            if failing.size:
                k = failing[0]
                raise DomainError(
                    f"coupon at slice {index} is not a morphism: it fails to commute "
                    f"with {name} by {float(residual[k]):.3e} (allowed "
                    f"{float(tol * size * norm[k]):.3e})"
                )


@_in_double_range
def f_prime(
    diagram: SlicedDiagram,
    colors: dict,
    ctx: RootParams,
    cut_component: Optional[str] = None,
    framings: Optional[dict] = None,
) -> complex:
    """Renormalized invariant of a closed colored diagram.

    ``colors`` maps each component to a number α, coloring it by the
    simple projective module V_α.  Cuts ``cut_component`` (default: the
    first component) open at its last cup or cap that other strands do not
    enclose (:meth:`.CompiledDiagram.open_cut`), extracts the Schur scalar
    s of the resulting 1-1 tangle, and returns d(α)·s, times twist
    corrections θ**(framing − writhe) for every component with a declared
    framing.  Every open cut gives the same Schur scalar up to rounding;
    always taking the last one fixes the rounding, and cutting an enclosed
    extremum is not a planar move.
    """
    compiled = compile_diagram(diagram)
    if compiled.words[0] or compiled.words[-1]:
        raise DomainError("renormalized invariant requires a closed diagram")
    stacks = _valpha_colors(ctx, colors)
    names = compiled.names
    missing = [name for name in names if name not in stacks]
    if missing:
        raise DomainError(f"no color given for component {missing[0]!r}")
    unknown = [
        name
        for name in [cut_component, *(framings or {})]
        if name is not None and name not in names
    ]
    if unknown:
        raise DomainError(f"component {unknown[0]!r} is not in the diagram")
    if cut_component is None:
        if not names:
            raise DomainError("no component carries a simple projective color")
        cut_component = names[0]
    cut_slice = compiled.open_cut(cut_component)
    if cut_slice is None:
        raise DomainError(
            f"component {cut_component!r} has no cup or cap that can be cut open; "
            "re-slice the diagram with this component outermost"
        )
    network = compiled.cut(cut_slice)
    matrices = network.contract(stacks, diagram)
    _check_coupons(diagram, stacks, ctx.tol)
    s = scalar_of(matrices[0], ctx.tol)
    value = ctx.mdim(complex(colors[cut_component])) * s
    if framings:
        writhes, _ = compiled.writhe_and_linking
        for name, framing in framings.items():
            delta_f = framing - writhes.get(name, 0)
            if delta_f:
                value *= twist_scalar(ctx, complex(colors[name])) ** delta_f
    return value


# ----------------------------------------------------------------------
# surgery presentations
# ----------------------------------------------------------------------


class SurgeryPresentation(Record):
    """A framed surgery link plus colored graph with meridian cohomology data.

    ``framings`` lists exactly the surgery components (L); ``colors`` lists
    exactly the graph components (T), each colored by a number α (the
    simple projective module V_α).  ``meridian_values`` holds a complex
    representative of the class on each L-meridian — which is also the lift
    used for that component's Kirby color — and may repeat the T values
    (degree of the color), which are validated.  ``defect`` is the integer n
    correcting the signature anomaly.  The compiled diagram and the graph
    colors as module stacks are built once per presentation, on first use.
    """

    def __init__(self, ctx: RootParams, diagram: SlicedDiagram, framings: dict[str, int],
                 meridian_values: dict[str, complex], colors: dict | None = None,
                 graph_framings: dict[str, int] | None = None, defect: int = 0):
        self._set("ctx", ctx)
        self._set("diagram", diagram)
        self._set("framings", framings)
        self._set("meridian_values", meridian_values)
        self._set("colors", {} if colors is None else colors)
        self._set("graph_framings", {} if graph_framings is None else graph_framings)
        self._set("defect", defect)
        names = set(self.diagram.component_names())
        l_names = set(self.framings)
        t_names = set(self.colors)
        if set(self.graph_framings) - t_names:
            raise DomainError(
                f"graph framings {sorted(set(self.graph_framings) - t_names)} "
                f"do not name graph components"
            )
        if l_names & t_names:
            raise DomainError(
                f"components {sorted(l_names & t_names)} are both surgery and graph"
            )
        if l_names | t_names != names:
            raise DomainError(
                f"diagram components {sorted(names)} must be exactly the "
                f"surgery components {sorted(l_names)} plus graph components "
                f"{sorted(t_names)}"
            )
        missing = l_names - set(self.meridian_values)
        if missing:
            raise DomainError(f"missing meridian values for {sorted(missing)}")
        for name, module in self.graph_stacks.items():
            given = self.meridian_values.get(name)
            if given is not None and not self.ctx.is_congruent_mod2(
                module.degrees[0], given
            ):
                raise DomainError(
                    f"meridian value {given!r} on graph component {name!r} "
                    f"does not match its color degree {complex(module.degrees[0])!r} mod 2"
                )

    def surgery_names(self) -> list[str]:
        return list(self.framings)

    @functools.cached_property
    def compiled(self) -> CompiledDiagram:
        """The diagram's :func:`.diagram.compile_diagram`."""
        return compile_diagram(self.diagram)

    @functools.cached_property
    def graph_stacks(self) -> dict[str, ModuleStack]:
        """Each graph component's color α as the module V_α; shared by every
        caller, so it must not be modified."""
        return _valpha_colors(self.ctx, self.colors)


class LinkingData(Record):
    """Linking matrix of the surgery link with its exact signature data."""

    def __init__(self, matrix: tuple, p: int, s: int, nullity: int):
        self._set("matrix", matrix)  # tuple of tuples of ints
        self._set("p", p)
        self._set("s", s)
        self._set("nullity", nullity)

    @property
    def sigma(self) -> int:
        return self.p - self.s


def signature_pair_exact(matrix: list[list[int]]) -> tuple[int, int, int]:
    """Exact (p, s, nullity) of a symmetric integer matrix A.

    The characteristic polynomial det(λ·I − A) has integer coefficients,
    computed by the Faddeev–LeVerrier recursion, whose every division by k
    is exact.  A symmetric matrix has real eigenvalues only, so by
    Descartes' rule of signs the number p of positive ones is the number of
    sign changes of the coefficients; the nullity is the multiplicity of
    the root 0, and s the rest.
    """
    n = len(matrix)
    coefficients = [1]  # from λ^n down
    product = [[0] * n for _ in range(n)]  # A·M_(k−1), with M_0 = 0
    for k in range(1, n + 1):
        m = [[product[i][j] + coefficients[-1] * (i == j) for j in range(n)] for i in range(n)]
        product = [[sum(a * b for a, b in zip(row, col)) for col in zip(*m)] for row in matrix]
        coefficients.append(-sum(product[i][i] for i in range(n)) // k)
    nullity = n - max(i for i, c in enumerate(coefficients) if c)
    signs = [c > 0 for c in coefficients if c]
    p = sum(a != b for a, b in zip(signs, signs[1:]))
    return p, n - nullity - p, nullity


def linking_data(sp: SurgeryPresentation) -> LinkingData:
    """Linking matrix (framings on the diagonal) and its exact signature."""
    l_names = sp.surgery_names()
    _writhes, linking = sp.compiled.writhe_and_linking
    n = len(l_names)
    matrix = [[0] * n for _ in range(n)]
    for i, a in enumerate(l_names):
        matrix[i][i] = int(sp.framings[a])
        for j in range(i + 1, n):
            b = l_names[j]
            value = linking.get(frozenset((a, b)), 0)
            matrix[i][j] = matrix[j][i] = value
    p, s, nullity = signature_pair_exact(matrix)
    return LinkingData(tuple(tuple(row) for row in matrix), p, s, nullity)


def _parallel_values(
    sp: SurgeryPresentation, linking: dict, graph_colors: dict
) -> dict[str, complex]:
    """The class evaluated on each preferred parallel of the surgery link."""
    l_names = sp.surgery_names()
    values: dict[str, complex] = {}
    for a in l_names:
        total = complex(sp.framings[a]) * complex(sp.meridian_values[a])
        for b in l_names:
            if b != a:
                total += linking.get(frozenset((a, b)), 0) * complex(
                    sp.meridian_values[b]
                )
        for t, module in graph_colors.items():
            lk_at = linking.get(frozenset((a, t)), 0)
            if lk_at:
                total += lk_at * complex(module.degrees[0])
        values[a] = total
    return values


def computability_failure(sp: SurgeryPresentation) -> Optional[str]:
    """None when the presentation is computable, else the violated condition."""
    ctx = sp.ctx
    l_names = sp.surgery_names()
    if not l_names:
        if sp.colors:  # every graph color V_α is projective
            return None
        return (
            "empty surgery link and non-admissible graph: no nonintegral "
            "meridian value and no projective color"
        )
    for name in l_names:
        if ctx.is_near_int(sp.meridian_values[name]):
            return (
                f"meridian value {sp.meridian_values[name]!r} on surgery "
                f"component {name!r} is integral"
            )
    _writhes, linking = sp.compiled.writhe_and_linking
    for name, value in _parallel_values(sp, linking, sp.graph_stacks).items():
        if not ctx.is_congruent_mod2(value, 0.0):
            return (
                f"cohomology class does not vanish on the preferred parallel "
                f"of {name!r} (value {value!r} mod 2)"
            )
    return None


class ZResult(Record):
    """The surgery invariant with both normalization routes exposed.

    ``z`` is η λ**m δ**(−σ+n) F'_total; ``z_via_betti`` is η λ**b₁ δ**n N
    with N = F'_total / (Δ₊**p Δ₋**s).  The two must agree within tolerance
    on every computable presentation.
    """

    def __init__(self, z: complex, z_via_betti: complex, n_invariant: complex,
                 f_prime_total: complex, m: int, p: int, s: int, sigma: int, b1: int,
                 defect: int):
        self._set("z", z)
        self._set("z_via_betti", z_via_betti)
        self._set("n_invariant", n_invariant)
        self._set("f_prime_total", f_prime_total)
        self._set("m", m)
        self._set("p", p)
        self._set("s", s)
        self._set("sigma", sigma)
        self._set("b1", b1)
        self._set("defect", defect)


def _fixed_cut(sp: SurgeryPresentation) -> tuple[str, int]:
    """Deterministic cut choice: first graph edge, else first L.

    Components whose every cup/cap is enclosed are skipped, so nesting the
    surgery circles around the graph edges stays legal as long as one
    component reaches the outside.  Within the chosen component the cut
    falls on its last open cup or cap (:meth:`.CompiledDiagram.open_cut`).
    """
    for name in [*sp.colors, *sp.surgery_names()]:
        index = sp.compiled.open_cut(name)
        if index is not None:
            return name, index
    raise DomainError(
        "no projective component offers a cut point that is not enclosed"
    )


# element budget of one engine pass of z_invariant (see its docstring)
_PASS_ELEMENTS = 9 * 9**4


@_in_double_range
def z_invariant(sp: SurgeryPresentation) -> ZResult:
    """The closed-3-manifold invariant of a computable surgery presentation.

    Expands every surgery component over its Kirby color (r**m terms),
    evaluates F' of each term at a fixed projective cut edge, applies
    framing corrections through twist scalars, and assembles both
    normalization routes.

    The presentation's compiled diagram (:func:`.diagram.compile_diagram`,
    cached per diagram structure) gives its words, writhes, linking
    numbers, cut network and plan.  Each surgery component's r Kirby
    colors are built once, as one module stack, and the term weights
    Π d(α+k)·θ^(framing − writhe) times d(cut color) as one array.  Every
    pass of several terms contracts by the cut network's one route
    (:meth:`.diagram._Network.route`): its weight-sector layout when the
    network holds crossings only and its dense peak reaches
    ``diagram._SECTOR_MIN_PEAK`` elements per term (r ≥ 5 on the clasps and
    chains), else its dense plan; a pass of one term is dense.
    The r**m terms run in contiguous row-major passes of max(r,
    ``_PASS_ELEMENTS`` // peak) terms, peak being the most elements one
    term holds on that route, so the budget bounds the route's own peak.
    The budget 9·9⁴ (0.9 MiB) is the largest dense pass array of r terms
    per pass on the benchmark's surgery documents (r = 9); their padded
    sector blocks peak far lower (549 elements per term for the r = 9
    chain), so each of them runs in one pass.  A pass colors each component
    with its stack gathered at the pass's Kirby indices.  Every term passes
    its own Schur check on its full d×d matrix, and the term values are
    summed one by one in row-major order.
    """
    ctx = sp.ctx
    writhes, _ = sp.compiled.writhe_and_linking
    failure = computability_failure(sp)
    if failure is not None:
        raise NotComputableError(failure)
    l_names = sp.surgery_names()
    m = len(l_names)
    data = linking_data(sp)
    graph_colors = sp.graph_stacks
    cut_name, cut_slice = _fixed_cut(sp)
    network = sp.compiled.cut(cut_slice)

    # Kirby index of every term (row-major) and its weight
    index = np.array(list(itertools.product(range(ctx.r), repeat=m)), dtype=int)
    index = index.reshape(ctx.r**m, m)
    weights = np.ones(len(index), dtype=complex)
    for name, framing in sp.graph_framings.items():
        delta_f = framing - writhes.get(name, 0)
        if delta_f:
            weights *= twist_scalar(ctx, complex(sp.colors[name])) ** delta_f
    if cut_name in sp.colors:
        weights *= ctx.mdim(complex(sp.colors[cut_name]))
    stacks = []
    for j, name in enumerate(l_names):
        alphas = complex(sp.meridian_values[name]) + np.array(ctx.h_r_set())
        stacks.append(valpha_stack(ctx, alphas))
        mdims = np.array([ctx.mdim(a) for a in alphas])
        kirby = mdims
        delta_f = sp.framings[name] - writhes.get(name, 0)
        if delta_f:
            kirby = mdims * np.array([twist_scalar(ctx, a) for a in alphas]) ** delta_f
        weights *= kirby[index[:, j]]
        if name == cut_name:
            weights *= mdims[index[:, j]]

    route = network.route(graph_colors | dict(zip(l_names, stacks)), len(index))
    per_pass = max(ctx.r, _PASS_ELEMENTS // route.peak)
    scalars = np.empty(len(index), dtype=complex)
    for start in range(0, len(index), per_pass):
        rows = index[start : start + per_pass]
        colors: dict = dict(graph_colors)
        for j, name in enumerate(l_names):
            colors[name] = stacks[j].take(rows[:, j])
        values = network.contract(colors, sp.diagram)
        _check_coupons(sp.diagram, colors, ctx.tol)
        scalars[start : start + len(rows)] = scalars_of(values, ctx.tol)
    f_total = complex(np.cumsum(weights * scalars)[-1])

    lam, eta, delta, d_plus, d_minus = ctx.constants()
    n = sp.defect
    z_direct = eta * lam**m * delta ** (-data.sigma + n) * f_total
    n_inv = f_total / (d_plus**data.p * d_minus**data.s)
    z_betti = eta * lam**data.nullity * delta**n * n_inv
    return ZResult(
        z=z_direct,
        z_via_betti=z_betti,
        n_invariant=n_inv,
        f_prime_total=f_total,
        m=m,
        p=data.p,
        s=data.s,
        sigma=data.sigma,
        b1=data.nullity,
        defect=n,
    )


# ----------------------------------------------------------------------
# handle slides on the standard two-component family
# ----------------------------------------------------------------------


def standard_two_component(
    ctx: RootParams,
    lk: int,
    framings: tuple[int, int],
    meridians: tuple[complex, complex],
    names: tuple[str, str] = ("L1", "L2"),
    defect: int = 0,
) -> SurgeryPresentation:
    """Two 0-writhe surgery circles with the given linking number.

    The supported family for handle slides: the diagram is a (2, 2·lk)
    clasp, framings are bookkept integers, and the meridian values are the
    Kirby lifts.
    """
    diagram = clasp_diagram(lk, comp_a=names[0], comp_b=names[1])
    return SurgeryPresentation(
        ctx=ctx,
        diagram=diagram,
        framings={names[0]: framings[0], names[1]: framings[1]},
        meridian_values={names[0]: meridians[0], names[1]: meridians[1]},
        colors={},
        defect=defect,
    )


def handle_slide(
    sp: SurgeryPresentation, slide: str, over: str, reverse: bool = False
) -> SurgeryPresentation:
    """Slide surgery component ``slide`` across ``over`` (band sum).

    Component i = ``slide`` is replaced by the band sum of itself with a
    framed parallel copy of j = ``over``; the data transform is
    (f_i, lk) ↦ (f_i + f_j + 2·lk, lk + f_j) and (c_i, c_j) ↦
    (c_i, c_j − c_i).  ``reverse`` uses the opposite band,
    (f_i, lk) ↦ (f_i + f_j − 2·lk, lk − f_j), c_j ↦ c_j + c_i.  The
    represented decorated manifold is unchanged.

    Supported on the :func:`standard_two_component` family: two surgery
    components, no graph component, and the diagram
    :func:`.diagram.clasp_diagram` of their linking number, drawn with the
    components in framing order (so a presentation parsed from a document
    counts when its diagram is that clasp).  Of those, only the slides
    whose result the family can actually draw:

    * from a split base (lk = 0) the band sum with the framed parallel of
      j *is* the standard two-strand pattern with lk' = f_j, and
    * ``reverse`` with lk = f_j undoes such a band, landing back on the
      split diagram (the parallel copy cancels against the slid strand).

    A reverse slide from a split base produces the two-strand pattern with
    the slid circle traversed backwards; the returned presentation reorients
    it, which negates that component's meridian value and linking sign but
    leaves the decorated manifold unchanged.  Any other slide drags the band
    outside the two-strand pattern, so the diagram cannot realize it; those
    raise :class:`UnsupportedSlideError`.
    """
    names = sp.surgery_names()
    lk = sp.compiled.writhe_and_linking[1].get(frozenset(names), 0)
    if len(names) != 2 or sp.colors or sp.diagram != clasp_diagram(lk, *names):
        raise UnsupportedSlideError(
            "handle slides are implemented on the standard two-component "
            "family only"
        )
    if {slide, over} != set(names) or slide == over:
        raise UnsupportedSlideError(
            f"slide/over must be the two surgery components {names}, got "
            f"({slide!r}, {over!r})"
        )
    f_i, f_j = sp.framings[slide], sp.framings[over]
    c_i, c_j = sp.meridian_values[slide], sp.meridian_values[over]
    if reverse and lk == f_j:
        # undo a parallel band: the framed parallel of j cancels the slid
        # strand and the diagram splits
        new_lk, new_f_i = 0, f_i - f_j
        new_c_i, new_c_j = c_i, c_j + c_i
    elif not reverse and lk == 0:
        # band-sum a split component with the framed parallel of j
        new_lk, new_f_i = f_j, f_i + f_j
        new_c_i, new_c_j = c_i, c_j - c_i
    elif reverse and lk == 0:
        # band with the reversed parallel; reorient the slid circle to draw
        # the result in the standard pattern (meridian value flips sign)
        new_lk, new_f_i = f_j, f_i + f_j
        new_c_i, new_c_j = -c_i, c_j + c_i
    else:
        raise UnsupportedSlideError(
            "the two-strand diagram cannot realize this band: sliding over a "
            f"component with framing {f_j} at linking number {lk} leaves the "
            "standard two-component family (supported: lk = 0, or reverse "
            "slides with lk equal to the framing of the over-component)"
        )
    framings = {slide: new_f_i, over: f_j}
    meridians = {slide: new_c_i, over: new_c_j}
    order = tuple(names)
    return standard_two_component(
        sp.ctx,
        new_lk,
        (framings[order[0]], framings[order[1]]),
        (meridians[order[0]], meridians[order[1]]),
        names=order,
        defect=sp.defect,
    )


# ----------------------------------------------------------------------
# fixture presentations
# ----------------------------------------------------------------------


def unknot_presentation(ctx: RootParams, framing: int, meridian: complex) -> SurgeryPresentation:
    """Surgery on a single 0-crossing unknot ``L1`` with the given framing."""
    return SurgeryPresentation(
        ctx=ctx,
        diagram=unknot_diagram("L1"),
        framings={"L1": framing},
        meridian_values={"L1": meridian},
    )
