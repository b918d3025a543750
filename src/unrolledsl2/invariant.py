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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .diagram import (
    Cap,
    Cup,
    SlicedDiagram,
    clasp_diagram,
    cut_is_enclosed,
    evaluate_cut,
    typecheck,
    unknot_diagram,
    writhe_and_linking,
)
from .errors import (
    DomainError,
    NotComputableError,
    UnsupportedSlideError,
)
from .qscalar import RootParams
from .repcat import WeightModule, make_valpha, scalar_of, twist_scalar

__all__ = [
    "LinkingData",
    "SurgeryPresentation",
    "ZResult",
    "f_prime",
    "computability_check",
    "linking_data",
    "z_invariant",
    "handle_slide",
    "signature_pair_exact",
    "unknot_presentation",
    "graph_only_presentation",
    "s1_x_s2_presentation",
    "encircled_strand_presentation",
    "standard_two_component",
    "lens_unknot_presentation",
    "lens_chain_presentation",
]


# ----------------------------------------------------------------------
# renormalized link invariant
# ----------------------------------------------------------------------


def _first_cut_slice(
    diagram: SlicedDiagram, component: str, dims: dict[str, int]
) -> int:
    """The component's cheapest cup or cap that is not fenced in.

    Cutting at slice c keeps the cut component's two strand axes parked in
    the running tensor from c upward: a cut cup parks them as it opens, a
    cut cap as it would close.  The cost of a cut is the running-tensor size
    summed over the slices, i.e. the product of the strand dimensions
    ``dims`` of each word above a slice, times d² above a cut slice, d the
    cut component's dimension.  The cheapest cut wins and ties go to the
    earliest slice.  Cutting an enclosed extremum is not a planar move, so
    any cup/cap that :func:`cut_is_enclosed` rejects is skipped.
    """
    words = typecheck(diagram)
    sizes = [math.prod(dims[s.component] for s in word) for word in words[1:]]
    parked = dims[component] ** 2
    total = sum(sizes)
    above = total  # running-tensor size summed over slices c and higher
    costs = []
    for index, sl in enumerate(diagram.slices):
        if isinstance(sl, Cup):
            owner = sl.component
        elif isinstance(sl, Cap):
            owner = words[index][sl.position].component
        else:
            owner = None
        if owner == component:
            costs.append((total + (parked - 1) * above, index))
        above -= sizes[index]
    for _cost, index in sorted(costs):
        if not cut_is_enclosed(diagram, index):
            return index
    raise DomainError(
        f"component {component!r} has no cup or cap that can be cut open; "
        "re-slice the diagram with this component outermost"
    )


def _cut_color_alpha(module: WeightModule) -> complex:
    """The color α of a simple projective module V_α; DomainError otherwise."""
    label = module.label
    if label[0] == "V":
        return label[1]
    raise DomainError(
        f"cut component must be colored by a simple projective module V_α, "
        f"got {label!r}"
    )


def f_prime(
    diagram: SlicedDiagram,
    colors: dict,
    ctx: RootParams,
    cut_component: Optional[str] = None,
    cut_slice: Optional[int] = None,
    framings: Optional[dict] = None,
) -> complex:
    """Renormalized invariant of a closed colored diagram.

    Cuts ``cut_component`` (default: the first component carrying a simple
    projective color) open at ``cut_slice``, extracts the Schur scalar s of
    the resulting 1-1 tangle, and returns d(α)·s, times twist corrections
    θ**(framing − writhe) for every component with a declared framing.  An
    explicit ``cut_slice`` is honoured as given; by default the component is
    cut at its cheapest cup or cap that is not enclosed by other strands
    (see :func:`_first_cut_slice`).
    """
    words = typecheck(diagram)
    if words[0] or words[-1]:
        raise DomainError("renormalized invariant requires a closed diagram")
    resolved = {
        name: value if isinstance(value, WeightModule) else make_valpha(ctx, value)
        for name, value in colors.items()
    }
    names = diagram.component_names()
    missing = [name for name in names if name not in resolved]
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
        for name in names:
            if resolved[name].label[0] == "V":
                cut_component = name
                break
        if cut_component is None:
            raise DomainError("no component carries a simple projective color")
    alpha_cut = _cut_color_alpha(resolved[cut_component])
    if cut_slice is None:
        dims = {name: module.dim for name, module in resolved.items()}
        cut_slice = _first_cut_slice(diagram, cut_component, dims)
    else:
        sl = diagram.slices[cut_slice]
        if isinstance(sl, Cup):
            owner = sl.component
        elif isinstance(sl, Cap):
            owner = words[cut_slice][sl.position].component
        else:
            raise DomainError(f"cut slice {cut_slice} is not a cup or cap")
        if owner != cut_component:
            raise DomainError(
                f"cut slice {cut_slice} belongs to component {owner!r}, "
                f"not {cut_component!r}"
            )
    matrix, _module = evaluate_cut(diagram, resolved, ctx, cut_slice)
    s = scalar_of(matrix, ctx.tol)
    value = ctx.mdim(alpha_cut) * s
    if framings:
        writhes, _ = writhe_and_linking(diagram)
        for name, framing in framings.items():
            delta_f = framing - writhes.get(name, 0)
            if delta_f:
                label = resolved[name].label
                if label[0] != "V":
                    raise DomainError(
                        f"framing correction needs a simple color on {name!r}"
                    )
                value *= twist_scalar(ctx, label[1]) ** delta_f
    return value


# ----------------------------------------------------------------------
# surgery presentations
# ----------------------------------------------------------------------


@dataclass
class SurgeryPresentation:
    """A framed surgery link plus colored graph with meridian cohomology data.

    ``framings`` lists exactly the surgery components (L); ``colors`` lists
    exactly the graph components (T).  ``meridian_values`` holds a complex
    representative of the class on each L-meridian — which is also the lift
    used for that component's Kirby color — and may repeat the T values
    (degree of the color), which are validated.  ``defect`` is the integer n
    correcting the signature anomaly.
    """

    ctx: RootParams
    diagram: SlicedDiagram
    framings: dict[str, int]
    meridian_values: dict[str, complex]
    colors: dict = field(default_factory=dict)
    graph_framings: dict[str, int] = field(default_factory=dict)
    defect: int = 0
    family: Optional[tuple] = None

    def __post_init__(self):
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
        resolved = self.resolved_graph_colors()
        for name, module in resolved.items():
            given = self.meridian_values.get(name)
            if given is not None and not self.ctx.is_congruent_mod2(
                module.degree, given
            ):
                raise DomainError(
                    f"meridian value {given!r} on graph component {name!r} "
                    f"does not match its color degree {module.degree!r} mod 2"
                )

    def surgery_names(self) -> list[str]:
        return list(self.framings)

    def graph_names(self) -> list[str]:
        return list(self.colors)

    def resolved_graph_colors(self) -> dict[str, WeightModule]:
        return {
            name: value
            if isinstance(value, WeightModule)
            else make_valpha(self.ctx, value)
            for name, value in self.colors.items()
        }

    def graph_degree(self, name: str) -> complex:
        return complex(self.resolved_graph_colors()[name].degree)


@dataclass(frozen=True)
class LinkingData:
    """Linking matrix of the surgery link with its exact signature data."""

    components: tuple
    matrix: tuple  # tuple of tuples of ints
    p: int
    s: int
    nullity: int

    @property
    def sigma(self) -> int:
        return self.p - self.s

    @property
    def m(self) -> int:
        return len(self.components)


def signature_pair_exact(matrix: list[list[int]]) -> tuple[int, int, int]:
    """Exact (p, s, nullity) of a symmetric integer matrix.

    Symmetric congruence diagonalization over the rationals (Fraction
    arithmetic), so the counts of positive, negative and zero diagonal
    entries are exact.
    """
    n = len(matrix)
    m = [[Fraction(matrix[i][j]) for j in range(n)] for i in range(n)]
    p = s = nullity = 0
    for k in range(n):
        if m[k][k] == 0:
            swap = next((j for j in range(k + 1, n) if m[j][j] != 0), None)
            if swap is not None:
                m[k], m[swap] = m[swap], m[k]
                for row in m:
                    row[k], row[swap] = row[swap], row[k]
            else:
                other = next((j for j in range(k + 1, n) if m[k][j] != 0), None)
                if other is None:
                    nullity += 1
                    continue
                for t in range(n):
                    m[k][t] += m[other][t]
                for t in range(n):
                    m[t][k] += m[t][other]
        d = m[k][k]
        if d == 0:  # pragma: no cover - the repair above forces d != 0
            nullity += 1
            continue
        if d > 0:
            p += 1
        else:
            s += 1
        for i in range(k + 1, n):
            factor = m[i][k] / d
            if factor:
                for t in range(n):
                    m[i][t] -= factor * m[k][t]
                for t in range(n):
                    m[t][i] -= factor * m[t][k]
    return p, s, nullity


def linking_data(sp: SurgeryPresentation) -> LinkingData:
    """Linking matrix (framings on the diagonal) and its exact signature."""
    l_names = sp.surgery_names()
    _writhes, linking = writhe_and_linking(sp.diagram)
    n = len(l_names)
    matrix = [[0] * n for _ in range(n)]
    for i, a in enumerate(l_names):
        matrix[i][i] = int(sp.framings[a])
        for j in range(i + 1, n):
            b = l_names[j]
            value = linking.get(frozenset((a, b)), 0)
            matrix[i][j] = matrix[j][i] = value
    p, s, nullity = signature_pair_exact(matrix)
    return LinkingData(
        tuple(l_names), tuple(tuple(row) for row in matrix), p, s, nullity
    )


def _parallel_values(sp: SurgeryPresentation) -> dict[str, complex]:
    """The class evaluated on each preferred parallel of the surgery link."""
    l_names = sp.surgery_names()
    _writhes, linking = writhe_and_linking(sp.diagram)
    values: dict[str, complex] = {}
    for a in l_names:
        total = complex(sp.framings[a]) * complex(sp.meridian_values[a])
        for b in l_names:
            if b != a:
                total += linking.get(frozenset((a, b)), 0) * complex(
                    sp.meridian_values[b]
                )
        for t in sp.graph_names():
            lk_at = linking.get(frozenset((a, t)), 0)
            if lk_at:
                total += lk_at * sp.graph_degree(t)
        values[a] = total
    return values


def computability_failure(sp: SurgeryPresentation) -> Optional[str]:
    """None when the presentation is computable, else the violated condition."""
    ctx = sp.ctx
    l_names = sp.surgery_names()
    if not l_names:
        for name, module in sp.resolved_graph_colors().items():
            if not ctx.is_near_int(module.degree) or module.label[0] == "V":
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
    for name, value in _parallel_values(sp).items():
        if not ctx.is_congruent_mod2(value, 0.0):
            return (
                f"cohomology class does not vanish on the preferred parallel "
                f"of {name!r} (value {value!r} mod 2)"
            )
    return None


def computability_check(sp: SurgeryPresentation) -> bool:
    """True iff the Kirby-color surgery formula applies to this presentation."""
    return computability_failure(sp) is None


@dataclass(frozen=True)
class ZResult:
    """The surgery invariant with both normalization routes exposed.

    ``z`` is η λ**m δ**(−σ+n) F'_total; ``z_via_betti`` is η λ**b₁ δ**n N
    with N = F'_total / (Δ₊**p Δ₋**s).  The two must agree within tolerance
    on every computable presentation.
    """

    z: complex
    z_via_betti: complex
    n_invariant: complex
    f_prime_total: complex
    m: int
    p: int
    s: int
    sigma: int
    b1: int
    defect: int


def _fixed_cut(sp: SurgeryPresentation) -> tuple[str, int]:
    """Deterministic cut choice: first projective graph edge, else first L.

    Components whose every cup/cap is enclosed are skipped, so nesting the
    surgery circles around the graph edges stays legal as long as one
    component reaches the outside.  Within the chosen component the cut
    falls on its cheapest open cup or cap (:func:`_first_cut_slice`).
    """
    candidates = []
    graph_colors = sp.resolved_graph_colors()
    for name, module in graph_colors.items():
        if module.label[0] == "V":
            candidates.append(name)
    candidates.extend(sp.surgery_names())
    dims = {name: module.dim for name, module in graph_colors.items()}
    dims.update((name, sp.ctx.r) for name in sp.surgery_names())
    for name in candidates:
        try:
            return name, _first_cut_slice(sp.diagram, name, dims)
        except DomainError:
            continue
    raise DomainError(
        "no projective component offers a cut point that is not enclosed"
    )


def z_invariant(sp: SurgeryPresentation) -> ZResult:
    """The closed-3-manifold invariant of a computable surgery presentation.

    Expands every surgery component over its Kirby color (r**m terms),
    evaluates F' of each term at a fixed projective cut edge, applies
    framing corrections through twist scalars, and assembles both
    normalization routes.
    """
    ctx = sp.ctx
    failure = computability_failure(sp)
    if failure is not None:
        raise NotComputableError(failure)
    l_names = sp.surgery_names()
    m = len(l_names)
    data = linking_data(sp)
    writhes, _ = writhe_and_linking(sp.diagram)
    cut_name, cut_slice = _fixed_cut(sp)
    graph_colors = sp.resolved_graph_colors()
    lifts = {name: complex(sp.meridian_values[name]) for name in l_names}

    kirby_axes = [ctx.h_r_set() for _ in l_names]
    grids = np.meshgrid(*kirby_axes, indexing="ij") if l_names else []
    combos = (
        np.stack([g.ravel() for g in grids], axis=1)
        if l_names
        else np.zeros((1, 0), dtype=int)
    )

    # every Kirby color's module and every twist scalar a term needs is built
    # once per call up front; the terms only read them
    kirby_alphas = {name: [lifts[name] + k for k in ctx.h_r_set()] for name in l_names}
    modules = {
        alpha: make_valpha(ctx, alpha)
        for alphas in kirby_alphas.values()
        for alpha in alphas
    }
    thetas: dict[complex, complex] = {}
    for name in l_names:
        if sp.framings[name] - writhes.get(name, 0):
            thetas.update((a, twist_scalar(ctx, a)) for a in kirby_alphas[name])
    for name, framing in sp.graph_framings.items():
        if framing - writhes.get(name, 0):
            alpha = _cut_color_alpha(graph_colors[name])
            thetas[alpha] = twist_scalar(ctx, alpha)

    f_total: complex = 0.0
    for ks in combos:
        colors = dict(graph_colors)
        weight: complex = 1.0
        corr: complex = 1.0
        for name, k in zip(l_names, ks):
            alpha = lifts[name] + int(k)
            colors[name] = modules[alpha]
            weight *= ctx.mdim(alpha)
            delta_f = sp.framings[name] - writhes.get(name, 0)
            if delta_f:
                corr *= thetas[alpha] ** delta_f
        for name, framing in sp.graph_framings.items():
            delta_f = framing - writhes.get(name, 0)
            if delta_f:
                corr *= thetas[_cut_color_alpha(graph_colors[name])] ** delta_f
        matrix, _ = evaluate_cut(sp.diagram, colors, ctx, cut_slice)
        s_term = scalar_of(matrix, ctx.tol)
        cut_alpha = _cut_color_alpha(colors[cut_name])
        f_total += weight * corr * ctx.mdim(cut_alpha) * s_term

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
        family=("two_component", lk),
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

    Supported on the :func:`standard_two_component` family for the slides
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
    if not sp.family or sp.family[0] != "two_component":
        raise UnsupportedSlideError(
            "handle slides are implemented on the standard two-component "
            "family only"
        )
    names = sp.surgery_names()
    if {slide, over} != set(names) or slide == over:
        raise UnsupportedSlideError(
            f"slide/over must be the two surgery components {names}, got "
            f"({slide!r}, {over!r})"
        )
    lk = sp.family[1]
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


def unknot_presentation(
    ctx: RootParams, framing: int, meridian: complex, name: str = "L1", defect: int = 0
) -> SurgeryPresentation:
    """Surgery on a single 0-crossing unknot with the given framing."""
    return SurgeryPresentation(
        ctx=ctx,
        diagram=unknot_diagram(name),
        framings={name: framing},
        meridian_values={name: meridian},
        defect=defect,
    )


def graph_only_presentation(
    ctx: RootParams,
    diagram: SlicedDiagram,
    colors: dict,
    graph_framings: Optional[dict] = None,
    defect: int = 0,
) -> SurgeryPresentation:
    """A pair (S³, colored graph) with empty surgery link."""
    return SurgeryPresentation(
        ctx=ctx,
        diagram=diagram,
        framings={},
        meridian_values={},
        colors=colors,
        graph_framings=graph_framings or {},
        defect=defect,
    )


def s1_x_s2_presentation(ctx: RootParams, beta: complex) -> SurgeryPresentation:
    """S¹×S² with the class taking value β on the S¹ factor (0-framed unknot)."""
    return unknot_presentation(ctx, 0, beta)


def encircled_strand_presentation(
    ctx: RootParams, alpha: complex, framing: int = 1, lift_shift: int = 0
) -> SurgeryPresentation:
    """S³ via ±1-surgery on a circle encircling a V_α-colored unknot.

    The meridian value on the surgery circle is forced by the vanishing
    condition on its parallel: framing·c + degree(V_α) ≡ 0 mod 2.  The
    surgery inserts a ∓1 full twist on the strand through the circle, so
    the graph component declares framing ±1 to land on the 0-framed unknot:
    the pair is then (S³, 0-framed unknot_α) and Z must equal η·d(α) — the
    empty-surgery evaluation — whichever computable lift is chosen.
    """
    if framing not in (1, -1):
        raise DomainError("encircling presentation needs framing ±1")
    degree = alpha + ctx.r - 1
    c = -degree / framing + 2 * lift_shift
    # graph edge outermost so the fixed cut falls on it without enclosure
    diagram = clasp_diagram(1, comp_a="L1", comp_b="T1")
    return SurgeryPresentation(
        ctx=ctx,
        diagram=diagram,
        framings={"L1": framing},
        meridian_values={"L1": c, "T1": degree},
        colors={"T1": alpha},
        graph_framings={"T1": framing},
    )


def lens_unknot_presentation(
    ctx: RootParams, p: int, meridian: complex
) -> SurgeryPresentation:
    """The lens space L(p, 1) as p-surgery on the unknot."""
    return unknot_presentation(ctx, p, meridian)


def lens_chain_presentation(
    ctx: RootParams, f1: int, f2: int, meridians: tuple[complex, complex]
) -> SurgeryPresentation:
    """A two-component chain (Hopf link) with framings (f1, f2).

    Plumbing description of the lens space of order f1·f2 − 1 with
    continued-fraction parameter; e.g. (4, 2) gives the order-7 lens space
    with parameter 2.
    """
    return standard_two_component(ctx, 1, (f1, f2), meridians)
