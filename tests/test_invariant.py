"""Surgery layer: renormalized link invariant and the 3-manifold invariant."""

import itertools
import pathlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from cuts import cut_matrices

from unrolledsl2 import diagram as diagram_module
from unrolledsl2 import invariant
from unrolledsl2.diagram import (
    braid_closure,
    clasp_diagram,
    compile_diagram,
    unknot_diagram,
)
from unrolledsl2.errors import (
    DomainError,
    NotComputableError,
    UnsupportedSlideError,
)
from unrolledsl2.invariant import (
    SurgeryPresentation,
    _fixed_cut,
    computability_failure,
    encircled_strand_presentation,
    f_prime,
    handle_slide,
    linking_data,
    signature_pair_exact,
    standard_two_component,
    unknot_presentation,
    z_invariant,
)
from unrolledsl2.jsonio import load_document
from unrolledsl2.model import (
    Braid,
    Cap,
    Coupon,
    Cup,
    SlicedDiagram,
    Strand,
    parse_flink,
    parse_surgery,
)
from unrolledsl2.qscalar import RootParams
from unrolledsl2.repcat import scalar_of, twist, twist_scalar, valpha_stack

@pytest.fixture(params=[2, 3, 5], ids=lambda r: f"r{r}")
def ctx(request):
    return RootParams(request.param)


def _generic(rng):
    while True:
        v = float(rng.uniform(0.1, 1.9))
        if abs(v - round(v)) > 0.05:
            return v


# ----------------------------------------------------------------------
# renormalized link invariant
# ----------------------------------------------------------------------


def test_fprime_unknot_is_modified_dimension(ctx):
    rng = np.random.default_rng(2)
    a = _generic(rng)
    value = f_prime(unknot_diagram("K"), {"K": a}, ctx)
    assert abs(value - ctx.mdim(a)) < 1e-10


def test_fprime_requires_closed_diagram(ctx):
    open_d = SlicedDiagram((Braid(0, 1),), (Strand("K", True), Strand("K", True)))
    with pytest.raises(DomainError):
        f_prime(open_d, {"K": 0.4}, ctx)


def test_fprime_missing_color_is_domain_error(ctx):
    with pytest.raises(DomainError):
        f_prime(clasp_diagram(1, "A", "B"), {"B": 0.3}, ctx, cut_component="B")
    with pytest.raises(DomainError):
        f_prime(clasp_diagram(1, "A", "B"), {"B": 0.3}, ctx)


@pytest.mark.parametrize("kind", ["module", "sequence"])
def test_module_colors_are_domain_errors(ctx, kind):
    # F' and Z color by numbers α; a module (or a list of them) is refused
    module = valpha_stack(ctx, (0.4,))
    color = module if kind == "module" else [module, module]
    with pytest.raises(DomainError, match="must be a number"):
        f_prime(unknot_diagram("K"), {"K": color}, ctx)
    with pytest.raises(DomainError, match="must be a number"):
        SurgeryPresentation(ctx, unknot_diagram("T1"), {}, {}, {"T1": color})


def test_fprime_hopf_closed_form(ctx):
    rng = np.random.default_rng(3)
    a, b = _generic(rng), _generic(rng)
    for lk in (1, -1):
        value = f_prime(
            clasp_diagram(lk, "A", "B"), {"A": a, "B": b}, ctx, cut_component="B"
        )
        predicted = (-1) ** (ctx.r - 1) * ctx.r * ctx.q_pow(lk * a * b)
        assert abs(value - predicted) < 1e-9


CLASP_ORACLE_LKS = {2: (1, -1, 2, -3), 3: (1, -1, 2, -3), 5: (1, -1, 2, -3),
                    7: (1, -1, 2, -2, -3), 9: (1, -1, 2, -2)}


@pytest.mark.parametrize("r", list(CLASP_ORACLE_LKS), ids=lambda r: f"r{r}")
def test_fprime_clasp_matches_twist_eigenvalue_oracle(r):
    # independent oracle: V_a ⊗ V_b decomposes into the simples V_{a+b+k},
    # k in the weight set, and the double braiding acts on each summand by
    # the ratio of twist eigenvalues; 2·lk half-twists close to
    # sum_k d(a+b+k) (theta_{a+b+k} / (theta_a theta_b))^lk
    ctx = RootParams(r)
    rng = np.random.default_rng(4)
    a, b = _generic(rng), _generic(rng)
    th_a, th_b = twist_scalar(ctx, a), twist_scalar(ctx, b)
    for lk in CLASP_ORACLE_LKS[r]:
        oracle = sum(
            ctx.mdim(a + b + k) * (twist_scalar(ctx, a + b + k) / (th_a * th_b)) ** lk
            for k in ctx.h_r_set()
        )
        value = f_prime(
            clasp_diagram(lk, "A", "B"), {"A": a, "B": b}, ctx, cut_component="B"
        )
        assert abs(value - oracle) < 1e-8 * (1 + abs(oracle))


def test_negative_crossings_invert_no_matrix(monkeypatch):
    # a negative crossing is built in closed form, never by a linear solve
    ctx = RootParams(5)
    cases = [
        (clasp_diagram(-2, "A", "B"), {"A": 2.0 / 7, "B": -5.0 / 11}),
        (braid_closure(*KNOT_WORDS["figure8_3"], "K"), {"K": 2.0 / 7}),
    ]
    expected = [f_prime(diagram, colors, ctx) for diagram, colors in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("matrix inversion on the crossing path")

    monkeypatch.setattr(np.linalg, "inv", refuse)
    monkeypatch.setattr(np.linalg, "solve", refuse)
    for (diagram, colors), value in zip(cases, expected):
        assert f_prime(diagram, colors, ctx) == value


def test_fprime_unlink_vanishes(ctx):
    d = SlicedDiagram(
        (
            Cup(0, "A", "coev"),
            Cap(0, "evprime"),
            Cup(0, "B", "coev"),
            Cap(0, "evprime"),
        )
    )
    value = f_prime(d, {"A": 0.4, "B": 0.7}, ctx, cut_component="A")
    assert abs(value) < 1e-10


def test_fprime_knot_slicing_independence(ctx):
    rng = np.random.default_rng(7)
    a = _generic(rng)
    tre_two = braid_closure([(0, 1)] * 3, 2, "K")
    tre_three = braid_closure([(0, 1), (1, 1)] * 2, 3, "K")
    va = f_prime(tre_two, {"K": a}, ctx, framings={"K": 0})
    vb = f_prime(tre_three, {"K": a}, ctx, framings={"K": 0})
    assert abs(va - vb) < 1e-9 * (1 + abs(va))


def _open_cuts(diagram, component):
    """Every cup and cap of ``component`` that is not enclosed."""
    compiled = compile_diagram(diagram)
    words = compiled.words
    out = []
    for index, sl in enumerate(diagram.slices):
        if isinstance(sl, Cup):
            owner = sl.component
        elif isinstance(sl, Cap):
            owner = words[index][sl.position].component
        else:
            continue
        if owner == component and not compiled.enclosed(index):
            out.append(index)
    return out


KNOT_WORDS = {
    "torus2_3": ([(0, 1)] * 3, 2),
    "torus2_5": ([(0, 1)] * 5, 2),
    "trefoil3": ([(0, 1), (1, 1), (0, 1), (1, 1)], 3),
    "figure8_3": ([(0, 1), (1, -1), (0, 1), (1, -1)], 3),
}
CUT_CASES = [f"clasp{lk:+d}" for lk in (1, -1, 2, -2)] + list(KNOT_WORDS)


def _f_prime_at(diagram, colors, ctx, component, cut):
    """F' with ``component`` cut open at slice ``cut``: d(α)·s, with s the
    Schur scalar of the cut tangle."""
    stacks = {name: valpha_stack(ctx, (alpha,)) for name, alpha in colors.items()}
    s = scalar_of(cut_matrices(diagram, stacks, cut)[0], ctx.tol)
    return ctx.mdim(colors[component]) * s


@pytest.mark.parametrize("case", CUT_CASES)
@pytest.mark.parametrize("r", [3, 5, 7])
def test_fprime_agrees_at_every_open_cut(r, case):
    ctx = RootParams(r)
    if case.startswith("clasp"):
        diagram = clasp_diagram(int(case[5:]), "A", "B")
        colors, component = {"A": 2.0 / 7, "B": -5.0 / 11}, "B"
    else:
        word, strands = KNOT_WORDS[case]
        diagram = braid_closure(word, strands, "K")
        colors, component = {"K": 2.0 / 7}, "K"
    default = f_prime(diagram, colors, ctx)
    assert abs(default) >= 0.1  # keeps the relative comparison meaningful
    cuts = _open_cuts(diagram, component)
    assert len(cuts) >= 2
    for cut in cuts:
        value = _f_prime_at(diagram, colors, ctx, component, cut)
        assert abs(value - default) <= 1e-9 * abs(default)


# a zig-zag on one of B's strands, by the gap its cup opens in the word
# (A↑, A↓, B↑, B↓): on B↑ from its left, on B↓ from its left, on B↓ from
# its right
_ZIGZAGS = {
    2: [Cup(2, "B", "coev"), Cap(3, "ev")],
    3: [Cup(3, "B", "coevprime"), Cap(4, "evprime")],
    4: [Cup(4, "B", "coev"), Cap(3, "ev")],
}


def _zigzag_diagram(r, clasp, coupon, gap):
    """Circles A and B side by side, word (A↑, A↓, B↑, B↓), under the
    zig-zag ``_ZIGZAGS[gap]``; also returns the zig-zag's cup.

    Below the zig-zag: the Hopf clasp (two crossings of A↓ and B↑) if
    ``clasp``; a coupon 1.5·Id on A↓ ⊗ B↑ if ``coupon == "AB"``, or on A↑
    if ``coupon == "A"``.
    """
    up, down = Strand("A", True), Strand("A", False)
    b_up = Strand("B", True)
    slices = [Cup(0, "A", "coev"), Cup(2, "B", "coev")]
    slices += [Braid(1, 1)] * (2 if clasp else 0)
    if coupon == "AB":
        slices.append(Coupon(1, (down, b_up), (down, b_up), 1.5 * np.eye(r * r)))
    elif coupon == "A":
        slices.append(Coupon(0, (up,), (up,), 1.5 * np.eye(r)))
    zigzag = len(slices)
    slices += _ZIGZAGS[gap] + [Cap(2, "evprime"), Cap(0, "evprime")]
    return SlicedDiagram(tuple(slices)), zigzag


@pytest.mark.parametrize("r", [3, 5, 7])
def test_enclosure_through_crossings_and_coupons(r):
    ctx = RootParams(r)
    # the clasp's crossings join A, left of the drop line, to B right of it
    diagram, zigzag = _zigzag_diagram(r, True, None, 2)
    assert compile_diagram(diagram).enclosed(zigzag)
    # inside B: B↑ reaches B's cup, and so B↓, only through the coupon
    diagram, zigzag = _zigzag_diagram(r, False, "AB", 3)
    assert compile_diagram(diagram).enclosed(zigzag)
    # the crossings and the coupon all lie left of the drop line
    diagram, zigzag = _zigzag_diagram(r, True, "A", 4)
    assert not compile_diagram(diagram).enclosed(zigzag)
    colors = {"A": 2.0 / 7, "B": -5.0 / 11}
    default = f_prime(diagram, colors, ctx, cut_component="B")
    assert abs(default) >= 0.1
    value = _f_prime_at(diagram, colors, ctx, "B", zigzag)
    assert abs(value - default) <= 1e-9 * abs(default)


def test_default_cut_is_cheapest_open_extremum():
    # the nested clasp: of L2's open cup and cap, the default is the final cap
    diagram = clasp_diagram(1, "L1", "L2")
    last = len(diagram.slices) - 1
    assert _open_cuts(diagram, "L2") == [0, last]
    compiled = compile_diagram(diagram)
    assert compiled.open_cut("L2") == last
    assert compiled.open_cut("L1") is None
    with pytest.raises(DomainError, match="no cup or cap that can be cut open"):
        f_prime(diagram, {"L1": 0.3, "L2": 0.45}, RootParams(5), cut_component="L1")
    sp = standard_two_component(RootParams(5), 1, (4, 2), (2.0 / 7, -8.0 / 7))
    assert _fixed_cut(sp) == ("L2", last)
    # unknot: the cap, not the cup
    assert compile_diagram(unknot_diagram("K")).open_cut("K") == 1


# ----------------------------------------------------------------------
# linking data and computability
# ----------------------------------------------------------------------


def test_signature_pair_exact():
    assert signature_pair_exact([[0]]) == (0, 0, 1)
    assert signature_pair_exact([[7]]) == (1, 0, 0)
    assert signature_pair_exact([[0, 1], [1, 0]]) == (1, 1, 0)
    assert signature_pair_exact([[4, 1], [1, 2]]) == (2, 0, 0)
    assert signature_pair_exact([[2, 1, 0], [1, 2, 1], [0, 1, 2]]) == (3, 0, 0)
    assert signature_pair_exact(
        [[1, 0, 0], [0, 0, 0], [0, 0, -2]]
    ) == (1, 1, 1)


def _signature_by_congruence(matrix):
    """(p, s, nullity) by symmetric Gaussian elimination over the rationals,
    the reference for :func:`signature_pair_exact`'s characteristic
    polynomial: a zero pivot is swapped with a later nonzero diagonal
    entry, or, with none left, made 2·m[k][other] by adding row and column
    ``other``; a zero row counts toward the nullity."""
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


@st.composite
def _symmetric_matrices(draw):
    """Symmetric integer matrices up to 7×7, entries in [−5, 5], about 30 %
    of them zero."""
    n = draw(st.integers(0, 7))
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            zero = draw(st.integers(0, 9)) < 3
            m[i][j] = m[j][i] = 0 if zero else draw(st.integers(-5, 5))
    return m


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(_symmetric_matrices())
def test_signature_matches_congruence_diagonalization(matrix):
    assert signature_pair_exact(matrix) == _signature_by_congruence(matrix)


def test_linking_data_chain(ctx):
    sp = standard_two_component(ctx, 1, (4, 2), (2.0 / 7, -8.0 / 7))
    ld = linking_data(sp)
    assert ld.matrix == ((4, 1), (1, 2))
    assert (ld.p, ld.s, ld.nullity) == (2, 0, 0)


def test_computability(ctx):
    assert computability_failure(unknot_presentation(ctx, 0, 0.5)) is None
    # nonvanishing class on the preferred parallel
    assert computability_failure(unknot_presentation(ctx, 1, 0.5)) is not None
    # integral meridian
    assert computability_failure(unknot_presentation(ctx, 1, 3.0)) is not None


# ----------------------------------------------------------------------
# the surgery invariant
# ----------------------------------------------------------------------


def test_z_empty_surgery(ctx):
    rng = np.random.default_rng(8)
    a = _generic(rng)
    sp = SurgeryPresentation(ctx, unknot_diagram("T1"), {}, {}, {"T1": a})
    res = z_invariant(sp)
    eta = ctx.eta
    assert abs(res.z - eta * ctx.mdim(a)) < 1e-10
    assert res.m == 0 and res.b1 == 0


def test_z_s1_x_s2_hand_formula(ctx):
    rng = np.random.default_rng(9)
    beta = _generic(rng)
    res = z_invariant(unknot_presentation(ctx, 0, beta))
    hand = (
        sum(
            (ctx.q_num(beta + k) / ctx.q_num(ctx.r * beta)) ** 2
            for k in ctx.h_r_set()
        )
        / ctx.r
    )
    assert abs(res.z - hand) < 1e-10
    assert res.b1 == 1 and res.sigma == 0 and res.m == 1


def test_z_encircled_strand_is_s3_value(ctx):
    rng = np.random.default_rng(11)
    a = _generic(rng)
    target = ctx.eta * ctx.mdim(a)
    for framing in (1, -1):
        for shift in (0, 1):
            sp = encircled_strand_presentation(ctx, a, framing, shift)
            assert computability_failure(sp) is None
            res = z_invariant(sp)
            assert abs(res.z - target) < 1e-8 * (1 + abs(target))
    for framing in (0, 2):
        with pytest.raises(DomainError, match="^encircling presentation needs framing ±1$"):
            encircled_strand_presentation(ctx, a, framing)


def test_z_defect_multiplies_delta(ctx):
    rng = np.random.default_rng(12)
    beta = _generic(rng)
    base = unknot_presentation(ctx, 0, beta)
    shifted = SurgeryPresentation(
        ctx,
        base.diagram,
        base.framings,
        base.meridian_values,
        base.colors,
        defect=2,
    )
    z0, z2 = z_invariant(base), z_invariant(shifted)
    assert abs(z2.z - ctx.delta ** 2 * z0.z) < 1e-10 * (1 + abs(z0.z))


def test_z_not_computable_raises(ctx):
    with pytest.raises(NotComputableError):
        z_invariant(unknot_presentation(ctx, 1, 0.5))


def test_z_both_forms_on_fixtures(ctx):
    rng = np.random.default_rng(13)
    beta = _generic(rng)
    fixtures = [
        unknot_presentation(ctx, 0, beta),
        unknot_presentation(ctx, 7, 2.0 / 7),
        standard_two_component(ctx, 1, (4, 2), (2.0 / 7, -8.0 / 7)),
        encircled_strand_presentation(ctx, _generic(rng)),
        SurgeryPresentation(ctx, unknot_diagram("T1"), {}, {}, {"T1": _generic(rng)}),
        standard_two_component(ctx, 1, (3, 2), (2.0 / 5, 4.0 / 5)),
    ]
    for sp in fixtures:
        res = z_invariant(sp)
        assert abs(res.z - res.z_via_betti) < 1e-9 * (1 + abs(res.z))


def _kirby_sum_term_by_term(sp):
    """(F'_total, Σ|term|) with one cut_matrices and one scalar_of per Kirby term.

    The reference for the batched passes of :func:`z_invariant`; framing
    corrections use the twist built from the braiding.
    """
    ctx = sp.ctx
    l_names = sp.surgery_names()
    writhes, _ = compile_diagram(sp.diagram).writhe_and_linking
    cut_name, cut_slice = _fixed_cut(sp)
    graph_colors = sp.graph_stacks
    total, size = 0j, 0.0
    for ks in itertools.product(ctx.h_r_set(), repeat=len(l_names)):
        colors, alphas = dict(graph_colors), dict(sp.colors)
        value = 1.0
        for name, k in zip(l_names, ks):
            alphas[name] = alpha = complex(sp.meridian_values[name]) + k
            colors[name] = valpha_stack(ctx, (alpha,))
            delta_f = sp.framings[name] - writhes.get(name, 0)
            value *= ctx.mdim(alpha) * scalar_of(twist(colors[name]), ctx.tol) ** delta_f
        for name, framing in sp.graph_framings.items():
            delta_f = framing - writhes.get(name, 0)
            value *= scalar_of(twist(graph_colors[name]), ctx.tol) ** delta_f
        matrix = cut_matrices(sp.diagram, colors, cut_slice)[0]
        term = value * ctx.mdim(complex(alphas[cut_name])) * scalar_of(matrix, ctx.tol)
        total += term
        size += abs(term)
    return total, size


BATCH_CASES = {
    "lens_7_2": lambda ctx: standard_two_component(ctx, 1, (4, 2), (2.0 / 7, -8.0 / 7)),
    # meridians 2·M⁻¹·(1, 0): the class vanishes on both parallels
    "clasp+1": lambda ctx: standard_two_component(ctx, 1, (3, 2), (4.0 / 5, -2.0 / 5)),
    "clasp-1": lambda ctx: standard_two_component(ctx, -1, (3, 2), (4.0 / 5, 2.0 / 5)),
    "clasp+2": lambda ctx: standard_two_component(ctx, 2, (3, 3), (6.0 / 5, -4.0 / 5)),
    "clasp-2": lambda ctx: standard_two_component(ctx, -2, (3, 3), (6.0 / 5, 4.0 / 5)),
    "encircled+1": lambda ctx: encircled_strand_presentation(ctx, 0.37, 1),
    "encircled-1": lambda ctx: encircled_strand_presentation(ctx, 0.37, -1),
    "s1xs2": lambda ctx: unknot_presentation(ctx, 0, 1.0 / 3),
    "lens_unknot": lambda ctx: unknot_presentation(ctx, 5, 2.0 / 5),
    "graph_only": lambda ctx: SurgeryPresentation(
        ctx, clasp_diagram(2, "A", "B"), {}, {}, {"A": 0.3, "B": 0.55}, graph_framings={"B": 1}
    ),
}


@pytest.mark.parametrize("case", BATCH_CASES)
@pytest.mark.parametrize("r", [2, 3, 5, 6, 7])
def test_z_batched_passes_match_term_by_term(r, case):
    ctx = RootParams(r)
    sp = BATCH_CASES[case](ctx)
    assert computability_failure(sp) is None
    reference, size = _kirby_sum_term_by_term(sp)
    got = z_invariant(sp).f_prime_total
    assert abs(got - reference) <= 1e-10 * max(1.0, size)


def _pass_sizes(monkeypatch):
    """Record the number of terms of every network contraction."""
    sizes = []
    contract = diagram_module._Network.contract

    def recorded(self, stacks, diagram):
        out = contract(self, stacks, diagram)
        sizes.append(len(out))
        return out

    monkeypatch.setattr(diagram_module._Network, "contract", recorded)
    return sizes


def _route_peak(sp) -> int:
    """The elements per term of the route a pass of several Kirby terms of
    ``sp`` contracts by (:meth:`.diagram._Network.route`)."""
    network = sp.compiled.cut(_fixed_cut(sp)[1])
    stacks = {name: valpha_stack(sp.ctx, [sp.meridian_values[name]] * 2) for name in sp.framings}
    return network.route(stacks | sp.graph_stacks, 2).peak


TWO_COMPONENT = ["lens_7_2", "clasp+1", "clasp-2"]


@pytest.mark.parametrize("case", TWO_COMPONENT)
def test_z_pass_splits_mid_row(monkeypatch, case):
    # a budget of 7 terms at the route's peak: both Kirby indices vary in a pass
    ctx = RootParams(5)
    sp = BATCH_CASES[case](ctx)
    monkeypatch.setattr(invariant, "_PASS_ELEMENTS", 7 * _route_peak(sp))
    sizes = _pass_sizes(monkeypatch)
    got = z_invariant(sp).f_prime_total
    assert sizes == [7, 7, 7, 4]
    reference, size = _kirby_sum_term_by_term(sp)
    assert abs(got - reference) <= 1e-10 * max(1.0, size)


@pytest.mark.parametrize("case", TWO_COMPONENT)
def test_z_one_pass_holds_every_term(monkeypatch, case):
    ctx = RootParams(7)
    sp = BATCH_CASES[case](ctx)
    monkeypatch.setattr(invariant, "_PASS_ELEMENTS", 10**12)
    sizes = _pass_sizes(monkeypatch)
    got = z_invariant(sp).f_prime_total
    assert sizes == [49]
    reference, size = _kirby_sum_term_by_term(sp)
    assert abs(got - reference) <= 1e-10 * max(1.0, size)


# the lens chain's padded sector blocks per term, far below its dense r⁴ crossings
CHAIN_PEAKS = {5: 95, 7: 259, 9: 549, 11: 1001}


@pytest.mark.parametrize("r,expected", [
    (5, [25]),                # 9·9⁴ // 95 = 621 terms fit: one pass
    (7, [49]),                # 9·9⁴ // 259 = 227
    (9, [81]),                # 9·9⁴ // 549 = 107
    (11, [58, 58, 5]),        # 9·9⁴ // 1001 = 58
])
def test_z_pass_sizes_follow_the_element_budget(monkeypatch, r, expected):
    sp = standard_two_component(RootParams(r), 1, (4, 2), (2.0 / 7, -8.0 / 7))
    assert _route_peak(sp) == CHAIN_PEAKS[r] < r**4
    sizes = _pass_sizes(monkeypatch)
    z_invariant(sp)
    assert sizes == expected


def test_z_passes_hold_at_least_r_terms(monkeypatch):
    # a budget of one term at the route's peak still runs r terms per pass
    sp = standard_two_component(RootParams(7), 1, (4, 2), (2.0 / 7, -8.0 / 7))
    monkeypatch.setattr(invariant, "_PASS_ELEMENTS", _route_peak(sp))
    sizes = _pass_sizes(monkeypatch)
    z_invariant(sp)
    assert sizes == [7] * 7


def test_z_builds_ladder_powers_once_per_root_stack(monkeypatch):
    # three passes at r = 7; each Kirby stack (and its stack of duals)
    # builds the ladders of E and F once, and every pass gathers them
    from unrolledsl2 import repcat

    sp = standard_two_component(RootParams(7), 1, (4, 2), (2.0 / 7, -8.0 / 7))
    monkeypatch.setattr(invariant, "_PASS_ELEMENTS", 24 * _route_peak(sp))
    sizes = _pass_sizes(monkeypatch)
    calls = []
    ladder = repcat._ladder

    def counted(v):
        calls.append(v)
        return ladder(v)

    monkeypatch.setattr(repcat, "_ladder", counted)
    z_invariant(sp)
    assert sizes == [24, 24, 1]
    # only whole Kirby stacks (7 terms), each off-diagonal once: at most
    # E and F of the two stacks and of their duals
    assert calls and all(v.shape == (7, 6) for v in calls)
    assert len({id(v) for v in calls}) == len(calls) <= 8


def test_z_typechecks_once(monkeypatch):
    calls = []
    original = diagram_module.typecheck

    def counted(d):
        calls.append(d)
        return original(d)

    # only the compiled-diagram cache typechecks, once per diagram structure
    monkeypatch.setattr(diagram_module, "typecheck", counted)
    sp = standard_two_component(RootParams(5), 1, (4, 2), (2.0 / 7, -8.0 / 7))
    z_invariant(sp)
    assert len(calls) == 1
    z_invariant(standard_two_component(RootParams(5), 1, (4, 2), (2.0 / 7, -8.0 / 7)))
    assert len(calls) == 1


def test_f_prime_typechecks_once(monkeypatch):
    calls = []
    original = diagram_module.typecheck

    def counted(d):
        calls.append(d)
        return original(d)

    monkeypatch.setattr(diagram_module, "typecheck", counted)
    path = pathlib.Path(__file__).resolve().parents[1] / "docs" / "fixtures" / "hopf.json"
    for _ in range(2):  # the second document hits the cache
        diagram, colors, cut, _ = parse_flink(load_document(str(path)))
        f_prime(diagram, colors, RootParams(5), cut_component=cut)
        assert len(calls) == 1


# ----------------------------------------------------------------------
# handle slides
# ----------------------------------------------------------------------


def test_handle_slides_preserve_z(ctx):
    sp0 = standard_two_component(ctx, 0, (3, 5), (2.0 / 3, 4.0 / 5))
    assert computability_failure(sp0) is None
    z0 = z_invariant(sp0).z
    for slide, over, rev in (
        ("L1", "L2", False),
        ("L2", "L1", False),
        ("L1", "L2", True),
        ("L2", "L1", True),
    ):
        sp1 = handle_slide(sp0, slide, over, reverse=rev)
        assert computability_failure(sp1) is None
        z1 = z_invariant(sp1).z
        assert abs(z0 - z1) < 1e-8 * (1 + abs(z0))


def test_handle_slide_round_trip_exact(ctx):
    sp0 = standard_two_component(ctx, 0, (3, 5), (2.0 / 3, 4.0 / 5))
    spf = handle_slide(sp0, "L1", "L2")
    spb = handle_slide(spf, "L1", "L2", reverse=True)
    assert spb.framings == sp0.framings
    assert spb.meridian_values == sp0.meridian_values
    assert spb.diagram == sp0.diagram


def test_handle_slide_undo_from_clasp(ctx):
    sp = standard_two_component(ctx, 3, (8, 3), (2.0 / 5, 4.0 / 15))
    assert computability_failure(sp) is None
    undone = handle_slide(sp, "L1", "L2", reverse=True)
    assert undone.diagram == clasp_diagram(0, "L1", "L2")
    zu, zv = z_invariant(sp).z, z_invariant(undone).z
    assert abs(zu - zv) < 1e-8 * (1 + abs(zv))


def test_unsupported_slide_raises(ctx):
    sp = standard_two_component(ctx, 1, (3, 2), (2.0 / 5, 4.0 / 5))
    with pytest.raises(UnsupportedSlideError):
        handle_slide(sp, "L1", "L2")
    # outside the family: one component, a graph component, and a split
    # clasp whose circles are drawn in the other order
    split = SurgeryPresentation(ctx, clasp_diagram(0, "L2", "L1"), {"L1": 3, "L2": 5},
                                {"L1": 2.0 / 3, "L2": 4.0 / 5})
    for sp, slide, over in ((unknot_presentation(ctx, 2, 1.0), "L1", "L1"),
                            (encircled_strand_presentation(ctx, 0.4), "L1", "T1"),
                            (split, "L1", "L2")):
        with pytest.raises(UnsupportedSlideError, match="family only"):
            handle_slide(sp, slide, over)
    # inside the family, a name that is not one of its two components
    sp = standard_two_component(ctx, 0, (3, 5), (2.0 / 3, 4.0 / 5))
    for slide, over in (("L1", "X"), ("L2", "L2")):
        with pytest.raises(UnsupportedSlideError) as info:
            handle_slide(sp, slide, over)
        assert str(info.value) == ("slide/over must be the two surgery components "
                                   f"['L1', 'L2'], got ({slide!r}, {over!r})")


# the split clasp of standard_two_component(ctx, 0, (3, 5), (2/3, 4/5)),
# written as a document
_SPLIT_CLASP_DOC = {
    "diagram": {"source": [], "width-changes": [
        {"slice": "cup", "position": 0, "component": "L2", "variant": "coev"},
        {"slice": "cup", "position": 1, "component": "L1", "variant": "coev"},
        {"slice": "cap", "position": 1, "variant": "evprime"},
        {"slice": "cap", "position": 0, "variant": "evprime"},
    ]},
    "framings": {"L1": 3, "L2": 5},
    "meridians": {"L1": "2/3", "L2": "4/5"},
}


def test_a_parsed_clasp_slides_like_a_built_one(ctx):
    parsed = parse_surgery(_SPLIT_CLASP_DOC, ctx)
    built = standard_two_component(ctx, 0, (3, 5), (2.0 / 3, 4.0 / 5))
    assert parsed.diagram == built.diagram == clasp_diagram(0, "L1", "L2")
    for slide, over, rev in (("L1", "L2", False), ("L2", "L1", True)):
        a = handle_slide(parsed, slide, over, reverse=rev)
        b = handle_slide(built, slide, over, reverse=rev)
        assert (a.diagram, a.framings, a.meridian_values, a.defect) == (
            b.diagram, b.framings, b.meridian_values, b.defect)
        assert z_invariant(a) == z_invariant(b)


# ----------------------------------------------------------------------
# presentation validation
# ----------------------------------------------------------------------


def test_presentation_validation(ctx):
    d = clasp_diagram(1, "L1", "T1")
    with pytest.raises(DomainError):
        # component missing from both framings and colors
        SurgeryPresentation(ctx, d, {"L1": 0}, {"L1": 0.5})
    with pytest.raises(DomainError):
        # meridian value incompatible with the color degree
        SurgeryPresentation(
            ctx,
            d,
            {"L1": 0},
            {"L1": 0.5, "T1": 0.9},
            colors={"T1": 0.4},
        )
