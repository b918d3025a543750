"""Surgery layer: renormalized link invariant and the 3-manifold invariant."""

import numpy as np
import pytest

from unrolledsl2.diagram import (
    Cap,
    Cup,
    SlicedDiagram,
    braid_closure,
    clasp_diagram,
    cut_is_enclosed,
    typecheck,
    unknot_diagram,
)
from unrolledsl2.errors import (
    DomainError,
    NotComputableError,
    UnsupportedSlideError,
)
from unrolledsl2.invariant import (
    SurgeryPresentation,
    _first_cut_slice,
    _fixed_cut,
    computability_check,
    encircled_strand_presentation,
    f_prime,
    graph_only_presentation,
    handle_slide,
    lens_chain_presentation,
    lens_unknot_presentation,
    linking_data,
    s1_x_s2_presentation,
    signature_pair_exact,
    standard_two_component,
    unknot_presentation,
    z_invariant,
)
from unrolledsl2.qscalar import RootParams
from unrolledsl2.repcat import twist_scalar

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
    from unrolledsl2.diagram import Braid, Strand

    open_d = SlicedDiagram((Braid(0, 1),), (Strand("K", True), Strand("K", True)))
    with pytest.raises(DomainError):
        f_prime(open_d, {"K": 0.4}, ctx)


def test_fprime_missing_color_is_domain_error(ctx):
    with pytest.raises(DomainError):
        f_prime(clasp_diagram(1, "A", "B"), {"B": 0.3}, ctx, cut_component="B")
    with pytest.raises(DomainError):
        f_prime(clasp_diagram(1, "A", "B"), {"B": 0.3}, ctx)


def test_fprime_hopf_closed_form(ctx):
    rng = np.random.default_rng(3)
    a, b = _generic(rng), _generic(rng)
    for lk in (1, -1):
        value = f_prime(
            clasp_diagram(lk, "A", "B"), {"A": a, "B": b}, ctx, cut_component="B"
        )
        predicted = (-1) ** (ctx.r - 1) * ctx.r * ctx.q_pow(lk * a * b)
        assert abs(value - predicted) < 1e-9


def test_fprime_clasp_matches_twist_eigenvalue_oracle(ctx):
    # independent oracle: V_a ⊗ V_b decomposes into the simples V_{a+b+k},
    # k in the weight set, and the double braiding acts on each summand by
    # the ratio of twist eigenvalues; 2·lk half-twists close to
    # sum_k d(a+b+k) (theta_{a+b+k} / (theta_a theta_b))^lk
    rng = np.random.default_rng(4)
    a, b = _generic(rng), _generic(rng)
    th_a, th_b = twist_scalar(ctx, a), twist_scalar(ctx, b)
    for lk in (1, -1, 2, -3):
        oracle = sum(
            ctx.mdim(a + b + k) * (twist_scalar(ctx, a + b + k) / (th_a * th_b)) ** lk
            for k in ctx.h_r_set()
        )
        value = f_prime(
            clasp_diagram(lk, "A", "B"), {"A": a, "B": b}, ctx, cut_component="B"
        )
        assert abs(value - oracle) < 1e-8 * (1 + abs(oracle))


def test_fprime_cut_choice_independence(ctx):
    rng = np.random.default_rng(5)
    a, b = _generic(rng), _generic(rng)
    colors = {"A": a, "B": b}
    vb = f_prime(clasp_diagram(1, "A", "B"), colors, ctx, cut_component="B")
    va = f_prime(clasp_diagram(1, "B", "A"), colors, ctx, cut_component="A")
    assert abs(va - vb) < 1e-9 * (1 + abs(va))


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


def test_fprime_framing_twist(ctx):
    rng = np.random.default_rng(6)
    a = _generic(rng)
    d = unknot_diagram("K")
    v0 = f_prime(d, {"K": a}, ctx, framings={"K": 0})
    v2 = f_prime(d, {"K": a}, ctx, framings={"K": 2})
    assert abs(v2 - twist_scalar(ctx, a) ** 2 * v0) < 1e-9 * (1 + abs(v0))


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
    words = typecheck(diagram)
    out = []
    for index, sl in enumerate(diagram.slices):
        if isinstance(sl, Cup):
            owner = sl.component
        elif isinstance(sl, Cap):
            owner = words[index][sl.position].component
        else:
            continue
        if owner == component and not cut_is_enclosed(diagram, index):
            out.append(index)
    return out


KNOT_WORDS = {
    "torus2_3": ([(0, 1)] * 3, 2),
    "torus2_5": ([(0, 1)] * 5, 2),
    "trefoil3": ([(0, 1), (1, 1), (0, 1), (1, 1)], 3),
    "figure8_3": ([(0, 1), (1, -1), (0, 1), (1, -1)], 3),
}
CUT_CASES = [f"clasp{lk:+d}" for lk in (1, -1, 2, -2)] + list(KNOT_WORDS)


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
        value = f_prime(diagram, colors, ctx, cut_component=component, cut_slice=cut)
        assert abs(value - default) <= 1e-9 * abs(default)


def test_default_cut_is_cheapest_open_extremum():
    # the nested clasp: L2's first cup would park two axes through every
    # crossing, its final cap parks them only above the last slice
    diagram = clasp_diagram(1, "L1", "L2")
    last = len(diagram.slices) - 1
    assert _open_cuts(diagram, "L2") == [0, last]
    assert _first_cut_slice(diagram, "L2", {"L1": 5, "L2": 5}) == last
    with pytest.raises(DomainError):
        _first_cut_slice(diagram, "L1", {"L1": 5, "L2": 5})
    sp = lens_chain_presentation(RootParams(5), 4, 2, (2.0 / 7, -8.0 / 7))
    assert _fixed_cut(sp) == ("L2", last)
    # unknot: cup 0 costs d**4 + d**2, cap 1 costs 2 d**2
    assert _first_cut_slice(unknot_diagram("K"), "K", {"K": 3}) == 1


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


def test_linking_data_chain(ctx):
    sp = lens_chain_presentation(ctx, 4, 2, (2.0 / 7, -8.0 / 7))
    ld = linking_data(sp)
    assert ld.matrix == ((4, 1), (1, 2))
    assert (ld.p, ld.s, ld.nullity) == (2, 0, 0)


def test_computability(ctx):
    assert computability_check(s1_x_s2_presentation(ctx, 0.5))
    # nonvanishing class on the preferred parallel
    assert not computability_check(unknot_presentation(ctx, 1, 0.5))
    # integral meridian
    assert not computability_check(unknot_presentation(ctx, 1, 3.0))


# ----------------------------------------------------------------------
# the surgery invariant
# ----------------------------------------------------------------------


def test_z_empty_surgery(ctx):
    rng = np.random.default_rng(8)
    a = _generic(rng)
    sp = graph_only_presentation(ctx, unknot_diagram("T1"), {"T1": a})
    res = z_invariant(sp)
    eta = ctx.eta
    assert abs(res.z - eta * ctx.mdim(a)) < 1e-10
    assert res.m == 0 and res.b1 == 0


def test_z_s1_x_s2_hand_formula(ctx):
    rng = np.random.default_rng(9)
    beta = _generic(rng)
    res = z_invariant(s1_x_s2_presentation(ctx, beta))
    hand = (
        sum(
            (ctx.q_num(beta + k) / ctx.q_num(ctx.r * beta)) ** 2
            for k in ctx.h_r_set()
        )
        / ctx.r
    )
    assert abs(res.z - hand) < 1e-10
    assert res.b1 == 1 and res.sigma == 0 and res.m == 1


def test_z_lift_shift_invariance(ctx):
    rng = np.random.default_rng(10)
    beta = _generic(rng)
    z0 = z_invariant(s1_x_s2_presentation(ctx, beta)).z
    z1 = z_invariant(s1_x_s2_presentation(ctx, beta + 2)).z
    z2 = z_invariant(s1_x_s2_presentation(ctx, beta - 4)).z
    assert abs(z0 - z1) < 1e-9 * (1 + abs(z0))
    assert abs(z0 - z2) < 1e-9 * (1 + abs(z0))


def test_z_encircled_strand_is_s3_value(ctx):
    rng = np.random.default_rng(11)
    a = _generic(rng)
    target = ctx.eta * ctx.mdim(a)
    for framing in (1, -1):
        for shift in (0, 1):
            sp = encircled_strand_presentation(ctx, a, framing, shift)
            assert computability_check(sp)
            res = z_invariant(sp)
            assert abs(res.z - target) < 1e-8 * (1 + abs(target))


def test_z_defect_multiplies_delta(ctx):
    rng = np.random.default_rng(12)
    beta = _generic(rng)
    base = s1_x_s2_presentation(ctx, beta)
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
        s1_x_s2_presentation(ctx, beta),
        lens_unknot_presentation(ctx, 7, 2.0 / 7),
        lens_chain_presentation(ctx, 4, 2, (2.0 / 7, -8.0 / 7)),
        encircled_strand_presentation(ctx, _generic(rng)),
        graph_only_presentation(ctx, unknot_diagram("T1"), {"T1": _generic(rng)}),
        standard_two_component(ctx, 1, (3, 2), (2.0 / 5, 4.0 / 5)),
    ]
    for sp in fixtures:
        res = z_invariant(sp)
        assert abs(res.z - res.z_via_betti) < 1e-9 * (1 + abs(res.z))


# ----------------------------------------------------------------------
# handle slides
# ----------------------------------------------------------------------


def test_handle_slides_preserve_z(ctx):
    sp0 = standard_two_component(ctx, 0, (3, 5), (2.0 / 3, 4.0 / 5))
    assert computability_check(sp0)
    z0 = z_invariant(sp0).z
    for slide, over, rev in (
        ("L1", "L2", False),
        ("L2", "L1", False),
        ("L1", "L2", True),
        ("L2", "L1", True),
    ):
        sp1 = handle_slide(sp0, slide, over, reverse=rev)
        assert computability_check(sp1)
        z1 = z_invariant(sp1).z
        assert abs(z0 - z1) < 1e-8 * (1 + abs(z0))


def test_handle_slide_round_trip_exact(ctx):
    sp0 = standard_two_component(ctx, 0, (3, 5), (2.0 / 3, 4.0 / 5))
    spf = handle_slide(sp0, "L1", "L2")
    spb = handle_slide(spf, "L1", "L2", reverse=True)
    assert spb.framings == sp0.framings
    assert spb.meridian_values == sp0.meridian_values
    assert spb.family == sp0.family


def test_handle_slide_undo_from_clasp(ctx):
    sp = standard_two_component(ctx, 3, (8, 3), (2.0 / 5, 4.0 / 15))
    assert computability_check(sp)
    undone = handle_slide(sp, "L1", "L2", reverse=True)
    assert undone.family == ("two_component", 0)
    zu, zv = z_invariant(sp).z, z_invariant(undone).z
    assert abs(zu - zv) < 1e-8 * (1 + abs(zv))


def test_unsupported_slide_raises(ctx):
    sp = standard_two_component(ctx, 1, (3, 2), (2.0 / 5, 4.0 / 5))
    with pytest.raises(UnsupportedSlideError):
        handle_slide(sp, "L1", "L2")


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
