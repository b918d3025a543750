"""Acceptance suite: one test per shipped acceptance criterion.

Each test exercises one end-to-end guarantee at its stated tolerance and
prints a single PASS line with the measured worst residual (visible with
``pytest -s`` or ``-rA``; under ``pytest -v`` the test name itself is the
per-criterion pass/fail line).
"""

import itertools
import math
import pathlib
import time

import numpy as np
from duality import duality_maps

from unrolledsl2 import diagram as dg
from unrolledsl2 import invariant as iv
from unrolledsl2 import jsonio
from unrolledsl2 import repcat as rc
from unrolledsl2 import tqftdim as td
from unrolledsl2.model import Braid, Cap, Cup, SlicedDiagram, parse_surgery
from unrolledsl2.closedform import verlinde
from unrolledsl2.qscalar import RootParams

ROOTS = (2, 3, 5, 6, 7)
FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "docs" / "fixtures"


def _generic(rng, lo=-2.0, hi=2.0):
    while True:
        v = float(rng.uniform(lo, hi))
        if abs(v - round(v)) > 0.05:
            return v


def _report(n, text, metric):
    print(f"PASS [{n}/8] {text} ({metric})")


# ----------------------------------------------------------------------
# 1. Verlinde formula == coloring enumeration
# ----------------------------------------------------------------------


def test_criterion_1_verlinde_formula_matches_coloring_enumeration():
    rng = np.random.default_rng(101)
    tol, worst, cases = 1e-8, 0.0, 0
    t0 = time.time()
    for r in ROOTS:
        ctx = RootParams(r)
        for genus in (1, 2, 3):
            graph = td.random_generic_graph(ctx, rng, genus)
            gd = td.graded_dimension(graph)
            for _ in range(20):
                beta = _generic(rng)
                v = verlinde(ctx, genus, beta)
                err = abs(gd.evaluate_at(ctx, beta) - v) / (1 + abs(v))
                worst = max(worst, err)
                cases += 1
                assert err <= tol, f"r={r} genus={genus} beta={beta}: {err:.2e}"
    elapsed = time.time() - t0
    assert elapsed < 30.0, f"sweep took {elapsed:.1f}s"
    _report(
        1,
        "character-sum formula equals admissible-coloring enumeration "
        f"for r in {ROOTS}, genus 1-3, {cases} random gradings",
        f"max rel residual {worst:.2e} <= {tol:.0e}, {elapsed:.2f}s",
    )


# ----------------------------------------------------------------------
# 2. exact dimension counts
# ----------------------------------------------------------------------


def test_criterion_2_exact_state_space_counts():
    rng = np.random.default_rng(102)
    checked = 0
    for r in ROOTS:
        ctx = RootParams(r)
        # genus 1: the circle carries r' degree-0 colorings
        c = sum(td.graded_dimension(td.circle_graph(ctx, 0.37)).coefficients.values())
        assert c == ctx.rprime, f"r={r} genus 1: {c} != {ctx.rprime}"
        checked += 1
        for genus in (2, 3):
            graph = td.random_generic_graph(ctx, rng, genus)
            total = sum(td.graded_dimension(graph).coefficients.values())
            if r % 2:
                expect = r ** (3 * genus - 3)
            else:
                expect = r ** (3 * genus - 3) // 2 ** (genus - 1)
            assert total == expect, f"r={r} genus={genus}: {total} != {expect}"
            checked += 1
    # two named spot values
    g5 = td.theta_graph(RootParams(5), 0.3, 0.45)
    assert sum(td.graded_dimension(g5).coefficients.values()) == 125
    g2 = td.theta_graph(RootParams(2), 0.3, 0.45)
    assert sum(td.graded_dimension(g2).coefficients.values()) == 4
    _report(
        2,
        f"state-space counts are exactly r^(3g-3) (odd r) and "
        f"r^(3g-3)/2^(g-1) (even r, super) over r in {ROOTS}, genus 1-3",
        f"{checked + 2} exact integer checks incl. (r=5,g=2)->125, (r=2,g=2)->4",
    )


# ----------------------------------------------------------------------
# 3. surgery invariant of S^1 x S^2 == genus-0 character sum
# ----------------------------------------------------------------------


def test_criterion_3_surgery_invariant_matches_character_sum():
    rng = np.random.default_rng(103)
    tol, worst = 1e-9, 0.0
    for r in (2, 3, 5):
        ctx = RootParams(r)
        for _ in range(10):
            beta = _generic(rng)
            z = iv.z_invariant(iv.unknot_presentation(ctx, 0, beta)).z
            v = verlinde(ctx, 0, beta)
            err = abs(z - v) / (1 + abs(v))
            worst = max(worst, err)
            assert err <= tol, f"r={r} beta={beta}: {err:.2e}"
    _report(
        3,
        "three-manifold invariant of S^1 x S^2 equals the genus-0 "
        "character sum for r in (2, 3, 5), 10 random classes each",
        f"max rel residual {worst:.2e} <= {tol:.0e}",
    )


# ----------------------------------------------------------------------
# 4. categorical structure residuals
# ----------------------------------------------------------------------


def test_criterion_4_algebra_and_category_relations_hold():
    rng = np.random.default_rng(104)
    tol, worst = 1e-10, 0.0

    def track(x):
        nonlocal worst
        worst = max(worst, float(x))
        assert x < tol, f"residual {x:.2e}"

    for r in (2, 3, 5):
        ctx = RootParams(r)
        mods = [rc.valpha_stack(ctx, (_generic(rng),)) for _ in range(3)]
        for m in mods:
            track(rc.relations_residual(m))
        track(rc.relations_residual(rc.tensor(mods[0], mods[1])))
        track(rc.relations_residual(mods[2].dual))
        # hexagon/braid relation on three simples
        a, b, c = mods
        ia, ib, ic = (np.eye(m.dim) for m in mods)
        r_ab, r_ac, r_bc = (
            rc.braiding_stack(x, y)[0] for x, y in ((a, b), (a, c), (b, c))
        )
        lhs = np.kron(r_bc, ia) @ np.kron(ib, r_ac) @ np.kron(r_ab, ic)
        rhs = np.kron(ic, r_ab) @ np.kron(r_ac, ib) @ np.kron(ia, r_bc)
        track(np.abs(lhs - rhs).max())
        # straightening identities for both duality pairs
        mod = mods[0]
        coev, ev, coev_p, ev_p = duality_maps(mod)
        eye = np.eye(mod.dim)
        track(np.abs(np.kron(eye, ev) @ np.kron(coev, eye) - eye).max())
        track(np.abs(np.kron(ev_p, eye) @ np.kron(eye, coev_p) - eye).max())
        # the twist is the predicted scalar on simples
        alpha = _generic(rng)
        m = rc.valpha_stack(ctx, (alpha,))
        s = rc.twist_scalar(ctx, alpha)
        track(np.abs(rc.twist(m) - s * np.eye(m.dim)).max())
    _report(
        4,
        "defining relations, braid relation, straightening identities and "
        "twist scalarity hold on random simples for r in (2, 3, 5)",
        f"max residual {worst:.2e} < {tol:.0e}",
    )


# ----------------------------------------------------------------------
# 5. presentation independence of F' and Z
# ----------------------------------------------------------------------


def test_criterion_5_invariance_under_presentation_moves():
    tol_f, tol_z = 1e-9, 1e-8
    worst_f = worst_z = slid_max = 0.0
    for r in (2, 3, 5):
        ctx = RootParams(r)
        # the same knot sliced two unrelated ways (writhe-corrected to 0)
        pairs = [
            (
                dg.braid_closure([(0, 1)] * 3, 2, "K"),
                dg.braid_closure([(0, 1), (1, 1)] * 2, 3, "K"),
            ),
            (
                dg.braid_closure([(0, 1), (1, -1)] * 2, 3, "K"),
                dg.braid_closure([(1, -1), (0, 1)] * 2, 3, "K"),
            ),
        ]
        for d1, d2 in pairs:
            v1 = iv.f_prime(d1, {"K": 0.4}, ctx, framings={"K": 0})
            v2 = iv.f_prime(d2, {"K": 0.4}, ctx, framings={"K": 0})
            err = abs(v1 - v2) / (1 + abs(v1))
            worst_f = max(worst_f, err)
            assert err <= tol_f, f"r={r} slicing gap {err:.2e}"
        # cutting open either component of a two-component diagram
        va = iv.f_prime(
            dg.clasp_diagram(2, "A", "B"), {"A": 0.4, "B": 0.7}, ctx, cut_component="B"
        )
        vb = iv.f_prime(
            dg.clasp_diagram(2, "B", "A"), {"A": 0.4, "B": 0.7}, ctx, cut_component="A"
        )
        err = abs(va - vb) / (1 + abs(va))
        worst_f = max(worst_f, err)
        assert err <= tol_f, f"r={r} cut-choice gap {err:.2e}"

        # handle slides in all four directions; both sides vanish here, so
        # the comparison is absolute on a pair of honestly-zero values
        sp0 = iv.standard_two_component(ctx, 0, (3, 5), (2.0 / 3, 4.0 / 5))
        z0 = iv.z_invariant(sp0).z
        slid_max = max(slid_max, abs(z0))
        for slide, over, rev in (
            ("L1", "L2", False),
            ("L2", "L1", False),
            ("L1", "L2", True),
            ("L2", "L1", True),
        ):
            sp1 = iv.handle_slide(sp0, slide, over, reverse=rev)
            assert iv.computability_failure(sp1) is None
            z1 = iv.z_invariant(sp1).z
            slid_max = max(slid_max, abs(z1))
            err = abs(z0 - z1) / (1 + abs(z0))
            worst_z = max(worst_z, err)
            assert err <= tol_z, f"r={r} slide {slide}/{over}/{rev}: {err:.2e}"
        # slide forward then back is the identity on the data, exactly
        spf = iv.handle_slide(sp0, "L1", "L2")
        spb = iv.handle_slide(spf, "L1", "L2", reverse=True)
        assert spb.framings == sp0.framings
        assert spb.meridian_values == sp0.meridian_values
        # a clasp whose reverse slide splits it off; both sides vanish here
        # too (|Z| <= 6e-15), so this also compares two zeros
        sp = iv.standard_two_component(ctx, 3, (8, 3), (2.0 / 5, 4.0 / 15))
        undone = iv.handle_slide(sp, "L1", "L2", reverse=True)
        assert undone.diagram == dg.clasp_diagram(0, "L1", "L2")
        zu, zv = iv.z_invariant(sp).z, iv.z_invariant(undone).z
        slid_max = max(slid_max, abs(zu), abs(zv))
        err = abs(zu - zv) / (1 + abs(zv))
        worst_z = max(worst_z, err)
        assert err <= tol_z, f"r={r} clasp undo gap {err:.2e}"
        # shifting a meridian class by 2 picks a different lift, same Z
        for beta in (1.0 / 3, 0.45):
            za = iv.z_invariant(iv.unknot_presentation(ctx, 0, beta)).z
            zb = iv.z_invariant(iv.unknot_presentation(ctx, 0, beta + 2)).z
            zc = iv.z_invariant(iv.unknot_presentation(ctx, 0, beta - 2)).z
            err = max(abs(za - zb), abs(za - zc)) / (1 + abs(za))
            worst_z = max(worst_z, err)
            assert err <= tol_z, f"r={r} lift shift gap {err:.2e}"
    # a blow-up, where Z does not vanish: L(7,2) as the chain [4,2]
    # (lens_7_2.json) and as [5,1,3] carrying the class across, against the
    # class (4/7, -20/7, 16/7), which is not carried across.  r = 7 is left
    # out (Z ~ 1e-14 on both sides), and so is r >= 10, where the blow-up
    # exits with NotScalarError (the precision defect of the trace readout)
    fixture = jsonio.load_document(str(FIXTURES / "lens_7_2.json"))
    tol_k, worst_k, smallest, control = 1e-9, 0.0, math.inf, math.inf
    for r in (2, 3, 5, 6, 9):
        ctx = RootParams(r)
        chain = iv.z_invariant(parse_surgery(fixture, ctx)).z
        blown = iv.z_invariant(_lens_7_2_blown_up(ctx, (2 / 7, -10 / 7, 8 / 7))).z
        other = iv.z_invariant(_lens_7_2_blown_up(ctx, (4 / 7, -20 / 7, 16 / 7))).z
        scale = max(1.0, abs(chain))
        worst_k = max(worst_k, abs(blown - chain) / scale)
        smallest = min(smallest, abs(chain), abs(blown))
        control = min(control, abs(other - chain))
        assert abs(blown - chain) <= tol_k * scale, f"r={r} blow-up gap {abs(blown - chain):.2e}"
        assert abs(other - chain) >= 0.1, f"r={r}: a class not carried across gives the same Z"
    _report(
        5,
        "link invariant is slicing- and cut-independent; surgery invariant "
        "survives lift shifts, a blow-up of L(7,2) to [5,1,3] at r in "
        "{2,3,5,6,9} (r = 7 left out: Z ~ 1e-14; r >= 10 exits with "
        "NotScalarError), and handle slides (4 directions + clasp undo), "
        "where Z = 0 on both sides",
        f"max rel residuals {worst_f:.2e} <= {tol_f:.0e} (links), "
        f"{worst_z:.2e} <= {tol_z:.0e} (surgery), {worst_k:.2e} <= {tol_k:.0e} "
        f"(blow-up, smallest |Z| compared {smallest:.2f}; a class not carried "
        f"across is {control:.2f} away); max |Z| on the slid presentations "
        f"{slid_max:.1e}",
    )


def _lens_7_2_blown_up(ctx, meridians):
    """L(7,2) as the chain [5,1,3]: nested circles L3, L2, L1 from the
    outside in, each clasped once with the next (framings 5, 1, 3 on L1,
    L2, L3), with ``meridians`` on L1, L2, L3."""
    diagram = SlicedDiagram((
        Cup(0, "L3"), Cup(1, "L2"), Cup(2, "L1"),
        Braid(0, 1), Braid(0, 1), Braid(1, 1), Braid(1, 1),
        Cap(2), Cap(1), Cap(0),
    ))
    names = ("L1", "L2", "L3")
    return iv.SurgeryPresentation(ctx, diagram, dict(zip(names, (5, 1, 3))),
                                  dict(zip(names, meridians)))


# ----------------------------------------------------------------------
# 6. the two normalization routes agree
# ----------------------------------------------------------------------


def test_criterion_6_both_normalization_routes_agree():
    rng = np.random.default_rng(106)
    tol, worst, cases = 1e-9, 0.0, 0
    for r in (2, 3, 5, 6, 7):
        ctx = RootParams(r)
        presentations = [
            iv.unknot_presentation(ctx, 0, _generic(rng)),
            iv.unknot_presentation(ctx, 3, 2.0 / 3),
            iv.unknot_presentation(ctx, -3, 4.0 / 3),
            iv.unknot_presentation(ctx, 7, 2.0 / 7),
            iv.standard_two_component(ctx, 1, (4, 2), (2.0 / 7, -8.0 / 7)),
            iv.standard_two_component(ctx, 0, (3, 5), (2.0 / 3, 4.0 / 5)),
            iv.encircled_strand_presentation(ctx, _generic(rng), framing=1),
        ]
        for sp in presentations:
            assert iv.computability_failure(sp) is None
            res = iv.z_invariant(sp)
            err = abs(res.z - res.z_via_betti) / (1 + abs(res.z))
            worst = max(worst, err)
            cases += 1
            assert err <= tol, f"r={r} {sp.framings}: {err:.2e}"
    _report(
        6,
        "signature-defect and Betti-number normalizations of the surgery "
        f"invariant agree on {cases} presentations across r in {ROOTS}",
        f"max rel residual {worst:.2e} <= {tol:.0e}",
    )


# ----------------------------------------------------------------------
# 7. Hochschild route == direct enumeration
# ----------------------------------------------------------------------


def test_criterion_7_hochschild_route_matches_enumeration_exactly():
    rng = np.random.default_rng(107)
    graphs = 0
    for r in ROOTS:
        ctx = RootParams(r)
        for _ in range(10):
            genus = int(rng.integers(1, 4))
            legs = int(rng.integers(0, 3))
            if legs == 1 and r % 2 == 0:
                legs = 2
            graph = td.random_generic_graph(ctx, rng, genus, legs)
            a = td.graded_dimension(graph)
            b = td.hh0_dimension_generic(graph)
            assert a.coefficients == b.coefficients, f"r={r} genus={genus}"
            assert a.parity_mode == b.parity_mode
            graphs += 1
    assert graphs == 50
    _report(
        7,
        "zeroth-Hochschild-homology contraction reproduces the admissible "
        "coloring histogram degree-by-degree on 50 random decorated spines",
        "exact integer match per degree",
    )


# ----------------------------------------------------------------------
# 8. the invariant separates an order-7 lens space pair
# ----------------------------------------------------------------------


def test_criterion_8_invariant_separates_order7_lens_pair():
    ctx = RootParams(2)
    za = [
        iv.z_invariant(iv.unknot_presentation(ctx, 7, 2.0 * j / 7)).z
        for j in range(1, 7)
    ]
    zb = [
        iv.z_invariant(
            iv.standard_two_component(ctx, 1, (4, 2), (2.0 * t / 7, -8.0 * t / 7))
        ).z
        for t in range(1, 7)
    ]
    # best matching over all bijections of the two six-value collections
    dist = min(
        max(abs(x - y) for x, y in zip(za, perm))
        for perm in itertools.permutations(zb)
    )
    assert dist > 1e-6, f"collections coincide up to {dist:.2e}"
    _report(
        8,
        "at r=2 the invariant separates the order-7 lens spaces L(7,1) and "
        "L(7,2), which share classical invariants",
        f"best-matching multiset distance {dist:.4f} > 1e-06",
    )
