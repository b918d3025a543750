"""Per-root self checks for every documented property of the library.

Each check is a small randomized or exact verification of one property
from a module's contract (scalar identities, category axioms, diagram
moves, invariance of the surgery invariant, dimension identities).
:data:`CHECKS` is the one place each property is written: the CLI
``selftest`` subcommand runs all of them for a given root order and reports
one PASS/FAIL line per property, and the test suite runs each one through
the same :func:`run_check`, once per root order.
"""

from __future__ import annotations

import zlib
from typing import Callable

import numpy as np

from . import diagram as dg
from . import invariant as iv
from . import repcat as rc
from . import tqftdim as td
from .closedform import verlinde
from .errors import NonGenericError
from .model import Braid, Coupon, Id, SlicedDiagram, Strand
from .qscalar import Record, RootParams


class CheckResult(Record):
    def __init__(self, name: str, passed: bool, detail: str = ""):
        self._set("name", name)
        self._set("passed", passed)
        self._set("detail", detail)


def _assert(cond: bool, detail: str) -> None:
    if not cond:
        raise AssertionError(detail)


def _generic(rng: np.random.Generator, lo: float = 0.08, hi: float = 1.92) -> float:
    while True:
        v = float(rng.uniform(lo, hi))
        if abs(v - round(v)) > 0.05:
            return v


# ----------------------------------------------------------------------
# scalar layer
# ----------------------------------------------------------------------


def check_qnum_odd_and_sine(ctx: RootParams, rng) -> None:
    for _ in range(40):
        x = complex(rng.uniform(-6, 6), rng.uniform(-1, 1))
        a, b = ctx.q_num(x), ctx.q_num(-x)
        _assert(abs(a + b) < 1e-12 * (1 + abs(a)), f"oddness fails at {x}")
    for _ in range(40):
        x = float(rng.uniform(-6, 6))
        err = abs(ctx.q_num(x) - 2j * np.sin(np.pi * x / ctx.r))
        _assert(err < 1e-12, f"sine form fails at {x}: {err:.2e}")


def check_mdim_periodicity(ctx: RootParams, rng) -> None:
    for _ in range(30):
        a = _generic(rng)
        for k in (-3, -2, -1, 1, 3):
            err = abs(ctx.mdim(a + 2 * ctx.r * k) - ctx.mdim(a))
            _assert(err < 1e-9, f"period fails at {a}+2r·{k}: {err:.2e}")
        err = abs(ctx.mdim(-a) - ctx.mdim(a))
        _assert(err < 1e-9, f"d(-a) != d(a) at {a}: {err:.2e}")


def check_mdim_defining_relation(ctx: RootParams, rng) -> None:
    sign = (-1) ** (ctx.r - 1)
    for _ in range(40):
        a = _generic(rng)
        err = abs(ctx.mdim(a) * ctx.q_num(ctx.r * a) - sign * ctx.r * ctx.q_num(a))
        _assert(err < 1e-9, f"relation fails at {a}: {err:.2e}")


def check_constants_coupling(ctx: RootParams, rng) -> None:
    errors = {
        "delta = lambda·Delta+": abs(ctx.delta - ctx.lam * ctx.delta_plus),
        "1/delta = lambda·Delta-": abs(1 / ctx.delta - ctx.lam * ctx.delta_minus),
        "lambda = sqrt(r')/r^2": abs(ctx.lam - np.sqrt(ctx.rprime) / ctx.r**2),
        "eta = 1/(r·sqrt(r'))": abs(ctx.eta - 1 / (ctx.r * np.sqrt(ctx.rprime))),
        "|delta| = 1": abs(abs(ctx.delta) - 1),
    }
    for relation, err in errors.items():
        _assert(err < 1e-12, f"{relation} fails by {err:.2e}")


def check_weight_set_shape(ctx: RootParams, rng) -> None:
    h = ctx.h_r_set()
    _assert(len(h) == ctx.r, f"|H_r| = {len(h)} != r")
    _assert(max(h) - min(h) == 2 * (ctx.r - 1), "H_r span != 2(r-1)")
    _assert(all((x - (1 - ctx.r)) % 2 == 0 for x in h), "H_r not in 1-r+2Z")
    _assert(sorted(h) == h, "H_r not increasing")


# ----------------------------------------------------------------------
# representation layer
# ----------------------------------------------------------------------


def check_module_relations(ctx: RootParams, rng) -> None:
    a = rc.valpha_stack(ctx, (_generic(rng),))
    b = rc.valpha_stack(ctx, (_generic(rng),))
    modules = {"A": a, "B": b, "A⊗B": rc.tensor(a, b),
               "A*": a.dual, "B*⊗A": rc.tensor(b.dual, a), "A⊗B*": rc.tensor(a, b.dual),
               "A⊗B⊗A*": rc.tensor(rc.tensor(a, b), a.dual)}
    for name, mod in modules.items():
        res = rc.relations_residual(mod)
        _assert(res < 1e-10, f"relations residual {res:.2e} on {name}")


def check_yang_baxter(ctx: RootParams, rng) -> None:
    mods = [rc.valpha_stack(ctx, (_generic(rng),)) for _ in range(3)]
    a, b, c = mods
    ia, ib, ic = (np.eye(m.dim) for m in mods)
    r_ab, r_ac, r_bc = (rc.braiding_stack(x, y)[0] for x, y in ((a, b), (a, c), (b, c)))
    lhs = np.kron(r_bc, ia) @ np.kron(ib, r_ac) @ np.kron(r_ab, ic)
    rhs = np.kron(ic, r_ab) @ np.kron(r_ac, ib) @ np.kron(ia, r_bc)
    err = np.abs(lhs - rhs).max()
    _assert(err < 1e-8, f"YBE residual {err:.2e}")


def check_twist_scalar_and_ribbon(ctx: RootParams, rng) -> None:
    alpha = _generic(rng)
    a = rc.valpha_stack(ctx, (alpha,))
    b = rc.valpha_stack(ctx, (_generic(rng),))
    sa = rc.scalar_of(rc.twist(a), ctx.tol)
    _assert(abs(sa - rc.twist_scalar(ctx, alpha)) < 1e-9, "twist scalar drift")
    t_ab = rc.twist(rc.tensor(a, b))
    ribbon = (
        rc.braiding_stack(b, a)[0]
        @ rc.braiding_stack(a, b)[0]
        @ np.kron(rc.twist(a), rc.twist(b))
    )
    err = np.abs(t_ab - ribbon).max()
    _assert(err < 1e-8, f"ribbon compatibility residual {err:.2e}")


def check_degree_additivity(ctx: RootParams, rng) -> None:
    a = rc.valpha_stack(ctx, (_generic(rng),))
    b = rc.valpha_stack(ctx, (_generic(rng),))
    t = rc.tensor(a, b)
    _assert(
        ctx.is_congruent_mod2(t.degrees[0], a.degrees[0] + b.degrees[0]),
        "degree not additive under tensor",
    )
    _assert(
        ctx.is_congruent_mod2(a.dual.degrees[0], -a.degrees[0]),
        "degree not negated under dual",
    )


# ----------------------------------------------------------------------
# diagram layer
# ----------------------------------------------------------------------


def check_reidemeister_two(ctx: RootParams, rng) -> None:
    a = rc.valpha_stack(ctx, (_generic(rng),))
    up = Strand("K", True)
    wiggle = SlicedDiagram((Braid(0, 1), Braid(0, -1)), (up, up))
    m = dg.evaluate(wiggle, {"K": a}, ctx)
    err = np.abs(m - np.eye(a.dim * a.dim)).max()
    _assert(err < 1e-10, f"RII residual {err:.2e}")


def check_reidemeister_three(ctx: RootParams, rng) -> None:
    mods = {"K": rc.valpha_stack(ctx, (_generic(rng),))}
    word1 = [(0, 1), (1, 1), (0, 1)]
    word2 = [(1, 1), (0, 1), (1, 1)]
    d1 = dg.braid_closure(word1, 3)
    d2 = dg.braid_closure(word2, 3)
    v1 = dg.evaluate(d1, mods, ctx)[0, 0]
    v2 = dg.evaluate(d2, mods, ctx)[0, 0]
    _assert(abs(v1 - v2) < 1e-9 * (1 + abs(v1)), f"RIII residual {abs(v1 - v2):.2e}")


def check_coupon_slide(ctx: RootParams, rng) -> None:
    a = rc.valpha_stack(ctx, (_generic(rng),))
    mat = rng.normal(size=(a.dim, a.dim)) + 1j * rng.normal(size=(a.dim, a.dim))
    up = Strand("K", True)
    coupon = Coupon(0, (up,), (up,), mat)
    source = (up, up)
    early = SlicedDiagram((coupon, Id(), Braid(0, 1)), source)
    late = SlicedDiagram((Id(), coupon, Braid(0, 1)), source)
    v1 = dg.evaluate(early, {"K": a}, ctx)
    v2 = dg.evaluate(late, {"K": a}, ctx)
    err = np.abs(v1 - v2).max()
    _assert(err < 1e-10 * max(1.0, np.abs(v1).max()), f"coupon slide {err:.2e}")


def check_closed_scalar(ctx: RootParams, rng) -> None:
    d = dg.clasp_diagram(2)
    m = dg.evaluate(d, {"A": _generic(rng), "B": _generic(rng)}, ctx)
    _assert(m.shape == (1, 1), f"closed diagram shape {m.shape}")


def check_functoriality_monoidality(ctx: RootParams, rng) -> None:
    a = rc.valpha_stack(ctx, (_generic(rng),))
    up = Strand("K", True)
    first = SlicedDiagram((Braid(0, 1),), (up, up))
    second = SlicedDiagram((Braid(0, -1),), (up, up))
    both = SlicedDiagram((Braid(0, 1), Braid(0, -1)), (up, up))
    m1 = dg.evaluate(first, {"K": a}, ctx)
    m2 = dg.evaluate(second, {"K": a}, ctx)
    mb = dg.evaluate(both, {"K": a}, ctx)
    err = np.abs(mb - m2 @ m1).max()
    _assert(err < 1e-10, f"vertical functoriality {err:.2e}")
    pair = SlicedDiagram((Braid(0, 1), Braid(2, 1)), (up, up, up, up))
    mp = dg.evaluate(pair, {"K": a}, ctx)
    err = np.abs(mp - np.kron(m1, m1)).max()
    _assert(err < 1e-10, f"horizontal monoidality {err:.2e}")


# ----------------------------------------------------------------------
# surgery-invariant layer
# ----------------------------------------------------------------------


def check_fprime_cut_independence(ctx: RootParams, rng) -> None:
    a, b = _generic(rng), _generic(rng)
    colors = {"A": a, "B": b}
    # two slicings of the same Hopf link, each cut component outermost
    vb = iv.f_prime(dg.clasp_diagram(1, "A", "B"), colors, ctx, cut_component="B")
    va = iv.f_prime(dg.clasp_diagram(1, "B", "A"), colors, ctx, cut_component="A")
    _assert(abs(va - vb) < 1e-9 * (1 + abs(va)), f"cut choice residual {abs(va-vb):.2e}")


def check_z_lift_shift(ctx: RootParams, rng) -> None:
    beta = _generic(rng)
    z0 = iv.z_invariant(iv.unknot_presentation(ctx, 0, beta)).z
    for shift in (2, -4):
        z1 = iv.z_invariant(iv.unknot_presentation(ctx, 0, beta + shift)).z
        err = abs(z0 - z1)
        _assert(err < 1e-9 * (1 + abs(z0)), f"lift shift {shift:+d} residual {err:.2e}")


def _parallel_compatible_meridian(rng, framing: int) -> float:
    # the class must vanish on the preferred parallel: framing · c ≡ 0 mod 2
    choices = [
        2 * k / framing
        for k in range(1, 3 * abs(framing))
        if (2 * k) % (2 * abs(framing))  # skip integral values
    ]
    return float(rng.choice(choices))


def check_z_handle_slide(ctx: RootParams, rng) -> None:
    f = (3, 5)
    sp0 = iv.standard_two_component(
        ctx,
        0,
        f,
        tuple(_parallel_compatible_meridian(rng, fi) for fi in f),
    )
    sp1 = iv.handle_slide(sp0, "L1", "L2")
    z0, z1 = iv.z_invariant(sp0).z, iv.z_invariant(sp1).z
    # Z vanishes on both sides here (|Z| <= 7e-12 at r = 2-7), so this only
    # checks that the slid presentation's Z vanishes too
    _assert(abs(z0 - z1) < 1e-8 * (1 + abs(z0)), f"slide residual {abs(z0-z1):.2e}")
    # sliding forward and back restores the data: exactly on (2/3, 4/5),
    # within 1e-12 on the drawn classes, where (c_j - c_i) + c_i can round
    exact = iv.standard_two_component(ctx, 0, f, (2.0 / 3, 4.0 / 5))
    for start, tol in ((sp0, 1e-12), (exact, 0.0)):
        back = iv.handle_slide(iv.handle_slide(start, "L1", "L2"), "L1", "L2", reverse=True)
        _assert(
            back.framings == start.framings
            and back.diagram == start.diagram
            and all(
                abs(back.meridian_values[k] - start.meridian_values[k]) <= tol
                for k in start.meridian_values
            ),
            f"slide round trip drifted from {start.meridian_values}",
        )


def check_z_two_forms(ctx: RootParams, rng) -> None:
    res = iv.z_invariant(
        iv.unknot_presentation(ctx, -3, _parallel_compatible_meridian(rng, -3))
    )
    _assert(
        abs(res.z - res.z_via_betti) < 1e-9 * (1 + abs(res.z)),
        f"two normalization routes differ by {abs(res.z - res.z_via_betti):.2e}",
    )


def check_framing_twist(ctx: RootParams, rng) -> None:
    a = _generic(rng)
    d = dg.unknot_diagram("K")
    v0 = iv.f_prime(d, {"K": a}, ctx, framings={"K": 0})
    for framing in (1, 2):
        v = iv.f_prime(d, {"K": a}, ctx, framings={"K": framing})
        err = abs(v - rc.twist_scalar(ctx, a) ** framing * v0)
        _assert(err < 1e-9 * (1 + abs(v0)), f"framing {framing} twist residual {err:.2e}")


# ----------------------------------------------------------------------
# dimension layer
# ----------------------------------------------------------------------


def check_verlinde_identity(ctx: RootParams, rng) -> None:
    for genus in (1, 2):
        graph = td.random_generic_graph(ctx, rng, genus)
        gd = td.graded_dimension(graph)
        for _ in range(5):
            beta = _generic(rng)
            v = verlinde(ctx, genus, beta)
            err = abs(gd.evaluate_at(ctx, beta) - v) / (1 + abs(v))
            _assert(err < 1e-8, f"genus {genus} identity residual {err:.2e}")


def check_surgery_verlinde(ctx: RootParams, rng) -> None:
    beta = _generic(rng)
    z = iv.z_invariant(iv.unknot_presentation(ctx, 0, beta)).z
    v = verlinde(ctx, 0, beta)
    _assert(abs(z - v) < 1e-9 * (1 + abs(v)), f"surgery/Verlinde gap {abs(z-v):.2e}")


def _closed_form_count(ctx: RootParams, genus: int, legs: int) -> int:
    # r' colors on each of the 3g-3+n edges and, at even r, two degrees at
    # each of the 2g-2+n vertices
    return ctx.r ** (3 * genus - 3 + legs) // (1 if ctx.r % 2 else 2 ** (genus - 1))


def check_coloring_counts(ctx: RootParams, rng) -> None:
    for genus in (2, 3):
        graph = td.random_generic_graph(ctx, rng, genus)
        total = sum(td.graded_dimension(graph).coefficients.values())
        expect = _closed_form_count(ctx, genus, 0)
        _assert(total == expect, f"genus-{genus} count {total} != {expect}")


GRID_CELLS = 2_000_000


def assert_hh0_matches_oracle(graph: td.TrivalentGraph, rng) -> None:
    """HH0 of ``graph`` against the coloring grid when it has at most
    ``GRID_CELLS`` cells, else against the exact total and the Verlinde
    formula at three generic points (the grid would need r'^edges cells)."""
    ctx = graph.ctx
    hh = td.hh0_dimension_generic(graph)
    mode = "plain" if ctx.r % 2 else "super"
    _assert(hh.parity_mode == mode, f"HH0 parity mode {hh.parity_mode}, not {mode}")
    internal = [e for e in graph.internal_edges if not e.is_circle]
    if ctx.rprime ** len(internal) <= GRID_CELLS:
        grid = td.graded_dimension(graph)
        _assert(
            hh.coefficients == grid.coefficients,
            f"HH0 and the grid disagree on genus {graph.genus}",
        )
        return
    genus, legs = graph.genus, graph.external_edges
    expect = _closed_form_count(ctx, genus, len(legs))
    _assert(hh.total == expect, f"genus-{genus} HH0 total {hh.total} != {expect}")
    points = [complex(e.color) * (1 if e.head else -1) for e in legs]
    for _ in range(3):
        beta = _generic(rng)
        v = verlinde(ctx, genus, beta, points)
        err = abs(hh.evaluate_at(ctx, beta) - v)
        _assert(err <= 1e-8 * abs(v), f"genus-{genus} HH0/Verlinde gap {err:.2e}")


def check_hh0_matches_enumeration(ctx: RootParams, rng) -> None:
    for _ in range(3):
        genus = int(rng.integers(1, 4))
        legs = int(rng.integers(0, 3))
        if legs == 1 and ctx.r % 2 == 0:
            legs = 2
        assert_hh0_matches_oracle(td.random_generic_graph(ctx, rng, genus, legs), rng)


def check_graph_independence(ctx: RootParams, rng) -> None:
    t1 = td.graded_dimension(td.theta_graph(ctx, _generic(rng), _generic(rng)))
    t2 = td.graded_dimension(td.theta_graph(ctx, _generic(rng), _generic(rng)))
    _assert(t1.coefficients == t2.coefficients, "theta histograms differ")
    n3 = td.graded_dimension(td.necklace_graph(ctx, 3, [0.21, 0.83], 0.55))
    t3 = td.graded_dimension(td.tetrahedron_graph(ctx, 0.31, 0.44, 0.62))
    _assert(n3.coefficients == t3.coefficients, "genus-3 necklace and tetrahedron differ")
    dumbbell = td.dumbbell_graph(ctx, _generic(rng), _generic(rng))
    try:
        td.graded_dimension(dumbbell)
    except NonGenericError:
        return
    raise AssertionError("dumbbell bridge should be non-generic")


CHECKS: list[tuple[str, Callable]] = [
    ("qscalar: q_num oddness and sine form", check_qnum_odd_and_sine),
    ("qscalar: modified dimension periodicity", check_mdim_periodicity),
    ("qscalar: modified dimension defining relation", check_mdim_defining_relation),
    ("qscalar: delta/lambda/Gauss-sum coupling", check_constants_coupling),
    ("qscalar: weight set size and span", check_weight_set_shape),
    ("repcat: defining relations on modules", check_module_relations),
    ("repcat: Yang-Baxter equation", check_yang_baxter),
    ("repcat: twist scalars and ribbon compatibility", check_twist_scalar_and_ribbon),
    ("repcat: degree additivity", check_degree_additivity),
    ("diagram: Reidemeister II", check_reidemeister_two),
    ("diagram: Reidemeister III", check_reidemeister_three),
    ("diagram: coupon slides past identity", check_coupon_slide),
    ("diagram: closed diagrams are scalar", check_closed_scalar),
    ("diagram: functoriality and monoidality", check_functoriality_monoidality),
    ("invariant: cut-choice independence", check_fprime_cut_independence),
    ("invariant: lift-shift invariance", check_z_lift_shift),
    ("invariant: handle-slide invariance", check_z_handle_slide),
    ("invariant: two normalization routes agree", check_z_two_forms),
    ("invariant: framing changes twist the value", check_framing_twist),
    ("tqftdim: Verlinde identity", check_verlinde_identity),
    ("tqftdim: surgery/Verlinde consistency", check_surgery_verlinde),
    ("tqftdim: coloring counts", check_coloring_counts),
    ("tqftdim: Hochschild route matches enumeration", check_hh0_matches_enumeration),
    ("tqftdim: graph independence and bridge rejection", check_graph_independence),
]


def run_check(ctx: RootParams, name: str, fn: Callable, seed: int = 0) -> CheckResult:
    """Run one property check on a generator seeded from ``seed`` and its name."""
    rng = np.random.default_rng(seed + zlib.crc32(name.encode()) % 100000)
    try:
        fn(ctx, rng)
    except AssertionError as exc:
        return CheckResult(name, False, str(exc))
    except Exception as exc:  # noqa: BLE001 - report, do not crash the suite
        return CheckResult(name, False, f"{type(exc).__name__}: {exc}")
    return CheckResult(name, True)


def run_selftest(r: int, seed: int = 0) -> list[CheckResult]:
    """Run every property check for the given root order."""
    ctx = RootParams(r)
    return [run_check(ctx, name, fn, seed) for name, fn in CHECKS]
