"""Dimension layer: admissible colorings, graded dimensions, closed forms."""

import itertools
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import unrolledsl2.tqftdim as td
from unrolledsl2.closedform import verlinde
from unrolledsl2.errors import DomainError, NonGenericError
from unrolledsl2.qscalar import RootParams
from unrolledsl2.selftest import GRID_CELLS, assert_hh0_matches_oracle
from unrolledsl2.tqftdim import (
    GradedDimension,
    GraphEdge,
    TrivalentGraph,
    add_point_chain,
    circle_graph,
    dumbbell_graph,
    graded_dimension,
    hh0_dimension_generic,
    necklace_graph,
    random_generic_graph,
    tetrahedron_graph,
    theta_graph,
)


def _generic(rng):
    while True:
        v = float(rng.uniform(0.1, 1.9))
        if abs(v - round(v)) > 0.05:
            return v


# ----------------------------------------------------------------------
# admissible degrees
# ----------------------------------------------------------------------


def test_degree_window_examples():
    # the grid's lowest degree k of a vertex color sum s ∈ H_r + 2r'k;
    # odd root: the unique degree, fixed by the weight-window shift
    ctx3 = RootParams(3)
    sums = np.asarray([0.5 + 0.5 + 1.0, 0.5 + 0.5 + 1.0 + 2 * ctx3.rprime])
    assert td._degree_window(ctx3, sums).tolist() == [0, 1]
    # even root: (1/2, 1/2, 0) admits the two consecutive degrees 0 and 1
    assert td._degree_window(RootParams(2), np.asarray([1.0])).tolist() == [0]


# ----------------------------------------------------------------------
# graph validation
# ----------------------------------------------------------------------


def test_graph_validation_errors():
    ctx = RootParams(5)
    with pytest.raises(DomainError):
        # not trivalent
        TrivalentGraph(
            ctx, (GraphEdge("e", "u", "v", 0.3), GraphEdge("f", "u", "v", -0.3))
        )
    with pytest.raises(DomainError):
        # gradings do not close up to a 1-cycle
        theta = (
            GraphEdge("e1", "u", "v", 0.3),
            GraphEdge("e2", "u", "v", 0.4),
            GraphEdge("e3", "u", "v", 0.2),
        )
        TrivalentGraph(ctx, theta)
    with pytest.raises(DomainError):
        # external leg color degree must match the grading
        edges = (
            GraphEdge("c", "x", "x", 0.5),
            GraphEdge("p", None, "x", 0.1, color=0.4),
        )
        TrivalentGraph(ctx, edges)
    # a vertex order that misses or repeats a vertex
    for order in (("u",), ("u", "u", "v")):
        with pytest.raises(DomainError, match="^vertex_order must be a permutation "
                                              "of the internal vertices$"):
            TrivalentGraph(ctx, theta_graph(ctx, 0.3, 0.45).edges, order)


def test_graded_dimension_needs_a_known_parity_mode():
    with pytest.raises(DomainError, match="^unknown parity mode 'x'$"):
        GradedDimension({0: 1}, "x")


def _signed_rows(graph):
    return {v: [(e.name, sign) for e, sign in ends] for v, ends in graph.incidence.items()}


def test_incidence_table():
    # per vertex three (edge, sign) entries in edge order: +1 at the edge's
    # head, -1 at its tail, and a loop once with each sign
    ctx = RootParams(5)
    theta = theta_graph(ctx, 0.3, 0.45)
    assert _signed_rows(theta) == {
        "u": [("e1", -1), ("e2", -1), ("e3", 1)],
        "v": [("e1", 1), ("e2", 1), ("e3", -1)],
    }
    assert _signed_rows(_loops_with_legs(ctx, 2)) == {
        "u0": [("l0", 1), ("l0", -1), ("p0", 1)],
        "u1": [("l1", 1), ("l1", -1), ("p1", 1)],
    }
    chain = add_point_chain(theta, "e1", [0.4, -0.4])
    assert _signed_rows(chain) == {
        "u": [("e2", -1), ("e3", 1), ("e1.0", -1)],
        "v": [("e2", 1), ("e3", -1), ("e1.2", 1)],
        "x_p0": [("e1.0", 1), ("p0", 1), ("e1.1", -1)],
        "x_p1": [("e1.1", 1), ("p1", 1), ("e1.2", -1)],
    }
    for graph in (theta, chain):
        for v, ends in graph.incidence.items():
            assert all(v == (e.head if sign == 1 else e.tail) for e, sign in ends)


def test_graph_genus():
    ctx = RootParams(5)
    assert circle_graph(ctx, 0.3).genus == 1
    assert theta_graph(ctx, 0.3, 0.4).genus == 2
    assert tetrahedron_graph(ctx, 0.21, 0.34, 0.42).genus == 3
    assert necklace_graph(ctx, 4).genus == 4


# ----------------------------------------------------------------------
# counting
# ----------------------------------------------------------------------


def test_circle_counts():
    for r in (2, 3, 5, 6, 7):
        ctx = RootParams(r)
        gd = graded_dimension(circle_graph(ctx, 0.37))
        assert sum(gd.coefficients.values()) == ctx.rprime
        assert set(gd.coefficients) == {0}


# ----------------------------------------------------------------------
# Verlinde identity
# ----------------------------------------------------------------------


def test_verlinde_genus_one_value():
    for r in (2, 3, 5, 6, 7):
        ctx = RootParams(r)
        assert abs(verlinde(ctx, 1, 1.0 / 3) - ctx.rprime) < 1e-10


def test_verlinde_domain():
    ctx = RootParams(5)
    with pytest.raises(DomainError):
        verlinde(ctx, -1, 0.3)
    with pytest.raises(DomainError):
        verlinde(ctx, 1, 2.0)


def _verlinde_mp(mp, r, genus, beta, points=(), dps=50):
    """The closed form at ``dps`` digits: the reference for large genus."""
    mp.mp.dps = dps
    beta = mp.mpmathify(beta)

    def q(x):
        return mp.exp(1j * mp.pi * x / r)

    def qn(x):
        return q(x) - q(-x)

    rp = r if r % 2 else r // 2
    c = sum(mp.mpmathify(p) for p in points)
    exponent = 2 * genus - 2 + len(points)
    total = sum(
        q(c * k) * (qn(r * beta) / qn(beta + k)) ** exponent
        for k in range(1 - r, r, 2)
    )
    sign = -1 if (len(points) * (r - 1)) % 2 else 1
    return sign * mp.mpf(rp) ** genus / r * q(c * beta) * total


@pytest.mark.parametrize(
    "r,genus,beta",
    # (6, 700, 0.08): 3^700 leaves double range, the value does not
    [(5, 3, 0.37), (2, 400, 0.37), (6, 400, 1 / 6), (6, 700, 0.08),
     (5, 400, 1 / 3), (7, 400, 0.37)],
)
def test_verlinde_large_genus(r, genus, beta):
    _assert_verlinde_matches_mp(r, genus, beta)


def _assert_verlinde_matches_mp(r, genus, beta, points=()):
    """The value within 1e-8 of the 50-digit closed form, or, when that
    leaves double range, an overflow error reporting its magnitude."""
    mp = pytest.importorskip("mpmath")
    ctx = RootParams(r)
    ref = _verlinde_mp(mp, r, genus, beta, points)
    log_ref = float(mp.log(abs(ref)))
    if log_ref < 700:
        v = verlinde(ctx, genus, beta, points)
        assert abs(v - complex(ref)) <= 1e-8 * float(abs(ref))
        return
    with pytest.raises(DomainError, match="overflows double precision") as exc:
        verlinde(ctx, genus, beta, points)
    reported = float(str(exc.value).split("e^")[1].split(",")[0])
    assert abs(reported - log_ref) < 0.1


@pytest.mark.parametrize(
    "r,genus,beta,points",
    # q^(cβ) below double's normal range: on the direct sum (|Im β| < 225)
    # and on the far path, where {rβ} leaves double range too
    [(3, 1, 0.3 + 200j, (4.5,)), (5, 1, 0.3 + 210j, (6.2,)), (3, 1, 0.3 + 226j, (3.5,)),
     (3, 1, 0.3 - 226j, (-3.5,)), (6, 1, 0.3 + 230j, (41 / 3, -7 / 5)),
     (3, 3, 0.3 + 230j, (41 / 3, -7 / 5)), (7, 1, 0.3 + 500j, (41 / 3, -7 / 5))],
)
def test_verlinde_underflowed_prefactor_keeps_the_value(r, genus, beta, points):
    # the value, 1e-11 to 1e-227 here, fits a double where q^(cβ) alone does
    # not: it printed 0 or was refused as lost to rounding
    mp = pytest.importorskip("mpmath")
    ref = complex(_verlinde_mp(mp, r, genus, beta, points, dps=100))
    v = verlinde(RootParams(r), genus, beta, points)
    assert abs(v - ref) <= 1e-9 * abs(ref)


def test_verlinde_cancelled_far_sum_is_within_tolerance():
    # at |Im β| = 226, {3β} leaves double range; the rescaled terms of the
    # point color c = 3 cancel by about 205 digits, so what double precision
    # keeps of their sum is a rounding residue.  The value, −7.9e-309 −
    # 1.09e-308i at 300 digits (50 digits leave a residue of 1e-153), is
    # returned within tol·max(1, |value|)
    mp = pytest.importorskip("mpmath")
    beta = 0.3 + 226j
    ref = complex(_verlinde_mp(mp, 3, 1, beta, [3.0], dps=300))
    assert 1e-308 < abs(ref) < 2e-308
    assert abs(verlinde(RootParams(3), 1, beta, [3.0]) - ref) <= RootParams.tol


def test_verlinde_exactly_cancelled_far_sum_is_zero():
    # β = 300i with one point of color 3 at r=3: the rescaled far terms are
    # symmetric and cancel exactly, and so does the closed form (400 digits
    # leave a residue below 1e-900)
    mp = pytest.importorskip("mpmath")
    assert abs(_verlinde_mp(mp, 3, 0, 300j, [3.0], dps=400)) < mp.mpf("1e-900")
    assert verlinde(RootParams(3), 0, 300j, [3.0]) == 0


def test_verlinde_real_class_near_an_integer():
    # {x} of a real x is 2i sin of the rounded pi*x/r, so each ratio
    # {3 beta}/{beta + k} keeps its digits as beta -> 0; a bound that charged
    # the cancellation of complex classes refused this value
    mp = pytest.importorskip("mpmath")
    ref = complex(_verlinde_mp(mp, 3, 5, 1.7e-6, dps=60))
    v = verlinde(RootParams(3), 5, 1.7e-6)
    assert abs(v - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("r", [3, 5, 6, 7])
@pytest.mark.parametrize("im", [5, 300, 500])
def test_verlinde_genus_one_at_large_imaginary_class(r, im):
    # r' at every class, also where {r beta} itself leaves double range
    ctx = RootParams(r)
    for beta in (0.3 + im * 1j, 0.3 - im * 1j):
        assert abs(verlinde(ctx, 1, beta) - ctx.rprime) <= 1e-12 * ctx.rprime


@pytest.mark.parametrize(
    "r,genus,beta,points",
    # |Im beta| >= 230 puts {r beta} out of double range; with these point
    # colors the leading terms do not cancel, so 50 digits resolve the value
    [(5, 0, 0.3 + 230j, (0.2, 0.3, -0.1)), (5, 0, 0.3 - 230j, (0.4,)),
     (7, 0, -0.45 + 240j, (0.1, 0.1, 0.2)), (6, 0, 0.7 - 300j, (0.25,)),
     (3, 1, 0.3 + 300j, (0.35, 0.4))],
)
def test_verlinde_far_imaginary_class(r, genus, beta, points):
    _assert_verlinde_matches_mp(r, genus, beta, points)


@pytest.mark.parametrize("r,genus,beta,points", [
    (5, 2, 0.3 + 500j, ()), (3, 3, 0.3 - 300j, ()), (5, 0, 0.3 + 230j, (0.2, 0.3, 0.5)),
])
def test_verlinde_far_cancellation_is_a_domain_error(r, genus, beta, points):
    # the terms' leading parts are roots of unity summing to 0, and what is
    # left lies below the roundoff of the terms: no value, one domain error
    with pytest.raises(DomainError, match="lost to rounding in double precision"):
        verlinde(RootParams(r), genus, beta, points)


def test_grid_beyond_memory_is_refused_before_it_is_built(monkeypatch):
    # the theta graph at r = 5: 5^3 colorings, at about 128 bytes a cell
    # above one reported page of memory
    graph = theta_graph(RootParams(5), 0.3, 0.45)
    sysconf = os.sysconf
    monkeypatch.setattr(
        os, "sysconf", lambda name: 1 if name == "SC_PHYS_PAGES" else sysconf(name)
    )
    built = []
    monkeypatch.setattr(td, "_color_reps", lambda *args: built.append(args))
    with pytest.raises(MemoryError, match="the coloring grid needs"):
        graded_dimension(graph)
    assert built == []


def test_dumbbell_bridge_is_non_generic():
    ctx = RootParams(5)
    with pytest.raises(NonGenericError):
        graded_dimension(dumbbell_graph(ctx, 0.3, 0.7))


def test_verlinde_with_points():
    rng = np.random.default_rng(29)
    for r in (2, 3, 5):
        ctx = RootParams(r)
        graph = random_generic_graph(ctx, rng, 2, 2)
        gd = graded_dimension(graph)
        points = []
        for e in graph.external_edges:
            c = complex(e.color)
            points.append(c if e.head is not None else -c)
        for _ in range(5):
            beta = _generic(rng)
            v = verlinde(ctx, 2, beta, points)
            assert abs(gd.evaluate_at(ctx, beta) - v) < 1e-8 * (1 + abs(v))


# ----------------------------------------------------------------------
# marked points
# ----------------------------------------------------------------------


def test_single_point_needs_trivial_degree():
    ctx = RootParams(5)
    graph = add_point_chain(circle_graph(ctx, 0.37), "c0", [0.0])
    assert len(graph.external_edges) == 1
    # generic color: the meridian sum obstruction
    with pytest.raises(DomainError):
        add_point_chain(circle_graph(ctx, 0.37), "c0", [0.4])
    with pytest.raises(DomainError):
        random_generic_graph(RootParams(2), np.random.default_rng(0), 1, 1)


def test_point_chain_compensates():
    ctx = RootParams(5)
    base = theta_graph(ctx, 0.3, 0.45)
    graph = add_point_chain(base, "e1", [0.4, -0.4])
    assert len(graph.external_edges) == 2
    assert graph.genus == 2
    # genus g with n points has 3g-3+n internal edges: one color choice each
    total = sum(graded_dimension(graph).coefficients.values())
    assert total == ctx.r ** 5


def test_point_chain_host_must_be_an_internal_edge():
    ctx = RootParams(5)
    base = theta_graph(ctx, 0.3, 0.45)
    with pytest.raises(DomainError, match="^no internal edge named 'zz'$"):
        add_point_chain(base, "zz", [0.4, -0.4])
    legged = add_point_chain(base, "e1", [0.4, -0.4])
    with pytest.raises(DomainError, match="^no internal edge named 'p0'$"):
        add_point_chain(legged, "p0", [0.4, -0.4])
    assert add_point_chain(base, "e1", []) is base


def test_point_chain_needs_zero_degree_sum():
    ctx = RootParams(5)
    base = theta_graph(ctx, 0.3, 0.45)
    with pytest.raises(DomainError):
        add_point_chain(base, "e1", [0.4, 0.3])


# ----------------------------------------------------------------------
# builders
# ----------------------------------------------------------------------


def test_necklace_builder_arguments():
    ctx = RootParams(5)
    with pytest.raises(DomainError, match="^genus must be >= 1, got 0$"):
        necklace_graph(ctx, 0)
    assert necklace_graph(ctx, 1, connector_grading=0.3) == circle_graph(ctx, 0.3)
    with pytest.raises(DomainError, match="^need 2 bigon gradings for genus 3$"):
        necklace_graph(ctx, 3, [0.3])


class _ScriptedRng:
    """A stand-in generator for :func:`random_generic_graph`: ``uniform``
    returns the scripted draws in turn, ``random`` always picks the theta."""

    def __init__(self, draws):
        self.draws = iter(draws)

    def uniform(self, low, high):
        return next(self.draws)

    def random(self):
        return 0.0


def test_random_graph_redraws_an_integral_edge():
    # each draw is 0.05 from an integer, but 0.3 + 0.7 puts e3 on one
    ctx = RootParams(5)
    rng = _ScriptedRng([0.3, 0.7, 0.3, 0.45])
    assert random_generic_graph(ctx, rng, 2) == theta_graph(ctx, 0.3, 0.45)
    with pytest.raises(DomainError, match="^failed to draw a generic graph in 200 attempts$"):
        random_generic_graph(ctx, _ScriptedRng(itertools.cycle([0.3, 0.7])), 2)


# ----------------------------------------------------------------------
# complex classes
# ----------------------------------------------------------------------

# real parts on the integers and half-integers, where a window end can hold
# a color; nonzero imaginary parts keep each class generic
_REAL_PARTS = st.integers(-6, 6).map(lambda n: n / 2)
_IMAG_PARTS = st.sampled_from([-1.5, -0.75, -0.25, 0.25, 0.5, 1.25])
_CLASSES = st.builds(complex, _REAL_PARTS, _IMAG_PARTS)


@st.composite
def _complex_class_spines(draw):
    ctx = RootParams(draw(st.sampled_from([2, 3, 5, 6, 7, 9])))
    if draw(st.booleans()):
        g1, g2 = draw(_CLASSES), draw(_CLASSES)
        assume((g1 + g2).imag)
        return theta_graph(ctx, g1, g2)
    genus = draw(st.integers(2, 3))
    bigons = draw(st.lists(_CLASSES, min_size=genus - 1, max_size=genus - 1))
    x = draw(_CLASSES)
    assume(all((x - a).imag for a in bigons))
    return necklace_graph(ctx, genus, bigons, x)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_complex_class_spines())
def test_hh0_at_complex_classes_matches_the_oracle(graph):
    assert_hh0_matches_oracle(graph, np.random.default_rng(graph.ctx.r))


# ----------------------------------------------------------------------
# Hochschild route
# ----------------------------------------------------------------------


def test_hh0_equals_enumeration_spot():
    # every r class (2, odd, 2 mod 4) through r = 11: exactly the grid's
    # histogram where the grid fits, else the shared oracle's exact total
    # and closed form
    rng = np.random.default_rng(33)
    for r in (2, 3, 5, 6, 7, 9, 10, 11):
        ctx = RootParams(r)
        shapes = [(g, legs) for g in range(1, 5) for legs in (0, 2, 3)]
        graphs = [random_generic_graph(ctx, rng, g, legs) for g, legs in shapes]
        if r % 2:  # a single point, or one per loop, needs the degree-0 color
            graphs += [random_generic_graph(ctx, rng, g, 1) for g in range(1, 5)]
            graphs += [_loops_with_legs(ctx, n) for n in (1, 2)]
        for graph in graphs:
            hh = hh0_dimension_generic(graph)
            internal = [e for e in graph.internal_edges if not e.is_circle]
            if ctx.rprime ** len(internal) > GRID_CELLS:
                assert_hh0_matches_oracle(graph, rng)
                continue
            grid = graded_dimension(graph)
            assert hh.coefficients == grid.coefficients
            assert hh.parity_mode == grid.parity_mode


def test_hh0_non_generic_rejected():
    ctx = RootParams(5)
    with pytest.raises(NonGenericError):
        hh0_dimension_generic(circle_graph(ctx, 1.0))
    # the dumbbell's bridge is forced integral: both routes refuse it
    with pytest.raises(NonGenericError):
        hh0_dimension_generic(dumbbell_graph(ctx, 0.3, 0.7))


def _necklace(ctx, genus, seed):
    rng = np.random.default_rng(seed)
    while True:
        try:
            return necklace_graph(
                ctx, genus, [_generic(rng) for _ in range(genus - 1)], _generic(rng)
            )
        except NonGenericError:
            continue


def _loops_with_legs(ctx, loops):
    """Loops with one degree-0 leg each: a disjoint union of pointed tori."""
    edges = []
    for i in range(loops):
        edges.append(GraphEdge(f"l{i}", f"u{i}", f"u{i}", 0.37 + 0.2 * i))
        edges.append(GraphEdge(f"p{i}", None, f"u{i}", ctx.r - 1, color=0.0))
    return TrivalentGraph(ctx, tuple(edges))


_HH0_CASES = (
    [(f"necklace-g{g}", r, lambda ctx, g=g: _necklace(ctx, g, g))
     for g in (4, 5, 6, 7, 8) for r in (3, 5, 6, 7, 9)]
    + [("tetrahedron", 9,
        lambda ctx: tetrahedron_graph(ctx, 0.21, 0.34, 0.42))]
    + [("theta", r, lambda ctx: theta_graph(ctx, 0.3, 0.45))
       for r in (3, 5, 6, 7, 9)]
    + [("theta-2pts", r,
        lambda ctx: add_point_chain(theta_graph(ctx, 0.3, 0.45), "e1",
                                    [0.4, -0.4]))
       for r in (3, 5, 6, 7, 9)]
    + [("necklace-g5-2pts", r,
        lambda ctx: add_point_chain(_necklace(ctx, 5, 50), "c0", [0.4, -0.4]))
       for r in (6, 9)]
    + [(f"loops{n}", r, lambda ctx, n=n: _loops_with_legs(ctx, n))
       for n in (1, 2) for r in (3, 5, 7, 9)]
)


@pytest.mark.parametrize(
    "label,r,build", _HH0_CASES, ids=[f"{c[0]}-r{c[1]}" for c in _HH0_CASES]
)
def test_hh0_matches_grid_or_closed_form(label, r, build):
    graph = build(RootParams(r))
    assert_hh0_matches_oracle(graph, np.random.default_rng(r + graph.genus))


def _disjoint_union(*graphs):
    """The graphs side by side, each one's edges and vertices suffixed by its
    position so that no two pieces share a name."""
    edges = [GraphEdge(f"{e.name}.{n}", e.tail and f"{e.tail}.{n}", e.head and f"{e.head}.{n}",
                       e.grading, e.color)
             for n, graph in enumerate(graphs) for e in graph.edges]
    return TrivalentGraph(graphs[0].ctx, tuple(edges))


_DISJOINT_CASES = {
    "two-thetas": lambda ctx: [theta_graph(ctx, 0.3, 0.45), theta_graph(ctx, 0.21, 0.62)],
    "theta-and-circle": lambda ctx: [theta_graph(ctx, 0.3, 0.45), circle_graph(ctx, 0.37)],
    "pointed-necklace-and-tetrahedron": lambda ctx: [
        add_point_chain(_necklace(ctx, 3, 3), "c0", [0.4, -0.4]),
        tetrahedron_graph(ctx, 0.21, 0.34, 0.42)],
}


@pytest.mark.parametrize("r", [3, 5, 6, 7, 9])
@pytest.mark.parametrize("label", list(_DISJOINT_CASES))
def test_hh0_of_a_disjoint_union(label, r):
    # the grid where it fits; otherwise the product of the pieces' own
    # histograms, each piece a connected spine
    ctx = RootParams(r)
    pieces = _DISJOINT_CASES[label](ctx)
    graph = _disjoint_union(*pieces)
    hh = hh0_dimension_generic(graph)
    internal = [e for e in graph.internal_edges if not e.is_circle]
    if ctx.rprime ** len(internal) <= GRID_CELLS:
        want = graded_dimension(graph)
    else:
        product = {0: 1}
        for piece in map(hh0_dimension_generic, pieces):
            convolved = {}
            for k, dim in product.items():
                for j, d in piece.coefficients.items():
                    convolved[k + j] = convolved.get(k + j, 0) + dim * d
            product = convolved
        want = GradedDimension(product, "plain" if r % 2 else "super")
    assert hh == want


@pytest.mark.parametrize("r,genus,legs", [(9, 8, 0), (7, 9, 0), (3, 14, 1),
                                          (6, 12, 0)])
def test_hh0_exact_beyond_int64(r, genus, legs):
    # 3^40 lies between 2^63 and 2^64; the rest exceed 2^64
    ctx = RootParams(r)
    graph = _necklace(ctx, genus, 7)
    if legs:
        graph = add_point_chain(graph, "c0", [0.0])
    hh = hh0_dimension_generic(graph)
    exact = r ** (3 * genus - 3 + legs) // (1 if r % 2 else 2 ** (genus - 1))
    assert exact >= 2**63
    assert hh.total == exact
    assert min(hh.coefficients.values()) > 0
    beta = 0.37
    v = verlinde(ctx, genus, beta, [0.0] * legs)
    assert abs(hh.evaluate_at(ctx, beta) - v) <= 1e-8 * abs(v)


@pytest.mark.parametrize("genus,dtype", [(12, np.float64), (13, np.int64)])
def test_hh0_dtype_tier_at_2_53(monkeypatch, genus, dtype):
    # a necklace at r=3 has 3^(3g-3) colorings: 3^33 < 2^53 < 3^36 < 2^63
    import unrolledsl2.tqftdim as td

    dtypes = set()
    merge = td._merge_clusters

    def recording(a, b, held):
        out = merge(a, b, held)
        dtypes.add(out.array.dtype)
        return out

    monkeypatch.setattr(td, "_merge_clusters", recording)
    ctx = RootParams(3)
    hh = hh0_dimension_generic(_necklace(ctx, genus, 7))
    exact = 3 ** (3 * genus - 3)
    assert (exact < 2**53) == (dtype is np.float64)
    assert dtypes == {np.dtype(dtype)}
    assert hh.total == exact
    v = verlinde(ctx, genus, 0.37)
    assert abs(hh.evaluate_at(ctx, 0.37) - v) <= 1e-8 * abs(v)


def _reference_merge(a, b):
    """The tensordot merge with a strided Toeplitz band, kept as a check."""
    import unrolledsl2.tqftdim as td

    if a.array.size < b.array.size:
        a, b = b, a
    shared = [name for name in a.slots if name in b.slots]
    ka, kb = a.array.shape[-1], b.array.shape[-1]
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
    return td._Cluster(slots, out, a.k_min + b.k_min)


@pytest.mark.parametrize("dtype", [np.float64, np.int64, object])
def test_merge_matches_tensordot_reference(dtype):
    import unrolledsl2.tqftdim as td

    rng = np.random.default_rng(5)
    for trial in range(60):
        n_shared = trial % 4
        names = [f"e{i}" for i in range(n_shared + int(rng.integers(0, 5)))]
        dims = {name: int(rng.integers(1, 4)) for name in names}
        cut = n_shared + int(rng.integers(0, len(names) - n_shared + 1))
        slots_a = list(rng.permutation(names[:cut]))
        slots_b = list(rng.permutation(names[:n_shared] + names[cut:]))

        def cluster(slots):
            shape = [dims[name] for name in slots] + [int(rng.integers(1, 5))]
            array = rng.integers(0, 50, size=shape).astype(dtype)
            return td._Cluster(slots, array, int(rng.integers(-5, 5)))

        a, b = cluster(slots_a), cluster(slots_b)
        _assert_merges_agree(a, b)
    # long degree axes, with the larger operand's axis the longer or the shorter
    longer = set()
    for trial in range(16):
        slots_a = ["s", "f"][: 1 + trial % 2] + ["g"] * (trial % 4 == 3)
        slots_b = ["s", "h"][: 1 + trial // 2 % 2]
        a, b = (td._Cluster(slots, rng.integers(0, 50, size=[2] * len(slots) + [
                    int(rng.integers(1, 201))]).astype(dtype), int(rng.integers(-5, 5)))
                for slots in (slots_a, slots_b))
        big, small = (b, a) if a.array.size < b.array.size else (a, b)
        longer.add(big.array.shape[-1] >= small.array.shape[-1])
        _assert_merges_agree(a, b)
    assert longer == {True, False}


def _assert_merges_agree(a, b):
    got, want = td._merge_clusters(a, b, 0), _reference_merge(a, b)
    assert got.slots == want.slots and got.k_min == want.k_min
    assert got.array.dtype == want.array.dtype
    assert got.array.shape == want.array.shape
    assert (got.array == want.array).all()


@pytest.mark.parametrize("r,genus", [(5, 20), (5, 40), (6, 25), (6, 40)])
def test_hh0_of_a_long_necklace_matches_the_band_merge(monkeypatch, r, genus):
    graph = _necklace(RootParams(r), genus, genus)
    got = hh0_dimension_generic(graph)
    monkeypatch.setattr(td, "_merge_clusters", lambda a, b, held: _reference_merge(a, b))
    assert got == hh0_dimension_generic(graph)


def test_hh0_memory_is_linear_in_the_degree_span():
    # a merge through a Toeplitz band holds the square of the degree axis,
    # which grows by about 3 per genus: that merge peaks at 19.3 MiB here
    graph = necklace_graph(RootParams(5), 80, [0.3 + 0.001j] * 79, 0.55)
    tracemalloc.start()
    try:
        hh0_dimension_generic(graph)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@pytest.mark.parametrize(
    "build,merges,peak",
    [(lambda ctx: tetrahedron_graph(ctx, 0.21, 0.34, 0.42), 3, 9**4),
     (lambda ctx: _necklace(ctx, 8, 8), 13, 9**2)],
    ids=["tetrahedron", "necklace-g8"],
)
def test_hh0_merges_smallest_result_first(monkeypatch, build, merges, peak):
    # declaration order on the tetrahedron builds a 9^5-label intermediate;
    # merging the largest result first reaches 9^8 labels on the necklace
    import unrolledsl2.tqftdim as td

    sizes = []
    merge = td._merge_clusters

    def recording(a, b, held):
        out = merge(a, b, held)
        sizes.append(out.array.size // out.array.shape[-1])
        return out

    monkeypatch.setattr(td, "_merge_clusters", recording)
    hh0_dimension_generic(build(RootParams(9)))
    assert len(sizes) == merges
    assert max(sizes) == peak


@pytest.mark.parametrize(
    "build",
    [lambda: theta_graph(RootParams(51), 0.3, 0.45),
     lambda: tetrahedron_graph(RootParams(21), 0.31, 0.44, 0.62),
     lambda: necklace_graph(RootParams(15), 6, [0.21, 0.3, 0.4, 0.5, 0.6], 0.55),
     lambda: _necklace(RootParams(21), 5, 5)],
    ids=["theta-r51", "tetrahedron-r21", "necklace-g6-r15", "necklace-g5-r21"],
)
def test_hh0_memory_figure_covers_the_peak(monkeypatch, build):
    # the largest figure charged before an allocation is at least the traced
    # peak of the whole contraction, and not far above it; it is charged up
    # front and again at its own step.  On the genus-5 necklace the batch of
    # vertex tensors is the peak, on the others a merge
    figures = []
    charge = td.require_memory

    def recording(need, what):
        figures.append(need)
        charge(need, what)

    monkeypatch.setattr(td, "require_memory", recording)
    graph = build()
    tracemalloc.start()
    try:
        hh0_dimension_generic(graph)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= max(figures) <= 1.5 * peak
    assert figures[0] == max(figures) and figures.count(max(figures)) == 2


@pytest.mark.parametrize("genus", [30, 60])
def test_hh0_memory_figure_covers_the_python_integer_tier(monkeypatch, genus):
    # past 2^63 colorings every entry is a pointer to a Python int: charged
    # at 8 bytes an entry, genus 30 peaked at 1.60 and genus 60 at 1.87
    # times the largest figure
    graph = necklace_graph(RootParams(5), genus, [0.3 + 0.001j] * (genus - 1), 0.55)
    figures = []
    charge = td.require_memory

    def recording(need, what):
        figures.append(need)
        charge(need, what)

    monkeypatch.setattr(td, "require_memory", recording)
    tracemalloc.start()
    try:
        hh0_dimension_generic(graph)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= max(figures)


@pytest.mark.parametrize(
    "build",
    [lambda: tetrahedron_graph(RootParams(21), 0.31, 0.44, 0.62),
     lambda: _necklace(RootParams(21), 5, 5),
     lambda: add_point_chain(theta_graph(RootParams(31), 0.3, 0.45), "e1", [0.4, -0.4])],
    ids=["tetrahedron-r21", "necklace-g5-r21", "theta-2pts-r31"],
)
def test_hh0_held_bytes_are_the_live_arrays(monkeypatch, build):
    # the bytes each merge is told are held, fixed before any array is built,
    # are the arrays traced when it starts: every batch of vertex tensors
    # until its last vertex is merged, and every merge result not yet merged
    graph = build()
    gaps = []
    merge = td._merge_clusters

    def recording(a, b, held):
        gaps.append(tracemalloc.get_traced_memory()[0] - held)
        return merge(a, b, held)

    monkeypatch.setattr(td, "_merge_clusters", recording)
    tracemalloc.start()
    try:
        hh0_dimension_generic(graph)
    finally:
        tracemalloc.stop()
    assert 0 <= min(gaps) and max(gaps) < 2**16


def test_hh0_refuses_before_building_anything(monkeypatch):
    # a limit that holds the batch of vertex tensors but not the largest
    # merge: the whole contraction is refused before either is built
    graph = tetrahedron_graph(RootParams(21), 0.31, 0.44, 0.62)
    figures = []
    charge = td.require_memory
    monkeypatch.setattr(td, "require_memory", lambda need, what: (
        figures.append((need, what)), charge(need, what)))
    hh0_dimension_generic(graph)
    batch = next(need for need, what in figures[1:] if "vertex" in what)
    merge = max(figures)[0]
    assert batch < merge
    sysconf = os.sysconf
    pages = (batch + merge) // 2 // sysconf("SC_PAGE_SIZE")
    monkeypatch.setattr(
        os, "sysconf", lambda name: pages if name == "SC_PHYS_PAGES" else sysconf(name)
    )
    built = []
    monkeypatch.setattr(td, "_vertex_batch", lambda *args: built.append(args))
    monkeypatch.setattr(td, "_merge_clusters", lambda *args: built.append(args))
    with pytest.raises(MemoryError, match="an HH0 merge needs"):
        hh0_dimension_generic(graph)
    assert built == []


def test_hh0_refusal_at_the_largest_r_builds_nothing_r_sized():
    # at r' = 2^23 − 1 one row of r' labels is 64 MiB: the refusal comes from
    # scalars alone, and the plan it leaves cached holds nothing that grows
    # with r'
    graph = necklace_graph(RootParams(2**23 - 1), 3, [0.3, 0.45], 0.35)
    tracemalloc.start()
    try:
        with pytest.raises(MemoryError, match="a batch of HH0 vertex tensors needs"):
            hh0_dimension_generic(graph)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert td._spine_plan.cache_info().currsize == 1
    assert peak < 2**20 and held < 2**18


def test_evaluate_super_sign():
    ctx = RootParams(6)
    gd = graded_dimension(theta_graph(ctx, 0.3, 0.45))
    plain = sum(gd.coefficients.values())
    superd = gd.evaluate(1.0)
    # the super evaluation flips odd degrees
    expected = sum(v * (-1) ** k for k, v in gd.coefficients.items())
    assert abs(superd - expected) < 1e-12
    assert plain != expected or all(k % 2 == 0 for k in gd.coefficients)
