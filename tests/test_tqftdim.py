"""Dimension layer: admissible colorings, graded dimensions, closed forms."""

import numpy as np
import pytest

from unrolledsl2.errors import DomainError, NonGenericError
from unrolledsl2.qscalar import RootParams
from unrolledsl2.tqftdim import (
    GraphEdge,
    TrivalentGraph,
    add_leg,
    add_point_chain,
    circle_graph,
    dumbbell_graph,
    graded_dimension,
    hh0_dimension_generic,
    necklace_graph,
    random_generic_graph,
    tetrahedron_graph,
    theta_graph,
    triple_admissible,
    verlinde,
)


def _generic(rng):
    while True:
        v = float(rng.uniform(0.1, 1.9))
        if abs(v - round(v)) > 0.05:
            return v


# ----------------------------------------------------------------------
# admissible triples
# ----------------------------------------------------------------------


def test_triple_admissible_examples():
    # odd root: at most one degree, fixed by the weight-window shift
    ctx3 = RootParams(3)
    assert triple_admissible(ctx3, 0.5, 0.5, 1.0) == {0}
    assert triple_admissible(ctx3, 0.5, 0.5, 1.0 + 2 * ctx3.rprime) == {1}
    assert triple_admissible(ctx3, 0.5, 0.5, 1.5) == set()
    # even root: parity must match the odd lattice; (1/2,1/2,1) sums to an
    # even integer and is inadmissible, (1/2,1/2,0) admits two consecutive
    ctx2 = RootParams(2)
    assert triple_admissible(ctx2, 0.5, 0.5, 1.0) == set()
    ks = triple_admissible(ctx2, 0.5, 0.5, 0.0)
    assert len(ks) == 2 and max(ks) == min(ks) + 1


def test_triple_admissible_shapes():
    rng = np.random.default_rng(21)
    for r in (2, 3, 5, 6, 7):
        ctx = RootParams(r)
        for _ in range(60):
            a, b = _generic(rng), _generic(rng)
            c = float(rng.integers(-3, 4)) - a - b + (ctx.r - 1)
            ks = triple_admissible(ctx, a, b, c)
            if r % 2:
                assert len(ks) <= 1
            else:
                assert len(ks) in (0, 2)
                if ks:
                    assert max(ks) == min(ks) + 1
            # symmetry in the colors
            assert ks == triple_admissible(ctx, c, a, b)
            # nonreal colors admit nothing
            assert triple_admissible(ctx, a + 0.3j, b, c) == set()


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


def test_closed_form_counts():
    rng = np.random.default_rng(23)
    for r in (2, 3, 5, 6, 7):
        ctx = RootParams(r)
        for g in (2, 3):
            graph = random_generic_graph(ctx, rng, g)
            total = sum(graded_dimension(graph).coefficients.values())
            if r % 2:
                assert total == r ** (3 * g - 3)
            else:
                assert total == r ** (3 * g - 3) // 2 ** (g - 1)


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


def _verlinde_mp(mp, r, genus, beta, points=()):
    """The closed form at 50 digits: the reference for large genus."""
    mp.mp.dps = 50
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
    mp = pytest.importorskip("mpmath")
    ctx = RootParams(r)
    ref = _verlinde_mp(mp, r, genus, beta)
    log_ref = float(mp.log(abs(ref)))
    if log_ref < 700:
        v = verlinde(ctx, genus, beta)
        assert abs(v - complex(ref)) <= 1e-8 * float(abs(ref))
        return
    with pytest.raises(DomainError, match="overflows double precision") as exc:
        verlinde(ctx, genus, beta)
    reported = float(str(exc.value).split("e^")[1].split(",")[0])
    assert abs(reported - log_ref) < 0.1


def test_verlinde_identity_spot(tol=1e-9):
    rng = np.random.default_rng(27)
    for r in (3, 6):
        ctx = RootParams(r)
        graph = random_generic_graph(ctx, rng, 2)
        gd = graded_dimension(graph)
        for _ in range(5):
            beta = _generic(rng)
            v = verlinde(ctx, 2, beta)
            assert abs(gd.evaluate_at(ctx, beta) - v) < 1e-8 * (1 + abs(v))


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
# graph independence
# ----------------------------------------------------------------------


def test_histogram_graph_independence():
    rng = np.random.default_rng(31)
    for r in (2, 3, 5, 6, 7):
        ctx = RootParams(r)
        h1 = graded_dimension(necklace_graph(ctx, 3, [0.21, 0.83], 0.55))
        h2 = graded_dimension(tetrahedron_graph(ctx, 0.31, 0.44, 0.62))
        assert h1.coefficients == h2.coefficients
        t1 = graded_dimension(theta_graph(ctx, _generic(rng), _generic(rng)))
        t2 = graded_dimension(theta_graph(ctx, _generic(rng), _generic(rng)))
        assert t1.coefficients == t2.coefficients


def test_dumbbell_bridge_is_non_generic():
    ctx = RootParams(5)
    with pytest.raises(NonGenericError):
        graded_dimension(dumbbell_graph(ctx, 0.3, 0.7))


# ----------------------------------------------------------------------
# marked points
# ----------------------------------------------------------------------


def test_single_point_needs_trivial_degree():
    ctx = RootParams(5)
    graph = add_leg(circle_graph(ctx, 0.37), "c0", 0.0)
    assert len(graph.external_edges) == 1
    # generic color: the meridian sum obstruction
    with pytest.raises(DomainError):
        add_leg(circle_graph(ctx, 0.37), "c0", 0.4)
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


def test_point_chain_needs_zero_degree_sum():
    ctx = RootParams(5)
    base = theta_graph(ctx, 0.3, 0.45)
    with pytest.raises(DomainError):
        add_point_chain(base, "e1", [0.4, 0.3])


# ----------------------------------------------------------------------
# Hochschild route
# ----------------------------------------------------------------------


def test_hh0_equals_enumeration_spot():
    rng = np.random.default_rng(33)
    for r in (2, 3, 5, 6, 7):
        ctx = RootParams(r)
        for _ in range(4):
            genus = int(rng.integers(1, 4))
            legs = int(rng.integers(0, 3))
            if legs == 1 and r % 2 == 0:
                legs = 2
            graph = random_generic_graph(ctx, rng, genus, legs)
            a = graded_dimension(graph)
            b = hh0_dimension_generic(graph)
            assert a.coefficients == b.coefficients
            assert a.parity_mode == b.parity_mode


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
    """HH0 against the grid up to 2e6 cells, else the exact total and Verlinde."""
    ctx = RootParams(r)
    graph = build(ctx)
    hh = hh0_dimension_generic(graph)
    assert hh.parity_mode == ("plain" if r % 2 else "super")
    internal = [e for e in graph.internal_edges if not e.is_circle]
    if ctx.rprime ** len(internal) <= 2e6:
        assert hh.coefficients == graded_dimension(graph).coefficients
        return
    genus, legs = graph.genus, graph.external_edges
    assert hh.total == r ** (3 * genus - 3 + len(legs)) // (
        1 if r % 2 else 2 ** (genus - 1)
    )
    points = [complex(e.color) * (1 if e.head else -1) for e in legs]
    rng = np.random.default_rng(r + genus)
    for _ in range(3):
        beta = _generic(rng)
        v = verlinde(ctx, genus, beta, points)
        assert abs(hh.evaluate_at(ctx, beta) - v) <= 1e-8 * abs(v)


@pytest.mark.parametrize("r,genus,legs", [(9, 8, 0), (7, 9, 0), (3, 14, 1),
                                          (6, 12, 0)])
def test_hh0_exact_beyond_int64(r, genus, legs):
    # 3^40 lies between 2^63 and 2^64; the rest exceed 2^64
    ctx = RootParams(r)
    graph = _necklace(ctx, genus, 7)
    if legs:
        graph = add_leg(graph, "c0", 0.0)
    hh = hh0_dimension_generic(graph)
    exact = r ** (3 * genus - 3 + legs) // (1 if r % 2 else 2 ** (genus - 1))
    assert exact >= 2**63
    assert hh.total == exact
    assert min(hh.coefficients.values()) > 0
    beta = 0.37
    v = verlinde(ctx, genus, beta, [0.0] * legs)
    assert abs(hh.evaluate_at(ctx, beta) - v) <= 1e-8 * abs(v)


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

    def recording(a, b):
        out = merge(a, b)
        sizes.append(out.array.size // out.array.shape[-1])
        return out

    monkeypatch.setattr(td, "_merge_clusters", recording)
    hh0_dimension_generic(build(RootParams(9)))
    assert len(sizes) == merges
    assert max(sizes) == peak


def test_evaluate_super_sign():
    ctx = RootParams(6)
    gd = graded_dimension(theta_graph(ctx, 0.3, 0.45))
    plain = sum(gd.coefficients.values())
    superd = gd.evaluate(1.0)
    # the super evaluation flips odd degrees
    expected = sum(v * (-1) ** k for k, v in gd.coefficients.items())
    assert abs(superd - expected) < 1e-12
    assert plain != expected or all(k % 2 == 0 for k in gd.coefficients)
