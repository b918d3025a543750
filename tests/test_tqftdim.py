"""Dimension layer: admissible colorings, graded dimensions, closed forms."""

import os
import tracemalloc

import numpy as np
import pytest

import unrolledsl2.tqftdim as td
from unrolledsl2.errors import DomainError, NonGenericError
from unrolledsl2.qscalar import RootParams
from unrolledsl2.selftest import GRID_CELLS, assert_hh0_matches_oracle
from unrolledsl2.tqftdim import (
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
    verlinde,
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


def test_point_chain_needs_zero_degree_sum():
    ctx = RootParams(5)
    base = theta_graph(ctx, 0.3, 0.45)
    with pytest.raises(DomainError):
        add_point_chain(base, "e1", [0.4, 0.3])


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
        got, want = td._merge_clusters(a, b, 0), _reference_merge(a, b)
        assert got.slots == want.slots and got.k_min == want.k_min
        assert got.array.dtype == want.array.dtype
        assert got.array.shape == want.array.shape
        assert (got.array == want.array).all()


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
     lambda: necklace_graph(RootParams(15), 6, [0.21, 0.3, 0.4, 0.5, 0.6], 0.55)],
    ids=["theta-r51", "tetrahedron-r21", "necklace-g6-r15"],
)
def test_hh0_memory_figure_covers_the_peak(monkeypatch, build):
    # the largest figure charged before an allocation is at least the traced
    # peak of the whole contraction, and not far above it
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


def test_evaluate_super_sign():
    ctx = RootParams(6)
    gd = graded_dimension(theta_graph(ctx, 0.3, 0.45))
    plain = sum(gd.coefficients.values())
    superd = gd.evaluate(1.0)
    # the super evaluation flips odd degrees
    expected = sum(v * (-1) ** k for k, v in gd.coefficients.items())
    assert abs(superd - expected) < 1e-12
    assert plain != expected or all(k % 2 == 0 for k in gd.coefficients)
