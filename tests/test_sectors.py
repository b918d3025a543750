"""The weight-sector route of the diagram engine against its dense route.

A batch of several terms on a crossing-only network contracts on padded
weight-sector blocks (:class:`unrolledsl2.diagram._Sectors`) when the dense
plan's peak reaches ``diagram._SECTOR_MIN_PEAK`` elements per term; a
one-term evaluation always contracts densely.  The property draws cut
networks (braid closures of 2-4 strands with 1-3 components, either
crossing sign and either cup variant, and clasps), sends every batch of
them down the sector route whatever its peak, and checks that the batch
equals the one-term evaluations term by term, with every entry off the
cut's diagonal exactly 0 on both routes.  The memory figure charged before
a layout is built must cover the traced peak of building it.
"""

import pathlib
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from cuts import cut_matrices  # noqa: E402

from unrolledsl2 import diagram  # noqa: E402
from unrolledsl2.diagram import clasp_diagram, compile_diagram  # noqa: E402
from unrolledsl2.invariant import _fixed_cut  # noqa: E402
from unrolledsl2.jsonio import load_document  # noqa: E402
from unrolledsl2.model import (  # noqa: E402
    Braid,
    Cap,
    Coupon,
    Cup,
    SlicedDiagram,
    Strand,
    parse_surgery,
)
from unrolledsl2.qscalar import RootParams  # noqa: E402
from unrolledsl2.repcat import braiding_entries, valpha_stack  # noqa: E402


def closure(word: list, strands: int, variants: list) -> SlicedDiagram:
    """The closure of ``word`` with one component per cycle of its
    permutation, strand j's cup of the variant its cycle draws."""
    perm = list(range(strands))
    for i, _ in word:
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    cycle = [None] * strands
    for start in range(strands):
        if cycle[start] is None:
            j = start
            while cycle[j] is None:
                cycle[j] = start
                j = perm[j]
    names = {c: f"K{n}" for n, c in enumerate(dict.fromkeys(cycle))}
    slices = [Cup(j, names[cycle[j]], variants[cycle[j]]) for j in range(strands)]
    slices += [Braid(i, s) for i, s in word]
    slices += [Cap(j, "evprime" if variants[cycle[j]] == "coev" else "ev")
               for j in reversed(range(strands))]
    return SlicedDiagram(tuple(slices))


@st.composite
def cut_networks(draw):
    """(diagram, cut slice, r, colors, terms): a crossing-only cut network
    and a batch of 2-9 terms, the first component a stack of that many V_α
    and each other one either such a stack or one V_α shared by every term."""
    r = draw(st.sampled_from([2, 3, 5, 6, 7]))
    if draw(st.booleans()):
        d = clasp_diagram(draw(st.sampled_from([1, -1, 2, -2, 3])), "A", "B")
    else:
        strands = draw(st.integers(2, 4))
        word = draw(st.lists(st.tuples(st.integers(0, strands - 2), st.sampled_from([1, -1])),
                             min_size=1, max_size=6))
        variants = draw(st.lists(st.sampled_from(["coev", "coevprime"]),
                                 min_size=strands, max_size=strands))
        d = closure(word, strands, variants)
    compiled = compile_diagram(d)
    assume(len(compiled.names) <= 3)
    cuts = [c for c in map(compiled.open_cut, compiled.names) if c is not None]
    cut = draw(st.sampled_from(cuts))
    assume(compiled.cut(cut).plan(dict.fromkeys(compiled.names, r)).sectors is not None)
    terms = draw(st.integers(2, 9))
    ctx = RootParams(r)
    colors = {}
    for n, name in enumerate(compiled.names):
        count = terms if n == 0 else draw(st.sampled_from([1, terms]))
        alphas = [complex(draw(st.integers(-2, 1)) + draw(st.floats(0.1, 0.9)),
                          draw(st.sampled_from([0.0, 0.3, -0.7])))
                  for _ in range(count)]
        colors[name] = valpha_stack(ctx, alphas)
    return d, cut, ctx, colors, terms


def off_diagonal(m: np.ndarray) -> np.ndarray:
    return m[:, ~np.eye(m.shape[1], dtype=bool)]


def magnitude_bound(network, colors: dict, d: SlicedDiagram) -> np.ndarray:
    """The dense contraction of the entrywise moduli of every block, per
    term: each entry of either route is a sum whose terms' moduli add up to
    at most this, so their rounding differs by a small multiple of unit
    roundoff times it (Higham, Accuracy and Stability of Numerical
    Algorithms, §3.5)."""
    moduli = {name: SimpleNamespace(pivot=np.abs(st_.pivot)) for name, st_ in colors.items()}
    entries = [
        (np.abs(values), index) for values, index in (
            braiding_entries(*(colors[s.component] if s.up else colors[s.component].dual
                               for s in (a, b)), sign)
            for a, b, sign in network.braids)
    ]
    plan = network.plan({name: st_.dim for name, st_ in colors.items()})
    return plan.run(moduli, entries, d)


@settings(max_examples=120, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(cut_networks())
def test_sector_batch_matches_dense_terms(case):
    # Within 1e-12·max(1, max|dense|) where the network does not cancel; a
    # network whose terms cancel by 1e4 and more (a 6-crossing knot at r=5,
    # say) rounds differently in each summation order, by up to 1.7 units
    # of roundoff times the moduli's contraction M in 6000 drawn networks,
    # so the check allows 8·ε·M there.
    d, cut, ctx, colors, terms = case
    network = compile_diagram(d).cut(cut)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(diagram, "_SECTOR_MIN_PEAK", 0)
        assert isinstance(network.route(colors, terms), diagram._Sectors)
        got = cut_matrices(d, colors, cut)
    assert got.shape == (terms, ctx.r, ctx.r)
    assert not off_diagonal(got).any()
    dense = []
    for k in range(terms):
        one = {name: st_.take([k if st_.terms > 1 else 0]) for name, st_ in colors.items()}
        assert network.route(one, 1) is network.plan({n: st_.dim for n, st_ in one.items()})
        dense.append(cut_matrices(d, one, cut)[0])
    dense = np.array(dense)
    assert not off_diagonal(dense).any()
    bound = np.broadcast_to(magnitude_bound(network, colors, d), got.shape)
    eps = np.finfo(float).eps
    tol = np.maximum(1e-12 * max(1.0, np.abs(dense).max()), 8 * eps * bound.max(axis=(1, 2)))
    assert (np.abs(got - dense).max(axis=(1, 2)) <= tol).all()


def _stacks(ctx, names, terms):
    alphas = 0.31 + 0.17 * np.arange(terms)
    return {name: valpha_stack(ctx, alphas + 0.05 * n) for n, name in enumerate(names)}


@pytest.mark.parametrize("r", [2, 3, 5, 7])
@pytest.mark.parametrize("lk", [1, 2])
def test_batches_of_clasps_take_the_sector_route_from_r_5(r, lk):
    # the route follows the dense plan's peak (r⁴ per term here), not the
    # timing: r = 2 and 3 stay dense, r = 5 and 7 take sectors
    ctx = RootParams(r)
    network = compile_diagram(clasp_diagram(lk, "A", "B")).cut(5 + 2 * (lk - 1))
    plan = network.plan({"A": r, "B": r})
    assert plan.peak == r**4
    route = network.route(_stacks(ctx, "AB", 4), 4)
    if r < 5:
        assert route is plan
    else:
        assert isinstance(route, diagram._Sectors) and route.peak < plan.peak
    assert network.route(_stacks(ctx, "AB", 1), 1) is plan


def test_a_coupon_network_takes_the_dense_route():
    ctx = RootParams(3)
    up = Strand("K", True)
    d = SlicedDiagram((Cup(0, "K", "coev"), Cup(2, "L", "coev"), Braid(1, 1),
                       Coupon(0, (up,), (up,), np.eye(3)), Braid(1, -1),
                       Cap(2, "evprime"), Cap(0, "evprime")))
    stacks = _stacks(ctx, "KL", 4)
    network = compile_diagram(d).cut(6)
    assert network.plan({"K": 3, "L": 3}).sectors is None
    assert network.route(stacks, 4) is network.plan({"K": 3, "L": 3})
    got = cut_matrices(d, stacks, 6)
    for k in range(4):
        one = {name: st_.take([k]) for name, st_ in stacks.items()}
        ref = cut_matrices(d, one, 6)[0]
        assert np.abs(got[k] - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())


@pytest.mark.parametrize("r", [9, 13, 17])
def test_layout_memory_figure_covers_the_peak(monkeypatch, r):
    # the figure charged before the sector layout of lens_7_2's cut network
    # (two components, r Kirby colors each) is built is at least the traced
    # peak of building it, and at most twice that
    ctx = RootParams(r)
    fixture = pathlib.Path(__file__).resolve().parents[1] / "docs/fixtures/lens_7_2.json"
    sp = parse_surgery(load_document(str(fixture)), ctx)
    network = sp.compiled.cut(_fixed_cut(sp)[1])
    stacks = {name: valpha_stack(ctx, complex(sp.meridian_values[name]) + np.array(ctx.h_r_set()))
              for name in sp.surgery_names()}
    network.plan({name: st_.dim for name, st_ in stacks.items()})  # built outside the trace
    figures = []
    charge = diagram.require_memory

    def recording(need, what):
        figures.append(need)
        charge(need, what)

    monkeypatch.setattr(diagram, "require_memory", recording)
    tracemalloc.start()
    try:
        route = network.route(stacks, r * r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(route, diagram._Sectors)
    assert peak <= max(figures, default=0) <= 2 * peak
