"""The process-wide caches of color-independent evaluation data.

:func:`unrolledsl2.diagram.compile_diagram` keeps each diagram structure's
words, bookkeeping, cut checks, networks, plans, sector layouts and
crossing scatter positions; :mod:`unrolledsl2.repcat` keeps the ladder
pairings of the braiding, and each root stack its ladders;
:mod:`unrolledsl2.tqftdim` keeps each spine structure's HH0 plan.  These
tests hold the caches to what they promise: a warm cache changes no output,
a repeated document adds no entry, the memory preflight still runs, and
neither a coupon's matrix nor a spine's gradings and point colors are ever
taken from the cache.  ``conftest.py`` empties the caches before each test.
"""

import os
import pathlib

import numpy as np
import pytest
from cuts import cut_matrices

from unrolledsl2 import diagram, repcat, tqftdim
from unrolledsl2.cli import main
from unrolledsl2.diagram import compile_diagram, evaluate
from unrolledsl2.jsonio import load_document
from unrolledsl2.model import Braid, Cap, Coupon, Cup, Id, SlicedDiagram, Strand, parse_flink
from unrolledsl2.qscalar import RootParams
from unrolledsl2.repcat import valpha_stack
from unrolledsl2.tqftdim import (
    add_point_chain,
    graded_dimension,
    hh0_dimension_generic,
    necklace_graph,
    theta_graph,
)

ROOT = pathlib.Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "docs" / "fixtures"
COMMANDS = {
    "encircled_unknot.json": ("zinv",),
    "genus2_theta.json": ("tqftdim", "hh0"),
    "hopf.json": ("flink",),
    "lens_7_1.json": ("zinv",),
    "lens_7_2.json": ("zinv",),
    "s1xs2.json": ("zinv",),
    "trefoil.json": ("flink",),
    "unknot.json": ("flink",),
    "unknot_coupon.json": ("flink",),
    "verlinde_g1.json": ("verlinde",),
}
# its coupon matrix is 5×5, so that fixture evaluates at r = 5 only
ROOT_ORDERS = {"unknot_coupon.json": (5,)}


def _cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_every_fixture_has_a_command():
    assert sorted(p.name for p in FIXTURES.glob("*.json")) == sorted(COMMANDS)


@pytest.mark.parametrize(
    "fixture,r", [(f, r) for f in sorted(COMMANDS) for r in ROOT_ORDERS.get(f, (3, 5, 7))]
)
def test_warm_cache_gives_the_cold_output(capsys, fixture, r):
    for command in COMMANDS[fixture]:
        for fmt in ("json", "table"):
            argv = (command, "--r", str(r), "--input", str(FIXTURES / fixture), "--format", fmt)
            for cache in (diagram._compiled, repcat._pairing, tqftdim._spine_plan):
                cache.cache_clear()
            cold = _cli(capsys, *argv)
            assert cold[0] == 0, cold
            assert _cli(capsys, *argv) == cold


def _cache_sizes(diagram_: SlicedDiagram, cut_slice: int) -> tuple:
    """The size of every cache an evaluation of ``diagram_`` at ``cut_slice``
    reaches, the compiled diagram's own and its cut network's plans too."""
    compiled = compile_diagram(diagram_)
    network = compiled.cut(cut_slice)
    caches = (diagram._compiled, repcat._pairing, repcat._series)
    return (*(cache.cache_info().currsize for cache in caches),
            len(compiled._enclosed), len(compiled._networks), len(network._plans))


@pytest.mark.parametrize("command,fixture", [("flink", "trefoil.json"), ("zinv", "lens_7_2.json")])
def test_repeated_document_adds_no_cache_entry(capsys, command, fixture):
    argv = (command, "--r", "5", "--input", str(FIXTURES / fixture), "--format", "json")
    first = _cli(capsys, *argv)
    assert first[0] == 0
    doc = load_document(str(FIXTURES / fixture))
    if command == "flink":
        diagram_, colors, cut, _ = parse_flink(doc)
        compiled = compile_diagram(diagram_)
        cut_slice = compiled.open_cut(cut or compiled.names[0])
    else:
        from unrolledsl2.invariant import _fixed_cut
        from unrolledsl2.model import parse_surgery

        sp = parse_surgery(doc, RootParams(5))
        diagram_ = sp.diagram
        cut_slice = _fixed_cut(sp)[1]
    sizes = _cache_sizes(diagram_, cut_slice)
    hits = diagram._compiled.cache_info().hits
    for _ in range(100):
        assert _cli(capsys, *argv) == first
    assert _cache_sizes(diagram_, cut_slice) == sizes
    assert diagram._compiled.cache_info().hits >= hits + 100


@pytest.mark.parametrize("command,fixture", [("zinv", "lens_7_2.json"), ("zinv", "s1xs2.json"),
                                             ("flink", "trefoil.json")])
def test_one_compiled_lookup_per_call(capsys, command, fixture):
    argv = (command, "--r", "5", "--input", str(FIXTURES / fixture))
    for _ in range(2):  # a cold cache, then a warm one
        before = diagram._compiled.cache_info()
        assert _cli(capsys, *argv)[0] == 0
        after = diagram._compiled.cache_info()
        assert (after.hits + after.misses) - (before.hits + before.misses) == 1


def test_preflight_refuses_with_a_warm_cache(capsys, monkeypatch):
    argv = ("flink", "--r", "5", "--input", str(FIXTURES / "hopf.json"))
    assert _cli(capsys, *argv)[0] == 0  # compiles and plans the Hopf link at r=5
    sysconf = os.sysconf
    monkeypatch.setattr(
        os, "sysconf", lambda name: 1 if name == "SC_PHYS_PAGES" else sysconf(name)
    )
    built = []
    monkeypatch.setattr(diagram, "braiding_entries", lambda *args: built.append(args))
    code, out, err = _cli(capsys, *argv)
    assert (code, out, built) == (3, "", [])
    assert err.startswith("domain error: not computable within available memory: ")


# ----------------------------------------------------------------------
# coupons: keyed by structure, matrices read per call
# ----------------------------------------------------------------------


def _coupon_diagrams(matrix):
    """A coupon on one up strand: open, closed into a loop, and that loop's
    cut at its cap."""
    up = Strand("K", True)
    open_ = SlicedDiagram((Coupon(0, (up,), (up,), matrix), Id()), (up,))
    closed = SlicedDiagram(
        (Cup(0, "K", "coev"), Coupon(0, (up,), (up,), matrix), Cap(0, "evprime")))
    return open_, closed


@pytest.mark.parametrize("first", [0, 1])
def test_coupon_matrices_are_read_per_diagram(first):
    ctx = RootParams(5)
    v = valpha_stack(ctx, (0.37,))
    rng = np.random.default_rng(3)
    matrices = [rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)) for _ in range(2)]
    pivot = v.pivot[0]
    for k in (first, 1 - first):
        open_, closed = _coupon_diagrams(matrices[k])
        assert np.array_equal(evaluate(open_, {"K": v}, ctx), matrices[k])
        loop = evaluate(closed, {"K": v}, ctx)[0, 0]
        assert abs(loop - np.sum(pivot * np.diag(matrices[k]))) < 1e-12 * np.abs(matrices[k]).sum()
        # cut at its cap, the loop is the coupon again
        assert np.array_equal(cut_matrices(closed, {"K": v}, 2)[0], matrices[k])
    # both matrices share one compiled structure, which holds no matrix
    a, b = (_coupon_diagrams(m)[1] for m in matrices)
    assert compile_diagram(a) is compile_diagram(b)
    with pytest.raises(TypeError):
        hash(a)


# ----------------------------------------------------------------------
# repcat caches
# ----------------------------------------------------------------------


@pytest.mark.parametrize("r", [2, 3, 5, 6, 7, 9])
def test_shift_ladder_equals_the_powers_of_f(r):
    # F's ladder, scattered at its positions, against F⁰ … F^(r−1) as a
    # matmul chain of F's dense action; it is built once per root stack and
    # a taken stack gathers its terms from the root's
    ctx = RootParams(r)
    stack = valpha_stack(ctx, [0.3, 1.7 + 0.2j])
    values = stack.ladder("f")
    assert stack.ladder("f") is values
    got = np.zeros((stack.terms, r, r, r), dtype=complex)
    got[(slice(None), *repcat._ladder_index(r, stack.above("f")))] = values
    f = stack.action("f")
    want = [np.broadcast_to(np.eye(r), f.shape)]
    for _ in range(r - 1):
        want.append(want[-1] @ f)
    want = np.stack(want, axis=1)
    assert np.array_equal(got == 0, want == 0)
    assert (np.abs(got - want) <= r * 1e-15 * np.abs(want)).all()
    taken = stack.take([1])
    assert np.array_equal(taken.ladder("f"), values[[1]])


def test_pairing_is_shared_and_read_only():
    ctx = RootParams(7)
    a, b = valpha_stack(ctx, (0.37,)), valpha_stack(ctx, (-0.61 + 0.4j,))
    for sign in (1, -1):
        _, first = repcat.braiding_entries(a, b, sign)
        _, again = repcat.braiding_entries(
            valpha_stack(ctx, (1.3,)), valpha_stack(ctx, (0.8,)), sign)
        assert again is first  # the same r, sign and sides: one cached pairing
        assert not any(x.flags.writeable for x in first)


def test_crossing_positions_follow_the_entry_pattern():
    # one crossing under one plan, colored by V_α and then by its dual
    # stack, whose E and F lie on the other sides of the diagonal (another
    # entry pattern): each evaluation must scatter its own entries
    ctx = RootParams(5)
    up = (Strand("A", True), Strand("B", True))
    crossing = SlicedDiagram((Braid(0, 1),), up)
    v, w = valpha_stack(ctx, (0.37,)), valpha_stack(ctx, (-0.61 + 0.4j,))
    for a in (v, v.dual, v):
        got = evaluate(crossing, {"A": a, "B": w}, ctx)
        assert np.array_equal(got, repcat.braiding_stack(a, w)[0])


# ----------------------------------------------------------------------
# spine plans: keyed by topology, gradings and colors read per call
# ----------------------------------------------------------------------


def test_repeated_spine_adds_no_plan(capsys):
    argv = ("--r", "5", "--input", str(FIXTURES / "genus2_theta.json"))
    first = _cli(capsys, "hh0", *argv)
    assert first[0] == 0
    assert tqftdim._spine_plan.cache_info().currsize == 1
    hits = tqftdim._spine_plan.cache_info().hits
    for _ in range(50):  # both subcommands run the one engine on one plan
        assert _cli(capsys, "hh0", *argv) == first
        assert _cli(capsys, "tqftdim", *argv)[0] == 0
    info = tqftdim._spine_plan.cache_info()
    assert (info.currsize, info.hits) == (1, hits + 100)


def test_spine_preflight_refuses_with_a_warm_plan(capsys, monkeypatch):
    argv = ("hh0", "--r", "5", "--input", str(FIXTURES / "genus2_theta.json"))
    assert _cli(capsys, *argv)[0] == 0
    sysconf = os.sysconf
    monkeypatch.setattr(
        os, "sysconf", lambda name: 1 if name == "SC_PHYS_PAGES" else sysconf(name)
    )
    built = []
    monkeypatch.setattr(tqftdim, "_vertex_batch", lambda *args: built.append(args))
    monkeypatch.setattr(tqftdim, "_merge_clusters", lambda *args: built.append(args))
    code, out, err = _cli(capsys, *argv)
    assert (code, out, built) == (3, "", [])
    assert err.startswith("domain error: not computable within available memory: ")
    assert tqftdim._spine_plan.cache_info().hits == 1


def _pointed_spines(ctx):
    """Two structures, a pointed theta and a pointed genus-3 necklace, each
    under two gradings and two pairs of point colors."""
    for gradings, colors in (((0.3, 0.45), (0.4, -0.4)), ((-0.7, 0.15), (0.9, 1.1))):
        yield "theta", add_point_chain(theta_graph(ctx, *gradings), "e1", colors)
    for bigons, x, colors in (([0.3, 0.45], 0.35, (0.4, -0.4)),
                              ([-0.6, 0.2], 0.8, (0.1, 1.9))):
        yield "necklace", add_point_chain(necklace_graph(ctx, 3, bigons, x), "c0", colors)


@pytest.mark.parametrize("r", [3, 5, 6])
def test_one_plan_serves_every_grading_and_color(r):
    # a plan cached with one document's gradings or point colors would give
    # the next document of that structure the first one's histogram
    ctx = RootParams(r)
    seen = {}
    for label, graph in _pointed_spines(ctx):
        hh = hh0_dimension_generic(graph)
        assert hh == graded_dimension(graph)
        seen.setdefault(label, []).append(hh)
    assert all(a != b for a, b in seen.values())
    assert tqftdim._spine_plan.cache_info()[:2] == (2, 2)  # (hits, misses)


def test_one_plan_serves_both_parities_of_r_prime():
    # r = 3 and r = 6 share r' = 3 and so one plan; the band and the degree
    # window are each call's own
    for r in (3, 6):
        graph = next(_pointed_spines(RootParams(r)))[1]
        assert hh0_dimension_generic(graph) == graded_dimension(graph)
    assert tqftdim._spine_plan.cache_info()[:2] == (1, 1)
