"""Diagram layer: slicing, typechecking, evaluation, cut-opening."""

import math

import numpy as np
import pytest
from cuts import cut_matrices
from duality import duality_maps

from unrolledsl2.diagram import (
    braid_closure,
    clasp_diagram,
    compile_diagram,
    evaluate,
    unknot_diagram,
)
from unrolledsl2.errors import DiagramTypeError, DomainError
from unrolledsl2.model import (
    Braid,
    Cap,
    Coupon,
    Cup,
    Id,
    SlicedDiagram,
    Strand,
    typecheck,
)
from unrolledsl2.qscalar import RootParams
from unrolledsl2.repcat import (
    braiding_stack,
    scalar_of,
    twist_scalar,
    valpha_stack,
)


@pytest.fixture(params=[2, 3, 5], ids=lambda r: f"r{r}")
def ctx(request):
    return RootParams(request.param)


def _generic(rng):
    while True:
        v = float(rng.uniform(0.1, 1.9))
        if abs(v - round(v)) > 0.05:
            return v


# ----------------------------------------------------------------------
# structure and typechecking
# ----------------------------------------------------------------------


def test_typecheck_words():
    d = unknot_diagram("K")
    words = typecheck(d)
    assert words[0] == () and words[-1] == ()
    assert d.component_names() == ["K"]


def test_typecheck_rejects_bad_slices():
    with pytest.raises(DiagramTypeError):
        typecheck(SlicedDiagram((Braid(0, 1),), (Strand("K", True),)))
    with pytest.raises(DiagramTypeError):
        typecheck(SlicedDiagram((Cap(0, "evprime"),)))
    # ev consumes (down, up); feeding it (up, down) is ill-typed
    with pytest.raises(DiagramTypeError):
        typecheck(
            SlicedDiagram((Cup(0, "K", "coev"), Cap(0, "ev")))
        )


@pytest.mark.parametrize("sl,message", [
    (Braid(0, 2), "slice 0 (Braid): braid sign must be +1 or -1, got 2"),
    (Cup(0, "K", "x"), "slice 0 (Cup): unknown cup variant 'x'"),
    (Cap(0, "x"), "slice 0 (Cap): unknown cap variant 'x'"),
    ("braid", "slice 0 (str): unknown slice kind str"),
])
def test_typecheck_names_a_malformed_slice(sl, message):
    # jsonio refuses each of these in a document first: only the Python API
    # builds them
    source = (Strand("K", False), Strand("K", True))
    with pytest.raises(DiagramTypeError) as info:
        typecheck(SlicedDiagram((sl,), source))
    assert str(info.value) == message


def test_writhe_and_linking_bookkeeping():
    w, _ = compile_diagram(braid_closure([(0, 1)], 2, "K")).writhe_and_linking
    assert w["K"] == 1
    w, _ = compile_diagram(braid_closure([(0, -1)], 2, "K")).writhe_and_linking
    assert w["K"] == -1
    for lk in (1, -1, 2, -3):
        w, link = compile_diagram(clasp_diagram(lk)).writhe_and_linking
        assert w == {"A": 0, "B": 0}
        assert link[frozenset(("A", "B"))] == lk
    w, _ = compile_diagram(braid_closure([(0, 1)] * 3, 2, "K")).writhe_and_linking
    assert w["K"] == 3


# ----------------------------------------------------------------------
# evaluation identities
# ----------------------------------------------------------------------


def test_zig_zag_slices(ctx):
    rng = np.random.default_rng(5)
    mod = valpha_stack(ctx, (_generic(rng),))
    zig1 = SlicedDiagram(
        (Cup(0, "K", "coev"), Cap(1, "ev")), (Strand("K", True),)
    )
    m = evaluate(zig1, {"K": mod}, ctx)
    assert np.abs(m - np.eye(mod.dim)).max() < 1e-10
    zig2 = SlicedDiagram(
        (Cup(1, "K", "coevprime"), Cap(0, "evprime")), (Strand("K", True),)
    )
    m = evaluate(zig2, {"K": mod}, ctx)
    assert np.abs(m - np.eye(mod.dim)).max() < 1e-10


def test_evaluate_returns_an_array_of_boundary_dims(ctx):
    rng = np.random.default_rng(23)
    a = valpha_stack(ctx, (_generic(rng),))
    b = valpha_stack(ctx, (_generic(rng),))
    closed = evaluate(clasp_diagram(1), {"A": a, "B": a}, ctx)
    assert type(closed) is np.ndarray and closed.shape == (1, 1)
    # target words (B up, B down, A down) and (A down, B down, B up) of a
    # down source strand
    down = (Strand("A", False),)
    for cup, dims in ((Cup(0, "B", "coev"), (b.dim, b.dim, a.dim)),
                      (Cup(1, "B", "coevprime"), (a.dim, b.dim, b.dim))):
        m = evaluate(SlicedDiagram((cup,), down), {"A": a, "B": b}, ctx)
        assert type(m) is np.ndarray and m.shape == (math.prod(dims), a.dim)
    crossing = SlicedDiagram((Braid(0, -1),), (Strand("B", True), Strand("A", False)))
    m = evaluate(crossing, {"A": a, "B": b}, ctx)
    assert type(m) is np.ndarray and m.shape == (a.dim * b.dim, b.dim * a.dim)


def test_closed_unknot_is_the_vanishing_quantum_dimension(ctx):
    # a cup and a cap leave no tensor to merge: the 1×1 value is the trace
    # of the pivot on V_α, the ordinary quantum dimension, which vanishes
    m = evaluate(unknot_diagram(), {"K": 0.3}, ctx)
    assert m.shape == (1, 1) and abs(m[0, 0]) < 1e-12


def test_evaluate_names_a_component_without_a_color(ctx):
    with pytest.raises(DomainError, match="^no color given for component 'B'$"):
        evaluate(clasp_diagram(1), {"A": 0.3}, ctx)


def test_curl_gives_twist(ctx):
    rng = np.random.default_rng(15)
    alpha = _generic(rng)
    mod = valpha_stack(ctx, (alpha,))
    for sign in (1, -1):
        m = cut_matrices(braid_closure([(0, sign)], 2, "K"), {"K": mod}, 0)[0]
        s = scalar_of(m, 1e-8)
        assert abs(s - twist_scalar(ctx, alpha) ** sign) < 1e-9


def test_unknot_cut_is_identity(ctx):
    rng = np.random.default_rng(17)
    mod = valpha_stack(ctx, (_generic(rng),))
    primed = SlicedDiagram((Cup(0, "K", "coevprime"), Cap(0, "ev")))
    for d in (unknot_diagram("K"), primed):
        for cut in (0, 1):
            m = cut_matrices(d, {"K": mod}, cut)[0]
            assert np.abs(m - np.eye(mod.dim)).max() < 1e-10


def _primed_clasp():
    """A lk = −1 clasp drawn with the coev'/ev duality pair only."""
    return SlicedDiagram((
        Cup(0, "B", "coevprime"), Cup(1, "A", "coevprime"),
        Braid(0, -1), Braid(0, -1), Cap(1, "ev"), Cap(0, "ev"),
    ))


# (diagram, outer cut slices, component names)
BATCH_DIAGRAMS = {
    "clasp2": (clasp_diagram(2, "A", "B"), (0, 7), ("A", "B")),
    "primed_clasp": (_primed_clasp(), (0, 5), ("A", "B")),
    "curl": (braid_closure([(0, -1)], 2, "K"), (0, 4), ("K",)),
    "trefoil": (braid_closure([(0, 1)] * 3, 2), (0, 6), ("K",)),
}


@pytest.mark.parametrize("case", BATCH_DIAGRAMS)
def test_cut_tangle_batch_matches_one_term_calls(ctx, case):
    diagram, cuts, names = BATCH_DIAGRAMS[case]
    rng = np.random.default_rng(21)
    fixed = {name: valpha_stack(ctx, (_generic(rng),)) for name in names}
    for varying in names:
        alphas = [_generic(rng) for _ in range(3)]
        batch = valpha_stack(ctx, alphas)
        for cut in cuts:
            got = cut_matrices(diagram, {**fixed, varying: batch}, cut)
            assert got.shape == (3, ctx.r, ctx.r)
            for k, alpha in enumerate(alphas):
                colors = {**fixed, varying: valpha_stack(ctx, (alpha,))}
                ref = cut_matrices(diagram, colors, cut)[0]
                assert np.abs(got[k] - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())


def test_cut_tangle_rejects_unequal_batches(ctx):
    modules = valpha_stack(ctx, (0.3, 0.4, 0.6))
    with pytest.raises(DomainError):
        cut_matrices(clasp_diagram(1, "A", "B"), {"A": modules.take([0, 1]), "B": modules}, 0)


# ----------------------------------------------------------------------
# cut-position geometry
# ----------------------------------------------------------------------


def test_enclosed_cut_detection():
    hopf = clasp_diagram(1, "A", "B")
    # the inner component's cup is fenced in by the outer component
    inner_cup = next(
        i for i, sl in enumerate(hopf.slices)
        if isinstance(sl, Cup) and sl.component == "A"
    )
    outer_cup = next(
        i for i, sl in enumerate(hopf.slices)
        if isinstance(sl, Cup) and sl.component == "B"
    )
    assert compile_diagram(hopf).enclosed(inner_cup)
    assert not compile_diagram(hopf).enclosed(outer_cup)


def test_cut_at_a_crossing_is_refused():
    hopf = compile_diagram(clasp_diagram(1, "A", "B"))
    assert isinstance(clasp_diagram(1).slices[2], Braid)
    with pytest.raises(DomainError, match="^cut slice 2 is not a cup or cap$"):
        hopf.cut(2)


def test_enclosed_cut_rejected(ctx):
    rng = np.random.default_rng(19)
    hopf = clasp_diagram(1, "A", "B")
    colors = {"A": valpha_stack(ctx, (_generic(rng),)), "B": valpha_stack(ctx, (_generic(rng),))}
    inner_cup = next(
        i for i, sl in enumerate(hopf.slices)
        if isinstance(sl, Cup) and sl.component == "A"
    )
    with pytest.raises((DomainError, DiagramTypeError)):
        cut_matrices(hopf, colors, inner_cup)


# ----------------------------------------------------------------------
# the contraction engine against a dense slice-by-slice reference
# ----------------------------------------------------------------------


def _dense(diagram, modules):
    """The diagram's matrix as a product of full-width kron operators, one
    per slice, from the duality maps, braidings and coupons of repcat."""
    words = typecheck(diagram)

    def module(strand):
        m = modules[strand.component]
        return m if strand.up else m.dual

    m = np.eye(math.prod(module(s).dim for s in words[0]), dtype=complex)
    for word, sl in zip(words, diagram.slices):
        i = getattr(sl, "position", 0)
        if isinstance(sl, Id):
            continue
        if isinstance(sl, Braid):
            n, block = 2, braiding_stack(module(word[i]), module(word[i + 1]), sl.sign)[0]
        elif isinstance(sl, Cup):
            coev, _, coev_p, _ = duality_maps(modules[sl.component])
            n, block = 0, coev if sl.variant == "coev" else coev_p
        elif isinstance(sl, Cap):
            _, ev, _, ev_p = duality_maps(modules[word[i].component])
            n, block = 2, ev if sl.variant == "ev" else ev_p
        else:
            n, block = len(sl.inputs), sl.matrix
        dims = [module(s).dim for s in word]
        left, right = np.eye(math.prod(dims[:i])), np.eye(math.prod(dims[i + n :]))
        m = np.kron(np.kron(left, block), right) @ m
    return m


def _random_slices(rng, word, steps, names, dims, width=3):
    """Random braids (both signs), cups and caps (all four variants) and
    coupons on a word of at most ``width`` strands; returns the slices and
    the word above them."""
    word, slices = list(word), []
    for _ in range(steps):
        caps = [
            p for p in range(len(word) - 1)
            if word[p].component == word[p + 1].component and word[p].up != word[p + 1].up
        ]
        kinds = (["braid"] * 2) * (len(word) >= 2) + ["coupon"] * bool(word)
        kinds += ["cup"] * (len(word) <= width - 2) + ["cap"] * bool(caps)
        kind = kinds[rng.integers(len(kinds))]
        if kind == "braid":
            p = int(rng.integers(len(word) - 1))
            slices.append(Braid(p, int(rng.choice([1, -1]))))
            word[p : p + 2] = word[p + 1], word[p]
        elif kind == "cup":
            p, name = int(rng.integers(len(word) + 1)), names[rng.integers(len(names))]
            variant = ["coev", "coevprime"][rng.integers(2)]
            slices.append(Cup(p, name, variant))
            pair = [Strand(name, True), Strand(name, False)]
            word[p:p] = pair if variant == "coev" else pair[::-1]
        elif kind == "cap":
            p = caps[rng.integers(len(caps))]
            slices.append(Cap(p, "evprime" if word[p].up else "ev"))
            del word[p : p + 2]
        else:
            n = min(len(word), int(rng.integers(1, 3)))
            p = int(rng.integers(len(word) - n + 1))
            strands = tuple(word[p : p + n])
            size = math.prod(dims[s.component] for s in strands)
            matrix = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
            slices.append(Coupon(p, strands, strands, matrix))
    return slices, word


@pytest.mark.parametrize("seed", range(12))
def test_evaluate_matches_dense_reference(ctx, seed):
    rng = np.random.default_rng(100 + seed)
    modules = {name: valpha_stack(ctx, (_generic(rng),)) for name in "AB"}
    dims = {name: m.dim for name, m in modules.items()}
    source = [Strand(name, bool(up)) for name, up in zip("AB", rng.integers(2, size=2))]
    source = source[: int(rng.integers(1, 3))]
    slices, _ = _random_slices(rng, source, 7, "AB", dims)
    diagram = SlicedDiagram(tuple(slices), tuple(source))
    got = evaluate(diagram, modules, ctx)
    ref = _dense(diagram, modules)
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= 1e-11 * max(1.0, np.abs(ref).max())


def _closed_tangle(rng, ctx, right):
    """A random 1-1 tangle T on K (strands of A, and maybe B, inside) and the
    closed diagram that closes it on the right (coev/ev′) or on the left
    (coev′/ev), whose outer cup and last cap both cut open to T."""
    dims = {"K": ctx.r, "A": ctx.r, "B": ctx.r}
    up = Strand("K", True)
    while True:
        slices, word = _random_slices(rng, [up], int(rng.integers(3, 8)), "AB", dims)
        for _ in range(4):  # close A and B, braiding them together if needed
            if len(word) == 1:
                break
            more, word = _random_slices(rng, word, 1, "AB", dims, width=len(word))
            slices += more
        tangle = SlicedDiagram(tuple(slices), (up,))
        if word == [up] and "A" in tangle.component_names():
            break
    if right:
        return tangle, SlicedDiagram((Cup(0, "K", "coev"), *slices, Cap(0, "evprime")))
    shifted = [type(sl)(**{**sl.__dict__, "position": sl.position + 1}) for sl in slices]
    return tangle, SlicedDiagram((Cup(0, "K", "coevprime"), *shifted, Cap(0, "ev")))


@pytest.mark.parametrize("right", [True, False], ids=["right", "left"])
@pytest.mark.parametrize("seed", range(8))
def test_cut_tangle_matches_dense_reference(ctx, seed, right):
    rng = np.random.default_rng(200 + seed)
    tangle, closed = _closed_tangle(rng, ctx, right)
    kirby = [_generic(rng) for _ in range(3)]
    fixed = {"K": valpha_stack(ctx, (_generic(rng),)), "B": valpha_stack(ctx, (_generic(rng),))}
    for cut in (0, len(closed.slices) - 1):
        got = cut_matrices(closed, {**fixed, "A": valpha_stack(ctx, kirby)}, cut)
        assert got.shape == (3, ctx.r, ctx.r)
        for k, alpha in enumerate(kirby):
            ref = _dense(tangle, {**fixed, "A": valpha_stack(ctx, (alpha,))})
            assert np.abs(got[k] - ref).max() <= 1e-11 * max(1.0, np.abs(ref).max())
