"""Diagram layer: slicing, typechecking, evaluation, cut-opening."""

import numpy as np
import pytest

from unrolledsl2.diagram import (
    Braid,
    Cap,
    Coupon,
    Cup,
    Id,
    SlicedDiagram,
    Strand,
    braid_closure,
    clasp_diagram,
    curl_diagram,
    cut_is_enclosed,
    evaluate,
    evaluate_cut,
    typecheck,
    unknot_diagram,
    writhe_and_linking,
)
from unrolledsl2.errors import DiagramTypeError, DomainError
from unrolledsl2.qscalar import RootParams
from unrolledsl2.repcat import make_valpha, scalar_of, twist_scalar


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
    assert d.is_closed
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


def test_closure_is_scalar(ctx):
    rng = np.random.default_rng(3)
    d = clasp_diagram(2)
    m = evaluate(d, {"A": _generic(rng), "B": _generic(rng)}, ctx).matrix
    assert m.shape == (1, 1)


def test_writhe_and_linking_bookkeeping():
    w, _ = writhe_and_linking(curl_diagram("K", 1))
    assert w["K"] == 1
    w, _ = writhe_and_linking(curl_diagram("K", -1))
    assert w["K"] == -1
    for lk in (1, -1, 2, -3):
        w, link = writhe_and_linking(clasp_diagram(lk))
        assert w == {"A": 0, "B": 0}
        assert link[frozenset(("A", "B"))] == lk
    w, _ = writhe_and_linking(braid_closure([(0, 1)] * 3, 2, "K"))
    assert w["K"] == 3


# ----------------------------------------------------------------------
# evaluation identities
# ----------------------------------------------------------------------


def test_zig_zag_slices(ctx):
    rng = np.random.default_rng(5)
    mod = make_valpha(ctx, _generic(rng))
    zig1 = SlicedDiagram(
        (Cup(0, "K", "coev"), Cap(1, "ev")), (Strand("K", True),)
    )
    m = evaluate(zig1, {"K": mod}, ctx).matrix
    assert np.abs(m - np.eye(mod.dim)).max() < 1e-10
    zig2 = SlicedDiagram(
        (Cup(1, "K", "coevprime"), Cap(0, "evprime")), (Strand("K", True),)
    )
    m = evaluate(zig2, {"K": mod}, ctx).matrix
    assert np.abs(m - np.eye(mod.dim)).max() < 1e-10


def test_reidemeister_two(ctx):
    rng = np.random.default_rng(7)
    mod = make_valpha(ctx, _generic(rng))
    up = Strand("K", True)
    d = SlicedDiagram((Braid(0, 1), Braid(0, -1)), (up, up))
    m = evaluate(d, {"K": mod}, ctx).matrix
    assert np.abs(m - np.eye(mod.dim ** 2)).max() < 1e-10


def test_reidemeister_three(ctx):
    rng = np.random.default_rng(9)
    colors = {"K": _generic(rng)}
    v1 = evaluate(braid_closure([(0, 1), (1, 1), (0, 1)], 3), colors, ctx).matrix
    v2 = evaluate(braid_closure([(1, 1), (0, 1), (1, 1)], 3), colors, ctx).matrix
    assert abs(v1[0, 0] - v2[0, 0]) < 1e-9 * (1 + abs(v1[0, 0]))


def test_functoriality_and_monoidality(ctx):
    rng = np.random.default_rng(11)
    mod = make_valpha(ctx, _generic(rng))
    up = Strand("K", True)
    first = SlicedDiagram((Braid(0, 1),), (up, up))
    second = SlicedDiagram((Braid(0, -1),), (up, up))
    stacked = SlicedDiagram((Braid(0, 1), Braid(0, -1)), (up, up))
    m1 = evaluate(first, {"K": mod}, ctx).matrix
    m2 = evaluate(second, {"K": mod}, ctx).matrix
    mb = evaluate(stacked, {"K": mod}, ctx).matrix
    assert np.abs(mb - m2 @ m1).max() < 1e-10
    side = SlicedDiagram((Braid(0, 1), Braid(2, 1)), (up, up, up, up))
    ms = evaluate(side, {"K": mod}, ctx).matrix
    assert np.abs(ms - np.kron(m1, m1)).max() < 1e-10


def test_coupon_slides(ctx):
    rng = np.random.default_rng(13)
    mod = make_valpha(ctx, _generic(rng))
    mat = rng.normal(size=(mod.dim, mod.dim)) + 1j * rng.normal(
        size=(mod.dim, mod.dim)
    )
    up = Strand("K", True)
    coupon = Coupon(0, (up,), (up,), mat)
    early = SlicedDiagram((coupon, Id(), Braid(0, 1)), (up, up))
    late = SlicedDiagram((Id(), coupon, Braid(0, 1)), (up, up))
    v1 = evaluate(early, {"K": mod}, ctx).matrix
    v2 = evaluate(late, {"K": mod}, ctx).matrix
    assert np.abs(v1 - v2).max() < 1e-10 * max(1.0, np.abs(v1).max())


def test_curl_gives_twist(ctx):
    rng = np.random.default_rng(15)
    alpha = _generic(rng)
    mod = make_valpha(ctx, alpha)
    for sign in (1, -1):
        m, _ = evaluate_cut(curl_diagram("K", sign), {"K": mod}, ctx, 0)
        s = scalar_of(m, 1e-8)
        assert abs(s - twist_scalar(ctx, alpha) ** sign) < 1e-9


def test_unknot_cut_is_identity(ctx):
    rng = np.random.default_rng(17)
    mod = make_valpha(ctx, _generic(rng))
    for style in ("coev", "coevprime"):
        d = unknot_diagram("K", style=style)
        for cut in (0, 1):
            m, out = evaluate_cut(d, {"K": mod}, ctx, cut)
            assert np.abs(m - np.eye(out.dim)).max() < 1e-10


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
    assert cut_is_enclosed(hopf, inner_cup)
    assert not cut_is_enclosed(hopf, outer_cup)


def test_enclosed_cut_rejected(ctx):
    rng = np.random.default_rng(19)
    hopf = clasp_diagram(1, "A", "B")
    colors = {"A": make_valpha(ctx, _generic(rng)), "B": make_valpha(ctx, _generic(rng))}
    inner_cup = next(
        i for i, sl in enumerate(hopf.slices)
        if isinstance(sl, Cup) and sl.component == "A"
    )
    with pytest.raises((DomainError, DiagramTypeError)):
        evaluate_cut(hopf, colors, ctx, inner_cup)
