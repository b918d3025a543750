"""Representation layer: weight modules, braiding, twists, duality."""

import numpy as np
import pytest

from unrolledsl2.errors import DomainError, NotScalarError
from unrolledsl2.qscalar import RootParams
from unrolledsl2.repcat import (
    braiding,
    braiding_matrix,
    dual,
    duality_maps,
    hom_dimension,
    make_valpha,
    relations_residual,
    scalar_of,
    tensor,
    trivial_module,
    twist,
    twist_scalar,
    twist_scalar_of,
)


@pytest.fixture(params=[2, 3, 5], ids=lambda r: f"r{r}")
def ctx(request):
    return RootParams(request.param)


def _generic(rng, ctx=None):
    while True:
        v = float(rng.uniform(0.1, 1.9))
        if abs(v - round(v)) > 0.05:
            return v


def test_valpha_shape_and_weights(ctx):
    a = 0.4
    mod = make_valpha(ctx, a)
    assert mod.dim == ctx.r
    expected = [a + ctx.r - 1 - 2 * i for i in range(ctx.r)]
    assert np.allclose(mod.weights, expected)
    assert ctx.is_congruent_mod2(mod.degree, a + ctx.r - 1)


def test_valpha_domain(ctx):
    with pytest.raises(DomainError):
        make_valpha(ctx, ctx.r + 1 if (ctx.r + 1) % ctx.r else ctx.r + 2)
    # multiples of r are allowed
    assert make_valpha(ctx, 0).dim == ctx.r
    assert make_valpha(ctx, ctx.r).dim == ctx.r


def test_defining_relations(ctx):
    rng = np.random.default_rng(5)
    a = make_valpha(ctx, _generic(rng))
    b = make_valpha(ctx, _generic(rng))
    for mod in (
        a,
        b,
        trivial_module(ctx),
        tensor(a, b),
        dual(a),
        tensor(a, dual(b)),
        tensor(tensor(a, b), dual(a)),
    ):
        assert relations_residual(mod) < 1e-10


def test_degree_additivity(ctx):
    rng = np.random.default_rng(6)
    a = make_valpha(ctx, _generic(rng))
    b = make_valpha(ctx, _generic(rng))
    t = tensor(a, b)
    assert ctx.is_congruent_mod2(t.degree, a.degree + b.degree)
    assert ctx.is_congruent_mod2(dual(a).degree, -a.degree)


def test_yang_baxter(ctx):
    rng = np.random.default_rng(8)
    mods = [make_valpha(ctx, _generic(rng)) for _ in range(3)]
    a, b, c = mods
    ia, ib, ic = (np.eye(m.dim) for m in mods)
    r_ab, r_ac, r_bc = (
        braiding(x, y).matrix for x, y in ((a, b), (a, c), (b, c))
    )
    lhs = np.kron(r_bc, ia) @ np.kron(ib, r_ac) @ np.kron(r_ab, ic)
    rhs = np.kron(ic, r_ab) @ np.kron(r_ac, ib) @ np.kron(ia, r_bc)
    assert np.abs(lhs - rhs).max() < 1e-9


def test_braiding_inverse(ctx):
    rng = np.random.default_rng(9)
    a = make_valpha(ctx, _generic(rng))
    b = make_valpha(ctx, _generic(rng))
    plus = braiding(a, b, +1).matrix
    minus = braiding(b, a, -1).matrix
    assert np.abs(minus @ plus - np.eye(a.dim * b.dim)).max() < 1e-9


def _dense_braiding(a, b, sign):
    """Reference braiding: the dense Kronecker sum with one q_pow per entry."""
    if sign == -1:
        return np.linalg.inv(_dense_braiding(b, a, 1))
    ctx = a.ctx
    da, db = a.dim, b.dim
    acc = np.zeros((da * db, da * db), dtype=complex)
    e_pow = np.eye(da, dtype=complex)
    f_pow = np.eye(db, dtype=complex)
    coeff = 1.0
    brace1 = ctx.q_num(1)
    for n in range(ctx.r):
        if n > 0:
            e_pow = e_pow @ a.e
            f_pow = f_pow @ b.f
            coeff = coeff * brace1 * brace1 * ctx.q_pow(n - 1) / ctx.q_num(n)
            if not e_pow.any() or not f_pow.any():
                break
        acc += coeff * np.kron(e_pow, f_pow)
    qhh = np.array([[ctx.q_pow(wa * wb / 2.0) for wb in b.weights] for wa in a.weights])
    r_mat = qhh.ravel()[:, None] * acc
    return r_mat.reshape(da, db, da * db).transpose(1, 0, 2).reshape(da * db, da * db)


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("r", [2, 3, 5, 6, 7])
def test_braiding_matches_dense_reference(r, sign):
    ctx = RootParams(r)
    rng = np.random.default_rng(20 + r)
    a = make_valpha(ctx, _generic(rng))
    b = make_valpha(ctx, _generic(rng))
    a_star, ab = dual(a), tensor(a, b)
    for x, y in ((a, b), (a, a), (a_star, b), (b, a_star), (ab, a), (a_star, ab)):
        ref = _dense_braiding(x, y, sign)
        got = braiding_matrix(x, y, sign)
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())
        assert np.array_equal(braiding(x, y, sign).matrix, got)


@pytest.mark.parametrize("r", [2, 3, 5, 6, 7])
def test_twist_scalar_closed_form(r):
    ctx = RootParams(r)
    for alpha in (0.3, -1.7, 2.0 / 7, 0.0, float(r)):
        closed = ctx.q_pow((alpha**2 - (r - 1) ** 2) / 2)
        assert abs(twist_scalar(ctx, alpha) - closed) < 1e-12


def test_twist_is_scalar_on_simples(ctx):
    rng = np.random.default_rng(10)
    alpha = _generic(rng)
    mod = make_valpha(ctx, alpha)
    t = twist(mod).matrix
    s = twist_scalar_of(mod)
    assert np.abs(t - s * np.eye(mod.dim)).max() < 1e-9
    assert abs(s - twist_scalar(ctx, alpha)) < 1e-10
    # theta_{-a} = theta_a: the twist is even in the color
    assert abs(twist_scalar(ctx, -alpha) - twist_scalar(ctx, alpha)) < 1e-10


def test_ribbon_compatibility(ctx):
    rng = np.random.default_rng(12)
    a = make_valpha(ctx, _generic(rng))
    b = make_valpha(ctx, _generic(rng))
    lhs = twist(tensor(a, b)).matrix
    rhs = (
        braiding(b, a).matrix
        @ braiding(a, b).matrix
        @ np.kron(twist(a).matrix, twist(b).matrix)
    )
    assert np.abs(lhs - rhs).max() < 1e-8


def test_zig_zag_identities(ctx):
    rng = np.random.default_rng(14)
    mod = make_valpha(ctx, _generic(rng))
    coev, ev, coev_p, ev_p = duality_maps(mod)
    eye = np.eye(mod.dim)
    # (1⊗ev)∘(coev⊗1) = id and (ev'⊗1)∘(1⊗coev') = id
    left = np.kron(eye, ev.matrix) @ np.kron(coev.matrix, eye)
    right = np.kron(ev_p.matrix, eye) @ np.kron(eye, coev_p.matrix)
    assert np.abs(left - eye).max() < 1e-9
    assert np.abs(right - eye).max() < 1e-9


def test_quantum_dimension_vanishes(ctx):
    rng = np.random.default_rng(15)
    mod = make_valpha(ctx, _generic(rng))
    coev, ev, coev_p, ev_p = duality_maps(mod)
    qdim = (ev_p.matrix @ coev.matrix)[0, 0]
    assert abs(qdim) < 1e-10


def test_hom_dimension(ctx):
    rng = np.random.default_rng(16)
    a = _generic(rng)
    assert hom_dimension(ctx, a, a) == {0: 1}
    assert hom_dimension(ctx, a, a + 2 * ctx.rprime) == {1: 1}
    assert hom_dimension(ctx, a, a - 4 * ctx.rprime) == {-2: 1}
    assert hom_dimension(ctx, a, a + 0.5) == {}
    assert hom_dimension(ctx, a, a + 1) == {}
    with pytest.raises(DomainError):
        hom_dimension(ctx, 1 if ctx.r > 2 else 3, 0.3)


def test_scalar_of(ctx):
    assert abs(scalar_of(np.eye(3) * (2 + 1j), 1e-9) - (2 + 1j)) < 1e-12
    with pytest.raises(NotScalarError):
        scalar_of(np.diag([1.0, 2.0]), 1e-9)
