"""Representation layer: weight modules, braiding, twists, duality."""

import numpy as np
import pytest
from duality import duality_maps

from unrolledsl2.errors import DomainError, NotScalarError
from unrolledsl2.qscalar import RootParams
from unrolledsl2.repcat import (
    ModuleStack,
    braiding_stack,
    relations_residual,
    scalar_of,
    scalars_of,
    tensor,
    twist,
    twist_scalar,
    valpha_stack,
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
    mod = valpha_stack(ctx, (a,))
    assert mod.dim == ctx.r
    expected = [a + ctx.r - 1 - 2 * i for i in range(ctx.r)]
    assert np.allclose(mod.weights[0], expected)
    assert ctx.is_congruent_mod2(mod.degrees[0], a + ctx.r - 1)


def test_valpha_domain(ctx):
    with pytest.raises(DomainError):
        valpha_stack(ctx, (ctx.r + 1 if (ctx.r + 1) % ctx.r else ctx.r + 2,))
    # multiples of r are allowed
    assert valpha_stack(ctx, (0,)).dim == ctx.r
    assert valpha_stack(ctx, (ctx.r,)).dim == ctx.r


def _valpha_loop(ctx, alpha):
    """Reference V_α: E and F filled entry by entry with scalar brackets."""
    r = ctx.r
    weights = np.array([alpha + r - 1 - 2 * i for i in range(r)], dtype=complex)
    e = np.zeros((r, r), dtype=complex)
    f = np.zeros((r, r), dtype=complex)
    for i in range(1, r):
        e[i - 1, i] = ctx.bracket(i) * ctx.bracket(alpha + r - i)
        f[i, i - 1] = 1.0
    pivot = np.array([ctx.q_pow((1 - r) * w) for w in weights])
    return weights, e, f, pivot


@pytest.mark.parametrize("r", [2, 3, 5, 6, 7, 9, 11])
def test_valpha_stack_matches_entrywise_loop(r):
    ctx = RootParams(r)
    # generic real and complex colors, multiples of r, a large imaginary part
    alphas = [0.3, 2.0 / 7, -1.7 + 0.4j, 0.55 - 3.0j, 0.0, float(r), -2.0 * r,
              1.0 / 3 + 40j]
    stack = valpha_stack(ctx, alphas)
    assert stack.terms == len(alphas) and stack.dim == r
    for k, alpha in enumerate(alphas):
        weights, e, f, pivot = _valpha_loop(ctx, complex(alpha))
        scale = max(1.0, np.abs(e).max())
        assert np.array_equal(stack.weights[k], weights)
        assert np.abs(stack.e[k] - e).max() <= 1e-15 * scale
        assert np.array_equal(stack.f[k], f)
        assert np.abs(stack.pivot[k] - pivot).max() <= 1e-15 * np.abs(pivot).max()
        module = stack.take([k])
        assert module.degrees[0] == complex(alpha) + r - 1
        assert relations_residual(module) < 1e-10 * scale
        # a one-color call of the same builder gives the same term
        one = valpha_stack(ctx, (alpha,))
        assert np.array_equal(one.e[0], stack.e[k]) and np.array_equal(one.weights[0], weights)


def test_valpha_stack_domain_errors():
    ctx = RootParams(5)
    with pytest.raises(DomainError) as one:
        valpha_stack(ctx, (3.0,))
    with pytest.raises(DomainError) as many:
        valpha_stack(ctx, [0.3, 3.0])
    assert str(many.value) == str(one.value)
    # an exponent out of double range fails as q_pow does, without warnings
    with pytest.raises(DomainError, match="overflows double precision"):
        ctx.q_pow(-(0.3 + 2000j))
    with pytest.raises(DomainError, match="overflows double precision"):
        valpha_stack(ctx, [0.3, 0.3 + 2000j])


def _antipode_dual(m):
    """Reference dual of a module (a one-term stack): the antipode transpose
    with K and K⁻¹ as dense diagonal matrices."""
    k = np.diag([m.ctx.q_pow(w) for w in m.weights[0]])
    k_inv = np.diag([m.ctx.q_pow(-w) for w in m.weights[0]])
    return -m.weights[0], (-(m.e[0] @ k_inv)).T, (-(k @ m.f[0])).T


@pytest.mark.parametrize("r", [2, 3, 5, 6, 7, 9])
def test_stack_dual_matches_antipode_transpose(r):
    ctx = RootParams(r)
    rng = np.random.default_rng(30 + r)
    alpha, beta = _generic(rng), _generic(rng) + 0.7j
    a, b = valpha_stack(ctx, (alpha,)), valpha_stack(ctx, (beta,))
    stacks = [
        valpha_stack(ctx, [_generic(rng), _generic(rng) - 1.3j, 0.0]),
        tensor(valpha_stack(ctx, [alpha, beta]), valpha_stack(ctx, [beta, alpha])),
        tensor(a, b.dual),
        a.dual,
    ]
    for stack in stacks:
        duals = stack.dual
        for k in range(stack.terms):
            module = stack.take([k])
            weights, e, f = _antipode_dual(module)
            scale = max(1.0, np.abs(e).max(), np.abs(f).max())
            assert np.array_equal(duals.weights[k], weights)
            assert np.abs(duals.e[k] - e).max() <= 1e-15 * scale
            assert np.abs(duals.f[k] - f).max() <= 1e-15 * scale
            assert duals.degrees[k] == -module.degrees[0]
            # the dual of one taken term is that term of the stack dual
            one = module.dual
            assert np.array_equal(one.e[0], duals.e[k]) and np.array_equal(one.f[0], duals.f[k])


def _dense_coproduct(ctx, a, b, k):
    """Reference A ⊗ B at term k: Δ(E) = 1⊗E + E⊗K, Δ(F) = K⁻¹⊗F + F⊗1
    with K and K⁻¹ as dense diagonal matrices, and the added weights."""
    wa, wb = a.weights[k], b.weights[k]
    k_b = np.diag([ctx.q_pow(w) for w in wb])
    k_inv_a = np.diag([ctx.q_pow(-w) for w in wa])
    e = np.kron(np.eye(a.dim), b.e[k]) + np.kron(a.e[k], k_b)
    f = np.kron(k_inv_a, b.f[k]) + np.kron(a.f[k], np.eye(b.dim))
    return np.add.outer(wa, wb).ravel(), e, f


@pytest.mark.parametrize("r", [2, 3, 5, 6, 7])
def test_tensor_of_stacks_matches_dense_coproduct(r):
    ctx = RootParams(r)
    rng = np.random.default_rng(50 + r)
    v = valpha_stack(ctx, [_generic(rng), _generic(rng) + 0.4j, 0.0])
    w = valpha_stack(ctx, [_generic(rng), -_generic(rng), float(r)])
    for a, b in ((v, v.dual), (tensor(v, w), v.dual)):
        got = tensor(a, b)
        assert got.terms == 3 and got.dim == a.dim * b.dim
        for k in range(3):
            weights, e, f = _dense_coproduct(ctx, a, b, k)
            scale = max(1.0, np.abs(e).max(), np.abs(f).max())
            assert np.array_equal(got.weights[k], weights)
            assert np.abs(got.e[k] - e).max() <= 1e-15 * scale
            assert np.abs(got.f[k] - f).max() <= 1e-15 * scale
            assert got.degrees[k] == a.degrees[k] + b.degrees[k]
    # a one-term stack pairs with every term of the other
    paired = tensor(v.take([1]), w)
    for k in range(3):
        one = tensor(v.take([1]), w.take([k]))
        assert np.array_equal(paired.e[k], one.e[0]) and np.array_equal(paired.f[k], one.f[0])
        assert paired.degrees[k] == one.degrees[0]


def test_relations_residual_catches_a_perturbed_e():
    # E**7 on (a⊗b)⊗a* is 1.6e-10 in absolute terms at r=7; scaled by
    # max |E|**7 it passes the 1e-10 bound, and a 1e-6 change to one entry
    # of E, nonzero or structurally zero, still fails it
    ctx = RootParams(7)
    rng = np.random.default_rng(7)
    a, b = valpha_stack(ctx, (_generic(rng),)), valpha_stack(ctx, (_generic(rng),))
    module = tensor(tensor(a, b), a.dual)
    assert relations_residual(module) < 1e-10
    largest = np.unravel_index(np.argmax(np.abs(module.e[0])), module.e[0].shape)
    for entry in (largest, (0, 1), (module.dim - 1, 0)):
        e = module.e.copy()
        e[(0, *entry)] += 1e-6
        perturbed = ModuleStack(ctx, module.weights, e, module.f)
        assert relations_residual(perturbed) > 1e-10, entry


@pytest.mark.parametrize("r", [3, 5, 7])
def test_blockwise_commutator_matches_dense(r):
    # 1.5·E keeps every relation but [E,F] = (K−K⁻¹)/(q−q⁻¹), so the residual
    # is that of [E,F], built blockwise over the weight levels: against the
    # dense e @ f − f @ e
    from unrolledsl2.repcat import _q_powers

    ctx = RootParams(r)
    rng = np.random.default_rng(70 + r)
    a, b = valpha_stack(ctx, (_generic(rng),)), valpha_stack(ctx, (_generic(rng),))
    module = tensor(tensor(a, b), a.dual)
    e, f, w = 1.5 * module.e[0], module.f[0], module.weights[0]
    scaled = ModuleStack(ctx, module.weights, e[None], module.f)
    k, k_inv = _q_powers(ctx, w), _q_powers(ctx, -w)
    dense = np.abs(e @ f - f @ e - np.diag(k - k_inv) / (ctx.q - 1 / ctx.q)).max()
    assert dense > 0.1  # far above roundoff
    assert abs(relations_residual(scaled) - dense) <= 1e-12 * dense


def test_yang_baxter(ctx):
    rng = np.random.default_rng(8)
    mods = [valpha_stack(ctx, (_generic(rng),)) for _ in range(3)]
    a, b, c = mods
    ia, ib, ic = (np.eye(m.dim) for m in mods)
    r_ab, r_ac, r_bc = (
        braiding_stack(x, y)[0] for x, y in ((a, b), (a, c), (b, c))
    )
    lhs = np.kron(r_bc, ia) @ np.kron(ib, r_ac) @ np.kron(r_ab, ic)
    rhs = np.kron(ic, r_ab) @ np.kron(r_ac, ib) @ np.kron(ia, r_bc)
    assert np.abs(lhs - rhs).max() < 1e-9


def test_braiding_inverse(ctx):
    rng = np.random.default_rng(9)
    a = valpha_stack(ctx, (_generic(rng),))
    b = valpha_stack(ctx, (_generic(rng),))
    plus = braiding_stack(a, b, +1)[0]
    minus = braiding_stack(b, a, -1)[0]
    assert np.abs(minus @ plus - np.eye(a.dim * b.dim)).max() < 1e-9


def _dense_braiding(a, b, sign):
    """Reference braiding of two modules (one-term stacks): the dense
    Kronecker sum with one q_pow per entry."""
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
            e_pow = e_pow @ a.e[0]
            f_pow = f_pow @ b.f[0]
            coeff = coeff * brace1 * brace1 * ctx.q_pow(n - 1) / ctx.q_num(n)
            if not e_pow.any() or not f_pow.any():
                break
        acc += coeff * np.kron(e_pow, f_pow)
    qhh = np.array([[ctx.q_pow(wa * wb / 2.0) for wb in b.weights[0]] for wa in a.weights[0]])
    r_mat = qhh.ravel()[:, None] * acc
    return r_mat.reshape(da, db, da * db).transpose(1, 0, 2).reshape(da * db, da * db)


# at r >= 9, inv of the dense reference is too inaccurate to serve as the
# sign -1 oracle; test_negative_braiding_inverts_positive covers -1 there
@pytest.mark.parametrize(
    "r,sign", [(r, s) for r in (2, 3, 5, 6, 7) for s in (1, -1)] + [(9, 1), (11, 1)]
)
def test_braiding_matches_dense_reference(r, sign):
    ctx = RootParams(r)
    rng = np.random.default_rng(20 + r)
    a = valpha_stack(ctx, (_generic(rng),))
    b = valpha_stack(ctx, (_generic(rng),))
    a_star, ab = a.dual, tensor(a, b)
    for x, y in ((a, b), (a, a), (a_star, b), (b, a_star), (ab, a), (a_star, ab)):
        ref = _dense_braiding(x, y, sign)
        got = braiding_stack(x, y, sign)[0]
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("r", [2, 3, 5, 6, 7, 9, 11])
def test_braiding_stack_matches_per_term(r, sign):
    ctx = RootParams(r)
    rng = np.random.default_rng(r)
    terms = [_generic(rng) for _ in range(3)]
    fixed = valpha_stack(ctx, (_generic(rng),))
    for stack in (valpha_stack(ctx, terms), valpha_stack(ctx, terms).dual):
        for a, b in ((stack, fixed), (fixed, stack), (stack, stack)):
            got = braiding_stack(a, b, sign)
            assert got.shape[0] == len(terms)
            for k in range(len(terms)):
                x = a.take([k if a.terms > 1 else 0])
                y = b.take([k if b.terms > 1 else 0])
                ref = braiding_stack(x, y, sign)[0]
                assert np.abs(got[k] - ref).max() <= 1e-13 * max(1.0, np.abs(ref).max())


@pytest.mark.parametrize("r", [2, 3, 5, 6, 7, 9, 11, 13])
def test_powers_equal_the_matmul_chain(r):
    # the reference: m⁰ … m^(r−1) as one accumulated matmul chain, stacked
    from itertools import accumulate, repeat

    from unrolledsl2.repcat import _powers

    ctx = RootParams(r)
    rng = np.random.default_rng(40 + r)
    stack = valpha_stack(ctx, rng.uniform(0.1, 1.9, 3) + 1j * rng.uniform(-2, 2, 3))
    a, b = valpha_stack(ctx, (_generic(rng),)), valpha_stack(ctx, (_generic(rng),))
    for m in (stack.e, stack.f, stack.dual.e, tensor(a, b).f):
        eye = np.broadcast_to(np.eye(m.shape[-1], dtype=complex), m.shape)
        powers = np.stack([eye, *accumulate(repeat(m, r - 1), np.matmul)], axis=1)
        index = np.nonzero(np.any(powers, axis=0))
        got_index, got = _powers(m, r)
        assert all(np.array_equal(x, y) for x, y in zip(got_index, index))
        assert np.array_equal(got, powers[(slice(None), *index)])


@pytest.mark.parametrize("r", [9, 11, 13, 15])
def test_negative_braiding_inverts_positive(r):
    # the closed-form negative crossing against c_{B,A}, and no less
    # accurate than inverting c_{B,A} numerically (the oracle)
    ctx = RootParams(r)
    rng = np.random.default_rng(40 + r)
    v, w = valpha_stack(ctx, (_generic(rng),)), valpha_stack(ctx, (_generic(rng),))
    eye = np.eye(r * r)
    for a, b in ((v, w), (v.dual, w), (v, w.dual)):
        plus = braiding_stack(b, a, 1)[0]
        residual = np.abs(braiding_stack(a, b, -1)[0] @ plus - eye).max()
        oracle = np.abs(np.linalg.inv(plus) @ plus - eye).max()
        assert residual <= 1e-9
        assert residual <= oracle


@pytest.mark.parametrize("r", [2, 3, 5, 6, 7])
def test_twist_scalar_closed_form(r):
    # the closed form against the braiding route (twist built from c_{V,V})
    ctx = RootParams(r)
    for alpha in (0.3, -1.7, 2.0 / 7, 0.0, float(r)):
        closed = ctx.q_pow((alpha**2 - (r - 1) ** 2) / 2)
        assert twist_scalar(ctx, alpha) == closed
        assert abs(scalar_of(twist(valpha_stack(ctx, (alpha,))), ctx.tol) - closed) < 1e-12
    with pytest.raises(DomainError):
        twist_scalar(ctx, 1.0 if r > 2 else 3.0)


def test_twist_is_scalar_on_simples(ctx):
    rng = np.random.default_rng(10)
    alpha = _generic(rng)
    mod = valpha_stack(ctx, (alpha,))
    t = twist(mod)
    s = scalar_of(t, ctx.tol)
    assert np.abs(t - s * np.eye(mod.dim)).max() < 1e-9
    assert abs(s - twist_scalar(ctx, alpha)) < 1e-10
    # theta_{-a} = theta_a: the twist is even in the color
    assert abs(twist_scalar(ctx, -alpha) - twist_scalar(ctx, alpha)) < 1e-10


@pytest.mark.parametrize("r", [2, 3, 5, 7])
def test_twist_matches_the_braiding_contraction(r):
    # the matrix-free sum against (Id ⊗ ev')∘(c_{A,A} ⊗ Id)∘(Id ⊗ coev)
    # contracted from the dense braiding
    ctx = RootParams(r)
    rng = np.random.default_rng(50 + r)
    v, w = valpha_stack(ctx, (_generic(rng),)), valpha_stack(ctx, (-_generic(rng),))
    for a in (v, tensor(v, w), tensor(v, w.dual)):
        d = a.dim
        c4 = braiding_stack(a, a)[0].reshape(d, d, d, d)
        ref = np.einsum("abib,b->ai", c4, a.pivot[0])
        assert np.abs(twist(a) - ref).max() <= 1e-13 * np.abs(ref).max()


def test_twist_builds_no_braiding(monkeypatch):
    # θ on V⊗W at r = 11 (d = 121) from d×d products alone, where the
    # braiding of V⊗W with itself would hold 121⁴ entries; it meets the
    # ribbon identity θ_{V⊗W} = c_{W,V}·c_{V,W}·(θ_V ⊗ θ_W) at the
    # registry's bound
    from unrolledsl2 import repcat

    ctx = RootParams(11)
    rng = np.random.default_rng(11)
    v, w = valpha_stack(ctx, (_generic(rng),)), valpha_stack(ctx, (_generic(rng),))
    ribbon = braiding_stack(w, v)[0] @ braiding_stack(v, w)[0] @ np.kron(twist(v), twist(w))

    def refuse(*args):
        raise AssertionError("the twist built a braiding")

    monkeypatch.setattr(repcat, "braiding_stack", refuse)
    monkeypatch.setattr(repcat, "braiding_entries", refuse)
    assert np.abs(twist(tensor(v, w)) - ribbon).max() < 1e-8


def test_series_is_built_once_per_r_and_sign():
    from unrolledsl2.repcat import _series

    _series.cache_clear()
    rng = np.random.default_rng(12)
    for r in (5, 7):
        ctx = RootParams(r)
        a, b = valpha_stack(ctx, (_generic(rng),)), valpha_stack(ctx, (_generic(rng),))
        for _ in range(2):
            braiding_stack(a, b, 1), braiding_stack(a, b, -1), twist(tensor(a, b))
    assert _series.cache_info().misses == 4
    assert not _series(5, 1).flags.writeable


@pytest.mark.parametrize("r", [3, 5, 7])
def test_graded_nilpotency_matches_dense_powers(r):
    # m with random entries on the grading of (a⊗b)⊗a* (m**r is far from 0):
    # the blockwise largest entries of m**r and |m|**r against matrix_power
    from unrolledsl2.repcat import _nilpotency

    ctx = RootParams(r)
    rng = np.random.default_rng(60 + r)
    a, b = valpha_stack(ctx, (_generic(rng),)), valpha_stack(ctx, (_generic(rng),))
    w = tensor(tensor(a, b), a.dual).weights[0]
    level = np.rint(((w - w[0]) / 2).real).astype(int)
    level -= level.min()
    graded = level[:, None] == level[None, :] + 1
    m = graded * (rng.normal(size=graded.shape) + 1j * rng.normal(size=graded.shape))
    power, scale = _nilpotency(m, level, r)
    dense = np.abs(np.linalg.matrix_power(m, r)).max()
    dense_scale = np.linalg.matrix_power(np.abs(m), r).max()
    assert dense > 1e-8 * dense_scale  # far above the roundoff of a zero power
    assert abs(power - dense) <= 1e-12 * dense
    assert abs(scale - dense_scale) <= 1e-12 * dense_scale


def test_zig_zag_identities(ctx):
    rng = np.random.default_rng(14)
    mod = valpha_stack(ctx, (_generic(rng),))
    coev, ev, coev_p, ev_p = duality_maps(mod)
    eye = np.eye(mod.dim)
    # (1⊗ev)∘(coev⊗1) = id and (ev'⊗1)∘(1⊗coev') = id
    left = np.kron(eye, ev) @ np.kron(coev, eye)
    right = np.kron(ev_p, eye) @ np.kron(eye, coev_p)
    assert np.abs(left - eye).max() < 1e-9
    assert np.abs(right - eye).max() < 1e-9


def test_quantum_dimension_vanishes(ctx):
    rng = np.random.default_rng(15)
    mod = valpha_stack(ctx, (_generic(rng),))
    coev, ev, coev_p, ev_p = duality_maps(mod)
    qdim = (ev_p @ coev)[0, 0]
    assert abs(qdim) < 1e-10


def test_scalar_of(ctx):
    assert abs(scalar_of(np.eye(3) * (2 + 1j), 1e-9) - (2 + 1j)) < 1e-12
    with pytest.raises(NotScalarError):
        scalar_of(np.diag([1.0, 2.0]), 1e-9)


def _scalar_batch(d=3, terms=5, seed=4):
    """A stack of s_k·Id with roundoff-sized noise well inside tol = 1e-9."""
    rng = np.random.default_rng(seed)
    s = rng.normal(size=terms) + 1j * rng.normal(size=terms)
    noise = 1e-13 * (rng.normal(size=(terms, d, d)) + 1j * rng.normal(size=(terms, d, d)))
    return s[:, None, None] * np.eye(d) + noise


@pytest.mark.parametrize("deviations", [
    {2: 1e-6},            # one term off
    {1: 1e-6, 3: -1e-6},  # two terms off in opposite directions: the mean is clean
    {4: 1e-6},            # the last term off
])
def test_scalars_of_checks_every_term(deviations):
    batch = _scalar_batch()
    for k, delta in deviations.items():
        batch[k, 0, 1] += delta
    first = min(deviations)
    with pytest.raises(NotScalarError) as expected:
        scalar_of(batch[first], 1e-9)
    with pytest.raises(NotScalarError) as got:
        scalars_of(batch, 1e-9)
    assert str(got.value) == str(expected.value)


def test_scalars_of_clean_batch_matches_scalar_of():
    batch = _scalar_batch()
    scalars = scalars_of(batch, 1e-9)
    assert scalars.shape == (len(batch),)
    for k, matrix in enumerate(batch):
        assert abs(scalars[k] - scalar_of(matrix, 1e-9)) <= 1e-15 * abs(scalars[k])
    with pytest.raises(NotScalarError):
        scalars_of(np.zeros((2, 3, 4)), 1e-9)


SCALARS = {"below_1": 0.3 - 0.2j, "above_1": -40 + 30j}


@pytest.mark.parametrize("s", SCALARS.values(), ids=SCALARS)
@pytest.mark.parametrize("at", [(0, 1), (2, 2)], ids=["off_diagonal", "diagonal"])
def test_schur_check_boundary(s, at):
    # the threshold is tol·max(1, |s|): half of it passes, twice it fails
    tol, d = 1e-9, 4
    for factor, passes in ((0.5, True), (2.0, False)):
        m = s * np.eye(d, dtype=complex)
        limit = tol * max(1.0, abs(s))
        # a diagonal shift δ moves s by δ/d and leaves a residual δ·(1 − 1/d)
        shift = factor * limit / (1 - 1 / d if at[0] == at[1] else 1)
        m[at] += shift
        residual = np.abs(m - np.trace(m) / d * np.eye(d)).max()
        assert residual == pytest.approx(factor * limit, rel=1e-6)
        if passes:
            assert abs(scalar_of(m, tol) - np.trace(m) / d) == 0
        else:
            with pytest.raises(NotScalarError, match=f"residual {residual:.3e}"):
                scalar_of(m, tol)


@pytest.mark.parametrize("k", [0, 2, 4])
def test_schur_error_names_the_failing_term(k):
    # every other term sits at half its threshold; term k at twice its own
    tol, d = 1e-9, 3
    s = np.array([0.3 - 0.2j, -40 + 30j, 0.5j, 7.0, -0.9 + 0.1j])
    batch = s[:, None, None] * np.eye(d)
    limits = tol * np.maximum(1.0, np.abs(s))
    batch[:, 0, 1] = 0.5 * limits
    batch[k, 0, 1] = 2 * limits[k]
    with pytest.raises(NotScalarError) as got:
        scalars_of(batch, tol)
    candidate = complex(np.trace(batch[k]) / d)  # s[k] up to the trace's rounding
    assert abs(candidate - s[k]) <= 1e-15 * abs(s[k])
    assert str(got.value) == (f"endomorphism deviates from scalar*Id: residual "
                              f"{2 * limits[k]:.3e}, candidate scalar {candidate!r}")
    batch[k, 0, 1] = 0.5 * limits[k]
    assert np.array_equal(scalars_of(batch, tol), np.trace(batch, axis1=1, axis2=2) / d)
