"""Scalar layer: root-of-unity arithmetic, quantum numbers, constants."""

import numpy as np
import pytest

from unrolledsl2.errors import DomainError
from unrolledsl2.qscalar import RootParams


@pytest.fixture(params=[2, 3, 5, 6, 7], ids=lambda r: f"r{r}")
def ctx(request):
    return RootParams(request.param)


def test_root_order_validation():
    for bad in (0, 1, 4, 8, 12, -3):
        with pytest.raises(DomainError):
            RootParams(bad)
    assert RootParams(2).r == 2
    assert RootParams(6).rprime == 3
    assert RootParams(7).rprime == 7


@pytest.mark.parametrize("bad", [True, 5.0, "5", None], ids=repr)
def test_root_order_must_be_an_integer(bad):
    with pytest.raises(DomainError, match="root order must be an integer"):
        RootParams(bad)


def test_root_order_accepts_a_numpy_integer():
    ctx = RootParams(np.int64(5))
    assert ctx.rprime == 5 and ctx.q == RootParams(5).q


def test_primitive_root(ctx):
    q = ctx.q
    assert abs(q - np.exp(1j * np.pi / ctx.r)) < 1e-15
    assert abs(q ** (2 * ctx.r) - 1) < 1e-12
    for m in range(1, 2 * ctx.r):
        assert abs(q ** m - 1) > 1e-3


def test_q_pow_branch(ctx):
    rng = np.random.default_rng(7)
    for _ in range(30):
        x = complex(rng.uniform(-9, 9), rng.uniform(-2, 2))
        assert abs(ctx.q_pow(x) - np.exp(1j * np.pi * x / ctx.r)) < 1e-12
    # exact on integers: q_pow(r) = e^{i pi} = -1
    assert abs(ctx.q_pow(ctx.r) + 1) < 1e-14


def test_q_num_of_a_real_number_is_imaginary(ctx):
    # q**x and q**(-x) are conjugate to the last bit for real x, so
    # {x} = 2i sin(pi*x/r) has real part exactly 0
    rng = np.random.default_rng(11)
    for x in [*rng.uniform(-50.0, 50.0, 200), 1.7e-6, -3e-9, 7 + 1e-8, 1e6 + 0.3]:
        assert ctx.q_pow(x) == ctx.q_pow(-x).conjugate()
        assert ctx.q_num(x).real == 0


def test_bracket_and_factorial(ctx):
    # [x] = {x}/{1}; quantum factorial of small integers
    assert abs(ctx.bracket(1) - 1) < 1e-12
    if ctx.r > 2:
        expected = ctx.q_num(2) / ctx.q_num(1)
        assert abs(ctx.bracket(2) - expected) < 1e-12
        assert abs(ctx.q_num_factorial(2) - ctx.q_num(1) * ctx.q_num(2)) < 1e-12
    assert abs(ctx.q_num_factorial(0) - 1) < 1e-12


def test_mdim_domain(ctx):
    # integers outside r*Z are excluded from the parameter set
    for bad in range(-2 * ctx.r, 2 * ctx.r + 1):
        if bad % ctx.r == 0:
            continue
        with pytest.raises(DomainError):
            ctx.mdim(bad)
    # multiples of r use the closed-form limit and stay finite
    value = ctx.mdim(0)
    assert np.isfinite(value.real) and np.isfinite(value.imag)


def test_projective_color_predicate(ctx):
    assert ctx.is_projective_color(0.37)
    assert ctx.is_projective_color(0)
    assert ctx.is_projective_color(ctx.r)
    if ctx.r > 1:
        assert not ctx.is_projective_color(1) or ctx.r == 1


def test_delta_closed_form(ctx):
    s = ctx.s
    expected = ctx.q_pow(-1.5) * np.exp(-1j * (s + 1) * np.pi / 4)
    assert abs(ctx.delta - expected) < 1e-12


def test_congruence_and_nearest_int(ctx):
    assert ctx.is_congruent_mod2(0.5, 2.5)
    assert ctx.is_congruent_mod2(-1.5, 0.5)
    assert not ctx.is_congruent_mod2(0.5, 1.5)
    assert ctx.is_near_int(3 + 1e-12)
    assert not ctx.is_near_int(3.01)
    assert ctx.nearest_int(2.9999999999) == 3


def test_close():
    ctx = RootParams(5)
    assert ctx.close(1 + 1j, 1 + 1j + 1e-12)
    assert not ctx.close(1.0, 1.1)
