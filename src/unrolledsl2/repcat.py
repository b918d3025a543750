"""Weight modules of unrolled quantum sl(2) and their ribbon structure.

The engine's module type is :class:`ModuleStack`: the r-dimensional simple
modules V_α, or their duals, of a whole array of colors on a leading term
axis (a one-term stack is a module).  In the weight basis E and F each
have one nonzero off-diagonal, so a stack holds per term the vector of
H-eigenvalues (``weights``) and the off-diagonals of E and F, r−1 entries
each.  K, K⁻¹, H and the pivotal operator are diagonal, so they are kept
as vectors of the weights and applied by broadcasting:

    K   = q**w,        H = w,        pivot = q**((1-r)·w).

Each power of such an operator has one off-diagonal too, of products of
consecutive entries: :meth:`ModuleStack.ladder` builds E⁰ … E^(r−1) and
F⁰ … F^(r−1) in closed form.  :func:`valpha_stack` builds the V_α of an
array of colors α ∈ Ċ = (ℂ∖ℤ) ∪ rℤ, :attr:`ModuleStack.dual` their duals,
and :func:`tensor` the tensor product term by term (a batched coproduct),
a :class:`DenseStack` with dense E and F: the one place dense actions are
built, for the coupon morphism check and the relation and ribbon checks.

Morphisms are plain arrays.  The braiding is c_{A,B} =
τ·q^(H⊗H/2)·Σₙ cₙ Eⁿ⊗Fⁿ with the truncated R-matrix series cₙ =
{1}^(2n) q^(n(n−1)/2)/{n}!, n < r.  Since (E⊗F)^r = 0, a negative crossing
(c_{B,A})⁻¹ is the same kind of sum with the coefficients of the inverse
power series and q^(−H⊗H/2), so no matrix is inverted.
:func:`braiding_entries` gives either sign for two stacks of V_α or their
duals as its O(r³) nonzeros, pairing their ladders at positions that r,
the sign and the ladders' sides alone fix; :func:`braiding_stack` scatters
them densely.  :func:`twist` contracts the same sum, closed with the pivot,
from running products of the dense E and F of any module;
:func:`twist_scalar` is its closed form q^((α²−(r−1)²)/2) on V_α.  Every
convention here is pinned end-to-end by the self-tests: algebra relations,
Yang–Baxter, naturality, zig-zags, ribbon compatibility, and the surgery
cross-checks in :mod:`unrolledsl2.invariant`.
"""

from __future__ import annotations

from functools import cache, cached_property, lru_cache

import numpy as np

from .errors import DomainError, NotScalarError
from .qscalar import RootParams

__all__ = [
    "ModuleStack",
    "DenseStack",
    "valpha_stack",
    "tensor",
    "braiding_entries",
    "braiding_stack",
    "twist",
    "twist_scalar",
    "relations_residual",
    "scalar_of",
    "scalars_of",
]


# ----------------------------------------------------------------------
# module types
# ----------------------------------------------------------------------


class _Stack:
    """Weight modules of one dimension d on a leading term axis: the root
    context and the ``weights``, shape (terms, d), all of a term congruent
    modulo 2ℤ to its degree (:attr:`degrees`)."""

    def __init__(self, ctx, weights):
        self.ctx, self.weights = ctx, weights
        self.dim = weights.shape[1]

    @property
    def terms(self) -> int:
        return len(self.weights)

    @property
    def degrees(self) -> np.ndarray:
        """Each term's ℂ/2ℤ grading, represented by its first weight."""
        return self.weights[:, 0]

    @cached_property
    def pivot(self) -> np.ndarray:
        """The pivotal operators' diagonals q**((1−r)·w), shape (terms, d)."""
        return _q_powers(self.ctx, (1 - self.ctx.r) * self.weights)


class ModuleStack(_Stack):
    """Simple modules V_α, or their duals, stacked on a leading term axis.

    The module type of the diagram engine: one evaluation pass colors each
    component by a stack, a single module shared by every term or one
    module per term.  ``e`` and ``f``, shape (terms, d−1), are the
    off-diagonals of E and F: with ``e_above`` (V_α) E[i, i+1] = e[i] and
    F[i+1, i] = f[i], else (duals) E[i+1, i] = e[i] and F[i, i+1] = f[i].
    The pivots, the stack of duals and the ladders are built on first use;
    a taken stack gathers its root stack's ladders and duals.
    """

    def __init__(self, ctx, weights, e, f, e_above=True, source=None):
        super().__init__(ctx, weights)
        self.e, self.f, self.e_above = e, f, e_above
        self._source = source  # (root stack, indices of these terms in it)
        self._ladders: dict = {}

    def above(self, op: str) -> bool:
        """Whether the off-diagonal of ``op``, "e" or "f", is above the diagonal."""
        return (op == "e") == self.e_above

    def take(self, index: np.ndarray) -> "ModuleStack":
        """The terms at the integer positions ``index``, as a new stack."""
        root, base = self._source or (self, None)
        return ModuleStack(
            self.ctx, self.weights[index], self.e[index], self.f[index], self.e_above,
            (root, np.asarray(index) if base is None else base[index]),
        )

    def ladder(self, op: str) -> np.ndarray:
        """The :func:`_ladder` of ``op``, "e" or "f", built once per root stack."""
        if op not in self._ladders:
            if self._source is not None:
                root, terms = self._source
                self._ladders[op] = root.ladder(op)[terms]
            else:
                self._ladders[op] = _ladder(getattr(self, op))
        return self._ladders[op]

    def action(self, op: str) -> np.ndarray:
        """The dense matrices of ``op``, "e" or "f", shape (terms, d, d)."""
        d = self.dim
        out = np.zeros((self.terms, d * d), dtype=complex)
        out[:, 1 if self.above(op) else d :: d + 1] = getattr(self, op)
        return out.reshape(self.terms, d, d)

    @cached_property
    def dual(self) -> "ModuleStack":
        """The dual of every term, on the dual basis, via the antipode transpose.

        The action on A* is x ↦ ρ(S(x))ᵀ with S(E) = −EK⁻¹, S(F) = −KF,
        S(H) = −H; weights negate (in the same index order as A's basis),
        and each off-diagonal moves to the other side of the diagonal: E's
        entry in column j times K⁻¹ there, F's in row j times K there.
        """
        if self._source is not None:
            root, index = self._source
            return root.dual.take(index)
        powers = _q_powers(self.ctx, np.concatenate((self.weights, -self.weights)))
        k, k_inv = powers[: self.terms], powers[self.terms :]
        j = slice(1, None) if self.e_above else slice(-1)
        e, f = -(self.e * k_inv[:, j]), -(k[:, j] * self.f)
        return ModuleStack(self.ctx, -self.weights, e, f, not self.e_above)


class DenseStack(_Stack):
    """Weight modules with dense E and F, ``e`` and ``f`` of shape (terms,
    d, d): the tensor products of :func:`tensor`, for the coupon morphism
    check, :func:`relations_residual` and :func:`twist`, never braided."""

    def __init__(self, ctx, weights, e, f):
        super().__init__(ctx, weights)
        self.e, self.f = e, f

    def action(self, op: str) -> np.ndarray:
        """The matrices of ``op``, "e" or "f", shape (terms, d, d)."""
        return getattr(self, op)


def scalar_of(matrix: np.ndarray, tol: float) -> complex:
    """Extract s from a square matrix ≈ s·Id, within |·|_max residual tol."""
    return complex(scalars_of(np.asarray(matrix)[None], tol)[0])


def scalars_of(matrices: np.ndarray, tol: float) -> np.ndarray:
    """The Schur scalar of every square matrix in a stack, as :func:`scalar_of`.

    Every term is checked; the first term (in stack order) whose residual
    exceeds ``tol·max(1, |s|)`` raises :class:`NotScalarError`.  A term that
    left double range (a residual that is not finite) raises DomainError.
    """
    matrices = np.asarray(matrices)
    if matrices.ndim != 3 or matrices.shape[1] != matrices.shape[2]:
        raise NotScalarError(f"matrix of shape {matrices.shape[1:]} is not square")
    d = matrices.shape[1]
    s = np.trace(matrices, axis1=1, axis2=2) / d
    residual = np.max(np.abs(matrices - s[:, None, None] * np.eye(d)), axis=(1, 2))
    if not np.isfinite(residual).all():
        raise DomainError("the evaluated tangle overflows double precision")
    failing = np.flatnonzero(residual > tol * np.maximum(1.0, np.abs(s)))
    if failing.size:
        k = failing[0]
        raise NotScalarError(
            f"endomorphism deviates from scalar*Id: residual {float(residual[k]):.3e}, "
            f"candidate scalar {complex(s[k])!r}"
        )
    return s


# ----------------------------------------------------------------------
# constructors
# ----------------------------------------------------------------------


def _simple_color(ctx: RootParams, alpha: complex) -> complex:
    """α as a complex number; DomainError unless V_α exists (α ∈ Ċ)."""
    alpha = complex(alpha)
    if not ctx.is_projective_color(alpha):
        raise DomainError(
            f"V_alpha undefined at alpha={alpha!r}: within epsilon_int of "
            f"the excluded set Z \\ {ctx.r}Z"
        )
    return alpha


def _q_powers(ctx: RootParams, x) -> np.ndarray:
    """q**x elementwise for an array of exponents, bit for bit as
    :meth:`RootParams.q_pow` below e^709 (within an ulp above); DomainError,
    as there, when an entry leaves double range.

    Python's complex division by r divides each part by r, where numpy's
    would multiply by 1/r, so iπx/r is formed as i·(πx/r) on the real view.
    """
    x = np.ascontiguousarray(x, dtype=complex)
    arg = 1j * (np.pi * x.view(float) / ctx.r).view(complex)
    if arg.real.max(initial=0.0) <= 709.0:  # exp cannot overflow
        return np.exp(arg)
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.exp(arg)
    if not np.isfinite(out).all():
        bad = complex(x[~np.isfinite(out)][0])
        raise DomainError(f"q**x overflows double precision at x={bad!r}")
    return out


def _brackets(ctx: RootParams, x) -> np.ndarray:
    """[x] = {x}/{1} elementwise, bit for bit as :meth:`RootParams.bracket`.

    {1} = 2i·sin(π/r) has real part exactly 0, for which Python's complex
    division is (u + iv)/{1} = −i·(u/s + i·v/s), s = Im{1}, each part
    divided as a float (numpy would multiply by 1/s).
    """
    x = np.asarray(x)
    num = _q_powers(ctx, x) - _q_powers(ctx, -x)
    return -1j * (num.view(float) / ctx.q_num(1).imag).view(complex)


def valpha_stack(ctx: RootParams, alphas) -> ModuleStack:
    """The r-dimensional simple modules V_α for a 1-D array of colors α ∈ Ċ.

    Basis v₀, …, v_{r−1} ordered by decreasing weight α+r−1−2i; the ladder
    operators act by F·vᵢ = vᵢ₊₁ and E·vᵢ = [i]·[α+r−i]·vᵢ₋₁, the unique
    gauge (up to basis scaling) making the defining relations hold; F's
    off-diagonal of ones is a read-only view of a single 1.
    DomainError unless every α ∈ Ċ, or when a q-power leaves double range
    (as :meth:`RootParams.q_pow`).
    """
    alphas = np.array([_simple_color(ctx, a) for a in alphas], dtype=complex)
    terms, r = len(alphas), ctx.r
    shifted = alphas[:, None] + r  # every expression below groups as (α+r)−…
    up = np.arange(1, r)
    brackets = _brackets(ctx, np.concatenate((up[None], shifted - up)))
    return ModuleStack(
        ctx,
        shifted - 1 - np.arange(0, 2 * r, 2),
        brackets[0] * brackets[1:],
        np.ndarray((terms, r - 1), complex, np.complex128(1).tobytes(), 0, (0, 0)),
    )


def tensor(a, b) -> DenseStack:
    """A ⊗ B term by term, with the coproduct Δ(E) = 1⊗E + E⊗K,
    Δ(F) = K⁻¹⊗F + F⊗1, on the dense actions of either module type.  A
    one-term stack is paired with every term of the other; degrees add."""
    terms = max(a.terms, b.terms)
    k = np.eye(b.dim) * _q_powers(b.ctx, b.weights)[:, None, :]  # K on B
    k_inv = np.eye(a.dim) * _q_powers(a.ctx, -a.weights)[:, None, :]  # K⁻¹ on A
    e = _kron(np.eye(a.dim)[None], b.action("e")) + _kron(a.action("e"), k)
    f = _kron(k_inv, b.action("f")) + _kron(a.action("f"), np.eye(b.dim)[None])
    weights = (a.weights[:, :, None] + b.weights[:, None, :]).reshape(terms, -1)
    return DenseStack(a.ctx, weights, e, f)


def _kron(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The Kronecker product of each term of x with the same term of y."""
    out = x[:, :, None, :, None] * y[:, None, :, None, :]
    return out.reshape(len(out), x.shape[1] * y.shape[1], x.shape[2] * y.shape[2])


# ----------------------------------------------------------------------
# braiding and twist
# ----------------------------------------------------------------------


@cache
def _series(r: int, sign: int) -> np.ndarray:
    """cₙ = {1}^(2n) q^(n(n−1)/2) / {n}! for n < r (sign=+1); for sign=−1 the
    coefficients gₙ of 1/Σ cₙ xⁿ mod x^r: g₀ = 1, gₙ = −Σ_{k=1..n} c_k gₙ₋ₖ.
    Cached per (r, sign), so read-only."""
    ctx = RootParams(r)
    c: list = [1.0]
    brace1 = ctx.q_num(1)
    for n in range(1, r):  # c_n / c_{n-1} = {1}² · q^{n-1} / {n}
        c.append(c[-1] * brace1 * brace1 * ctx.q_pow(n - 1) / ctx.q_num(n))
    if sign == -1:
        g: list = [1.0]
        for n in range(1, r):
            g.append(-sum(c[k] * g[n - k] for k in range(1, n + 1)))
        c = g
    out = np.array(c, dtype=complex)
    out.flags.writeable = False
    return out


def _ladder(v: np.ndarray) -> np.ndarray:
    """The entries of m⁰ … m^(d−1) for the matrices m with off-diagonal v,
    shape (terms, d−1), at the positions of :func:`_ladder_index`: power n
    holds Pₙ[i] = v[i]·…·v[i+n−1], i < d−n, built as the running product
    Pₙ[i] = Pₙ₋₁[i]·v[i+n−1].  Shape (terms, d(d+1)/2)."""
    terms, d = v.shape[0], v.shape[1] + 1
    out = np.empty((terms, d * (d + 1) // 2), dtype=complex)
    out[:, :d] = 1.0
    last, start = out[:, :d], d
    for n in range(1, d):
        here = out[:, start : start + d - n]
        np.multiply(last[:, : d - n], v[:, n - 1 :], out=here)
        last, start = here, start + d - n
    return out


def _ladder_index(d: int, above: bool) -> tuple:
    """The positions (n, row, col) of :func:`_ladder`'s entries, row-major
    per power n: (n, i, i+n) above the diagonal or (n, i+n, i) below it."""
    n = np.repeat(np.arange(d), np.arange(d, 0, -1))
    i = np.concatenate([np.arange(d - k) for k in range(d)])
    return (n, i, i + n) if above else (n, i + n, i)


@lru_cache
def _pairing(r: int, sign: int, x_above: bool, y_above: bool) -> tuple:
    """What :func:`braiding_entries` takes from the ladders' positions
    (:func:`_ladder_index`): the X-entry px and the Y-entry py of each
    braiding entry, its (k, i, j, l) and its series coefficient.  Cached
    per root order, sign and sides, so read-only."""
    nx, xi, xj = _ladder_index(r, x_above)
    ny, yk, yl = _ladder_index(r, y_above)
    # each X-entry of power n with each Y-entry of power n
    y_count = np.bincount(ny, minlength=r)
    reps = y_count[nx]
    px = np.repeat(np.arange(len(nx)), reps)
    py = np.arange(len(px)) - np.repeat(np.cumsum(reps) - reps, reps)
    py += (np.cumsum(y_count) - y_count)[nx[px]]
    index = (yk[py], xi[px], xj[px], yl[py])
    coef = _series(r, sign)[nx[px]]
    for a in (px, py, *index, coef):  # shared by every caller
        a.flags.writeable = False
    return px, py, index, coef


def braiding_entries(
    a: ModuleStack, b: ModuleStack, sign: int = 1
) -> tuple[np.ndarray, tuple]:
    """The nonzero entries of :func:`braiding_stack`: ``(values, (k, i, j,
    l))``, values of shape (terms, entries), entry e at row (k[e], i[e]) of
    B⊗A and column (j[e], l[e]) of A⊗B.

    c_{A,B} = τ·q^(H⊗H/2)·Σ cₙ E_Aⁿ⊗F_Bⁿ.  X = E_B⊗F_A has Xⁿ = E_Bⁿ⊗F_Aⁿ
    and X^r = 0, so (c_{B,A})⁻¹ = (Σ gₙ E_Bⁿ⊗F_Aⁿ)·q^(−H⊗H/2)·τ with gₙ
    the inverse series: no matrix is inverted.  Either sign pairs
    coef·Xⁿ[i, j] with Yⁿ[k, l], (X, Y) = (E_A, F_B) or (F_A, E_B), with
    q^(±w·w'/2) on the pair (i, k) for +1 or (j, l) for −1.  Xⁿ[i, j] ≠ 0
    fixes n by the weight grading, so pairing the ladder entries of Xⁿ and
    Yⁿ of equal n names each entry once.  The (k, i, j, l) arrays are those
    :func:`_pairing` caches per r, sign and the ladders' sides: read-only.
    """
    if sign not in (1, -1):
        raise DomainError(f"braiding sign must be +1 or -1, got {sign!r}")
    r = a.ctx.r
    x, y = ("e", "f") if sign == 1 else ("f", "e")
    px, py, index, coef = _pairing(r, sign, a.above(x), b.above(y))
    xv, yv = a.ladder(x), b.ladder(y)
    k, i, j, l = index
    ww = a.weights[:, :, None] * b.weights[:, None, :]
    qhh = np.exp(sign * 1j * np.pi * (ww / 2.0) / r)
    cartan = qhh[:, i, k] if sign == 1 else qhh[:, j, l]
    # q·(cₙ·(e·f)), factors in this order: an operator expression may reuse a
    # temporary with swapped operands, which can change a product's last bit
    values = np.multiply(cartan, np.multiply(coef, xv[:, px] * yv[:, py]))
    return values, index


def braiding_stack(a: ModuleStack, b: ModuleStack, sign: int = 1) -> np.ndarray:
    """The matrices of the braiding c_{A,B}: A⊗B → B⊗A (sign=+1), per term.

    With sign=−1 they are the matrices of (c_{B,A})⁻¹: A⊗B → B⊗A, the
    value of a negative crossing.  Rows index B⊗A and columns A⊗B, both
    row-major; the leading axis runs over the terms of the two stacks (a
    one-term stack is shared by every term of the other).  The dense
    scatter of :func:`braiding_entries`.
    """
    values, (k, i, j, l) = braiding_entries(a, b, sign)
    da, db = a.dim, b.dim
    out = np.zeros((len(values), db * da, da * db), dtype=complex)
    out[:, k * da + i, j * db + l] = values
    return out


def twist(a) -> np.ndarray:
    """The matrix of the ribbon twist θ_A = (Id ⊗ ev')∘(c_{A,A} ⊗ Id)∘(Id ⊗ coev)
    of a module A (a one-term stack of either type).

    Contracted, the braiding's sum leaves θ_A = Σₙ cₙ·(Fⁿ ⊙ Q)·diag(pivot)·Eⁿ
    with Q[a, b] = q^(w_a·w_b/2): the powers as running products of the
    dense E and F, then one matmul of the n-stacked factors.
    """
    d, r = a.dim, a.ctx.r
    powers = np.empty((2, r, d, d), dtype=complex)
    powers[:, 0] = np.eye(d)
    for p, op in enumerate("fe"):
        m = a.action(op)[0]
        for n in range(1, r):
            np.matmul(powers[p, n - 1], m, out=powers[p, n])
    w = a.weights[0]
    q_half = np.exp(1j * np.pi * (w[:, None] * w[None, :] / 2.0) / r)
    left = _series(r, 1)[:, None, None] * (powers[0] * q_half) * a.pivot[0]
    return left.transpose(1, 0, 2).reshape(d, r * d) @ powers[1].reshape(r * d, d)


def twist_scalar(ctx: RootParams, alpha: complex) -> complex:
    """The scalar θ = q^((α²−(r−1)²)/2) by which the twist acts on V_α.

    The closed form; the Schur scalar of :func:`twist`, from the braiding
    and the pivotal structure, is the same scalar, which the tests compare.
    """
    alpha = _simple_color(ctx, alpha)
    return ctx.q_pow((alpha**2 - (ctx.r - 1) ** 2) / 2)


# ----------------------------------------------------------------------
# diagnostics
# ----------------------------------------------------------------------


def relations_residual(module) -> float:
    """Max-norm residual of the defining relations on a module (a one-term
    stack of either type), on its dense actions.

    Checks KEK⁻¹ = q²E, KFK⁻¹ = q⁻²F, [E,F] = (K−K⁻¹)/(q−q⁻¹),
    [H,E] = 2E, [H,F] = −2F and the nilpotency E**r = F**r = 0.  K, K⁻¹
    and H are diagonal, so they scale rows and columns by broadcasting.

    The first five residuals are absolute.  E**r and F**r are divided by
    the largest entry of |E|**r (|F|**r), since their roundoff scales with
    it: on V⊗V that entry is 3e13 at r=11 and 1e18 at r=13.  [E,F] and
    the powers are built blockwise over the weight grading, which [H,E]
    and [H,F] certify: E·F and F·E keep each level, E**r and F**r move
    every level r steps.
    """
    ctx = module.ctx
    w, e, f = module.weights[0], module.action("e")[0], module.action("f")[0]
    k, k_inv = _q_powers(ctx, w), _q_powers(ctx, -w)
    q = ctx.q
    res = [
        k[:, None] * e * k_inv - q**2 * e,
        k[:, None] * f * k_inv - q**-2 * f,
        w[:, None] * e - e * w - 2 * e,
        w[:, None] * f - f * w + 2 * f,
    ]
    level = np.rint(((w - w[0]) / 2).real).astype(int)
    level -= level.min()  # E raises the level by one, F lowers it
    basis = [np.flatnonzero(level == v) for v in range(level.max() + 1)]
    cartan = (k - k_inv) / (q - 1 / q)
    for v, here in enumerate(basis):  # the block of [E,F] − (K−K⁻¹)/(q−q⁻¹) at level v
        comm = -np.diag(cartan[here])
        if v > 0:
            below = basis[v - 1]
            comm += e[np.ix_(here, below)] @ f[np.ix_(below, here)]
        if v + 1 < len(basis):
            above = basis[v + 1]
            comm -= f[np.ix_(here, above)] @ e[np.ix_(above, here)]
        res.append(comm)
    worst = max(float(np.max(np.abs(m))) for m in res)
    for m, grading in ((e, level), (f, level.max() - level)):
        power, scale = _nilpotency(m, grading, ctx.r)
        if scale:  # |E**r| <= |E|**r entrywise, so E**r is exactly 0 here
            worst = max(worst, power / scale)
    return float(worst)


def _nilpotency(m: np.ndarray, level: np.ndarray, r: int) -> tuple[float, float]:
    """The largest entries of m**r and |m|**r for m raising ``level`` by
    one: products of r blocks of m between adjacent levels."""
    basis = [np.flatnonzero(level == v) for v in range(level.max() + 1)]
    steps = [m[np.ix_(basis[v + 1], basis[v])] for v in range(len(basis) - 1)]
    power = scale = 0.0
    for start in range(len(basis) - r):
        chain = abs_chain = np.eye(len(basis[start]))
        for step in steps[start : start + r]:
            chain, abs_chain = step @ chain, np.abs(step) @ abs_chain
        power = max(power, np.abs(chain).max(initial=0.0))
        scale = max(scale, abs_chain.max(initial=0.0))
    return power, scale
