"""Weight modules of unrolled quantum sl(2) and their ribbon structure.

There is one module type, :class:`ModuleStack`: weight modules of one
dimension on a leading term axis, and a one-term stack is a module.  Each
term is stored through the data the evaluator actually needs: the vector of
H-eigenvalues (``weights``) plus the matrices of the raising and lowering
operators E and F in that eigenbasis.  K, K⁻¹, H and the pivotal operator
are diagonal in this basis, so they are kept as vectors of the weights and
applied by broadcasting:

    K   = q**w,        H = w,        pivot = q**((1-r)·w).

Constructors provided here, each returning a stack:

* :func:`valpha_stack` — the r-dimensional simple modules V_α, highest
  weight α+r−1, for a whole array of colors α ∈ Ċ = (ℂ∖ℤ) ∪ rℤ at once;
* :attr:`ModuleStack.dual` and :func:`tensor` — the dual of every term,
  and the tensor product term by term (a batched coproduct);
* :meth:`ModuleStack.take` gathers terms.

Morphisms are plain arrays.  The braiding is c_{A,B} =
τ·q^(H⊗H/2)·Σₙ cₙ Eⁿ⊗Fⁿ with the truncated R-matrix series cₙ =
{1}^(2n) q^(n(n−1)/2)/{n}!, n < r.  Since (E⊗F)^r = 0, a negative crossing
(c_{B,A})⁻¹ is the same kind of sum with the coefficients of the inverse
power series and q^(−H⊗H/2).  So no matrix is inverted: an LU of the r²×r²
braiding costs O(r⁶) and loses digits to its conditioning.  Only the
operator matrices enter, so the formula braids duals and tensor products
uniformly; :func:`braiding_entries` gives either sign for a whole stack of
colorings as its O(r³) nonzeros, from ladder powers built once per root
stack and a pairing of their nonzeros cached per nonzero pattern, and
:func:`braiding_stack` scatters them densely.  :func:`twist`
contracts the same sum, closed with the pivot, in r products of d×d
matrices, with no braiding; :func:`twist_scalar`
returns the closed form q^((α²−(r−1)²)/2) on V_α, and the tests hold it
against the Schur scalar of :func:`twist`.  Every convention here
is pinned end-to-end by the self-tests: algebra relations, Yang–Baxter,
naturality, zig-zags, ribbon compatibility, and the surgery cross-checks
in :mod:`unrolledsl2.invariant`.
"""

from __future__ import annotations

from functools import cache, cached_property, lru_cache

import numpy as np

from .errors import DomainError, NotScalarError
from .qscalar import RootParams

__all__ = [
    "ModuleStack",
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
# module type
# ----------------------------------------------------------------------


class ModuleStack:
    """Weight modules of one dimension stacked on a leading term axis.

    The one module type of the package: a one-term stack is a module.  One
    evaluation pass of the diagram engine colors each component by a stack:
    a single module shared by every term, or one module per term.  The
    stack holds its arrays directly: ``weights`` of shape (terms, d), ``e``
    and ``f`` of shape (terms, d, d).  A term's degree (:attr:`degrees`),
    the complex representative of its ℂ/2ℤ grading, is its first weight;
    all its weights are congruent to it modulo 2ℤ.  :func:`valpha_stack`
    builds the simple modules of a whole array of colors and :meth:`take`
    gathers terms.
    The pivots, the stack of duals and the ladder powers are built on
    first use (a V_α stack's F ladder from a per-r cache); a taken stack
    gathers its root stack's ladder powers and duals.
    """

    def __init__(self, ctx, weights, e, f, source=None):
        self.ctx = ctx
        self.weights, self.e, self.f = weights, e, f
        self.dim = weights.shape[1]
        self._source = source  # (root stack, indices of these terms in it)
        self._ladders: dict = {}
        self._f_is_shift = False  # set by valpha_stack: F·vᵢ = vᵢ₊₁ on every term

    @property
    def terms(self) -> int:
        return len(self.weights)

    @property
    def degrees(self) -> np.ndarray:
        """One degree per term: the term's first weight."""
        return self.weights[:, 0]

    def take(self, index: np.ndarray) -> "ModuleStack":
        """The terms at the integer positions ``index``, as a new stack."""
        root, base = self._source or (self, None)
        return ModuleStack(
            self.ctx,
            self.weights[index],
            self.e[index],
            self.f[index],
            (root, np.asarray(index) if base is None else base[index]),
        )

    def ladder(self, op: str) -> tuple[bytes, tuple, np.ndarray]:
        """:func:`_powers` of the operator ``op``, "e" or "f", with its
        pattern key: ``(key, (n, row, col), values)``."""
        if op not in self._ladders:
            if self._source is not None:
                root, terms = self._source
                key, index, values = root.ladder(op)
                self._ladders[op] = key, index, values[terms]
            elif op == "f" and self._f_is_shift:
                key, index = _shift_ladder(self.ctx.r)
                self._ladders[op] = key, index, np.ones((self.terms, len(index[0])), dtype=complex)
            else:
                index, values = _powers(getattr(self, op), self.ctx.r)
                self._ladders[op] = _pattern_key(index), index, values
        return self._ladders[op]

    @cached_property
    def pivot(self) -> np.ndarray:
        """The pivotal operators' diagonals q**((1−r)·w), shape (terms, d)."""
        return _q_powers(self.ctx, (1 - self.ctx.r) * self.weights)

    @cached_property
    def dual(self) -> "ModuleStack":
        """The dual of every term, on the dual basis, via the antipode transpose.

        The action on A* is x ↦ ρ(S(x))ᵀ with S(E) = −EK⁻¹, S(F) = −KF,
        S(H) = −H; weights negate (in the same index order as A's basis).
        """
        if self._source is not None:
            root, index = self._source
            return root.dual.take(index)
        powers = _q_powers(self.ctx, np.concatenate((self.weights, -self.weights)))
        k, k_inv = powers[: self.terms], powers[self.terms :]
        e = -(self.e * k_inv[:, None, :]).swapaxes(1, 2)
        f = -(k[:, :, None] * self.f).swapaxes(1, 2)
        return ModuleStack(self.ctx, -self.weights, e, f)


def scalar_of(matrix: np.ndarray, tol: float) -> complex:
    """Extract s from a square matrix ≈ s·Id, within |·|_max residual tol."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise NotScalarError(f"matrix of shape {matrix.shape} is not square")
    return complex(scalars_of(matrix[None], tol)[0])


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
    :meth:`RootParams.q_pow`; DomainError, as there, when an entry leaves
    double range.

    Python's complex division by r divides each part by r, where numpy's
    would multiply by 1/r, so iπx/r is formed as i·(πx/r) on the real view.
    """
    x = np.ascontiguousarray(x, dtype=complex)
    arg = 1j * (np.pi * x.view(float) / ctx.r).view(complex)
    if arg.real.max(initial=0.0) <= 709.0:  # exp cannot overflow
        return np.exp(arg)
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.exp(arg)
    finite = np.isfinite(out)
    if not finite.all():
        bad = complex(x[~finite][0])
        raise DomainError(f"q**x overflows double precision at x={bad!r}")
    return out


def _brackets(ctx: RootParams, x) -> np.ndarray:
    """[x] = {x}/{1} elementwise, bit for bit as :meth:`RootParams.bracket`.

    {1} = 2i·sin(π/r) has real part exactly 0, for which Python's complex
    division is (u + iv)/{1} = −i·(u/s + i·v/s), s = Im{1}, each part
    divided as a float (numpy would multiply by 1/s).
    """
    x = np.asarray(x)
    powers = _q_powers(ctx, np.concatenate((x, -x)))
    num = powers[: len(x)] - powers[len(x) :]  # q**x − q**(−x)
    return -1j * (num.view(float) / ctx.q_num(1).imag).view(complex)


def valpha_stack(ctx: RootParams, alphas) -> ModuleStack:
    """The r-dimensional simple modules V_α for a 1-D array of colors α ∈ Ċ.

    Basis v₀, …, v_{r−1} ordered by decreasing weight α+r−1−2i; the ladder
    operators act by F·vᵢ = vᵢ₊₁ and E·vᵢ = [i]·[α+r−i]·vᵢ₋₁, the unique
    gauge (up to basis scaling) making the defining relations hold.  All
    colors are built in a few array expressions; F is the same shift for
    every α, so its ladder comes from :func:`_shift_ladder` when first
    asked for.  DomainError unless every α ∈ Ċ, or when a q-power leaves
    double range (as :meth:`RootParams.q_pow`).
    """
    alphas = np.array([_simple_color(ctx, a) for a in alphas], dtype=complex)
    terms, r = len(alphas), ctx.r
    shifted = alphas[:, None] + r  # every expression below groups as (α+r)−…
    up = np.arange(1, r)
    brackets = _brackets(ctx, np.concatenate((up[None], shifted - up)))
    e = np.zeros((terms, r * r), dtype=complex)
    e[:, 1 :: r + 1] = brackets[0] * brackets[1:]  # E[i−1, i] = [i]·[α+r−i]
    f = np.zeros((terms, r * r), dtype=complex)
    f[:, r :: r + 1] = 1.0  # F[i, i−1] = 1
    stack = ModuleStack(
        ctx,
        shifted - 1 - np.arange(0, 2 * r, 2),
        e.reshape(terms, r, r),
        f.reshape(terms, r, r),
    )
    stack._f_is_shift = True
    return stack


def tensor(a: ModuleStack, b: ModuleStack) -> ModuleStack:
    """A ⊗ B term by term, with the coproduct Δ(E) = 1⊗E + E⊗K,
    Δ(F) = K⁻¹⊗F + F⊗1.  A one-term stack is paired with every term of the
    other; degrees add."""
    if a.ctx != b.ctx:
        raise DomainError("tensor factors live over different root contexts")
    terms = max(a.terms, b.terms)
    k = np.eye(b.dim) * _q_powers(b.ctx, b.weights)[:, None, :]  # K on B
    k_inv = np.eye(a.dim) * _q_powers(a.ctx, -a.weights)[:, None, :]  # K⁻¹ on A
    e = _kron(np.eye(a.dim)[None], b.e) + _kron(a.e, k)
    f = _kron(k_inv, b.f) + _kron(a.f, np.eye(b.dim)[None])
    weights = (a.weights[:, :, None] + b.weights[:, None, :]).reshape(terms, -1)
    return ModuleStack(a.ctx, weights, e, f)


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


def _powers(m: np.ndarray, r: int) -> tuple[tuple, np.ndarray]:
    """Indices (n, row, col) of the entries of m⁰, …, m^(r−1) nonzero in any
    term, sorted by n, and their values, shape (terms, nonzeros)."""
    powers = np.empty((m.shape[0], r) + m.shape[1:], dtype=complex)
    powers[:, 0], powers[:, 1] = np.eye(m.shape[-1]), m
    for n in range(2, r):
        np.matmul(powers[:, n - 1], m, out=powers[:, n])
    index = np.nonzero(np.any(powers, axis=0))
    return index, powers[(slice(None), *index)]


def _pattern_key(index: tuple) -> bytes:
    """A ladder's nonzero indices (n, row, col) as one hashable value: the
    key under which :func:`_pairing` caches what depends on them alone."""
    return np.array(index, dtype=np.intp).tobytes()


def _read_only(*arrays: np.ndarray) -> tuple:
    """The arrays, marked read-only: a cached value is shared by every caller."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


@cache
def _shift_ladder(r: int) -> tuple[bytes, tuple]:
    """The pattern key and nonzeros (n, row, col) of the ladder of F on V_α
    at root order r: Fⁿ is 1 at (i+n, i) whatever α is.  Cached per r, so
    read-only."""
    n = np.repeat(np.arange(r), np.arange(r, 0, -1))
    col = np.concatenate([np.arange(r - k) for k in range(r)])
    index = _read_only(n, n + col, col)
    return _pattern_key(index), index


@lru_cache
def _pairing(r: int, sign: int, x_key: bytes, y_key: bytes) -> tuple:
    """What :func:`braiding_entries` takes from the ladders' nonzero
    patterns alone: the X-nonzero px and the Y-nonzero py of each entry,
    its (k, i, j, l) and its series coefficient.  Cached by the patterns'
    keys, so read-only."""
    nx, xi, xj = np.frombuffer(x_key, dtype=np.intp).reshape(3, -1)
    ny, yk, yl = np.frombuffer(y_key, dtype=np.intp).reshape(3, -1)
    # each X-nonzero of power n with each Y-nonzero of power n
    y_count = np.bincount(ny, minlength=r)
    reps = y_count[nx]
    px = np.repeat(np.arange(len(nx)), reps)
    py = np.arange(len(px)) - np.repeat(np.cumsum(reps) - reps, reps)
    py += (np.cumsum(y_count) - y_count)[nx[px]]
    index = _read_only(yk[py], xi[px], xj[px], yl[py])
    return (*_read_only(px, py), index, *_read_only(_series(r, sign)[nx[px]]))


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
    fixes n by the weight grading, so pairing the nonzeros of Xⁿ and Yⁿ of
    equal n names each entry at most once.  That pairing depends on the
    two ladders' nonzero patterns only and is cached per pattern pair and
    sign (:func:`_pairing`); the returned (k, i, j, l) arrays are that
    cache's, so read-only, and the same objects while the patterns stay.
    """
    if sign not in (1, -1):
        raise DomainError(f"braiding sign must be +1 or -1, got {sign!r}")
    r = a.ctx.r
    x_key, _, xv = a.ladder("e" if sign == 1 else "f")
    y_key, _, yv = b.ladder("f" if sign == 1 else "e")
    px, py, index, coef = _pairing(r, sign, x_key, y_key)
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


def twist(a: ModuleStack) -> np.ndarray:
    """The matrix of the ribbon twist θ_A = (Id ⊗ ev')∘(c_{A,A} ⊗ Id)∘(Id ⊗ coev)
    of a module A (a one-term stack).

    Contracted, the braiding's sum leaves θ_A = Σₙ cₙ·(Fⁿ ⊙ Q)·diag(pivot)·Eⁿ
    with Q[a, b] = q^(w_a·w_b/2): one matmul of the n-stacked factors.
    """
    d, r = a.dim, a.ctx.r
    powers = np.zeros((2, r, d, d), dtype=complex)
    for p, op in enumerate("fe"):
        _, index, values = a.ladder(op)
        powers[(p, *index)] = values[0]
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


def relations_residual(module: ModuleStack) -> float:
    """Max-norm residual of the defining relations on a module (a one-term
    stack).

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
    w, e, f = module.weights[0], module.e[0], module.f[0]
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
