"""Weight modules of unrolled quantum sl(2) and their ribbon structure.

A weight module is stored through the data the evaluator actually needs: the
vector of H-eigenvalues (``weights``) plus the matrices of the raising and
lowering operators E and F in that eigenbasis.  K, K⁻¹, H and the pivotal
operator are diagonal in this basis and are derived from the weights:

    K   = diag(q**w),        H = diag(w),        pivot = diag(q**((1-r)·w)).

Constructors provided here:

* :func:`make_valpha` — the r-dimensional simple V_α, highest weight α+r−1,
  for α ∈ Ċ = (ℂ∖ℤ) ∪ rℤ;
* :func:`make_invertible` — the one-dimensional modules σ**k (weight 2kr')
  and ε (weight r);
* :func:`make_simple_s` — the (j+1)-dimensional simple S_j of highest
  weight j ∈ {0, …, r−1};
* :func:`dual` and :func:`tensor` — closed under all of the above.

The braiding uses the standard double-bosonization ansatz: a diagonal factor
acting on a pair of weight vectors of weights (w, w') by q**(w·w'/2),
composed with the truncated sum Σₙ ({1}**(2n)/{n}!) q**(n(n−1)/2) Eⁿ⊗Fⁿ.
Because only the operator matrices enter, the same formula braids duals and
tensor products uniformly.  The twist is *computed* from the braiding and the
pivotal duality maps (never asserted from a closed formula), and every
convention here is pinned end-to-end by the self-tests: algebra relations,
Yang–Baxter, naturality, zig-zags, ribbon compatibility, and the surgery
cross-checks in :mod:`unrolledsl2.invariant`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DomainError, NotScalarError
from .qscalar import RootParams

__all__ = [
    "WeightModule",
    "MorphismMatrix",
    "trivial_module",
    "make_valpha",
    "make_invertible",
    "make_simple_s",
    "dual",
    "tensor",
    "braiding",
    "braiding_matrix",
    "twist",
    "twist_scalar",
    "duality_maps",
    "hom_dimension",
    "relations_residual",
    "scalar_of",
]


# ----------------------------------------------------------------------
# module type
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class WeightModule:
    """A finite-dimensional weight module in its H-eigenbasis.

    ``label`` is a structured tag describing how the module was built, e.g.
    ``("V", alpha)``, ``("sigma", k)``, ``("eps",)``, ``("S", j)``,
    ``("dual", inner_label)`` or ``("tensor", left_label, right_label)``.
    ``degree`` is a complex representative of the ℂ/2ℤ grading; all weights
    are congruent to it modulo 2ℤ.
    """

    ctx: RootParams
    label: tuple
    weights: np.ndarray  # complex, shape (dim,)
    e: np.ndarray  # complex, shape (dim, dim)
    f: np.ndarray  # complex, shape (dim, dim)
    degree: complex

    def __post_init__(self):
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=complex))
        object.__setattr__(self, "e", np.asarray(self.e, dtype=complex))
        object.__setattr__(self, "f", np.asarray(self.f, dtype=complex))

    @property
    def dim(self) -> int:
        return len(self.weights)

    def k_pow(self, m: complex) -> np.ndarray:
        """The diagonal matrix of K**m = diag(q**(m·w))."""
        return np.diag([self.ctx.q_pow(m * w) for w in self.weights])

    @property
    def k(self) -> np.ndarray:
        return self.k_pow(1)

    @property
    def k_inv(self) -> np.ndarray:
        return self.k_pow(-1)

    @property
    def h(self) -> np.ndarray:
        return np.diag(self.weights)

    @property
    def pivot_diag(self) -> np.ndarray:
        """Diagonal vector of the pivotal operator diag(q**((1−r)·w))."""
        one_minus_r = 1 - self.ctx.r
        return np.array([self.ctx.q_pow(one_minus_r * w) for w in self.weights])

    @property
    def pivot(self) -> np.ndarray:
        return np.diag(self.pivot_diag)

    def __repr__(self):  # keep ndarray spam out of test output
        return f"WeightModule(r={self.ctx.r}, label={self.label!r}, dim={self.dim})"


# ----------------------------------------------------------------------
# morphism type
# ----------------------------------------------------------------------


@dataclass
class MorphismMatrix:
    """A linear map between weight modules, with an optional grading shift.

    ``matrix`` has shape (target.dim, source.dim).  ``grading_shift`` records
    an implicit σ**k tensor factor on the source, so a shift-k morphism
    commutes with H up to the weight offset 2·r'·k.
    """

    source: WeightModule
    target: WeightModule
    matrix: np.ndarray
    grading_shift: int = 0

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        if self.matrix.shape != (self.target.dim, self.source.dim):
            raise DomainError(
                f"morphism matrix shape {self.matrix.shape} does not match "
                f"target dim {self.target.dim} x source dim {self.source.dim}"
            )

    def compose(self, other: "MorphismMatrix") -> "MorphismMatrix":
        """self ∘ other (apply ``other`` first)."""
        if other.target.dim != self.source.dim:
            raise DomainError("composition shape mismatch")
        return MorphismMatrix(
            source=other.source,
            target=self.target,
            matrix=self.matrix @ other.matrix,
            grading_shift=self.grading_shift + other.grading_shift,
        )

    def tensor(self, other: "MorphismMatrix") -> "MorphismMatrix":
        return MorphismMatrix(
            source=tensor(self.source, other.source),
            target=tensor(self.target, other.target),
            matrix=np.kron(self.matrix, other.matrix),
            grading_shift=self.grading_shift + other.grading_shift,
        )

    def scalar(self, tol: Optional[float] = None) -> complex:
        """The Schur scalar s with matrix ≈ s·Id; NotScalarError otherwise."""
        tol = self.source.ctx.tol if tol is None else tol
        return scalar_of(self.matrix, tol)

    @staticmethod
    def identity(module: WeightModule) -> "MorphismMatrix":
        return MorphismMatrix(module, module, np.eye(module.dim, dtype=complex))


def scalar_of(matrix: np.ndarray, tol: float) -> complex:
    """Extract s from a square matrix ≈ s·Id, within |·|_max residual tol."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise NotScalarError(f"matrix of shape {matrix.shape} is not square")
    d = matrix.shape[0]
    s = complex(np.trace(matrix)) / d
    residual = float(np.max(np.abs(matrix - s * np.eye(d))))
    if residual > tol * max(1.0, abs(s)):
        raise NotScalarError(
            f"endomorphism deviates from scalar*Id: residual {residual:.3e}, "
            f"candidate scalar {s!r}"
        )
    return s


# ----------------------------------------------------------------------
# constructors
# ----------------------------------------------------------------------


def trivial_module(ctx: RootParams) -> WeightModule:
    """The monoidal unit: one-dimensional, weight 0."""
    zero = np.zeros((1, 1), dtype=complex)
    return WeightModule(ctx, ("one",), np.array([0.0 + 0j]), zero, zero, 0.0)


def make_valpha(ctx: RootParams, alpha: complex) -> WeightModule:
    """The r-dimensional simple module V_α for α ∈ Ċ.

    Basis v₀, …, v_{r−1} ordered by decreasing weight α+r−1−2i; the ladder
    operators act by F·vᵢ = vᵢ₊₁ and E·vᵢ = [i]·[α+r−i]·vᵢ₋₁, the unique
    gauge (up to basis scaling) making the defining relations hold.
    """
    alpha = complex(alpha)
    if ctx.is_near_int(alpha) and ctx.nearest_int(alpha) % ctx.r != 0:
        raise DomainError(
            f"V_alpha undefined at alpha={alpha!r}: within epsilon_int of "
            f"the excluded set Z \\ {ctx.r}Z"
        )
    r = ctx.r
    weights = np.array([alpha + r - 1 - 2 * i for i in range(r)], dtype=complex)
    e = np.zeros((r, r), dtype=complex)
    f = np.zeros((r, r), dtype=complex)
    for i in range(1, r):
        e[i - 1, i] = ctx.bracket(i) * ctx.bracket(alpha + r - i)
        f[i, i - 1] = 1.0
    return WeightModule(ctx, ("V", alpha), weights, e, f, alpha + r - 1)


def make_invertible(ctx: RootParams, k: int = 1, epsilon: bool = False) -> WeightModule:
    """One-dimensional invertibles: σ**k of weight 2kr', or ε of weight r.

    σ has trivial degree; ε has degree r mod 2.  For even r, σ and ε agree
    (2r' = r).
    """
    zero = np.zeros((1, 1), dtype=complex)
    if epsilon:
        return WeightModule(
            ctx, ("eps",), np.array([complex(ctx.r)]), zero, zero, complex(ctx.r)
        )
    weight = 2 * k * ctx.rprime
    return WeightModule(
        ctx, ("sigma", k), np.array([complex(weight)]), zero, zero, 0.0
    )


def make_simple_s(ctx: RootParams, j: int) -> WeightModule:
    """The (j+1)-dimensional simple S_j of highest weight j, 0 ≤ j ≤ r−1."""
    if not isinstance(j, (int, np.integer)) or j < 0 or j > ctx.r - 1:
        raise DomainError(
            f"S_j requires an integer highest weight 0 <= j <= r-1, got {j!r}"
        )
    d = j + 1
    weights = np.array([complex(j - 2 * i) for i in range(d)])
    e = np.zeros((d, d), dtype=complex)
    f = np.zeros((d, d), dtype=complex)
    for i in range(1, d):
        e[i - 1, i] = ctx.bracket(i) * ctx.bracket(j + 1 - i)
        f[i, i - 1] = 1.0
    return WeightModule(ctx, ("S", int(j)), weights, e, f, complex(j))


def dual(a: WeightModule) -> WeightModule:
    """The dual module on the dual basis, via the antipode transpose.

    The action on A* is x ↦ ρ(S(x))ᵀ with S(E) = −EK⁻¹, S(F) = −KF,
    S(H) = −H; weights negate (in the same index order as A's basis).
    """
    e_dual = (-(a.e @ a.k_inv)).T
    f_dual = (-(a.k @ a.f)).T
    return WeightModule(
        a.ctx, ("dual", a.label), -a.weights, e_dual, f_dual, -complex(a.degree)
    )


def tensor(a: WeightModule, b: WeightModule) -> WeightModule:
    """A ⊗ B with the coproduct Δ(E) = 1⊗E + E⊗K, Δ(F) = K⁻¹⊗F + F⊗1."""
    if a.ctx != b.ctx:
        raise DomainError("tensor factors live over different root contexts")
    ia, ib = np.eye(a.dim), np.eye(b.dim)
    e = np.kron(ia, b.e) + np.kron(a.e, b.k)
    f = np.kron(a.k_inv, b.f) + np.kron(a.f, ib)
    weights = np.add.outer(a.weights, b.weights).ravel()
    return WeightModule(
        a.ctx,
        ("tensor", a.label, b.label),
        weights,
        e,
        f,
        complex(a.degree) + complex(b.degree),
    )


# ----------------------------------------------------------------------
# braiding, twist, duality
# ----------------------------------------------------------------------


def _r_matrix(a: WeightModule, b: WeightModule) -> np.ndarray:
    """The R-matrix on A⊗B as a (dimA·dimB) square matrix (before the flip).

    Each term cₙ·Eⁿ⊗Fⁿ is scattered from the nonzero entries of Eⁿ and Fⁿ
    alone: on weight modules Eⁿ has at most dim−n of them, so the sum has
    O(r³) nonzeros instead of the r⁴ entries of a dense Kronecker product.
    """
    ctx = a.ctx
    da, db = a.dim, b.dim
    acc = np.zeros((da * db, da * db), dtype=complex)
    e_pow = np.eye(da, dtype=complex)
    f_pow = np.eye(db, dtype=complex)
    coeff: complex = 1.0
    brace1 = ctx.q_num(1)
    for n in range(ctx.r):
        if n > 0:
            e_pow = e_pow @ a.e
            f_pow = f_pow @ b.f
            # c_n / c_{n-1} = {1}² · q^{n-1} / {n}
            coeff = coeff * brace1 * brace1 * ctx.q_pow(n - 1) / ctx.q_num(n)
        e_rows, e_cols = np.nonzero(e_pow)
        f_rows, f_cols = np.nonzero(f_pow)
        if not len(e_rows) or not len(f_rows):
            break
        # kron(Eⁿ, Fⁿ)[i·dimB + k, j·dimB + l] = Eⁿ[i, j] · Fⁿ[k, l]
        rows = np.add.outer(e_rows * db, f_rows).ravel()
        cols = np.add.outer(e_cols * db, f_cols).ravel()
        values = np.multiply.outer(e_pow[e_rows, e_cols], f_pow[f_rows, f_cols])
        acc[rows, cols] += coeff * values.ravel()
    # diagonal factor q^{w·w'/2} acting on the output weight pair
    qhh = np.exp(1j * np.pi * (np.multiply.outer(a.weights, b.weights) / 2.0) / ctx.r)
    return qhh.ravel()[:, None] * acc


def braiding_matrix(a: WeightModule, b: WeightModule, sign: int = 1) -> np.ndarray:
    """The matrix of the braiding c_{A,B}: A⊗B → B⊗A (sign=+1).

    With sign=−1 it is the matrix of (c_{B,A})⁻¹: A⊗B → B⊗A, the value of a
    negative crossing.  Rows index B⊗A and columns A⊗B, both row-major.
    This is the only braiding builder; :func:`braiding` labels its result
    with the tensor-product modules.
    """
    if sign == 1:
        r_mat = _r_matrix(a, b)
        da, db = a.dim, b.dim
        return (
            r_mat.reshape(da, db, da * db).transpose(1, 0, 2).reshape(da * db, da * db)
        )
    if sign == -1:
        return np.linalg.inv(braiding_matrix(b, a, 1))
    raise DomainError(f"braiding sign must be +1 or -1, got {sign!r}")


def braiding(a: WeightModule, b: WeightModule, sign: int = 1) -> MorphismMatrix:
    """The braiding c_{A,B}: A⊗B → B⊗A (sign=+1), or its crossing inverse.

    With sign=−1 the returned map is (c_{B,A})⁻¹: A⊗B → B⊗A, i.e. the value
    of a negative crossing.
    """
    matrix = braiding_matrix(a, b, sign)
    return MorphismMatrix(tensor(a, b), tensor(b, a), matrix)


def duality_maps(
    a: WeightModule,
) -> tuple[MorphismMatrix, MorphismMatrix, MorphismMatrix, MorphismMatrix]:
    """The four duality maps (coev, ev, coev', ev') of A.

    coev : 1 → A⊗A*,  1 ↦ Σ vᵢ⊗fᵢ
    ev   : A*⊗A → 1,  f⊗v ↦ f(v)
    coev': 1 → A*⊗A,  1 ↦ Σ fᵢ ⊗ pivot⁻¹·vᵢ
    ev'  : A⊗A* → 1,  v⊗f ↦ f(pivot·v)
    """
    d = a.dim
    one = trivial_module(a.ctx)
    a_star = dual(a)
    g = a.pivot_diag
    eye = np.eye(d, dtype=complex)
    coev = MorphismMatrix(one, tensor(a, a_star), eye.reshape(d * d, 1))
    ev = MorphismMatrix(tensor(a_star, a), one, eye.reshape(1, d * d))
    coev_p = MorphismMatrix(
        one, tensor(a_star, a), np.diag(1.0 / g).reshape(d * d, 1)
    )
    ev_p = MorphismMatrix(tensor(a, a_star), one, np.diag(g).reshape(1, d * d))
    return coev, ev, coev_p, ev_p


def twist(a: WeightModule) -> MorphismMatrix:
    """The ribbon twist θ_A = (Id ⊗ ev')∘(c_{A,A} ⊗ Id)∘(Id ⊗ coev)."""
    d = a.dim
    c4 = braiding_matrix(a, a).reshape(d, d, d, d)
    theta = np.einsum("abib,b->ai", c4, a.pivot_diag)
    return MorphismMatrix(a, a, theta)


def twist_scalar(ctx: RootParams, alpha: complex) -> complex:
    """The scalar by which the twist acts on the simple module V_α."""
    return twist(make_valpha(ctx, alpha)).scalar()


def twist_scalar_of(module: WeightModule, tol: Optional[float] = None) -> complex:
    """Schur scalar of the twist on any module that is simple."""
    return twist(module).scalar(tol)


# ----------------------------------------------------------------------
# graded hom spaces and diagnostics
# ----------------------------------------------------------------------


def hom_dimension(ctx: RootParams, alpha: complex, beta: complex) -> dict[int, int]:
    """Graded hom between V_α and V_β: {k: 1} iff β−α = 2k·r', else {}.

    Degree k means an implicit σ**k factor on the source; at most one k can
    match since the weight offsets 2r'k are distinct.
    """
    for value, name in ((alpha, "alpha"), (beta, "beta")):
        if ctx.is_near_int(value) and ctx.nearest_int(value) % ctx.r != 0:
            raise DomainError(f"{name}={value!r} lies in the excluded set Z \\ rZ")
    ratio = (complex(beta) - complex(alpha)) / (2 * ctx.rprime)
    if ctx.is_near_int(ratio):
        return {ctx.nearest_int(ratio): 1}
    return {}


def relations_residual(module: WeightModule) -> float:
    """Max-norm residual of the defining relations on a given module.

    Checks KEK⁻¹ = q²E, KFK⁻¹ = q⁻²F, [E,F] = (K−K⁻¹)/(q−q⁻¹),
    [H,E] = 2E, [H,F] = −2F and the nilpotency E**r = F**r = 0.
    """
    ctx = module.ctx
    k_mat, k_inv, h = module.k, module.k_inv, module.h
    e, f = module.e, module.f
    q = ctx.q
    res = [
        k_mat @ e @ k_inv - q**2 * e,
        k_mat @ f @ k_inv - q**-2 * f,
        e @ f - f @ e - (k_mat - k_inv) / (q - 1 / q),
        h @ e - e @ h - 2 * e,
        h @ f - f @ h + 2 * f,
        np.linalg.matrix_power(e, ctx.r),
        np.linalg.matrix_power(f, ctx.r),
    ]
    return max(float(np.max(np.abs(m))) if m.size else 0.0 for m in res)
