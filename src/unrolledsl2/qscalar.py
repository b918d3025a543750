"""Root-of-unity context and quantum-scalar arithmetic.

Everything in this package is built over a fixed integer order ``r >= 2``
with ``r`` not divisible by 4.  The derived data are

* ``q = exp(i*pi/r)``, a primitive 2r-th root of unity,
* ``rprime``: ``r`` when r is odd, ``r/2`` when r is even,
* ``s``: the element of {1, 2, 3} congruent to r mod 4,

together with the usual quantum-number notation

* ``{x} = q**x - q**(-x) = 2i sin(pi*x/r)``,
* ``[x] = {x} / {1}``.

Powers ``q**x`` are defined for arbitrary complex ``x`` through the
single-valued exponential ``exp(i*pi*x/r)``, so no branch cuts appear
anywhere downstream.

Scalars are plain Python complex numbers; :meth:`RootParams.close` is the
package-wide comparison ``|a - b| <= tol * max(1, |a|, |b|)``.
"""

from __future__ import annotations

import cmath
import math
import numbers
from typing import ClassVar

from .errors import DomainError

__all__ = ["Record", "RootParams"]


class Record:
    """An immutable record: the base of the package's value types.

    A subclass's fields are the parameters of its ``__init__``, which sets
    each once with ``self._set(name, value)``.  Records of one class are
    equal when their fields are, and ``hash`` agrees (so a record with an
    unhashable field is unhashable); assigning or deleting an attribute
    raises AttributeError.  What a subclass stores beyond its fields, such
    as :func:`functools.cached_property` values, is neither compared nor
    hashed.  ``repr`` shows the fields not named in ``_hidden``.

    A class's first comparison or hash compiles its own ``__eq__`` and
    ``__hash__`` from the field names, in place of the generic ones below:
    :func:`~unrolledsl2.diagram.compile_diagram`'s cache hashes and compares
    every slice of each parsed diagram, and hashing by a loop over the
    fields or over the instance dict takes about twice as long.  Compiling
    when the class is made would cost every start about 0.1 ms per class.
    """

    _fields: ClassVar[tuple[str, ...]] = ()
    _hidden: ClassVar[tuple[str, ...]] = ()
    _set = object.__setattr__

    def __init_subclass__(cls):
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1 : code.co_argcount]

    def __init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    @classmethod
    def _compiled(cls) -> type:
        own, other = ("".join(f"{x}.{name}, " for name in cls._fields) for x in ("self", "other"))
        scope: dict = {}
        exec(
            "def __eq__(self, other):\n"
            "    if other.__class__ is not self.__class__:\n"
            "        return NotImplemented\n"
            f"    return ({own}) == ({other})\n"
            f"def __hash__(self):\n    return hash(({own}))\n",
            scope,
        )
        cls.__eq__, cls.__hash__ = scope["__eq__"], scope["__hash__"]
        return cls

    def __eq__(self, other):
        return type(self)._compiled().__eq__(self, other)

    def __hash__(self):
        return type(self)._compiled().__hash__(self)

    def __repr__(self) -> str:
        shown = (f"{name}={getattr(self, name)!r}" for name in self._fields
                 if name not in self._hidden)
        return f"{type(self).__qualname__}({', '.join(shown)})"


class RootParams(Record):
    """The root-of-unity context: order, derived constants, tolerances.

    Parameters
    ----------
    r : int
        Order of the root, ``2 <= r < 2**23`` and ``r % 4 != 0``.  From
        2^23 on, doubles near r are spaced wider than ``epsilon_int``, so
        the integrality of a color in the window ]−r, r] cannot be decided
        (the bound :class:`~unrolledsl2.tqftdim.TrivalentGraph` puts on
        its colors).
    tol : float
        Comparison tolerance for complex equality checks.

    ``epsilon_int`` is the fixed tolerance of the "is this number an
    integer" tests, which gate the domain Ċ = (ℂ∖ℤ) ∪ rℤ of the modified
    dimension.
    """

    tol = 1e-9  # the default, which instances override
    epsilon_int: ClassVar[float] = 1e-9

    def __init__(self, r: int, tol: float = tol):
        if not isinstance(r, numbers.Integral) or isinstance(r, bool):
            raise DomainError(f"root order must be an integer, got {r!r}")
        if r < 2 or r % 4 == 0:
            raise DomainError(
                f"root order must satisfy r >= 2 and r != 0 mod 4, got r={r}"
            )
        if r >= 2**23:
            raise DomainError(f"root order must be below 2^23, got r={r}")
        self._set("r", r)
        self._set("tol", tol)

    # ------------------------------------------------------------------
    # derived integers and q itself
    # ------------------------------------------------------------------

    @property
    def rprime(self) -> int:
        """r' = r for odd r and r/2 for even r."""
        return self.r if self.r % 2 else self.r // 2

    @property
    def s(self) -> int:
        """The element of {1, 2, 3} congruent to r modulo 4."""
        return self.r % 4

    @property
    def q(self) -> complex:
        """q = exp(i*pi/r)."""
        return self.q_pow(1)

    # ------------------------------------------------------------------
    # integrality testing
    # ------------------------------------------------------------------

    def nearest_int(self, x: complex) -> int:
        """The integer closest to Re(x)."""
        return int(round(complex(x).real))

    def is_near_int(self, x: complex) -> bool:
        """True when x lies within epsilon_int of an integer (in ℂ)."""
        z = complex(x)
        return abs(z - round(z.real)) <= self.epsilon_int

    def is_congruent_mod2(self, x: complex, y: complex) -> bool:
        """True when x ≡ y modulo 2ℤ within epsilon_int."""
        return self.is_near_int((complex(x) - complex(y)) / 2.0)

    # ------------------------------------------------------------------
    # quantum numbers
    # ------------------------------------------------------------------

    def q_pow(self, x: complex) -> complex:
        """q**x = exp(i*pi*x/r) for arbitrary complex x.

        Raises :class:`DomainError` when x or q**x is not finite in double
        precision (|q**x| overflows once -pi*Im(x)/r exceeds about 709).
        """
        z = complex(x)
        try:
            out = cmath.exp(1j * cmath.pi * z / self.r)
        except OverflowError:
            out = complex(math.inf)
        if not (cmath.isfinite(z) and cmath.isfinite(out)):
            raise DomainError(f"q**x overflows double precision at x={complex(x)!r}")
        return out

    def q_num(self, x: complex) -> complex:
        """{x} = q**x - q**(-x) = 2i sin(pi*x/r)."""
        return self.q_pow(x) - self.q_pow(-x)

    def bracket(self, x: complex) -> complex:
        """[x] = {x}/{1}."""
        return self.q_num(x) / self.q_num(1)

    def q_num_factorial(self, n: int) -> complex:
        """{n}! = {n}{n-1}···{1} (empty product 1 for n = 0)."""
        out: complex = 1.0
        for k in range(1, n + 1):
            out *= self.q_num(k)
        return out

    # ------------------------------------------------------------------
    # modified dimension
    # ------------------------------------------------------------------

    def mdim(self, alpha: complex) -> complex:
        """Modified dimension d(α) = (−1)**(r−1) · r · {α}/{rα}.

        Defined on Ċ = (ℂ∖ℤ) ∪ rℤ.  At α = r·m the singularity is removable
        and the returned value is the limit (−1)**((r−1)(1+m)).  Arguments
        within ``epsilon_int`` of ℤ∖rℤ raise :class:`DomainError`, since
        {rα} vanishes there while {α} does not.
        """
        if self.is_near_int(alpha):
            n = self.nearest_int(alpha)
            m, rem = divmod(n, self.r)
            if rem != 0:
                raise DomainError(
                    f"modified dimension undefined at alpha={alpha!r}: "
                    f"within {self.epsilon_int} of the excluded integer {n}"
                )
            return complex((-1) ** ((self.r - 1) * (1 + m)))
        sign = (-1) ** (self.r - 1)
        return sign * self.r * self.q_num(alpha) / self.q_num(self.r * alpha)

    def is_projective_color(self, alpha: complex) -> bool:
        """True when α ∈ Ċ, i.e. V_α exists and is projective (generic or rℤ)."""
        if not self.is_near_int(alpha):
            return True
        return self.nearest_int(alpha) % self.r == 0

    # ------------------------------------------------------------------
    # global normalization constants
    # ------------------------------------------------------------------

    @property
    def lam(self) -> float:
        """λ = √r' / r²."""
        return math.sqrt(self.rprime) / self.r**2

    @property
    def eta(self) -> float:
        """η = 1 / (r √r')."""
        return 1.0 / (self.r * math.sqrt(self.rprime))

    @property
    def delta(self) -> complex:
        """δ = q**(−3/2) · exp(−i(s+1)π/4), satisfying δ = λΔ₊ = (λΔ₋)⁻¹."""
        return self.q_pow(-1.5) * cmath.exp(-1j * (self.s + 1) * cmath.pi / 4)

    @property
    def delta_plus(self) -> complex:
        """Δ₊ = δ/λ, the +1-framed Kirby-colored meridian constant."""
        return self.delta / self.lam

    @property
    def delta_minus(self) -> complex:
        """Δ₋ = 1/(δλ), the −1-framed Kirby-colored meridian constant."""
        return 1.0 / (self.delta * self.lam)

    def constants(self) -> tuple[float, float, complex, complex, complex]:
        """The normalization tuple (λ, η, δ, Δ₊, Δ₋)."""
        return (self.lam, self.eta, self.delta, self.delta_plus, self.delta_minus)

    # ------------------------------------------------------------------
    # Kirby index set
    # ------------------------------------------------------------------

    def h_r_set(self) -> list[int]:
        """H_r = {1−r, 3−r, …, r−1}: the r integers stepping by 2."""
        return list(range(1 - self.r, self.r, 2))

    def close(self, a: complex, b: complex) -> bool:
        """Package-wide scalar comparison at this context's tolerance:
        |a - b| <= tol * max(1, |a|, |b|)."""
        return abs(a - b) <= self.tol * max(1.0, abs(a), abs(b))
