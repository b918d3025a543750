"""Exception hierarchy.

Every error deliberately raised by this package derives from
:class:`QInvariantError`.  Two families say what is wrong with the input,
and the CLI's exit code follows the family: :class:`SchemaError` for
malformed input (exit 2) and :class:`DomainError` for well-formed input
outside the mathematical domain (exit 3), each with finer modes below.
:class:`NotScalarError` is an internal inconsistency (exit 1).
"""


class QInvariantError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(QInvariantError, ValueError):
    """An input lies outside the mathematical domain of the requested map.

    Examples: a root order r with r ≡ 0 (mod 4); a modified-dimension
    argument within tolerance of ℤ∖rℤ; a Verlinde parameter β making some
    quantum number {β+k} vanish.
    """


class SchemaError(QInvariantError, ValueError):
    """Malformed input file: wrong shape, missing key, or unparsable value."""


class NotScalarError(QInvariantError):
    """An endomorphism that must be scalar (by Schur's lemma) is not.

    Raised when a cut-open 1-1 tangle on a simple module deviates from
    ``scalar · Id`` beyond tolerance; this signals an internal inconsistency
    rather than bad user input.
    """


class NotComputableError(DomainError):
    """A surgery presentation fails the computability criteria.

    The three-manifold invariant needs every surgery-component meridian to
    carry a nonintegral cohomology value (or, with no surgery link at all, an
    admissible decorated graph), together with the vanishing of the class on
    all preferred parallels.
    """


class NonGenericError(DomainError):
    """A cohomology class is integral where a generic value is required.

    Raised by the graded-dimension and Hochschild routines when an internal
    edge grading lands in ℤ/2ℤ: those cases involve non-semisimple basic
    algebras that are out of scope.
    """


class DiagramTypeError(SchemaError, TypeError):
    """Ill-typed diagram data: slices fail to compose.

    Carries the offending slice index and a description of the orientation,
    color, or width mismatch.
    """


class UnsupportedSlideError(DomainError):
    """A handle slide was requested outside the supported diagram family."""
