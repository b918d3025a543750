"""The closed-form graded dimension (Verlinde formula) and its documents.

:func:`verlinde` evaluates the character sum in double precision, with an
a-priori bound on its rounding; :func:`parse_verlinde` and
:func:`verlinde_to_json` are the schema of the documents the ``verlinde``
command reads.  Like :mod:`.qscalar`, whose arithmetic it uses, this
module loads no numpy, so a ``verlinde`` call compiles only it beyond
what every command loads.
"""

from __future__ import annotations

import cmath
import math
import sys
from typing import Any, Iterable

from .errors import DomainError, SchemaError
from .jsonio import complex_to_json, int_field, parse_complex, require
from .qscalar import RootParams

__all__ = ["verlinde", "parse_verlinde", "verlinde_to_json"]

_EPS = sys.float_info.epsilon


def verlinde(
    ctx: RootParams,
    genus: int,
    beta: complex,
    point_colors: Iterable[complex] = (),
) -> complex:
    """Closed-form graded dimension of the genus-g space at t = q^(2r'β).

    With n marked points of colors c_i and c = Σc_i the value is
    (−1)^{n(r−1)}/r · (r')^g · q^{cβ} · Σ_{k∈H_r} q^{ck} ({rβ}/{β+k})^{2g−2+n};
    without points the prefactors collapse to (1/r)(r')^g.  A DomainError
    when an a-priori bound on its rounding exceeds tol·max(1, |value|) (a
    zero tol, which no bound meets, stands for the default 1e-9).
    """
    points = [complex(c) for c in point_colors]
    if genus < 0:
        raise DomainError(f"genus must be nonnegative, got {genus}")
    b = complex(beta)
    if ctx.is_near_int(b):
        raise DomainError(f"beta={beta!r} is integral; the closed form needs a "
                          "nonintegral class")
    n, c = len(points), sum(points)
    try:
        num, overflow = ctx.q_num(ctx.r * b), None
    except DomainError as exc:  # {rβ} leaves double range: see _far_ratio
        num, overflow = None, exc
    exponent = 2 * genus - 2 + n
    terms, errors = [], []  # each term's own rounding; that of {rβ}^e is common
    for k in ctx.h_r_set():
        if num is None:
            ratio, error = _far_ratio(ctx, b, k), _q_error(ctx, (ctx.r - 1) * b - k)
        else:
            ratio, error = num / (den := ctx.q_num(b + k)), _q_error(ctx, b + k, den)
        terms.append((ctx.q_pow(c * k), ratio))
        errors.append(_q_error(ctx, c * k) + abs(exponent) * (error + 4 * _EPS) + 2 * ctx.r * _EPS)
    common = _q_error(ctx, c * b) + 4 * _EPS
    if num is not None:
        common += abs(exponent) * _q_error(ctx, ctx.r * b, num)
    sign = -1.0 if (n * (ctx.r - 1)) % 2 else 1.0
    if num is not None:
        try:
            total, spread = 0.0 + 0.0j, 0.0
            for (phase, ratio), error in zip(terms, errors):
                total += (term := phase * ratio**exponent)
                spread += abs(term) * error
            value = sign / ctx.r * ctx.rprime**genus * (pre := ctx.q_pow(c * b)) * total
        except OverflowError:
            value = complex(math.inf)
        if cmath.isfinite(value) and abs(pre) >= sys.float_info.min:
            _check_rounding(ctx, genus, beta, pre, total, spread, common, 0.0)
            return value
        terms = [(phase, ratio and (math.log(abs(ratio)), ratio / abs(ratio)))
                 for phase, ratio in terms]
    elif not all(math.isfinite(ratio[0]) for _, ratio in terms):
        raise overflow
    # Some factor left double range: redo the sum with every power divided
    # by the largest one, and keep the scale as a logarithm.  Each ratio is
    # now (log |ratio|, ratio / |ratio|), or 0.  A q^(cβ) below the normal
    # range joins the scale too, as its phase times e^(−π Im(cβ)/r).
    logs = [exponent * ratio[0] if ratio else -math.inf for _, ratio in terms]
    top = max(logs)
    if top == math.inf:  # a term's scale itself leaves double range
        raise DomainError(f"the genus-{genus} value at beta={beta!r} overflows "
                          "double precision")
    total, spread = 0.0 + 0.0j, 0.0
    for (phase, ratio), log, error in zip(terms, logs, errors):
        if ratio:
            total += (term := phase * ratio[1] ** exponent * math.exp(log - top))
            spread += abs(term) * error
    pre, scale = ctx.q_pow(c * b), top
    if abs(pre) < sys.float_info.min:
        pre = cmath.exp(1j * math.pi * (c * b).real / ctx.r)
        scale -= math.pi * (c * b).imag / ctx.r
    value = sign * pre * total
    _check_rounding(ctx, genus, beta, pre, total, spread, common + _EPS * abs(top), scale)
    if not value:
        return 0.0 + 0.0j
    log_abs = math.log(abs(value)) + scale + genus * math.log(ctx.rprime) - math.log(ctx.r)
    if log_abs >= math.log(sys.float_info.max):
        raise DomainError(
            f"the genus-{genus} value at beta={beta!r} has magnitude "
            f"e^{log_abs:.1f}, which overflows double precision"
        )
    return value / abs(value) * math.exp(log_abs)


def _q_error(ctx: RootParams, x: complex, brace=None) -> float:
    """A bound on the relative rounding of q**x (its argument iπx/r is off by
    a few ulps, the exponential by one more); given the computed {x} as
    ``brace``, that of {x}: times the cancellation (|q**x| + |q**(−x)|)/|{x}|.
    For real x the two powers are conjugate, so {x} is 2i·sin θ̂ exactly,
    θ̂ the rounded θ = πx/r: sin's own rounding and θ̂'s times |θ·cot θ|."""
    if brace is not None and not x.imag:
        theta = math.pi * x.real / ctx.r
        return _EPS * (2 + 4 * abs(theta * math.cos(theta) / (brace.imag / 2)))
    error = _EPS * (2 + 4 * math.pi * abs(x) / ctx.r)
    if brace is None:
        return error
    return error * math.cosh(math.pi * x.imag / ctx.r) / abs(brace / 2) + _EPS


def _check_rounding(ctx, genus, beta, pre, total, spread, common, top) -> None:
    """DomainError unless the value ±(r')^g/r·e^top·pre·total is known to
    within tol·max(1, |value|).  ``spread`` bounds the rounding of ``total``
    term by term, ``common`` is the relative error shared by all terms, and
    ``pre`` = q**(cβ) and the product may each underflow by a subnormal."""
    tiny, tol = 5e-324, ctx.tol or RootParams.tol
    bound = (abs(pre) + tiny) * (spread + abs(total) * common) + tiny * (abs(total) + 1)
    log_scale = top + genus * math.log(ctx.rprime) - math.log(ctx.r)
    log_value = math.log(size) + log_scale if (size := abs(pre * total)) else -math.inf
    if math.log(bound) + log_scale > math.log(tol) + max(0.0, log_value):
        raise DomainError(f"the genus-{genus} value at beta={beta!r} is lost to rounding "
                          "in double precision")


def _far_ratio(ctx: RootParams, b: complex, k: int) -> tuple[float, complex]:
    """(log |{rβ}/{β+k}|, the ratio's phase) where |Im β| puts {rβ} out of
    double range.  With σ the sign of Im β the ratio is
    q^(−σ((r−1)β−k))·(1−q^(2σrβ))/(1−q^(2σ(β+k))), whose powers of q in
    the last factor are tiny."""
    sigma = 1 if b.imag > 0 else -1
    x = -sigma * ((ctx.r - 1) * b - k)
    factor = (1 - ctx.q_pow(2 * sigma * ctx.r * b)) / (1 - ctx.q_pow(2 * sigma * (b + k)))
    log = -math.pi * x.imag / ctx.r + math.log(abs(factor))
    return log, cmath.exp(1j * math.pi * x.real / ctx.r) * factor / abs(factor)


# ----------------------------------------------------------------------
# closed-form evaluation documents
# ----------------------------------------------------------------------


def parse_verlinde(doc: Any, path: str = "$") -> tuple[int, complex, list[complex]]:
    """A Verlinde-evaluation document: genus, parameter, point colors."""
    genus = int_field(require(doc, "genus", path), f"{path}.genus")
    beta = parse_complex(require(doc, "beta", path), f"{path}.beta")
    points_doc = doc.get("points", [])
    if not isinstance(points_doc, list):
        raise SchemaError(f"{path}.points: expected an array of colors")
    points = [
        parse_complex(c, f"{path}.points[{i}]") for i, c in enumerate(points_doc)
    ]
    return genus, beta, points


def verlinde_to_json(genus: int, beta: complex, points: list[complex]) -> dict:
    out: dict[str, Any] = {"genus": genus, "beta": complex_to_json(beta)}
    if points:
        out["points"] = [complex_to_json(c) for c in points]
    return out
