"""Surgery presentations that only the tests build.

Each returns an :class:`unrolledsl2.invariant.SurgeryPresentation` whose
invariant the tests know in closed form.
"""

from unrolledsl2.diagram import clasp_diagram
from unrolledsl2.errors import DomainError
from unrolledsl2.invariant import SurgeryPresentation
from unrolledsl2.qscalar import RootParams


def encircled_strand_presentation(
    ctx: RootParams, alpha: complex, framing: int = 1, lift_shift: int = 0
) -> SurgeryPresentation:
    """S³ via ±1-surgery on a circle encircling a V_α-colored unknot.

    The meridian value on the surgery circle is forced by the vanishing
    condition on its parallel: framing·c + degree(V_α) ≡ 0 mod 2.  The
    surgery inserts a ∓1 full twist on the strand through the circle, so
    the graph component declares framing ±1 to land on the 0-framed unknot:
    the pair is then (S³, 0-framed unknot_α) and Z must equal η·d(α) — the
    empty-surgery evaluation — whichever computable lift is chosen.
    """
    if framing not in (1, -1):
        raise DomainError("encircling presentation needs framing ±1")
    degree = alpha + ctx.r - 1
    c = -degree / framing + 2 * lift_shift
    # graph edge outermost so the fixed cut falls on it without enclosure
    diagram = clasp_diagram(1, comp_a="L1", comp_b="T1")
    return SurgeryPresentation(
        ctx=ctx,
        diagram=diagram,
        framings={"L1": framing},
        meridian_values={"L1": c, "T1": degree},
        colors={"T1": alpha},
        graph_framings={"T1": framing},
    )
