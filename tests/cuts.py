"""A closed diagram cut open at one cup or cap, as the tests read it.

The package runs this cut only inside :func:`unrolledsl2.invariant.f_prime`
and :func:`unrolledsl2.invariant.z_invariant`, at the cut they choose; the
tests evaluate it at any open cut and check its matrices directly.
"""

import numpy as np

from unrolledsl2.diagram import compile_diagram
from unrolledsl2.model import SlicedDiagram


def cut_matrices(diagram: SlicedDiagram, stacks: dict, cut: int) -> np.ndarray:
    """The 1-1 tangle left by cutting ``diagram`` open at slice ``cut``, as
    an endomorphism of the cut component's color per term: shape (terms,
    d, d).  ``stacks`` maps every component to its color, a module stack;
    stacks of more than one term must agree on the number of terms."""
    network = compile_diagram(diagram).cut(cut)
    return network.contract(stacks, diagram)
