"""Quantum invariants of links and 3-manifolds from unrolled quantum sl(2).

Modules
-------
qscalar   root-of-unity scalars, quantum integers, modified dimension
repcat    weight modules (one type, ModuleStack), braiding, twists, duality
diagram   sliced tangle diagrams and their evaluation
invariant renormalized link invariant F', surgery invariants N and Z
tqftdim   graded dimensions of decorated-surface state spaces
cli       command-line interface
"""

from .errors import (
    DiagramTypeError,
    DomainError,
    NonGenericError,
    NotComputableError,
    NotScalarError,
    QInvariantError,
    SchemaError,
    UnsupportedSlideError,
)
from .qscalar import RootParams, approx_equal
from .repcat import (
    ModuleStack,
    braiding_stack,
    dual,
    duality_maps,
    hom_dimension,
    make_valpha,
    scalar_of,
    tensor,
    trivial_module,
    twist,
    twist_scalar,
)
from .diagram import (
    Braid,
    Cap,
    Coupon,
    Cup,
    Id,
    SlicedDiagram,
    Strand,
    braid_closure,
    clasp_diagram,
    curl_diagram,
    evaluate,
    evaluate_cut,
    typecheck,
    unknot_diagram,
    writhe_and_linking,
)
from .invariant import (
    LinkingData,
    SurgeryPresentation,
    ZResult,
    encircled_strand_presentation,
    f_prime,
    graph_only_presentation,
    handle_slide,
    lens_chain_presentation,
    lens_unknot_presentation,
    linking_data,
    s1_x_s2_presentation,
    standard_two_component,
    unknot_presentation,
    z_invariant,
)
from .tqftdim import (
    GradedDimension,
    GraphEdge,
    TrivalentGraph,
    add_point_chain,
    circle_graph,
    dumbbell_graph,
    graded_dimension,
    hh0_dimension_generic,
    necklace_graph,
    random_generic_graph,
    tetrahedron_graph,
    theta_graph,
    triple_admissible,
    verlinde,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "QInvariantError",
    "DomainError",
    "NotScalarError",
    "NotComputableError",
    "NonGenericError",
    "DiagramTypeError",
    "UnsupportedSlideError",
    "SchemaError",
    # qscalar
    "RootParams",
    "approx_equal",
    # repcat
    "ModuleStack",
    "trivial_module",
    "make_valpha",
    "dual",
    "tensor",
    "braiding_stack",
    "duality_maps",
    "twist",
    "twist_scalar",
    "hom_dimension",
    "scalar_of",
    # diagram
    "Strand",
    "Id",
    "Braid",
    "Cup",
    "Cap",
    "Coupon",
    "SlicedDiagram",
    "typecheck",
    "evaluate",
    "evaluate_cut",
    "writhe_and_linking",
    "unknot_diagram",
    "curl_diagram",
    "clasp_diagram",
    "braid_closure",
    # invariant
    "SurgeryPresentation",
    "LinkingData",
    "ZResult",
    "f_prime",
    "linking_data",
    "z_invariant",
    "handle_slide",
    "unknot_presentation",
    "graph_only_presentation",
    "s1_x_s2_presentation",
    "encircled_strand_presentation",
    "standard_two_component",
    "lens_unknot_presentation",
    "lens_chain_presentation",
    # tqftdim
    "GraphEdge",
    "TrivalentGraph",
    "GradedDimension",
    "triple_admissible",
    "graded_dimension",
    "verlinde",
    "hh0_dimension_generic",
    "circle_graph",
    "theta_graph",
    "necklace_graph",
    "tetrahedron_graph",
    "dumbbell_graph",
    "add_point_chain",
    "random_generic_graph",
]
