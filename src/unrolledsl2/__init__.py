"""Quantum invariants of links and 3-manifolds from unrolled quantum sl(2).

Modules
-------
qscalar    root-of-unity scalars, quantum integers, modified dimension
closedform the closed-form (Verlinde) graded dimension and its documents
model      diagrams and slices, and the diagram, link and surgery documents
repcat     V_α and dual stacks (ModuleStack), tensor products, braiding, twists
diagram    evaluation of sliced tangle diagrams
planner    greedy contraction order shared by diagram and tqftdim
invariant  renormalized link invariant F', surgery invariants N and Z
tqftdim    spines, their documents and the graded dimensions of their
           decorated-surface state spaces
jsonio     the JSON loader, the output encoder and the field parsers
selftest   the property registry behind ``selftest`` and the test suite
errors     the exception hierarchy
cli        command-line interface

The package root re-exports nothing: import each name from its submodule,
whose ``__all__`` is its public list.
"""
