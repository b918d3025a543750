"""The four pivotal duality maps of a module, as dense matrices.

The diagram engine never builds these: cups and caps only join legs, and
their pivot weights ride on the joined leg.  The tests build them to check
the zig-zag identities, the vanishing quantum dimension and the engine
itself, slice by slice.
"""

import numpy as np

from unrolledsl2.repcat import ModuleStack


def duality_maps(a: ModuleStack) -> tuple[np.ndarray, ...]:
    """The matrices of the four duality maps (coev, ev, coev', ev') of a
    module A (a one-term stack):

    coev : 1 → A⊗A*,  1 ↦ Σ vᵢ⊗fᵢ
    ev   : A*⊗A → 1,  f⊗v ↦ f(v)
    coev': 1 → A*⊗A,  1 ↦ Σ fᵢ ⊗ pivot⁻¹·vᵢ
    ev'  : A⊗A* → 1,  v⊗f ↦ f(pivot·v)
    """
    d = a.dim
    g = a.pivot[0]
    eye = np.eye(d, dtype=complex)
    coev = eye.reshape(d * d, 1)
    ev = eye.reshape(1, d * d)
    coev_p = np.diag(1.0 / g).reshape(d * d, 1)
    ev_p = np.diag(g).reshape(1, d * d)
    return coev, ev, coev_p, ev_p
