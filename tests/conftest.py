"""Shared test set-up: every test starts with empty evaluation caches.

The diagram engine, the braiding builder and the HH0 contraction keep
process-wide caches of color-independent data
(:func:`unrolledsl2.diagram.compile_diagram`; in :mod:`unrolledsl2.repcat`
the ladder pairings and the R-matrix series; the spine plans of
:func:`unrolledsl2.tqftdim.hh0_dimension_generic`).  Clearing them before
each test means no test passes only because an earlier one filled a
cache, whatever the order.
"""

import pytest

from unrolledsl2 import diagram, repcat, tqftdim


@pytest.fixture(autouse=True)
def _empty_caches():
    for cache in (diagram._compiled, repcat._pairing, repcat._series, tqftdim._spine_plan):
        cache.cache_clear()
    yield
