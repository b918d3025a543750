"""Shared test set-up: every test starts with empty evaluation caches.

The diagram engine and the braiding builder keep process-wide caches of
color-independent data (:func:`unrolledsl2.diagram.compile_diagram`, and in
:mod:`unrolledsl2.repcat` the ladder pairings and the R-matrix series).
Clearing them before each test means no test passes only because an
earlier one filled a cache, whatever the order.
"""

import pytest

from unrolledsl2 import diagram, repcat


@pytest.fixture(autouse=True)
def _empty_caches():
    for cache in (diagram._compiled, repcat._pairing, repcat._series):
        cache.cache_clear()
    yield
