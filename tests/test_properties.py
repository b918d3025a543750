"""The property registry: every ``selftest`` check at every tier-1 root order.

Each case runs through :func:`unrolledsl2.selftest.run_check` with the
seed the CLI uses, so ``unrolledsl2 selftest --r R`` reproduces a failure.
"""

import pytest

from unrolledsl2.qscalar import RootParams
from unrolledsl2.selftest import CHECKS, run_check


@pytest.mark.parametrize("r", [2, 3, 5, 6, 7], ids=lambda r: f"r{r}")
@pytest.mark.parametrize("name,fn", CHECKS, ids=[name for name, _ in CHECKS])
def test_property(name, fn, r):
    res = run_check(RootParams(r), name, fn)
    assert res.passed, res.detail
