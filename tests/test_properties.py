"""The property registry: every ``selftest`` check at every tier-1 root order.

Each case runs through :func:`unrolledsl2.selftest.run_check` with the
seed the CLI uses, so ``unrolledsl2 selftest --r R`` reproduces a failure.
"""

import zlib

import numpy as np
import pytest

from unrolledsl2 import selftest
from unrolledsl2 import tqftdim as td
from unrolledsl2.qscalar import RootParams
from unrolledsl2.selftest import CHECKS, CheckResult, run_check


@pytest.mark.parametrize("r", [2, 3, 5, 6, 7], ids=lambda r: f"r{r}")
@pytest.mark.parametrize("name,fn", CHECKS, ids=[name for name, _ in CHECKS])
def test_property(name, fn, r):
    res = run_check(RootParams(r), name, fn)
    assert res.passed, res.detail


def test_a_failed_assertion_is_reported_with_its_detail():
    def fails(ctx, rng):
        selftest._assert(ctx.r > 3, f"r = {ctx.r} is too small")

    assert run_check(RootParams(3), "fails", fails) == CheckResult(
        "fails", False, "r = 3 is too small")


def test_an_error_is_reported_with_its_type():
    def raises(ctx, rng):
        raise ValueError("no such input")

    assert run_check(RootParams(3), "raises", raises) == CheckResult(
        "raises", False, "ValueError: no such input")


def test_bridge_check_fails_on_a_generic_dumbbell(monkeypatch):
    monkeypatch.setattr(td, "dumbbell_graph", td.theta_graph)
    name = "tqftdim: graph independence and bridge rejection"
    assert run_check(RootParams(3), name, dict(CHECKS)[name]) == CheckResult(
        name, False, "dumbbell bridge should be non-generic")


@pytest.mark.parametrize("r", [2, 6])
def test_one_drawn_leg_becomes_two_at_even_r(r):
    # seed 2 draws genus, then one leg, which no even-r spine carries alone
    name = "tqftdim: Hochschild route matches enumeration"
    rng = np.random.default_rng(2 + zlib.crc32(name.encode()) % 100000)
    rng.integers(1, 4)
    assert rng.integers(0, 3) == 1
    assert run_check(RootParams(r), name, dict(CHECKS)[name], seed=2).passed
