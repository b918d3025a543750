"""The greedy contraction planner shared by the diagram engine and HH0."""

import math

import numpy as np
import pytest

import unrolledsl2.tqftdim as td
from unrolledsl2.planner import greedy_order
from unrolledsl2.qscalar import RootParams
from unrolledsl2.tqftdim import (
    hh0_dimension_generic,
    necklace_graph,
    random_generic_graph,
    tetrahedron_graph,
)


def test_smallest_result_first_and_ties_to_the_first_pair():
    # legs a=5, b=2, c=2, d=5: (0, 1) and (1, 2) both leave 10 elements,
    # so the tie goes to (0, 1); the merged tensor then takes tensor 2
    dims = {"a": 5, "b": 2, "c": 2, "d": 5}
    assert greedy_order([["a", "b"], ["b", "c"], ["c", "d"]], dims) == (
        [(0, 1), (0, 2)], 25,
    )
    # with d of dimension 1 the later pair leaves 2 elements and goes first
    dims["d"] = 1
    assert greedy_order([["a", "b"], ["b", "c"], ["c", "d"]], dims) == (
        [(1, 2), (0, 1)], 10,
    )


def test_shared_legs_go_in_one_step_and_self_legs_are_traced():
    dims = [3, 4, 5, 2]
    # tensor 0 holds leg 0 twice: it is traced, leaving leg 1 (3·4 = 12 → 4)
    order, peak = greedy_order([[0, 0, 1], [1, 2, 3], [2, 3]], dims)
    # (1, 2) sums legs 2 and 3 together and leaves 4 elements; (0, 1) would
    # leave 5·2 = 10
    assert order == [(1, 2), (0, 1)]
    assert peak == 4 * 5 * 2


def test_merging_stops_without_shared_legs():
    assert greedy_order([[0], [1], [2, 2]], [2, 3, 4]) == ([], 3)
    assert greedy_order([], []) == ([], 1)


def _inline_order(tensors, dims):
    """The merge order of HH0's former inline loop, named by input position:
    scan every pair (i < j) of current clusters sharing a slot, keep the
    first with the fewest labels, merge it into i and delete j."""
    slots = [set(held) for held in tensors]
    ids = list(range(len(slots)))
    order = []
    while True:
        best = None
        for i, a in enumerate(slots):
            for j in range(i + 1, len(slots)):
                if a.isdisjoint(slots[j]):
                    continue
                labels = math.prod(dims[name] for name in a ^ slots[j])
                if best is None or labels < best[0]:
                    best = (labels, i, j)
        if best is None:
            return order
        _, i, j = best
        order.append((ids[i], ids[j]))
        slots[i] ^= slots[j]
        del slots[j], ids[j]


def _graphs():
    rng = np.random.default_rng(3)
    for r in (5, 6, 9):
        ctx = RootParams(r)
        yield tetrahedron_graph(ctx, 0.21, 0.34, 0.42)
        yield necklace_graph(ctx, 5, [0.3, 0.45, 0.6, 0.75], 0.35)
        for genus in (2, 3, 4, 6):
            yield random_generic_graph(ctx, rng, genus, int(rng.integers(0, 3)))


def test_hh0_merges_as_its_former_inline_loop(monkeypatch):
    calls = []

    def recording(tensors, dims):
        out = greedy_order(tensors, dims)
        calls.append((tensors, dims, out[0]))
        return out

    monkeypatch.setattr(td, "greedy_order", recording)
    graphs = list(_graphs())
    for graph in graphs:  # a plan built for each graph, none taken from the cache
        td._spine_plan.cache_clear()
        hh0_dimension_generic(graph)
    assert len(calls) == len(graphs)
    assert sum(len(order) for *_, order in calls) > 3 * len(graphs)
    for tensors, dims, order in calls:
        assert order == _inline_order(tensors, dims)


@pytest.mark.parametrize("n", [6, 30])
def test_ring_of_crossings_is_contracted_in_sequence(n):
    # a closed chain of n four-leg tensors sharing two legs with each
    # neighbour: every merge along the chain leaves d⁴, so the ties keep
    # the chain order and the peak never exceeds d⁴
    legs = [[2 * t, 2 * t + 1, 2 * t - 2, 2 * t - 1] for t in range(n)]
    legs[0][2:] = [2 * n - 2, 2 * n - 1]
    order, peak = greedy_order(legs, [5] * (2 * n))
    assert order == [(0, t) for t in range(1, n)]
    assert peak == 5**4
