"""Greedy pairwise contraction order of a tensor network, shared by the
diagram engine (:mod:`.diagram`) and the HH0 contraction (:mod:`.tqftdim`),
the memory preflight of the diagram engine and the coloring grid, and the
union-find of both modules (a diagram's enclosed cuts and joined network
legs, a spine's genus).
"""

from __future__ import annotations

import heapq
import math
import os
from typing import Sequence


class UnionFind:
    """Disjoint sets of the integers handed out by :meth:`make`."""

    def __init__(self):
        self.parent: list[int] = []

    def make(self) -> int:
        self.parent.append(len(self.parent))
        return self.parent[-1]

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        self.parent[self.find(a)] = self.find(b)


def require_memory(need: float, what: str) -> None:
    """MemoryError when ``what`` needs more than physical memory: ``need`` bytes."""
    limit = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > limit:
        raise MemoryError(f"{what} needs {need / 2**30:.3g} GiB, "
                          f"above the {limit / 2**30:.3g} GiB of physical memory")


def greedy_order(tensors: Sequence[Sequence], dims) -> tuple[list, int]:
    """The merges of a greedy contraction, in order, and its peak elements.

    ``tensors`` lists each tensor's leg ids and ``dims[leg]`` is a leg's
    dimension.  Each step merges the two tensors that share a leg and whose
    result has the fewest elements, summing all their shared legs; ties go
    to the first pair (i, j), i < j.  The result takes tensor i's place, so
    merges name tensors by input position.  A leg a tensor holds twice is
    traced at once, and merging stops when no two tensors share a leg.  The
    peak is the most elements of any traced input or result.
    """
    legs = [{leg for leg in held if held.count(leg) == 1} for held in tensors]
    owners: dict = {}  # leg -> its tensor, or the pair (i, j) that shares it
    for i, free in enumerate(legs):
        for leg in free:
            owners[leg] = (owners[leg], i) if leg in owners else i
    stamp = [0] * len(legs)
    heap = [
        (math.prod([dims[leg] for leg in legs[i] ^ legs[j]]), i, j, 0, 0)
        for i, j in {pair for pair in owners.values() if type(pair) is tuple}
    ]
    heapq.heapify(heap)
    order = []
    peak = max([math.prod([dims[leg] for leg in free]) for free in legs], default=1)
    while heap:
        elements, i, j, si, sj = heapq.heappop(heap)
        if si != stamp[i] or sj != stamp[j]:
            continue  # stale: a tensor of this pair has merged since
        order.append((i, j))
        peak = max(peak, elements)
        a, b = legs[i], legs[j]
        for leg in b:
            held = owners.pop(leg)
            if leg not in a:
                owners[leg] = i if type(held) is int else (held[0] if held[1] == j else held[1], i)
        a ^= b
        b.clear()
        stamp[i] += 1
        stamp[j] += 1
        neighbours = set()
        for leg in a:
            held = owners[leg]
            if type(held) is tuple:
                neighbours.add(held[0] if held[1] == i else held[1])
        for t in neighbours:
            p, q = (i, t) if i < t else (t, i)
            elements = math.prod([dims[leg] for leg in legs[p] ^ legs[q]])
            heapq.heappush(heap, (elements, p, q, stamp[p], stamp[q]))
    return order, peak
