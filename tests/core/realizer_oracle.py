"""Frozen per-chain realizer sweep: the test oracle for the shared one.

These are :func:`chain_forced_extension` and
:func:`realizer_from_chain_partition` of
:mod:`repro.core.linear_extensions` from before the sweep moved to
tables built once per poset.  Every chain rebuilds its own element
index, copies the poset's rows and recomputes closure popcounts and
cover in-degrees.  A stalled chain element is released once
``len(order) == n - 1 - |above(c)|``, and bitset posets and
``successor_index`` posets take two separate sweep branches.
:func:`rank_vectors` is the offline clock's old per-message rank
assembly.  The property suite checks the library against them
extension for extension and stamp for stamp, error messages included.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Hashable, List, Sequence

from repro.core.poset import _popcount
from repro.core.vector import VectorTimestamp
from repro.exceptions import PosetError

Element = Hashable


def chain_forced_extension(poset, chain: Sequence[Element]) -> List[Element]:
    """The forced extension of ``chain``, one full sweep per call."""
    items = list(chain)
    for element in items:
        if element not in poset:
            raise PosetError(f"chain element {element!r} not in poset")
    if not poset.is_chain(items):
        raise PosetError("chain_forced_extension requires a chain")

    elements = poset.elements
    n = len(elements)
    element_index = {e: i for i, e in enumerate(elements)}
    in_chain = [False] * n
    for element in items:
        in_chain[element_index[element]] = True

    rows_accessor = getattr(poset, "above_bit_rows", None)
    if rows_accessor is not None:
        above = rows_accessor()
        cover_rows = poset.cover_bit_rows()
        out_count = [_popcount(row) for row in above]
        indegree = [0] * n
        for row in cover_rows:
            m = row
            while m:
                low = m & -m
                indegree[low.bit_length() - 1] += 1
                m ^= low
        succ_rows = cover_rows
        succ = None
    else:
        succ = poset.successor_index()
        succ_rows = None
        indegree = [0] * n
        for row in succ:
            for j in row:
                indegree[j] += 1
        out_count = [len(row) for row in succ]

    def _chain_threshold(i: int) -> int:
        return n - 1 - out_count[i]

    stalled = -1
    ready: deque = deque()
    for i in range(n):
        if indegree[i] == 0:
            if in_chain[i] and _chain_threshold(i) != 0:
                stalled = i
            else:
                ready.append(i)

    order_ids: List[int] = []
    while ready or stalled != -1:
        if stalled != -1 and len(order_ids) == _chain_threshold(stalled):
            current = stalled
            stalled = -1
        elif ready:
            current = ready.popleft()
        else:
            raise PosetError("chain-forced relation unexpectedly cyclic")
        order_ids.append(current)
        placed = len(order_ids)
        if succ_rows is not None:
            m = succ_rows[current]
            while m:
                low = m & -m
                j = low.bit_length() - 1
                m ^= low
                indegree[j] -= 1
                if indegree[j] == 0:
                    if in_chain[j] and _chain_threshold(j) != placed:
                        stalled = j
                    else:
                        ready.append(j)
        else:
            for j in succ[current]:
                indegree[j] -= 1
                if indegree[j] == 0:
                    if in_chain[j] and _chain_threshold(j) != placed:
                        stalled = j
                    else:
                        ready.append(j)
    return [elements[i] for i in order_ids]


def realizer_from_chain_partition(
    poset, chains: Sequence[Sequence[Element]]
) -> List[List[Element]]:
    """One independently swept forced extension per chain."""
    if not chains:
        if len(poset) == 0:
            return [[]]
        raise PosetError("empty chain family for a non-empty poset")
    return [chain_forced_extension(poset, chain) for chain in chains]


def rank_vectors(
    poset, realizer: Sequence[Sequence[Element]]
) -> Dict[Element, VectorTimestamp]:
    """Per-message rank vectors, assembled message by message."""
    rank_maps = [
        {element: i for i, element in enumerate(extension)}
        for extension in realizer
    ]
    return {
        message: VectorTimestamp(ranks[message] for ranks in rank_maps)
        for message in poset.elements
    }
