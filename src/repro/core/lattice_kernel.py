"""Chain-indexed bitset kernel for the lattice of order ideals.

Mattern's observation (see :mod:`repro.core.ideals`) identifies the
consistent global states of a computation with the order ideals of its
message poset.  Theorem 8 bounds the width of ``(M, ↦)`` by
``floor(N/2)``, so by Dilworth the poset splits into at most
``floor(N/2)`` chains — and an ideal, intersected with a chain, is a
*prefix* of that chain.  Every ideal is therefore uniquely a tuple of
per-chain prefix lengths: the lattice embeds into a product of at most
``floor(N/2)`` chains, exactly the compact-clock structure Zheng & Garg
exploit for multithreaded vector clocks.

This module drives that embedding with the bitset kernel of
:mod:`repro.core.poset`.  An ideal is an ``int`` bitmask over the
poset's insertion positions, and the whole lattice is walked by a
**chain-indexed successor rule**:

* a candidate extension is the next unconsumed element ``e`` of some
  chain (one ``int`` of candidate bits per ideal);
* ``e`` is *addable* exactly when ``below_bits[e] & ~ideal_mask == 0``
  — one word-parallel AND against the kernel's closed rows;
* of the addable extensions, ``e`` spawns a child exactly when no
  *maximal* prefix top on a higher-indexed chain would stay maximal
  beside it (``live_tops & higher[e] & ~below_bits[e] == 0``) — the
  rule that makes the traversal a spanning *tree* of the lattice, so
  every ideal is produced exactly once with no visited-set.

Per ideal the work is O(width) big-int operations — no frozensets, no
per-layer dedup, no hashing — which is what turns the previously
exponential-with-a-huge-constant layered BFS (kept as a test oracle
in ``tests/core/poset_oracle.py``) into a memory-light traversal that
counts ``2^16`` global states in well under a second.

The canonical enumeration order ("chain-prefix order") is depth-first
preorder, children by ascending insertion position of the added
element.  It is deterministic for a fixed poset;
:func:`repro.core.ideals.all_ideals` layers it by cardinality for
public parity with the historical contract.

Interval queries (:func:`ideal_masks_between`) restrict the same
machinery to the sublattice ``[lower, upper]``, which is how recovery
(:mod:`repro.apps.recovery`) measures the state space that survives a
crash without materializing it.
"""

from __future__ import annotations

import time
import weakref
from typing import FrozenSet, Hashable, Iterable, Iterator, List, Tuple

from repro.core.chains import minimum_chain_partition
from repro.core.poset import Poset, iter_bits
from repro.exceptions import PosetError
from repro.obs import instrument

Element = Hashable

try:  # Python >= 3.10
    popcount = int.bit_count
except AttributeError:  # pragma: no cover - 3.9 fallback
    def popcount(value: int) -> int:
        return bin(value).count("1")

#: Sentinel in ``chain_next`` for "top of its chain".
_NO_NEXT = -1


class LatticeIndex:
    """Per-poset precomputation behind the ideal traversal.

    Holds the minimum chain partition (indices, not elements), the
    kernel's closed bitmask rows, and the per-element successor/
    higher-chain masks the traversal consumes.  Built once per poset
    and cached weakly (:func:`lattice_index`), like the comparability
    matcher in :mod:`repro.core.chains` — whose solved matching this
    construction reuses.
    """

    __slots__ = (
        "poset",
        "elements",
        "positions",
        "below",
        "above",
        "full_mask",
        "chains",
        "chain_next",
        "higher",
        "first_mask",
        "__weakref__",
    )

    def __init__(self, poset: Poset):
        self.poset = poset
        self.elements: Tuple[Element, ...] = poset.elements
        self.positions = {e: i for i, e in enumerate(self.elements)}
        self.below: Tuple[int, ...] = poset.below_bit_rows()
        self.above: Tuple[int, ...] = poset.above_bit_rows()
        n = len(self.elements)
        self.full_mask = (1 << n) - 1

        positions = self.positions
        self.chains: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(positions[e] for e in chain)
            for chain in minimum_chain_partition(poset)
        )
        (
            self.chain_next,
            self.higher,
            self.first_mask,
        ) = _chain_tables(n, self.chains)


def _chain_tables(
    n: int, chains: Tuple[Tuple[int, ...], ...]
) -> Tuple[List[int], List[int], int]:
    """``(chain_next, higher, first_mask)`` for a chain partition.

    ``chain_next[e]`` is the position following ``e`` on its chain (or
    :data:`_NO_NEXT`), ``higher[e]`` is the bitmask of every element
    sitting on a chain with a strictly larger index than ``e``'s, and
    ``first_mask`` has one bit per chain: its bottom element.
    """
    chain_next = [_NO_NEXT] * n
    # Elements on no chain (outside a restricted universe) keep -1 and
    # land on suffix[0]; they are never candidates, so the value is
    # irrelevant — it just has to be a valid index.
    chain_of = [-1] * n
    chain_masks = []
    first_mask = 0
    for ci, chain in enumerate(chains):
        mask = 0
        for k, e in enumerate(chain):
            chain_of[e] = ci
            mask |= 1 << e
            if k + 1 < len(chain):
                chain_next[e] = chain[k + 1]
        chain_masks.append(mask)
        if chain:
            first_mask |= 1 << chain[0]

    # suffix[c] = union of the chain masks with index > c.
    suffix = [0] * (len(chains) + 1)
    for ci in range(len(chains) - 1, -1, -1):
        suffix[ci] = suffix[ci + 1] | chain_masks[ci]
    higher = [suffix[chain_of[e] + 1] for e in range(n)]
    return chain_next, higher, first_mask


_INDEX_CACHE: "weakref.WeakKeyDictionary[Poset, LatticeIndex]" = (
    weakref.WeakKeyDictionary()
)


def lattice_index(poset: Poset) -> LatticeIndex:
    """The cached :class:`LatticeIndex` of ``poset``."""
    index = _INDEX_CACHE.get(poset)
    if index is None:
        index = LatticeIndex(poset)
        _INDEX_CACHE[poset] = index
    return index


# ----------------------------------------------------------------------
# Mask <-> element-set bridge
# ----------------------------------------------------------------------
def mask_of(
    poset: Poset, members: Iterable[Element], strict: bool = True
) -> int:
    """The bitmask of ``members`` over the poset's insertion positions.

    With ``strict`` (the default) an element outside the poset raises
    :class:`PosetError`; otherwise foreign elements are ignored, which
    is how tolerant callers (frontier extraction) fold arbitrary sets
    onto the kernel.
    """
    positions = lattice_index(poset).positions
    mask = 0
    for element in members:
        position = positions.get(element)
        if position is None:
            if strict:
                raise PosetError(f"element {element!r} not in poset")
            continue
        mask |= 1 << position
    return mask


def members_of_mask(poset: Poset, mask: int) -> FrozenSet[Element]:
    """The frozenset of elements whose position bits are set."""
    elements = lattice_index(poset).elements
    return frozenset(elements[b] for b in iter_bits(mask))


def is_ideal_mask(poset: Poset, mask: int) -> bool:
    """True when ``mask`` is a down-set of the poset.

    One closed-row AND per member: ``below_bits[e] & ~mask == 0``.
    """
    below = lattice_index(poset).below
    missing = ~mask
    m = mask
    while m:
        low = m & -m
        if below[low.bit_length() - 1] & missing:
            return False
        m ^= low
    return True


# ----------------------------------------------------------------------
# Traversal
# ----------------------------------------------------------------------
def _record_traversal(produced: int, started: float) -> None:
    bundle = instrument.metrics
    if bundle is not None:
        bundle.lattice_ideals_enumerated.inc(produced)
        bundle.lattice_enumeration_seconds.observe(
            time.perf_counter() - started
        )


def _limit_error(limit: int, what: str = "poset") -> PosetError:
    return PosetError(
        f"{what} has more than {limit} ideals; raise the limit"
    )


def _iter_masks(
    below,
    higher,
    chain_next,
    base_mask: int,
    universe: int,
    first_mask: int,
) -> Iterator[int]:
    """DFS preorder over the lattice spanning tree (module docstring).

    Yields each ideal's bitmask exactly once, ``base_mask`` first.  The
    stack holds ``(mask, next_mask, live_tops)`` triples: the ideal,
    the next unconsumed element of every chain, and the prefix tops
    still maximal in the ideal.  Candidates are scanned from the
    highest position down so the LIFO pop order visits children by
    ascending position.
    """
    stack = [(base_mask, first_mask, 0)]
    while stack:
        mask, next_mask, live = stack.pop()
        yield mask
        comp = universe & ~mask
        m = next_mask
        while m:
            e = m.bit_length() - 1
            bit = 1 << e
            m ^= bit
            row = below[e]
            if row & comp:
                continue  # a predecessor is still missing
            if live & higher[e] & ~row:
                continue  # a higher chain's top survives: not canonical
            nxt = chain_next[e]
            child_next = next_mask ^ bit
            if nxt != _NO_NEXT:
                child_next |= 1 << nxt
            stack.append((mask | bit, child_next, (live & ~row) | bit))


def iterate_ideal_masks(
    poset: Poset, limit: "int | None" = None
) -> Iterator[int]:
    """Every ideal of ``poset`` as a bitmask, in chain-prefix order.

    Raises :class:`PosetError` when more than ``limit`` ideals would be
    produced (checked lazily, after ``limit`` masks were yielded).
    """
    index = lattice_index(poset)
    started = time.perf_counter()
    produced = 0
    try:
        for mask in _iter_masks(
            index.below,
            index.higher,
            index.chain_next,
            0,
            index.full_mask,
            index.first_mask,
        ):
            produced += 1
            if limit is not None and produced > limit:
                raise _limit_error(limit)
            yield mask
    finally:
        _record_traversal(produced, started)


def count_ideals(poset: Poset, limit: "int | None" = None) -> int:
    """The number of ideals, counted without materializing any of them.

    Same traversal as :func:`iterate_ideal_masks` but with the yield
    machinery, child ordering, and mask collection all stripped: the
    hot loop touches three ints per ideal and never allocates a set.
    Raises :class:`PosetError` past ``limit``.
    """
    index = lattice_index(poset)
    return _count_masks(
        index.below,
        index.higher,
        index.chain_next,
        0,
        index.full_mask,
        index.first_mask,
        limit,
        "poset",
    )


def _count_masks(
    below,
    higher,
    chain_next,
    base_mask: int,
    universe: int,
    first_mask: int,
    limit: "int | None",
    what: str,
) -> int:
    started = time.perf_counter()
    count = 0
    stack = [(base_mask, first_mask, 0)]
    try:
        while stack:
            mask, next_mask, live = stack.pop()
            count += 1
            if limit is not None and count > limit:
                raise _limit_error(limit, what)
            comp = universe & ~mask
            m = next_mask
            while m:
                e = m.bit_length() - 1
                bit = 1 << e
                m ^= bit
                row = below[e]
                if row & comp:
                    continue
                if live & higher[e] & ~row:
                    continue
                nxt = chain_next[e]
                child_next = next_mask ^ bit
                if nxt != _NO_NEXT:
                    child_next |= 1 << nxt
                stack.append(
                    (mask | bit, child_next, (live & ~row) | bit)
                )
    finally:
        _record_traversal(count, started)
    return count


# ----------------------------------------------------------------------
# Interval queries
# ----------------------------------------------------------------------
def _interval_tables(index: LatticeIndex, lower: int, upper: int):
    """Restricted ``(chain_next, higher, first_mask, universe)``.

    The ideals in ``[lower, upper]`` are ``lower`` unioned with the
    ideals of the sub-poset induced on ``upper & ~lower`` (everything
    below an element of ``upper`` already lies in ``upper``, and no
    element of ``lower`` sits above one outside it), so the global
    chain partition restricted to that window is again a chain
    partition of exactly the elements the traversal may add.
    """
    full = index.full_mask
    if lower & ~full or upper & ~full:
        raise PosetError("interval bound has bits outside the poset")
    if lower & ~upper:
        raise PosetError("interval lower bound is not below upper bound")
    for name, bound in (("lower", lower), ("upper", upper)):
        if not is_ideal_mask(index.poset, bound):
            raise PosetError(
                f"interval {name} bound is not an ideal (down-set)"
            )
    universe = upper & ~lower
    if universe == full:
        return index.chain_next, index.higher, index.first_mask, universe
    n = len(index.elements)
    chains = tuple(
        restricted
        for restricted in (
            tuple(e for e in chain if (universe >> e) & 1)
            for chain in index.chains
        )
        if restricted
    )
    chain_next, higher, first_mask = _chain_tables(n, chains)
    return chain_next, higher, first_mask, universe


def ideal_masks_between(
    poset: Poset,
    lower: int,
    upper: int,
    limit: "int | None" = None,
) -> Iterator[int]:
    """Every ideal ``I`` with ``lower <= I <= upper``, as bitmasks.

    Both bounds must themselves be ideals (checked); the traversal then
    never leaves the sublattice, so the cost is proportional to the
    interval's size, not the whole lattice's.  Order is the chain-
    prefix order of the restricted traversal, ``lower`` first.
    """
    index = lattice_index(poset)
    chain_next, higher, first_mask, universe = _interval_tables(
        index, lower, upper
    )
    started = time.perf_counter()
    produced = 0
    try:
        for mask in _iter_masks(
            index.below, higher, chain_next, lower, universe, first_mask
        ):
            produced += 1
            if limit is not None and produced > limit:
                raise _limit_error(limit, "interval")
            yield mask
    finally:
        _record_traversal(produced, started)


def count_ideals_between(
    poset: Poset,
    lower: int,
    upper: int,
    limit: "int | None" = None,
) -> int:
    """``len(list(ideal_masks_between(...)))`` without materializing."""
    index = lattice_index(poset)
    chain_next, higher, first_mask, universe = _interval_tables(
        index, lower, upper
    )
    return _count_masks(
        index.below,
        higher,
        chain_next,
        lower,
        universe,
        first_mask,
        limit,
        "interval",
    )
