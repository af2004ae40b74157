"""Chains, antichains, width, and minimum chain partitions.

Theorem 8 of the paper bounds the *width* of the message poset of a
synchronous computation by ``floor(N/2)`` and then invokes Dilworth's
theorem (``dim(P) <= width(P)``) to obtain the offline algorithm.  The
constructive ingredient is a **minimum chain partition**, which this
module computes with the classical reduction to maximum bipartite
matching (Fulkerson):

    minimum number of chains covering P  =  |P| - maximum matching

in the bipartite graph with a left and a right copy of every element and
an edge ``x_left — y_right`` whenever ``x < y``.  The matching is found
with our own Hopcroft–Karp implementation — no external graph library is
involved.

The module also extracts a *maximum antichain* (the width witness) from a
minimum vertex cover via Kőnig's theorem, and offers a greedy
longest-chain-peeling partition used by the ablation benchmarks.
"""

from __future__ import annotations

import weakref
from collections import deque
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.poset import Poset
from repro.exceptions import PosetError

Element = Hashable

#: Sentinel index for an unmatched vertex.
_FREE = -1
#: BFS layer value meaning "not layered this phase".
_UNLAYERED = -1
#: Layer value assigned to vertices proven dead ends this phase; chosen so
#: ``_RETIRED + 1`` can never equal a live layer (layers are ``>= 0``) nor
#: :data:`_UNLAYERED`, so retired vertices are never re-entered.
_RETIRED = -3


class BipartiteMatcher:
    """Hopcroft–Karp maximum matching on an explicit bipartite graph.

    ``adjacency`` maps each left vertex to the iterable of right vertices
    it may be matched with.  Left and right vertex sets may overlap as
    Python values; they are treated as disjoint sides.  Vertices within
    each side must be distinct values.

    The augmenting-path search is an explicit-stack iterative DFS, so
    arbitrarily long alternating paths (near-chain posets produce paths
    as long as the vertex count) never touch the interpreter's recursion
    limit.  Internally vertices are insertion indices; values are only
    hashed once at construction and translated back at the API boundary.

    Adjacency is held as one integer bitmask of right indices per left
    vertex (:meth:`from_bitmask_rows` takes those rows directly, e.g.
    ``Poset.above_bit_rows``), so neighbour scans are word-parallel
    mask intersections.  Candidate right vertices are always tried in
    ascending index order, whatever order ``adjacency`` lists them in.
    """

    def __init__(
        self,
        left: Sequence[Element],
        right: Sequence[Element],
        adjacency: Dict[Element, Sequence[Element]],
    ):
        right_index = {v: j for j, v in enumerate(right)}
        rows = []
        for u in left:
            row = 0
            for v in adjacency.get(u, ()):
                row |= 1 << right_index[v]
            rows.append(row)
        self._start(left, right, rows)

    @classmethod
    def from_bitmask_rows(
        cls,
        left: Sequence[Element],
        right: Sequence[Element],
        rows: Sequence[int],
    ) -> "BipartiteMatcher":
        """Build from one right-vertex bitmask per left vertex.

        Bit ``j`` of ``rows[i]`` marks an edge ``left[i] — right[j]``.
        The comparability matcher feeds the poset's closed bitmask rows
        straight in, so no per-edge adjacency is ever materialized.
        """
        matcher = cls.__new__(cls)
        matcher._start(left, right, rows)
        return matcher

    def _start(
        self,
        left: Sequence[Element],
        right: Sequence[Element],
        rows: Sequence[int],
    ) -> None:
        self._left = list(left)
        self._right = list(right)
        self._adj_masks = list(rows)
        self._free_right_mask = (1 << len(self._right)) - 1
        self._match_left: List[int] = [_FREE] * len(self._left)
        self._match_right: List[int] = [_FREE] * len(self._right)
        self._matching_size = 0
        self._solved = False

    # ------------------------------------------------------------------
    def solve(self) -> Dict[Element, Element]:
        """Run the algorithm; returns the left-to-right matching map."""
        self._ensure_solved()
        return {
            self._left[u]: self._right[v]
            for u, v in enumerate(self._match_left)
            if v != _FREE
        }

    def _ensure_solved(self) -> None:
        if not self._solved:
            self._run_phases()
            self._solved = True

    def _run_phases(self) -> None:
        while True:
            layers = self._bfs_layers()
            if layers is None:
                break
            eligible = self._rights_by_partner_layer(layers)
            augmented = 0
            for u in range(len(self._left)):
                if self._match_left[u] == _FREE:
                    if self._dfs_augment(u, layers, eligible):
                        augmented += 1
            if augmented == 0:
                break

    def matching_size(self) -> int:
        self._ensure_solved()
        return self._matching_size

    def left_match_indices(self) -> List[int]:
        """Matched right *index* per left index (``-1`` = unmatched).

        Index-level access for callers that work in positional space —
        the sharded chain partition merges per-block matchings by
        offsetting these indices into global positions without ever
        hashing element values.
        """
        self._ensure_solved()
        return list(self._match_left)

    # ------------------------------------------------------------------
    # Phases.  The lowest set bit of a mask intersection is "the first
    # eligible right vertex in ascending order", so each step is a
    # word-parallel AND/OR instead of a per-edge scan.
    # ------------------------------------------------------------------
    def _bfs_layers(self) -> Optional[List[int]]:
        """Layer left vertices by shortest alternating path from a free one.

        Returns ``None`` when no augmenting path exists.
        """
        match_left = self._match_left
        match_right = self._match_right
        masks = self._adj_masks
        layers = [_UNLAYERED] * len(self._left)
        queue: deque = deque()
        for u in range(len(self._left)):
            if match_left[u] == _FREE:
                layers[u] = 0
                queue.append(u)
        found_free_right = False
        free_right = self._free_right_mask
        # Rights whose matched left has not been layered yet: initially
        # every matched right (free lefts sit at layer 0 already).
        unlayered_partner = ((1 << len(self._right)) - 1) & ~free_right
        while queue:
            u = queue.popleft()
            row = masks[u]
            if row & free_right:
                found_free_right = True
            m = row & unlayered_partner
            if m:
                unlayered_partner &= ~m
                next_layer = layers[u] + 1
                while m:
                    low = m & -m
                    w = match_right[low.bit_length() - 1]
                    layers[w] = next_layer
                    queue.append(w)
                    m ^= low
        return layers if found_free_right else None

    def _rights_by_partner_layer(self, layers: List[int]) -> Dict[int, int]:
        """Mask of right vertices keyed by their matched left's layer."""
        eligible: Dict[int, int] = {}
        match_left = self._match_left
        for u, v in enumerate(match_left):
            if v != _FREE:
                layer = layers[u]
                eligible[layer] = eligible.get(layer, 0) | (1 << v)
        return eligible

    def _dfs_augment(
        self, root: int, layers: List[int], eligible: Dict[int, int]
    ) -> bool:
        """Search for one augmenting path from free left vertex ``root``.

        A frame's candidate rights are ``adj[u] & (free ∪ rights whose
        partner sits on the next layer)``; within one root's search that
        mask only shrinks (dead ends retire their right), so taking the
        lowest set bit at each resume is an ascending scan of ``adj[u]``.
        Augmenting flips re-home each flipped right into its new
        partner's layer mask so later roots in the phase see the
        updated matching.
        """
        masks = self._adj_masks
        match_left = self._match_left
        match_right = self._match_right
        free_right = self._free_right_mask
        stack: List[List[int]] = [[root, _FREE]]
        while stack:
            u = stack[-1][0]
            next_layer = layers[u] + 1
            cand = masks[u] & (free_right | eligible.get(next_layer, 0))
            if cand:
                low = cand & -cand
                v = low.bit_length() - 1
                stack[-1][1] = v
                if low & free_right:
                    # Free right vertex: flip every edge on the stack.
                    for position, (fu, fv) in enumerate(stack):
                        bit = 1 << fv
                        if position + 1 < len(stack):
                            old_partner = stack[position + 1][0]
                            eligible[layers[old_partner]] &= ~bit
                        else:
                            self._free_right_mask &= ~bit
                        fu_layer = layers[fu]
                        eligible[fu_layer] = (
                            eligible.get(fu_layer, 0) | bit
                        )
                        match_left[fu] = fv
                        match_right[fv] = fu
                    self._matching_size += 1
                    return True
                stack.append([match_right[v], _FREE])
            else:
                old_layer = layers[u]
                layers[u] = _RETIRED
                matched_v = match_left[u]
                if matched_v != _FREE:
                    eligible[old_layer] &= ~(1 << matched_v)
                stack.pop()
        return False

    # ------------------------------------------------------------------
    def minimum_vertex_cover(self) -> Tuple[Set[Element], Set[Element]]:
        """Kőnig's construction: ``(left_cover, right_cover)``.

        Left vertices *not* reachable by an alternating path from a free
        left vertex, plus right vertices that *are* reachable, form a
        minimum vertex cover of the bipartite graph.
        """
        self._ensure_solved()
        match_left = self._match_left
        match_right = self._match_right
        masks = self._adj_masks
        visited_left = [False] * len(self._left)
        visited_right = [False] * len(self._right)
        queue: deque = deque()
        for u in range(len(self._left)):
            if match_left[u] == _FREE:
                visited_left[u] = True
                queue.append(u)
        visited_right_mask = 0
        while queue:
            u = queue.popleft()
            newly = masks[u] & ~visited_right_mask
            visited_right_mask |= newly
            while newly:
                low = newly & -newly
                v = low.bit_length() - 1
                newly ^= low
                visited_right[v] = True
                w = match_right[v]
                if w != _FREE and not visited_left[w]:
                    visited_left[w] = True
                    queue.append(w)
        left_cover = {
            self._left[u]
            for u in range(len(self._left))
            if not visited_left[u]
        }
        right_cover = {
            self._right[v]
            for v in range(len(self._right))
            if visited_right[v]
        }
        return left_cover, right_cover


# ----------------------------------------------------------------------
# Dilworth machinery on posets
# ----------------------------------------------------------------------
#: Solved comparability matchers, keyed weakly by poset so repeated
#: ``width`` / ``minimum_chain_partition`` / ``maximum_antichain`` calls
#: on the same poset reuse one matching instead of re-running the
#: Hopcroft–Karp phases.  Weak keys keep the cache from pinning posets.
_MATCHER_CACHE: "weakref.WeakKeyDictionary[Poset, BipartiteMatcher]" = (
    weakref.WeakKeyDictionary()
)


def _comparability_matcher(poset: Poset) -> BipartiteMatcher:
    matcher = _MATCHER_CACHE.get(poset)
    if matcher is None:
        elements = poset.elements
        # The poset's closed bitmask rows are exactly the bipartite
        # adjacency (x_left -> y_right iff x < y).  The frozen list-fed
        # Hopcroft–Karp over the same order (``reference_chain_partition``
        # in ``tests/core/poset_oracle.py``) yields the same matching.
        matcher = BipartiteMatcher.from_bitmask_rows(
            elements, elements, poset.above_bit_rows()
        )
        _MATCHER_CACHE[poset] = matcher
    return matcher


def minimum_chain_partition(poset: Poset) -> List[List[Element]]:
    """Partition the poset into the fewest chains (Dilworth/Fulkerson).

    Each returned chain is sorted bottom-to-top.  The number of chains
    equals :func:`width`.
    """
    matcher = _comparability_matcher(poset)
    match_left = matcher.solve()
    # Successor pointers along matched edges form the chains.
    has_predecessor: Set[Element] = set(match_left.values())
    chains: List[List[Element]] = []
    for element in poset.elements:
        if element in has_predecessor:
            continue
        chain = [element]
        current = element
        while current in match_left:
            current = match_left[current]
            chain.append(current)
        chains.append(chain)
    return chains


def width(poset: Poset) -> int:
    """The size of the largest antichain (equivalently, of the minimum
    chain partition, by Dilworth's theorem).

    >>> width(Poset.antichain("abc"))
    3
    >>> width(Poset.chain("abc"))
    1
    """
    if len(poset) == 0:
        return 0
    matcher = _comparability_matcher(poset)
    return len(poset) - matcher.matching_size()


def maximum_antichain(poset: Poset) -> List[Element]:
    """A concrete antichain of size :func:`width` (Kőnig extraction)."""
    if len(poset) == 0:
        return []
    matcher = _comparability_matcher(poset)
    left_cover, right_cover = matcher.minimum_vertex_cover()
    antichain = [
        e
        for e in poset.elements
        if e not in left_cover and e not in right_cover
    ]
    if not poset.is_antichain(antichain):
        raise PosetError(
            "Kőnig extraction produced a non-antichain of size "
            f"{len(antichain)}; the matching or cover is inconsistent"
        )
    return antichain


def greedy_chain_partition(poset: Poset) -> List[List[Element]]:
    """Partition into chains by repeatedly peeling a longest chain.

    Not guaranteed minimum; used by ablation benchmarks to quantify how
    much the matching-based partition buys the offline algorithm.
    """
    remaining = poset
    chains: List[List[Element]] = []
    while len(remaining) > 0:
        chain = remaining.longest_chain()
        chains.append(chain)
        chain_set = set(chain)
        rest = [e for e in remaining.elements if e not in chain_set]
        remaining = remaining.restricted_to(rest)
    return chains


def antichain_partition(poset: Poset) -> List[List[Element]]:
    """Mirsky's dual: partition into antichains by element height."""
    levels: Dict[Element, int] = {}
    for element in poset.linear_extension():
        below = poset.strictly_below(element)
        levels[element] = (
            1 + max((levels[b] for b in below), default=0) if below else 1
        )
    buckets: Dict[int, List[Element]] = {}
    for element in poset.elements:
        buckets.setdefault(levels[element], []).append(element)
    return [buckets[level] for level in sorted(buckets)]


def is_chain_partition(
    poset: Poset, chains: Iterable[Sequence[Element]]
) -> bool:
    """Validate that ``chains`` partitions the poset into chains."""
    seen: Set[Element] = set()
    for chain in chains:
        items = list(chain)
        for i in range(len(items) - 1):
            if not poset.less(items[i], items[i + 1]):
                return False
        for item in items:
            if item in seen:
                return False
            seen.add(item)
    return seen == set(poset.elements)
