"""Frozen seed poset kernel and ideal BFS: the test oracles for ``src``.

:class:`ReferencePoset` is the pre-bitset dict-of-sets poset (one
Python ``set`` of elements above/below per element, ``O(n³)`` covers)
and :func:`ideals_reference` the pre-kernel layered BFS over frozensets,
both kept verbatim.  The library only takes the bitset
:class:`repro.core.poset.Poset`; these are compared with it, never fed
into it:

* ``tests/properties`` replays random computations through both poset
  kernels and demands identical closures, covers, incomparable pairs,
  widths, chain partitions, realizers and offline stamps, and identical
  ideal sets and counts from both enumerators;
* ``benchmarks/test_bench_offline.py`` and
  ``benchmarks/test_bench_lattice.py`` time the library against them.

:func:`reference_chain_partition` and :func:`reference_offline` build
the Dilworth partition and the Figure 9 stamps from oracle pieces and
public API only: the frozen list-fed Hopcroft–Karp (:class:`ListMatcher`)
over :meth:`ReferencePoset.successor_index`, the per-chain realizer sweep of
:mod:`tests.core.realizer_oracle`, and its rank assembly.

The only deliberate deviation from the seed:
:meth:`ReferencePoset.same_order_as` compares via the public
``strictly_above`` accessor so it can be checked against a bitset-backed
poset, not just another reference one.
"""

from __future__ import annotations

from collections import deque
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Sequence,
    Set,
    Tuple,
)

from repro.core.poset import Poset
from repro.core.vector import VectorTimestamp
from repro.exceptions import NotAPartialOrderError, PosetError
from repro.order.message_order import covering_pairs
from repro.sim.computation import SyncComputation
from tests.core import realizer_oracle

Element = Hashable


class ReferencePoset:
    """The seed ``Poset``: per-element ``set`` closure, O(n³) covers."""

    __slots__ = (
        "_elements",
        "_index",
        "_below",
        "_above",
        "_succ_index",
        "__weakref__",
    )

    def __init__(
        self,
        elements: Iterable[Element],
        relation: Iterable[Tuple[Element, Element]] = (),
    ):
        self._succ_index: "Tuple[Tuple[int, ...], ...] | None" = None
        self._elements: List[Element] = []
        self._index: Dict[Element, int] = {}
        for element in elements:
            if element in self._index:
                raise PosetError(f"duplicate element {element!r}")
            self._index[element] = len(self._elements)
            self._elements.append(element)

        self._below: Dict[Element, Set[Element]] = {
            element: set() for element in self._elements
        }
        self._above: Dict[Element, Set[Element]] = {
            element: set() for element in self._elements
        }

        successors: Dict[Element, Set[Element]] = {
            element: set() for element in self._elements
        }
        for smaller, larger in relation:
            if smaller not in self._index:
                raise PosetError(f"unknown element {smaller!r} in relation")
            if larger not in self._index:
                raise PosetError(f"unknown element {larger!r} in relation")
            if smaller == larger:
                raise NotAPartialOrderError(
                    f"relation is not irreflexive: {smaller!r} < {smaller!r}"
                )
            successors[smaller].add(larger)

        self._close_transitively(successors)

    # ------------------------------------------------------------------
    def _close_transitively(
        self, successors: Dict[Element, Set[Element]]
    ) -> None:
        order = _topological_order(self._elements, successors)
        if order is None:
            raise NotAPartialOrderError("relation contains a cycle")

        strictly_above: Dict[Element, Set[Element]] = {}
        for element in reversed(order):
            above: Set[Element] = set()
            for succ in successors[element]:
                above.add(succ)
                above.update(strictly_above[succ])
            strictly_above[element] = above

        for element, above in strictly_above.items():
            self._above[element] = above
            for other in above:
                self._below[other].add(element)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._elements)

    def __iter__(self) -> Iterator[Element]:
        return iter(self._elements)

    def __contains__(self, element: Element) -> bool:
        return element in self._index

    @property
    def elements(self) -> Tuple[Element, ...]:
        return tuple(self._elements)

    def _require(self, element: Element) -> None:
        if element not in self._index:
            raise PosetError(f"element {element!r} not in poset")

    def less(self, x: Element, y: Element) -> bool:
        self._require(x)
        self._require(y)
        return y in self._above[x]

    def less_equal(self, x: Element, y: Element) -> bool:
        return x == y or self.less(x, y)

    def comparable(self, x: Element, y: Element) -> bool:
        return self.less(x, y) or self.less(y, x)

    def concurrent(self, x: Element, y: Element) -> bool:
        self._require(x)
        self._require(y)
        return x != y and not self.comparable(x, y)

    # ------------------------------------------------------------------
    def strictly_below(self, element: Element) -> FrozenSet[Element]:
        self._require(element)
        return frozenset(self._below[element])

    def strictly_above(self, element: Element) -> FrozenSet[Element]:
        self._require(element)
        return frozenset(self._above[element])

    def successor_index(self) -> Tuple[Tuple[int, ...], ...]:
        cached = self._succ_index
        if cached is None:
            index = self._index
            cached = tuple(
                tuple(sorted(index[y] for y in self._above[x]))
                for x in self._elements
            )
            self._succ_index = cached
        return cached

    def down_set(self, element: Element) -> FrozenSet[Element]:
        return self.strictly_below(element) | {element}

    def up_set(self, element: Element) -> FrozenSet[Element]:
        return self.strictly_above(element) | {element}

    def minimal_elements(self) -> List[Element]:
        return [e for e in self._elements if not self._below[e]]

    def maximal_elements(self) -> List[Element]:
        return [e for e in self._elements if not self._above[e]]

    def cover_pairs(self) -> List[Tuple[Element, Element]]:
        covers: List[Tuple[Element, Element]] = []
        for x in self._elements:
            above_x = self._above[x]
            for y in self._elements:
                if y not in above_x:
                    continue
                if any(z in above_x and y in self._above[z] for z in above_x):
                    continue
                covers.append((x, y))
        return covers

    def relation_pairs(self) -> List[Tuple[Element, Element]]:
        pairs: List[Tuple[Element, Element]] = []
        for x in self._elements:
            for y in self._elements:
                if y in self._above[x]:
                    pairs.append((x, y))
        return pairs

    def incomparable_pairs(self) -> List[Tuple[Element, Element]]:
        pairs: List[Tuple[Element, Element]] = []
        for i, x in enumerate(self._elements):
            for y in self._elements[i + 1 :]:
                if not self.comparable(x, y):
                    pairs.append((x, y))
        return pairs

    def restricted_to(self, subset: Iterable[Element]) -> "ReferencePoset":
        keep = list(dict.fromkeys(subset))
        keep_set = set(keep)
        for element in keep:
            self._require(element)
        pairs = [
            (x, y)
            for x in keep
            for y in self._above[x]
            if y in keep_set
        ]
        return ReferencePoset(keep, pairs)

    def dual(self) -> "ReferencePoset":
        pairs = [(y, x) for (x, y) in self.relation_pairs()]
        return ReferencePoset(self._elements, pairs)

    # ------------------------------------------------------------------
    def is_chain(self, elements: Sequence[Element]) -> bool:
        items = list(dict.fromkeys(elements))
        for element in items:
            self._require(element)
        if len(items) <= 1:
            return True
        items.sort(key=lambda e: len(self._below[e]))
        return all(
            self.less(items[i], items[i + 1]) for i in range(len(items) - 1)
        )

    def is_antichain(self, elements: Sequence[Element]) -> bool:
        items = list(elements)
        return all(
            not self.comparable(items[i], items[j]) and items[i] != items[j]
            for i in range(len(items))
            for j in range(i + 1, len(items))
        )

    def longest_chain(self) -> List[Element]:
        best_to: Dict[Element, List[Element]] = {}
        for element in self.linear_extension():
            best_prefix: List[Element] = []
            for lower in self._below[element]:
                candidate = best_to[lower]
                if len(candidate) > len(best_prefix):
                    best_prefix = candidate
            best_to[element] = best_prefix + [element]
        if not best_to:
            return []
        return max(best_to.values(), key=len)

    def height(self) -> int:
        return len(self.longest_chain())

    def linear_extension(self) -> List[Element]:
        successors = {
            e: set(self._cover_successors(e)) for e in self._elements
        }
        order = _topological_order(self._elements, successors)
        if order is None:  # pragma: no cover - construction is acyclic
            raise PosetError("closed relation unexpectedly cyclic")
        return order

    def _cover_successors(self, element: Element) -> List[Element]:
        above = self._above[element]
        return [
            y
            for y in above
            if not any(z in above and y in self._above[z] for z in above)
        ]

    # ------------------------------------------------------------------
    def same_order_as(self, other) -> bool:
        if set(self._elements) != set(other.elements):
            return False
        return all(
            frozenset(self._above[e]) == other.strictly_above(e)
            for e in self._elements
        )

    def __repr__(self) -> str:
        return (
            f"ReferencePoset({len(self._elements)} elements, "
            f"{len(self.relation_pairs())} ordered pairs)"
        )


def _topological_order(
    elements: Sequence[Element],
    successors: Dict[Element, Set[Element]],
) -> "List[Element] | None":
    """Kahn's algorithm; returns ``None`` when the relation has a cycle."""
    index = {element: position for position, element in enumerate(elements)}
    indegree: Dict[Element, int] = {e: 0 for e in elements}
    for element in elements:
        for succ in successors.get(element, ()):
            indegree[succ] += 1

    ready = [e for e in elements if indegree[e] == 0]
    order: List[Element] = []
    position = 0
    while position < len(ready):
        current = ready[position]
        position += 1
        order.append(current)
        for succ in sorted(successors.get(current, ()), key=index.__getitem__):
            indegree[succ] -= 1
            if indegree[succ] == 0:
                ready.append(succ)
    if len(order) != len(elements):
        return None
    return order


def ideals_reference(
    poset: Poset, limit: int = 100_000
) -> Iterator[FrozenSet[Element]]:
    """The pre-kernel layered BFS, kept as the executable specification.

    An ideal of size ``k + 1`` is an ideal of size ``k`` plus one
    element minimal in the complement; each layer is generated from
    the previous with per-element frozenset closures and de-duplicated
    by hashing — exponential with a large constant, which is exactly
    what ``BENCH_lattice.json`` measures the kernel against.

    Within a layer the iteration order is unspecified (the historical
    ``sorted(map(repr, ...))`` tiebreak was a determinism hack, not a
    contract); the *canonical* order of the library is the kernel's
    chain-prefix order as re-layered by :func:`all_ideals`.  Compare
    the two as sets, the way the property suite does.
    """
    current: Set[FrozenSet[Element]] = {frozenset()}
    produced = 0
    while current:
        next_layer: Set[FrozenSet[Element]] = set()
        for ideal in current:
            produced += 1
            if produced > limit:
                raise PosetError(
                    f"poset has more than {limit} ideals; raise the limit"
                )
            yield ideal
            for element in poset.elements:
                if element in ideal:
                    continue
                if poset.strictly_below(element) <= ideal:
                    next_layer.add(ideal | {element})
        current = next_layer


#: Sentinel index for an unmatched vertex.
_FREE = -1
#: BFS layer value meaning "not layered this phase".
_UNLAYERED = -1
#: Layer value of vertices retired as dead ends this phase.
_RETIRED = -3


class ListMatcher:
    """The list-fed Hopcroft–Karp the library shipped before it went
    bitmask-only, kept verbatim: per-edge scans of ``adj[u]`` (right
    indices, tried in list order) and an explicit-stack DFS."""

    def __init__(self, adj: Sequence[Sequence[int]], right_count: int):
        self._adj = [list(row) for row in adj]
        self._match_left: List[int] = [_FREE] * len(self._adj)
        self._match_right: List[int] = [_FREE] * right_count

    def solve(self) -> List[int]:
        """Matched right index per left index (``-1`` = unmatched)."""
        while True:
            layers = self._bfs_layers()
            if layers is None:
                break
            augmented = 0
            for u in range(len(self._adj)):
                if self._match_left[u] == _FREE:
                    if self._dfs_augment(u, layers):
                        augmented += 1
            if augmented == 0:
                break
        return list(self._match_left)

    def _bfs_layers(self) -> "List[int] | None":
        match_left = self._match_left
        match_right = self._match_right
        layers = [_UNLAYERED] * len(self._adj)
        queue: deque = deque()
        for u in range(len(self._adj)):
            if match_left[u] == _FREE:
                layers[u] = 0
                queue.append(u)
        found_free_right = False
        while queue:
            u = queue.popleft()
            next_layer = layers[u] + 1
            for v in self._adj[u]:
                w = match_right[v]
                if w == _FREE:
                    found_free_right = True
                elif layers[w] == _UNLAYERED:
                    layers[w] = next_layer
                    queue.append(w)
        return layers if found_free_right else None

    def _dfs_augment(self, root: int, layers: List[int]) -> bool:
        adj = self._adj
        match_left = self._match_left
        match_right = self._match_right
        stack: List[List] = [[root, iter(adj[root]), _FREE]]
        while stack:
            frame = stack[-1]
            u = frame[0]
            next_layer = layers[u] + 1
            descended = False
            for v in frame[1]:
                w = match_right[v]
                if w == _FREE:
                    frame[2] = v
                    for fu, _edges, fv in stack:
                        match_left[fu] = fv
                        match_right[fv] = fu
                    return True
                if layers[w] == next_layer:
                    frame[2] = v
                    stack.append([w, iter(adj[w]), _FREE])
                    descended = True
                    break
            if not descended:
                layers[u] = _RETIRED
                stack.pop()
        return False


def reference_chain_partition(ref: ReferencePoset) -> List[List[Element]]:
    """A minimum chain partition from the list-fed :class:`ListMatcher`.

    The matcher scans :meth:`ReferencePoset.successor_index` (ascending,
    so candidates are tried in the order the library's bitmask matcher
    tries them); the chains follow the matched edges from every
    unmatched right vertex, the walk of
    :func:`repro.core.chains.minimum_chain_partition`.
    """
    elements = list(ref.elements)
    match_left = ListMatcher(ref.successor_index(), len(elements)).solve()
    has_predecessor = {v for v in match_left if v != _FREE}
    chains: List[List[Element]] = []
    for i, element in enumerate(elements):
        if i in has_predecessor:
            continue
        chain = [element]
        current = i
        while match_left[current] != _FREE:
            current = match_left[current]
            chain.append(elements[current])
        chains.append(chain)
    return chains


def reference_offline(
    computation: SyncComputation,
) -> Tuple[List[List[Element]], Dict[Element, VectorTimestamp]]:
    """The Figure 9 pipeline on oracle pieces: ``(realizer, stamps)``.

    ``ReferencePoset`` over the covering pairs, then
    :func:`reference_chain_partition`, the frozen per-chain realizer
    sweep and its per-message rank assembly.  For a non-empty
    computation the realizer has one extension per chain, so its length
    is the offline vector size.
    """
    poset = ReferencePoset(computation.messages, covering_pairs(computation))
    chains = reference_chain_partition(poset)
    realizer = realizer_oracle.realizer_from_chain_partition(poset, chains)
    return realizer, realizer_oracle.rank_vectors(poset, realizer)
