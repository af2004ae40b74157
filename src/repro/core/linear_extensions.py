"""Linear extensions and chain realizers.

The offline algorithm (Figure 9 of the paper) timestamps messages with
their ranks in a family of linear extensions whose intersection is the
message order — a *realizer*.  The paper obtains a realizer of size
``width(P)`` from Dilworth's theorem; this module provides the
constructive version:

**Chain-forcing lemma.**  For a chain ``C`` of poset ``P``, the relation
``P ∪ {(x, c) : c ∈ C, x ‖ c}`` is acyclic.  *Proof sketch:* any cycle
would alternate order-paths of ``P`` with forced edges into ``C``, and
the index along ``C`` strictly increases at every forced edge (if
``c_i ≤ x`` and the next forced edge is ``x → c_j`` then ``x ‖ c_j``
forbids ``c_j ≤ x``, hence ``j > i``), so the cycle cannot close.  A
topological sort of the augmented relation is therefore a linear
extension of ``P`` in which every element of ``C`` sits **above**
everything incomparable to it.

Given a chain partition ``C_1 .. C_w``, the family of such forced
extensions is a realizer: an incomparable pair ``{x, y}`` with
``x ∈ C_i`` and ``y ∈ C_j`` is reversed between ``L_i`` (where ``x`` is
above ``y``) and ``L_j`` (where ``y`` is above ``x``).
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterator, List, Sequence, Set, Tuple

from repro.core.chains import minimum_chain_partition
from repro.core.poset import Poset, iter_bits
from repro.exceptions import NotALinearExtensionError, PosetError

Element = Hashable


def is_linear_extension(poset: Poset, sequence: Sequence[Element]) -> bool:
    """True when ``sequence`` lists every element once, respecting the order."""
    items = list(sequence)
    if len(items) != len(poset) or set(items) != set(poset.elements):
        return False
    position = {element: i for i, element in enumerate(items)}
    return all(
        position[x] < position[y] for (x, y) in poset.relation_pairs()
    )


def check_linear_extension(poset: Poset, sequence: Sequence[Element]) -> None:
    """Raise :class:`NotALinearExtensionError` when the check fails."""
    if not is_linear_extension(poset, sequence):
        raise NotALinearExtensionError(
            f"sequence of length {len(list(sequence))} is not a linear "
            f"extension of {poset!r}"
        )


def all_linear_extensions(poset: Poset) -> Iterator[List[Element]]:
    """Yield every linear extension (exponential; small posets only).

    Used by the brute-force dimension computation in
    :mod:`repro.core.dimension` and by tests as an oracle.
    """
    elements = list(poset.elements)
    below: Dict[Element, Set[Element]] = {
        e: set(poset.strictly_below(e)) for e in elements
    }

    def _extend(prefix: List[Element], remaining: Set[Element]):
        if not remaining:
            yield list(prefix)
            return
        placed = set(prefix)
        for element in elements:
            if element in remaining and below[element] <= placed:
                prefix.append(element)
                remaining.remove(element)
                yield from _extend(prefix, remaining)
                remaining.add(element)
                prefix.pop()

    yield from _extend([], set(elements))


def count_linear_extensions(poset: Poset, limit: int = 10_000_000) -> int:
    """Count linear extensions (stops early at ``limit``)."""
    count = 0
    for _ in all_linear_extensions(poset):
        count += 1
        if count >= limit:
            return count
    return count


def _forced_extensions(
    poset: Poset, chains: Sequence[Sequence[Element]]
) -> List[List[Element]]:
    """The chain-forced extension of each chain, from shared tables.

    What depends on the poset alone is built once: the element index,
    the successor lists, their in-degrees and the sources.  Bitset
    posets list their cover rows, other posets their full successor
    index; a FIFO Kahn sort emits the same order over either, since an
    element's last-placed predecessor is always one of its covers and
    newly-ready elements queue in ascending index order.  Each chain
    then costs one in-degree copy and one sweep: ``O(w * (n + covers))``
    for the whole family.

    A chain element whose in-degree reaches zero is held back and
    released when the queue runs dry, which is exactly when the
    augmented relation allows it: chain element ``c`` must follow every
    element not above it.  While the queue holds some ``x``, ``x`` is
    not above ``c`` (``c`` is unplaced), so ``c`` must wait.  Once the
    queue is empty, every other unplaced element has an unplaced
    predecessor, so walking down from it ends at ``c``: it is above
    ``c``, and everything not above ``c`` is placed.  The chain is
    totally ordered, so at most one element is held at a time, and the
    output is a topological sort of the augmented relation without its
    forced edges ever being built.
    """
    elements = poset.elements
    n = len(elements)
    index = dict(zip(elements, range(n)))
    cover_rows = getattr(poset, "cover_bit_rows", None)
    if cover_rows is not None:
        successors: Sequence[Sequence[int]] = [
            list(iter_bits(row)) for row in cover_rows()
        ]
    else:
        successors = poset.successor_index()
    indegree0 = [0] * n
    for row in successors:
        for j in row:
            indegree0[j] += 1
    sources = [i for i in range(n) if not indegree0[i]]

    extensions = []
    for chain in chains:
        items = list(chain)
        forced = set()
        for element in items:
            i = index.get(element, -1)
            if i < 0:
                raise PosetError(f"chain element {element!r} not in poset")
            forced.add(i)
        if not poset.is_chain(items):
            raise PosetError("chain_forced_extension requires a chain")

        indegree = indegree0[:]
        held = -1
        queue = []
        for i in sources:
            if i in forced:
                held = i
            else:
                queue.append(i)
        # ``queue`` is the FIFO and grows while it is iterated; each
        # drained run is the next stretch of the output.
        order: List[int] = []
        while True:
            for current in queue:
                for j in successors[current]:
                    left = indegree[j] - 1
                    indegree[j] = left
                    if not left:
                        if j in forced:
                            held = j
                        else:
                            queue.append(j)
            order += queue
            if held < 0:
                break
            queue = [held]
            held = -1
        if len(order) != n:  # pragma: no cover - the chain-forcing lemma
            raise PosetError("chain-forced relation unexpectedly cyclic")
        extensions.append(list(map(elements.__getitem__, order)))
    return extensions


def chain_forced_extension(
    poset: Poset, chain: Sequence[Element]
) -> List[Element]:
    """A linear extension placing every element of ``chain`` above all
    elements incomparable to it (the chain-forcing lemma above).

    ``chain`` must be a chain of ``poset``; it may be given in any order.
    """
    return _forced_extensions(poset, [chain])[0]


def realizer_from_chain_partition(
    poset: Poset, chains: Sequence[Sequence[Element]]
) -> List[List[Element]]:
    """A realizer with one forced extension per chain of the partition.

    When the partition has a single chain the poset is totally ordered
    and the single extension *is* the order, so the family is still a
    realizer.  The per-poset tables are built once for all the chains.
    """
    if not chains:
        if len(poset) == 0:
            return [[]]
        raise PosetError("empty chain family for a non-empty poset")
    return _forced_extensions(poset, chains)


def minimum_width_realizer(poset: Poset) -> List[List[Element]]:
    """Realizer of size ``width(poset)`` via minimum chain partition.

    This is the constructive engine behind the offline algorithm: the
    returned family has exactly ``width(P)`` extensions, matching the
    ``dim(P) <= width(P)`` bound the paper invokes from Dilworth's
    theorem.
    """
    if len(poset) == 0:
        return [[]]
    chains = minimum_chain_partition(poset)
    return realizer_from_chain_partition(poset, chains)


def intersection_of_extensions(
    elements: Sequence[Element], extensions: Sequence[Sequence[Element]]
) -> Poset:
    """The poset whose order is the intersection of the given total orders."""
    if not extensions:
        raise PosetError("need at least one linear extension")
    positions = []
    for extension in extensions:
        if set(extension) != set(elements) or len(extension) != len(
            list(elements)
        ):
            raise NotALinearExtensionError(
                "extension does not list exactly the given elements"
            )
        positions.append({e: i for i, e in enumerate(extension)})

    pairs: List[Tuple[Element, Element]] = []
    items = list(elements)
    for x in items:
        for y in items:
            if x is y or x == y:
                continue
            if all(pos[x] < pos[y] for pos in positions):
                pairs.append((x, y))
    return Poset(items, pairs)


def is_realizer(
    poset: Poset, extensions: Sequence[Sequence[Element]]
) -> bool:
    """True when the extensions are all linear extensions of ``poset``
    and their intersection equals the order of ``poset``."""
    for extension in extensions:
        if not is_linear_extension(poset, extension):
            return False
    rebuilt = intersection_of_extensions(list(poset.elements), extensions)
    return rebuilt.same_order_as(poset)


def ranks_in_extension(extension: Sequence[Element]) -> Dict[Element, int]:
    """Map each element to the number of elements before it (its rank).

    Step (3) of the offline algorithm: "``V_m[i]`` is the number of
    elements less than ``m`` in ``L_i``".
    """
    return dict(zip(extension, range(len(extension))))
