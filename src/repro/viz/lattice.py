"""DOT rendering of the lattice of consistent global states.

Each node is an ideal of the message poset (a consistent cut), labelled
by its frontier antichain; edges connect cuts that differ by exactly one
message.  Feasible for small computations only — the lattice can be
exponential — so the renderer enforces a node limit.

Both entry points ride the chain-indexed bitset kernel
(:mod:`repro.core.lattice_kernel`): nodes are ideal masks, frontiers
are one AND per member against the above-rows, and cover edges are
addability tests (``below[e] & ~mask == 0``) instead of frozenset
closures.
"""

from __future__ import annotations

from typing import Dict

from repro.core import lattice_kernel
from repro.core.ideals import ideal_count
from repro.core.lattice_kernel import popcount
from repro.core.poset import Poset, iter_bits


def ideal_lattice_to_dot(
    poset: Poset, name: str = "global_states", node_limit: int = 200
) -> str:
    """Render the ideal lattice as a DOT digraph (bottom to top).

    Nodes are listed smallest-first by cardinality, edges in node order.
    """
    masks = list(
        lattice_kernel.iterate_ideal_masks(poset, limit=node_limit)
    )
    masks.sort(key=popcount)
    index_of = {mask: i for i, mask in enumerate(masks)}

    above = poset.above_bit_rows()
    below = poset.below_bit_rows()
    elements = poset.elements
    full = (1 << len(elements)) - 1

    lines = [f"digraph \"{name}\" {{", "  rankdir=BT;"]
    for index, mask in enumerate(masks):
        frontier = [
            str(elements[b])
            for b in iter_bits(mask)
            if not above[b] & mask
        ]
        label = ",".join(frontier) if frontier else "{}"
        lines.append(f"  c{index} [label=\"{label}\"];")
    for mask in masks:
        comp = full & ~mask
        m = comp
        while m:
            low = m & -m
            m ^= low
            e = low.bit_length() - 1
            if below[e] & comp:
                continue
            successor = mask | low
            target = index_of.get(successor)
            if target is not None:
                lines.append(f"  c{index_of[mask]} -> c{target};")
    lines.append("}")
    return "\n".join(lines)


def lattice_statistics(poset: Poset, limit: int = 100_000) -> Dict[str, int]:
    """Node count and height of the global-state lattice.

    The height is the message count plus one (one message joins the cut
    per step); the node count comes from
    :func:`repro.core.ideals.ideal_count`, which counts through the
    kernel without materializing a single state.
    """
    return {
        "states": ideal_count(poset, limit=limit),
        "height": len(poset) + 1,
    }
