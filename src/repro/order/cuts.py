"""Consistent cuts of synchronous computations.

A *cut* keeps a prefix of every process's message projection.  Because a
synchronous message is one atomic event on two timelines, a cut is
**consistent** exactly when (a) both participants agree on whether each
message is kept, and (b) the kept set is a down-set of ``(M, ↦)``.
Consistent cuts are in bijection with the ideals of the message poset
(:mod:`repro.core.ideals`).

The practical constructor is :func:`snapshot_at`: with characterizing
vector timestamps, ``{m : v(m) ≤ frontier}`` is always a consistent cut
— the vector-frontier snapshot used by checkpointing.  Recovery's
surviving set (:mod:`repro.apps.recovery`) is also a consistent cut,
which the integration tests assert.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Tuple

from repro.clocks.base import TimestampAssignment
from repro.core.poset import Poset, iter_bits
from repro.core.vector import VectorTimestamp
from repro.exceptions import SimulationError
from repro.sim.computation import Process, SyncComputation, SyncMessage

#: Per-computation projection indices, cached weakly: for each process,
#: its projection as a ``{message: position}`` map plus the projection's
#: global message indices in order.  Computed once per computation so
#: membership tests are O(1) dict probes instead of list slices with a
#: linear ``in`` per message (the old ``Cut._keeps`` hot spot).
_PROJECTION_CACHE: "weakref.WeakKeyDictionary[SyncComputation, Dict[Process, Tuple[Dict[SyncMessage, int], List[int]]]]" = (  # noqa: E501
    weakref.WeakKeyDictionary()
)


def _projection_index(
    computation: SyncComputation,
) -> Dict[Process, Tuple[Dict[SyncMessage, int], List[int]]]:
    cached = _PROJECTION_CACHE.get(computation)
    if cached is None:
        cached = {}
        for process in computation.processes:
            projection = computation.process_messages(process)
            cached[process] = (
                {message: k for k, message in enumerate(projection)},
                [message.index for message in projection],
            )
        _PROJECTION_CACHE[computation] = cached
    return cached


@dataclass(frozen=True)
class Cut:
    """Per-process prefix lengths (how many messages each process keeps)."""

    kept: Mapping[Process, int]

    def messages(self, computation: SyncComputation) -> FrozenSet[SyncMessage]:
        """Messages kept by *both* of their participants."""
        all_messages = computation.messages
        return frozenset(
            all_messages[b]
            for b in iter_bits(self.message_mask(computation))
        )

    def message_mask(self, computation: SyncComputation) -> int:
        """The kept set as a bitmask over global message indices.

        A message survives exactly when *no* participant drops it, so
        the mask is the complement of the union of every process's
        dropped suffix — O(messages) bit sets, and directly usable as
        an ideal mask against ``message_poset(computation)`` (whose
        insertion positions are the global indices).
        """
        index = _projection_index(computation)
        excluded = 0
        for process, (_, global_indices) in index.items():
            keep = self.kept.get(process, 0)
            for gi in global_indices[keep:]:
                excluded |= 1 << gi
        return ((1 << len(computation.messages)) - 1) & ~excluded

    def _keeps(
        self,
        computation: SyncComputation,
        process: Process,
        message: SyncMessage,
    ) -> bool:
        positions, _ = _projection_index(computation)[process]
        position = positions.get(message)
        return (
            position is not None
            and position < self.kept.get(process, 0)
        )

    def validate_against(self, computation: SyncComputation) -> None:
        for process, keep in self.kept.items():
            projection = computation.process_messages(process)
            if not 0 <= keep <= len(projection):
                raise SimulationError(
                    f"cut keeps {keep} messages of {process!r}, which has "
                    f"only {len(projection)}"
                )


def cut_from_messages(
    computation: SyncComputation, messages: FrozenSet[SyncMessage]
) -> Cut:
    """The per-process prefix lengths matching a message set.

    Raises :class:`SimulationError` when the set is not prefix-shaped on
    some process (such a set cannot be any cut).
    """
    kept: Dict[Process, int] = {}
    for process in computation.processes:
        projection = computation.process_messages(process)
        count = 0
        for message in projection:
            if message in messages:
                count += 1
            else:
                break
        # Everything after the first excluded message must be excluded.
        if any(m in messages for m in projection[count:]):
            raise SimulationError(
                f"message set is not a prefix on {process!r}"
            )
        kept[process] = count
    return Cut(kept)


def is_consistent(
    computation: SyncComputation,
    cut: Cut,
    poset: Poset = None,
) -> bool:
    """Check the two consistency conditions of the module docstring."""
    from repro.core.lattice_kernel import is_ideal_mask, mask_of
    from repro.order.message_order import message_poset

    cut.validate_against(computation)
    if poset is None:
        poset = message_poset(computation)

    # (a) participants agree: a kept message must be within *both*
    # participants' prefixes — each process's kept prefix, as a mask of
    # global indices, must be contained in the agreed mask.
    agreed_mask = cut.message_mask(computation)
    index = _projection_index(computation)
    for process, (_, global_indices) in index.items():
        keep = cut.kept.get(process, 0)
        prefix = 0
        for gi in global_indices[:keep]:
            prefix |= 1 << gi
        if prefix & ~agreed_mask:
            return False

    # (b) down-set under ↦: one closed-row AND per kept message.  The
    # agreed mask is over global message indices, which are the poset's
    # insertion positions for ``message_poset``; any other poset gets
    # the kept set re-masked over its own positions.
    mask = agreed_mask
    if poset.elements != computation.messages:
        mask = mask_of(poset, cut.messages(computation))
    return is_ideal_mask(poset, mask)


def snapshot_at(
    computation: SyncComputation,
    assignment: TimestampAssignment,
    frontier: VectorTimestamp,
) -> Cut:
    """The consistent cut ``{m : v(m) <= frontier}``.

    With characterizing timestamps this set is a down-set (if
    ``m' ↦ m`` and ``v(m) <= frontier`` then ``v(m') < v(m)``), and the
    per-process monotonicity of timestamps makes it prefix-shaped — so
    the result is always consistent, which the property tests verify.
    """
    included = frozenset(
        message
        for message in computation.messages
        if assignment.of(message) <= frontier
    )
    return cut_from_messages(computation, included)


def subcomputation(
    computation: SyncComputation, cut: Cut
) -> SyncComputation:
    """The computation restricted to a consistent cut's messages.

    Because a consistent cut is causally closed and prefix-shaped, the
    kept messages — re-indexed in their original execution order — form
    a valid synchronous computation over the same topology whose message
    poset is exactly the restriction of the original's.  This is the
    "replay from checkpoint" artefact: recovery restarts from the cut's
    sub-computation.
    """
    kept = cut.messages(computation)
    ordered = [m for m in computation.messages if m in kept]
    rebuilt = [
        SyncMessage(
            index=position,
            sender=message.sender,
            receiver=message.receiver,
            name=message.name,
        )
        for position, message in enumerate(ordered)
    ]
    return SyncComputation(computation.topology, rebuilt)


def cut_of_everything(computation: SyncComputation) -> Cut:
    """The full cut (every message kept)."""
    return Cut(
        {
            process: len(computation.process_messages(process))
            for process in computation.processes
        }
    )
