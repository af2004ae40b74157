"""The paper's offline algorithm (Figure 9, Section 4).

Given the *completed* computation, the offline algorithm:

1. builds the message poset ``(M, ↦)`` and takes its width ``w``
   (Theorem 8 proves ``w <= floor(N/2)``, because each message occupies
   two processes and ``floor(N/2)+1`` messages must share one);
2. constructs a chain realizer ``{L_1, .., L_w}`` with
   ``∩ L_i = (M, ↦)`` (we use the constructive chain-forcing lemma over
   a minimum chain partition — see :mod:`repro.core.linear_extensions`);
3. stamps each message ``m`` with ``V_m[i] =`` the number of messages
   before ``m`` in ``L_i``.

The resulting vectors characterize ``↦`` with ``w`` components, and for
comparable messages *every* component moves, so the precedence test is
the same strict vector order as everywhere else.

Every phase above runs on the bitset poset kernel
(:mod:`repro.core.poset`): the closure is a word-parallel OR-sweep, the
Dilworth matching consumes the closed bitmask rows directly, and the
realizer lists the cover successors once per poset and runs one FIFO
sweep per chain over them — the phase costs are measured by the
``offline.*`` spans and snapshotted by
``benchmarks/test_bench_offline.py`` into ``BENCH_offline.json``,
against the seed-kernel pipeline kept as a test oracle in
``tests/core/poset_oracle.py``.
Callers that need the width, partition, and timestamps of the *same*
computation should build the poset once and use
:meth:`OfflineRealizerClock.timestamp_poset` (see the usage cookbook) so
the per-poset matcher and cover caches are shared across the calls.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.clocks.base import MessageTimestamper, TimestampAssignment
from repro.core.chains import (
    greedy_chain_partition,
    minimum_chain_partition,
    width,
)
from repro.core.linear_extensions import (
    ranks_in_extension,
    realizer_from_chain_partition,
)
from repro.core.poset import Poset
from repro.core.vector import VectorTimestamp
from repro.obs import audit as _audit
from repro.obs import instrument as _obs
from repro.order.message_order import message_poset
from repro.sim.computation import SyncComputation, SyncMessage


class OfflineRealizerClock(MessageTimestamper[VectorTimestamp]):
    """Figure 9: width-sized vectors from a chain realizer.

    The clock is stateless until :meth:`timestamp_computation` runs;
    afterwards :attr:`timestamp_size`, :attr:`realizer` and
    :attr:`chain_partition` describe the last computation processed.
    """

    characterizes_order = True

    def __init__(self, chain_strategy: str = "matching", workers: int = 1):
        if chain_strategy not in ("matching", "greedy"):
            raise ValueError(
                f"unknown chain_strategy {chain_strategy!r}; "
                "expected 'matching' or 'greedy'"
            )
        #: "matching" uses the Dilworth-optimal partition (vector size =
        #: width); "greedy" peels longest chains — the DESIGN.md §6
        #: ablation, possibly producing more (= larger vectors).
        self._chain_strategy = chain_strategy
        #: ``workers > 1`` (or 0 = auto) shards the closure and Dilworth
        #: matching through :mod:`repro.core.parallel`; output stays
        #: byte-identical and the serial path runs whenever the
        #: computation has no causally independent row blocks.
        self._workers = workers
        self._last_width: Optional[int] = None
        self._last_realizer: Optional[List[List[SyncMessage]]] = None
        self._last_chains: Optional[List[List[SyncMessage]]] = None

    @property
    def timestamp_size(self) -> int:
        if self._last_width is None:
            raise RuntimeError(
                "timestamp_size is known only after timestamp_computation"
            )
        return self._last_width

    @property
    def realizer(self) -> List[List[SyncMessage]]:
        if self._last_realizer is None:
            raise RuntimeError(
                "realizer is known only after timestamp_computation"
            )
        return [list(extension) for extension in self._last_realizer]

    @property
    def chain_partition(self) -> List[List[SyncMessage]]:
        if self._last_chains is None:
            raise RuntimeError(
                "chain partition is known only after timestamp_computation"
            )
        return [list(chain) for chain in self._last_chains]

    def timestamp_computation(
        self,
        computation: SyncComputation,
        workers: Optional[int] = None,
    ) -> TimestampAssignment:
        """Run the Figure 9 pipeline, optionally sharding phases 1–2.

        ``workers`` (default: the constructor's setting) > 1 or 0 routes
        the poset closure and — under the ``"matching"`` strategy — the
        Dilworth chain partition through :mod:`repro.core.parallel`,
        which splits the bitmask rows into causally independent
        contiguous blocks.  Output is byte-identical to the serial
        pipeline; when no block boundary exists (every prefix is tied
        to its suffix by some cover edge) the serial path runs.
        """
        if workers is None:
            workers = self._workers
        chains: Optional[List[List[SyncMessage]]] = None
        if workers is not None and workers != 1:
            from repro.core.parallel import parallel_poset_and_chains

            with _obs.span(
                "offline.message_poset",
                messages=len(computation),
                workers=workers,
            ):
                sharded = parallel_poset_and_chains(
                    computation,
                    workers=workers,
                    want_chains=self._chain_strategy == "matching",
                )
                if sharded is not None:
                    poset, chains, _shards = sharded
                else:
                    poset = message_poset(computation)
        else:
            with _obs.span(
                "offline.message_poset", messages=len(computation)
            ):
                poset = message_poset(computation)
        return self.timestamp_poset(computation, poset, chains=chains)

    def timestamp_poset(
        self,
        computation: SyncComputation,
        poset: Poset,
        chains: Optional[List[List[SyncMessage]]] = None,
    ) -> TimestampAssignment:
        """Timestamp against a caller-supplied message poset.

        Exposed so benchmarks can reuse one ground-truth poset for both
        the oracle check and the offline stamping.  ``chains`` may carry
        a precomputed minimum chain partition of ``poset`` (the sharded
        pipeline passes the merged per-block partition); when ``None``
        the partition is computed here per the chain strategy.
        """
        if len(poset) == 0:
            self._last_width = 0
            self._last_realizer = []
            self._last_chains = []
            return TimestampAssignment(computation, {})
        with _obs.span(
            "offline.chain_partition",
            strategy=self._chain_strategy,
            messages=len(poset),
            precomputed=chains is not None,
        ):
            if chains is not None:
                pass
            elif self._chain_strategy == "matching":
                chains = minimum_chain_partition(poset)
            else:
                chains = greedy_chain_partition(poset)
        with _obs.span("offline.realizer", chains=len(chains)):
            realizer = realizer_from_chain_partition(poset, chains)
        self._last_chains = chains
        self._last_realizer = realizer
        self._last_width = len(realizer)

        with _obs.span("offline.rank_vectors", width=len(realizer)):
            elements = poset.elements
            columns = [
                list(map(ranks_in_extension(ext).__getitem__, elements))
                for ext in realizer
            ]
            timestamps: Dict[SyncMessage, VectorTimestamp] = dict(
                zip(elements, map(VectorTimestamp, zip(*columns)))
            )
        m = _obs.metrics
        if m is not None:
            m.offline_width.set(len(realizer))
            m.theorem8_bound.set(
                len(computation.active_processes()) // 2
            )
            m.messages_timestamped.inc(len(poset))
        aud = _audit.auditor
        if aud is not None:
            # Read-only cross-check against the same poset we stamped
            # from; never mutates the assignment.
            aud.audit_offline(
                computation, poset, timestamps, len(realizer)
            )
        return TimestampAssignment(computation, timestamps)

    def precedes(self, ts1: VectorTimestamp, ts2: VectorTimestamp) -> bool:
        return ts1 < ts2


def offline_vector_size(computation: SyncComputation) -> int:
    """The number of components Figure 9 uses: ``width(M, ↦)``."""
    poset = message_poset(computation)
    if len(poset) == 0:
        return 0
    return width(poset)


def theorem8_bound(computation: SyncComputation) -> int:
    """``floor(N/2)`` over the *active* processes of the computation.

    Theorem 8's counting argument involves only processes that carry
    messages, so the bound is stated on the active population.
    """
    return len(computation.active_processes()) // 2
