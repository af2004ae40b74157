"""Scaling guards: moderately large inputs must stay fast and correct.

These are correctness-at-scale tests, not micro-benchmarks (those live
in ``benchmarks/``): they exercise code paths whose asymptotics matter —
the O(|V||E|) decomposition, long-chain matchings (recursion-depth
guard), and thousand-message clock runs — at sizes big enough to break a
quadratic-in-the-wrong-place implementation within the suite's budget.
"""

from __future__ import annotations

import random

from repro.clocks.fm import FMMessageClock
from repro.clocks.offline import OfflineRealizerClock
from repro.clocks.online import OnlineEdgeClock
from repro.core.chains import minimum_chain_partition, width
from repro.core.linear_extensions import realizer_from_chain_partition
from repro.core.poset import Poset
from repro.graphs.decomposition import decompose, paper_decomposition_algorithm
from repro.graphs.generators import (
    client_server_topology,
    path_topology,
    random_connected,
    tree_topology,
)
from repro.order.message_order import message_poset
from repro.sim.computation import InternalEvent
from repro.sim.runtime import SynchronousTransport
from repro.sim.workload import (
    multi_cluster_computation,
    random_computation,
    sequential_chain_computation,
)

#: The per-poset accessors a realizer sweep could fetch its tables from.
POSET_TABLE_ACCESSORS = (
    "above_bit_rows",
    "cover_bit_rows",
    "_cover_rows",
)


class TestLargeGraphs:
    def test_decomposition_on_200_vertices(self):
        graph = random_connected(200, 150, random.Random(1))
        decomposition, _ = paper_decomposition_algorithm(graph)
        assert 1 <= decomposition.size <= 198

    def test_big_tree_constant_groups(self):
        graph = tree_topology(5, 60)  # 305 processes
        decomposition, _ = paper_decomposition_algorithm(graph)
        assert decomposition.size == 5

    def test_big_client_server(self):
        graph = client_server_topology(4, 300)
        assert decompose(graph).size == 4


class TestLargeComputations:
    def test_online_thousand_messages(self):
        topology = client_server_topology(3, 30)
        computation = random_computation(topology, 1000, random.Random(2))
        clock = OnlineEdgeClock(decompose(topology))
        assignment = clock.timestamp_computation(computation)
        # Spot-check the encoding instead of the O(n^2) full audit.
        poset = message_poset(computation)
        rng = random.Random(3)
        for _ in range(300):
            m1, m2 = rng.sample(computation.messages, 2)
            assert (assignment.of(m1) < assignment.of(m2)) == poset.less(
                m1, m2
            )

    def test_fm_thousand_messages(self):
        topology = client_server_topology(3, 30)
        computation = random_computation(topology, 1000, random.Random(4))
        clock = FMMessageClock.for_topology(topology)
        assignment = clock.timestamp_computation(computation)
        assert len(assignment) == 1000

    def test_long_chain_matching_depth(self):
        """A 1200-message chain stresses the Hopcroft–Karp recursion
        guard (the matching follows the chain end to end)."""
        topology = client_server_topology(2, 4)
        computation = sequential_chain_computation(
            topology, 1200, random.Random(5)
        )
        poset = message_poset(computation)
        assert width(poset) == 1
        chains = minimum_chain_partition(poset)
        assert len(chains) == 1
        assert len(chains[0]) == 1200

    def test_offline_medium_workload(self):
        topology = client_server_topology(3, 9)
        computation = random_computation(topology, 400, random.Random(6))
        clock = OfflineRealizerClock()
        assignment = clock.timestamp_computation(computation)
        assert clock.timestamp_size <= 6
        poset = message_poset(computation)
        rng = random.Random(7)
        for _ in range(200):
            m1, m2 = rng.sample(computation.messages, 2)
            assert (assignment.of(m1) < assignment.of(m2)) == poset.less(
                m1, m2
            )


    def test_realizer_builds_poset_tables_once(self, monkeypatch):
        """The realizer reads the poset's rows once for all its chains,
        not once per chain: a wide poset must cost the same number of
        accessor calls for its whole partition as for one chain."""
        computation = multi_cluster_computation(2, 60, random.Random(8))
        poset = message_poset(computation)
        chains = minimum_chain_partition(poset)
        assert len(chains) >= 8

        calls = []
        for name in POSET_TABLE_ACCESSORS:
            original = getattr(Poset, name)

            def counted(self, _original=original, _name=name):
                calls.append(_name)
                return _original(self)

            monkeypatch.setattr(Poset, name, counted)

        realizer_from_chain_partition(poset, chains[:1])
        one_chain = len(calls)
        calls.clear()
        realizer = realizer_from_chain_partition(poset, chains)
        assert len(realizer) == len(chains)
        assert 0 < len(calls) == one_chain


class TestRuntimeBookkeeping:
    def test_fifty_thousand_internal_events(self):
        """Each internal event costs O(1): the per-slot counter and the
        serial are kept, not recounted (a rescan is quadratic and needs
        about a minute at this size)."""
        transport = SynchronousTransport(decompose(path_topology(2)))
        for _ in range(25_000):
            transport.record_internal("P1", "compute")
            transport.record_internal("P2", "compute")
        events = transport.as_evented_computation().internal_events()
        assert len(events) == 50_000
        assert events[-1] == InternalEvent(
            "P2", 0, 25_000, "compute#50000"
        )
