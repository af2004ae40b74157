"""Regression: the offline pipeline must stay fast at 5k messages.

Before the bitset kernel, the dict-of-sets pipeline took ~38s on a
5,000-message computation (closure ~14s, matching and realizer the
rest), so the full Figure 9 pipeline was effectively unusable beyond
toy sizes.  The bitmask rows brought the whole pipeline
(closure + Dilworth matching + realizer + rank vectors) well under a
second.  This test pins that behaviour the same way
``test_chain_regression.py`` pins the iterative matcher: a generous
wall-clock budget that the bitset kernel clears by an order of
magnitude but the old kernel could never meet.
"""

from __future__ import annotations

import random
import time

from repro.clocks.offline import OfflineRealizerClock
from repro.graphs.generators import client_server_topology
from repro.sim.workload import random_computation

MESSAGES = 5_000

# 0.2-0.3s on the bitset kernel, 30-38s on the pre-bitset one (shared
# 2-vCPU x86-64 VM, CPython 3.11; ``offline_5000`` in BENCH_offline.json).
# The budget leaves an order of magnitude of headroom for slow CI boxes
# while still catching any fallback onto per-pair hash probing.
BUDGET_SECONDS = 20.0


class TestOfflineRegression:
    def test_offline_stamps_5000_messages_within_budget(self):
        topology = client_server_topology(3, 27)
        computation = random_computation(
            topology, MESSAGES, random.Random(23)
        )
        clock = OfflineRealizerClock()

        started = time.perf_counter()
        assignment = clock.timestamp_computation(computation)
        elapsed = time.perf_counter() - started

        assert elapsed < BUDGET_SECONDS, (
            f"offline stamping took {elapsed:.1f}s for {MESSAGES} "
            f"messages (budget {BUDGET_SECONDS}s); the bitset kernel "
            "fast paths are not engaging"
        )
        assert len(assignment) == MESSAGES
        assert clock.timestamp_size == len(clock.realizer)
        # Spot-check the encoding on the densest process projection:
        # consecutive messages on one process are ordered, so every
        # vector component must strictly increase along it.
        process = max(
            computation.processes,
            key=lambda p: len(computation.process_messages(p)),
        )
        projection = computation.process_messages(process)
        for earlier, later in zip(projection, projection[1:]):
            before = assignment.of(earlier).components
            after = assignment.of(later).components
            assert all(a < b for a, b in zip(before, after))
