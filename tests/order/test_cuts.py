"""Tests for consistent cuts and vector-frontier snapshots."""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.clocks.online import OnlineEdgeClock
from repro.core.ideals import all_ideals, down_closure
from repro.core.poset import Poset
from repro.core.vector import VectorTimestamp
from repro.exceptions import SimulationError
from repro.graphs.decomposition import decompose
from repro.graphs.generators import complete_topology, path_topology
from repro.order.cuts import (
    Cut,
    cut_from_messages,
    cut_of_everything,
    is_consistent,
    snapshot_at,
)
from repro.order.message_order import covering_pairs, message_poset
from repro.sim.computation import SyncComputation
from repro.sim.workload import random_computation
from tests.strategies import computations


@pytest.fixture
def chain3():
    return SyncComputation.from_pairs(
        path_topology(4), [("P1", "P2"), ("P2", "P3"), ("P3", "P4")]
    )


class TestCutBasics:
    def test_empty_cut_consistent(self, chain3):
        cut = Cut({p: 0 for p in chain3.processes})
        assert is_consistent(chain3, cut)
        assert cut.messages(chain3) == frozenset()

    def test_full_cut_consistent(self, chain3):
        cut = cut_of_everything(chain3)
        assert is_consistent(chain3, cut)
        assert cut.messages(chain3) == frozenset(chain3.messages)

    def test_prefix_cut_consistent(self, chain3):
        cut = Cut({"P1": 1, "P2": 2, "P3": 1, "P4": 0})
        assert is_consistent(chain3, cut)

    def test_split_message_inconsistent(self, chain3):
        # P2 keeps m1 and m2, but P3 keeps nothing: m2 is split.
        cut = Cut({"P1": 1, "P2": 2, "P3": 0, "P4": 0})
        assert not is_consistent(chain3, cut)

    def test_non_down_set_inconsistent(self, chain3):
        # Keeping m2 on both sides but dropping m1 on P2's side is not
        # even expressible as prefixes; the nearest expressible cut that
        # includes m2 must include m1 — so dropping P1 breaks agreement.
        cut = Cut({"P1": 0, "P2": 2, "P3": 1, "P4": 0})
        assert not is_consistent(chain3, cut)

    def test_out_of_range_rejected(self, chain3):
        with pytest.raises(SimulationError):
            is_consistent(chain3, Cut({"P1": 9}))


class TestCutFromMessages:
    def test_round_trip(self, chain3):
        messages = frozenset(chain3.messages[:2])
        cut = cut_from_messages(chain3, messages)
        assert cut.messages(chain3) == messages

    def test_rejects_non_prefix(self, chain3):
        with pytest.raises(SimulationError):
            cut_from_messages(chain3, frozenset([chain3.messages[2]]))


class TestBijectionWithIdeals:
    def test_consistent_cuts_are_exactly_ideals(self):
        computation = random_computation(
            complete_topology(4), 8, random.Random(5)
        )
        poset = message_poset(computation)
        ideals = set(all_ideals(poset))
        cuts = set()
        for ideal in ideals:
            cut = cut_from_messages(computation, frozenset(ideal))
            assert is_consistent(computation, cut, poset=poset)
            cuts.add(cut.messages(computation))
        assert cuts == ideals


class TestShuffledPoset:
    """``is_consistent`` with a caller-supplied poset whose insertion
    order is not ``computation.messages`` order."""

    @staticmethod
    def _setup():
        rng = random.Random(7)
        computation = random_computation(complete_topology(5), 14, rng)
        shuffled = list(computation.messages)
        while tuple(shuffled) == computation.messages:
            rng.shuffle(shuffled)
        return rng, computation, shuffled

    def test_shuffled_insertion_order_agrees(self):
        rng, computation, shuffled = self._setup()
        poset = Poset(shuffled, covering_pairs(computation))
        cut_list = [
            Cut(
                {
                    p: rng.randint(0, len(computation.process_messages(p)))
                    for p in computation.processes
                }
            )
            for _ in range(40)
        ]
        cut_list += [
            cut_from_messages(
                computation,
                down_closure(poset, rng.sample(computation.messages, k)),
            )
            for k in range(len(computation) + 1)
        ]
        expected = [is_consistent(computation, cut) for cut in cut_list]
        assert True in expected and False in expected
        assert [
            is_consistent(computation, cut, poset=poset) for cut in cut_list
        ] == expected

    @pytest.mark.parametrize("shuffle", [False, True])
    def test_extra_relation_rejects_cut(self, shuffle):
        """A poset ordering two concurrent messages ``a < b`` rejects the
        down-closure of ``b``, which keeps ``b`` without ``a`` — a cut
        the message order itself accepts."""
        _, computation, shuffled = self._setup()
        order = message_poset(computation)
        a, b = next(
            (x, y)
            for x in computation.messages
            for y in computation.messages
            if x != y and order.concurrent(x, y)
        )
        pairs = list(covering_pairs(computation)) + [(a, b)]
        elements = shuffled if shuffle else list(computation.messages)
        stricter = Poset(elements, pairs)
        cut = cut_from_messages(computation, down_closure(order, [b]))
        assert a not in cut.messages(computation)
        assert is_consistent(computation, cut)
        assert not is_consistent(computation, cut, poset=stricter)


class TestSnapshotAt:
    def test_zero_frontier_empty(self):
        computation = random_computation(
            complete_topology(4), 10, random.Random(1)
        )
        clock = OnlineEdgeClock(decompose(computation.topology))
        assignment = clock.timestamp_computation(computation)
        cut = snapshot_at(
            computation,
            assignment,
            VectorTimestamp.zeros(clock.timestamp_size),
        )
        assert cut.messages(computation) == frozenset()

    def test_infinite_frontier_everything(self):
        computation = random_computation(
            complete_topology(4), 10, random.Random(2)
        )
        clock = OnlineEdgeClock(decompose(computation.topology))
        assignment = clock.timestamp_computation(computation)
        cut = snapshot_at(
            computation,
            assignment,
            VectorTimestamp.infinities(clock.timestamp_size),
        )
        assert cut.messages(computation) == frozenset(computation.messages)

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        computations(max_messages=20),
        st.lists(
            st.integers(min_value=0, max_value=15), min_size=1, max_size=8
        ),
    )
    def test_every_frontier_gives_consistent_cut(
        self, computation, raw_frontier
    ):
        clock = OnlineEdgeClock(decompose(computation.topology))
        assignment = clock.timestamp_computation(computation)
        size = clock.timestamp_size
        frontier = VectorTimestamp(
            (raw_frontier * size)[:size]
        )
        cut = snapshot_at(computation, assignment, frontier)
        assert is_consistent(computation, cut)
