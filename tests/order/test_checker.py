"""Tests for the encoding checker itself."""

from __future__ import annotations

import random
import re

import pytest

from repro.clocks.base import TimestampAssignment
from repro.clocks.lamport import LamportMessageClock
from repro.clocks.online import OnlineEdgeClock
from repro.core.vector import VectorTimestamp
from repro.exceptions import (
    EncodingViolationError,
    PosetError,
    UnknownMessageError,
)
from repro.graphs.decomposition import decompose
from repro.graphs.generators import complete_topology, path_topology
from repro.order.checker import assert_characterizes, check_encoding
from repro.order.message_order import message_poset
from repro.sim.computation import SyncComputation
from repro.sim.workload import random_computation


def _broken_assignment(computation, clock):
    """Give every message the same vector — breaks consistency."""
    size = clock.timestamp_size
    return TimestampAssignment(
        computation,
        {m: VectorTimestamp.zeros(size) for m in computation.messages},
    )


def _overclaiming_assignment(computation, clock):
    """Strictly increasing vectors — orders concurrent messages."""
    size = clock.timestamp_size
    return TimestampAssignment(
        computation,
        {
            m: VectorTimestamp([m.index + 1] * size)
            for m in computation.messages
        },
    )


class TestCheckerDetectsViolations:
    def test_consistency_violation_detected(self):
        topology = path_topology(3)
        computation = SyncComputation.from_pairs(
            topology, [("P1", "P2"), ("P2", "P3")]
        )
        clock = OnlineEdgeClock(decompose(topology))
        report = check_encoding(
            clock, _broken_assignment(computation, clock)
        )
        assert not report.consistent
        assert report.consistency_violations

    def test_completeness_violation_detected(self):
        topology = complete_topology(4)
        computation = SyncComputation.from_pairs(
            topology, [("P1", "P2"), ("P3", "P4")]
        )
        clock = OnlineEdgeClock(decompose(topology))
        report = check_encoding(
            clock, _overclaiming_assignment(computation, clock)
        )
        assert report.consistent
        assert not report.characterizes

    def test_stop_at_first(self):
        topology = complete_topology(5)
        computation = random_computation(topology, 20, random.Random(0))
        clock = OnlineEdgeClock(decompose(topology))
        report = check_encoding(
            clock,
            _broken_assignment(computation, clock),
            stop_at_first=True,
        )
        assert (
            len(report.consistency_violations)
            + len(report.completeness_violations)
            == 1
        )

    def test_raise_on_violation(self):
        topology = path_topology(3)
        computation = SyncComputation.from_pairs(
            topology, [("P1", "P2"), ("P2", "P3")]
        )
        clock = OnlineEdgeClock(decompose(topology))
        report = check_encoding(
            clock, _broken_assignment(computation, clock)
        )
        with pytest.raises(EncodingViolationError) as excinfo:
            report.raise_on_violation()
        assert len(excinfo.value.pair) == 2

    def test_violation_describe(self):
        topology = path_topology(3)
        computation = SyncComputation.from_pairs(
            topology, [("P1", "P2"), ("P2", "P3")]
        )
        clock = OnlineEdgeClock(decompose(topology))
        report = check_encoding(
            clock, _broken_assignment(computation, clock)
        )
        text = report.consistency_violations[0].describe()
        assert "consistency" in text


class TestCheckerAcceptsCorrect:
    def test_assert_characterizes_passes(self):
        topology = complete_topology(5)
        computation = random_computation(topology, 20, random.Random(5))
        clock = OnlineEdgeClock(decompose(topology))
        report = assert_characterizes(clock, computation)
        assert report.characterizes
        assert report.ordered_pairs + report.concurrent_pairs > 0

    def test_lamport_fails_assert(self):
        topology = complete_topology(5)
        computation = random_computation(topology, 20, random.Random(5))
        clock = LamportMessageClock.for_topology(topology)
        with pytest.raises(EncodingViolationError):
            assert_characterizes(clock, computation)

    def test_pair_counts(self):
        topology = path_topology(2)
        computation = SyncComputation.from_pairs(
            topology, [("P1", "P2"), ("P2", "P1")]
        )
        clock = OnlineEdgeClock(decompose(topology))
        report = assert_characterizes(clock, computation)
        assert report.ordered_pairs == 1
        assert report.concurrent_pairs == 0


class TestPartialPoset:
    @pytest.mark.parametrize("missing_at", [0, 3, 7])
    def test_poset_missing_a_message_raises(self, missing_at):
        computation = random_computation(
            complete_topology(4), 8, random.Random(9)
        )
        clock = OnlineEdgeClock(decompose(computation.topology))
        assignment = clock.timestamp_computation(computation)
        missing = computation.messages[missing_at]
        partial = message_poset(computation).restricted_to(
            m for m in computation.messages if m != missing
        )
        with pytest.raises(PosetError, match=re.escape(repr(missing))):
            check_encoding(clock, assignment, poset=partial)

    def test_single_message_missing_raises(self):
        computation = SyncComputation.from_pairs(
            path_topology(2), [("P1", "P2")]
        )
        clock = OnlineEdgeClock(decompose(computation.topology))
        assignment = clock.timestamp_computation(computation)
        (only,) = computation.messages
        partial = message_poset(computation).restricted_to([])
        with pytest.raises(PosetError, match=re.escape(repr(only))):
            check_encoding(clock, assignment, poset=partial)


class TestAssignment:
    def test_missing_message_rejected(self):
        topology = path_topology(2)
        computation = SyncComputation.from_pairs(topology, [("P1", "P2")])
        with pytest.raises(UnknownMessageError):
            TimestampAssignment(computation, {})

    def test_of_name(self):
        topology = path_topology(2)
        computation = SyncComputation.from_pairs(topology, [("P1", "P2")])
        clock = OnlineEdgeClock(decompose(topology))
        assignment = clock.timestamp_computation(computation)
        assert assignment.of_name("m1") == VectorTimestamp([1])

    def test_of_unknown_message(self):
        topology = path_topology(2)
        computation = SyncComputation.from_pairs(topology, [("P1", "P2")])
        other = SyncComputation.from_pairs(topology, [("P2", "P1")])
        clock = OnlineEdgeClock(decompose(topology))
        assignment = clock.timestamp_computation(computation)
        with pytest.raises(UnknownMessageError):
            assignment.of(other.messages[0])
