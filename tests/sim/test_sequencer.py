"""Deterministic simulation of the rendezvous sequencer.

Hypothesis drives :class:`~repro.sim.sequencer.Sequencer` directly —
no threads, processes, sockets or sleeps — through adversarial
interleavings of offers, filtered and wildcard receives,
acknowledgements, clock jumps past deadlines, late (non-monotonic)
inputs, departures and poison.  A recording driver and the flight
recorder check the protocol invariants after every step; any failure
replays from the seed Hypothesis prints.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
)

from repro.core.vector import VectorTimestamp
from repro.exceptions import SimulationError
from repro.graphs.decomposition import decompose
from repro.graphs.generators import complete_topology
from repro.obs import flightrec
from repro.sim.sequencer import (
    DONE,
    MATCHED,
    PARKED,
    RECEIVE,
    CommittedRun,
    Sequencer,
)

DECOMPOSITION = decompose(complete_topology(3))
PROCESSES = sorted(DECOMPOSITION.graph.vertices)
TIMEOUT = 1.0

processes = st.sampled_from(PROCESSES)
sources = st.one_of(st.none(), processes)
#: Clock steps: short ones keep waits alive across inputs, long ones
#: jump past deadlines, and arbitrary floats probe the boundaries.
steps = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, TIMEOUT]),
    st.floats(min_value=0.0, max_value=2.5 * TIMEOUT),
)


class RecordingDriver:
    """Collects the sequencer's effects for the machine to check."""

    def __init__(self):
        self.effects = []

    def on_deliver(self, offer):
        self.effects.append(("deliver", offer))

    def on_complete(self, offer, entry):
        self.effects.append(("complete", offer, offer.partner, entry))

    def on_timeout(self, wait, reason):
        self.effects.append(("timeout", wait, reason))


class SequencerMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.previous_recorder = flightrec.recorder
        self.recorder = flightrec.install(capacity=1 << 16)
        self.run = CommittedRun(DECOMPOSITION)
        self.driver = RecordingDriver()
        self.sequencer = Sequencer(self.run, TIMEOUT, self.driver)
        self.now = 0.0
        #: The latest ``now`` the sequencer has seen (it clamps late ones).
        self.swept = float("-inf")
        self.waits = []
        self.outcome = {}
        self.commits = []
        self.timeouts = 0
        self.poisoned = False

    def teardown(self):
        flightrec.recorder = self.previous_recorder

    # -- driving -------------------------------------------------------
    def _input(self, method, *args, now=None):
        """Apply one input, then check every effect it produced."""
        now = self.now if now is None else now
        if self.poisoned:
            with pytest.raises(SimulationError):
                method(*args, now)
            assert self.driver.effects == []
            return None
        result = method(*args, now)
        self.swept = max(self.swept, now)
        for effect in self.driver.effects:
            getattr(self, "_on_" + effect[0])(*effect[1:])
        self.driver.effects.clear()
        return result

    def _on_deliver(self, offer):
        recv = offer.partner
        assert offer.state == recv.state == MATCHED
        assert recv.partner is offer and recv.peer == offer.process
        # Neither side was past its deadline: a stale wait never matches.
        assert offer.deadline > self.swept and recv.deadline > self.swept
        assert offer not in self.outcome and recv not in self.outcome

    def _on_complete(self, offer, recv, entry):
        # No ghost commits: a reclaimed, departed or abandoned offer is
        # already resolved as a timeout and can never complete.
        assert offer not in self.outcome and recv not in self.outcome
        assert offer.state == recv.state == DONE
        assert entry.order == len(self.commits)
        assert (entry.sender, entry.receiver) == (
            offer.process, recv.process
        )
        self.commits.append(entry)
        self.outcome[offer] = self.outcome[recv] = "matched"

    def _on_timeout(self, wait, reason):
        assert wait not in self.outcome
        assert wait.state == DONE and reason
        self.outcome[wait] = "timeout"
        self.timeouts += 1

    def _track(self, wait):
        if wait is not None:
            assert wait.deadline == wait.t_start + TIMEOUT
            self.waits.append(wait)

    # -- rules ---------------------------------------------------------
    @rule(
        sender=processes,
        to=processes,
        payload=st.integers(0, 9),
        lag=st.one_of(st.just(0.0), steps),
    )
    def offer(self, sender, to, payload, lag):
        """An offer, possibly stamped before the latest input."""
        if sender == to:
            return
        wait = self._input(
            self.sequencer.offer, sender, to, payload, b"\x01" * payload,
            now=self.now - lag,
        )
        self._track(wait)

    @rule(receiver=processes, source=sources)
    def receive(self, receiver, source):
        if source == receiver:
            source = None
        # Sweep first, as the input itself would, so the model sees the
        # same open waits the sequencer checks.
        self._input(self.sequencer.tick)
        busy = any(
            w.op == RECEIVE and w.process == receiver
            and w.state != DONE
            for w in self.waits
        )
        if busy and not self.poisoned:
            with pytest.raises(SimulationError, match="overlapping"):
                self.sequencer.recv(receiver, source, self.now)
            return
        self._track(self._input(self.sequencer.recv, receiver, source))

    @rule(step=steps)
    def unrelated_traffic(self, step):
        """Offer to a receive that is filtering on someone else."""
        filtering = [
            w for w in self.waits
            if w.op == RECEIVE and w.state == PARKED and w.peer is not None
        ]
        if not filtering:
            return
        recv = filtering[0]
        sender = next(
            p for p in PROCESSES if p not in (recv.process, recv.peer)
        )
        self.now += min(step, TIMEOUT / 2)
        self._track(
            self._input(self.sequencer.offer, sender, recv.process, 0, b"")
        )

    @rule(sender=processes, receiver=processes)
    def rendezvous(self, sender, receiver):
        """A whole rendezvous in one step, so commits are frequent."""
        self.offer(sender, receiver, 1, 0.0)
        if sender != receiver:
            self.receive(receiver, sender)
            self.ack(receiver)

    @rule(receiver=processes)
    def ack(self, receiver):
        self._input(self.sequencer.tick)
        delivered = [
            w for w in self.waits
            if w.op == RECEIVE and w.process == receiver
            and w.state == MATCHED
        ]
        if self.poisoned or delivered:
            stamp = VectorTimestamp([len(self.commits) + 1])
            self._input(self.sequencer.ack, receiver, stamp, b"\x02")
            return
        with pytest.raises(SimulationError, match="unsolicited"):
            self.sequencer.ack(
                receiver, VectorTimestamp([0]), b"", self.now
            )

    @rule(process=processes, label=st.sampled_from(["a", "b"]))
    def internal(self, process, label):
        before = [
            e for e in self.run._internal[process]
            if e.slot == self.sequencer.message_counts[process]
        ]
        serial = sum(len(v) for v in self.run._internal.values())
        event = self._input(self.sequencer.internal, process, label)
        if event is not None:
            assert event.slot == self.sequencer.message_counts[process]
            assert event.counter == len(before) + 1
            assert event.name == f"{label}#{serial + 1}"

    @rule(step=steps)
    def clock_jump(self, step):
        """Time passes with no input at all."""
        self.now += step

    @rule()
    def tick(self):
        self._input(self.sequencer.tick)

    @rule(process=processes)
    def depart(self, process):
        self._input(self.sequencer.depart, process)

    @rule()
    def poison(self):
        if self.poisoned:
            with pytest.raises(SimulationError):
                self.sequencer.poison("again")
            return
        self.sequencer.poison("test poison")
        self.poisoned = True

    @rule()
    def drain(self):
        """Run past every deadline: each open block must now be closed."""
        if self.poisoned:
            return
        self.now += 3 * TIMEOUT
        self._input(self.sequencer.tick)
        assert all(w in self.outcome for w in self.waits)
        assert self.sequencer.next_deadline() is None
        assert self.sequencer.open_waits() == {}
        assert self.sequencer.blocked() == frozenset()
        starts, ends = self._blocks()
        assert starts == ends

    # -- invariants ----------------------------------------------------
    def _blocks(self):
        starts, ends = Counter(), Counter()
        for event in self.recorder.events():
            key = (event.process, event.detail.get("op"))
            if event.kind == flightrec.BLOCK_START:
                starts[key] += 1
            elif event.kind == flightrec.BLOCK_END:
                ends[key] += 1
        return starts, ends

    @invariant()
    def every_block_ends_at_most_once(self):
        starts, ends = self._blocks()
        assert sum(starts.values()) == len(self.waits)
        assert sum(ends.values()) == len(self.outcome)
        for key, count in ends.items():
            assert count <= starts[key]
        statuses = Counter(
            event.detail["status"]
            for event in self.recorder.events()
            if event.kind == flightrec.BLOCK_END
        )
        assert statuses["matched"] == 2 * len(self.commits)
        assert statuses["timeout"] == self.timeouts

    @invariant()
    def commit_order_is_log_order(self):
        assert self.run.log == self.commits
        assert [e.order for e in self.run.log] == list(
            range(len(self.commits))
        )
        committed = [
            e for e in self.recorder.events()
            if e.kind == flightrec.RENDEZVOUS
        ]
        assert [e.detail["commit_order"] for e in committed] == list(
            range(len(self.commits))
        )

    @invariant()
    def message_counts_match_the_log(self):
        counts = Counter()
        for entry in self.run.log:
            counts[entry.sender] += 1
            counts[entry.receiver] += 1
        for process in PROCESSES:
            assert self.sequencer.message_counts[process] == counts[process]

    @invariant()
    def deadlines_never_move_and_never_lapse(self):
        for wait in self.waits:
            assert wait.deadline == wait.t_start + TIMEOUT
            if wait.state == PARKED:
                assert wait.deadline > self.swept or self.poisoned
            elif wait.state == MATCHED and wait.op == RECEIVE:
                assert wait.ack_deadline > self.swept or self.poisoned

    @invariant()
    def open_waits_are_the_parked_waits(self):
        parked = {w.process for w in self.waits if w.state == PARKED}
        assert set(self.sequencer.open_waits()) == parked
        pending = {
            w.process for w in self.waits if w.state in (PARKED, MATCHED)
        }
        assert self.sequencer.blocked() == pending


SequencerMachine.TestCase.settings = settings(
    max_examples=300,
    stateful_step_count=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestSequencerMachine = SequencerMachine.TestCase
