"""Regression and stress tests for the rendezvous timeout races.

Three latent races in the threaded transport are pinned here:

* the receive timeout restarting on every unrelated wakeup (the
  timeout was a per-wait budget, not a deadline);
* a timed-out send leaving its offer in the receiver's inbox, where a
  later receive could match it and commit a ghost message while the
  departed sender's clock never advanced;
* the runner returning normally with worker threads still alive, the
  abandoned threads' leftovers still matchable.

Each regression test fails against the pre-fix transport.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.clocks.online import OnlineEdgeClock
from repro.core.vector import VectorTimestamp
from repro.exceptions import RuntimeDeadlockError, SimulationError
from repro.graphs.decomposition import decompose
from repro.graphs.generators import (
    complete_topology,
    path_topology,
    star_topology,
)
from repro.obs import flightrec
from repro.obs import instrument
from repro.sim.runtime import (
    ScriptRunner,
    SynchronousTransport,
    compute,
    receive,
    send,
)


class TestReceiveTimeoutDeadline:
    def test_unrelated_offers_do_not_reset_the_timeout(self):
        """A receiver under steady non-matching traffic still times out.

        Pre-fix, the receive re-armed the full timeout after every
        wakeup, so the feeder below (posting a non-matching offer every
        50ms through the sequencer's ``offer`` input, under the
        transport lock) kept the receiver blocked for as long as the
        feeder ran.  Post-fix the deadline is monotonic: the receiver
        raises after ~0.4s even though the traffic never stops.
        """
        decomposition = decompose(path_topology(3))
        transport = SynchronousTransport(decomposition, timeout=0.4)
        stop = threading.Event()
        zero = VectorTimestamp([0] * decomposition.size)

        def feeder() -> None:
            # Park offers from P1 in P2's inbox; the receiver filters
            # on source P3, so these wake it without ever matching.
            while not stop.is_set():
                with transport._lock:
                    transport._sequencer.offer(
                        "P1", "P2", None, zero, time.monotonic()
                    )
                time.sleep(0.05)

        outcome: dict = {}

        def receiver() -> None:
            started = time.monotonic()
            try:
                transport.receive("P2", source="P3")
                outcome["error"] = None
            except RuntimeDeadlockError as exc:
                outcome["error"] = exc
            outcome["elapsed"] = time.monotonic() - started

        feeder_thread = threading.Thread(target=feeder, daemon=True)
        receiver_thread = threading.Thread(target=receiver, daemon=True)
        feeder_thread.start()
        receiver_thread.start()
        # Pre-fix the receiver cannot finish while the feeder runs;
        # give it 5x the timeout before stopping the traffic.
        receiver_thread.join(timeout=2.0)
        finished_under_traffic = not receiver_thread.is_alive()
        stop.set()
        feeder_thread.join(timeout=2.0)
        receiver_thread.join(timeout=2.0)
        assert finished_under_traffic, (
            "receive blocked past its timeout while unrelated offers "
            "kept arriving"
        )
        assert isinstance(outcome["error"], RuntimeDeadlockError)
        assert outcome["elapsed"] < 1.5

    def test_filtered_receiver_completes_despite_wrong_source_noise(self):
        """Stress: matching traffic wins against wrong-source noise.

        P1 filters on source P5 while P2..P4 flood it with offers that
        can never match.  All of P5's messages must commit, every
        wrong-source send must time out, and the deadline fix must not
        have broken the legitimate matches.
        """
        rounds = 4
        decomposition = decompose(complete_topology(5))
        scripts = {
            "P1": [receive("P5") for _ in range(rounds)],
            "P2": [send("P1", "noise") for _ in range(rounds)],
            "P3": [send("P1", "noise") for _ in range(rounds)],
            "P4": [send("P1", "noise") for _ in range(rounds)],
            "P5": [send("P1", f"real-{i}") for i in range(rounds)],
        }
        transport = ScriptRunner(
            decomposition, scripts, timeout=1.5
        ).run(raise_on_error=False)
        committed = [(e.sender, e.payload) for e in transport.log]
        assert committed == [
            ("P5", f"real-{i}") for i in range(rounds)
        ]
        # Each noise sender dies on its first timed-out send.
        assert len(transport.errors) == 3
        assert all(
            isinstance(error, RuntimeDeadlockError)
            for error in transport.errors
        )


class TestStaleOfferReclamation:
    def test_timed_out_send_leaves_no_ghost_offer(self):
        """A receive after the sender gave up must not commit a ghost.

        Pre-fix the timed-out send left its offer parked, so the
        late receive matched it, committed the message, and completed
        the event into the void — with the sender's clock never running
        ``on_acknowledgement``.
        """
        decomposition = decompose(path_topology(2))
        transport = SynchronousTransport(decomposition, timeout=0.2)
        with pytest.raises(RuntimeDeadlockError):
            transport.send("P1", "P2", "ghost")
        # The sender is gone; its offer must be gone too.
        assert transport._sequencer.open_waits() == {}
        with pytest.raises(RuntimeDeadlockError):
            transport.receive("P2")
        assert transport.log == []

    def test_send_timeout_vs_receive_race_stays_consistent(self):
        """Stress the timeout/match race window.

        The receiver starts right around the sender's deadline.  Either
        outcome is legal — matched (both sides complete, one committed
        message) or timed out (both sides raise, empty log) — but the
        two sides and the log must always agree; a ghost commit shows
        up here as a receiver that "succeeded" while the sender raised.
        """
        decomposition = decompose(path_topology(2))
        for attempt in range(30):
            transport = SynchronousTransport(
                decomposition, timeout=0.05
            )
            outcome: dict = {}

            def sender() -> None:
                try:
                    transport.send("P1", "P2", "racy")
                    outcome["send_error"] = None
                except RuntimeDeadlockError as exc:
                    outcome["send_error"] = exc

            def receiver() -> None:
                # Sweep the receive start across the send deadline.
                time.sleep(0.0475 + 0.0005 * (attempt % 10))
                try:
                    transport.receive("P2")
                    outcome["recv_error"] = None
                except RuntimeDeadlockError as exc:
                    outcome["recv_error"] = exc

            threads = [
                threading.Thread(target=sender, daemon=True),
                threading.Thread(target=receiver, daemon=True),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=5.0)
                assert not thread.is_alive()
            committed = len(transport.log)
            sender_ok = outcome["send_error"] is None
            receiver_ok = outcome["recv_error"] is None
            assert sender_ok == receiver_ok == (committed == 1), (
                f"attempt {attempt}: sender_ok={sender_ok} "
                f"receiver_ok={receiver_ok} committed={committed}"
            )


class TestStuckThreadPoisoning:
    def test_runner_surfaces_stuck_threads_and_poisons(self):
        """A thread alive past the join timeout is an error, not a note.

        The never-matching send keeps P1 parked for the full rendezvous
        timeout (5s) while the runner only waits 0.2s per join — so the
        runner must poison the transport, surface the condition in
        ``errors``, and fail fast on any further use.
        """
        decomposition = decompose(path_topology(2))
        runner = ScriptRunner(
            decomposition,
            {"P1": [send("P2", "never-matched")], "P2": []},
            timeout=5.0,
            join_timeout=0.2,
        )
        transport = runner.run(raise_on_error=False)
        assert transport.poisoned is not None
        assert any(
            isinstance(error, RuntimeDeadlockError)
            and "P1" in str(error)
            for error in transport.errors
        )
        with pytest.raises(SimulationError):
            transport.send("P2", "P1")
        with pytest.raises(SimulationError):
            transport.receive("P2")
        with pytest.raises(SimulationError):
            transport.record_internal("P2", "late")

    def test_runner_raises_on_stuck_threads_by_default(self):
        decomposition = decompose(path_topology(2))
        runner = ScriptRunner(
            decomposition,
            {"P1": [send("P2", "never-matched")], "P2": []},
            timeout=5.0,
            join_timeout=0.2,
        )
        with pytest.raises(RuntimeDeadlockError, match="P1"):
            runner.run()

    def test_poison_wakes_blocked_receivers(self):
        """A receiver parked in a rendezvous fails fast on poison."""
        decomposition = decompose(path_topology(2))
        transport = SynchronousTransport(decomposition, timeout=10.0)
        outcome: dict = {}

        def receiver() -> None:
            started = time.monotonic()
            try:
                transport.receive("P2")
                outcome["error"] = None
            except SimulationError as exc:
                outcome["error"] = exc
            outcome["elapsed"] = time.monotonic() - started

        thread = threading.Thread(target=receiver, daemon=True)
        thread.start()
        time.sleep(0.1)
        transport.poison("test poison")
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert isinstance(outcome["error"], SimulationError)
        assert outcome["elapsed"] < 5.0


class TestTimeoutObservability:
    def test_flight_and_metrics_agree_with_raised_errors(self):
        """Timeout accounting is consistent across all three surfaces.

        Every raised ``RuntimeDeadlockError`` must appear as exactly one
        flight ``BLOCK_END status="timeout"``; committed rendezvous
        contribute two ``status="matched"`` ends and land in
        ``rendezvous_block_seconds``, while timeouts only ever land in
        ``rendezvous_wait_seconds``.
        """
        decomposition = decompose(star_topology(3))
        hub, leaf1, leaf2, leaf3 = "P1", "P1_leaf1", "P1_leaf2", "P1_leaf3"
        # Hub receives one real message from leaf1; leaf2 sends into
        # the void and leaf3 waits for a message that never comes.
        scripts = {
            hub: [receive(leaf1)],
            leaf1: [send(hub, "real")],
            leaf2: [send(hub, "never-received")],
            leaf3: [receive(hub)],
        }
        with instrument.enabled_session() as obs:
            with flightrec.recording_session(capacity=1024) as rec:
                transport = ScriptRunner(
                    decomposition, scripts, timeout=0.4
                ).run(raise_on_error=False)
        deadlocks = [
            error
            for error in transport.errors
            if isinstance(error, RuntimeDeadlockError)
        ]
        timeout_ends = [
            event
            for event in rec.events()
            if event.kind == flightrec.BLOCK_END
            and event.detail.get("status") == "timeout"
        ]
        matched_ends = [
            event
            for event in rec.events()
            if event.kind == flightrec.BLOCK_END
            and event.detail.get("status") == "matched"
        ]
        assert len(transport.log) == 1
        assert len(deadlocks) == 2
        assert len(timeout_ends) == len(deadlocks)
        assert len(matched_ends) == 2 * len(transport.log)
        # Histograms: waits count every block (matched + timed out),
        # block_seconds only the matched ones.
        total_blocks = len(matched_ends) + len(timeout_ends)
        assert obs.rendezvous_wait_seconds.count == total_blocks
        assert obs.rendezvous_block_seconds.count == len(matched_ends)
        # Every timeout BLOCK_END waited at least the configured
        # timeout — the deadline is a floor, not a suggestion.
        for event in timeout_ends:
            assert event.detail["seconds"] >= 0.4 - 0.05


class TestUnacknowledgedDelivery:
    def test_receiver_failing_before_ack_times_out_the_sender(self):
        """The delivered pair's deadline frees the sender.

        P1 -> P3 is not an edge of the path, so P3's clock raises after
        the delivery and never acknowledges.  Pre-fix the sender's
        reclamation tried to remove an offer that was no longer parked
        and died with ``ValueError``; now both sides time out.
        """
        decomposition = decompose(path_topology(3))
        with flightrec.recording_session(capacity=256) as rec:
            transport = ScriptRunner(
                decomposition,
                {"P1": [send("P3", "x")], "P2": [], "P3": [receive()]},
                timeout=0.5,
            ).run(raise_on_error=False)
        assert transport.log == []
        assert [type(e).__name__ for e in transport.errors] == [
            "EdgeNotFoundError",
            "RuntimeDeadlockError",
        ]
        assert "never acknowledged" in str(transport.errors[1])
        ends = sorted(
            (event.process, event.detail["op"], event.detail["status"])
            for event in rec.events()
            if event.kind == flightrec.BLOCK_END
        )
        assert ends == [
            ("P1", "send", "timeout"),
            ("P3", "receive", "timeout"),
        ]


class TestSharedSequencerStress:
    def test_many_threads_on_one_sequencer(self):
        """More threads than cores hammer the one shared sequencer.

        With a tiny switch interval, a lost update anywhere in the
        lock-protected state would show up as a missing commit, a
        timestamp the replay disagrees with, or a broken internal-event
        counter or serial.
        """
        leaves, rounds = 6, 20
        decomposition = decompose(star_topology(leaves))
        hub = "P1"
        scripts = {hub: [receive() for _ in range(leaves * rounds)]}
        for i in range(1, leaves + 1):
            scripts[f"P1_leaf{i}"] = [
                action
                for r in range(rounds)
                for action in (compute("work"), send(hub, r))
            ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            transport = ScriptRunner(
                decomposition, scripts, timeout=20.0
            ).run()
        finally:
            sys.setswitchinterval(interval)
        assert len(transport.log) == leaves * rounds
        replay = OnlineEdgeClock(decomposition).timestamp_computation(
            transport.as_computation()
        )
        assert [
            replay.of(m) for m in transport.as_computation().messages
        ] == transport.collected_timestamps()
        events = transport.as_evented_computation().internal_events()
        assert sorted(int(e.name.split("#")[1]) for e in events) == list(
            range(1, leaves * rounds + 1)
        )
        for event in events:
            assert event.counter == 1
