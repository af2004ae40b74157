"""A real blocking-send (rendezvous) runtime with embedded online clocks.

The deterministic driver in :class:`~repro.clocks.online.OnlineEdgeClock`
proves the algorithm correct; this module demonstrates it is genuinely
*online*: processes are OS threads, sends block until the receiver takes
the message and the acknowledgement returns (CSP semantics), and the
only clock information exchanged is what Figure 5 piggybacks on the
program message and its ack.

Programs are small scripts of actions (:func:`send`, :func:`receive`,
:func:`compute`).  :class:`SynchronousTransport` is the threaded driver
of :class:`~repro.sim.sequencer.Sequencer`, the rendezvous protocol the
socket runtime (:mod:`repro.sim.distributed`) drives too: it feeds the
sequencer under one lock and does the clock and codec work, and the
sequencer establishes the commit order, so after the run the harness
can rebuild the equivalent :class:`SyncComputation` and verify the
collected timestamps against the ground truth — see
``tests/integration/test_runtime.py``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.clocks.online import OnlineProcessClock
from repro.core.vector import VectorTimestamp
from repro.obs import flightrec as _flightrec
from repro.obs import instrument as _obs
from repro.exceptions import RuntimeDeadlockError, SimulationError
from repro.graphs.decomposition import EdgeDecomposition
from repro.sim.computation import InternalEvent, Process
from repro.sim.sequencer import (
    SEND,
    CommittedRun,
    DeliveredMessage,
    Sequencer,
    Wait,
)


# ----------------------------------------------------------------------
# Script actions
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SendAction:
    to: Process
    payload: Any = None


@dataclass(frozen=True)
class ReceiveAction:
    #: Accept only from this sender when set; any sender otherwise.
    source: Optional[Process] = None


@dataclass(frozen=True)
class ComputeAction:
    #: An opaque label for the internal step (useful in traces).
    label: str = "compute"


@dataclass(frozen=True)
class CrashAction:
    """Fault injection: the process stops executing its script here."""

    reason: str = "crash"


def send(to: Process, payload: Any = None) -> SendAction:
    """Script action: synchronous send to ``to``."""
    return SendAction(to, payload)


def receive(source: Optional[Process] = None) -> ReceiveAction:
    """Script action: accept one message (optionally from ``source``)."""
    return ReceiveAction(source)


def compute(label: str = "compute") -> ComputeAction:
    """Script action: a local internal event."""
    return ComputeAction(label)


def crash(reason: str = "crash") -> CrashAction:
    """Script action: fault injection — abandon the rest of the script.

    Peers that were counting on the crashed process's later sends or
    receives will time out with :class:`RuntimeDeadlockError`; run with
    ``raise_on_error=False`` to collect the partial execution and feed
    it to :func:`repro.apps.recovery.find_orphans`.
    """
    return CrashAction(reason)


Action = object  # SendAction | ReceiveAction | ComputeAction


# ----------------------------------------------------------------------
# Transport
# ----------------------------------------------------------------------
class _Wait:
    """One thread's blocked rendezvous: its wakeup and its outcome."""

    __slots__ = ("cond", "outcome")

    def __init__(self, lock: threading.Lock):
        self.cond = threading.Condition(lock)
        self.outcome: Any = None


class SynchronousTransport(CommittedRun):
    """Blocking-send message passing with Figure 5 piggybacking.

    One instance is shared by all process threads.  It drives the
    :class:`~repro.sim.sequencer.Sequencer` under one lock: ``send``
    offers and blocks until the sequencer completes or times out its
    offer; ``receive`` blocks until the sequencer delivers an offer,
    advances the receiver's clock, and acknowledges — which commits the
    message to the global log.  The clock work, the codec and each
    thread's wait live here; the rendezvous rules live in the sequencer.
    """

    def __init__(
        self,
        decomposition: EdgeDecomposition,
        timeout: float = 10.0,
        wire_format: str = "full",
    ):
        super().__init__(decomposition)
        self._wire_format = wire_format
        bound_k: Optional[int] = None
        if wire_format == "full":
            # The historical path: vectors travel as objects, no codec
            # on the hot path.
            self._codec = None
            piggy_size = _obs.piggyback_size_bytes
        else:
            # Imported lazily: repro.clocks.delta pulls in
            # repro.sim.wire, whose package __init__ imports this
            # module — a top-level import here would be circular.
            from repro.clocks.delta import make_codec

            self._codec = make_codec(wire_format, decomposition.size)
            bound_k = self._codec.bound_k
            piggy_size = len
        self._lock = threading.Lock()
        self._clocks: Dict[Process, OnlineProcessClock] = {
            p: OnlineProcessClock(p, decomposition, bound_k=bound_k)
            for p in decomposition.graph.vertices
        }
        self._sequencer = Sequencer(self, timeout, self, piggy_size)
        self._waits: Set[_Wait] = set()
        #: Exceptions collected by the runner when ``raise_on_error`` is
        #: off (timeouts of a crashed process's peers, script errors).
        self.errors: List[BaseException] = []

    # ------------------------------------------------------------------
    def poison(self, reason: str) -> None:
        """Mark the transport unusable; further operations raise.

        The runner calls this when a worker thread failed to finish:
        the abandoned daemon thread may still be parked inside a
        rendezvous, and letting new sends/receives match against its
        leftovers would corrupt clocks.  Every blocked thread is woken
        and fails fast.
        """
        with self._lock:
            if self._sequencer.poisoned is None:
                self._sequencer.poison(reason)
            for wait in self._waits:
                wait.cond.notify()

    @property
    def poisoned(self) -> Optional[str]:
        """The poison reason, or ``None`` while the transport is usable."""
        return self._sequencer.poisoned

    def _check_poisoned(self) -> None:
        if self._sequencer.poisoned is not None:
            raise SimulationError(self._sequencer.poisoned)

    def send(
        self, sender: Process, to: Process, payload: Any = None
    ) -> VectorTimestamp:
        """Blocking synchronous send; returns the message timestamp."""
        self._check_poisoned()
        clock = self._clocks[sender]
        with _obs.span(
            "rendezvous.send", sender=str(sender), receiver=str(to)
        ) as sp:
            with self._lock:
                piggy: Any = clock.prepare_send()
                if self._codec is not None:
                    piggy = self._codec.encode((sender, to), piggy)
                wait = _Wait(self._lock)
                offer = self._sequencer.offer(
                    sender, to, payload, piggy, time.monotonic(), wait
                )
                entry = self._await(wait)
            sp.set_attribute("blocking_seconds", offer.waited)
            ack_vector = offer.ack
            if self._codec is not None:
                # Decode the real frame — divergence from the vector
                # the receiver committed against would trip the
                # timestamp cross-check below.
                ack_vector = self._codec.decode((to, sender), ack_vector)
            m = _obs.metrics
            if m is not None:
                stamp_started = time.perf_counter()
                timestamp = clock.on_acknowledgement(to, ack_vector)
                m.stamp_latency_quantiles.observe(
                    time.perf_counter() - stamp_started
                )
            else:
                timestamp = clock.on_acknowledgement(to, ack_vector)
            if timestamp != entry.timestamp:  # pragma: no cover
                raise SimulationError(
                    "sender and receiver disagree on a message timestamp"
                )
            return timestamp

    def receive(
        self, receiver: Process, source: Optional[Process] = None
    ) -> Tuple[Process, Any, VectorTimestamp]:
        """Blocking receive; returns ``(sender, payload, timestamp)``."""
        self._check_poisoned()
        clock = self._clocks[receiver]
        with _obs.span(
            "rendezvous.receive",
            receiver=str(receiver),
            source=None if source is None else str(source),
        ) as sp:
            with self._lock:
                wait = _Wait(self._lock)
                recv = self._sequencer.recv(
                    receiver, source, time.monotonic(), wait
                )
                offer = self._await(wait)
                sender = offer.process
                piggybacked = offer.piggy
                if self._codec is not None:
                    piggybacked = self._codec.decode(
                        (sender, receiver), piggybacked
                    )
                m = _obs.metrics
                if m is not None:
                    stamp_started = time.perf_counter()
                    ack, timestamp = clock.on_receive(sender, piggybacked)
                    m.stamp_latency_quantiles.observe(
                        time.perf_counter() - stamp_started
                    )
                else:
                    ack, timestamp = clock.on_receive(sender, piggybacked)
                if self._codec is not None:
                    ack = self._codec.encode((receiver, sender), ack)
                entry = self._sequencer.ack(
                    receiver, timestamp, ack, time.monotonic()
                )
            sp.set_attribute("blocking_seconds", recv.waited)
            sp.set_attribute("sender", str(sender))
            sp.set_attribute("commit_order", entry.order)
            return sender, offer.payload, timestamp

    def record_internal(self, process: Process, label: str) -> InternalEvent:
        """Record an internal event of ``process`` (a compute action).

        The event lands in the slot after the process's current external
        events; the per-slot counter is exactly the paper's ``c(e)``.
        """
        self._check_poisoned()
        with self._lock:
            return self._sequencer.internal(
                process, label, time.monotonic()
            )

    def _await(self, wait: _Wait) -> Any:
        """Block (lock held) until the sequencer resolves ``wait``.

        A waiting thread sleeps until it is resolved or until the
        sequencer's next deadline, then sweeps: whichever thread wakes
        first times out every wait that is due, its own or another's.
        A match that won the race against a deadline was committed
        under the lock before the sweep, so it resolves as a success.
        """
        sequencer = self._sequencer
        self._waits.add(wait)
        try:
            while wait.outcome is None:
                if sequencer.poisoned is not None:
                    raise SimulationError(sequencer.poisoned)
                now = time.monotonic()
                deadline = sequencer.next_deadline()
                if deadline is not None and deadline <= now:
                    sequencer.tick(now)
                else:
                    wait.cond.wait(
                        None if deadline is None else deadline - now
                    )
        finally:
            self._waits.discard(wait)
        if isinstance(wait.outcome, BaseException):
            raise wait.outcome
        return wait.outcome

    # -- sequencer effects ---------------------------------------------
    def on_deliver(self, offer: Wait) -> None:
        _resolve(offer.partner.token, offer)

    def on_complete(self, offer: Wait, entry: DeliveredMessage) -> None:
        _resolve(offer.token, entry)

    def on_timeout(self, wait: Wait, reason: str) -> None:
        if wait.op == SEND and self._codec is not None:
            # The timed-out offer's frame advanced the encoder snapshot
            # but the decoder never saw it; the next frame on this
            # channel must be self-describing or the sides desynchronise.
            self._codec.force_resync((wait.process, wait.peer))
        _resolve(wait.token, RuntimeDeadlockError(reason))

    # ------------------------------------------------------------------
    @property
    def wire_format(self) -> str:
        """The negotiated piggyback wire format of this transport."""
        return self._wire_format

    def wire_summary(self) -> Optional[Dict[str, int]]:
        """Codec frame/byte counters, or ``None`` in ``full`` mode."""
        if self._codec is None:
            return None
        with self._lock:
            return self._codec.stats_dict()


def _resolve(wait: Optional[_Wait], outcome: Any) -> None:
    if wait is not None:
        wait.outcome = outcome
        wait.cond.notify()


# ----------------------------------------------------------------------
# Runner
# ----------------------------------------------------------------------
class ScriptRunner:
    """Runs one script per process on its own thread.

    >>> from repro.graphs.generators import path_topology
    >>> from repro.graphs.decomposition import decompose
    >>> decomposition = decompose(path_topology(2))
    >>> runner = ScriptRunner(decomposition, {
    ...     "P1": [send("P2", "hello")],
    ...     "P2": [receive("P1")],
    ... })
    >>> transport = runner.run()
    >>> [entry.payload for entry in transport.log]
    ['hello']
    """

    def __init__(
        self,
        decomposition: EdgeDecomposition,
        scripts: Dict[Process, Sequence[Action]],
        timeout: float = 10.0,
        join_timeout: Optional[float] = None,
        wire_format: str = "full",
    ):
        unknown = [
            p for p in scripts if p not in decomposition.graph.vertices
        ]
        if unknown:
            raise SimulationError(
                f"scripts reference unknown processes: {unknown}"
            )
        self._decomposition = decomposition
        self._scripts = {p: list(actions) for p, actions in scripts.items()}
        self._timeout = timeout
        self._wire_format = wire_format
        #: How long to wait for each worker thread after its script ran
        #: (a thread can outlive every rendezvous timeout only if it is
        #: wedged in non-transport code).  Defaults to ``2 * timeout``.
        self._join_timeout = (
            timeout * 2 if join_timeout is None else join_timeout
        )

    def run(self, raise_on_error: bool = True) -> SynchronousTransport:
        """Execute all scripts; returns the transport with its log.

        With ``raise_on_error=False`` the partial execution survives
        per-thread failures (timeouts caused by an injected crash, for
        example); the collected exceptions are available on the returned
        transport's :attr:`SynchronousTransport.errors`.
        """
        transport = SynchronousTransport(
            self._decomposition,
            timeout=self._timeout,
            wire_format=self._wire_format,
        )
        errors: List[BaseException] = []
        errors_lock = threading.Lock()

        def worker(process: Process, actions: List[Action]) -> None:
            fr = _flightrec.recorder
            if fr is not None:
                fr.record(
                    _flightrec.SCRIPT_START,
                    process,
                    actions=len(actions),
                )
            try:
                for action in actions:
                    if isinstance(action, SendAction):
                        transport.send(process, action.to, action.payload)
                    elif isinstance(action, ReceiveAction):
                        transport.receive(process, action.source)
                    elif isinstance(action, ComputeAction):
                        transport.record_internal(process, action.label)
                    elif isinstance(action, CrashAction):
                        if fr is not None:
                            fr.record(
                                _flightrec.CRASH,
                                process,
                                reason=action.reason,
                            )
                        return  # fault injection: abandon the script
                    else:
                        raise SimulationError(
                            f"unknown action {action!r} on {process!r}"
                        )
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                if fr is not None:
                    fr.record(
                        _flightrec.SCRIPT_ERROR,
                        process,
                        error=repr(exc),
                    )
                with errors_lock:
                    errors.append(exc)
            else:
                if fr is not None:
                    fr.record(_flightrec.SCRIPT_END, process)

        threads = [
            threading.Thread(
                target=worker, args=(process, actions), daemon=True
            )
            for process, actions in self._scripts.items()
        ]
        thread_process = {
            thread: process
            for thread, process in zip(threads, self._scripts)
        }
        for thread in threads:
            thread.start()
        stuck: List[Process] = []
        for thread in threads:
            thread.join(self._join_timeout)
            if thread.is_alive():
                fr = _flightrec.recorder
                if fr is not None:
                    fr.record(
                        _flightrec.DEADLOCK,
                        thread_process[thread],
                        note="thread still alive after join timeout",
                    )
                stuck.append(thread_process[thread])
        if stuck:
            # The abandoned daemon threads may still be parked inside a
            # rendezvous; poison the transport so nothing matches their
            # leftovers, and surface the condition as a collected error
            # (previously a raise_on_error=False run returned normally
            # with only a flight-record note).
            stuck_error = RuntimeDeadlockError(
                f"process thread(s) {sorted(map(str, stuck))} failed to "
                "finish; check the scripts for unmatched sends/receives"
            )
            transport.poison(
                "transport poisoned: " + str(stuck_error)
            )
            with errors_lock:
                errors.append(stuck_error)
            transport.errors = list(errors)
            if raise_on_error:
                raise stuck_error
            return transport
        transport.errors = list(errors)
        if errors and raise_on_error:
            raise errors[0]
        return transport
