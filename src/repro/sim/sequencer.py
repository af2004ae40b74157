"""The rendezvous commit protocol, once, as a pure event-driven state machine.

Both runtimes — the threaded :class:`~repro.sim.runtime.SynchronousTransport`
and the socket coordinator of :mod:`repro.sim.distributed` — are thin
drivers over one :class:`Sequencer`.  The sequencer owns every rule of
the rendezvous semantics the paper's online clock (Figure 5) assumes:

* a send **offer** parks in its receiver's inbox;
* a **receive** (optionally filtered on one source) matches the oldest
  compatible offer, and the pair is handed to the driver to *deliver*;
* the receiver's **acknowledgement** commits the message to the global
  log; the driver then *completes* the sender;
* every parked wait carries a monotonic deadline (``now + timeout``,
  fixed when the wait starts and never moved by unrelated traffic), and
  so does every delivered pair awaiting its acknowledgement; an input
  at or past a deadline first expires it, so a stale offer is reclaimed
  before anything could match it;
* a **departed** node's parked waits are abandoned, and a delivered
  pair whose receiver departs times out on both sides;
* a **poisoned** sequencer refuses every further input.

It performs no I/O: no sockets, threads, locks or clock reads.  Every
input carries ``now``, and inputs apply in call order (callers
serialise them: the threaded driver under its lock, the coordinator on
its single event-loop thread).  Effects go to a :class:`Driver`
(deliver, complete, timeout), so tests drive the machine directly with
a recording fake — see ``tests/sim/test_sequencer.py``.

The sequencer is also the single call site of the rendezvous
observability hooks: the flight recorder's ``send_offer``,
``block_start``/``block_end``, ``rendezvous`` and ``internal`` events,
the live Theorem-4 auditor, and the ``rendezvous_*`` and
``piggyback_quantiles`` metrics.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Protocol, Tuple

from repro.core.vector import VectorTimestamp
from repro.exceptions import SimulationError
from repro.graphs.decomposition import EdgeDecomposition
from repro.obs import audit as _audit
from repro.obs import flightrec as _flightrec
from repro.obs import instrument as _obs
from repro.sim.computation import (
    EventedComputation,
    InternalEvent,
    Process,
    SyncComputation,
)

SEND = "send"
RECEIVE = "receive"

#: Life cycle of a :class:`Wait`: parked, then matched (delivered and
#: awaiting the acknowledgement), then done (committed or timed out).
PARKED, MATCHED, DONE = 0, 1, 2


@dataclass(frozen=True)
class DeliveredMessage:
    """One committed rendezvous, in global commit order."""

    order: int
    sender: Process
    receiver: Process
    payload: Any
    timestamp: VectorTimestamp


class Wait:
    """One side of a rendezvous: a parked send offer or receive.

    ``peer`` is the receiver of a send; for a receive it is the source
    filter (or ``None``) until the wait matches, then the sender.
    ``partner`` links the two sides once they match (the offer's link
    is dropped after its final effect).  ``token`` is opaque driver
    data (the threaded driver's per-thread wait); ``waited`` is the
    blocking time, set when the wait ends.
    """

    __slots__ = (
        "process", "op", "peer", "t_start", "deadline", "token",
        "state", "partner", "payload", "piggy", "ack", "ack_deadline",
        "waited",
    )

    def __init__(
        self, process: Process, op: str, peer: Any, now: float,
        deadline: float, token: Any, payload: Any = None,
        piggy: Any = None,
    ):
        self.process = process
        self.op = op
        self.peer = peer
        self.t_start = now
        self.deadline = deadline
        self.token = token
        self.state = PARKED
        self.partner: Optional[Wait] = None
        self.payload = payload
        self.piggy = piggy
        self.ack: Any = None
        self.ack_deadline = 0.0
        self.waited = 0.0


class Driver(Protocol):
    """Where a :class:`Sequencer` sends its effects."""

    def on_deliver(self, offer: Wait) -> None:
        """``offer`` matched ``offer.partner``; hand it to the receiver."""

    def on_complete(self, offer: Wait, entry: DeliveredMessage) -> None:
        """``entry`` committed; hand ``offer.ack`` back to the sender."""

    def on_timeout(self, wait: Wait, reason: str) -> None:
        """``wait`` ended without a commit; fail it with ``reason``."""


class _Deadlines:
    """Waits in deadline order; entries that left ``state`` drop lazily.

    Deadlines are ``now + timeout`` with a non-decreasing ``now``, so
    arrival order is deadline order.  Dead entries behind a long-lived
    head are compacted away once they outnumber the live ones.
    """

    __slots__ = ("queue", "state", "limit")

    def __init__(self, state: int):
        self.queue: deque = deque()
        self.state = state
        self.limit = 64

    def push(self, wait: Wait) -> None:
        self.queue.append(wait)
        if len(self.queue) > self.limit:
            state = self.state
            self.queue = deque(w for w in self.queue if w.state == state)
            self.limit = 2 * len(self.queue) + 64

    def head(self) -> Optional[Wait]:
        queue = self.queue
        while queue:
            wait = queue[0]
            if wait.state == self.state:
                return wait
            queue.popleft()
        return None


class CommittedRun:
    """The post-run surface both runtimes expose.

    A :class:`Sequencer` appends to ``_log`` and ``_internal``; every
    verifier — the Equation (1) checker, the live audit, recovery
    analysis — reads a run through these methods, whichever runtime
    produced it.
    """

    def __init__(self, decomposition: EdgeDecomposition):
        self._decomposition = decomposition
        self._log: List[DeliveredMessage] = []
        self._internal: Dict[Process, List[InternalEvent]] = {
            p: [] for p in decomposition.graph.vertices
        }

    @property
    def decomposition(self) -> EdgeDecomposition:
        return self._decomposition

    @property
    def log(self) -> List[DeliveredMessage]:
        """Committed messages in global commit order."""
        return list(self._log)

    def as_computation(self) -> SyncComputation:
        """Rebuild the equivalent :class:`SyncComputation` from the log.

        The commit order is consistent with every per-process order, so
        the rebuilt computation has the same message poset the run
        actually produced.
        """
        pairs = [(entry.sender, entry.receiver) for entry in self.log]
        return SyncComputation.from_pairs(self._decomposition.graph, pairs)

    def collected_timestamps(self) -> List[VectorTimestamp]:
        """Timestamps in commit order (aligned with ``as_computation``)."""
        return [entry.timestamp for entry in self.log]

    def as_evented_computation(self) -> EventedComputation:
        """The run including its compute actions as internal events.

        Feed the result to
        :func:`repro.clocks.events.timestamp_internal_events` together
        with the message assignment to obtain Section 5 triples for
        every compute action.
        """
        computation = self.as_computation()
        events = [
            event
            for process in self._decomposition.graph.vertices
            for event in list(self._internal[process])
        ]
        return EventedComputation(computation, events)


class Sequencer:
    """The rendezvous state machine; see the module docstring.

    ``piggy_size`` measures a piggyback (offer or acknowledgement) in
    bytes for ``piggyback_quantiles``; the default suits encoded
    frames.
    """

    def __init__(
        self,
        run: CommittedRun,
        timeout: float,
        driver: Driver,
        piggy_size: Callable[[Any], int] = len,
    ):
        processes = run.decomposition.graph.vertices
        self._run = run
        self._timeout = timeout
        self._driver = driver
        self._piggy_size = piggy_size
        self._inboxes: Dict[Process, List[Wait]] = {p: [] for p in processes}
        self._receiving: Dict[Process, Wait] = {}
        self._acking: Dict[Process, Wait] = {}
        self._parked = _Deadlines(PARKED)
        self._matched = _Deadlines(MATCHED)
        #: External events (sends + receives) per process: the slot of
        #: the process's next internal event.
        self.message_counts: Dict[Process, int] = {p: 0 for p in processes}
        self._slot_counter: Dict[Process, Tuple[int, int]] = {}
        self._serial = 0
        self._now = float("-inf")
        #: Poison reason once the run is abandoned, else ``None``.
        self.poisoned: Optional[str] = None

    # -- inputs --------------------------------------------------------
    def offer(
        self, sender: Process, to: Process, payload: Any, piggy: Any,
        now: float, token: Any = None,
    ) -> Wait:
        """A blocking send from ``sender`` to ``to`` starts."""
        now = self._enter(now)
        inbox = self._inboxes.get(to)
        if inbox is None:
            raise SimulationError(
                f"offer from {sender!r} to unknown process {to!r}"
            )
        offer = Wait(
            sender, SEND, to, now, now + self._timeout, token, payload,
            piggy,
        )
        fr = _flightrec.recorder
        if fr is not None:
            fr.record(_flightrec.SEND_OFFER, sender, peer=to)
            fr.record(_flightrec.BLOCK_START, sender, peer=to, op=SEND)
        recv = self._receiving.get(to)
        if recv is not None and (recv.peer is None or recv.peer == sender):
            # A parked receive had no compatible offer before this one,
            # so this is the oldest compatible offer.
            del self._receiving[to]
            self._match(recv, offer, now)
        else:
            inbox.append(offer)
            self._parked.push(offer)
        return offer

    def recv(
        self, receiver: Process, source: Optional[Process], now: float,
        token: Any = None,
    ) -> Wait:
        """A blocking receive on ``receiver`` (from ``source``) starts."""
        now = self._enter(now)
        if receiver in self._receiving or receiver in self._acking:
            raise SimulationError(f"{receiver!r} issued overlapping receives")
        recv = Wait(
            receiver, RECEIVE, source, now, now + self._timeout, token
        )
        fr = _flightrec.recorder
        if fr is not None:
            fr.record(
                _flightrec.BLOCK_START, receiver, peer=source, op=RECEIVE
            )
        inbox = self._inboxes[receiver]
        for position, offer in enumerate(inbox):
            if source is None or offer.process == source:
                del inbox[position]
                self._match(recv, offer, now)
                return recv
        self._receiving[receiver] = recv
        self._parked.push(recv)
        return recv

    def ack(
        self, receiver: Process, timestamp: VectorTimestamp, ack: Any,
        now: float,
    ) -> DeliveredMessage:
        """The receiver acknowledges its delivery: commit the message."""
        now = self._enter(now)
        recv = self._acking.pop(receiver, None)
        if recv is None:
            raise SimulationError(
                f"unsolicited acknowledgement from {receiver!r}"
            )
        offer = recv.partner
        sender = offer.process
        recv.state = offer.state = DONE
        offer.ack = ack
        recv.waited = now - recv.t_start
        offer.waited = now - offer.t_start
        log = self._run._log
        entry = DeliveredMessage(
            len(log), sender, receiver, offer.payload, timestamp
        )
        log.append(entry)
        self.message_counts[sender] += 1
        self.message_counts[receiver] += 1
        m = _obs.metrics
        if m is not None:
            m.rendezvous_total.inc()
            for waited in (recv.waited, offer.waited):
                m.rendezvous_wait_seconds.observe(waited)
                m.rendezvous_block_seconds.observe(waited)
                m.rendezvous_block_quantiles.observe(waited)
            m.piggyback_quantiles.observe(self._piggy_size(offer.piggy))
            m.piggyback_quantiles.observe(self._piggy_size(ack))
        fr = _flightrec.recorder
        if fr is not None:
            fr.record(
                _flightrec.BLOCK_END, receiver, peer=sender, op=RECEIVE,
                status="matched", seconds=recv.waited,
            )
            fr.record(
                _flightrec.RENDEZVOUS, receiver, peer=sender,
                commit_order=entry.order, payload=repr(offer.payload),
            )
        aud = _audit.auditor
        if aud is not None:
            # Inputs are serialised, so the auditor sees messages in
            # exactly the order the log records them.
            aud.on_runtime_message(sender, receiver, timestamp)
        self._driver.on_complete(offer, entry)
        if fr is not None:
            fr.record(
                _flightrec.BLOCK_END, sender, peer=receiver, op=SEND,
                status="matched", seconds=offer.waited,
            )
        offer.partner = None  # no reference cycle outlives the pair
        return entry

    def internal(
        self, process: Process, label: str, now: float
    ) -> InternalEvent:
        """Record an internal event of ``process`` (a compute action).

        The event lands in the slot after the process's current external
        events; the per-slot counter is exactly the paper's ``c(e)``.
        """
        self._enter(now)
        slot = self.message_counts[process]
        last_slot, counter = self._slot_counter.get(process, (slot, 0))
        counter = counter + 1 if last_slot == slot else 1
        self._slot_counter[process] = (slot, counter)
        self._serial += 1
        event = InternalEvent(
            process, slot, counter, f"{label}#{self._serial}"
        )
        self._run._internal[process].append(event)
        fr = _flightrec.recorder
        if fr is not None:
            fr.record(
                _flightrec.INTERNAL, process, label=event.name, slot=slot
            )
        return event

    def tick(self, now: float) -> None:
        """The deadline sweep: expire every wait due at ``now``."""
        self._enter(now)

    def depart(self, process: Process, now: float) -> None:
        """``process`` finished or vanished: abandon its pending waits."""
        now = self._enter(now)
        reason = f"{process!r} departed with a rendezvous pending"
        recv = self._receiving.pop(process, None)
        if recv is not None:
            self._expire(recv, reason, now)
        for inbox in self._inboxes.values():
            gone = [offer for offer in inbox if offer.process == process]
            if gone:
                inbox[:] = [o for o in inbox if o.process != process]
                for offer in gone:
                    self._expire(offer, reason, now)
        recv = self._acking.pop(process, None)
        if recv is not None:
            self._expire_pair(
                recv,
                f"receiver {process!r} vanished before acknowledging",
                reason,
                now,
            )

    def poison(self, reason: str) -> None:
        """Abandon the run: every later input raises."""
        if self.poisoned is not None:
            raise SimulationError(self.poisoned)
        self.poisoned = reason

    # -- queries -------------------------------------------------------
    def next_deadline(self) -> Optional[float]:
        """The earliest pending deadline, or ``None`` when idle."""
        best = None
        parked = self._parked.head()
        if parked is not None:
            best = parked.deadline
        matched = self._matched.head()
        if matched is not None and (
            best is None or matched.ack_deadline < best
        ):
            best = matched.ack_deadline
        return best

    def open_waits(self) -> Dict[Process, Tuple[str, Any, float]]:
        """``process -> (op, peer, since)`` for every unmatched wait.

        Matched-but-unacknowledged pairs are excluded: they are
        mid-commit, not waiting on a peer.
        """
        waits: Dict[Process, Tuple[str, Any, float]] = {}
        for to, inbox in self._inboxes.items():
            for offer in inbox:
                waits[offer.process] = (SEND, to, offer.t_start)
        for receiver, recv in self._receiving.items():
            waits[receiver] = (RECEIVE, recv.peer, recv.t_start)
        return waits

    def blocked(self) -> frozenset:
        """Processes parked in a rendezvous, matched pairs included."""
        blocked = set(self._receiving)
        for inbox in self._inboxes.values():
            blocked.update(offer.process for offer in inbox)
        for receiver, recv in self._acking.items():
            blocked.add(receiver)
            blocked.add(recv.peer)
        return frozenset(blocked)

    # -- rules ---------------------------------------------------------
    def _enter(self, now: float) -> float:
        """Refuse input once poisoned; apply every deadline up to ``now``."""
        if self.poisoned is not None:
            raise SimulationError(self.poisoned)
        if now < self._now:
            now = self._now
        else:
            self._now = now
        parked = self._parked.head()
        while parked is not None and parked.deadline <= now:
            # Stale-offer reclamation: the wait leaves its inbox in the
            # same step that times it out, so no later receive can match
            # a departed sender and commit a ghost message.
            if parked.op == SEND:
                self._inboxes[parked.peer].remove(parked)
                reason = (
                    f"send from {parked.process!r} to {parked.peer!r} "
                    "timed out; no matching receive"
                )
            else:
                del self._receiving[parked.process]
                reason = (
                    f"receive on {parked.process!r} "
                    f"(from {parked.peer!r}) timed out"
                )
            self._expire(parked, reason, now)
            parked = self._parked.head()
        matched = self._matched.head()
        while matched is not None and matched.ack_deadline <= now:
            receiver = matched.process
            del self._acking[receiver]
            self._expire_pair(
                matched,
                f"receiver {receiver!r} never acknowledged",
                f"receiver {receiver!r} never acknowledged a delivery "
                f"from {matched.peer!r}",
                now,
            )
            matched = self._matched.head()
        return now

    def _match(self, recv: Wait, offer: Wait, now: float) -> None:
        recv.state = offer.state = MATCHED
        recv.peer = offer.process
        recv.partner = offer
        offer.partner = recv
        recv.ack_deadline = now + self._timeout
        self._acking[recv.process] = recv
        self._matched.push(recv)
        self._driver.on_deliver(offer)

    def _expire_pair(
        self, recv: Wait, sender_reason: str, receiver_reason: str,
        now: float,
    ) -> None:
        """A delivered pair never committed: both sides time out."""
        offer = recv.partner
        self._expire(offer, sender_reason, now)
        self._expire(recv, receiver_reason, now)
        offer.partner = None  # no reference cycle outlives the pair

    def _expire(self, wait: Wait, reason: str, now: float) -> None:
        """The single timeout effect, with its hooks."""
        wait.state = DONE
        wait.waited = now - wait.t_start
        m = _obs.metrics
        if m is not None:
            m.rendezvous_wait_seconds.observe(wait.waited)
        fr = _flightrec.recorder
        if fr is not None:
            fr.record(
                _flightrec.BLOCK_END, wait.process, peer=wait.peer,
                op=wait.op, status="timeout", seconds=wait.waited,
            )
        self._driver.on_timeout(wait, reason)
