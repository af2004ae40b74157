"""Correctness checks, run outside every timed window.

Each check returns a list of failure messages; an empty list passes.
They take the outputs the benchmark measured, so a test can hand them a
corrupted stamp and see the gate trip.
"""

from __future__ import annotations

import random
from typing import Dict, List, Mapping

from repro.clocks.offline import theorem8_bound
from repro.clocks.online import OnlineEdgeClock
from repro.core.fastpath import stamp_batch, stamp_batch_wire
from repro.sim.wire import encode_vector

#: Frames decoded with ``verify=True`` at the start of each trace.
VERIFY_PREFIX = 1000
#: Message pairs on which the online and offline orders are compared.
SAMPLED_PAIRS = 2000


def _first_difference(actual: Mapping, expected: Mapping, what: str):
    if len(actual) != len(expected):
        return [f"{what}: {len(actual)} stamps, expected {len(expected)}"]
    for message, stamp in expected.items():
        got = actual.get(message)
        if got is None or tuple(got) != tuple(stamp):
            return [f"{what}: {message!r} stamped {got!r}, expected {stamp!r}"]
    return []


def check_online(trace, decomposition, stamps: Mapping) -> List[str]:
    """Batch stamps equal the per-process Figure 5 handshake, and every
    delta frame of a prefix decodes to the vector it encoded."""
    reference = OnlineEdgeClock(
        decomposition
    ).timestamp_computation_handshake(trace)
    failures = _first_difference(
        stamps, dict(reference.items()), "online stamps vs handshake"
    )
    prefix = [(m.sender, m.receiver) for m in trace.messages[:VERIFY_PREFIX]]
    try:
        stamp_batch_wire(prefix, decomposition, "delta", verify=True)
    except ValueError as exc:
        failures.append(f"delta frame did not decode exactly: {exc}")
    return failures


def check_offline(trace, online: Mapping, offline: Mapping, seed: int,
                  width: int) -> List[str]:
    """Theorem 4 on sampled pairs: the online and offline vectors agree
    on ``↦``; and the realizer width obeys Theorem 8."""
    failures = []
    bound = theorem8_bound(trace)
    if width > bound:
        failures.append(f"offline width {width} exceeds floor(N/2)={bound}")
    messages = trace.messages
    if len(messages) < 2:
        return failures
    rng = random.Random(seed)
    for _ in range(SAMPLED_PAIRS):
        a, b = rng.sample(messages, 2)
        on = online[a] < online[b]
        off = offline[a] < offline[b]
        if on != off:
            failures.append(
                f"{a!r} -> {b!r}: online says {on}, offline says {off}"
            )
            break
    return failures


def check_runtime(transport, scheduled: int, failed: int) -> List[str]:
    """Every scheduled message either committed or was reported failed,
    and the committed stamps are byte-identical to batch stamping of the
    committed computation."""
    failures = []
    committed = transport.log
    if len(committed) + failed != scheduled:
        failures.append(
            f"{len(committed)} committed + {failed} reported failed "
            f"!= {scheduled} scheduled"
        )
    computation = transport.as_computation()
    expected: Dict = stamp_batch(computation, transport.decomposition)
    for message, entry in zip(computation.messages, committed):
        if encode_vector(entry.timestamp) != encode_vector(expected[message]):
            failures.append(
                f"committed {message!r} carries {entry.timestamp!r}, "
                f"batch stamping gives {expected[message]!r}"
            )
            break
    return failures


def runtime_failures(transport, scheduled: int) -> int:
    """Messages lost to timeouts, node errors or poisoning.

    Only failures the runtime reported count here; a message missing
    without a report is a correctness failure (see
    :func:`check_runtime`).
    """
    if not (transport.errors or transport.poisoned or transport.stats.timeouts):
        return 0
    return scheduled - len(transport.log)
