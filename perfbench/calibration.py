"""Host-speed calibration between passes.

The host is shared.  Neighbours on the same physical cores slow a
CPU-bound Python loop by up to 2x for seconds at a time, and they delay
process wake-ups, which is what the socket runtime's closed loop waits
on.  So between passes the benchmark times two fixed probes:

* ``cpu``: a pure-Python dict loop, the kind of work stamping does;
* ``ipc``: round trips of a 16-byte message over a socketpair to a
  helper process, the kind of wait a rendezvous does.

A pass's slowdown on a probe is the mean of the probe on either side of
it over the probe's reference time, measured on a quiet core of the
machine the benchmark was tuned on (2-vCPU x86-64 VM, CPython 3.11).
Timings are reported divided by the slowdown and rates multiplied by it.
"""

from __future__ import annotations

import os
import socket
import time
from typing import Dict

#: Probe seconds on a quiet core of the tuning machine.
REFERENCE_S = {"cpu": 0.015, "ipc": 0.008}
IPC_ROUND_TRIPS = 1000


def cpu_probe() -> float:
    started = time.perf_counter()
    best: Dict[int, int] = {}
    for i in range(60000):
        key = i & 1023
        best[key] = max(best.get(key, 0), i)
    return time.perf_counter() - started


class Calibration:
    """Owns the ``ipc`` helper process; close it when done."""

    def __init__(self) -> None:
        self._sock, peer = socket.socketpair()
        self._pid = os.fork()
        if self._pid == 0:  # pragma: no cover - runs in the helper
            self._sock.close()
            try:
                while True:
                    data = peer.recv(64)
                    if not data:
                        break
                    peer.sendall(data)
            finally:
                os._exit(0)
        peer.close()
        self.restart()

    def restart(self) -> None:
        """Probe now, as the "before" side of the next pass."""
        self._last = self._probe()

    def _probe(self) -> Dict[str, float]:
        sock = self._sock
        started = time.perf_counter()
        for _ in range(IPC_ROUND_TRIPS):
            sock.sendall(b"calibration-ping")
            sock.recv(64)
        ipc = time.perf_counter() - started
        return {"cpu": cpu_probe(), "ipc": ipc}

    def slowdown(self) -> Dict[str, float]:
        """Slowdown on each probe over the pass that just ended."""
        before, after = self._last, self._probe()
        self._last = after
        return {
            probe: (before[probe] + after[probe]) / (2 * REFERENCE_S[probe])
            for probe in REFERENCE_S
        }

    def close(self) -> None:
        self._sock.close()
        os.waitpid(self._pid, 0)
