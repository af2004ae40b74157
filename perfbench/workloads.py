"""Seeded inputs and the timed passes of the three workloads.

Every workload runs the same three passes over its own inputs:

* ``runtime``: a closed loop of one client and one server through the
  socket runtime (:mod:`repro.sim.distributed`), one OS process per
  node, carrying the workload's vectors in its wire format;
* ``online``: ``stamp_batch_wire(trace, d, "delta")``, the Figure 5
  merge plus encoding of both handshake legs;
* ``offline``: ``OfflineRealizerClock(workers=nproc)`` (Figure 9).

``federated`` and ``hub`` generate :data:`TRACES` traces from the seed,
and their runtime loop runs on the channel of the first message, with
the workload's decomposition.  ``rendezvous`` is ``run_load`` with one
client and one server, and its stamping passes stamp the trace its gate
run committed.  The program receives only the generated traces or
scripts.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.clocks import offline as offline_mod
from repro.core import fastpath
from repro.graphs import decomposition as decomposition_mod
from repro.graphs.generators import client_server_topology
from repro.sim import distributed
from repro.sim.runtime import ReceiveAction, SendAction
from repro.sim.workload import multi_cluster_computation, random_computation

#: Input sizes: messages per cluster (federated), per trace (hub), and
#: per runtime pass.  ``full`` is what the benchmark measures; ``tiny``
#: is a seconds-long smoke run for the benchmark's own tests.
SIZES = {
    "full": {"federated": 500, "hub": 3000, "runtime": 2000},
    "tiny": {"federated": 30, "hub": 120, "runtime": 120},
}
#: Traces per stamping workload.  Offline cost varies by ~10% from one
#: random trace to the next (measured over five seeds, interleaved in
#: one process), so a run stamps several and pools their passes.
TRACES = 4

#: Federated shape: independent 8-server x 22-client clusters.
CLUSTERS = 4
#: Hub shape: ``client_server_topology(3, 27)``.
HUB_SERVERS, HUB_CLIENTS = 3, 27
#: Generous per-operation deadline; a healthy run never comes near it.
RUNTIME_TIMEOUT = 30.0


def worker_count() -> int:
    return len(os.sched_getaffinity(0))


@dataclass
class Inputs:
    name: str
    seed: int
    wire_format: str
    payload: str
    #: Messages each runtime pass schedules.
    scheduled: int
    topology: object = None
    traces: List = field(default_factory=list)
    scripts: Optional[Dict] = None
    decomposition: object = None


def build_inputs(name: str, seed: int, size: str = "full") -> Inputs:
    """The workload's inputs, a function of ``seed`` alone."""
    rng = random.Random(seed)
    sizes = SIZES[size]
    scheduled = sizes["runtime"]
    payload = f"{rng.getrandbits(64):016x}"
    if name == "rendezvous":
        return Inputs(name, seed, "full", payload, scheduled)
    if name == "federated":
        traces = [
            multi_cluster_computation(CLUSTERS, sizes[name], rng)
            for _ in range(TRACES)
        ]
    elif name == "hub":
        topology = client_server_topology(HUB_SERVERS, HUB_CLIENTS)
        traces = [
            random_computation(topology, sizes[name], rng)
            for _ in range(TRACES)
        ]
    else:
        raise ValueError(f"unknown workload {name!r}")
    first = traces[0].messages[0]
    scripts = {
        first.sender: [SendAction(first.receiver, payload)] * scheduled,
        first.receiver: [ReceiveAction(first.sender)] * scheduled,
    }
    return Inputs(
        name, seed, "delta", payload, scheduled,
        topology=traces[0].topology, traces=traces, scripts=scripts,
    )


@dataclass
class Pass:
    window: float
    output: object = None


def decompose(inputs: Inputs) -> Pass:
    """One set-up: decompose the topology."""
    started = time.perf_counter()
    inputs.decomposition = decomposition_mod.decompose(inputs.topology)
    return Pass(time.perf_counter() - started)


def runtime_pass(inputs: Inputs) -> Pass:
    """One socket-runtime run; ``output`` is the transport."""
    if inputs.name == "rendezvous":
        started = time.perf_counter()
        transport = distributed.run_load(
            server_count=1,
            client_count=1,
            messages_per_client=inputs.scheduled,
            timeout=RUNTIME_TIMEOUT,
            payload=inputs.payload,
            raise_on_error=False,
        )
        return Pass(time.perf_counter() - started, transport)
    runner = distributed.DistributedScriptRunner(
        inputs.decomposition,
        inputs.scripts,
        timeout=RUNTIME_TIMEOUT,
        wire_format=inputs.wire_format,
    )
    started = time.perf_counter()
    transport = runner.run(raise_on_error=False)
    return Pass(time.perf_counter() - started, transport)


def online_pass(inputs: Inputs, trace) -> Pass:
    """``output`` is ``(timestamps, WireBatchStats)``."""
    started = time.perf_counter()
    result = fastpath.stamp_batch_wire(
        trace, inputs.decomposition, wire_format="delta"
    )
    return Pass(time.perf_counter() - started, result)


def kernel_pass(inputs: Inputs, trace) -> Pass:
    """The merge kernel alone, no codec (traced run only)."""
    started = time.perf_counter()
    fastpath.stamp_batch(trace, inputs.decomposition)
    return Pass(time.perf_counter() - started)


def offline_pass(inputs: Inputs, trace) -> Pass:
    """``output`` is ``(timestamps, width)``."""
    clock = offline_mod.OfflineRealizerClock(workers=worker_count())
    started = time.perf_counter()
    stamps = clock.timestamp_computation(trace)
    window = time.perf_counter() - started
    return Pass(window, (dict(stamps.items()), clock.timestamp_size))


def adopt_committed_trace(inputs: Inputs, transport) -> None:
    """``rendezvous`` stamps the trace its gate run committed."""
    inputs.traces = [transport.as_computation()]
    inputs.topology = inputs.traces[0].topology
    inputs.decomposition = transport.decomposition


def describe(inputs: Inputs) -> str:
    trace = inputs.traces[0]
    return (
        f"workload {inputs.name}  seed {inputs.seed}  "
        f"traces {len(inputs.traces)} x {len(trace.messages)} messages  "
        f"processes {len(trace.processes)}  "
        f"runtime {inputs.scheduled} messages, wire {inputs.wire_format}  "
        f"workers {worker_count()}"
    )
