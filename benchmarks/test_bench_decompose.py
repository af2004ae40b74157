"""Experiment batch — edge decomposition scaling (Figure 7, Theorem 5).

``decompose`` is the one step every deployment of the online clock pays
before its first message: Figure 7, the greedy- and matching-cover star
decompositions and the ``N-2`` construction, smallest valid result
kept.  This bench times it on ``multi_cluster_computation`` topologies
(independent 8-server x 22-client clusters, 30 processes and 176 edges
each) from 60 to 2,010 processes, min-of-N wall time per row.

Before any timing, the smallest row's groups are checked against the
frozen naive oracle in ``tests/graphs/naive_oracle.py`` (the
restart-from-scratch Figure 7 and greedy cover), and every row's size
must be the 8 stars per cluster that the vertex cover gives.

Each row carries ``parent_seconds``: the same min-of-3 ``decompose``
wall time of the naive implementation, measured on the same machine
(shared 2-vCPU x86-64 VM, CPython 3.11).  The 2,010-process row has
none: the naive version grows about 8x per doubling and was not run.

Gate: the per-edge cost of the largest row may be at most
``MAX_PER_EDGE_GROWTH`` times that of the smallest — a near-linear
decomposition keeps it near 1, the cubic one was ~50x at 360 processes.

Results land in ``BENCH_decompose.json`` (``make bench-decompose``);
with ``BENCH_DECOMPOSE_SMOKE=1`` (the CI smoke step) only the two
smallest rows run and the committed snapshot is left untouched.
"""

from __future__ import annotations

import os
import random
import time

from benchmarks.conftest import emit, record_decompose_perf
from repro.graphs.decomposition import decompose
from repro.obs import instrument
from repro.sim.workload import multi_cluster_computation
from tests.graphs.naive_oracle import naive_decompose

SMOKE = os.environ.get("BENCH_DECOMPOSE_SMOKE") == "1"

SERVERS = 8
CLIENTS = 22

#: ``(clusters, parent_seconds)``; ``parent_seconds`` is ``None`` where
#: the naive implementation was not run.
WORKLOADS = [(2, 0.1269), (4, 1.0577), (8, 6.8216), (12, 22.2436), (67, None)]
if SMOKE:
    WORKLOADS = WORKLOADS[:2]
REPEATS = 5
MAX_PER_EDGE_GROWTH = 3.0


def _topology(clusters: int):
    computation = multi_cluster_computation(
        clusters,
        1,
        random.Random(clusters),
        server_count=SERVERS,
        client_count=CLIENTS,
    )
    return computation.topology


def _best_of(repeats, thunk) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        thunk()
        best = min(best, time.perf_counter() - started)
    return best


def test_decompose_scaling_snapshot(benchmark, report_header):
    instrument.disable()
    graphs = [(clusters, _topology(clusters)) for clusters, _ in WORKLOADS]

    smallest = graphs[0][1]
    assert decompose(smallest).groups == naive_decompose(smallest).groups

    report_header("decompose scaling on multi-cluster topologies")
    per_edge = []
    for (clusters, graph), (_, parent_seconds) in zip(graphs, WORKLOADS):
        size = decompose(graph).size
        assert size == SERVERS * clusters
        seconds = _best_of(REPEATS, lambda: decompose(graph))
        name = f"multi-cluster:{clusters}x{SERVERS}x{CLIENTS}"
        row = {
            "workload": name,
            "processes": graph.vertex_count(),
            "edges": graph.edge_count(),
            "repeats": REPEATS,
            "seconds": seconds,
            "edges_per_sec": graph.edge_count() / seconds,
            "online_vector_size": size,
        }
        parent = "not run"
        if parent_seconds is not None:
            row["parent_seconds"] = parent_seconds
            parent = f"{parent_seconds:.3f}s"
        record_decompose_perf(name, row)
        per_edge.append(seconds / graph.edge_count())
        emit(
            f"{graph.vertex_count():>5} processes, {graph.edge_count():>6} "
            f"edges: {size:>4} groups in {seconds:.4f}s "
            f"(naive: {parent})"
        )

    growth = per_edge[-1] / per_edge[0]
    emit(
        f"per-edge cost, largest / smallest row: {growth:.2f}x "
        f"(gate <= {MAX_PER_EDGE_GROWTH}x)"
    )
    assert growth <= MAX_PER_EDGE_GROWTH

    largest = graphs[-1][1]
    benchmark.pedantic(decompose, args=(largest,), rounds=REPEATS)
