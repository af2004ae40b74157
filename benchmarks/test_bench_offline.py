"""Experiment batch — offline (Figure 9) pipeline, old vs. new kernel.

Runs the complete offline realizer pipeline — message-poset closure,
Dilworth chain partition, chain-forced realizer, rank vectors — twice:

* **reference** — :func:`tests.core.poset_oracle.reference_offline`,
  the seed dict-of-sets poset kernel (per-element ``set`` closure and
  hash-probing pair machinery), a list-fed Hopcroft–Karp and the frozen
  per-chain realizer sweep of :mod:`tests.core.realizer_oracle`;
* **bitset** — the library on :class:`repro.core.poset.Poset`'s bitmask
  rows: word-parallel closure, mask-fed Hopcroft–Karp, cover-row
  realizer sweeps.

Workloads are the 1k-message client–server scalability run and a
5k-message run of the same shape (width 3), plus a wide row: four
independent 8x22 client/server clusters of 500 messages each (width
32), where the realizer's one sweep per chain is the largest offline
phase.  Before any timing is recorded the two pipelines are pinned to
byte-identical timestamps and realizers, and the library's ``_obs``
width and message counters to the oracle's.  Results land in
``BENCH_offline.json`` (``make bench-offline``); with
``BENCH_OFFLINE_SMOKE=1`` (the CI smoke step) everything runs one round
at reduced sizes and the committed snapshot is left untouched.
"""

from __future__ import annotations

import os
import random
import time

import pytest

from benchmarks.conftest import emit, record_offline_perf
from repro.clocks.offline import OfflineRealizerClock
from repro.core.linear_extensions import realizer_from_chain_partition
from repro.core.poset import Poset
from repro.graphs.generators import client_server_topology
from repro.obs import instrument
from repro.obs.metrics import MetricsRegistry
from repro.order.message_order import covering_pairs
from repro.sim.workload import multi_cluster_computation, random_computation
from tests.core.poset_oracle import ReferencePoset, reference_offline

SMOKE = os.environ.get("BENCH_OFFLINE_SMOKE") == "1"

TOPOLOGY = client_server_topology(3, 27)  # N = 30, d = 3
SIZES = (500,) if SMOKE else (1_000, 5_000)
REPEATS = 1 if SMOKE else 3
REQUIRED_SPEEDUP = 3.0

#: The wide row: ``WIDE_CLUSTERS`` independent 8x22 clusters.  Its
#: timings are min-of-``WIDE_REPEATS``; the realizer alone runs in tens
#: of milliseconds, so it takes more repeats than the width-3 rows.
WIDE_CLUSTERS = 4
WIDE_PER_CLUSTER = 60 if SMOKE else 500
WIDE_REPEATS = 1 if SMOKE else 9


def _workload(messages: int):
    return random_computation(TOPOLOGY, messages, random.Random(11))


def _wide_workload():
    return multi_cluster_computation(
        WIDE_CLUSTERS, WIDE_PER_CLUSTER, random.Random(11)
    )


def _bitset_pipeline(computation):
    """The shipped pipeline: bitmask closure + mask-fed matcher."""
    clock = OfflineRealizerClock()
    poset = Poset(computation.messages, covering_pairs(computation))
    assignment = clock.timestamp_poset(computation, poset)
    return clock, assignment


def _best_seconds(fn, *args, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - started)
    return best


def _assert_stamps_identical(computation, new, ref) -> None:
    """``new`` is the library's ``(clock, assignment)``, ``ref`` the
    oracle's ``(realizer, stamps)``."""
    clock, assignment = new
    realizer, stamps = ref
    for message in computation.messages:
        assert (
            assignment.of(message).components == stamps[message].components
        )
    assert clock.timestamp_size == len(realizer)
    assert clock.realizer == realizer


@pytest.mark.parametrize("messages", SIZES)
def test_offline_kernels_agree_exactly(report_header, messages):
    """Byte-identical timestamps and realizer; width and message
    counters equal to the oracle's."""
    computation = _workload(messages)

    realizer, stamps = reference_offline(computation)
    with instrument.enabled_session(MetricsRegistry()) as bundle:
        clock, assignment = _bitset_pipeline(computation)
        counters = bundle.registry.snapshot()

    _assert_stamps_identical(
        computation, (clock, assignment), (realizer, stamps)
    )
    assert counters["offline_width"]["value"] == len(realizer)
    assert counters["messages_timestamped_total"]["value"] == len(stamps)

    report_header(
        f"Offline kernels: equivalence on the {messages}-message workload"
    )
    emit(
        f"{messages} messages (width {clock.timestamp_size}): "
        "timestamps and realizer identical to the oracle; "
        "offline_width and messages_timestamped_total match it"
    )


@pytest.mark.parametrize("messages", SIZES)
def test_offline_speedup_snapshot(report_header, messages):
    """The headline numbers: construction, width, and full stamping."""
    computation = _workload(messages)
    instrument.disable()

    pairs = covering_pairs(computation)
    construct_ref = _best_seconds(ReferencePoset, computation.messages, pairs)
    construct_new = _best_seconds(Poset, computation.messages, pairs)

    ref_seconds = _best_seconds(reference_offline, computation)
    new_seconds = _best_seconds(_bitset_pipeline, computation)
    speedup = ref_seconds / new_seconds

    clock, _ = _bitset_pipeline(computation)
    poset_width = clock.timestamp_size

    if not SMOKE:
        record_offline_perf(
            f"offline_{messages}",
            {
                "workload": "client-server:3x27",
                "messages": messages,
                "width": poset_width,
                "construction_reference_seconds": construct_ref,
                "construction_bitset_seconds": construct_new,
                "reference_seconds": ref_seconds,
                "bitset_seconds": new_seconds,
                "reference_messages_per_sec": messages / ref_seconds,
                "bitset_messages_per_sec": messages / new_seconds,
            },
        )

    report_header(
        f"Offline pipeline: old vs. new kernel, {messages} messages"
    )
    emit(
        f"poset construction: {construct_ref:.3f}s -> "
        f"{construct_new:.3f}s ({construct_ref / construct_new:.1f}x)"
    )
    emit(
        f"full stamping (width {poset_width}): {ref_seconds:.3f}s -> "
        f"{new_seconds:.3f}s"
    )
    emit(f"speedup: {speedup:.1f}x (required >= {REQUIRED_SPEEDUP}x)")
    assert speedup >= REQUIRED_SPEEDUP


def test_wide_offline_snapshot(report_header):
    """A width-32 poset: the realizer alone and the full pipeline."""
    computation = _wide_workload()
    messages = len(computation)
    instrument.disable()

    clock, assignment = _bitset_pipeline(computation)
    _assert_stamps_identical(
        computation, (clock, assignment), reference_offline(computation)
    )

    # Each timestamp_poset run gets a fresh poset, so no cache is warm.
    # The realizer alone then reuses posets[0], whose cover rows that
    # run has already cached: it times the sweeps and nothing else.
    pairs = covering_pairs(computation)
    posets = [
        Poset(computation.messages, pairs) for _ in range(WIDE_REPEATS)
    ]
    timestamp_poset_seconds = min(
        _best_seconds(
            OfflineRealizerClock().timestamp_poset, computation, poset,
            repeats=1,
        )
        for poset in posets
    )
    chains = clock.chain_partition
    realizer_seconds = _best_seconds(
        realizer_from_chain_partition, posets[0], chains,
        repeats=WIDE_REPEATS,
    )
    bitset_seconds = _best_seconds(
        _bitset_pipeline, computation, repeats=WIDE_REPEATS
    )

    if not SMOKE:
        record_offline_perf(
            f"offline_wide_{messages}",
            {
                "workload": f"multi-cluster:{WIDE_CLUSTERS}x(8x22)",
                "messages": messages,
                "width": clock.timestamp_size,
                "realizer_seconds": realizer_seconds,
                "timestamp_poset_seconds": timestamp_poset_seconds,
                "bitset_seconds": bitset_seconds,
                "bitset_messages_per_sec": messages / bitset_seconds,
            },
        )

    report_header(
        f"Offline pipeline: width-{clock.timestamp_size} poset, "
        f"{messages} messages"
    )
    emit(
        f"realizer alone: {realizer_seconds * 1e3:.1f} ms; "
        f"timestamp_poset: {timestamp_poset_seconds * 1e3:.1f} ms; "
        f"with poset construction: {bitset_seconds * 1e3:.1f} ms"
    )


@pytest.mark.parametrize("kernel", ["reference", "bitset"])
def test_offline_stamping_benchmark(benchmark, kernel):
    """pytest-benchmark timings for both kernels (``make bench``)."""
    messages = SIZES[0]
    computation = _workload(messages)
    instrument.disable()
    pipeline = (
        reference_offline if kernel == "reference" else _bitset_pipeline
    )
    _, assignment = benchmark(pipeline, computation)
    assert len(assignment) == messages
