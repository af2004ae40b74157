"""Experiment batch — ideal-lattice enumeration, old vs. new kernel.

Enumerates and counts the lattice of consistent global states on two
implementations:

* **reference** — the seed layered BFS preserved in
  :func:`tests.core.poset_oracle.ideals_reference`: per-layer sets of
  frozensets, per-element closure tests, hash de-duplication;
* **kernel** — :mod:`repro.core.lattice_kernel`'s chain-indexed bitset
  walk: a minimum chain partition (width ≤ ⌊N/2⌋ by Theorem 8), ideals
  as int masks, O(width) mask operations per ideal.

Workloads are antichain-batch computations whose lattices are products
of chains — ``7^6 = 117,649`` states on the headline run and the
``2^16`` powerset of a pure antichain — well past the 50k-ideal scale
the acceptance gate names.  Before any timing is recorded the two
enumerators are pinned to identical ideal sets and counts.  Results
land in ``BENCH_lattice.json`` (``make bench-lattice``); with
``BENCH_LATTICE_SMOKE=1`` (the CI smoke step) everything runs at
reduced sizes and the committed snapshot is left untouched.
"""

from __future__ import annotations

import os
import time

import pytest

from benchmarks.conftest import emit, record_lattice_perf
from repro.core.ideals import all_ideals
from repro.core.lattice_kernel import count_ideals, iterate_ideal_masks
from repro.graphs.generators import complete_topology
from repro.obs import instrument
from repro.order.message_order import message_poset
from repro.sim.workload import adversarial_antichain_computation
from tests.core.poset_oracle import ideals_reference

SMOKE = os.environ.get("BENCH_LATTICE_SMOKE") == "1"

#: ``(name, processes, batches, required_speedup)`` — an antichain
#: batch on a clique of ``P`` processes fires ``P // 2`` pairwise-
#: concurrent messages, so the lattice is a product of ``P // 2``
#: chains of ``batches`` links: ``(batches + 1) ** (P // 2)`` ideals.
#: The pure antichain is the reference BFS's cheapest shape (every
#: closure test is against an empty set), so its gate is lower; the
#: headline >= 20x acceptance gate rides the 117,649-ideal
#: product-of-chains run, where per-ideal closure work is real.
WORKLOADS = (
    [("chain-product:12x3", 12, 3, 2.0)]  # 4^6 = 4,096 ideals
    if SMOKE
    else [
        ("antichain:32", 32, 1, 8.0),  # 2^16 = 65,536 ideals
        ("chain-product:12x6", 12, 6, 20.0),  # 7^6 = 117,649 ideals
    ]
)
REPEATS = 1 if SMOKE else 3
LIMIT = 200_000


def _poset(processes: int, batches: int):
    computation = adversarial_antichain_computation(
        complete_topology(processes), batches
    )
    return message_poset(computation)


def _best_of(repeats, thunk) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        thunk()
        best = min(best, time.perf_counter() - started)
    return best


@pytest.mark.parametrize("name,processes,batches,required", WORKLOADS)
def test_lattice_kernels_agree_exactly(
    report_header, name, processes, batches, required
):
    """Identical ideal sets and counts before any timing is recorded.

    Holding both enumerations as sets of frozensets is the expensive
    part, so the comparison runs on a reduced cousin of each workload
    (half the batches); the property suite covers random shapes.
    """
    poset = _poset(processes, batches if SMOKE else max(1, batches // 2))

    kernel_set = set(all_ideals(poset, limit=LIMIT))
    reference_set = set(ideals_reference(poset, limit=LIMIT))
    assert kernel_set == reference_set
    assert count_ideals(poset, limit=LIMIT) == len(reference_set)

    report_header(f"Lattice kernels: equivalence on {name}")
    emit(
        f"{len(poset)} elements: {len(reference_set)} ideals identical "
        "between the layered BFS and the chain-indexed kernel"
    )


@pytest.mark.parametrize("name,processes,batches,required", WORKLOADS)
def test_lattice_speedup_snapshot(
    report_header, name, processes, batches, required
):
    """The headline numbers: ideals/sec, counting vs. materializing."""
    poset = _poset(processes, batches)
    instrument.disable()

    total = count_ideals(poset, limit=LIMIT)
    assert total >= (4_000 if SMOKE else 50_000)

    reference_seconds = _best_of(
        REPEATS,
        lambda: sum(1 for _ in ideals_reference(poset, limit=LIMIT)),
    )
    kernel_seconds = _best_of(
        REPEATS,
        lambda: sum(1 for _ in iterate_ideal_masks(poset, limit=LIMIT)),
    )
    count_seconds = _best_of(
        REPEATS, lambda: count_ideals(poset, limit=LIMIT)
    )
    materialize_seconds = _best_of(
        REPEATS, lambda: sum(1 for _ in all_ideals(poset, limit=LIMIT))
    )

    speedup = reference_seconds / kernel_seconds

    if not SMOKE:
        record_lattice_perf(
            name,
            {
                "workload": name,
                "elements": len(poset),
                "ideals": total,
                "reference_seconds": reference_seconds,
                "kernel_seconds": kernel_seconds,
                "count_seconds": count_seconds,
                "materialize_seconds": materialize_seconds,
                "reference_ideals_per_sec": total / reference_seconds,
                "kernel_ideals_per_sec": total / kernel_seconds,
                "count_ideals_per_sec": total / count_seconds,
            },
        )

    report_header(f"Ideal lattice: old vs. new kernel, {name}")
    emit(
        f"{total} ideals over {len(poset)} elements "
        f"(width <= {len(poset) // 2})"
    )
    emit(
        f"enumeration: {reference_seconds:.3f}s "
        f"({total / reference_seconds:,.0f} ideals/s) -> "
        f"{kernel_seconds:.3f}s ({total / kernel_seconds:,.0f} ideals/s)"
    )
    emit(
        f"count-only: {count_seconds:.3f}s; materialized frozensets: "
        f"{materialize_seconds:.3f}s"
    )
    emit(f"speedup: {speedup:.1f}x (required >= {required}x)")
    assert speedup >= required
    # Counting must never pay the frozenset materialization cost.
    assert count_seconds < materialize_seconds


@pytest.mark.parametrize("kernel", ["reference", "bitset"])
def test_lattice_enumeration_benchmark(benchmark, kernel):
    """pytest-benchmark timings for both enumerators (``make bench``)."""
    name, processes, batches, _required = WORKLOADS[-1]
    poset = (
        _poset(processes, batches)
        if SMOKE
        else _poset(processes, max(1, batches // 2))
    )
    instrument.disable()
    enumerate_ideals = (
        (lambda: sum(1 for _ in ideals_reference(poset, limit=LIMIT)))
        if kernel == "reference"
        else (lambda: sum(1 for _ in iterate_ideal_masks(poset, limit=LIMIT)))
    )
    assert benchmark(enumerate_ideals) > 0
