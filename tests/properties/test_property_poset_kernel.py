"""The bitset poset kernel is observationally identical to the seed.

:class:`tests.core.poset_oracle.ReferencePoset` preserves the
pre-bitset dict-of-sets implementation verbatim as an executable
specification.  Every property here drives a random computation through
both kernels and demands equal answers — not merely isomorphic ones:
element lists, pair lists, extension orders, realizer ranks, and full
offline timestamps must match exactly, because downstream code (and the
committed benchmark snapshots) depend on deterministic output.  The
library only takes the bitset kernel, so widths, chain partitions and
offline stamps are compared with the oracle pipeline
(:func:`~tests.core.poset_oracle.reference_chain_partition`,
:func:`~tests.core.poset_oracle.reference_offline`) on the seed kernel.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings

from repro.clocks.offline import OfflineRealizerClock
from repro.core.chains import minimum_chain_partition, width
from repro.core.poset import Poset
from repro.order.message_order import covering_pairs
from tests.core.poset_oracle import (
    ReferencePoset,
    reference_chain_partition,
    reference_offline,
)
from tests.strategies import computations

RELAXED = settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _both_kernels(computation):
    pairs = covering_pairs(computation)
    return (
        Poset(computation.messages, pairs),
        ReferencePoset(computation.messages, pairs),
    )


class TestKernelObservationalIdentity:
    @RELAXED
    @given(computations(max_messages=25))
    def test_closure_identical(self, computation):
        bitset, reference = _both_kernels(computation)
        assert bitset.elements == reference.elements
        assert bitset.relation_pairs() == reference.relation_pairs()

    @RELAXED
    @given(computations(max_messages=25))
    def test_cover_pairs_identical(self, computation):
        bitset, reference = _both_kernels(computation)
        assert bitset.cover_pairs() == reference.cover_pairs()

    @RELAXED
    @given(computations(max_messages=25))
    def test_incomparable_pairs_identical(self, computation):
        bitset, reference = _both_kernels(computation)
        assert (
            bitset.incomparable_pairs() == reference.incomparable_pairs()
        )

    @RELAXED
    @given(computations(max_messages=25))
    def test_extremal_elements_identical(self, computation):
        bitset, reference = _both_kernels(computation)
        assert bitset.minimal_elements() == reference.minimal_elements()
        assert bitset.maximal_elements() == reference.maximal_elements()

    @RELAXED
    @given(computations(max_messages=25))
    def test_linear_extension_identical(self, computation):
        bitset, reference = _both_kernels(computation)
        assert bitset.linear_extension() == reference.linear_extension()

    @RELAXED
    @given(computations(max_messages=25))
    def test_down_and_up_sets_identical(self, computation):
        bitset, reference = _both_kernels(computation)
        for element in computation.messages:
            assert bitset.down_set(element) == reference.down_set(
                element
            )
            assert bitset.up_set(element) == reference.up_set(element)

    @RELAXED
    @given(computations(max_messages=25))
    def test_restriction_and_dual_identical(self, computation):
        bitset, reference = _both_kernels(computation)
        kept = computation.messages[::2]
        assert (
            bitset.restricted_to(kept).relation_pairs()
            == reference.restricted_to(kept).relation_pairs()
        )
        assert (
            bitset.dual().relation_pairs()
            == reference.dual().relation_pairs()
        )

    @RELAXED
    @given(computations(max_messages=25))
    def test_width_and_chain_partition_identical(self, computation):
        bitset, reference = _both_kernels(computation)
        if len(bitset) == 0:
            return
        chains = reference_chain_partition(reference)
        assert width(bitset) == len(chains)
        assert minimum_chain_partition(bitset) == chains

    @RELAXED
    @given(computations(max_messages=25))
    def test_offline_timestamps_identical(self, computation):
        bitset = Poset(computation.messages, covering_pairs(computation))
        clock = OfflineRealizerClock()
        assignment = clock.timestamp_poset(computation, bitset)
        if len(computation) == 0:
            return
        realizer, stamps = reference_offline(computation)
        assert clock.timestamp_size == len(realizer)
        assert clock.realizer == realizer
        for message in computation.messages:
            assert (
                assignment.of(message).components
                == stamps[message].components
            )
