"""The shared-table realizer against its frozen per-chain oracle.

:mod:`tests.core.realizer_oracle` keeps the sweep that rebuilt every
table for each chain and released a stalled chain element on a
popcount threshold.  The library now builds the tables once per poset
and releases the held element when the queue runs dry.  The properties
below require the same extension for every chain, the same realizer
for every chain family, the same offline stamps and the same
``PosetError`` messages, on the bitset :class:`Poset` and on the
:class:`ReferencePoset` kernel.  Chains come from the minimum and
greedy partitions and from arbitrary sub-chains: shuffled, with
duplicated elements, or empty.  Besides message posets, random orders
whose insertion order does not follow the order are drawn as well.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.clocks.offline import OfflineRealizerClock
from repro.core.chains import greedy_chain_partition, minimum_chain_partition
from repro.core.linear_extensions import (
    chain_forced_extension,
    realizer_from_chain_partition,
)
from repro.core.poset import Poset
from repro.core.poset_reference import ReferencePoset
from repro.exceptions import PosetError
from repro.order.message_order import covering_pairs
from tests.core import realizer_oracle
from tests.strategies import computations

RELAXED = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

KERNELS = st.sampled_from([Poset, ReferencePoset])


@st.composite
def computed_posets(draw):
    """A random computation and its message poset on either kernel."""
    computation = draw(computations(max_messages=30))
    kernel = draw(KERNELS)
    return computation, kernel(
        computation.messages, covering_pairs(computation)
    )


@st.composite
def shuffled_orders(draw):
    """A random order on ``0..n-1``, inserted in a random permutation."""
    n = draw(st.integers(min_value=0, max_value=14))
    ranks = draw(st.permutations(range(n)))
    pairs = [
        (x, y)
        for x in range(n)
        for y in range(n)
        if ranks[x] < ranks[y] and draw(st.integers(0, 3)) == 0
    ]
    insertion = draw(st.permutations(range(n)))
    return draw(KERNELS)(insertion, pairs)


POSETS = st.one_of(
    computed_posets().map(lambda pair: pair[1]), shuffled_orders()
)


def _partition(poset, strategy):
    if strategy == "minimum":
        return minimum_chain_partition(poset)
    return greedy_chain_partition(poset)


def _raised(fn, *args):
    """The ``PosetError`` message ``fn(*args)`` raises, else its result."""
    try:
        return ("ok", fn(*args))
    except PosetError as error:
        return ("error", str(error))


@st.composite
def arbitrary_chain(draw, poset):
    """A sub-chain of some partition chain, shuffled, maybe duplicated."""
    chains = _partition(poset, draw(st.sampled_from(["minimum", "greedy"])))
    base = draw(st.sampled_from(chains))
    picked = draw(
        st.lists(st.sampled_from(base), max_size=len(base) + 2)
    )
    return draw(st.permutations(picked))


class TestExtensionsMatchOracle:
    @RELAXED
    @given(POSETS, st.sampled_from(["minimum", "greedy"]))
    def test_partition_realizers_identical(self, poset, strategy):
        if len(poset) == 0:
            chains = []
        else:
            chains = _partition(poset, strategy)
        assert realizer_from_chain_partition(poset, chains) == (
            realizer_oracle.realizer_from_chain_partition(poset, chains)
        )

    @RELAXED
    @given(st.data(), POSETS)
    def test_arbitrary_chain_extensions_identical(self, data, poset):
        if len(poset) == 0:
            chain = []
        else:
            chain = data.draw(arbitrary_chain(poset))
        assert chain_forced_extension(poset, chain) == (
            realizer_oracle.chain_forced_extension(poset, chain)
        )

    @RELAXED
    @given(st.data(), POSETS)
    def test_arbitrary_chain_families_identical(self, data, poset):
        if len(poset) == 0:
            return
        family = data.draw(
            st.lists(arbitrary_chain(poset), min_size=1, max_size=5)
        )
        assert realizer_from_chain_partition(poset, family) == (
            realizer_oracle.realizer_from_chain_partition(poset, family)
        )

    @RELAXED
    @given(computed_posets(), st.sampled_from(["matching", "greedy"]))
    def test_offline_stamps_identical(self, pair, strategy):
        computation, poset = pair
        clock = OfflineRealizerClock(chain_strategy=strategy)
        assignment = clock.timestamp_poset(computation, poset)
        if len(poset) == 0:
            assert len(assignment) == 0
            return
        chains = clock.chain_partition
        realizer = realizer_oracle.realizer_from_chain_partition(
            poset, chains
        )
        assert clock.realizer == realizer
        expected = realizer_oracle.rank_vectors(poset, realizer)
        assert [m for m, _ in assignment.items()] == list(expected)
        for message, stamp in expected.items():
            got = assignment.of(message)
            assert got.components == stamp.components
            assert [type(c) for c in got] == [type(c) for c in stamp]


class TestErrorParity:
    @RELAXED
    @given(st.data(), POSETS)
    def test_foreign_element(self, data, poset):
        chain = [] if len(poset) == 0 else data.draw(arbitrary_chain(poset))
        foreign = ("not", "in", "poset")
        at = data.draw(st.integers(0, len(chain)))
        chain = chain[:at] + [foreign] + chain[at:]
        new = _raised(chain_forced_extension, poset, chain)
        assert new == ("error", f"chain element {foreign!r} not in poset")
        assert new == _raised(
            realizer_oracle.chain_forced_extension, poset, chain
        )

    @RELAXED
    @given(st.data(), POSETS)
    def test_non_chain(self, data, poset):
        incomparable = poset.incomparable_pairs()
        if not incomparable:
            return
        x, y = data.draw(st.sampled_from(incomparable))
        family = [[x], [y, x]]
        new = _raised(realizer_from_chain_partition, poset, family)
        assert new == ("error", "chain_forced_extension requires a chain")
        assert new == _raised(
            realizer_oracle.realizer_from_chain_partition, poset, family
        )

    @pytest.mark.parametrize("kernel", [Poset, ReferencePoset])
    def test_empty_family(self, kernel):
        poset = kernel("ab", [("a", "b")])
        new = _raised(realizer_from_chain_partition, poset, [])
        assert new == ("error", "empty chain family for a non-empty poset")
        assert new == _raised(
            realizer_oracle.realizer_from_chain_partition, poset, []
        )
        empty = kernel([])
        assert realizer_from_chain_partition(empty, []) == [[]]
        assert realizer_oracle.realizer_from_chain_partition(
            empty, []
        ) == [[]]
