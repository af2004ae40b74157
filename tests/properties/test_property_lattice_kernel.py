"""The chain-indexed lattice kernel matches the layered-BFS reference.

:func:`tests.core.poset_oracle.ideals_reference` preserves the pre-kernel
frozenset BFS verbatim as the executable specification.  Every property
drives a random message poset through both enumerators and demands the
same ideal *sets* and the same counts — the kernel's canonical
chain-prefix order is allowed to differ from the reference's
unspecified within-layer order, so comparisons are set comparisons,
exactly the contract documented in :mod:`repro.core.ideals`.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings

from repro.core import lattice_kernel
from repro.core.ideals import all_ideals, ideal_count, is_down_set
from repro.core.lattice_kernel import (
    count_ideals,
    count_ideals_between,
    ideal_masks_between,
    iterate_ideal_masks,
    mask_of,
    members_of_mask,
)
from tests.core.poset_oracle import ideals_reference
from tests.strategies import posets_from_computations

RELAXED = settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

SMALL = dict(max_processes=6, max_messages=20)


class TestKernelMatchesReference:
    @RELAXED
    @given(posets_from_computations(**SMALL))
    def test_ideal_sets_identical(self, poset):
        kernel = set(all_ideals(poset))
        reference = set(ideals_reference(poset))
        assert kernel == reference

    @RELAXED
    @given(posets_from_computations(**SMALL))
    def test_counts_identical(self, poset):
        reference = sum(1 for _ in ideals_reference(poset))
        assert count_ideals(poset) == reference
        assert ideal_count(poset) == reference

    @RELAXED
    @given(posets_from_computations(**SMALL))
    def test_every_mask_is_a_down_set(self, poset):
        for mask in iterate_ideal_masks(poset):
            assert is_down_set(poset, members_of_mask(poset, mask))

    @RELAXED
    @given(posets_from_computations(**SMALL))
    def test_masks_are_unique(self, poset):
        masks = list(iterate_ideal_masks(poset))
        assert len(masks) == len(set(masks))

    @RELAXED
    @given(posets_from_computations(**SMALL))
    def test_count_matches_enumeration(self, poset):
        assert count_ideals(poset) == sum(
            1 for _ in iterate_ideal_masks(poset)
        )


class TestIntervalQueries:
    @RELAXED
    @given(posets_from_computations(**SMALL))
    def test_interval_from_bottom_is_everything(self, poset):
        full = (1 << len(poset)) - 1
        everything = set(iterate_ideal_masks(poset))
        assert set(ideal_masks_between(poset, 0, full)) == everything
        assert count_ideals_between(poset, 0, full) == len(everything)

    @RELAXED
    @given(posets_from_computations(**SMALL))
    def test_interval_is_the_containment_filter(self, poset):
        masks = sorted(iterate_ideal_masks(poset))
        if not masks:
            return
        # Pick a deterministic mid-lattice ideal as the lower bound.
        lower = masks[len(masks) // 2]
        full = (1 << len(poset)) - 1
        expected = {m for m in masks if m & lower == lower}
        assert set(ideal_masks_between(poset, lower, full)) == expected
        assert count_ideals_between(poset, lower, full) == len(expected)

    @RELAXED
    @given(posets_from_computations(**SMALL))
    def test_singleton_interval(self, poset):
        for mask in list(iterate_ideal_masks(poset))[:5]:
            assert list(ideal_masks_between(poset, mask, mask)) == [mask]
            assert count_ideals_between(poset, mask, mask) == 1


class TestBridge:
    @RELAXED
    @given(posets_from_computations(**SMALL))
    def test_mask_roundtrip(self, poset):
        for ideal in all_ideals(poset):
            mask = mask_of(poset, ideal)
            assert members_of_mask(poset, mask) == ideal
            assert lattice_kernel.is_ideal_mask(poset, mask)
