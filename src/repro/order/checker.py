"""Verifying that timestamps encode the order (Equation 1).

The checker exhaustively compares every pair of messages against the
ground-truth poset ``(M, ↦)`` and reports the first (or all)
violations.  It distinguishes the two halves of Equation (1):

* **consistency** — ``m1 ↦ m2 ⇒ ts(m1) < ts(m2)``;
* **completeness** — ``ts(m1) < ts(m2) ⇒ m1 ↦ m2``.

The online and offline clocks must pass both; the Lamport baseline
passes only the first, which the tests assert explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generic, List, Optional, TypeVar

from repro.clocks.base import MessageTimestamper, TimestampAssignment
from repro.core.poset import Poset
from repro.exceptions import EncodingViolationError, PosetError
from repro.order.message_order import message_poset
from repro.sim.computation import SyncComputation, SyncMessage

TimestampT = TypeVar("TimestampT")


@dataclass(frozen=True)
class Violation(Generic[TimestampT]):
    """One pair of messages on which the encoding disagrees with ``↦``."""

    kind: str  # "consistency" or "completeness"
    first: SyncMessage
    second: SyncMessage
    first_timestamp: TimestampT
    second_timestamp: TimestampT

    def describe(self) -> str:
        if self.kind == "consistency":
            relation = "m1 ↦ m2 but not ts(m1) < ts(m2)"
        else:
            relation = "ts(m1) < ts(m2) but not m1 ↦ m2"
        return (
            f"{self.kind} violation ({relation}): "
            f"{self.first.name}={self.first_timestamp!r}, "
            f"{self.second.name}={self.second_timestamp!r}"
        )


@dataclass
class CheckReport(Generic[TimestampT]):
    """Outcome of checking one assignment against the ground truth."""

    computation: SyncComputation
    consistency_violations: List[Violation]
    completeness_violations: List[Violation]
    ordered_pairs: int
    concurrent_pairs: int

    @property
    def consistent(self) -> bool:
        return not self.consistency_violations

    @property
    def characterizes(self) -> bool:
        return self.consistent and not self.completeness_violations

    def raise_on_violation(self) -> None:
        for violation in (
            self.consistency_violations + self.completeness_violations
        ):
            raise EncodingViolationError(
                violation.describe(),
                pair=(violation.first, violation.second),
            )


def check_encoding(
    clock: MessageTimestamper,
    assignment: TimestampAssignment,
    poset: Optional[Poset] = None,
    stop_at_first: bool = False,
) -> CheckReport:
    """Exhaustive pairwise check of Equation (1) for one assignment."""
    computation = assignment.computation
    if poset is None:
        poset = message_poset(computation)

    consistency: List[Violation] = []
    completeness: List[Violation] = []
    ordered = 0
    concurrent = 0
    messages = computation.messages

    # Ground-truth lookups: one bit probe per direction.  A poset that
    # misses a message cannot answer for it, so that message is named.
    index = {element: i for i, element in enumerate(poset.elements)}
    for m in messages:
        if m not in index:
            raise PosetError(f"element {m!r} not in poset")
    above_rows = poset.above_bit_rows()
    positions = [index[m] for m in messages]

    for i, m1 in enumerate(messages):
        pi = positions[i]
        for j in range(i + 1, len(messages)):
            m2 = messages[j]
            pj = positions[j]
            truth_forward = (above_rows[pi] >> pj) & 1 == 1
            truth_backward = (above_rows[pj] >> pi) & 1 == 1
            for first, second, truth in (
                (m1, m2, truth_forward),
                (m2, m1, truth_backward),
            ):
                claim = clock.precedes(
                    assignment.of(first), assignment.of(second)
                )
                if truth:
                    ordered += 1
                    if not claim:
                        consistency.append(
                            Violation(
                                "consistency",
                                first,
                                second,
                                assignment.of(first),
                                assignment.of(second),
                            )
                        )
                        if stop_at_first:
                            return _report(
                                computation,
                                consistency,
                                completeness,
                                ordered,
                                concurrent,
                            )
                elif claim:
                    completeness.append(
                        Violation(
                            "completeness",
                            first,
                            second,
                            assignment.of(first),
                            assignment.of(second),
                        )
                    )
                    if stop_at_first:
                        return _report(
                            computation,
                            consistency,
                            completeness,
                            ordered,
                            concurrent,
                        )
            if not truth_forward and not truth_backward and m1 != m2:
                concurrent += 1
    return _report(
        computation, consistency, completeness, ordered, concurrent
    )


def _report(
    computation, consistency, completeness, ordered, concurrent
) -> CheckReport:
    return CheckReport(
        computation=computation,
        consistency_violations=consistency,
        completeness_violations=completeness,
        ordered_pairs=ordered,
        concurrent_pairs=concurrent,
    )


def assert_characterizes(
    clock: MessageTimestamper,
    computation: SyncComputation,
    poset: Optional[Poset] = None,
) -> CheckReport:
    """Timestamp ``computation`` with ``clock`` and demand Equation (1)."""
    assignment = clock.timestamp_computation(computation)
    report = check_encoding(clock, assignment, poset=poset)
    report.raise_on_violation()
    return report
