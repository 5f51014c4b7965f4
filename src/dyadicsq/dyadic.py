"""Exact arithmetic on dyadic subintervals of [0, 1).

Intervals are identified by an integer pair (level, index); their ends are only
materialized as binary rationals, so all tree logic is exact integer work.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

#: Deepest level at which the tree may be subdivided.  Spine intervals
#: I_k = [0, 2^-k) never enumerate leaves and may go deeper.
DEFAULT_MAX_DEPTH = 60


class DepthOverflowError(ValueError):
    """Requested a subdivision below the configured maximum depth."""


@dataclass(frozen=True)
class DyadicInterval:
    """The interval [index * 2^-level, (index + 1) * 2^-level)."""

    level: int
    index: int

    def __post_init__(self) -> None:
        if self.level < 0:
            raise ValueError(f"negative level {self.level}")
        if not 0 <= self.index < 2 ** self.level:
            raise ValueError(f"index {self.index} out of range at level {self.level}")

    @property
    def left(self) -> Fraction:
        return Fraction(self.index, 2 ** self.level)

    @property
    def right(self) -> Fraction:
        return Fraction(self.index + 1, 2 ** self.level)


def children(q: DyadicInterval) -> tuple[DyadicInterval, DyadicInterval]:
    """Left and right halves of ``q``; they partition ``q`` exactly."""
    if q.level >= DEFAULT_MAX_DEPTH:
        raise DepthOverflowError(f"cannot subdivide below level {DEFAULT_MAX_DEPTH}")
    return (
        DyadicInterval(q.level + 1, 2 * q.index),
        DyadicInterval(q.level + 1, 2 * q.index + 1),
    )


def spine(k: int) -> DyadicInterval:
    """I_k = [0, 2^-k), the left-anchored chain toward the singular point 0."""
    if k < 0:
        raise ValueError("spine index must be nonnegative")
    return DyadicInterval(k, 0)

