"""Item containers for the knapsack solvers."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Hashable, List

__all__ = ["KnapsackItem", "ItemType"]


@dataclass(frozen=True)
class KnapsackItem:
    """A single 0/1 knapsack item.

    Attributes
    ----------
    key:
        A hashable identifier (unique within an instance).
    size:
        Finite non-negative size (weight).  Integer in most scheduling uses
        (processor counts) but float sizes are supported by all solvers.
    profit:
        Finite non-negative profit.
    payload:
        Arbitrary attached object (e.g. the job the item represents); ignored
        by the solvers.
    """

    key: Hashable
    size: float
    profit: float
    payload: Any = None

    def __post_init__(self) -> None:
        # false for NaN too, which a bare ``value < 0`` test lets through
        if not (0 <= self.size < math.inf and 0 <= self.profit < math.inf):
            _reject("item", self.key, self.size, self.profit)


@dataclass
class ItemType:
    """An item type of a *bounded* knapsack instance.

    All members of the type share (rounded) ``size`` and ``profit``; ``count``
    is the number of copies available.  ``members`` optionally records the
    identities of the original objects of this type so that a solution in
    terms of types can be mapped back to concrete objects.
    """

    key: Hashable
    size: float
    profit: float
    count: int
    members: List[Any] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError(f"item type {self.key!r}: count must be >= 1, got {self.count}")
        if not (0 <= self.size < math.inf and 0 <= self.profit < math.inf):
            _reject("item type", self.key, self.size, self.profit)
        if self.members and len(self.members) != self.count:
            raise ValueError(
                f"item type {self.key!r}: {len(self.members)} members listed but count is {self.count}"
            )


def _reject(kind: str, key: Hashable, size: float, profit: float) -> None:
    name, value = ("size", size) if not 0 <= size < math.inf else ("profit", profit)
    raise ValueError(f"{kind} {key!r}: {name} must be finite and non-negative, got {value}")
