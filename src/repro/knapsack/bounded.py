"""Bounded knapsack → 0/1 knapsack via binary splitting (Section 4.3).

A bounded knapsack instance has item *types* ``t`` with a count ``c_t`` of
identical copies.  Following Kellerer, Pferschy & Pisinger, each type is
replaced by ``O(log c_t)`` *container* items holding 1, 2, 4, ...\\ copies, so
that every copy count ``0..c_t`` is expressible as a subset of containers.
The resulting 0/1 instance is solved by the (compressible) knapsack solver
and the chosen containers are mapped back to concrete member objects.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterable, List, Sequence, Tuple

from .items import ItemType, KnapsackItem

__all__ = ["binary_split", "expand_bounded_items", "assign_members", "selected_counts"]


def binary_split(count: int) -> List[int]:
    """Split ``count`` into powers of two plus a remainder: 1, 2, 4, ..., rest.

    Every integer in ``[0, count]`` is the sum of a subset of the returned
    multiplicities, and the list has ``O(log count)`` entries.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    parts: List[int] = []
    power = 1
    remaining = count
    while remaining > 0:
        take = min(power, remaining)
        parts.append(take)
        remaining -= take
        power *= 2
    return parts


def expand_bounded_items(types: Sequence[ItemType]) -> List[KnapsackItem]:
    """Expand bounded item types into 0/1 *container* items.

    The container for ``q`` copies of type ``t`` has size ``q * size_t``,
    profit ``q * profit_t`` and payload ``(t.key, q)``.  The types were
    validated when they were built, so the containers are not checked again.
    """
    containers: List[KnapsackItem] = []
    append = containers.append
    item = KnapsackItem.unchecked
    for t in types:
        key, size, profit = t.key, t.size, t.profit
        for part_index, multiplicity in enumerate((1,) if t.count == 1 else binary_split(t.count)):
            append(item((key, part_index), size * multiplicity, profit * multiplicity, (key, multiplicity)))
    return containers


def selected_counts(chosen_containers: Iterable[KnapsackItem]) -> Dict[Hashable, int]:
    """How many copies of each type the chosen containers represent."""
    counts: Dict[Hashable, int] = {}
    for container in chosen_containers:
        type_key, multiplicity = container.payload
        counts[type_key] = counts.get(type_key, 0) + multiplicity
    return counts


def assign_members(
    counts: Dict[Hashable, int],
    types: Sequence[ItemType],
) -> List[Any]:
    """Map per-type copy counts back to concrete member objects.

    Members are taken in the order stored on each type (callers typically sort
    them so that e.g. the narrowest jobs are preferred).
    """
    by_key: Dict[Hashable, ItemType] = {t.key: t for t in types}
    selected: List[Any] = []
    for type_key, count in counts.items():
        t = by_key[type_key]
        if count > t.count:
            raise ValueError(f"type {type_key!r}: {count} copies selected but only {t.count} exist")
        if not t.members:
            raise ValueError(f"type {type_key!r} has no member objects to assign")
        selected.extend(t.members[:count])
    return selected
