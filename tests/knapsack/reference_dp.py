"""Pure-Python reference knapsack DPs, kept as the tests' baseline.

The library's knapsack engines run on NumPy arrays
(:class:`repro.knapsack.dp.DominanceList` and the dense row sweep of
:func:`repro.knapsack.dp.solve_knapsack_dense`).  This module holds the
textbook loops they must match bit for bit: Lawler's dominance list as a
Python list of parent-linked pairs, merged and pruned one state at a time,
and the dense table DP swept one capacity at a time.  None of them has the
all-fit exit of :func:`repro.knapsack.dp.all_fit_solution`: they always run
the DP.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import pytest

from repro.knapsack import compressible
from repro.knapsack.compressible import AdaptiveNormalizer
from repro.knapsack.dp import PROFIT_EPS, SIZE_EPS, TIE_EPS
from repro.knapsack.items import KnapsackItem


@dataclass
class Pair:
    """An undominated (profit, size) state with backtracking information."""

    profit: float
    size: float
    item_index: Optional[int]  # index of the item added to reach this state
    parent: Optional["Pair"]

    def backtrack(self, items: Sequence[KnapsackItem]) -> List[KnapsackItem]:
        chosen: List[KnapsackItem] = []
        node: Optional[Pair] = self
        while node is not None and node.item_index is not None:
            chosen.append(items[node.item_index])
            node = node.parent
        chosen.reverse()
        return chosen


class ReferenceDominanceList:
    """A list of mutually undominated pairs, sorted by size.

    Invariant: sizes strictly increasing and profits strictly increasing.
    """

    def __init__(self) -> None:
        self.pairs: List[Pair] = [Pair(0.0, 0.0, None, None)]

    def add_item(self, item: KnapsackItem, item_index: int, capacity: float, *, size_transform=None) -> None:
        """Merge in the states obtained by adding ``item`` to every state;
        ``size_transform`` maps one raw new size to the recorded size."""
        new_pairs: List[Pair] = []
        for pair in self.pairs:
            new_size = pair.size + item.size
            if size_transform is not None:
                new_size = size_transform(new_size)
            if new_size > capacity + SIZE_EPS:
                continue
            new_pairs.append(Pair(pair.profit + item.profit, new_size, item_index, pair))
        if new_pairs:
            self.pairs = merge_and_prune(self.pairs, new_pairs)


def merge_and_prune(old: List[Pair], new: List[Pair]) -> List[Pair]:
    """Merge two size-sorted pair lists and drop dominated pairs."""
    new.sort(key=lambda p: (p.size, -p.profit))
    merged: List[Pair] = []
    i = j = 0
    while i < len(old) or j < len(new):
        if j >= len(new) or (i < len(old) and (old[i].size, -old[i].profit) <= (new[j].size, -new[j].profit)):
            candidate = old[i]
            i += 1
        else:
            candidate = new[j]
            j += 1
        if merged and candidate.profit <= merged[-1].profit + PROFIT_EPS:
            continue  # dominated: not more profitable than a smaller-or-equal state
        if merged and abs(candidate.size - merged[-1].size) < TIE_EPS:
            merged[-1] = candidate  # same size, higher profit: replace
            continue
        merged.append(candidate)
    return merged


def _per_capacity(dom, items, capacities, tol) -> Dict[float, Tuple[float, List[KnapsackItem]]]:
    """The most profitable pair with size ``<= cap + tol``, per capacity."""
    pairs = dom.pairs
    sizes = [p.size for p in pairs]
    best_prefix: List[int] = []
    best_idx = 0
    for i, pair in enumerate(pairs):
        if pair.profit > pairs[best_idx].profit:
            best_idx = i
        best_prefix.append(best_idx)
    results: Dict[float, Tuple[float, List[KnapsackItem]]] = {}
    for cap in capacities:
        idx = bisect_right(sizes, cap + tol) - 1
        if idx < 0:
            results[cap] = (0.0, [])
            continue
        pair = pairs[best_prefix[idx]]
        results[cap] = (pair.profit, pair.backtrack(items))
    return results


def reference_knapsack_multi(
    items: Sequence[KnapsackItem], capacities: Sequence[float]
) -> Dict[float, Tuple[float, List[KnapsackItem]]]:
    """Lawler's DP up to ``max(capacities)``, answered for every capacity."""
    if not capacities:
        return {}
    max_cap = max(capacities)
    dom = ReferenceDominanceList()
    for index, item in enumerate(items):
        # a zero-profit state ties its parent at a size no smaller: pruned
        if item.size > max_cap + SIZE_EPS or item.profit == 0:
            continue
        dom.add_item(item, index, max_cap)
    return _per_capacity(dom, items, capacities, SIZE_EPS)


def reference_knapsack(items: Sequence[KnapsackItem], capacity: float) -> Tuple[float, List[KnapsackItem]]:
    """Lawler's DP at one capacity."""
    return reference_knapsack_multi(items, [capacity])[capacity]


def reference_compressible_multi(
    items: Sequence[KnapsackItem],
    capacities: Sequence[float],
    rho: float,
    n_bar: int,
    alpha_min: float,
) -> Dict[float, Tuple[float, List[KnapsackItem]]]:
    """The compressible sub-solver, normalising one size at a time with
    :meth:`AdaptiveNormalizer.normalize`."""
    if not capacities:
        return {}
    normalizer = AdaptiveNormalizer(capacities, alpha_min, rho, n_bar)
    max_cap = max(capacities)
    dom = ReferenceDominanceList()
    for index, item in enumerate(items):
        if item.size > max_cap / (1.0 - rho) + 1e-9:
            continue
        dom.add_item(item, index, max_cap, size_transform=normalizer.normalize)
    return _per_capacity(dom, items, capacities, 1e-9)


def reference_compressible_knapsack(items, compressible_keys, capacity, rho, **kwargs):
    """Algorithm 2 as :func:`repro.knapsack.compressible.solve_compressible_knapsack`
    runs it, with both sub-solvers swapped for the references above."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(compressible, "solve_knapsack_multi", reference_knapsack_multi)
        mp.setattr(compressible, "solve_compressible_multi", reference_compressible_multi)
        return compressible.solve_compressible_knapsack(items, compressible_keys, capacity, rho, **kwargs)


def reference_knapsack_dense(items: Sequence[KnapsackItem], capacity: int) -> Tuple[float, List[KnapsackItem]]:
    """The textbook table DP, one capacity at a time, in descending order."""
    profits = [0.0] * (capacity + 1)
    # choices[i] marks, per capacity, whether item i is taken
    choices: List[bytearray] = []
    for item in items:
        size = int(item.size)
        taken = bytearray(capacity + 1)
        if size <= capacity and item.profit >= 0:
            for c in range(capacity, size - 1, -1):
                candidate = profits[c - size] + item.profit
                if candidate > profits[c] + 1e-15:
                    profits[c] = candidate
                    taken[c] = 1
        choices.append(taken)
    c = capacity
    chosen: List[KnapsackItem] = []
    for i in range(len(items) - 1, -1, -1):
        if choices[i][c]:
            chosen.append(items[i])
            c -= int(items[i].size)
    chosen.reverse()
    return profits[capacity], chosen
