"""Exact 0/1 knapsack solvers.

Two engines are provided:

* :func:`solve_knapsack_dense` — the textbook ``O(n * C)`` table dynamic
  program over integer capacities.  Simple and ideal for cross-checking in
  tests, but memory-bound for large capacities.
* :func:`solve_knapsack` — Lawler's dominance-list dynamic program: a list of
  undominated ``(profit, size)`` pairs is maintained; the number of pairs is
  bounded by the number of distinct reachable sizes (≤ C+1 for integer sizes),
  so the worst case matches the dense DP while typical instances are far
  faster and float sizes are supported.  Solutions are recovered through
  parent pointers.  When no capacity binds, :func:`all_fit_solution`
  returns the DP's own answer in ``O(n)`` without running it.

Both return the optimal profit and the list of chosen item keys.
"""

from __future__ import annotations

import math
from bisect import bisect_right, insort
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .items import KnapsackItem

__all__ = ["solve_knapsack", "solve_knapsack_dense", "all_fit_solution", "DominanceList", "Pair"]

#: A new state is cut when its size exceeds the capacity by more than this.
SIZE_EPS = 1e-12
#: A state is kept only if its profit beats every state of smaller or equal
#: size by more than this.
PROFIT_EPS = 1e-15
#: States whose sizes differ by less than this count as the same size.
TIE_EPS = 1e-15


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


class DominanceList:
    """A list of mutually undominated pairs, sorted by size.

    Invariant: sizes strictly increasing and profits strictly increasing.
    (If profits were not increasing, the later pair would be dominated.)
    """

    def __init__(self) -> None:
        root = Pair(0.0, 0.0, None, None)
        self._pairs: List[Pair] = [root]

    @property
    def pairs(self) -> List[Pair]:
        return self._pairs

    def __len__(self) -> int:
        return len(self._pairs)

    def best_for_capacity(self, capacity: float) -> Pair:
        """Best pair with size <= capacity (always exists: the empty pair)."""
        sizes = [p.size for p in self._pairs]
        idx = bisect_right(sizes, capacity) - 1
        if idx < 0:
            return self._pairs[0]
        return self._pairs[idx]

    def add_item(
        self,
        item: KnapsackItem,
        item_index: int,
        capacity: float,
        *,
        size_transform=None,
    ) -> None:
        """Merge in the states obtained by adding ``item`` to every state.

        ``size_transform`` optionally normalises the new size (used by the
        adaptive-normalisation solver); it receives the raw new size and
        returns the recorded size.
        """
        new_pairs: List[Pair] = []
        for pair in self._pairs:
            new_size = pair.size + item.size
            if size_transform is not None:
                new_size = size_transform(new_size)
            if new_size > capacity + SIZE_EPS:
                continue
            new_pairs.append(Pair(pair.profit + item.profit, new_size, item_index, pair))
        if not new_pairs:
            return
        self._pairs = _merge_and_prune(self._pairs, new_pairs)


def _merge_and_prune(old: List[Pair], new: List[Pair]) -> List[Pair]:
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
            # same size, higher profit: replace
            merged[-1] = candidate
            continue
        merged.append(candidate)
    return merged


def solve_knapsack(
    items: Sequence[KnapsackItem],
    capacity: float,
    *,
    backend: str = "scalar",
) -> Tuple[float, List[KnapsackItem]]:
    """Exact 0/1 knapsack via the dominance-list dynamic program.

    Returns ``(optimal_profit, chosen_items)``.  ``backend="vectorized"``
    runs the same DP on the NumPy array engine
    (:func:`repro.knapsack.array_dp.solve_knapsack_array`).  When all items
    fit together, :func:`all_fit_solution` answers instead, identically.
    """
    if capacity < 0:
        raise ValueError("capacity must be non-negative")
    solution = all_fit_solution(items, (capacity,))
    if solution is not None:
        return solution
    if backend == "vectorized":
        from .array_dp import solve_knapsack_array

        return solve_knapsack_array(items, capacity)
    dom = DominanceList()
    for index, item in enumerate(items):
        # a zero-profit state ties its parent at a size no smaller: pruned
        if item.size > capacity + SIZE_EPS or item.profit == 0:
            continue
        dom.add_item(item, index, capacity)
    best = max(dom.pairs, key=lambda p: p.profit)
    return best.profit, best.backtrack(items)


def all_fit_solution(
    items: Sequence[KnapsackItem],
    capacities: Sequence[float],
) -> Optional[Tuple[float, List[KnapsackItem]]]:
    """The dominance-list DP's answer for every capacity in ``capacities``,
    computed in ``O(n)``, or ``None`` when either guard below fails.

    Let ``n = len(items)``, ``u = 2**-53`` (the unit round-off), ``S`` the
    exact sum of the sizes and ``P`` that of the profits.

    * **Sizes:** ``fsum(sizes) * (1 + 2nu) <= min(capacities)``.  A DP state's
      size is a left-to-right float sum over a subset, at most
      ``S * (1 + (n-1)u)`` to first order, and the guard's own rounding
      costs at most ``2u`` of its ``2nu`` slack.  So every state fits under
      every capacity, no item or state is cut at ``capacity + SIZE_EPS``, and
      every capacity gets the most profitable state.
    * **Profits:** every profit is ``0`` or above
      ``q = max(4 * PROFIT_EPS, 8nu * P)``.  Let ``A`` be the set of all
      positive-profit items among the first ``k``, and ``B`` any subset of
      them whose positive items differ from ``A``'s, so ``B`` misses some
      positive item ``i`` of ``A``.  Each float profit sum is
      within ``nuP`` of its exact value, so ``A``'s float profit beats
      ``B``'s by more than ``p_i - 2nuP >= 3p_i / 4 >= p_i / 2 + PROFIT_EPS``:
      ``A`` is never pruned.  Its profit is the largest, so it is never
      replaced by a same-size state either.

    A zero-profit item's states tie their parents at no smaller size, so
    the DP prunes them.  After the last item the DP's best state is
    therefore ``A`` over all items.  Its profit is the left-to-right float
    sum of the positive profits, and its items are listed in item order.
    The walk below rebuilds exactly that.  It uses the DP's own prune test:
    an item is taken iff it raises the running profit by more than
    ``PROFIT_EPS``.  Under the profit guard, that holds exactly for the
    positive items.
    """
    n = len(items)
    try:
        total_size = math.fsum(item.size for item in items)
        total_profit = math.fsum(item.profit for item in items)
    except OverflowError:  # sums beyond the float range: leave them to the DP
        return None
    if total_size * (1.0 + n * 2.0**-52) > min(capacities):
        return None
    floor = max(4 * PROFIT_EPS, n * 2.0**-50 * total_profit)
    if any(0 < item.profit <= floor for item in items):
        return None
    profit = 0.0
    chosen: List[KnapsackItem] = []
    for item in items:
        raised = profit + item.profit
        if raised > profit + PROFIT_EPS:
            profit = raised
            chosen.append(item)
    return profit, chosen


def solve_knapsack_dense(
    items: Sequence[KnapsackItem],
    capacity: int,
    *,
    backend: str = "auto",
) -> Tuple[float, List[KnapsackItem]]:
    """Exact 0/1 knapsack via the classic ``O(n*C)`` table DP.

    Requires integer item sizes and an integer capacity.  Intended for
    moderate capacities (tests, the MRT baseline).

    Parameters
    ----------
    backend:
        ``"vectorized"`` sweeps each item's DP row with one NumPy array
        operation (the fast path), ``"scalar"`` runs the pure-Python reference
        loop, ``"auto"`` picks vectorized when NumPy is available.  Both
        backends produce bit-for-bit identical tables and selections.
    """
    if capacity < 0:
        raise ValueError("capacity must be non-negative")
    if backend not in ("auto", "vectorized", "scalar"):
        raise ValueError(f"unknown backend {backend!r}")
    capacity = int(capacity)
    for item in items:
        if item.size != int(item.size):
            raise ValueError(f"dense DP requires integer sizes, item {item.key!r} has size {item.size}")
    if backend != "scalar":
        try:
            return _solve_knapsack_dense_vectorized(items, capacity)
        except ImportError:  # pragma: no cover - numpy is a hard dependency
            if backend == "vectorized":
                raise
    return _solve_knapsack_dense_scalar(items, capacity)


def _solve_knapsack_dense_scalar(
    items: Sequence[KnapsackItem],
    capacity: int,
) -> Tuple[float, List[KnapsackItem]]:
    """Pure-Python reference row sweep (kept as the parity baseline)."""
    profits = [0.0] * (capacity + 1)
    # choice[i] is a bytearray marking for item i whether it is taken at each capacity
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
    return _dense_backtrack(items, choices, profits, capacity)


def _solve_knapsack_dense_vectorized(
    items: Sequence[KnapsackItem],
    capacity: int,
) -> Tuple[float, List[KnapsackItem]]:
    """NumPy row-sweep DP: one shifted-add-compare per item.

    Semantically identical to the scalar loop: the descending capacity order
    of the textbook DP reads only *pre-update* values ``profits[c - size]``,
    which is exactly what computing the candidate row from a snapshot does.
    """
    import numpy as np

    profits = np.zeros(capacity + 1, dtype=np.float64)
    choices: List = []
    for item in items:
        size = int(item.size)
        if size <= capacity and item.profit >= 0:
            candidate = profits[: capacity + 1 - size] + item.profit
            better = candidate > profits[size:] + 1e-15
            taken = np.zeros(capacity + 1, dtype=bool)
            if better.any():
                np.copyto(profits[size:], candidate, where=better)
                taken[size:] = better
        else:
            taken = np.zeros(capacity + 1, dtype=bool)
        choices.append(taken)
    return _dense_backtrack(items, choices, profits, capacity)


def _dense_backtrack(items, choices, profits, capacity):
    c = capacity
    chosen: List[KnapsackItem] = []
    for i in range(len(items) - 1, -1, -1):
        if choices[i][c]:
            chosen.append(items[i])
            c -= int(items[i].size)
    chosen.reverse()
    return float(profits[capacity]), chosen
