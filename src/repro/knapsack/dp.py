"""Exact 0/1 knapsack solvers.

Two dynamic programs are provided:

* :func:`solve_knapsack_dense` — the textbook ``O(n * C)`` table dynamic
  program over integer capacities, one NumPy row sweep per item.  Simple and
  ideal for cross-checking in tests, but memory-bound for large capacities.
* :func:`solve_knapsack` — Lawler's dominance-list dynamic program
  (:class:`DominanceList`): a list of undominated ``(profit, size)`` states
  is maintained in flat arrays; the number of states is bounded by the
  number of distinct reachable sizes (≤ C+1 for integer sizes), so the worst
  case matches the dense DP while typical instances are far faster and float
  sizes are supported.  Solutions are recovered through parent pointers.
  When no capacity binds, :func:`all_fit_solution` returns the DP's own
  answer in ``O(n)`` without running it.

Both return the optimal profit and the list of chosen item keys.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .items import KnapsackItem

__all__ = ["solve_knapsack", "solve_knapsack_dense", "all_fit_solution", "check_capacities", "DominanceList"]

#: A new state is cut when its size exceeds the capacity by more than this.
SIZE_EPS = 1e-12
#: A state is kept only if its profit beats every state of smaller or equal
#: size by more than this.
PROFIT_EPS = 1e-15
#: States whose sizes differ by less than this count as the same size.
TIE_EPS = 1e-15


def check_capacities(capacities: Sequence[float], *, finite: bool = False) -> None:
    """Raise ``ValueError`` unless every capacity is ``>= 0`` (NaN is not),
    and, with ``finite``, below infinity (the dense table and Algorithm 2's
    capacity grid need a finite capacity)."""
    if not all(c >= 0 for c in capacities) or (finite and math.inf in capacities):
        kind = "finite non-negative" if finite else "non-negative"
        raise ValueError(f"capacities must be {kind} numbers, got {list(capacities)!r}")


class DominanceList:
    """Undominated ``(profit, size)`` states in flat float64 arrays.

    Invariant: ``sizes`` strictly increasing and ``profits`` strictly
    increasing (if profits were not increasing, the later state would be
    dominated); state 0 is the empty root ``(0, 0)``.  Adding an item is a
    constant number of whole-array operations: shift, cut at the capacity,
    merge via a stable size sort, prune via a running maximum.

    The survivors are those of the textbook merge: walk old and new states
    in ``(size, -profit)`` order, old states first on full ties; keep a state
    only if its profit exceeds the last kept state's by more than
    ``PROFIT_EPS``, and let it replace the last kept state when their sizes
    differ by less than ``TIE_EPS``.  Backtracking information is kept in an
    append-only node pool (one item index per chunk, a parent per node).
    """

    def __init__(self) -> None:
        self.sizes = np.zeros(1, dtype=np.float64)
        self.profits = np.zeros(1, dtype=np.float64)
        self.nodes = np.zeros(1, dtype=np.int64)
        # node pool, one chunk per add_item call: the item index every node of
        # the chunk added, and each node's parent.  Node 0 is the root.
        self._pool_items: List[int] = [-1]
        self._pool_parents: List[np.ndarray] = [np.array([-1], dtype=np.int64)]
        self._pool_offsets: List[int] = [0, 1]

    def __len__(self) -> int:
        return len(self.sizes)

    # ------------------------------------------------------------------ pool
    def _register_nodes(self, item_index: int, parents: np.ndarray) -> np.ndarray:
        base = self._pool_offsets[-1]
        count = len(parents)
        self._pool_items.append(item_index)
        # ``parents`` is a slice of ``self.nodes``, which is only ever
        # replaced, never written to, so the chunk may share its memory
        self._pool_parents.append(parents)
        self._pool_offsets.append(base + count)
        return np.arange(base, base + count, dtype=np.int64)

    def _node(self, node_id: int) -> Tuple[int, int]:
        chunk = bisect_right(self._pool_offsets, node_id) - 1
        offset = node_id - self._pool_offsets[chunk]
        return self._pool_items[chunk], int(self._pool_parents[chunk][offset])

    def backtrack(self, state_index: int, items: Sequence[KnapsackItem]) -> List[KnapsackItem]:
        """Chosen items of the state at ``state_index``, in item order."""
        chosen: List[KnapsackItem] = []
        node = int(self.nodes[state_index])
        while node >= 0:
            item_index, parent = self._node(node)
            if item_index < 0:
                break
            chosen.append(items[item_index])
            node = parent
        chosen.reverse()
        return chosen

    # ------------------------------------------------------------------- add
    def add_item(
        self,
        item: KnapsackItem,
        item_index: int,
        capacity: float,
        *,
        size_transform: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    ) -> None:
        """Merge in the states obtained by adding ``item`` to every state.

        ``size_transform``, when given, receives the raw new sizes array and
        returns the recorded sizes.  It must be monotone, as
        :meth:`repro.knapsack.compressible.AdaptiveNormalizer.normalize_array`
        is: the new sizes then never decrease, so the states that fit the
        capacity are a prefix, cut with one binary search.
        """
        new_sizes = self.sizes + item.size
        if size_transform is not None:
            new_sizes = size_transform(new_sizes)
        fit = int(new_sizes.searchsorted(capacity + SIZE_EPS, side="right"))
        if fit == 0:
            return
        profits = np.concatenate((self.profits, self.profits[:fit] + item.profit))
        sizes = np.concatenate((self.sizes, new_sizes[:fit]))
        nodes = np.concatenate((self.nodes, self._register_nodes(item_index, self.nodes[:fit])))

        # Both runs are sorted by size, so a stable size sort is one merge:
        # size ascending, old states before new on equal sizes.  The textbook
        # merge orders equal sizes by profit descending instead, and prunes
        # against the last state it kept rather than the running maximum.
        # Neither difference changes the survivors unless some state beats
        # the running maximum by PROFIT_EPS or less; only then does the
        # merge fall back to the textbook loop itself.
        order = sizes.argsort(kind="stable")
        keep = _prune_dominated(profits[order])
        if keep is None:
            order = _scalar_merge(sizes, profits)
            sizes = sizes[order]
        else:
            order = order[keep]
            sizes = sizes[order]
            # prune 2: among runs of (near-)equal sizes keep the last
            # survivor — the textbook merge's same-size "replace" rule.
            # Profits strictly increase after prune 1, so the last of a run
            # is the best.
            ties = sizes[1:] - sizes[:-1] < TIE_EPS
            if ties.any():
                keep = np.empty(len(sizes), dtype=bool)
                np.logical_not(ties, out=keep[:-1])
                keep[-1] = True
                order = order[keep]
                sizes = sizes[keep]

        self.sizes = sizes
        self.profits = profits[order]
        self.nodes = nodes[order]

    # ---------------------------------------------------------------- queries
    def best_index_for_capacity(self, capacity: float, tol: float = SIZE_EPS) -> int:
        """Index of the most profitable state with size ``<= capacity + tol``
        (profits strictly increase, so it is the last admissible state)."""
        idx = int(np.searchsorted(self.sizes, capacity + tol, side="right")) - 1
        return max(idx, 0)


def _prune_dominated(profits: np.ndarray) -> Optional[np.ndarray]:
    """Prune 1: the mask of the states whose profit exceeds the running
    maximum of everything before them by more than ``PROFIT_EPS``.

    Returns ``None`` instead when some state beats that maximum by
    ``PROFIT_EPS`` or less (a near tie): the merge order and the textbook
    compare-with-the-last-kept-state rule can then decide which states
    survive.
    """
    prev_max = np.maximum.accumulate(profits)[:-1]
    keep = np.empty(len(profits), dtype=bool)
    keep[0] = True
    np.greater(profits[1:], prev_max + PROFIT_EPS, out=keep[1:])
    if np.count_nonzero(profits[1:] > prev_max) != np.count_nonzero(keep) - 1:
        return None
    return keep


def _scalar_merge(sizes: np.ndarray, profits: np.ndarray) -> np.ndarray:
    """The positions the textbook merge keeps, in order: its ``(size,
    -profit)`` merge order (old states first on full ties) and its loop, for
    the rare merges with near-tied profits."""
    order = np.lexsort((-profits, sizes)).tolist()
    size_of = sizes.tolist()
    profit_of = profits.tolist()
    kept: List[int] = []
    for i in order:
        if kept:
            last = kept[-1]
            if profit_of[i] <= profit_of[last] + PROFIT_EPS:
                continue
            if abs(size_of[i] - size_of[last]) < TIE_EPS:
                kept[-1] = i
                continue
        kept.append(i)
    return np.array(kept, dtype=np.int64)


def solve_knapsack(
    items: Sequence[KnapsackItem],
    capacity: float,
) -> Tuple[float, List[KnapsackItem]]:
    """Exact 0/1 knapsack via the dominance-list dynamic program.

    Returns ``(optimal_profit, chosen_items)``.  When all items fit together,
    :func:`all_fit_solution` answers instead, identically.
    """
    check_capacities((capacity,))
    solution = all_fit_solution(items, (capacity,))
    if solution is not None:
        return solution
    dom = DominanceList()
    for index, item in enumerate(items):
        # a zero-profit state ties its parent at a size no smaller: pruned
        if item.size > capacity + SIZE_EPS or item.profit == 0:
            continue
        dom.add_item(item, index, capacity)
    best = int(np.argmax(dom.profits))
    return float(dom.profits[best]), dom.backtrack(best, items)


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
) -> Tuple[float, List[KnapsackItem]]:
    """Exact 0/1 knapsack via the classic ``O(n*C)`` table DP.

    Requires integer item sizes and an integer capacity.  Intended for
    moderate capacities (tests, the MRT baseline).  Each item's DP row is
    swept with one shifted-add-compare: the descending capacity order of the
    textbook DP reads only *pre-update* values ``profits[c - size]``, which
    is exactly what computing the candidate row from a snapshot does.
    """
    check_capacities((capacity,), finite=True)
    capacity = int(capacity)
    for item in items:
        if item.size != int(item.size):
            raise ValueError(f"dense DP requires integer sizes, item {item.key!r} has size {item.size}")
    profits = np.zeros(capacity + 1, dtype=np.float64)
    choices: List[np.ndarray] = []
    for item in items:
        size = int(item.size)
        taken = np.zeros(capacity + 1, dtype=bool)
        if size <= capacity and item.profit >= 0:
            candidate = profits[: capacity + 1 - size] + item.profit
            better = candidate > profits[size:] + 1e-15
            if better.any():
                np.copyto(profits[size:], candidate, where=better)
                taken[size:] = better
        choices.append(taken)
    c = capacity
    chosen: List[KnapsackItem] = []
    for i in range(len(items) - 1, -1, -1):
        if choices[i][c]:
            chosen.append(items[i])
            c -= int(items[i].size)
    chosen.reverse()
    return float(profits[capacity]), chosen
