"""Tests for the exact 0/1 knapsack solvers."""

import itertools
import math

import numpy as np
import pytest

from repro.knapsack.compressible import solve_compressible_knapsack, solve_compressible_multi
from repro.knapsack.dp import solve_knapsack, solve_knapsack_dense
from repro.knapsack.items import KnapsackItem
from repro.knapsack.multi import solve_knapsack_multi


def brute_force(items, capacity):
    best = 0.0
    for r in range(len(items) + 1):
        for combo in itertools.combinations(items, r):
            if sum(i.size for i in combo) <= capacity + 1e-12:
                best = max(best, sum(i.profit for i in combo))
    return best


def random_items(rng, n, max_size=20, max_profit=50, integer_sizes=True):
    items = []
    for i in range(n):
        size = int(rng.integers(1, max_size + 1)) if integer_sizes else float(rng.uniform(0.5, max_size))
        profit = float(rng.uniform(1, max_profit))
        items.append(KnapsackItem(key=i, size=size, profit=profit))
    return items


class TestSolveKnapsack:
    def test_empty(self):
        profit, chosen = solve_knapsack([], 10)
        assert profit == 0.0 and chosen == []

    def test_zero_capacity(self):
        items = [KnapsackItem(key=0, size=1, profit=5.0)]
        profit, chosen = solve_knapsack(items, 0)
        assert profit == 0.0 and chosen == []

    def test_single_item_fits(self):
        items = [KnapsackItem(key=0, size=3, profit=7.0)]
        profit, chosen = solve_knapsack(items, 5)
        assert profit == 7.0 and [i.key for i in chosen] == [0]

    def test_single_item_too_large(self):
        items = [KnapsackItem(key=0, size=6, profit=7.0)]
        profit, chosen = solve_knapsack(items, 5)
        assert profit == 0.0 and chosen == []

    def test_classic_example(self):
        items = [
            KnapsackItem(key="a", size=10, profit=60.0),
            KnapsackItem(key="b", size=20, profit=100.0),
            KnapsackItem(key="c", size=30, profit=120.0),
        ]
        profit, chosen = solve_knapsack(items, 50)
        assert profit == pytest.approx(220.0)
        assert {i.key for i in chosen} == {"b", "c"}

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            solve_knapsack([], -1)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        items = random_items(rng, 10)
        capacity = int(rng.integers(10, 60))
        profit, chosen = solve_knapsack(items, capacity)
        assert profit == pytest.approx(brute_force(items, capacity))
        assert sum(i.size for i in chosen) <= capacity
        assert sum(i.profit for i in chosen) == pytest.approx(profit)

    @pytest.mark.parametrize("seed", range(3))
    def test_float_sizes(self, seed):
        rng = np.random.default_rng(seed + 100)
        items = random_items(rng, 9, integer_sizes=False)
        capacity = float(rng.uniform(10, 50))
        profit, chosen = solve_knapsack(items, capacity)
        assert profit == pytest.approx(brute_force(items, capacity))
        assert sum(i.size for i in chosen) <= capacity + 1e-9


class TestSolveKnapsackDense:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_pairs_engine(self, seed):
        rng = np.random.default_rng(seed + 50)
        items = random_items(rng, 12)
        capacity = int(rng.integers(10, 80))
        dense_profit, dense_chosen = solve_knapsack_dense(items, capacity)
        pairs_profit, _ = solve_knapsack(items, capacity)
        assert dense_profit == pytest.approx(pairs_profit)
        assert sum(i.size for i in dense_chosen) <= capacity
        assert sum(i.profit for i in dense_chosen) == pytest.approx(dense_profit)

    def test_requires_integer_sizes(self):
        items = [KnapsackItem(key=0, size=1.5, profit=1.0)]
        with pytest.raises(ValueError):
            solve_knapsack_dense(items, 10)

    def test_zero_capacity(self):
        items = [KnapsackItem(key=0, size=1, profit=5.0)]
        profit, chosen = solve_knapsack_dense(items, 0)
        assert profit == 0.0 and chosen == []

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            solve_knapsack_dense([], -3)


def _two_items():
    return [KnapsackItem(key="a", size=5, profit=3.0), KnapsackItem(key="b", size=7, profit=4.0)]


# every public knapsack entry point, called at one capacity
ENTRY_POINTS = {
    "solve_knapsack": lambda items, cap: solve_knapsack(items, cap),
    "solve_knapsack_dense": lambda items, cap: solve_knapsack_dense(items, cap),
    "solve_knapsack_multi": lambda items, cap: solve_knapsack_multi(items, [cap, 6.0]),
    "solve_compressible_multi": lambda items, cap: solve_compressible_multi(items, [6.0, cap], 0.1, 2, 1.0),
    "solve_compressible_knapsack": lambda items, cap: solve_compressible_knapsack(items, {"b"}, cap, 0.1),
}


class TestCapacityCheck:
    """A capacity that is not ``>= 0`` is rejected, NaN included: ``NaN < 0``
    is false, and ``min([nan, 6.0])`` is NaN, so a sign check alone lets it
    through to a silently wrong answer."""

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("capacity", [math.nan, -1.0, -math.inf])
    def test_rejected(self, entry, capacity):
        with pytest.raises(ValueError, match="non-negative"):
            ENTRY_POINTS[entry](_two_items(), capacity)

    def test_nan_used_to_select_every_item(self):
        # without the check the solver answered (7.0, [a, b]) here, and gave
        # capacity 6.0 both items (total size 12) in the multi-capacity call
        with pytest.raises(ValueError):
            solve_knapsack(_two_items(), math.nan)
        with pytest.raises(ValueError):
            solve_knapsack_multi(_two_items(), [math.nan, 6.0])

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_zero_capacity_passes(self, entry):
        ENTRY_POINTS[entry](_two_items(), 0.0)

    @pytest.mark.parametrize("entry", ["solve_knapsack", "solve_knapsack_multi"])
    def test_infinite_capacity_takes_every_item(self, entry):
        result = ENTRY_POINTS[entry](_two_items(), math.inf)
        profit, chosen = result[math.inf] if isinstance(result, dict) else result
        assert (profit, [i.key for i in chosen]) == (7.0, ["a", "b"])

    @pytest.mark.parametrize("entry", ["solve_knapsack_dense", "solve_compressible_multi", "solve_compressible_knapsack"])
    def test_infinite_capacity_rejected_where_a_grid_needs_it_finite(self, entry):
        with pytest.raises(ValueError, match="finite non-negative"):
            ENTRY_POINTS[entry](_two_items(), math.inf)
