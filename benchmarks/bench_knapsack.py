"""Knapsack substrate benchmarks.

Compares the exact engines (dense table vs dominance list), times the
one-pass multi-capacity solver, and Algorithm 2 (knapsack with compressible
items) on scheduling-shaped item sets.  Every solver runs on the one NumPy
dominance-list engine.  Algorithm 2's runtime must stay essentially flat
as the capacity grows — that is the whole point of Section 4.2.  The all-fit
row times Algorithm 3's usual container knapsack at large m, where the
capacity does not bind and the all-fit exit answers without the DP.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.knapsack.compressible import solve_compressible_knapsack
from repro.knapsack.dp import solve_knapsack, solve_knapsack_dense
from repro.knapsack.items import KnapsackItem
from repro.knapsack.multi import solve_knapsack_multi

RHO = 0.1


def _items(n, capacity, seed=0, wide_fraction=0.4):
    rng = np.random.default_rng(seed)
    threshold = int(1.0 / RHO)
    items = []
    compressible = set()
    for i in range(n):
        if rng.uniform() < wide_fraction:
            size = int(rng.integers(threshold, max(threshold + 1, capacity // 4)))
            compressible.add(i)
        else:
            size = int(rng.integers(1, threshold))
        items.append(KnapsackItem(key=i, size=size, profit=float(rng.uniform(1, 100))))
    return items, compressible


@pytest.mark.parametrize("capacity", [512, 2048, 8192])
def test_exact_dense_table(benchmark, capacity):
    items, _ = _items(80, capacity, seed=1)
    profit, chosen = benchmark(lambda: solve_knapsack_dense(items, capacity))
    assert profit >= 0
    benchmark.extra_info["capacity"] = capacity


@pytest.mark.parametrize("capacity", [512, 2048, 8192])
def test_exact_dominance_list(benchmark, capacity):
    items, _ = _items(80, capacity, seed=1)
    profit, chosen = benchmark(lambda: solve_knapsack(items, capacity))
    assert profit >= 0
    benchmark.extra_info["capacity"] = capacity


@pytest.mark.parametrize("capacity", [512, 2048, 8192])
def test_algorithm2_compressible(benchmark, capacity):
    items, compressible = _items(80, capacity, seed=1)
    solution = benchmark(lambda: solve_compressible_knapsack(items, compressible, float(capacity), RHO))
    assert solution.compressed_size() <= capacity * (1 + 1e-9)
    benchmark.extra_info["capacity"] = capacity


def test_multi_capacity_one_pass(benchmark):
    items, _ = _items(100, 4096, seed=2)
    capacities = [float(c) for c in (64, 256, 1024, 4096)]
    results = benchmark(lambda: solve_knapsack_multi(items, capacities))
    # one pass answers every capacity as its own solve would
    assert all(results[cap] == solve_knapsack(items, cap) for cap in capacities)


def test_all_fit_containers(benchmark):
    # shaped like solve-bounded's containers: ~290 items of 1-42 processors,
    # mostly small (sampled totals were 474-913 against m = 4000), and a few
    # rounded profits exactly 0
    rng = np.random.default_rng(3)
    sizes = rng.geometric(0.35, size=290).clip(1, 42)
    profits = np.where(rng.uniform(size=290) < 0.06, 0.0, rng.uniform(1, 200, size=290))
    items = [KnapsackItem(key=i, size=int(s), profit=float(p)) for i, (s, p) in enumerate(zip(sizes, profits))]
    profit, chosen = benchmark(lambda: solve_knapsack(items, 4000.0))
    assert len(chosen) == int(np.count_nonzero(profits))
