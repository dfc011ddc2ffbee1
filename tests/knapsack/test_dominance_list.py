"""Direct tests of the dominance-list engine internals (Lawler's DP)."""

import pytest

from repro.knapsack.dp import DominanceList
from repro.knapsack.items import KnapsackItem


class TestPair:
    def test_backtrack_chain(self):
        items = [KnapsackItem(key=i, size=i + 1, profit=float(i + 1)) for i in range(3)]
        dom = DominanceList()
        dom.add_item(items[0], 0, capacity=4)
        dom.add_item(items[2], 2, capacity=4)
        # states (0, 0), (1, 1), (3, 3), (4, 4): the last one took items 0 and 2
        assert dom.sizes.tolist() == [0.0, 1.0, 3.0, 4.0]
        assert [i.key for i in dom.backtrack(3, items)] == [0, 2]

    def test_backtrack_empty(self):
        assert DominanceList().backtrack(0, []) == []


class TestDominanceList:
    def test_starts_with_empty_state(self):
        dom = DominanceList()
        assert len(dom) == 1
        assert dom.profits[0] == 0.0
        assert dom.sizes[0] == 0.0

    def test_add_item_grows_states(self):
        dom = DominanceList()
        dom.add_item(KnapsackItem(key="a", size=2, profit=3.0), 0, capacity=10)
        assert len(dom) == 2
        assert dom.profits[dom.best_index_for_capacity(1)] == 0.0
        assert dom.profits[dom.best_index_for_capacity(2)] == 3.0

    def test_dominated_states_pruned(self):
        dom = DominanceList()
        # a small very profitable item dominates a larger less profitable one
        dom.add_item(KnapsackItem(key="good", size=1, profit=10.0), 0, capacity=10)
        dom.add_item(KnapsackItem(key="bad", size=5, profit=1.0), 1, capacity=10)
        sizes = dom.sizes.tolist()
        profits = dom.profits.tolist()
        # invariant: sizes strictly increasing AND profits strictly increasing
        assert sizes == sorted(set(sizes))
        assert profits == sorted(set(profits))
        # the state "bad alone" (size 5, profit 1) must have been pruned
        assert (5.0, 1.0) not in zip(sizes, profits)

    def test_capacity_respected(self):
        dom = DominanceList()
        dom.add_item(KnapsackItem(key="a", size=8, profit=5.0), 0, capacity=10)
        dom.add_item(KnapsackItem(key="b", size=7, profit=5.0), 1, capacity=10)
        # the combined state (size 15) exceeds the capacity and must not exist
        assert all(size <= 10 + 1e-9 for size in dom.sizes)

    def test_same_size_state_replaced_by_the_more_profitable(self):
        dom = DominanceList()
        dom.add_item(KnapsackItem(key="a", size=3, profit=2.0), 0, capacity=10)
        dom.add_item(KnapsackItem(key="b", size=3, profit=5.0), 1, capacity=10)
        assert dom.sizes.tolist() == [0.0, 3.0, 6.0]
        assert dom.profits.tolist() == [0.0, 5.0, 7.0]

    def test_best_for_capacity_monotone(self):
        dom = DominanceList()
        for i, (size, profit) in enumerate([(2, 3.0), (3, 4.0), (4, 7.0)]):
            dom.add_item(KnapsackItem(key=i, size=size, profit=profit), i, capacity=9)
        best = [dom.profits[dom.best_index_for_capacity(c)] for c in range(0, 10)]
        assert best == sorted(best)

    def test_size_transform_applied(self):
        dom = DominanceList()
        dom.add_item(
            KnapsackItem(key="a", size=3.7, profit=1.0),
            0,
            capacity=10,
            size_transform=lambda sizes: sizes.astype(int).astype(float),  # floor to integers
        )
        assert 3.0 in dom.sizes.tolist()

    @pytest.mark.parametrize("capacity", [0.0, 2.5])
    def test_nothing_fits_leaves_the_states_alone(self, capacity):
        dom = DominanceList()
        dom.add_item(KnapsackItem(key="a", size=3, profit=1.0), 0, capacity=capacity)
        assert dom.sizes.tolist() == [0.0] and dom.profits.tolist() == [0.0]
