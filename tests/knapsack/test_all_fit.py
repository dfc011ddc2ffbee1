"""The all-fit exit in front of the dominance-list DPs.

When every item fits together under the smallest capacity,
:func:`repro.knapsack.dp.all_fit_solution` must return exactly what the DP
would: the same float profit and the same chosen items in the same order.
Its guards must decline everything else, so the DP runs.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import schedule_moldable
from repro.knapsack import dp, multi
from repro.knapsack.dp import DominanceList, all_fit_solution, solve_knapsack
from repro.knapsack.items import KnapsackItem
from repro.knapsack.multi import solve_knapsack_multi
from repro.workloads.generators import random_mixed_instance

def _forced_dp(items, capacities):
    """The DP's answer for each capacity, with the all-fit exit disabled."""
    with pytest.MonkeyPatch.context() as mp:
        for module in (dp, multi):
            mp.setattr(module, "all_fit_solution", lambda items, capacities: None)
        single = {cap: solve_knapsack(items, cap) for cap in capacities}
        together = solve_knapsack_multi(items, capacities)
    assert together == single
    return single


def _assert_matches_dp(items, capacities):
    """The public solvers equal the forced DP, bit for bit."""
    expected = _forced_dp(items, capacities)
    got = solve_knapsack_multi(items, capacities)
    for cap in capacities:
        for solution in (got[cap], solve_knapsack(items, cap)):
            assert solution[0] == expected[cap][0]
            assert [i.key for i in solution[1]] == [i.key for i in expected[cap][1]]


def _items(sizes, profits):
    return [KnapsackItem(key=i, size=s, profit=p) for i, (s, p) in enumerate(zip(sizes, profits))]


_sizes = st.one_of(
    st.integers(min_value=1, max_value=42).map(float),
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    st.just(0.0),
)

# the profit families on which an unguarded walk disagrees with the DP
# (tiny, huge next to small) and the ones it must get right
_profit_lists = st.one_of(
    st.lists(st.integers(min_value=0, max_value=100).map(float), max_size=24),
    st.lists(st.floats(min_value=0.0, max_value=100.0, allow_nan=False), max_size=24),
    st.lists(st.sampled_from([0.0, 1e-16, 1e-15, 3e-15, 5e-15, 1e-14]), max_size=24),
    st.lists(st.sampled_from([0.0, 1.0]), max_size=24),
    st.integers(min_value=0, max_value=24).map(lambda n: [0.7] * n),
    st.lists(st.integers(min_value=-300, max_value=300).map(lambda k: 1.05**k), max_size=24),
    st.lists(st.sampled_from([1e16, 1e-8, 1.0]), max_size=24),
)


@settings(max_examples=150, deadline=None)
@given(
    profits=_profit_lists,
    sizes=st.lists(_sizes, min_size=24, max_size=24),
    slack=st.lists(st.sampled_from([1.0 + 1e-9, 2.0]), min_size=1, max_size=3),
    # one more capacity near or below the total
    tight=st.one_of(st.none(), st.sampled_from([1.0, 1.0 + 1e-15, 0.99, 0.5])),
)
# a zero-size state with a tiny profit sorts before the root, so the DP keeps
# it although it does not beat the root by PROFIT_EPS: the profit guard's case
@example(profits=[0.0, 1e-16], sizes=[0.0] * 24, slack=[2.0], tight=None)
def test_exit_matches_forced_dp(profits, sizes, slack, tight):
    items = _items(sizes, profits)
    total = math.fsum(i.size for i in items)
    capacities = [total * s for s in slack]
    if tight is not None:
        capacities.append(total * tight)
    _assert_matches_dp(items, capacities)
    solution = all_fit_solution(items, capacities)
    if solution is not None:
        assert total <= min(capacities)
        assert solution == solve_knapsack_multi(items, capacities)[min(capacities)]


class TestGuards:
    def test_everything_fits_takes_every_profitable_item(self):
        items = _items([3, 0, 5, 2], [4.0, 2.5, 0.0, 1.0])
        assert all_fit_solution(items, (11.0, 20.0)) == (7.5, [items[0], items[1], items[3]])
        _assert_matches_dp(items, [11.0, 20.0])

    def test_size_guard_declines_a_binding_capacity(self):
        items = _items([3, 5, 2], [4.0, 2.0, 1.0])
        assert all_fit_solution(items, (20.0, 9.0)) is None
        _assert_matches_dp(items, [20.0, 9.0])

    @pytest.mark.parametrize(
        "profits",
        [
            [1.0, 1e-15, 2.0],  # below 4 * PROFIT_EPS
            [1e16, 1e-8, 1.0],  # below n * 2**-50 * sum(profits)
        ],
    )
    def test_profit_guard_declines_near_ties(self, profits):
        items = _items([1, 1, 1], profits)
        assert all_fit_solution(items, (100.0,)) is None
        _assert_matches_dp(items, [100.0])

    def test_zero_profits_pass_the_profit_guard(self):
        items = _items([1, 1, 1], [0.0, 0.0, 1e-14])
        assert all_fit_solution(items, (100.0,)) == (1e-14, [items[2]])
        _assert_matches_dp(items, [100.0])

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_sums_fall_back(self):
        items = _items([1, 1], [1e308, 1e308])
        assert all_fit_solution(items, (10.0,)) is None
        _assert_matches_dp(items, [10.0])

    @pytest.mark.parametrize("sizes", [[3.0, 4.0, 5.0], [0.1, 0.2, 0.3, 0.4]])
    def test_capacity_edges(self, sizes):
        items = _items(sizes, [2.0, 3.0, 5.0, 7.0][: len(sizes)])
        total = math.fsum(sizes)
        threshold = total * (1.0 + len(items) * 2.0**-52)
        assert all_fit_solution(items, (threshold,)) is not None
        assert all_fit_solution(items, (math.nextafter(threshold, 0.0),)) is None
        for cap in (total, math.nextafter(total, 0.0), math.nextafter(total, math.inf)):
            assert all_fit_solution(items, (cap,)) is None
            _assert_matches_dp(items, [cap])
        _assert_matches_dp(items, [threshold])

    def test_empty_items(self):
        assert all_fit_solution([], (0.0,)) == (0.0, [])
        assert solve_knapsack([], 0.0) == (0.0, [])
        assert solve_knapsack_multi([], [0.0, 5.0]) == {0.0: (0.0, []), 5.0: (0.0, [])}
        _assert_matches_dp([], [0.0, 5.0])


def _count_add_item(monkeypatch):
    calls = []
    original = DominanceList.add_item

    def counted(self, *args, **kwargs):
        calls.append(args[1])
        return original(self, *args, **kwargs)

    monkeypatch.setattr(DominanceList, "add_item", counted)
    return calls


def test_zero_profit_items_never_reach_the_dp(monkeypatch):
    items = _items([3, 4, 2, 5, 1], [4.0, 0.0, 3.0, 0.0, 1.0])
    calls = _count_add_item(monkeypatch)
    profit, chosen = solve_knapsack(items, 6.0)
    assert (profit, [i.key for i in chosen]) == (8.0, [0, 2, 4])
    assert calls == [0, 2, 4]
    calls.clear()
    solve_knapsack_multi(items, [6.0, 8.0])
    assert calls == [0, 2, 4]


@pytest.mark.parametrize(
    "n, m, dp_runs",
    [
        (500, 4000, False),  # large m: capacity m minus the forced demand never binds
        (100, 64, True),
    ],
)
def test_bounded_skips_the_dp_only_when_nothing_binds(monkeypatch, n, m, dp_runs):
    calls = _count_add_item(monkeypatch)
    jobs = random_mixed_instance(n, m, seed=1).jobs
    result = schedule_moldable(jobs, m, 0.1, algorithm="bounded")
    assert result.algorithm == "bounded"
    assert bool(calls) == dp_runs
