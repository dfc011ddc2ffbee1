"""The array dominance-list engine against the Python reference, step by step.

:class:`repro.knapsack.dp.DominanceList` must keep exactly the states of the
textbook pair-list DP (:class:`reference_dp.ReferenceDominanceList`) after
every ``add_item`` — same sizes, same profits, and the same chosen items
when any state is backtracked — including on the tie cases the merge order
decides: equal sizes, equal or zero profits, profits a few ulps apart and
sizes within the ``1e-12`` capacity slack.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from reference_dp import ReferenceDominanceList

from repro.knapsack.compressible import AdaptiveNormalizer
from repro.knapsack.dp import DominanceList
from repro.knapsack.items import KnapsackItem

# one ulp of 1.0 and of the values in [4, 8): steps of these stay within 1e-15
_ULP_1 = 2.0 ** -52
_ULP_4 = 2.0 ** -50

_sizes = st.one_of(
    st.integers(min_value=0, max_value=6).map(float),  # exact ties, zero sizes
    st.builds(  # sizes within 1e-12 of each other
        lambda base, k: base + k * 1e-13,
        st.sampled_from([1.0, 2.5, 3.0]),
        st.integers(min_value=0, max_value=9),
    ),
    st.floats(min_value=0.0, max_value=8.0, allow_nan=False),
)

_profits = st.one_of(
    st.just(0.0),
    st.sampled_from([1.0, 2.0, 3.0]),  # equal profits
    st.builds(  # profits a few ulps apart, within 1e-15 of each other
        lambda base, ulp, k: base + k * ulp,
        st.sampled_from([0.5, 1.0, 5.0]),
        st.sampled_from([_ULP_1, _ULP_4]),
        st.integers(min_value=0, max_value=4),
    ),
    st.floats(min_value=0.0, max_value=16.0, allow_nan=False),
)

_items = st.lists(st.tuples(_sizes, _profits), min_size=1, max_size=10)


def _assert_same_states(array: DominanceList, reference: ReferenceDominanceList, items) -> None:
    pairs = reference.pairs
    assert array.sizes.tolist() == [p.size for p in pairs]
    assert array.profits.tolist() == [p.profit for p in pairs]
    for index, pair in enumerate(pairs):
        assert [i.key for i in array.backtrack(index, items)] == [i.key for i in pair.backtrack(items)]


def _run_both(items, capacity, reference_transform=None, array_transform=None) -> None:
    array = DominanceList()
    reference = ReferenceDominanceList()
    for index, item in enumerate(items):
        reference.add_item(item, index, capacity, size_transform=reference_transform)
        array.add_item(item, index, capacity, size_transform=array_transform)
        _assert_same_states(array, reference, items)


def _knapsack_items(raw):
    return [KnapsackItem(key=i, size=s, profit=p) for i, (s, p) in enumerate(raw)]


@settings(max_examples=300, deadline=None)
@given(raw=_items, capacity=st.floats(min_value=0.0, max_value=20.0, allow_nan=False))
def test_array_engine_matches_scalar_after_every_item(raw, capacity):
    # capacities below the total size cut items and combinations off
    _run_both(_knapsack_items(raw), capacity)


@settings(max_examples=200, deadline=None)
@given(
    raw=_items,
    capacities=st.lists(st.floats(min_value=1.0, max_value=20.0, allow_nan=False), min_size=1, max_size=4),
    alpha_min=st.floats(min_value=0.5, max_value=4.0, allow_nan=False),
    rho=st.sampled_from([0.05, 0.1, 0.25]),
    n_bar=st.integers(min_value=1, max_value=6),
)
def test_array_engine_matches_scalar_under_adaptive_normalizer(raw, capacities, alpha_min, rho, n_bar):
    normalizer = AdaptiveNormalizer(capacities, alpha_min, rho, n_bar)
    _run_both(
        _knapsack_items(raw),
        max(capacities),
        reference_transform=normalizer.normalize,
        array_transform=normalizer.normalize_array,
    )


def test_capacity_cuts_every_new_state():
    items = _knapsack_items([(3.0, 1.0), (5.0, 9.0)])
    array = DominanceList()
    array.add_item(items[0], 0, 4.0)
    array.add_item(items[1], 1, 4.0)  # 5 > 4 on its own: nothing new fits
    assert array.sizes.tolist() == [0.0, 3.0]
    assert array.profits.tolist() == [0.0, 1.0]


def test_equal_size_keeps_the_more_profitable_state():
    # adding (1, 3) makes a new state (1, 3) that ties the old state (1, 2)
    # in size and replaces it
    items = _knapsack_items([(2.0, 1.0), (0.0, 0.0), (1.0, 2.0), (1.0, 3.0)])
    array = DominanceList()
    for index, item in enumerate(items):
        array.add_item(item, index, 10.0)
    assert array.sizes.tolist() == [0.0, 1.0, 2.0, 4.0]
    assert array.profits.tolist() == [0.0, 3.0, 5.0, 6.0]
    assert [i.key for i in array.backtrack(1, items)] == [3]
    _run_both(items, 10.0)


def test_equal_size_near_tie_keeps_the_scalar_winner():
    # the new state (1, 1 + ulp) ties the old state (1, 1) in size and beats
    # it by less than the profit tolerance: the textbook merge puts the more
    # profitable state first, so it is the one kept
    items = _knapsack_items([(1.0, 1.0), (1.0, 1.0 + _ULP_1)])
    array = DominanceList()
    for index, item in enumerate(items):
        array.add_item(item, index, 10.0)
    assert array.sizes.tolist() == [0.0, 1.0, 2.0]
    assert array.profits.tolist() == [0.0, 1.0 + _ULP_1, 2.0]
    assert [i.key for i in array.backtrack(1, items)] == [1]
    _run_both(items, 10.0)


def test_near_tie_is_measured_against_the_last_kept_state():
    # adding (2.5, 1 + 3 ulp) makes a new state (2.5, 1 + 3 ulp) that is
    # dominated by (1, 1) within the profit tolerance; the old state
    # (3, 1 + 6 ulp) beats the last kept state (1, 1) by more than the
    # tolerance but the dominated one by less, and the textbook merge keeps it
    items = _knapsack_items([(1.0, 1.0), (3.0, 1.0 + 6 * _ULP_1), (2.5, 1.0 + 3 * _ULP_1)])
    array = DominanceList()
    for index, item in enumerate(items):
        array.add_item(item, index, 100.0)
    assert array.sizes.tolist()[:4] == [0.0, 1.0, 3.0, 3.5]
    assert [i.key for i in array.backtrack(2, items)] == [1]
    _run_both(items, 100.0)
