"""Tests for knapsack item containers."""

import math

import pytest

NON_FINITE = [math.nan, math.inf, -math.inf]

from repro.knapsack.items import ItemType, KnapsackItem


class TestKnapsackItem:
    def test_construction(self):
        item = KnapsackItem(key="a", size=3, profit=5.0, payload="job")
        assert item.size == 3
        assert item.profit == 5.0
        assert item.payload == "job"

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            KnapsackItem(key="a", size=-1, profit=1.0)

    def test_negative_profit_rejected(self):
        with pytest.raises(ValueError):
            KnapsackItem(key="a", size=1, profit=-1.0)

    def test_zero_values_allowed(self):
        item = KnapsackItem(key="a", size=0, profit=0.0)
        assert item.size == 0

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_non_finite_rejected(self, value):
        with pytest.raises(ValueError, match="finite"):
            KnapsackItem(key="a", size=value, profit=1.0)
        with pytest.raises(ValueError, match="finite"):
            KnapsackItem(key="a", size=1, profit=value)


class TestItemType:
    def test_construction(self):
        t = ItemType(key="t", size=2, profit=3.0, count=4)
        assert t.count == 4
        assert t.members == []

    def test_members_length_checked(self):
        with pytest.raises(ValueError):
            ItemType(key="t", size=2, profit=3.0, count=3, members=["a"])

    def test_members_ok_when_matching(self):
        t = ItemType(key="t", size=2, profit=3.0, count=2, members=["a", "b"])
        assert t.members == ["a", "b"]

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            ItemType(key="t", size=2, profit=3.0, count=0)

    def test_negative_size_or_profit(self):
        with pytest.raises(ValueError):
            ItemType(key="t", size=-2, profit=3.0, count=1)
        with pytest.raises(ValueError):
            ItemType(key="t", size=2, profit=-3.0, count=1)

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_non_finite_size_or_profit(self, value):
        with pytest.raises(ValueError, match="finite"):
            ItemType(key="t", size=value, profit=3.0, count=1)
        with pytest.raises(ValueError, match="finite"):
            ItemType(key="t", size=2, profit=value, count=1)
