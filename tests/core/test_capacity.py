"""Unit tests of the capacity policy (``repro.core.capacity``).

Every wide-limb operation is pinned against a Python-int (arbitrary
precision) reference on values straddling the three tier boundaries —
``2**53`` (exact-float), ``2**62`` (int64 columns) and ``2**93`` (wide
limbs) — plus randomized sweeps seeded per magnitude band.
"""

import random

import numpy as np
import pytest

from repro.core.capacity import (
    INT64_OPS,
    MAX_COLUMNAR_M,
    MAX_EXACT_FLOAT_M,
    MAX_WIDE_TOTAL,
    OBJECT_OPS,
    WIDE_OPS,
    capacity_ops,
    capacity_tier,
    exact_add,
    float_exact,
    index_array,
    total_fits_int64,
)

BOUNDARY_VALUES = [
    1,
    MAX_EXACT_FLOAT_M - 1,
    MAX_EXACT_FLOAT_M,
    MAX_EXACT_FLOAT_M + 1,
    MAX_COLUMNAR_M - 1,
    MAX_COLUMNAR_M,
    MAX_COLUMNAR_M + 1,
    1 << 80,
    MAX_WIDE_TOTAL - 1,
]


def _random_values(rng, n, bound):
    return [rng.randrange(1, bound) for _ in range(n)]


class TestTierSelection:
    def test_int64_boundary_is_the_historical_guard(self):
        m = 1 << 40
        assert capacity_tier(m, MAX_COLUMNAR_M - m) == "int64"
        assert capacity_tier(m, MAX_COLUMNAR_M - m + 1) == "wide"

    def test_m_alone_pushes_past_int64(self):
        assert capacity_tier(MAX_COLUMNAR_M) == "int64"
        assert capacity_tier(MAX_COLUMNAR_M + 1) == "wide"

    def test_wide_boundary(self):
        m = 1 << 80
        assert capacity_tier(m, MAX_WIDE_TOTAL - m) == "wide"
        assert capacity_tier(m, MAX_WIDE_TOTAL - m + 1) == "object"
        assert capacity_tier(MAX_WIDE_TOTAL + 1) == "object"

    def test_ops_objects_match_tiers(self):
        assert capacity_ops(64) is INT64_OPS
        assert capacity_ops(1 << 70) is WIDE_OPS
        assert capacity_ops(1 << 100) is OBJECT_OPS


class TestExactAdd:
    def test_sums_that_fit_stay_int64(self):
        out = exact_add(np.array([1, 2], dtype=np.int64), np.array([3, (1 << 62)], dtype=np.int64))
        assert out.dtype == np.int64 and out.tolist() == [4, (1 << 62) + 2]

    def test_a_sum_past_int64_goes_exact(self):
        a = np.array([1, 3 << 61], dtype=np.int64)
        out = exact_add(a, a)
        assert out.dtype == object and out.tolist() == [2, 3 << 62]


class TestFloatBoundary:
    def test_float_exact_cuts_at_2_53(self):
        assert float_exact(MAX_EXACT_FLOAT_M)
        assert not float_exact(MAX_EXACT_FLOAT_M + 1)

    def test_total_fits_int64_is_exact_in_the_float_gap(self):
        # 2**62 + 2 rounds to exactly 2**62 in float64: the historical float
        # guard called this total safe, the exact check must not.
        procs = np.array([MAX_COLUMNAR_M, 2], dtype=np.int64)
        assert float(np.sum(procs.astype(np.float64))) <= float(MAX_COLUMNAR_M)
        assert not total_fits_int64(procs)

    def test_total_fits_int64_accepts_the_exact_cap(self):
        procs = np.array([MAX_COLUMNAR_M - 7, 7], dtype=np.int64)
        assert total_fits_int64(procs)

    def test_total_fits_int64_object_dtype(self):
        procs = np.array([1 << 80, 1], dtype=object)
        assert not total_fits_int64(procs)
        assert total_fits_int64(np.array([1 << 50, 1 << 50], dtype=object))


class TestIndexArray:
    def test_small_values_stay_int64(self):
        arr = index_array([1, 2, 3])
        assert arr.dtype == np.int64

    def test_huge_values_fall_back_to_object(self):
        arr = index_array([1, 1 << 80])
        assert arr.dtype == object
        assert arr.tolist() == [1, 1 << 80]

    def test_empty(self):
        assert index_array([]).dtype == np.int64


@pytest.mark.parametrize("ops", [WIDE_OPS, OBJECT_OPS], ids=["wide", "object"])
class TestOpsAgainstPythonReference:
    """The wide and object tiers must reproduce exact Python-int arithmetic."""

    def test_roundtrip(self, ops):
        vals = BOUNDARY_VALUES
        assert ops.tolist(ops.asarray(vals)) == vals

    def test_cumsum(self, ops):
        rng = random.Random(7)
        # stay within the tier contract: the 200-element total must not
        # exceed MAX_WIDE_TOTAL (200 * 2**85 < 2**93)
        for bound in (MAX_EXACT_FLOAT_M + 3, MAX_COLUMNAR_M + 3, 1 << 85):
            vals = _random_values(rng, 200, bound)
            expect = []
            acc = 0
            for v in vals:
                acc += v
                expect.append(acc)
            assert ops.tolist(ops.cumsum(ops.asarray(vals))) == expect

    def test_le_mask(self, ops):
        rng = random.Random(13)
        vals = _random_values(rng, 100, 1 << 90)
        bound = rng.randrange(1, 1 << 90)
        got = ops.le_mask(ops.asarray(vals), bound)
        assert got.tolist() == [v <= bound for v in vals]

    def test_count_le_matches_bisect(self, ops):
        rng = random.Random(17)
        vals = sorted(_random_values(rng, 150, 1 << 90))
        for bound in (vals[0] - 1, vals[0], vals[75], vals[-1], vals[-1] + 1):
            expect = sum(1 for v in vals if v <= bound)
            assert ops.count_le(ops.asarray(vals), bound) == expect

    def test_item_and_negative_index(self, ops):
        vals = [1 << 80, (1 << 80) + 5, 3]
        a = ops.asarray(vals)
        assert ops.item(a, 0) == vals[0]
        assert ops.item(a, -1) == 3

    def test_merge_bounds_is_sorted_unique_union(self, ops):
        rng = random.Random(19)
        a = sorted(_random_values(rng, 60, 1 << 90))
        b = sorted(a[:20] + _random_values(rng, 40, 1 << 90))
        got = ops.tolist(ops.merge_bounds(ops.asarray(a), ops.asarray(b)))
        assert got == sorted(set(a) | set(b))

    def test_cut_positions_is_searchsorted_right(self, ops):
        import bisect

        rng = random.Random(23)
        a = sorted(_random_values(rng, 80, 1 << 90))
        b = sorted(a[::7] + _random_values(rng, 30, 1 << 90))
        got = ops.cut_positions(ops.asarray(a), ops.asarray(b))
        expect = [bisect.bisect_right(a, v) for v in b]
        assert list(map(int, got)) == expect

    def test_add_sub_with_carries(self, ops):
        rng = random.Random(29)
        xs = _random_values(rng, 120, 1 << 90)
        ys = [rng.randrange(0, x + 1) for x in xs]
        ax, ay = ops.asarray(xs), ops.asarray(ys)
        assert ops.tolist(ops.add(ax, ay)) == [x + y for x, y in zip(xs, ys)]
        assert ops.tolist(ops.sub(ax, ay)) == [x - y for x, y in zip(xs, ys)]

    def test_prepend_zero_head_take(self, ops):
        vals = [1 << 85, 7, 1 << 62]
        a = ops.asarray(vals)
        assert ops.tolist(ops.prepend_zero(a)) == [0] + vals
        assert ops.tolist(ops.head(a, 2)) == vals[:2]
        idx = np.array([2, 0], dtype=np.int64)
        assert ops.tolist(ops.take(a, idx)) == [vals[2], vals[0]]

    def test_huge_python_int_slice_bound(self, ops):
        a = ops.asarray([1, 2, 3])
        assert ops.tolist(ops.head(a, 1 << 80)) == [1, 2, 3]

    def test_empty_vectors(self, ops):
        a = ops.asarray([])
        assert len(a) == 0
        assert ops.tolist(a) == []
        assert ops.tolist(ops.cumsum(a)) == []
        assert ops.tolist(ops.merge_bounds(a, ops.asarray([5]))) == [5]


class TestInt64OpsParity:
    """The int64 tier must behave identically to the other tiers on shared
    inputs (it is the fast path the schedulers ran on all along)."""

    def test_same_answers_as_object_ops(self):
        rng = random.Random(31)
        vals = [rng.randrange(1, 1 << 40) for _ in range(100)]
        a64 = INT64_OPS.asarray(vals)
        aob = OBJECT_OPS.asarray(vals)
        awd = WIDE_OPS.asarray(vals)
        assert INT64_OPS.tolist(INT64_OPS.cumsum(a64)) == OBJECT_OPS.tolist(
            OBJECT_OPS.cumsum(aob)
        )
        assert INT64_OPS.tolist(INT64_OPS.cumsum(a64)) == WIDE_OPS.tolist(
            WIDE_OPS.cumsum(awd)
        )
        bound = vals[50]
        assert (
            INT64_OPS.le_mask(a64, bound).tolist()
            == WIDE_OPS.le_mask(awd, bound).tolist()
        )
