"""Unit tests of the capacity policy (``repro.core.capacity``).

The int64 columns and their exact object-dtype fallback: ``exact_add`` past
int64, ``total_fits_int64`` at the ``2**62`` cap and in the float gap above
``2**53``, and ``index_array`` past int64 — each also pinned against a
Python-int (arbitrary precision) reference on values straddling the
``2**53``, ``2**62`` and ``2**63`` boundaries and in randomized sweeps
seeded per magnitude band.
"""

import random

import numpy as np
import pytest

from repro.core.capacity import (
    MAX_COLUMNAR_M,
    MAX_EXACT_FLOAT_M,
    exact_add,
    index_array,
    total_fits_int64,
)

INT64_MAX = (1 << 63) - 1

BOUNDARY_VALUES = [
    1,
    MAX_EXACT_FLOAT_M - 1,
    MAX_EXACT_FLOAT_M,
    MAX_EXACT_FLOAT_M + 1,
    MAX_COLUMNAR_M - 1,
    MAX_COLUMNAR_M,
    MAX_COLUMNAR_M + 1,
    INT64_MAX,
    INT64_MAX + 1,
    1 << 80,
]

#: Exclusive upper bounds of the random sweeps' magnitude bands: just past
#: the exact-float cut, just past the int64-column cap, the whole int64 range.
SWEEP_BOUNDS = [MAX_EXACT_FLOAT_M + 3, MAX_COLUMNAR_M + 3, INT64_MAX]


def _random_values(rng, n, bound):
    return [rng.randrange(1, bound) for _ in range(n)]


class TestExactAdd:
    def test_sums_that_fit_stay_int64(self):
        out = exact_add(np.array([1, 2], dtype=np.int64), np.array([3, (1 << 62)], dtype=np.int64))
        assert out.dtype == np.int64 and out.tolist() == [4, (1 << 62) + 2]

    def test_a_sum_past_int64_goes_exact(self):
        a = np.array([1, 3 << 61], dtype=np.int64)
        out = exact_add(a, a)
        assert out.dtype == object and out.tolist() == [2, 3 << 62]

    @pytest.mark.parametrize("bound", SWEEP_BOUNDS)
    def test_matches_python_ints(self, bound):
        rng = random.Random(bound % 1009)
        xs = _random_values(rng, 200, bound)
        ys = [rng.randrange(0, bound) for _ in xs]
        out = exact_add(np.array(xs, dtype=np.int64), np.array(ys, dtype=np.int64))
        expect = [x + y for x, y in zip(xs, ys)]
        assert out.tolist() == expect
        # int64 exactly when no sum passes the int64 limit
        assert (out.dtype == np.int64) == (max(expect) <= INT64_MAX)

    def test_object_columns_match_python_ints(self):
        rng = random.Random(29)
        xs = _random_values(rng, 120, 1 << 90)
        ys = _random_values(rng, 120, 1 << 90)
        out = exact_add(np.array(xs, dtype=object), np.array(ys, dtype=object))
        assert out.tolist() == [x + y for x, y in zip(xs, ys)]


class TestFloatBoundary:
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

    @pytest.mark.parametrize("bound", SWEEP_BOUNDS)
    def test_matches_python_ints(self, bound):
        """Random columns, and the same columns with the last value moved so
        the total sits one under, on and one past the cap; the decision
        equals the Python-int total's."""
        rng = random.Random(bound % 997)
        for n in (1, 2, 3, 8, 40):
            vals = _random_values(rng, n, min(bound, MAX_COLUMNAR_M // n + 2))
            head = vals[:-1]
            cases = [vals] + [head + [MAX_COLUMNAR_M + d - sum(head)] for d in (-1, 0, 1)]
            for procs in cases:
                expect = sum(procs) <= MAX_COLUMNAR_M
                assert total_fits_int64(np.array(procs, dtype=np.int64)) == expect
                assert total_fits_int64(np.array(procs, dtype=object)) == expect


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

    @pytest.mark.parametrize("value", BOUNDARY_VALUES, ids=hex)
    def test_roundtrip_is_exact(self, value):
        """int64 while the value fits, exact Python ints past it, in every
        position of the column."""
        for vals in ([value], [1, value], [value, 2, value]):
            arr = index_array(vals)
            assert arr.tolist() == vals
            assert (arr.dtype == np.int64) == (value <= INT64_MAX)
