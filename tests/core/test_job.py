"""Tests for the moldable job models."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.job import (
    AmdahlJob,
    CommunicationJob,
    MoldableJob,
    OracleJob,
    PowerLawJob,
    RigidJob,
    TabulatedJob,
    max_sequential_time,
    total_minimal_work,
)
from repro.core.validation import is_monotone_work, is_nonincreasing_time


class TestTabulatedJob:
    def test_lookup(self):
        job = TabulatedJob("t", [10.0, 6.0, 5.0])
        assert job.processing_time(1) == 10.0
        assert job.processing_time(2) == 6.0
        assert job.processing_time(3) == 5.0

    def test_clamp_beyond_table(self):
        job = TabulatedJob("t", [10.0, 6.0])
        assert job.processing_time(5) == 6.0
        assert job.processing_time(1000) == 6.0

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            TabulatedJob("t", [])

    def test_nonpositive_time_rejected(self):
        with pytest.raises(ValueError):
            TabulatedJob("t", [1.0, 0.0])

    def test_work_and_speedup(self):
        job = TabulatedJob("t", [12.0, 7.0, 6.0])
        assert job.work(2) == pytest.approx(14.0)
        assert job.speedup(3) == pytest.approx(2.0)
        assert job.efficiency(3) == pytest.approx(2.0 / 3.0)


class TestOracleJob:
    def test_callable_is_used(self):
        job = OracleJob("o", lambda k: 100.0 / k)
        assert job.processing_time(4) == pytest.approx(25.0)

    def test_memoisation(self):
        calls = []

        def oracle(k):
            calls.append(k)
            return 10.0 / k

        job = OracleJob("o", oracle)
        job.processing_time(3)
        job.processing_time(3)
        assert calls == [3]

    def test_invalid_oracle_value(self):
        job = OracleJob("bad", lambda k: -1.0)
        with pytest.raises(ValueError):
            job.processing_time(1)

    def test_nan_oracle_value(self):
        job = OracleJob("nan", lambda k: float("nan"))
        with pytest.raises(ValueError):
            job.processing_time(2)


INVALID_COUNTS = [math.inf, math.nan, None, "2", 2.5, 0, -1]


class TestProcessorCountValidation:
    """Every ``k`` that is not a positive integer raises ValueError, whether
    or not the memo already holds valid counts: the hit path, which skips the
    check, must never admit one."""

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize("bad", INVALID_COUNTS, ids=repr)
    def test_rejected(self, bad, warm):
        job = AmdahlJob("a", 10.0, 0.1)
        if warm:
            for k in range(1, 65):
                job.processing_time(k)
        with pytest.raises(ValueError, match="processor count must be a positive integer"):
            job.processing_time(bad)
        assert all(type(key) is int for key in job._cache)

    def test_unhashable_rejected(self):
        with pytest.raises(ValueError, match="processor count must be a positive integer"):
            AmdahlJob("a", 10.0, 0.1).processing_time([2])

    def test_refresh_at_capacity_keeps_int_keys(self):
        job = OracleJob("o", lambda k: 100.0 / k)
        for k in range(1, job.MEMO_CAPACITY + 1):
            job.processing_time(k)
        assert job.processing_time(2.0) == 50.0  # hit at capacity: refreshes
        assert job.processing_time(np.int64(3)) == 100.0 / 3
        assert list(job._cache)[-2:] == [2, 3]
        assert all(type(key) is int for key in job._cache)

    def test_clear_memo(self):
        job = OracleJob("o", lambda k: 100.0 / k)
        for k in range(1, job.MEMO_CAPACITY + 3):
            job.processing_time(k)
        job.clear_memo()
        assert job.memo_stats() == {"size": 0, "capacity": job.MEMO_CAPACITY, "evictions": 0}


JOB_FACTORIES = [
    lambda: TabulatedJob("t", [12.0, 7.0, 6.0, 5.5]),
    lambda: OracleJob("o", lambda k: 100.0 / k + 0.25),
    lambda: AmdahlJob("a", 37.0, 0.07),
    lambda: PowerLawJob("p", 50.0, 0.6),
    lambda: CommunicationJob("c", 100.0, 0.5),
    lambda: RigidJob("r", 4.0, 8),
]
COUNT_TYPES = [int, np.int64, float]


class TestMemoContract:
    @settings(max_examples=100, deadline=None)
    @given(
        make=st.sampled_from(JOB_FACTORIES),
        k=st.integers(1, 2**53),
        miss_as=st.sampled_from(COUNT_TYPES),
        hit_as=st.sampled_from(COUNT_TYPES),
    )
    def test_hit_returns_first_evaluation(self, make, k, miss_as, hit_as):
        """A hit returns the float a fresh job computes on its first
        evaluation of ``k``, whichever integral type each call used."""
        expected = make().processing_time(k)
        job = make()
        assert job.processing_time(miss_as(k)) == expected
        hit = job.processing_time(hit_as(k))
        assert hit == expected and type(hit) is float
        assert list(job._cache) == [k] and type(next(iter(job._cache))) is int


class TestAmdahlJob:
    def test_serial_fraction_one_means_no_speedup(self):
        job = AmdahlJob("a", 10.0, 1.0)
        assert job.processing_time(64) == pytest.approx(10.0)

    def test_serial_fraction_zero_means_linear_speedup(self):
        job = AmdahlJob("a", 10.0, 0.0)
        assert job.processing_time(10) == pytest.approx(1.0)

    def test_monotone(self):
        job = AmdahlJob("a", 100.0, 0.07)
        assert is_nonincreasing_time(job, 256)
        assert is_monotone_work(job, 256)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            AmdahlJob("a", -1.0, 0.1)
        with pytest.raises(ValueError):
            AmdahlJob("a", 1.0, 1.5)


class TestPowerLawJob:
    def test_alpha_one_is_linear(self):
        job = PowerLawJob("p", 64.0, 1.0)
        assert job.processing_time(8) == pytest.approx(8.0)

    def test_alpha_zero_is_sequential(self):
        job = PowerLawJob("p", 64.0, 0.0)
        assert job.processing_time(8) == pytest.approx(64.0)

    def test_monotone(self):
        job = PowerLawJob("p", 50.0, 0.6)
        assert is_nonincreasing_time(job, 200)
        assert is_monotone_work(job, 200)

    def test_work_grows_as_power(self):
        job = PowerLawJob("p", 10.0, 0.5)
        assert job.work(4) == pytest.approx(10.0 * 4 ** 0.5)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            PowerLawJob("p", 1.0, 2.0)


class TestCommunicationJob:
    def test_monotone_despite_overhead(self):
        job = CommunicationJob("c", t1=100.0, overhead=0.5)
        assert is_nonincreasing_time(job, 128)
        assert is_monotone_work(job, 128)

    def test_saturation(self):
        job = CommunicationJob("c", t1=100.0, overhead=1.0)
        k_star = job.k_star
        assert k_star is not None
        # beyond saturation the processing time stays constant
        assert job.processing_time(k_star) == pytest.approx(job.processing_time(k_star + 10))

    def test_zero_overhead_is_linear(self):
        job = CommunicationJob("c", t1=100.0, overhead=0.0)
        assert job.processing_time(10) == pytest.approx(10.0)

    @pytest.mark.parametrize("t1, overhead", [(1.0, 2.2250738585e-313), (1e300, 1e-10), (1e-10, 5e-324)])
    def test_saturation_past_the_float_range(self, t1, overhead):
        """4 t1 / c overflows a float: k_star is still the exact bound
        k(k+1) <= t1/c, and the kernel agrees with the scalar oracle."""
        from fractions import Fraction

        from repro.perf.arrays import JobArrayBundle

        job = CommunicationJob("c", t1=t1, overhead=overhead)
        k, ratio = job.k_star, Fraction(t1) / Fraction(overhead)
        assert k * (k + 1) <= ratio < (k + 1) * (k + 2)
        ks = np.array([1, 7, 1 << 40, (1 << 62) - 1])
        scalar = [job.processing_time(int(k)) for k in ks]
        assert JobArrayBundle([job]).eval_at(np.zeros(len(ks), dtype=np.int64), ks).tolist() == scalar

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            CommunicationJob("c", t1=0.0, overhead=0.1)
        with pytest.raises(ValueError):
            CommunicationJob("c", t1=1.0, overhead=-0.1)


class TestRigidJob:
    def test_penalty_below_size(self):
        job = RigidJob("r", duration=5.0, size=4)
        assert job.processing_time(3) > 1000 * job.processing_time(4)

    def test_constant_at_or_above_size(self):
        job = RigidJob("r", duration=5.0, size=4)
        assert job.processing_time(4) == pytest.approx(5.0)
        assert job.processing_time(9) == pytest.approx(5.0)

    def test_not_monotone_work(self):
        job = RigidJob("r", duration=5.0, size=4)
        assert not is_monotone_work(job, 8)


class TestAggregates:
    def test_total_minimal_work(self):
        jobs = [TabulatedJob("a", [3.0]), TabulatedJob("b", [4.0])]
        assert total_minimal_work(jobs) == pytest.approx(7.0)

    def test_max_sequential_time(self):
        jobs = [AmdahlJob("a", 10.0, 0.5), AmdahlJob("b", 30.0, 0.5)]
        assert max_sequential_time(jobs, 4) == pytest.approx(30.0 * (0.5 + 0.5 / 4))

    def test_empty(self):
        assert total_minimal_work([]) == 0.0
        assert max_sequential_time([], 4) == 0.0


class TestJobIdentity:
    def test_jobs_hash_by_identity(self):
        a = TabulatedJob("same", [1.0])
        b = TabulatedJob("same", [1.0])
        assert a != b
        assert len({a, b}) == 2

    def test_identity_is_the_object_default(self):
        """Every dict keyed by jobs hashes them: the ``object`` slots do it
        in C, a Python-level ``__hash__`` would run interpreted code."""
        for cls in (MoldableJob, TabulatedJob, AmdahlJob):
            assert cls.__hash__ is object.__hash__
            assert cls.__eq__ is object.__eq__

    def test_is_abstract(self):
        with pytest.raises(TypeError):
            MoldableJob("abstract")  # type: ignore[abstract]


class TestNonFiniteParameters:
    """NaN passes a bare ``value <= 0`` test, so each constructor checks
    finiteness explicitly."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "make",
        [
            lambda v: AmdahlJob("a", v, 0.1),
            lambda v: PowerLawJob("p", v, 0.5),
            lambda v: CommunicationJob("c", v, 0.01),
            lambda v: CommunicationJob("c", 10.0, v),
            lambda v: RigidJob("r", v, 2),
            lambda v: RigidJob("r", 5.0, 2, penalty=v),
        ],
        ids=["amdahl-t1", "powerlaw-t1", "comm-t1", "comm-overhead", "rigid-duration", "rigid-penalty"],
    )
    def test_rejected(self, make, bad):
        with pytest.raises(ValueError, match="finite"):
            make(bad)

    def test_finite_parameters_still_accepted(self):
        assert CommunicationJob("c", 10.0, 0.0).k_star is None
        assert RigidJob("r", 5.0, 2, penalty=1e9).processing_time(1) == 1e9
