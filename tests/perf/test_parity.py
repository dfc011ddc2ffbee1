"""Scalar-vs-vectorized parity: the vectorized oracle layer must reproduce
the scalar reference paths bit for bit.

Covers, per the perf-subsystem contract:

* ``MoldableJob.times_for`` and the cross-job ``JobArrayBundle`` kernels
  against ``processing_time`` for every job class;
* ``gamma_batch`` / ``BatchedOracle.gamma_array`` (including bracket reuse
  across successive thresholds) against the scalar binary search;
* the array knapsack DPs against the Python dominance-list / dense-table
  references in ``tests/knapsack/reference_dp.py``;
* whole-algorithm runs: identical makespans from both backends.
"""

import math
import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.allotment import gamma, gamma_batch
from repro.core.bounded_algorithm import bounded_schedule
from repro.core.bounds import ludwig_tiwari_estimator
from repro.core.compressible_algorithm import compressible_schedule
from repro.core.fptas import fptas_schedule
from repro.core.job import (
    AmdahlJob,
    CommunicationJob,
    OracleJob,
    PowerLawJob,
    RigidJob,
    TabulatedJob,
)
from repro.core.mrt import mrt_schedule
from repro.core.two_approx import two_approximation
from repro.knapsack.compressible import solve_compressible_knapsack
from repro.knapsack.dp import solve_knapsack, solve_knapsack_dense
from repro.knapsack.items import KnapsackItem
from repro.perf.arrays import JobArrayBundle
from repro.perf.oracle import BatchedOracle, ScalarOracle

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "knapsack"))
from reference_dp import (  # noqa: E402
    reference_compressible_knapsack,
    reference_knapsack,
    reference_knapsack_dense,
)


# --------------------------------------------------------------------------
# Job strategies
# --------------------------------------------------------------------------

finite_pos = st.floats(min_value=0.05, max_value=500.0, allow_nan=False, allow_infinity=False)


@st.composite
def any_job(draw, index=0):
    kind = draw(st.sampled_from(["amdahl", "powerlaw", "comm", "tab", "rigid", "oracle"]))
    t1 = draw(finite_pos)
    if kind == "amdahl":
        return AmdahlJob(f"a{index}", t1, draw(st.floats(min_value=0.0, max_value=1.0)))
    if kind == "powerlaw":
        return PowerLawJob(f"p{index}", t1, draw(st.floats(min_value=0.0, max_value=1.0)))
    if kind == "comm":
        # overhead 0 exactly (k_star=None path) or bounded away from the
        # subnormal range where t1/overhead overflows
        overhead = draw(st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=0.5)))
        return CommunicationJob(f"c{index}", t1, overhead)
    if kind == "tab":
        length = draw(st.integers(min_value=1, max_value=12))
        times = sorted(
            draw(st.lists(finite_pos, min_size=length, max_size=length)), reverse=True
        )
        return TabulatedJob(f"t{index}", times)
    if kind == "rigid":
        return RigidJob(f"r{index}", t1, draw(st.integers(min_value=1, max_value=16)))
    return OracleJob(f"o{index}", lambda k, t1=t1: t1 / math.sqrt(k))


@st.composite
def job_lists(draw, max_jobs=12):
    n = draw(st.integers(min_value=1, max_value=max_jobs))
    return [draw(any_job(index=i)) for i in range(n)]


# --------------------------------------------------------------------------
# times_for / bundle parity
# --------------------------------------------------------------------------

class TestTimesForParity:
    @given(any_job(), st.lists(st.integers(min_value=1, max_value=1 << 20), min_size=1, max_size=40))
    @settings(max_examples=150, deadline=None)
    def test_times_for_matches_processing_time_bitwise(self, job, ks):
        batch = job.times_for(np.asarray(ks))
        scalar = np.array([job.processing_time(k) for k in ks], dtype=np.float64)
        assert np.array_equal(batch, scalar)

    @given(job_lists(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_bundle_eval_matches_scalar_bitwise(self, jobs, data):
        bundle = JobArrayBundle(jobs)
        ks = data.draw(
            st.lists(
                st.integers(min_value=1, max_value=1 << 16),
                min_size=len(jobs),
                max_size=len(jobs),
            )
        )
        batch = bundle.eval_all(np.asarray(ks, dtype=np.float64))
        scalar = np.array(
            [job.processing_time(k) for job, k in zip(jobs, ks)], dtype=np.float64
        )
        assert np.array_equal(batch, scalar)

    def test_times_for_rejects_bad_counts(self):
        job = AmdahlJob("a", 10.0, 0.2)
        with pytest.raises(ValueError):
            job.times_for(np.array([0]))
        with pytest.raises(ValueError):
            job.times_for(np.array([1.5]))
        with pytest.raises(ValueError):
            job.times_for(np.array([[1, 2]]))

    def test_times_for_float_counts_on_every_class(self):
        """Integral float64 counts give the scalar oracle's answers on every
        job class, including a subclass whose override no kernel knows."""

        class SlowAmdahl(AmdahlJob):
            __slots__ = ()

            def _time(self, k):
                return 2.0 * super()._time(k)

        jobs = [
            AmdahlJob("a", 10.0, 0.2),
            SlowAmdahl("s", 10.0, 0.2),
            PowerLawJob("p", 8.0, 0.5),
            CommunicationJob("c", 50.0, 0.5),
            CommunicationJob("c0", 50.0, 0.0),
            TabulatedJob("t", [9.0, 5.0, 4.0]),
            RigidJob("r", 3.0, 4),
            OracleJob("o", lambda k: 12.0 / k),
            OracleJob("h", lambda k: 12.0 / k, times_vectorized=lambda ks: 12.0 / ks),
        ]
        ks = [1, 2, 3, 4, 7, 64, 1 << 40]
        for job in jobs:
            got = job.times_for(np.array(ks, dtype=np.float64)).tolist()
            assert got == [job.processing_time(k) for k in ks], job.name
        # past int64 a float count reaches the job as the exact int it is
        huge = RigidJob("huge", 1.0, 1 << 70)
        assert huge.times_for(np.array([2.0**64])).tolist() == [huge.processing_time(1 << 64)]

    def test_times_for_accepts_float_integers_and_empty(self):
        job = PowerLawJob("p", 8.0, 0.5)
        assert job.times_for(np.array([], dtype=np.int64)).shape == (0,)
        assert np.array_equal(job.times_for(np.array([1.0, 4.0])), job.times_for(np.array([1, 4])))


class TestCountsPast2To53:
    """int64 counts past 2^53 reach the kernels exactly: float64 would round
    2^53 + 1 down to 2^53, where each job below changes its answer."""

    STEP = (1 << 53) + 1
    KS = np.array([1 << 53, STEP, 1 << 60], dtype=np.int64)

    def jobs(self):
        step = self.STEP
        return [
            OracleJob("fallback", lambda k: 1e6 if k < step else 1.0),
            OracleJob(
                "hook",
                lambda k: 1e6 if k < step else 1.0,
                times_vectorized=lambda ks: np.where(ks <= 2.0**53, 1e6, 1.0),
            ),
            RigidJob("rigid", 1.0, step),
            AmdahlJob("amdahl", 3.0, 0.25),
        ]

    def test_times_for(self):
        for job in self.jobs():
            expected = [job.processing_time(k) for k in self.KS.tolist()]
            assert job.times_for(self.KS).tolist() == expected, job.name

    def test_times_for_past_int64_is_exact(self):
        """Counts past int64 arrive as an object array of Python ints; a
        float64 copy would round 2^79 + 1 down to 2^79."""
        step = (1 << 79) + 1
        job = OracleJob("s", lambda k: 1e6 if k < step else 1.0)
        ks = np.array([1 << 79, step, 1 << 80])
        assert ks.dtype == object
        assert job.times_for(ks).tolist() == [1e6, 1.0, 1.0]
        assert job.times_for(np.array([step])).tolist() == [job.processing_time(step)]
        with pytest.raises(ValueError, match="positive integer"):
            job.times_for(np.array([step, 0]))

    def test_bundle_eval_at_and_eval_all(self):
        jobs = self.jobs()
        bundle = JobArrayBundle(jobs)
        for k in self.KS.tolist():
            expected = [job.processing_time(k) for job in jobs]
            assert bundle.eval_all(np.int64(k)).tolist() == expected
            idx = np.arange(len(jobs), dtype=np.int64)
            assert bundle.eval_at(idx, np.full(len(jobs), k, dtype=np.int64)).tolist() == expected


# --------------------------------------------------------------------------
# gamma_batch parity
# --------------------------------------------------------------------------

class TestGammaBatchParity:
    @given(
        job_lists(),
        st.integers(min_value=1, max_value=1 << 14),
        st.lists(st.floats(min_value=1e-3, max_value=2e3), min_size=1, max_size=8),
    )
    @settings(max_examples=100, deadline=None)
    def test_gamma_batch_matches_scalar(self, jobs, m, thresholds):
        oracle = BatchedOracle(jobs, m)
        # successive thresholds share one oracle: exercises the γ-breakpoint
        # cache (brackets narrowed from neighbouring cached thresholds).
        for threshold in thresholds:
            got = gamma_batch(jobs, threshold, m, oracle=oracle)
            for job, g in zip(jobs, got):
                expected = gamma(job, threshold, m)
                if expected is None:
                    assert g == m + 1
                else:
                    assert g == expected

    @given(
        job_lists(),
        st.integers(min_value=1, max_value=1 << 14),
        st.lists(st.floats(min_value=1e-3, max_value=2e3), min_size=1, max_size=8),
    )
    @settings(max_examples=50, deadline=None)
    def test_scalar_oracle_columns_match_the_batched_oracle(self, jobs, m, thresholds):
        scalar, batched = ScalarOracle(jobs, m), BatchedOracle(jobs, m)
        assert np.array_equal(scalar.t1, batched.t1) and np.array_equal(scalar.tm, batched.tm)
        backwards = np.arange(len(jobs))[::-1]
        for threshold in thresholds:
            gammas = scalar.gamma_array(threshold)
            assert np.array_equal(gammas, batched.gamma_array(threshold))
            ks = np.minimum(gammas, m)[backwards]
            assert np.array_equal(scalar.times_at(ks, backwards), batched.times_at(ks, backwards))
        assert scalar.gamma_probes is None

    def test_scalar_drop_in_gamma(self):
        jobs = [AmdahlJob(f"a{i}", 10.0 + i, 0.1) for i in range(5)]
        oracle = BatchedOracle(jobs, 64)
        for job in jobs:
            for threshold in (0.0, 0.5, 3.0, 11.0, 100.0):
                assert oracle.gamma(job, threshold, 64) == gamma(job, threshold, 64)

    def test_gamma_batch_nonpositive_threshold(self):
        jobs = [AmdahlJob("a", 10.0, 0.1)]
        assert gamma_batch(jobs, 0.0, 8)[0] == 9
        assert gamma_batch(jobs, -1.0, 8)[0] == 9


# --------------------------------------------------------------------------
# Array knapsack parity
# --------------------------------------------------------------------------

@st.composite
def knapsack_instances(draw, max_items=14, max_size=24):
    n = draw(st.integers(min_value=0, max_value=max_items))
    items = [
        KnapsackItem(
            key=i,
            size=draw(st.integers(min_value=1, max_value=max_size)),
            profit=draw(st.floats(min_value=0.0, max_value=200.0)),
        )
        for i in range(n)
    ]
    capacity = draw(st.integers(min_value=0, max_value=3 * max_size))
    return items, capacity


class TestArrayKnapsackParity:
    @given(knapsack_instances())
    @settings(max_examples=150, deadline=None)
    def test_dominance_engines_agree(self, instance):
        items, capacity = instance
        p_s, c_s = reference_knapsack(items, capacity)
        p_v, c_v = solve_knapsack(items, capacity)
        assert p_s == p_v
        assert [i.key for i in c_s] == [i.key for i in c_v]

    @given(knapsack_instances())
    @settings(max_examples=100, deadline=None)
    def test_dense_engines_agree(self, instance):
        items, capacity = instance
        p_s, c_s = reference_knapsack_dense(items, capacity)
        p_v, c_v = solve_knapsack_dense(items, capacity)
        assert p_s == p_v
        assert [i.key for i in c_s] == [i.key for i in c_v]

    @given(knapsack_instances(), st.floats(min_value=0.01, max_value=0.25))
    @settings(max_examples=100, deadline=None)
    def test_compressible_engines_agree(self, instance, rho):
        items, capacity = instance
        compressible_keys = {i.key for i in items if i.size >= 1.0 / rho}
        s = reference_compressible_knapsack(items, compressible_keys, capacity, rho)
        v = solve_compressible_knapsack(items, compressible_keys, capacity, rho)
        assert s.profit == v.profit
        assert [i.key for i in s.items] == [i.key for i in v.items]


# --------------------------------------------------------------------------
# Whole-algorithm parity: identical makespans from both backends
# --------------------------------------------------------------------------

@st.composite
def monotone_instances(draw, max_jobs=10):
    """Monotone-only jobs (the algorithms' contract) plus a machine count."""
    n = draw(st.integers(min_value=1, max_value=max_jobs))
    jobs = []
    for i in range(n):
        kind = draw(st.sampled_from(["amdahl", "powerlaw", "comm"]))
        t1 = draw(st.floats(min_value=0.5, max_value=100.0))
        if kind == "amdahl":
            jobs.append(AmdahlJob(f"a{i}", t1, draw(st.floats(min_value=0.01, max_value=0.9))))
        elif kind == "powerlaw":
            jobs.append(PowerLawJob(f"p{i}", t1, draw(st.floats(min_value=0.1, max_value=1.0))))
        else:
            jobs.append(CommunicationJob(f"c{i}", t1, draw(st.floats(min_value=1e-4, max_value=0.05))))
    m = draw(st.integers(min_value=1, max_value=256))
    return jobs, m


class TestAlgorithmBackendParity:
    @given(monotone_instances(), st.sampled_from([0.1, 0.25, 0.5]))
    @settings(max_examples=40, deadline=None)
    def test_mrt_backends_identical(self, instance, eps):
        jobs, m = instance
        s = mrt_schedule(jobs, m, eps, backend="scalar")
        v = mrt_schedule(jobs, m, eps, backend="vectorized")
        assert s.makespan == v.makespan
        assert s.accepted_d == v.accepted_d

    @given(monotone_instances(), st.sampled_from([0.1, 0.25, 0.5]))
    @settings(max_examples=30, deadline=None)
    def test_compressible_backends_identical(self, instance, eps):
        jobs, m = instance
        s = compressible_schedule(jobs, m, eps, backend="scalar")
        v = compressible_schedule(jobs, m, eps, backend="vectorized")
        assert s.makespan == v.makespan
        assert s.accepted_d == v.accepted_d

    @given(monotone_instances(), st.sampled_from([0.1, 0.5]))
    @settings(max_examples=30, deadline=None)
    def test_bounded_backends_identical(self, instance, eps):
        jobs, m = instance
        s = bounded_schedule(jobs, m, eps, backend="scalar")
        v = bounded_schedule(jobs, m, eps, backend="vectorized")
        assert s.makespan == v.makespan
        assert s.accepted_d == v.accepted_d

    @given(monotone_instances(max_jobs=6), st.sampled_from([0.25, 0.5, 1.0]))
    @settings(max_examples=30, deadline=None)
    def test_fptas_backends_identical(self, instance, eps):
        jobs, _ = instance
        m = int(math.ceil(8 * len(jobs) / eps)) + 1
        s = fptas_schedule(jobs, m, eps, backend="scalar")
        v = fptas_schedule(jobs, m, eps, backend="vectorized")
        assert s.makespan == v.makespan
        assert s.accepted_d == v.accepted_d

    @given(monotone_instances())
    @settings(max_examples=30, deadline=None)
    def test_estimator_backends_identical(self, instance):
        jobs, m = instance
        scalar = ludwig_tiwari_estimator(jobs, m)
        vectorized = ludwig_tiwari_estimator(jobs, m, oracle=BatchedOracle(jobs, m))
        assert scalar.omega == vectorized.omega
        assert all(scalar.allotment[j] == vectorized.allotment[j] for j in jobs)

    @given(monotone_instances())
    @settings(max_examples=20, deadline=None)
    def test_two_approx_backends_identical(self, instance):
        jobs, m = instance
        s = two_approximation(jobs, m, backend="scalar")
        v = two_approximation(jobs, m, backend="vectorized")
        assert s.makespan == v.makespan
