"""Unit tests for the perf subsystem itself: the batched oracle's caches and
instrumentation, the job-memo eviction fix, and the simulator/validator
tolerance alignment regression."""

import numpy as np
import pytest

from repro.core.allotment import Allotment, gamma
from repro.core.job import AmdahlJob, OracleJob, TabulatedJob
from repro.core.list_scheduling import list_schedule
from repro.core.schedule import Schedule
from repro.core.validation import validate_schedule
from repro.perf.arrays import JobArrayBundle
from repro.perf.oracle import BatchedOracle
from repro.simulator.engine import SimulationError, simulate_schedule


class TestBatchedOracleCaches:
    def test_threshold_cache_hit(self):
        jobs = [AmdahlJob(f"a{i}", 10.0 + i, 0.1) for i in range(8)]
        oracle = BatchedOracle(jobs, 128)
        first = oracle.gamma_array(5.0)
        again = oracle.gamma_array(5.0)
        assert again is first
        assert oracle.stats["threshold_cache_hits"] == 1
        assert oracle.stats["gamma_batches"] == 1

    def test_gamma_arrays_are_read_only(self):
        oracle = BatchedOracle([AmdahlJob("a", 10.0, 0.1)], 16)
        arr = oracle.gamma_array(2.0)
        with pytest.raises(ValueError):
            arr[0] = 1

    def test_breakpoint_cache_reduces_bisection_work(self):
        """A threshold bracketed by two cached neighbours must need fewer
        oracle evaluations than a cold lockstep search."""
        jobs = [AmdahlJob(f"a{i}", 50.0 + i, 0.02) for i in range(64)]
        oracle_cold = BatchedOracle(jobs, 1 << 16)
        oracle_cold.gamma_array(3.0)
        cold_evals = oracle_cold.stats["oracle_evals"]

        oracle_warm = BatchedOracle(jobs, 1 << 16)
        oracle_warm.gamma_array(2.9)
        oracle_warm.gamma_array(3.1)
        before = oracle_warm.stats["oracle_evals"]
        oracle_warm.gamma_array(3.0)
        warm_evals = oracle_warm.stats["oracle_evals"] - before
        assert warm_evals < cold_evals

    def test_mixed_bundle_includes_fallback(self):
        jobs = [AmdahlJob("a", 10.0, 0.1), OracleJob("o", lambda k: 10.0 / k)]
        bundle = JobArrayBundle(jobs)
        assert 0.0 < bundle.vectorized_fraction < 1.0
        got = bundle.eval_all(np.array([4.0, 4.0]))
        assert got[0] == jobs[0].processing_time(4)
        assert got[1] == jobs[1].processing_time(4)

    def test_oracle_rejects_mismatched_m(self):
        jobs = [AmdahlJob("a", 10.0, 0.1)]
        oracle = BatchedOracle(jobs, 16)
        with pytest.raises(ValueError):
            oracle.gamma(jobs[0], 5.0, 32)

    def test_astronomical_m_falls_back_to_scalar(self):
        """The compact input encoding allows m beyond int64; the vectorized
        default must silently use the scalar path there, not overflow."""
        from repro.core.backend import MAX_VECTORIZED_M, resolve_backend
        from repro.core.fptas import fptas_schedule

        jobs = [AmdahlJob(f"a{i}", 10.0 + i, 0.1) for i in range(4)]
        m = 10 ** 25
        backend, oracle = resolve_backend(jobs, m, "vectorized", None)
        assert backend == "scalar" and oracle is None
        assert m > MAX_VECTORIZED_M
        result = fptas_schedule(jobs, m, 0.5)  # default backend="vectorized"
        assert result.makespan == fptas_schedule(jobs, m, 0.5, backend="scalar").makespan
        with pytest.raises(ValueError):
            BatchedOracle(jobs, m)

    def test_oracle_m_guard_sits_on_the_int64_contract_boundary(self):
        """The oracle funnels counts through float64 (``float(self.m)`` in
        ``tm``, broadcasts in ``times_at``), so its guard must be
        the capacity-tier int64 contract boundary (2^62) — not the raw int64
        ceiling, where the lossy cast would silently round m."""
        from repro.core.backend import MAX_VECTORIZED_M, resolve_backend
        from repro.core.capacity import MAX_COLUMNAR_M

        jobs = [AmdahlJob(f"a{i}", 10.0 + i, 0.1) for i in range(3)]
        assert MAX_VECTORIZED_M == MAX_COLUMNAR_M == 1 << 62

        accepted = BatchedOracle(jobs, 1 << 62)
        assert accepted.m == 1 << 62

        with pytest.raises(ValueError, match="use the scalar backend"):
            BatchedOracle(jobs, (1 << 62) + 1)

        backend, oracle = resolve_backend(jobs, 1 << 62, "vectorized", None)
        assert backend == "vectorized" and oracle is not None
        backend, oracle = resolve_backend(jobs, (1 << 62) + 1, "vectorized", None)
        assert backend == "scalar" and oracle is None

    def test_supplied_oracle_implies_vectorized(self):
        """Passing an oracle to a dual step must use it even though the dual
        functions default to backend='scalar'."""
        from repro.core.backend import resolve_backend
        from repro.core.mrt import mrt_dual

        jobs = [AmdahlJob(f"a{i}", 10.0 + i, 0.1) for i in range(6)]
        oracle = BatchedOracle(jobs, 32)
        backend, resolved = resolve_backend(jobs, 32, "scalar", oracle)
        assert backend == "vectorized" and resolved is oracle
        schedule = mrt_dual(jobs, 32, 20.0, oracle=oracle)
        assert schedule is not None
        assert oracle.stats["gamma_batches"] > 0
        with pytest.raises(ValueError):
            resolve_backend(jobs, 64, "scalar", oracle)

    def test_sequential_sum_matches_builtin(self):
        values = np.array([0.1, 0.2, 0.7, 1e-9, 3.3])
        assert BatchedOracle.sequential_sum(values) == sum(values.tolist())


class TestMemoEviction:
    def test_eviction_keeps_memoising_new_counts(self):
        calls = []

        def expensive(k):
            calls.append(k)
            return 100.0 / k

        job = OracleJob("o", expensive)
        capacity = job.MEMO_CAPACITY
        for k in range(1, capacity + 10):
            job.processing_time(k)
        stats = job.memo_stats()
        assert stats["size"] == capacity
        assert stats["evictions"] == 9
        # a recently evaluated count is still cached (the old behaviour
        # re-evaluated every count beyond the cap forever)
        before = len(calls)
        job.processing_time(capacity + 9)
        assert len(calls) == before

    def test_oldest_entry_evicted_first(self):
        job = OracleJob("o", lambda k: 100.0 / k)
        for k in range(1, job.MEMO_CAPACITY + 2):
            job.processing_time(k)
        assert 1 not in job._cache
        assert job.MEMO_CAPACITY + 1 in job._cache

    def test_hits_refresh_recency_once_full(self):
        """Hot anchors (t(1), t(m)) must survive long sweeps: at capacity the
        memo is LRU, so a hit protects the entry from the next eviction."""
        job = OracleJob("o", lambda k: 100.0 / k)
        for k in range(1, job.MEMO_CAPACITY + 1):
            job.processing_time(k)
        job.processing_time(1)  # refresh while full
        job.processing_time(job.MEMO_CAPACITY + 1)  # forces one eviction
        assert 1 in job._cache
        assert 2 not in job._cache


class TestSimulatorValidatorTolerance:
    def _sequential_schedule(self, shift):
        jobs = [TabulatedJob("j0", [7.0]), TabulatedJob("j1", [5.0])]
        allot = Allotment({jobs[0]: 1, jobs[1]: 1})
        schedule = list_schedule(jobs, allot, 1)
        corrupted = Schedule(m=1)
        for i, e in enumerate(schedule.entries):
            corrupted.add(e.job, e.start - shift if i == 1 else e.start, e.spans)
        return jobs, corrupted

    def test_sub_tolerance_shift_accepted_by_both(self):
        jobs, corrupted = self._sequential_schedule(shift=1e-11)
        assert validate_schedule(corrupted, jobs).ok
        simulate_schedule(corrupted)  # must not raise

    def test_real_overlap_rejected_by_both(self):
        jobs, corrupted = self._sequential_schedule(shift=0.5)
        assert not validate_schedule(corrupted, jobs).ok
        with pytest.raises(SimulationError):
            simulate_schedule(corrupted)


class TestOracleJobVectorizedHook:
    def _hooked_jobs(self, n=6):
        import math

        jobs = []
        for i in range(n):
            t1 = 20.0 + i
            jobs.append(
                OracleJob(
                    f"h{i}",
                    lambda k, t1=t1: t1 / math.sqrt(k),
                    times_vectorized=lambda ks, t1=t1: t1 / np.sqrt(ks),
                )
            )
        return jobs

    def test_hook_used_by_times_for(self):
        job = self._hooked_jobs(1)[0]
        got = job.times_for([1, 4, 9])
        want = [job.processing_time(k) for k in (1, 4, 9)]
        assert got.tolist() == want

    def test_hooked_jobs_count_as_vectorized(self):
        bundle = JobArrayBundle(self._hooked_jobs())
        assert bundle.vectorized_fraction == 1.0

    def test_plain_oracle_jobs_still_fall_back(self):
        bundle = JobArrayBundle([OracleJob("plain", lambda k: 9.0 / k)])
        assert bundle.vectorized_fraction == 0.0

    def test_bundle_eval_matches_scalar(self):
        jobs = self._hooked_jobs() + [OracleJob("plain", lambda k: 9.0 / k)]
        bundle = JobArrayBundle(jobs)
        ks = np.array([1.0, 2.0, 5.0, 9.0, 3.0, 4.0, 2.0])
        got = bundle.eval_all(ks)
        want = np.array([j.processing_time(int(k)) for j, k in zip(jobs, ks)])
        assert (got == want).all()

    def test_gamma_parity_with_hooked_jobs(self):
        jobs = self._hooked_jobs()
        oracle = BatchedOracle(jobs, 256)
        for threshold in (2.0, 3.5, 7.0, 1.1):
            arr = oracle.gamma_array(threshold)
            for i, job in enumerate(jobs):
                g = gamma(job, threshold, 256)
                assert (g if g is not None else 257) == arr[i]

    def test_one_hook_call_per_job(self):
        calls = []

        def make(i, t1):
            def vec(ks, t1=t1):
                calls.append(i)
                return t1 / ks

            return OracleJob(f"c{i}", lambda k, t1=t1: t1 / k, times_vectorized=vec)

        jobs = [make(i, 10.0 + i) for i in range(3)]
        bundle = JobArrayBundle(jobs)
        bundle.eval_at(
            np.array([0, 1, 2, 0, 1, 2, 0]),
            np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]),
        )
        assert sorted(calls) == [0, 1, 2]
