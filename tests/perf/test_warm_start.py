"""Probe-count regression tests for the γ warm-start policy.

The warm start (neighbour brackets, plus a predicted γ probed first: the
closed-form inverse of the job's curve, or for tabulated and callable jobs a
monotone log-space interpolation across the sorted thresholds) must pay for
itself in *probes* — per-job ``t_j(k)`` kernel evaluations inside the
lockstep searches — not just in wall-clock.  Three layers of pinning:

* warm vs cold strictly fewer probes on every Table-1 bench family, driven
  through the real ``two_approximation`` / ``fptas_schedule`` threshold
  sequences;
* exact probe counts for two small deterministic instances (any change to
  the search policy shows up here first, deliberately);
* bit-identical γ-arrays warm vs cold (the policy may only steer *where*
  the searches probe, never what they return).

The scalar executor brackets its per-job searches by the same neighbouring
thresholds; its answers must equal the cold :func:`repro.core.allotment.gamma`.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.allotment import gamma
from repro.core.fptas import fptas_schedule
from repro.core.job import AmdahlJob, CommunicationJob, PowerLawJob, RigidJob
from repro.core.two_approx import two_approximation
from repro.perf.oracle import BatchedOracle, ScalarOracle
from repro.workloads.generators import (
    random_bimodal_instance,
    random_communication_instance,
    random_mixed_instance,
    random_monotone_tabulated_instance,
    random_power_work_instance,
)

TABLE1_FAMILIES = {
    "mixed": random_mixed_instance,
    "powerwork": random_power_work_instance,
    "comm": random_communication_instance,
    "bimodal": random_bimodal_instance,
}


class TestWarmStartBeatsColdStart:
    @pytest.mark.parametrize("family", sorted(TABLE1_FAMILIES))
    def test_two_approx_probes_strictly_fewer(self, family):
        instance = TABLE1_FAMILIES[family](24, 192, seed=5)
        warm = BatchedOracle(instance.jobs, 192)
        result_warm = two_approximation(instance.jobs, 192, oracle=warm)
        instance2 = TABLE1_FAMILIES[family](24, 192, seed=5)
        cold = BatchedOracle(instance2.jobs, 192, warm_start=False)
        result_cold = two_approximation(instance2.jobs, 192, oracle=cold)
        assert result_warm.makespan == result_cold.makespan
        assert warm.gamma_probes < cold.gamma_probes
        assert result_warm.gamma_probes == warm.gamma_probes

    @pytest.mark.parametrize("family", sorted(TABLE1_FAMILIES))
    def test_fptas_probes_strictly_fewer(self, family):
        m = 1 << 12
        instance = TABLE1_FAMILIES[family](16, m, seed=5)
        warm = BatchedOracle(instance.jobs, m)
        result_warm = fptas_schedule(instance.jobs, m, 0.5, oracle=warm)
        instance2 = TABLE1_FAMILIES[family](16, m, seed=5)
        cold = BatchedOracle(instance2.jobs, m, warm_start=False)
        result_cold = fptas_schedule(instance2.jobs, m, 0.5, oracle=cold)
        assert result_warm.makespan == result_cold.makespan
        assert warm.gamma_probes < cold.gamma_probes
        assert result_warm.gamma_probes == warm.gamma_probes

    def test_warm_probes_are_counted(self):
        instance = random_mixed_instance(24, 192, seed=5)
        oracle = BatchedOracle(instance.jobs, 192)
        two_approximation(instance.jobs, 192, oracle=oracle)
        assert oracle.stats["warm_probes"] > 0
        assert oracle.stats["warm_probes"] <= oracle.stats["oracle_evals"]

    def test_cold_start_spends_no_warm_probes(self):
        instance = random_mixed_instance(24, 192, seed=5)
        oracle = BatchedOracle(instance.jobs, 192, warm_start=False)
        two_approximation(instance.jobs, 192, oracle=oracle)
        assert oracle.stats["warm_probes"] == 0
        assert oracle.gamma_probes == oracle.stats["oracle_evals"]


class TestExactProbePins:
    """Exact probe counts for two deterministic instances.

    These are *pins*, not tolerances: any change to the bracket/prediction
    policy must update them consciously (and justify the new numbers in the
    diff).  All jobs here are closed-form, so the warm searches run on the
    guess kernels: every γ is confirmed by at most two guided probes (the
    prediction, then its neighbour), hence warm_probes == gamma_probes.  The threshold sequences mimic a dual search: first two far-apart
    probes, then probes landing between earlier ones.
    """

    INSTANCE1_THRESHOLDS = (8.0, 2.0, 4.0, 3.0, 3.5)
    INSTANCE2_THRESHOLDS = (20.0, 5.0, 10.0, 7.0)

    def _instance1(self):
        return [AmdahlJob(f"a{i}", t1=10.0 + i, serial_fraction=0.05) for i in range(6)]

    def _instance2(self):
        return [
            AmdahlJob("a", t1=40.0, serial_fraction=0.1),
            PowerLawJob("p", t1=36.0, alpha=0.8),
            CommunicationJob("c", t1=50.0, overhead=0.01),
            PowerLawJob("q", t1=18.0, alpha=0.6),
        ]

    def test_homogeneous_amdahl_pin(self):
        warm = BatchedOracle(self._instance1(), 64)
        for thr in self.INSTANCE1_THRESHOLDS:
            warm.gamma_array(thr)
        assert warm.gamma_probes == 50
        assert warm.stats["warm_probes"] == 50
        cold = BatchedOracle(self._instance1(), 64, warm_start=False)
        for thr in self.INSTANCE1_THRESHOLDS:
            cold.gamma_array(thr)
        assert cold.gamma_probes == 174

    def test_mixed_class_pin(self):
        warm = BatchedOracle(self._instance2(), 256)
        for thr in self.INSTANCE2_THRESHOLDS:
            warm.gamma_array(thr)
        assert warm.gamma_probes == 30
        assert warm.stats["warm_probes"] == 30
        cold = BatchedOracle(self._instance2(), 256, warm_start=False)
        for thr in self.INSTANCE2_THRESHOLDS:
            cold.gamma_array(thr)
        assert cold.gamma_probes == 120


class TestWarmColdParity:
    """The policy steers probes, never results."""

    def test_gamma_arrays_bit_identical(self):
        instance = random_mixed_instance(30, 512, seed=11)
        warm = BatchedOracle(instance.jobs, 512)
        cold = BatchedOracle(instance.jobs, 512, warm_start=False)
        for thr in np.geomspace(0.5, 500.0, 23):
            assert np.array_equal(warm.gamma_array(thr), cold.gamma_array(thr))

    def test_interpolation_survives_unsorted_threshold_order(self):
        """Thresholds arriving in arbitrary order (the dual search's probes
        are not monotone) must keep the sorted-threshold invariant intact."""
        instance = random_bimodal_instance(20, 256, seed=3)
        warm = BatchedOracle(instance.jobs, 256)
        cold = BatchedOracle(instance.jobs, 256, warm_start=False)
        for thr in (100.0, 1.0, 50.0, 2.0, 25.0, 4.0, 12.0, 8.0, 10.0, 9.0):
            assert np.array_equal(warm.gamma_array(thr), cold.gamma_array(thr))
        assert warm.gamma_probes < cold.gamma_probes


# --------------------------------------------------------------------------
# the scalar executor's brackets
# --------------------------------------------------------------------------

#: machine counts of the scalar bracket tests: small, past 2^20 and past int64
SCALAR_MS = (64, 1 << 20, 1 << 80)


def _bracket_jobs(m):
    """Monotone tabulated, Amdahl and rigid jobs on ``m`` machines."""
    jobs = random_monotone_tabulated_instance(3, 64, seed=5).jobs
    jobs += [AmdahlJob("amdahl-a", 300.0, 0.02), AmdahlJob("amdahl-b", 7.0, 0.5)]
    jobs += [RigidJob("rigid-1", 4.0, 1), RigidJob("rigid-mid", 9.0, max(2, m // 3))]
    jobs.append(RigidJob("rigid-m", 2.5, m))
    return jobs


def _cold(job, threshold, m):
    g = gamma(job, threshold, m)
    return m + 1 if g is None else g


class TestScalarOracleBrackets:
    """``ScalarOracle`` brackets each γ-search by the γ-values of the nearest
    cached thresholds; every answer must equal the cold ``gamma``."""

    @settings(max_examples=60, deadline=None)
    @given(m=st.sampled_from(SCALAR_MS), data=st.data())
    def test_matches_the_cold_search(self, m, data):
        jobs = _bracket_jobs(m)
        n = len(jobs)
        counts = sorted({1, 2, 3, 63, 64, 65, max(1, m // 3 - 1), m // 3, m - 1, m})
        exact = sorted({job.processing_time(k) for job in jobs for k in counts if 1 <= k <= m})
        threshold = st.one_of(
            st.sampled_from(exact + [0.0, -1.0, math.inf, -math.inf]),
            st.floats(min_value=-5.0, max_value=1e8, allow_nan=False),
        )
        subset = st.lists(st.booleans(), min_size=n, max_size=n)
        steps = data.draw(st.lists(st.tuples(threshold, subset), min_size=1, max_size=30))
        oracle = ScalarOracle(jobs, m)
        for t, mask in steps:
            idx = np.flatnonzero(mask)
            got = oracle.gamma_at(t, idx).tolist()
            assert got == [_cold(jobs[i], t, m) for i in idx.tolist()], t
            assert oracle.gamma_array(t).tolist() == [_cold(job, t, m) for job in jobs], t
        cached = list(oracle._sorted_thresholds)
        with pytest.raises(ValueError, match="NaN"):
            oracle.gamma_at(math.nan, np.arange(n))
        assert oracle._sorted_thresholds == cached

    def test_agreeing_neighbours_cost_no_probe(self):
        probes = []

        class Counting(AmdahlJob):
            def processing_time(self, k):
                probes.append(k)
                return super().processing_time(k)

        job = Counting("c", 100.0, 0.0)  # t(k) = 100 / k
        oracle = ScalarOracle([job], 1 << 20)
        assert oracle.gamma_array(10.0).tolist() == [10]
        cold = len(probes)
        assert cold > 10  # t(m), t(1), then ~20 bisection levels
        assert oracle.gamma_array(10.5).tolist() == [10]
        # bracketed by γ(+inf) = 1 and γ(10.0) = 10: a short search
        assert 0 < len(probes) - cold <= 5
        del probes[:]
        # neighbours 10.0 and 10.5 agree on γ = 10
        assert oracle.gamma_array(10.25).tolist() == [10]
        assert probes == []
        assert oracle.gamma_array(0.0).tolist() == [(1 << 20) + 1]
        assert oracle.gamma_array(-3.0).tolist() == [(1 << 20) + 1]
        assert probes == []

    def test_unasked_neighbour_entries_do_not_bracket(self):
        """A threshold asked for a subset leaves ``None`` entries; the other
        jobs then search their full range."""
        jobs = [AmdahlJob("a", 100.0, 0.0), AmdahlJob("b", 50.0, 0.0)]
        oracle = ScalarOracle(jobs, 64)
        assert oracle.gamma_at(10.0, np.array([0])).tolist() == [10]
        assert oracle.gamma_at(20.0, np.array([1])).tolist() == [3]
        assert oracle.gamma_array(12.0).tolist() == [9, 5]
        assert oracle.gamma_array(10.0).tolist() == [10, 5]
        assert oracle.gamma_array(20.0).tolist() == [5, 3]
