"""Tests for makespan bounds and the Ludwig–Tiwari estimator."""

import math

import pytest

from repro.core.allotment import canonical_allotment
from repro.core.backend import MAX_VECTORIZED_M
from repro.core.bounds import (
    ESTIMATOR_MAX_ITER,
    ESTIMATOR_TOL,
    geometric_midpoint,
    ludwig_tiwari_estimator,
    makespan_lower_bound,
    serial_upper_bound,
    trivial_lower_bound,
)
from repro.core.exact_small import exact_makespan
from repro.core.job import AmdahlJob, PowerLawJob, TabulatedJob, max_sequential_time
from repro.core.list_scheduling import list_schedule
from repro.core.scheduler import schedule_moldable
from repro.core.validation import assert_valid_schedule
from repro.perf.oracle import BatchedOracle, ScalarOracle
from repro.workloads import generators
from repro.workloads.generators import random_mixed_instance, random_monotone_tabulated_instance


def reference_estimator(jobs, m):
    """The estimator's scalar bisection, kept as an independent reference
    for :func:`repro.core.bounds.estimator_steps`, which every executor runs.
    Returns ``(omega, ratio, allotment)``."""
    tol = ESTIMATOR_TOL

    def phi(tau):
        allot = canonical_allotment(jobs, tau, m)
        return None if allot is None else allot.average_load(m)

    lo = max(max_sequential_time(jobs, m), 1e-300)
    hi = max(serial_upper_bound(jobs), lo)
    phi_lo = phi(lo)
    if phi_lo is not None and phi_lo <= lo:
        allot = canonical_allotment(jobs, lo, m)
        return max(phi_lo, lo, trivial_lower_bound(jobs, m)), 2.0, allot
    for _ in range(ESTIMATOR_MAX_ITER):
        if hi <= lo * (1.0 + tol):
            break
        mid = geometric_midpoint(lo, hi)
        phi_mid = phi(mid)
        if phi_mid is None or phi_mid > mid:
            lo = mid
        else:
            hi = mid
    allot = canonical_allotment(jobs, hi, m)
    omega = max(allot.average_load(m), allot.max_time())
    omega = max(omega / (1.0 + tol), max(trivial_lower_bound(jobs, m), lo))
    return omega, 2.0 * (1.0 + 2.0 * tol), allot


#: the analytic families whose generators take any m (tabulated jobs hold a
#: table of m times, so they stop at moderate m)
FAMILIES = [
    "amdahl",
    "power_law",
    "communication",
    "mixed",
    "power_work",
    "bimodal",
    "quantized",
    "chain",
]
#: (n, m): small, moderate, past 2^53 and past int64
SIZES = [(20, 16), (50, 64), (8, 1 << 60), (12, 1 << 80)]


def family_instance(family, n, m, seed):
    return getattr(generators, f"random_{family}_instance")(n, m, seed=seed).jobs


class TestEstimatorMatchesReference:
    """Both executors against the reference bisection: omega, ratio and the
    allotment, bit for bit, at every magnitude."""

    @pytest.mark.parametrize("n, m", SIZES)
    @pytest.mark.parametrize("family", FAMILIES)
    def test_both_executors(self, family, n, m):
        for seed in (1, 2, 3):
            jobs = family_instance(family, n, m, seed)
            omega, ratio, allot = reference_estimator(jobs, m)
            oracles = [None, ScalarOracle(jobs, m)]
            if m <= MAX_VECTORIZED_M:
                oracles.append(BatchedOracle(jobs, m))
            for oracle in oracles:
                result = ludwig_tiwari_estimator(jobs, m, oracle=oracle)
                assert (result.omega, result.ratio) == (omega, ratio)
                assert result.allotment.counts == allot.counts
            assert makespan_lower_bound(jobs, m) == omega


class TestTrivialBounds:
    def test_single_sequential_job(self):
        jobs = [TabulatedJob("a", [10.0])]
        assert trivial_lower_bound(jobs, 4) == pytest.approx(10.0)
        assert serial_upper_bound(jobs) == pytest.approx(10.0)

    def test_work_bound_dominates_with_many_jobs(self):
        jobs = [TabulatedJob(f"j{i}", [10.0]) for i in range(8)]
        # total work 80 on 4 machines -> lower bound 20 > individual 10
        assert trivial_lower_bound(jobs, 4) == pytest.approx(20.0)

    def test_time_bound_dominates_with_serial_job(self):
        jobs = [AmdahlJob("big", 100.0, 1.0), TabulatedJob("small", [1.0])]
        assert trivial_lower_bound(jobs, 64) == pytest.approx(100.0)

    def test_empty(self):
        assert trivial_lower_bound([], 4) == 0.0
        assert serial_upper_bound([]) == 0.0

    def test_lower_bound_below_serial_upper(self):
        instance = random_mixed_instance(30, 16, seed=3)
        assert trivial_lower_bound(instance.jobs, 16) <= serial_upper_bound(instance.jobs)


class TestLudwigTiwariEstimator:
    def test_empty_instance(self):
        result = ludwig_tiwari_estimator([], 8)
        assert result.omega == 0.0

    def test_single_job(self):
        job = AmdahlJob("a", 100.0, 0.1)
        result = ludwig_tiwari_estimator([job], 16)
        # OPT = t(16); omega must be a lower bound and within a factor 2
        opt = job.processing_time(16)
        assert result.omega <= opt * (1 + 1e-6)
        assert opt <= result.upper_bound * (1 + 1e-6)

    def test_omega_is_lower_bound_on_exact_optimum(self):
        """omega <= OPT verified against the exact solver on tiny instances."""
        for seed in range(5):
            instance = random_monotone_tabulated_instance(4, 3, seed=seed)
            opt = exact_makespan(instance.jobs, 3)
            result = ludwig_tiwari_estimator(instance.jobs, 3)
            assert result.omega <= opt * (1 + 1e-6)

    def test_list_scheduling_witness_respects_ratio(self):
        """List scheduling the estimator's allotment stays within ratio * omega."""
        for seed in range(4):
            instance = random_mixed_instance(25, 16, seed=seed)
            result = ludwig_tiwari_estimator(instance.jobs, 16)
            schedule = list_schedule(instance.jobs, result.allotment, 16)
            assert_valid_schedule(schedule, instance.jobs)
            assert schedule.makespan <= result.ratio * result.omega * (1 + 1e-6)

    def test_omega_at_least_trivial_bound(self):
        instance = random_mixed_instance(30, 32, seed=11)
        result = ludwig_tiwari_estimator(instance.jobs, 32)
        assert result.omega >= trivial_lower_bound(instance.jobs, 32) * (1 - 1e-9)

    @pytest.mark.parametrize("vectorized", [False, True])
    def test_floor_branch_omega_is_at_least_trivial_bound_exactly(self, vectorized):
        """The crossover sits at the max_j t_j(m) floor, and the linear job's
        float work 21 * (19 / 21) rounds one ulp below its t_j(1) = 19: omega
        must still equal the trivial bound, not fall a hair under it."""
        jobs = [TabulatedJob("rigid", [0.9499999999999998]), AmdahlJob("linear", 19.0, 0.0)]
        oracle = BatchedOracle(jobs, 21) if vectorized else None
        result = ludwig_tiwari_estimator(jobs, 21, oracle=oracle)
        assert result.omega == trivial_lower_bound(jobs, 21) == 0.95

    def test_invalid_m(self):
        with pytest.raises(ValueError):
            ludwig_tiwari_estimator([AmdahlJob("a", 1.0, 0.1)], 0)

    def test_huge_machine_count(self):
        """The estimator stays fast and sane for m = 10^9 (compact encoding)."""
        jobs = [PowerLawJob(f"p{i}", 50.0 + i, 0.9) for i in range(10)]
        m = 10 ** 9
        result = ludwig_tiwari_estimator(jobs, m)
        assert result.omega > 0
        # every job could run on ~m/10 processors: OPT is tiny but positive
        assert result.omega <= serial_upper_bound(jobs)


class TestGeometricMidpoint:
    def test_bit_identical_where_the_product_is_finite(self):
        for lo, hi in ((1.0, 2.0), (3.5e-100, 7.25e50), (1e-150, 1e150)):
            assert geometric_midpoint(lo, hi) == math.sqrt(lo * hi)

    @pytest.mark.parametrize("lo, hi", [(1e100, 1e300), (1e-300, 1e-100)])
    def test_extreme_brackets_stay_strictly_inside(self, lo, hi):
        mid = geometric_midpoint(lo, hi)
        assert lo < mid < hi
        assert mid == pytest.approx(1e200 if lo > 1 else 1e-200)

    @pytest.mark.parametrize("backend", ["scalar", "vectorized"])
    @pytest.mark.parametrize(
        "algorithm", ["bounded", "bounded_linear", "mrt", "compressible", "ptas"]
    )
    @pytest.mark.parametrize("t1", [1e160, 1e300, 1e-200])
    def test_extreme_job_lengths_keep_the_guarantee(self, t1, algorithm, backend):
        """A job length whose square overflows (or underflows) must not pin
        the dual search at its bracket end: the makespan stays within the
        driver's guarantee of the certified lower bound."""
        jobs = [AmdahlJob("h", t1, 0.0), AmdahlJob("g", 1.0, 0.5)]
        result = schedule_moldable(jobs, 64, 0.1, algorithm=algorithm, backend=backend)
        assert result.makespan <= result.guarantee * result.lower_bound


class TestMakespanLowerBound:
    def test_combines_bounds(self):
        instance = random_mixed_instance(20, 16, seed=5)
        lb = makespan_lower_bound(instance.jobs, 16)
        assert lb >= trivial_lower_bound(instance.jobs, 16) * (1 - 1e-9)

    def test_empty(self):
        assert makespan_lower_bound([], 4) == 0.0

    def test_lower_bound_below_exact_optimum(self):
        for seed in range(3):
            instance = random_monotone_tabulated_instance(5, 4, seed=seed + 20)
            opt = exact_makespan(instance.jobs, 4)
            assert makespan_lower_bound(instance.jobs, 4) <= opt * (1 + 1e-6)


class TestReleaseAwareLowerBound:
    def test_zero_releases_reduce_to_the_base_bounds(self):
        from repro.core.bounds import release_aware_lower_bound

        instance = random_mixed_instance(12, 16, seed=5)
        releases = [0.0] * instance.n
        bound = release_aware_lower_bound(instance.jobs, releases, 16)
        assert bound >= trivial_lower_bound(instance.jobs, 16) - 1e-12

    def test_late_release_dominates(self):
        from repro.core.bounds import release_aware_lower_bound

        a = TabulatedJob("a", [10.0])
        b = TabulatedJob("b", [1.0])
        # b arrives at 100: nothing can end before 101
        bound = release_aware_lower_bound([a, b], [0.0, 100.0], 4)
        assert bound == pytest.approx(101.0)

    def test_suffix_work_bound(self):
        from repro.core.bounds import release_aware_lower_bound

        # four unit jobs released at 10 on one machine: 10 + 4*1 = 14
        jobs = [TabulatedJob(f"j{i}", [1.0]) for i in range(4)]
        bound = release_aware_lower_bound(jobs, [10.0] * 4, 1)
        assert bound == pytest.approx(14.0)

    def test_base_is_respected(self):
        from repro.core.bounds import release_aware_lower_bound

        jobs = [TabulatedJob("a", [1.0])]
        assert release_aware_lower_bound(jobs, [0.0], 8, base=42.0) == 42.0

    def test_mismatched_lengths_rejected(self):
        from repro.core.bounds import release_aware_lower_bound

        with pytest.raises(ValueError, match="releases"):
            release_aware_lower_bound([TabulatedJob("a", [1.0])], [0.0, 1.0], 2)

    def test_empty(self):
        from repro.core.bounds import release_aware_lower_bound

        assert release_aware_lower_bound([], [], 4) == 0.0

    def test_certifies_an_online_schedule(self):
        from repro.core.bounds import release_aware_lower_bound
        from repro.online import OnlineScheduler
        from repro.workloads.generators import random_arrivals_instance

        inst = random_arrivals_instance(16, 24, seed=9)
        result = OnlineScheduler(24, eps=0.25).run(inst.arrivals)
        bound = release_aware_lower_bound(inst.jobs, inst.releases, 24)
        assert bound <= result.makespan + 1e-9
