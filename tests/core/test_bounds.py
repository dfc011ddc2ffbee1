"""Tests for makespan bounds and the Ludwig–Tiwari estimator."""

import math
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import solve_mega
from repro.core.allotment import canonical_allotment, gamma
from repro.core.backend import MAX_VECTORIZED_M
from repro.core.bounds import (
    ESTIMATOR_MAX_ITER,
    ESTIMATOR_TOL,
    estimator_steps,
    geometric_midpoint,
    ludwig_tiwari_estimator,
    makespan_lower_bound,
    serial_upper_bound,
    trivial_lower_bound,
)
from repro.core.exact_small import exact_makespan
from repro.core.job import (
    AmdahlJob,
    CommunicationJob,
    OracleJob,
    PowerLawJob,
    RigidJob,
    TabulatedJob,
    max_sequential_time,
)
from repro.core.list_scheduling import list_schedule
from repro.core.scheduler import schedule_moldable
from repro.core.validation import assert_valid_schedule
from repro.perf import megabatch
from repro.perf.oracle import BatchedOracle, ScalarOracle
from repro.workloads import generators
from repro.workloads.generators import (
    random_chain_instance,
    random_mixed_instance,
    random_monotone_tabulated_instance,
)


def reference_estimator(jobs, m, taus=None, brackets=None):
    """The estimator's scalar bisection, kept as an independent reference
    for :func:`repro.core.bounds.estimator_steps`, which every executor runs.
    Returns ``(omega, ratio, allotment)``; every threshold whose φ it
    evaluates is appended to ``taus`` when given, and ``(mid, lo, hi)`` of
    every midpoint to ``brackets``, then ``(None, lo, hi)`` of the final
    bracket."""
    tol = ESTIMATOR_TOL

    def phi(tau):
        if taus is not None:
            taus.append(tau)
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
        if brackets is not None:
            brackets.append((mid, lo, hi))
        phi_mid = phi(mid)
        if phi_mid is None or phi_mid > mid:
            lo = mid
        else:
            hi = mid
    if brackets is not None:
        brackets.append((None, lo, hi))
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


def _requests(oracle, jobs):
    """Run ``estimator_steps`` on ``oracle``; return its result and every
    request it sent, in order."""
    steps = estimator_steps(jobs, oracle)
    requests = []

    def spy():
        reply = None
        while True:
            try:
                request = steps.send(reply)
            except StopIteration as stop:
                return stop.value
            requests.append(request)
            reply = yield request

    return oracle.run(spy()), requests


def _cold_gammas(jobs, tau, m):
    """γ at ``tau`` by the cold scalar search, ``m + 1`` where it is ``None``."""
    return np.array([m + 1 if g is None else g for g in (gamma(j, tau, m) for j in jobs)], dtype=object)


def _expected_row_requests(jobs, m):
    """The row requests the estimator must send, from the reference
    bisection's brackets: at each midpoint, one request for exactly the jobs
    whose γ differs between the bracket's ends (bracketed by their γ there),
    none where no job does."""
    brackets = []
    reference_estimator(jobs, m, brackets=brackets)
    brackets = [b for b in brackets if b[0] is not None]
    expected = []
    for mid, lo, hi in brackets:
        g_lo, g_hi = _cold_gammas(jobs, lo, m), _cold_gammas(jobs, hi, m)
        rows = np.flatnonzero(g_lo != g_hi)
        if len(rows):
            expected.append((mid, rows.tolist(), g_hi[rows].tolist(), g_lo[rows].tolist()))
    return expected, len(brackets)


def _payloads(row_requests):
    return [(r[1], r[2].tolist(), r[3].tolist(), r[4].tolist()) for r in row_requests]


def _assert_shortcut_stream(jobs, m, row_requests):
    """The contract of the monotone shortcut: every row request is at a
    midpoint of the reference bisection, either the one being decided or an
    end of the bracket at that step being resolved, each at most once and
    in bisection order; each job asked about is bracketed by the request's
    ``lo`` / ``hi``; and there is at most one request more than the
    reference's request-per-open-midpoint stream."""
    brackets = []
    reference_estimator(jobs, m, brackets=brackets)
    thresholds = [r[1] for r in row_requests]
    assert len(set(thresholds)) == len(thresholds)
    step = 0
    for tau in thresholds:
        while step < len(brackets) and tau not in brackets[step]:
            step += 1
        assert step < len(brackets), f"{tau} is no reference midpoint at or after its turn"
    for _, tau, rows, lo, hi in row_requests:
        exact = _cold_gammas(jobs, tau, m)[rows]
        assert (lo <= exact).all() and (exact <= hi).all()
    expected, _ = _expected_row_requests(jobs, m)
    assert len(row_requests) <= len(expected) + 1


class _AmdahlSubclass(AmdahlJob):
    """An Amdahl job by formula, but not by exact type."""

    __slots__ = ()


#: jobs that are not of a class monotone by construction, one per kind
NON_MONOTONE = {
    "rigid": lambda: RigidJob("rigid", 3.0, 5),
    "tabulated": lambda: TabulatedJob("tabulated", [9.0, 4.0, 2.5, 2.5]),
    "oracle": lambda: OracleJob("oracle", lambda k: 40.0 * (0.2 + 0.8 / k)),
    "subclass": lambda: _AmdahlSubclass("subclass", 30.0, 0.1),
}


class TestEstimatorStepShortcut:
    """After the floor's γ-array and times, the estimator sends nothing but
    row requests, each for the jobs open between its bracket's known ends.
    On monotone job classes a midpoint that φ at those ends settles sends
    none (:func:`_assert_shortcut_stream`); any other instance sends one at
    every midpoint where a job is open, and none once the bracket is
    flat."""

    @pytest.mark.parametrize("executor", [ScalarOracle, BatchedOracle])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_rows_are_the_open_jobs_at_the_reference_midpoints(self, executor, family):
        for seed in (1, 2, 3):
            jobs = family_instance(family, 20, 16, seed)
            oracle = executor(jobs, 16)
            result, requests = _requests(oracle, jobs)
            omega, ratio, allot = reference_estimator(jobs, 16)
            assert (result.omega, result.ratio) == (omega, ratio)
            assert result.allotment.counts == allot.counts
            expected, midpoints = _expected_row_requests(jobs, 16)
            if midpoints == 0:  # the floor already fits
                assert [r[0] for r in requests] == ["gamma", "eval"]
                continue
            # the floor's γ-array, its times where it is feasible, then rows only
            head = 2 if requests[1][0] == "eval" else 1
            assert requests[0][0] == "gamma"
            assert all(r[0] == "rows" for r in requests[head:])
            assert oracle.monotone == (family != "quantized")
            if oracle.monotone:
                _assert_shortcut_stream(jobs, 16, requests[head:])
            else:
                assert _payloads(requests[head:]) == expected

    @pytest.mark.parametrize("executor", [ScalarOracle, BatchedOracle])
    @pytest.mark.parametrize("kind", sorted(NON_MONOTONE))
    def test_one_non_monotone_job_keeps_the_request_per_midpoint(self, executor, kind):
        for seed in (1, 2, 3):
            jobs = random_mixed_instance(12, 16, seed=seed).jobs + [NON_MONOTONE[kind]()]
            oracle = executor(jobs, 16)
            assert not oracle.monotone
            result, requests = _requests(oracle, jobs)
            assert (result.omega, result.ratio) == reference_estimator(jobs, 16)[:2]
            expected, _ = _expected_row_requests(jobs, 16)
            assert _payloads(r for r in requests if r[0] == "rows") == expected

    def test_no_request_once_the_bracket_is_flat(self):
        """The same instance with every job tabulated takes the request per
        midpoint path: it asks until no job is open, while the reference
        bisects on."""
        jobs = random_mixed_instance(20, 16, seed=3).jobs
        jobs = [TabulatedJob(j.name, [j.processing_time(k) for k in range(1, 17)]) for j in jobs]
        taus = []
        reference_estimator(jobs, 16, taus)
        expected, midpoints = _expected_row_requests(jobs, 16)
        _, requests = _requests(BatchedOracle(jobs, 16), jobs)
        rows = [r for r in requests if r[0] == "rows"]
        assert 0 < len(rows) == len(expected) < midpoints == len(taus) - 1
        assert [r[1] for r in rows] == taus[1 : 1 + len(rows)]

    def test_the_shortcut_skips_midpoints_and_resolves_late_ends(self):
        """On the monotone original the estimator sends fewer requests, one
        of them at a bracket end after the reference's last open midpoint."""
        jobs = random_mixed_instance(20, 16, seed=3).jobs
        taus = []
        reference_estimator(jobs, 16, taus)
        expected, _ = _expected_row_requests(jobs, 16)
        _, requests = _requests(BatchedOracle(jobs, 16), jobs)
        rows = [r for r in requests if r[0] == "rows"]
        _assert_shortcut_stream(jobs, 16, rows)
        assert len(rows) < len(expected)
        assert max(taus.index(r[1]) for r in rows) > len(expected)

    @pytest.mark.parametrize("m", [1 << 60, 1 << 80])
    def test_row_requests_past_2_to_the_53_and_int64(self, m):
        jobs = family_instance("mixed", 8, m, 2)
        result, requests = _requests(ScalarOracle(jobs, m), jobs)
        _assert_shortcut_stream(jobs, m, [r for r in requests if r[0] == "rows"])
        assert (result.omega, result.ratio) == reference_estimator(jobs, m)[:2]

    @pytest.mark.parametrize(
        "shape, most",
        [
            # the solve-bounded benchmark's shape: 23 requests per midpoint
            (("mixed", 500, 4000), 22),
            # the two-approximation benchmark's chains: 2 either way
            (("chain", 2000, 125), 2),
        ],
    )
    def test_request_counts_on_the_benchmark_shapes(self, shape, most):
        family, n, m = shape
        jobs = family_instance(family, n, m, 1)
        _, requests = _requests(BatchedOracle(jobs, m), jobs)
        assert sum(r[0] == "rows" for r in requests) <= most


#: machine counts of the property test: every executor, then the scalar one
#: alone past int64
SHORTCUT_MS = [1, 16, 4000, 1 << 20]
SCALAR_MS = [(1 << 62) + 1, 1 << 80]


@st.composite
def _shortcut_instances(draw):
    """Monotone jobs at one scale in 10^±100, with the flat-work edges
    (Amdahl f ∈ {0, 1}, power law α ∈ {0, 1}, communication c = 0) likely,
    and sometimes a non-monotone job mixed in."""
    scale = draw(st.sampled_from([1e-100, 1.0, 1e100]))
    unit = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
    jobs = []
    for i in range(draw(st.integers(1, 8))):
        t1 = draw(st.floats(0.5, 50.0)) * scale
        kind = draw(st.sampled_from(["amdahl", "power", "comm"]))
        if kind == "amdahl":
            jobs.append(AmdahlJob(f"a{i}", t1, draw(unit)))
        elif kind == "power":
            jobs.append(PowerLawJob(f"p{i}", t1, draw(unit)))
        else:
            overhead = draw(st.one_of(st.just(0.0), st.floats(0.0, 0.5))) * scale
            jobs.append(CommunicationJob(f"c{i}", t1, overhead))
    extras = draw(st.lists(st.sampled_from(sorted(NON_MONOTONE)), max_size=2, unique=True))
    return jobs + [NON_MONOTONE[kind]() for kind in extras]


def _mega_estimate(jobs, m):
    """The estimator run on ``jobs`` as one segment of a mega pack, beside
    a co-batched chain and rigid jobs."""
    pack = [
        (random_chain_instance(5, m, seed=1).jobs, m),
        (jobs, m),
        ([RigidJob(f"r{i}", 2.0 + i, 1 + i % 3) for i in range(4)], m),
    ]
    with patch.object(megabatch, "_solve_steps", lambda seg: estimator_steps(seg.jobs, seg.oracle)):
        return solve_mega(pack, algorithm="two_approx", validate=False)[1]


class TestShortcutMatchesReference:
    """The shortcut changes which requests the estimator sends, never what
    it returns: ω, the ratio and the allotment equal the reference
    bisection's on the scalar and batched executors and inside a mega
    pack."""

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(jobs=_shortcut_instances())
    def test_every_executor_returns_the_reference(self, jobs):
        for m in SHORTCUT_MS + SCALAR_MS:
            expected = reference_estimator(jobs, m)
            oracles = [ScalarOracle(jobs, m)]
            if m <= MAX_VECTORIZED_M:
                oracles.append(BatchedOracle(jobs, m))
            results = [ludwig_tiwari_estimator(jobs, m, oracle=oracle) for oracle in oracles]
            if m <= MAX_VECTORIZED_M:
                results.append(_mega_estimate(jobs, m))
            for result in results:
                assert (result.omega, result.ratio) == expected[:2]
                assert result.allotment.counts == expected[2].counts


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
