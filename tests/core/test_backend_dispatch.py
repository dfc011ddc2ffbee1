"""backend="auto": the per-algorithm size dispatch of repro.core.backend."""

import numpy as np
import pytest

from repro import AmdahlJob, OracleJob, RigidJob, schedule_moldable, solve_mega
from repro.core.scheduler import ALGORITHMS
from repro.core.allotment import gamma_batch
from repro.core.backend import (
    AUTO_VECTORIZED_MIN_N,
    MAX_VECTORIZED_M,
    auto_backend,
    resolve_backend,
)
from repro.core.bounds import ludwig_tiwari_estimator, makespan_lower_bound
from repro.core.dual import dual_binary_search
from repro.core.fptas import fptas_schedule
from repro.core.replan import ReplanState
from repro.core.two_approx import two_approximation
from repro.io import schedule_from_dict, schedule_to_dict
from repro.online import OnlineScheduler
from repro.perf.oracle import BatchedOracle, ScalarOracle
from repro.resilience import FaultPlan, MachineFailure, recover_with_faults
from repro.workloads.generators import random_arrivals_instance, random_mixed_instance

EPS = 0.1

#: (algorithm, m, the row's threshold) per facade name whose "auto" crosses
#: over: m=64 keeps bounded, mrt and compressible on their shelf duals
#: (m < 16n), m=2^20 puts fptas in its regime and sends bounded and
#: compressible to their large-m branch (the fptas row).  The bounded_linear
#: alias resolves on bounded's row; ptas has no row and passes "auto" to the
#: FPTAS or bounded driver.
STRADDLES = [
    ("fptas", 1 << 20, AUTO_VECTORIZED_MIN_N["fptas"]),
    ("two_approx", 64, AUTO_VECTORIZED_MIN_N["two_approx"]),
    ("bounded", 64, AUTO_VECTORIZED_MIN_N["bounded"]),
    ("mrt", 64, AUTO_VECTORIZED_MIN_N["mrt"]),
    ("compressible", 64, AUTO_VECTORIZED_MIN_N["compressible"]),
    ("bounded_linear", 64, AUTO_VECTORIZED_MIN_N["bounded"]),
    ("bounded", 1 << 20, AUTO_VECTORIZED_MIN_N["fptas"]),
    ("compressible", 1 << 20, AUTO_VECTORIZED_MIN_N["fptas"]),
    ("ptas", 1 << 20, AUTO_VECTORIZED_MIN_N["fptas"]),
    ("ptas", 64, AUTO_VECTORIZED_MIN_N["bounded"]),
]


def _solved(result):
    return (schedule_to_dict(result.schedule)["entries"], result.makespan, result.lower_bound)


def _entries(schedule):
    return [(e.job.name, e.start, tuple(e.spans)) for e in schedule.entries]


class TestTable:
    @pytest.mark.parametrize("algorithm", sorted(AUTO_VECTORIZED_MIN_N))
    def test_threshold_is_the_first_vectorized_n(self, algorithm):
        t = AUTO_VECTORIZED_MIN_N[algorithm]
        # m=64 < 16n for n >= 5 keeps bounded and compressible off their
        # large-m branch (a zero row is checked at n=5, not the empty n=0)
        assert auto_backend(algorithm, max(t, 5), 64) == "vectorized"
        if t:
            assert auto_backend(algorithm, t - 1, 64) == "scalar"

    @pytest.mark.parametrize("algorithm", ["bounded", "compressible"])
    def test_large_m_uses_the_fptas_row(self, algorithm):
        t = AUTO_VECTORIZED_MIN_N["fptas"]
        assert auto_backend(algorithm, t - 1, 16 * (t - 1)) == "scalar"
        assert auto_backend(algorithm, t, 16 * t) == "vectorized"
        # just under the cut, the shelf dual proper: the driver's own row
        own = "scalar" if t < AUTO_VECTORIZED_MIN_N[algorithm] else "vectorized"
        assert auto_backend(algorithm, t, 16 * t - 1) == own

    def test_huge_m_resolves_to_scalar(self):
        # enough jobs that two_approx runs vectorized at m <= MAX_VECTORIZED_M
        n = AUTO_VECTORIZED_MIN_N["two_approx"]
        jobs = random_mixed_instance(n, 64, seed=1).jobs
        for algorithm in AUTO_VECTORIZED_MIN_N:
            assert auto_backend(algorithm, n, MAX_VECTORIZED_M + 1) == "scalar"
            backend, oracle = resolve_backend(jobs, MAX_VECTORIZED_M + 1, "auto", None, algorithm)
            assert backend == "scalar" and isinstance(oracle, ScalarOracle)
            assert oracle.m == MAX_VECTORIZED_M + 1 and oracle.jobs == jobs
        backend, oracle = resolve_backend(jobs, MAX_VECTORIZED_M, "auto", None, "two_approx")
        assert backend == "vectorized" and oracle is not None

    def test_oracle_forces_vectorized(self):
        jobs = random_mixed_instance(4, 64, seed=2).jobs
        oracle = BatchedOracle(jobs, 64)
        assert resolve_backend(jobs, 64, "auto", oracle, "two_approx") == ("vectorized", oracle)
        result = schedule_moldable(jobs, 64, EPS, algorithm="two_approx", oracle=oracle)
        assert result.backend == "vectorized"
        assert oracle.gamma_probes > 0

    def test_explicit_backends_are_kept(self):
        jobs = random_mixed_instance(4, 64, seed=3).jobs
        for backend in ("scalar", "vectorized"):
            assert schedule_moldable(jobs, 64, EPS, backend=backend).backend == backend


class TestStraddle:
    @pytest.mark.parametrize("algorithm,m,threshold", STRADDLES)
    @pytest.mark.parametrize("below", [True, False])
    def test_auto_matches_both_backends(self, algorithm, m, threshold, below):
        n = threshold - 1 if below else threshold

        def solve(backend):
            jobs = random_mixed_instance(n, m, seed=n).jobs
            return schedule_moldable(jobs, m, EPS, algorithm=algorithm, backend=backend)

        auto = solve("auto")
        assert auto.backend == ("scalar" if below else "vectorized")
        assert auto.algorithm == algorithm
        for backend in ("scalar", "vectorized"):
            other = solve(backend)
            assert other.backend == backend
            assert _solved(auto) == _solved(other)

    @pytest.mark.parametrize("algorithm", ["mrt", "compressible"])
    def test_small_shelf_duals_run_scalar(self, algorithm):
        m = 16
        jobs = random_mixed_instance(3, m, seed=4).jobs
        auto = schedule_moldable(jobs, m, EPS, algorithm=algorithm)
        assert auto.backend == "scalar"
        vectorized = schedule_moldable(
            random_mixed_instance(3, m, seed=4).jobs, m, EPS, algorithm=algorithm,
            backend="vectorized",
        )
        assert _solved(auto) == _solved(vectorized)

    @pytest.mark.parametrize("backend", ["scalar", "vectorized"])
    def test_bounded_linear_is_an_alias_of_bounded(self, backend):
        jobs = random_mixed_instance(30, 64, seed=7).jobs
        alias = schedule_moldable(jobs, 64, EPS, algorithm="bounded_linear", backend=backend)
        bounded = schedule_moldable(jobs, 64, EPS, algorithm="bounded", backend=backend)
        assert _solved(alias) == _solved(bounded)
        assert alias.algorithm == alias.schedule.metadata["algorithm"] == "bounded_linear"


class TestReportedBackend:
    def test_two_approximation_writes_its_backend(self):
        jobs = random_mixed_instance(5, 16, seed=5).jobs
        for backend in ("scalar", "vectorized"):
            result = two_approximation(jobs, 16, backend=backend)
            assert result.schedule.metadata["backend"] == backend
        assert two_approximation([], 16, backend="auto").schedule.metadata["backend"] == "scalar"

    def test_metadata_backend_survives_io(self):
        jobs = random_mixed_instance(5, 16, seed=6).jobs
        result = schedule_moldable(jobs, 16, EPS, algorithm="two_approx")
        loaded = schedule_from_dict(schedule_to_dict(result.schedule), jobs)
        assert loaded.metadata["backend"] == result.backend == "scalar"

    def test_recovery_epochs_name_their_backend(self):
        inst = random_mixed_instance(8, 16, seed=7)
        plan = FaultPlan(m=16, failures=(MachineFailure(time=1.0, first=0, count=4),))
        res = recover_with_faults(inst.jobs, 16, plan, algorithm="two_approx")
        replans = [e for e in res.report.epochs if e.replanned]
        assert replans and all(e.replan_backend == "scalar" for e in replans)
        assert all(e.replan_algorithm == "two_approx" for e in replans)
        assert res.report.gamma_probes is None
        assert res.fault_free.backend == "scalar"


class TestOnlineAuto:
    def test_epochs_straddling_a_threshold_match_both_backends(self):
        # the first epoch re-plans its t arrivals vectorized (t is
        # two_approx's row); the second re-plans the last 20 arrivals plus
        # the unstarted rest, fewer than t jobs, on the scalar executor
        t = AUTO_VECTORIZED_MIN_N["two_approx"]
        inst = random_arrivals_instance(t + 20, 64, seed=12)

        def run(backend, warm_start=True):
            return OnlineScheduler(
                64,
                eps=EPS,
                algorithm="two_approx",
                backend=backend,
                policy="count",
                batch_size=t,
                warm_start=warm_start,
            ).run(inst.arrivals)

        auto = run("auto")
        assert {e.replan_backend for e in auto.report.epochs} == {"scalar", "vectorized"}
        assert auto.report.gamma_probes is not None
        for other in (run("scalar"), run("vectorized"), run("auto", warm_start=False)):
            assert auto.makespan == other.makespan
            assert _entries(auto.schedule) == _entries(other.schedule)
            assert auto.report.offline_makespan == other.report.offline_makespan

    def test_small_bounded_epochs_build_no_oracle(self):
        inst = random_arrivals_instance(20, 64, seed=13)
        result = OnlineScheduler(64, eps=EPS).run(inst.arrivals)
        assert {e.replan_algorithm for e in result.report.epochs} == {"bounded"}
        assert {e.replan_backend for e in result.report.epochs} == {"scalar"}
        assert result.report.gamma_probes is None
        assert result.offline.backend == "scalar"

    def test_replan_state_hands_every_epoch_its_executor(self, monkeypatch):
        import repro.core.replan as replan

        handed = []
        solve = replan.schedule_moldable

        def spy(*args, **kwargs):
            handed.append(kwargs["oracle"])
            return solve(*args, **kwargs)

        monkeypatch.setattr(replan, "schedule_moldable", spy)
        jobs = random_mixed_instance(6, 8, seed=14).jobs

        def replan_once(algorithm, backend):
            state = ReplanState(m=8, eps=EPS, algorithm=algorithm, backend=backend)
            state.add_jobs(jobs)
            return state, state.replan_pending(0.0, [], [(0, 8)])

        for algorithm in ("two_approx", "bounded", "auto"):
            state, outcome = replan_once(algorithm, "auto")
            assert outcome.backend == "scalar" and isinstance(handed[-1], ScalarOracle)
            # only a batched epoch primes the next one and counts probes
            assert state.prev_oracle is None and state.gamma_probes is None
        for algorithm in ("two_approx", "mrt", "compressible", "bounded", "bounded_linear"):
            state, outcome = replan_once(algorithm, "vectorized")
            assert outcome.backend == "vectorized" and isinstance(handed[-1], BatchedOracle)
            assert state.prev_oracle is handed[-1] and state.gamma_probes > 0
        # exact runs no executor; ptas picks its branch's executor itself
        for algorithm in ("exact", "ptas"):
            replan_once(algorithm, "vectorized")
            assert handed[-1] is None


class TestMachineCountBoundary:
    @pytest.mark.parametrize("m", [True, False, 2.5, 4.0, "4"])
    def test_schedule_moldable_rejects(self, m):
        jobs = random_mixed_instance(10, 4, seed=1).jobs
        with pytest.raises(ValueError, match="m must be an integer"):
            schedule_moldable(jobs, m)

    @pytest.mark.parametrize("m", [True, 2.5])
    def test_online_scheduler_rejects(self, m):
        with pytest.raises(ValueError, match="m must be an integer"):
            OnlineScheduler(m)

    @pytest.mark.parametrize("m", [True, 2.5])
    def test_solve_mega_rejects(self, m):
        jobs = random_mixed_instance(4, 4, seed=1).jobs
        with pytest.raises(ValueError, match="m must be an integer"):
            solve_mega([(jobs, 4), (jobs, m)])

    def test_numpy_integers_are_accepted(self):
        jobs = random_mixed_instance(10, 4, seed=1).jobs
        expected = schedule_moldable(jobs, 4).makespan
        assert schedule_moldable(jobs, np.int64(4)).makespan == expected
        assert OnlineScheduler(np.int32(4)).m == 4
        assert solve_mega([(jobs, np.int64(4))])[0].makespan == expected


class TestMismatchedOracle:
    """A supplied oracle must be built for exactly ``(jobs, m)``: γ-arrays are
    positional, so any other oracle would answer for the wrong jobs."""

    M = 4096  # >= 8n/eps for 20 jobs at eps=0.1, so the FPTAS applies

    @staticmethod
    def _jobs():
        return random_mixed_instance(20, TestMismatchedOracle.M, seed=1).jobs

    @staticmethod
    def _bad_oracle(kind, jobs):
        if kind == "wrong_m":
            return BatchedOracle(jobs, 16), "built for m=16"
        if kind == "other_jobs":
            other = random_mixed_instance(20, TestMismatchedOracle.M, seed=2).jobs
            return BatchedOracle(other, TestMismatchedOracle.M), "other jobs"
        if kind == "subset":
            return BatchedOracle(jobs[:-1], TestMismatchedOracle.M), "other jobs"
        return BatchedOracle(jobs[::-1], TestMismatchedOracle.M), "other jobs"

    ENTRY_POINTS = {
        "estimator": lambda jobs, m, oracle: ludwig_tiwari_estimator(jobs, m, oracle=oracle),
        "dual_binary_search": lambda jobs, m, oracle: dual_binary_search(
            jobs, m, lambda d: None, tolerance=0.1, oracle=oracle
        ),
        "two_approximation": lambda jobs, m, oracle: two_approximation(jobs, m, oracle=oracle),
        "fptas_schedule": lambda jobs, m, oracle: fptas_schedule(jobs, m, EPS, oracle=oracle),
        "schedule_moldable": lambda jobs, m, oracle: schedule_moldable(
            jobs, m, EPS, algorithm="two_approx", oracle=oracle
        ),
        "schedule_moldable_fptas": lambda jobs, m, oracle: schedule_moldable(
            jobs, m, EPS, algorithm="fptas", oracle=oracle
        ),
        "gamma_batch": lambda jobs, m, oracle: gamma_batch(jobs, 1.0, m, oracle=oracle),
    }

    @pytest.mark.parametrize("kind", ["wrong_m", "other_jobs", "subset", "reordered"])
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_rejected(self, entry, kind):
        jobs = self._jobs()
        oracle, message = self._bad_oracle(kind, jobs)
        with pytest.raises(ValueError, match=message):
            self.ENTRY_POINTS[entry](jobs, self.M, oracle)

    @pytest.mark.parametrize("algorithm", [a for a in ALGORITHMS if a != "exact"])
    def test_every_driver_but_exact_checks_the_facade_oracle(self, algorithm):
        jobs = self._jobs()
        oracle, message = self._bad_oracle("other_jobs", jobs)
        with pytest.raises(ValueError, match=message):
            schedule_moldable(jobs, self.M, EPS, algorithm=algorithm, oracle=oracle)

    @pytest.mark.parametrize("algorithm", ["mrt", "compressible", "bounded", "bounded_linear", "ptas"])
    def test_shelf_drivers_run_on_a_matching_facade_oracle(self, algorithm):
        jobs = random_mixed_instance(20, 16, seed=1).jobs
        oracle = BatchedOracle(jobs, 16)
        result = schedule_moldable(jobs, 16, EPS, algorithm=algorithm, oracle=oracle)
        assert oracle.gamma_probes > 0 and result.backend == "vectorized"
        scalar = schedule_moldable(jobs, 16, EPS, algorithm=algorithm, backend="scalar")
        assert _entries(result.schedule) == _entries(scalar.schedule)

    def test_same_jobs_in_a_new_list_are_accepted(self):
        jobs = self._jobs()
        oracle = BatchedOracle(list(jobs), self.M)
        solo = schedule_moldable(jobs, self.M, EPS, algorithm="two_approx", backend="scalar")
        with_oracle = schedule_moldable(list(jobs), self.M, EPS, algorithm="two_approx", oracle=oracle)
        assert with_oracle.makespan == solo.makespan
        assert with_oracle.lower_bound == solo.lower_bound


class TestScalarExecutorPastInt64:
    """Beyond int64 every backend runs the scalar executor, whose count
    columns must stay exact Python ints: an allotment here exceeds 2^63, so
    a count rounded through float64 or wrapped in int64 changes the entries.
    The pins are the scalar reference's output before the shelf step ran
    on a :class:`ScalarOracle`."""

    M = 1 << 80
    LOWER_BOUND = 3.000000000002481e17
    # the large-m branch of bounded and compressible: the FPTAS dual, eps 1/2
    LARGE_M = (
        4.907286023817844e17,
        [
            ("a", 0.0, ((0, 203778625322924392449),)),
            ("b", 0.0, ((203778625322924392449, 81511450129169768448),)),
            ("c", 0.0, ((285290075452094160897, 1572915631182),)),
        ],
    )
    PINS = {
        "mrt": (
            5.3514346932306726e17,
            [
                ("b", 0.0, ((0, 74746310649363275777),)),
                ("a", 0.0, ((74746310649363275777, 186865776623408201729),)),
                ("c", 0.0, ((261612087272771477506, 5285196898568),)),
            ],
        ),
        "bounded": LARGE_M,
        "compressible": LARGE_M,
        "two_approx": (
            3.000002127537993e17,
            [
                ("a", 0.0, ((0, 333333096940390612993),)),
                ("b", 0.0, ((333333096940390612993, 133333238776156233729),)),
                ("c", 0.0, ((466666335716546846722, 1410080576246018177),)),
            ],
        ),
        "fptas": (
            3.81677801852499e17,
            [
                ("a", 0.0, ((0, 262001089700902780928),)),
                ("b", 0.0, ((262001089700902780928, 104800435880361107457),)),
                ("c", 0.0, ((366801525581263888385, 3672968581372),)),
            ],
        ),
    }

    @pytest.mark.parametrize("backend", ["scalar", "vectorized"])
    @pytest.mark.parametrize("algorithm", sorted(PINS))
    def test_entries_makespan_and_lower_bound_are_pinned(self, algorithm, backend):
        jobs = [AmdahlJob("a", 1e38, 0.0), AmdahlJob("b", 4e37, 0.0), AmdahlJob("c", 3e29, 1e-12)]
        result = schedule_moldable(jobs, self.M, 0.5, algorithm=algorithm, backend=backend)
        makespan, entries = self.PINS[algorithm]
        assert result.backend == "scalar"
        assert _entries(result.schedule) == entries
        assert max(e.processors for e in result.schedule.entries) > 1 << 63
        assert result.makespan == makespan
        assert result.lower_bound == self.LOWER_BOUND

    @pytest.mark.parametrize("backend", ["scalar", "vectorized"])
    @pytest.mark.parametrize("algorithm", ["bounded", "compressible"])
    def test_the_estimator_evaluates_exact_counts(self, algorithm, backend):
        """The step job's γ is the odd count 2^79 + 1.  Evaluated at that
        count rounded through float64 (2^79) it would read twice as long,
        and the certified lower bound would move off the reference's."""
        step = (1 << 79) + 1
        jobs = [OracleJob("step", lambda k: 1e30 if k < step else 5e29), AmdahlJob("a", 1e50, 0.0)]
        result = schedule_moldable(jobs, self.M, 0.5, algorithm=algorithm, backend=backend)
        assert result.lower_bound == makespan_lower_bound(jobs, self.M) == 5e29
        assert result.makespan == 8.178807994989434e29


class TestCountsPast2To53:
    """Below the int64 boundary the batched oracle hands exact int64 counts
    to every kernel.  Rounded through float64, a γ of 2^53 + 1 became 2^53:
    the step job read its 1e6 branch and certified a lower bound above OPT,
    and the rigid job got 2^53 processors with a 1.0 duration column while
    its entry ran 1e6.  Both backends must now agree entry for entry."""

    M = 1 << 60
    STEP = (1 << 53) + 1

    def step_jobs(self):
        step = self.STEP
        return [
            OracleJob("step", lambda k: 1e6 if k < step else 1.0),
            AmdahlJob("a", 2.0, 0.0),
            AmdahlJob("b", 3.0, 0.0),
        ]

    def rigid_jobs(self):
        return [RigidJob("r", 1.0, self.STEP), AmdahlJob("a", 2.0, 0.0)]

    def hook_jobs(self):
        """The step as an OracleJob with a float64 hook, exact at every
        count float64 holds: past 2^53 the hook would see 2^53 + 1 as 2^53,
        so the exact oracle answers there."""
        step = self.STEP
        return [
            OracleJob(
                "step",
                lambda k: 1e6 if k < step else 1.0,
                times_vectorized=lambda ks: np.where(ks <= 2.0**53, 1e6, 1.0),
            ),
            AmdahlJob("a", 2.0, 0.0),
        ]

    @pytest.mark.parametrize("algorithm", ["two_approx", "fptas", "bounded", "mrt"])
    @pytest.mark.parametrize("make", ["step_jobs", "rigid_jobs", "hook_jobs"])
    def test_backends_agree(self, make, algorithm):
        results = [
            schedule_moldable(getattr(self, make)(), self.M, EPS, algorithm=algorithm, backend=backend)
            for backend in ("scalar", "vectorized")
        ]
        scalar, vectorized = results
        assert vectorized.backend == "vectorized"
        assert _entries(vectorized.schedule) == _entries(scalar.schedule)
        assert (vectorized.makespan, vectorized.lower_bound) == (scalar.makespan, scalar.lower_bound)
        for result in results:
            # the step's count is exact, so it runs its 1.0 branch; every
            # entry's own end agrees with the makespan the columns report
            assert result.lower_bound == 1.0
            assert max(e.end for e in result.schedule.entries) == result.makespan
            allotted = {e.job.name: e.processors for e in result.schedule.entries}
            assert allotted.get("step", allotted.get("r")) == self.STEP
