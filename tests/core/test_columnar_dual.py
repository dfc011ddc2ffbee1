"""The oracle-fed (columnar) pieces of one dual step against their scalar paths.

With a :class:`BatchedOracle` the big/forced split, the type rounding and the
three-shelf construction read γ-arrays and time columns instead of asking per
job.  Each must return exactly what the scalar path returns.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bounded_algorithm import bounded_schedule
from repro.core.bounds import ludwig_tiwari_estimator
from repro.core.rounding import round_jobs_to_types
from repro.core.shelves import ThreeShelfDiagnostics, build_three_shelf_schedule, split_big_jobs
from repro.perf.oracle import BatchedOracle
from repro.workloads.generators import random_mixed_instance

# targets between the estimator's omega (often rejected) and 2*omega
D_FACTORS = (0.6, 0.9, 1.0, 1.2, 1.6, 2.0)
INSTANCES = [(30, 16, 1), (40, 64, 2), (60, 24, 3), (25, 200, 4), (60, 2000, 5)]
# coarse enough that some jobs round as wide in shelf S2
DELTA = 0.2


def _cases():
    for n, m, seed in INSTANCES:
        jobs = random_mixed_instance(n, m, seed=seed).jobs
        omega = ludwig_tiwari_estimator(jobs, m).omega
        for factor in D_FACTORS:
            yield jobs, m, omega * factor


CASES = list(_cases())
# the targets that are not rejected outright, and those with knapsack jobs
SPLIT_CASES = [(jobs, m, d) for jobs, m, d in CASES if split_big_jobs(jobs, m, d) is not None]
KNAPSACK_CASES = [(jobs, m, d) for jobs, m, d in SPLIT_CASES if split_big_jobs(jobs, m, d)[1]]


def _schedule_rows(schedule):
    return [(id(e.job), e.start, e.processors, tuple(e.spans)) for e in schedule.entries]


@pytest.mark.parametrize("jobs,m,d", CASES)
def test_split_big_jobs_matches_scalar(jobs, m, d):
    scalar = split_big_jobs(jobs, m, d)
    columnar = split_big_jobs(jobs, m, d, oracle=BatchedOracle(jobs, m))
    if scalar is None:
        assert columnar is None
        return
    forced, knapsack_jobs, capacity = scalar
    assert columnar is not None
    assert [id(j) for j in columnar[0]] == [id(j) for j in forced]
    assert [id(j) for j in columnar[1]] == [id(j) for j in knapsack_jobs]
    assert columnar[2] == capacity and type(columnar[2]) is int


def test_split_covers_forced_and_rejected_targets():
    assert len(SPLIT_CASES) < len(CASES)
    assert any(split_big_jobs(jobs, m, d)[0] for jobs, m, d in SPLIT_CASES)


@pytest.mark.parametrize("jobs,m,d", KNAPSACK_CASES)
def test_rounding_matches_scalar(jobs, m, d):
    knapsack_jobs = split_big_jobs(jobs, m, d)[1]
    scalar = round_jobs_to_types(knapsack_jobs, m, d, DELTA)
    columnar = round_jobs_to_types(knapsack_jobs, m, d, DELTA, oracle=BatchedOracle(jobs, m))
    assert columnar.rounded == scalar.rounded
    assert [(t.key, t.size, t.profit, t.count) for t in columnar.types] == [
        (t.key, t.size, t.profit, t.count) for t in scalar.types
    ]
    for a, b in zip(columnar.types, scalar.types):
        assert [id(j) for j in a.members] == [id(j) for j in b.members]


def test_rounding_covers_narrow_and_wide_types():
    kinds = set()
    for jobs, m, d in KNAPSACK_CASES:
        knapsack_jobs = split_big_jobs(jobs, m, d)[1]
        kinds.update(t.key[0] for t in round_jobs_to_types(knapsack_jobs, m, d, DELTA).types)
    assert kinds == {"narrow", "wide"}


def test_rounding_reports_the_first_forced_job_on_both_paths():
    jobs, m, d = next((j, m, d) for j, m, d in SPLIT_CASES if split_big_jobs(j, m, d)[0])
    forced = split_big_jobs(jobs, m, d)[0]
    for oracle in (None, BatchedOracle(jobs, m)):
        with pytest.raises(ValueError, match=repr(forced[0].name)):
            round_jobs_to_types(forced, m, d, DELTA, oracle=oracle)


def test_rounding_of_no_jobs_is_empty_on_both_paths():
    jobs = random_mixed_instance(5, 8, seed=0).jobs
    for oracle in (None, BatchedOracle(jobs, 8)):
        assert round_jobs_to_types([], 8, 10.0, DELTA, oracle=oracle).types == []


@pytest.mark.parametrize("first", [0, 1], ids=["even", "odd"])
@pytest.mark.parametrize("jobs,m,d", SPLIT_CASES)
def test_three_shelf_schedule_matches_scalar(jobs, m, d, first):
    forced, knapsack_jobs, _ = split_big_jobs(jobs, m, d)
    # alternate knapsack jobs into shelf 1: any selection must agree
    shelf1 = forced + knapsack_jobs[first::2]
    diags = []
    schedules = []
    for oracle in (None, BatchedOracle(jobs, m)):
        diag = ThreeShelfDiagnostics(d=d, m=m)
        schedules.append(
            build_three_shelf_schedule(jobs, m, d, shelf1, diagnostics=diag, oracle=oracle)
        )
        diags.append(diag)
    assert diags[0] == diags[1]
    scalar, columnar = schedules
    if scalar is None:
        assert columnar is None
        return
    assert _schedule_rows(columnar) == _schedule_rows(scalar)
    assert columnar.metadata["shelves"] == scalar.metadata["shelves"]


def test_bounded_dual_asks_no_per_job_gamma(monkeypatch):
    """The vectorized bounded dual reads whole γ-arrays; the per-job
    ``BatchedOracle.gamma`` lookup is never used."""

    def per_job(self, *args, **kwargs):
        raise AssertionError("per-job gamma lookup on the columnar path")

    monkeypatch.setattr(BatchedOracle, "gamma", per_job)
    jobs = random_mixed_instance(120, 64, seed=5).jobs
    result = bounded_schedule(jobs, 64, 0.2, backend="vectorized")
    assert np.isfinite(result.schedule.makespan)


class TestOracleGammaLookup:
    def test_cached_threshold_answered_from_the_cache(self):
        jobs = random_mixed_instance(12, 32, seed=0).jobs
        oracle = BatchedOracle(jobs, 32)
        t = 0.5 * max(job.processing_time(1) for job in jobs)
        gammas = oracle.gamma_array(t)
        hits = oracle.stats["threshold_cache_hits"]
        for i, job in enumerate(jobs):
            g = int(gammas[i])
            assert oracle.gamma(job, t) == (g if g <= 32 else None)
        assert oracle.stats["threshold_cache_hits"] == hits + len(jobs)
        assert oracle.stats["gamma_batches"] == 1

    def test_new_threshold_computes_the_array_once(self):
        jobs = random_mixed_instance(12, 32, seed=0).jobs
        oracle = BatchedOracle(jobs, 32)
        t = 0.25 * max(job.processing_time(1) for job in jobs)
        oracle.gamma(jobs[0], t)
        oracle.gamma(jobs[1], t)
        assert oracle.stats["gamma_batches"] == 1
        assert oracle.stats["threshold_cache_hits"] == 1
