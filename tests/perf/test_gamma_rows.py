"""Row requests: ``(γ, t)`` for a few jobs inside a caller's bracket.

The estimator asks, at each midpoint of its bisection, only for the jobs
whose γ differs between the bracket's ends (``("rows", threshold, rows, lo,
hi)``, see :func:`repro.core.bounds.estimator_steps`).  Every executor must
answer exactly what the cold scalar search gives: the per-job path of
:class:`ScalarOracle` and of a small :class:`BatchedOracle` request, the
lockstep path of a large one (warm, with closed-form guesses, and cold), and
one lockstep over a mega batch's segments — at any bracket inside
``[1, m + 1]`` that contains γ, for every job class.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.allotment import gamma
from repro.core.capacity import index_array
from repro.core.job import (
    AmdahlJob,
    CommunicationJob,
    OracleJob,
    PowerLawJob,
    RigidJob,
    TabulatedJob,
)
from repro.perf import oracle as oracle_module
from repro.perf.megabatch import MegaBatch, MegaOracle, _Segment
from repro.perf.oracle import BatchedOracle, ScalarOracle
from repro.workloads.generators import (
    random_bimodal_instance,
    random_chain_instance,
    random_mixed_instance,
    random_quantized_instance,
)


def _zoo(n, m, seed):
    """One job of every kernel group in turn: the closed forms, tables,
    rigid jobs, and callables with and without a vectorized hook."""
    rng = np.random.default_rng(seed)
    jobs = []
    for i in range(n):
        t1 = float(rng.uniform(1.0, 100.0))
        kind = i % 7
        if kind == 0:
            jobs.append(AmdahlJob(f"a{i}", t1, float(rng.uniform(0.0, 0.5))))
        elif kind == 1:
            jobs.append(PowerLawJob(f"p{i}", t1, float(rng.uniform(0.0, 1.0))))
        elif kind == 2:
            jobs.append(CommunicationJob(f"c{i}", t1, float(rng.uniform(0.0, 0.01))))
        elif kind == 3:
            jobs.append(TabulatedJob(f"t{i}", sorted(rng.uniform(1.0, t1, size=9).tolist(), reverse=True)))
        elif kind == 4:
            jobs.append(RigidJob(f"r{i}", t1, int(rng.integers(1, 40))))
        elif kind == 5:
            jobs.append(OracleJob(f"o{i}", lambda k, t1=t1: t1 / k))
        else:
            jobs.append(OracleJob(f"h{i}", lambda k, t1=t1: t1 / k, lambda ks, t1=t1: t1 / ks))
    return jobs


FAMILIES = {
    "zoo": _zoo,
    "mixed": lambda n, m, seed: random_mixed_instance(n, m, seed=seed).jobs,
    "bimodal": lambda n, m, seed: random_bimodal_instance(n, m, seed=seed).jobs,
    "quantized": lambda n, m, seed: random_quantized_instance(n, m, seed=seed).jobs,
    "chain": lambda n, m, seed: random_chain_instance(n, m, seed=seed).jobs,
}


def _cold(job, threshold, m):
    """γ and its time by the cold scalar search (``m + 1`` and ``inf``
    where even ``m`` machines are too slow)."""
    g = gamma(job, threshold, m)
    return (m + 1, math.inf) if g is None else (g, job.processing_time(g))


def _request(jobs, m, seed):
    """A random row request with its cold answer: a threshold (a job's exact
    time at some count, or one drawn log-uniformly across the instance), a
    sorted row subset, and per row a bracket ``lo <= γ <= hi`` drawn around
    the cold γ."""
    r = random.Random(seed)
    if r.random() < 0.5:
        job = r.choice(jobs)
        threshold = job.processing_time(r.randint(1, m))
    else:
        low = min(j.processing_time(m) for j in jobs) / 2.0
        high = max(j.processing_time(1) for j in jobs) * 2.0
        threshold = math.exp(r.uniform(math.log(low), math.log(high)))
    rows = sorted(r.sample(range(len(jobs)), r.randint(1, len(jobs))))
    found, times, lo, hi = [], [], [], []
    for i in rows:
        g, t = _cold(jobs[i], threshold, m)
        found.append(g)
        times.append(t)
        lo.append(r.choice([1, g, r.randint(1, g)]))
        hi.append(r.choice([m + 1, g, r.randint(g, m + 1)]))
    payload = (threshold, np.array(rows, dtype=np.int64), index_array(lo), index_array(hi))
    return payload, (found, times)


def _assert_answer(answer, expected, context):
    found, times = answer
    assert found.tolist() == expected[0], context
    assert times.dtype == np.float64, context
    assert times.tolist() == expected[1], context


@st.composite
def instances(draw, ms):
    return (
        draw(st.sampled_from(sorted(FAMILIES))),
        draw(st.integers(min_value=1, max_value=40)),
        draw(st.sampled_from(ms)),
        draw(st.integers(min_value=0, max_value=2**31 - 1)),
    )


SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class TestRowAnswersMatchTheColdSearch:
    @given(instances(ms=[16, 1 << 20, (1 << 62) + 1, 1 << 80]), st.integers(0, 2**31 - 1))
    @SETTINGS
    def test_scalar(self, spec, seed):
        family, n, m, inst_seed = spec
        jobs = FAMILIES[family](n, m, inst_seed)
        payload, expected = _request(jobs, m, seed)
        _assert_answer(ScalarOracle(jobs, m).gamma_rows(*payload), expected, spec)

    @pytest.mark.parametrize("lockstep_min", [oracle_module.ROWS_LOCKSTEP_MIN, 0])
    @pytest.mark.parametrize("warm_start", [True, False])
    @given(instances(ms=[16, 1 << 20]), st.integers(0, 2**31 - 1))
    @SETTINGS
    def test_batched(self, warm_start, lockstep_min, spec, seed):
        """Whichever path the size picks, and the lockstep one at any size."""
        family, n, m, inst_seed = spec
        jobs = FAMILIES[family](n, m, inst_seed)
        payload, expected = _request(jobs, m, seed)
        oracle = BatchedOracle(jobs, m, warm_start=warm_start)
        before = dict(oracle.stats)
        real = oracle_module.ROWS_LOCKSTEP_MIN
        oracle_module.ROWS_LOCKSTEP_MIN = lockstep_min
        try:
            _assert_answer(oracle.gamma_rows(*payload), expected, spec)
        finally:
            oracle_module.ROWS_LOCKSTEP_MIN = real
        # rows answered are counted, γ-probes are not; the γ-cache is untouched
        assert oracle.stats == {**before, "gamma_rows": len(payload[1])}
        assert oracle._gamma_cache == {}

    @given(st.lists(instances(ms=[16, 1 << 20]), min_size=1, max_size=4), st.integers(0, 2**31 - 1))
    @SETTINGS
    def test_mega_co_batch(self, specs, seed):
        segments = [
            _Segment(slot, FAMILIES[family](n, m, inst_seed), m, 0.1, "fptas")
            for slot, (family, n, m, inst_seed) in enumerate(specs)
        ]
        batch = MegaBatch(segments)
        requests = [_request(seg.jobs, seg.m, seed + seg.slot) for seg in segments]
        round_requests = [(seg, *payload) for seg, (payload, _) in zip(segments, requests)]
        answers = MegaOracle(batch).rows_round(round_requests)
        for seg, (payload, expected), answer in zip(segments, requests, answers):
            _assert_answer(answer, expected, specs[seg.slot])
            assert seg.oracle.stats["gamma_rows"] == len(payload[1])
            assert seg.oracle.stats["oracle_evals"] == 0


class TestRowPaths:
    def _oracle(self, **kwargs):
        jobs = random_mixed_instance(300, 1 << 20, seed=4).jobs
        return jobs, BatchedOracle(jobs, 1 << 20, **kwargs)

    def _wide_request(self, jobs, m):
        """Every job, bracketed by the whole count range."""
        n = len(jobs)
        threshold = float(np.median([j.processing_time(64) for j in jobs]))
        return threshold, np.arange(n), np.ones(n, dtype=np.int64), np.full(n, m + 1)

    def test_small_requests_go_per_job_and_large_ones_lockstep(self, monkeypatch):
        jobs, oracle = self._oracle()
        calls = []
        real = oracle_module.lockstep_gamma_rows
        monkeypatch.setattr(
            oracle_module, "lockstep_gamma_rows", lambda *args: calls.append(len(args[2])) or real(*args)
        )
        threshold, rows, lo, hi = self._wide_request(jobs, oracle.m)
        small = oracle_module.ROWS_LOCKSTEP_MIN - 1
        oracle.gamma_rows(threshold, rows[:small], lo[:small], hi[:small])
        assert calls == []
        oracle.gamma_rows(threshold, rows, lo, hi)
        assert calls == [len(rows)]

    def test_a_cold_oracle_predicts_nothing(self, monkeypatch):
        """``warm_start=False`` spends no guided probes on rows: the lockstep
        search never asks for a prediction."""
        jobs, oracle = self._oracle(warm_start=False)
        _, warm_oracle = self._oracle()
        warm = warm_oracle.gamma_rows(*self._wide_request(jobs, oracle.m))

        def no_prediction(*args):
            raise AssertionError("a cold oracle predicted γ")

        monkeypatch.setattr(oracle_module, "_predict", no_prediction)
        cold = oracle.gamma_rows(*self._wide_request(jobs, oracle.m))
        assert cold[0].tolist() == warm[0].tolist()
        assert cold[1].tolist() == warm[1].tolist()
        assert oracle.stats["warm_probes"] == 0

    def test_no_rows(self):
        jobs, oracle = self._oracle()
        empty = np.empty(0, dtype=np.int64)
        for executor in (oracle, ScalarOracle(jobs, oracle.m)):
            found, times = executor.gamma_rows(1.0, empty, empty, empty)
            assert len(found) == len(times) == 0
