"""γ and its processing time at announced thresholds.

A shelf dual step announces its thresholds ``d``, ``d/2``, ``d'``, ``d'/2``
and ``3d'/2`` once (``prefetch``) and then reads ``(γ, t_j(γ))`` column
pairs (``gamma_times``).  The batched executor answers the announcement in
one lockstep round plus one evaluation; the scalar one ignores it.  Either
way every read must equal a cold ``gamma_array`` + ``times_at`` (``inf`` at
the sentinel ``m + 1``): after any announced set (repeats, non-positive
thresholds, thresholds some jobs cannot meet, a threshold cached before),
for thresholds announced earlier or never, on every kernel group, on both
executors, on a mega segment view, and on the scalar executor past the int64
range.  The counts pin the point of it: one lockstep search per batched dual
step, and no γ-search on the scalar executor that the step would not make
without the announcement.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.bounded_algorithm import bounded_dual
from repro.core.bounds import ludwig_tiwari_estimator
from repro.core.compressible_algorithm import compressible_dual
from repro.core.job import AmdahlJob, CommunicationJob, OracleJob, PowerLawJob, RigidJob, TabulatedJob
from repro.core.mrt import mrt_dual
from repro.perf import oracle as oracle_module
from repro.perf.megabatch import MegaBatch, _Segment
from repro.perf.oracle import BatchedOracle, ScalarOracle
from repro.workloads.generators import random_mixed_instance, random_quantized_instance

HUGE_M = ((1 << 62) + 1, 1 << 80)


def _zoo(n, seed):
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


def _thresholds(jobs, m, r):
    """A random announced set: exact job times (ties), log-uniform draws
    reaching below some jobs' ``t_j(m)`` (sentinel rows), non-positive
    thresholds and repeats."""
    low = min(j.processing_time(m) for j in jobs) / 2.0
    high = max(j.processing_time(1) for j in jobs) * 2.0
    out = []
    for _ in range(r.randint(1, 6)):
        kind = r.random()
        if kind < 0.3:
            out.append(r.choice(jobs).processing_time(r.randint(1, min(m, 1 << 70))))
        elif kind < 0.75:
            out.append(math.exp(r.uniform(math.log(low), math.log(high))))
        elif kind < 0.85:
            out.append(r.choice([0.0, -1.0]))
        elif out:
            out.append(r.choice(out))
        else:
            out.append(high)
    return out


def _cold(executor, jobs, m, threshold, idx):
    """γ and its time at ``idx`` from a fresh executor: ``gamma_array``,
    then ``times_at`` where γ is not the sentinel."""
    cold = executor(jobs, m)
    found = cold.gamma_array(threshold)[idx]
    ok = np.array([g <= m for g in found.tolist()], dtype=bool)
    times = np.full(len(idx), math.inf)
    if ok.any():
        times[ok] = cold.times_at(found[ok], idx[ok])
    return found.tolist(), times.tolist()


def _check_reads(oracle, executor, jobs, m, thresholds, r):
    for threshold in thresholds:
        idx = np.array([r.randrange(len(jobs)) for _ in range(r.randint(0, 2 * len(jobs)))], dtype=np.int64)
        found, times = oracle.gamma_times(threshold, idx)
        assert times.dtype == np.float64
        assert (found.tolist(), times.tolist()) == _cold(executor, jobs, m, threshold, idx), threshold


def _exercise(oracle, executor, jobs, m, seed):
    """Cache a threshold, announce two overlapping sets, and read every
    threshold of both (the first set's leftovers from the fallback path)."""
    r = random.Random(seed)
    first = _thresholds(jobs, m, r)
    if r.random() < 0.5:
        oracle.gamma_array(r.choice(first))  # a threshold cached before the announcement
    oracle.prefetch(first)
    _check_reads(oracle, executor, jobs, m, first, r)
    second = _thresholds(jobs, m, r) + [r.choice(first)]
    oracle.prefetch(second)
    _check_reads(oracle, executor, jobs, m, second + first, r)


SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def instances(draw, ms):
    return (
        draw(st.integers(min_value=1, max_value=30)),
        draw(st.sampled_from(ms)),
        draw(st.integers(min_value=0, max_value=2**31 - 1)),
    )


class TestReadsMatchTheColdSearch:
    @given(instances(ms=[16, 4000, 1 << 20, *HUGE_M]), st.integers(0, 2**31 - 1))
    @SETTINGS
    def test_scalar(self, spec, seed):
        n, m, inst_seed = spec
        jobs = _zoo(n, inst_seed)
        _exercise(ScalarOracle(jobs, m), ScalarOracle, jobs, m, seed)

    @pytest.mark.parametrize("warm_start", [True, False])
    @given(instances(ms=[16, 4000, 1 << 20]), st.integers(0, 2**31 - 1))
    @SETTINGS
    def test_batched(self, warm_start, spec, seed):
        n, m, inst_seed = spec
        jobs = _zoo(n, inst_seed)
        _exercise(BatchedOracle(jobs, m, warm_start=warm_start), BatchedOracle, jobs, m, seed)

    @given(instances(ms=[16, 4000, 1 << 20]), st.integers(0, 2**31 - 1))
    @SETTINGS
    def test_mega_segment_view(self, spec, seed):
        n, m, inst_seed = spec
        jobs = _zoo(n, inst_seed)
        decoy = _Segment(0, _zoo(7, inst_seed + 1), 64, 0.1, "fptas")
        batch = MegaBatch([decoy, _Segment(1, jobs, m, 0.1, "fptas")])
        _exercise(batch.segments[1].oracle, BatchedOracle, jobs, m, seed)


class TestAnnouncements:
    def test_scalar_prefetch_searches_nothing(self):
        jobs = _zoo(14, 1)
        oracle = ScalarOracle(jobs, 4000)
        oracle.prefetch([1.0, 2.0, 3.0])
        assert oracle._gamma_cache == {}

    def test_batched_keeps_only_the_latest_time_columns(self):
        jobs = _zoo(14, 1)
        oracle = BatchedOracle(jobs, 4000)
        oracle.prefetch([1.0, 2.0, 3.0])
        oracle.prefetch([3.0, 4.0])
        assert sorted(oracle._times_cache) == [3.0, 4.0]
        assert sorted(oracle._gamma_cache) == [1.0, 2.0, 3.0, 4.0]

    def test_nan_raises(self):
        jobs = _zoo(7, 1)
        oracle = BatchedOracle(jobs, 64)
        with pytest.raises(ValueError, match="NaN"):
            oracle.prefetch([1.0, math.nan])


# -- counts ---------------------------------------------------------------------

M = 400
STEPS = {
    "bounded": lambda jobs, d, oracle: bounded_dual(jobs, M, d, 0.05, oracle=oracle),
    "compressible": lambda jobs, d, oracle: compressible_dual(jobs, M, d, 0.05, oracle=oracle),
    "mrt": lambda jobs, d, oracle: mrt_dual(jobs, M, d, oracle=oracle),
}
INSTANCES = {
    "mixed": lambda: random_mixed_instance(60, M, seed=2).jobs,
    "quantized": lambda: random_quantized_instance(60, M, seed=2).jobs,
}
#: targets around ω: rejected, accepted, and accepted with slack
FACTORS = (0.9, 1.05, 1.3, 2.0)


@pytest.mark.parametrize("family", sorted(INSTANCES))
@pytest.mark.parametrize("algorithm", sorted(STEPS))
def test_one_lockstep_search_per_batched_dual_step(monkeypatch, algorithm, family):
    jobs = INSTANCES[family]()
    oracle = BatchedOracle(jobs, M)
    omega = ludwig_tiwari_estimator(jobs, M, oracle=oracle).omega
    searches = []
    real = oracle_module._flat_search
    monkeypatch.setattr(oracle_module, "_flat_search", lambda o, t: searches.append(list(t)) or real(o, t))
    accepted = 0
    for factor in FACTORS:
        searches.clear()
        accepted += STEPS[algorithm](jobs, factor * omega, oracle) is not None
        assert len(searches) == 1, (factor, searches)
    assert accepted


@pytest.mark.parametrize("family", sorted(INSTANCES))
@pytest.mark.parametrize("algorithm", sorted(STEPS))
def test_scalar_dual_step_searches_no_more(monkeypatch, algorithm, family):
    """Against the same step with the announcement switched off."""
    calls = [0]
    real = oracle_module.gamma

    def counting(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(oracle_module, "gamma", counting)

    def run(jobs, d):
        calls[0] = 0
        schedule = STEPS[algorithm](jobs, d, ScalarOracle(jobs, M))
        return calls[0], schedule

    jobs = INSTANCES[family]()
    omega = ludwig_tiwari_estimator(jobs, M).omega
    for factor in FACTORS:
        with_announcement, schedule = run(jobs, factor * omega)
        with monkeypatch.context() as patch:
            patch.setattr(ScalarOracle, "prefetch", lambda self, thresholds: None)
            without, reference = run(jobs, factor * omega)
        assert with_announcement <= without, factor
        assert (schedule is None) == (reference is None)
