"""One driver, two executors: the request protocol of the vectorized drivers.

The estimator, two-approximation and FPTAS are written once, as generators
that yield ``("gamma", threshold)`` / ``("eval", ks)`` requests.  A solo
vectorized solve runs them on :meth:`BatchedOracle.run`; ``solve_mega`` runs
the same generators for many instances in batched rounds.  These tests pin
that both executors see the *same* request stream per instance, and the
executors' own contracts.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro import solve_mega
from repro.core.dual import dual_search_steps, run_requestless
from repro.core.scheduler import schedule_moldable
from repro.core.schedule import Schedule
from repro.perf.megabatch import MegaOracle
from repro.perf.oracle import BatchedOracle
from repro.workloads.generators import (
    random_amdahl_instance,
    random_chain_instance,
    random_mixed_instance,
    random_power_work_instance,
)

#: (generator, n, m, eps, algorithm) of the co-batch; three or more packed
#: instances of both batched algorithms, each with its own request count
SPECS = [
    (random_chain_instance, 12, 64, 0.1, "two_approx"),
    (random_mixed_instance, 6, 1 << 14, 0.1, "fptas"),
    (random_amdahl_instance, 9, 32, 0.1, "two_approx"),
    (random_power_work_instance, 4, 1 << 12, 0.25, "fptas"),
]


def _instances():
    """Fresh job objects per call: the solo and mega runs share no state."""
    return [
        SimpleNamespace(jobs=gen(n, m, seed=i + 1).jobs, m=m, eps=eps, algorithm=alg)
        for i, (gen, n, m, eps, alg) in enumerate(SPECS)
    ]


def _key(kind, payload, n):
    if kind == "gamma":
        return ("gamma", float(payload))
    ks = np.broadcast_to(np.asarray(payload, dtype=np.float64), (n,))
    return ("eval", tuple(ks.tolist()))


def _logged(steps, log, n):
    """Pass ``steps``' requests through unchanged, recording each one."""
    reply = None
    while True:
        try:
            kind, payload = steps.send(reply)
        except StopIteration as stop:
            return stop.value
        log.append(_key(kind, payload, n))
        reply = yield kind, payload


def _solo_streams(monkeypatch):
    logs = {}
    run = BatchedOracle.run

    def logging_run(self, steps):
        return run(self, _logged(steps, logs.setdefault(id(self), []), self.n))

    monkeypatch.setattr(BatchedOracle, "run", logging_run)
    streams = []
    for inst in _instances():
        oracle = BatchedOracle(inst.jobs, inst.m)
        schedule_moldable(inst.jobs, inst.m, inst.eps, algorithm=inst.algorithm, oracle=oracle)
        streams.append(logs[id(oracle)])
    monkeypatch.undo()
    return streams


def _mega_streams(monkeypatch):
    logs = {}
    gamma_round, eval_round = MegaOracle.gamma_round, MegaOracle.eval_round

    def logging_gamma_round(self, requests):
        for seg, t in requests:
            logs.setdefault(seg.slot, []).append(_key("gamma", t, seg.n))
        return gamma_round(self, requests)

    def logging_eval_round(self, requests):
        for seg, ks in requests:
            logs.setdefault(seg.slot, []).append(_key("eval", ks, seg.n))
        return eval_round(self, requests)

    monkeypatch.setattr(MegaOracle, "gamma_round", logging_gamma_round)
    monkeypatch.setattr(MegaOracle, "eval_round", logging_eval_round)
    stats = {}
    solve_mega(_instances(), stats=stats)
    monkeypatch.undo()
    assert stats["mega_size"] == len(SPECS)
    return [logs[slot] for slot in range(len(SPECS))]


class TestSoloAndMegaSendTheSameRequests:
    def test_every_instance_sends_its_solo_stream_inside_the_co_batch(self, monkeypatch):
        solo = _solo_streams(monkeypatch)
        mega = _mega_streams(monkeypatch)
        for spec, a, b in zip(SPECS, solo, mega):
            assert a == b, f"{spec[0].__name__} ({spec[4]}): request streams differ"

    def test_streams_carry_the_repeated_threshold_requests(self, monkeypatch):
        """The estimator asks for γ(hi) again after building the allotment:
        those repeats are what ``threshold_cache_hits`` counts."""
        for stream in _solo_streams(monkeypatch):
            kinds = {kind for kind, _ in stream}
            assert kinds == {"gamma", "eval"}
            thresholds = [payload for kind, payload in stream if kind == "gamma"]
            assert len(set(thresholds)) < len(thresholds)


class TestBatchedOracleRun:
    def _oracle(self):
        inst = random_mixed_instance(7, 32, seed=3)
        return inst.jobs, BatchedOracle(inst.jobs, 32)

    def test_answers_gamma_and_eval_requests_and_returns_the_result(self):
        jobs, oracle = self._oracle()
        reference = BatchedOracle(jobs, 32)
        seen = []

        def steps():
            gammas = yield ("gamma", 5.0)
            seen.append(gammas)
            times = yield ("eval", np.asarray(gammas, dtype=np.float64))
            seen.append(times)
            scalar = yield ("eval", 1.0)
            seen.append(scalar)
            return "done"

        assert oracle.run(steps()) == "done"
        expected = reference.gamma_array(5.0)
        assert np.array_equal(seen[0], expected)
        assert np.array_equal(seen[1], reference.times_at(expected.astype(np.float64)))
        assert np.array_equal(seen[2], reference.t1)
        assert oracle.stats == reference.stats

    def test_requests_go_through_overridable_methods(self):
        """A subclass overriding ``gamma_array`` (the fleet's chaos oracle
        does) sees every γ-request the executor answers."""
        jobs, _ = self._oracle()
        calls = []

        class Spy(BatchedOracle):
            def gamma_array(self, threshold):
                calls.append(threshold)
                return super().gamma_array(threshold)

        def steps():
            yield ("gamma", 3.0)
            yield ("gamma", 4.0)

        Spy(jobs, 32).run(steps())
        assert calls == [3.0, 4.0]


class TestRequestlessExecutor:
    def test_returns_the_result_of_a_step_without_requests(self):
        def steps():
            return 42
            yield  # pragma: no cover

        assert run_requestless(steps()) == 42

    def test_a_scalar_step_that_sends_a_request_raises(self):
        def step(d):
            yield ("gamma", d)
            return Schedule(m=1)

        with pytest.raises(RuntimeError, match="scalar dual step sent the oracle request 'gamma'"):
            run_requestless(dual_search_steps(step, 1.0, 2.0, 0.1))
