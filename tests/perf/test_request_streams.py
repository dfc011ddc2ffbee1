"""One driver, two executors: the request protocol of the vectorized drivers.

The estimator, two-approximation and FPTAS are written once, as generators
that yield ``("gamma", threshold)``, ``("eval", ks)`` and ``("rows",
threshold, rows, lo, hi)`` requests.  A solo vectorized solve runs them on
:meth:`BatchedOracle.run`; ``solve_mega`` runs the same generators for many
instances in batched rounds.  These tests pin
that both executors see the *same* request stream per instance, and the
executors' own contracts.
"""

import math
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
    random_quantized_instance,
)

#: (generator, n, m, eps, algorithm) of the co-batch; three or more packed
#: instances of both batched algorithms, each with its own request count, and
#: a tabulated one, whose estimator asks at every open midpoint while the
#: others skip the midpoints φ settles
SPECS = [
    (random_chain_instance, 12, 64, 0.1, "two_approx"),
    (random_mixed_instance, 6, 1 << 14, 0.1, "fptas"),
    (random_amdahl_instance, 9, 32, 0.1, "two_approx"),
    (random_power_work_instance, 4, 1 << 12, 0.25, "fptas"),
    (random_quantized_instance, 8, 64, 0.1, "two_approx"),
]


def _instances():
    """Fresh job objects per call: the solo and mega runs share no state."""
    return [
        SimpleNamespace(jobs=gen(n, m, seed=i + 1).jobs, m=m, eps=eps, algorithm=alg)
        for i, (gen, n, m, eps, alg) in enumerate(SPECS)
    ]


def _key(kind, n, payload, *rows):
    if kind == "gamma":
        return ("gamma", float(payload))
    if kind == "rows":
        return ("rows", float(payload), *(tuple(column.tolist()) for column in rows))
    ks = np.broadcast_to(np.asarray(payload, dtype=np.float64), (n,))
    return ("eval", tuple(ks.tolist()))


def _logged(steps, log, n):
    """Pass ``steps``' requests through unchanged, recording each one."""
    reply = None
    while True:
        try:
            request = steps.send(reply)
        except StopIteration as stop:
            return stop.value
        log.append(_key(request[0], n, *request[1:]))
        reply = yield request


def _solo_streams(monkeypatch):
    logs = {}
    run = BatchedOracle.run

    def logging_run(self, steps):
        return run(self, _logged(steps, logs.setdefault(id(self), []), self.n))

    monkeypatch.setattr(BatchedOracle, "run", logging_run)
    streams = []
    for inst in _instances():
        # a freed oracle's id can come back for a later one
        logs.clear()
        oracle = BatchedOracle(inst.jobs, inst.m)
        schedule_moldable(inst.jobs, inst.m, inst.eps, algorithm=inst.algorithm, oracle=oracle)
        streams.append(logs[id(oracle)])
    monkeypatch.undo()
    return streams


def _mega_streams(monkeypatch):
    logs = {}
    for kind in ("gamma", "eval", "rows"):
        answer = getattr(MegaOracle, f"{kind}_round")

        def logging_round(self, requests, kind=kind, answer=answer):
            for seg, *payload in requests:
                logs.setdefault(seg.slot, []).append(_key(kind, seg.n, *payload))
            return answer(self, requests)

        monkeypatch.setattr(MegaOracle, f"{kind}_round", logging_round)
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

    def test_streams_carry_all_three_request_kinds(self, monkeypatch):
        """The estimator bisects on row requests: its one γ-array request is
        the floor's, so a two-approximation stream asks for exactly one."""
        for spec, stream in zip(SPECS, _solo_streams(monkeypatch)):
            assert {key[0] for key in stream} == {"gamma", "eval", "rows"}
            if spec[4] == "two_approx":
                assert [key[0] for key in stream].count("gamma") == 1


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

    def test_answers_row_requests(self):
        jobs, oracle = self._oracle()
        # at 20.0 job 1 needs 17 machines and job 4 cannot finish on 32
        rows, lo, hi = np.array([1, 4]), np.array([1, 1]), np.array([33, 33])
        seen = []

        def steps():
            seen.append((yield ("rows", 20.0, rows, lo, hi)))

        oracle.run(steps())
        assert seen[0][0].tolist() == BatchedOracle(jobs, 32).gamma_array(20.0)[rows].tolist() == [17, 33]
        assert seen[0][1].tolist() == [jobs[1].processing_time(17), math.inf]
        assert oracle.stats["gamma_rows"] == 2

    def test_requests_go_through_overridable_methods(self):
        """A subclass overriding ``gamma_array`` and ``gamma_rows`` (the
        fleet's chaos oracle does) sees every γ-request the executor
        answers."""
        jobs, _ = self._oracle()
        calls = []

        class Spy(BatchedOracle):
            def gamma_array(self, threshold):
                calls.append(threshold)
                return super().gamma_array(threshold)

            def gamma_rows(self, threshold, rows, lo, hi):
                calls.append(("rows", threshold))
                return super().gamma_rows(threshold, rows, lo, hi)

        def steps():
            yield ("gamma", 3.0)
            yield ("rows", 3.5, np.array([0]), np.array([1]), np.array([33]))
            yield ("gamma", 4.0)

        Spy(jobs, 32).run(steps())
        assert calls == [3.0, ("rows", 3.5), 4.0]


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
