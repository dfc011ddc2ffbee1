"""Mega-batch lockstep solving: bit-identity against solo solves.

``solve_mega`` packs many instances into one shared ``JobArrayBundle`` and
drives every dual search in lockstep; its contract is that each instance's
result is *bit-identical* to a solo ``schedule_moldable`` call — schedules,
makespans, certification numbers, validator verdicts and even the per-oracle
probe accounting.  The hypothesis test here draws random co-batches across
all seven workload families and checks exactly that; the deterministic tests
pin the packing edge cases (fallback paths, error parity, stats shape).
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import MegaBatch, MegaOracle, solve_mega
from repro.core.backend import MAX_VECTORIZED_M
from repro.core.bounds import makespan_lower_bound
from repro.core.fptas import fptas_machine_threshold
from repro.core.job import AmdahlJob, TabulatedJob
from repro.core.scheduler import schedule_moldable
from repro.core.validation import validate_schedule
from repro.perf.oracle import BatchedOracle
from repro.workloads.generators import (
    random_amdahl_instance,
    random_bimodal_instance,
    random_chain_instance,
    random_communication_instance,
    random_mixed_instance,
    random_power_work_instance,
    random_quantized_instance,
)

#: All seven workload families of the co-batch draw.
FAMILIES = (
    random_mixed_instance,
    random_power_work_instance,
    random_communication_instance,
    random_bimodal_instance,
    random_quantized_instance,
    random_chain_instance,
    random_amdahl_instance,
)


def _instances(specs):
    """Regenerate the specs' instances (fresh job objects every call, so the
    solo and mega runs cannot share memoised state)."""
    return [
        SimpleNamespace(
            jobs=FAMILIES[s["family"]](s["n"], s["m"], seed=s["seed"]).jobs,
            m=s["m"],
            eps=s["eps"],
            algorithm=s["algorithm"],
        )
        for s in specs
    ]


def _resolved(spec) -> str:
    """The algorithm ``schedule_moldable`` actually runs for this spec."""
    if spec["algorithm"] != "auto":
        return spec["algorithm"]
    if spec["m"] >= fptas_machine_threshold(spec["n"], spec["eps"]):
        return "fptas"
    return "bounded"


def _assert_same_schedule(solo, mega, context):
    assert solo.m == mega.m, context
    assert len(solo) == len(mega), context
    assert [j.name for j in solo.jobs()] == [j.name for j in mega.jobs()], context
    if len(solo) == 0:
        return
    a, b = solo.columns(), mega.columns()
    assert np.array_equal(a.start, b.start), context
    assert np.array_equal(a.processors, b.processors), context
    assert np.array_equal(a.duration, b.duration), context
    assert np.array_equal(a.span_owner, b.span_owner), context
    assert np.array_equal(a.span_first, b.span_first), context
    assert np.array_equal(a.span_end, b.span_end), context


@st.composite
def co_batches(draw):
    size = draw(st.integers(min_value=2, max_value=5))
    return [
        {
            "family": draw(st.integers(min_value=0, max_value=len(FAMILIES) - 1)),
            "n": draw(st.integers(min_value=1, max_value=8)),
            "m": draw(st.sampled_from([1, 2, 8, 24, 64, 256])),
            "eps": draw(st.sampled_from([0.1, 0.25, 0.5])),
            "algorithm": draw(st.sampled_from(["auto", "two_approx"])),
            "seed": draw(st.integers(min_value=0, max_value=2**31 - 1)),
        }
        for _ in range(size)
    ]


class TestMegaBitIdentity:
    @given(co_batches())
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_random_co_batch_matches_solo_bit_for_bit(self, specs):
        stats = {}
        mega_instances = _instances(specs)
        mega_results = solve_mega(mega_instances, stats=stats)
        solo_instances = _instances(specs)

        seg = 0
        for spec, inst, mega_inst, mega in zip(
            specs, solo_instances, mega_instances, mega_results
        ):
            context = f"spec {spec!r}"
            chosen = _resolved(spec)
            packed = chosen in ("two_approx", "fptas")
            oracle = BatchedOracle(inst.jobs, inst.m) if packed else None
            solo = schedule_moldable(
                inst.jobs, inst.m, inst.eps, algorithm=inst.algorithm, oracle=oracle
            )
            assert solo.makespan == mega.makespan, context
            assert solo.lower_bound == mega.lower_bound, context
            assert solo.guarantee == mega.guarantee, context
            assert solo.algorithm == mega.algorithm, context
            assert solo.eps == mega.eps, context
            _assert_same_schedule(solo.schedule, mega.schedule, context)
            # validator verdicts agree (and pass) on the mega schedule
            # (validated against the job objects the mega run scheduled)
            verdict = validate_schedule(mega.schedule, mega_inst.jobs)
            assert verdict.ok, f"{context}: {verdict.violations}"
            assert verdict.makespan == solo.makespan, context
            if packed:
                # γ-probe accounting: the lockstep search must attribute the
                # *solo* probe counters to every segment, exactly
                assert stats["segments"][seg] == oracle.stats, context
                seg += 1

        assert stats["mega_size"] == seg
        if seg:
            # sanity of the round accounting: every lockstep round served at
            # least one segment request, and each request either hit the
            # segment's threshold cache or ran one γ-batch
            assert stats["gamma_rounds"] >= 1
            total_requests = sum(
                s["gamma_batches"] + s["threshold_cache_hits"]
                for s in stats["segments"]
            )
            assert total_requests >= stats["gamma_rounds"]


class TestSoloFallbacks:
    def test_tuple_inputs_and_result_order(self):
        a = random_mixed_instance(4, 16, seed=1)
        b = random_amdahl_instance(3, 8, seed=2)
        results = solve_mega([(a.jobs, a.m), (b.jobs, b.m)], eps=0.25)
        for inst, result in zip((a, b), results):
            solo = schedule_moldable(inst.jobs, inst.m, 0.25)
            assert result.makespan == solo.makespan
            assert result.algorithm == solo.algorithm

    def test_empty_instance_reports_algorithm_as_given(self):
        (result,) = solve_mega([([], 5)], algorithm="fptas")
        assert result.makespan == 0.0
        assert result.algorithm == "fptas"
        assert result.guarantee is None
        assert len(result.schedule) == 0

    def test_astronomical_m_falls_back_to_solo(self):
        inst = random_mixed_instance(4, 8, seed=3)
        m = MAX_VECTORIZED_M + 1
        stats = {}
        (result,) = solve_mega(
            [(inst.jobs, m)], algorithm="two_approx", stats=stats
        )
        solo = schedule_moldable(inst.jobs, m, algorithm="two_approx")
        assert stats["mega_size"] == 0  # not packable: scalar backend territory
        assert result.makespan == solo.makespan
        assert result.lower_bound == solo.lower_bound

    def test_non_batchable_algorithms_fall_back_to_solo(self):
        inst = random_mixed_instance(5, 8, seed=4)
        for algorithm in ("mrt", "compressible", "bounded"):
            stats = {}
            (result,) = solve_mega(
                [(inst.jobs, inst.m)], algorithm=algorithm, stats=stats
            )
            fresh = random_mixed_instance(5, 8, seed=4)
            solo = schedule_moldable(fresh.jobs, fresh.m, algorithm=algorithm)
            assert stats["mega_size"] == 0
            assert result.makespan == solo.makespan
            assert result.algorithm == algorithm

    def test_mixed_batch_keeps_instance_order(self):
        packed = random_mixed_instance(4, 64, seed=5)
        fallback = random_mixed_instance(4, 8, seed=6)
        stats = {}
        results = solve_mega(
            [
                (packed.jobs, packed.m),
                (fallback.jobs, fallback.m),
            ],
            algorithm="auto",
            eps=0.5,
            stats=stats,
        )
        assert stats["mega_size"] == 1
        assert results[0].algorithm == "fptas"
        assert results[1].algorithm == "bounded"


class TestErrorParity:
    def test_bad_m_raises_the_solo_error(self):
        with pytest.raises(ValueError, match="m must be >= 1"):
            solve_mega([([], 0)])

    def test_unknown_algorithm_raises_the_solo_error(self):
        inst = random_mixed_instance(3, 8, seed=7)
        with pytest.raises(ValueError, match="unknown algorithm"):
            solve_mega([(inst.jobs, inst.m)], algorithm="nope")

    def test_explicit_fptas_below_threshold_raises_the_solo_error(self):
        inst = random_mixed_instance(6, 4, seed=8)
        with pytest.raises(ValueError, match="the FPTAS requires m >= 8n/eps"):
            solve_mega([(inst.jobs, 4)], algorithm="fptas")
        with pytest.raises(ValueError, match="the FPTAS requires m >= 8n/eps"):
            schedule_moldable(inst.jobs, 4, algorithm="fptas")

    def test_bad_eps_raises_the_solo_error(self):
        inst = random_mixed_instance(2, 1 << 20, seed=9)
        with pytest.raises(ValueError, match=r"eps must lie in \(0, 1\]"):
            solve_mega([(inst.jobs, 1 << 20)], eps=1.5, algorithm="fptas")

    @pytest.mark.parametrize("eps", [0.0, -0.1, math.nan])
    def test_auto_bad_eps_raises_the_solo_error(self, eps):
        inst = random_mixed_instance(2, 1 << 20, seed=9)
        with pytest.raises(ValueError, match=r"eps must lie in \(0, 1\]"):
            solve_mega([(inst.jobs, 1 << 20)], eps=eps)

    @pytest.mark.parametrize("algorithm", ["two_approx", "fptas"])
    def test_floor_crossover_lower_bound_matches_solo(self, algorithm):
        """The estimator's floor branch reports the same omega packed and
        solo; at m=21 its float work sum rounds under the trivial bound."""

        def make_jobs():
            return [TabulatedJob("rigid", [0.9499999999999998]), AmdahlJob("linear", 19.0, 0.0)]

        m = 21 if algorithm == "two_approx" else 1 << 10
        (mega,) = solve_mega([(make_jobs(), m)], algorithm=algorithm)
        solo = schedule_moldable(make_jobs(), m, algorithm=algorithm)
        assert mega.lower_bound == solo.lower_bound == makespan_lower_bound(make_jobs(), m)
        assert mega.makespan == solo.makespan


class TestMegaBatchStructure:
    def test_segments_share_one_bundle_with_offsets(self):
        from repro.perf.megabatch import _Segment

        a = random_mixed_instance(3, 8, seed=10)
        b = random_amdahl_instance(4, 16, seed=11)
        segments = [
            _Segment(0, list(a.jobs), a.m, 0.25, "two_approx"),
            _Segment(1, list(b.jobs), b.m, 0.25, "two_approx"),
        ]
        batch = MegaBatch(segments)
        assert (batch.segments[0].start, batch.segments[0].stop) == (0, 3)
        assert (batch.segments[1].start, batch.segments[1].stop) == (3, 7)
        assert len(batch.bundle.jobs) == 7
        for seg in batch.segments:
            # the lockstep round requires the shared kernel table: every
            # segment oracle's bundle aliases the parent's group list
            assert seg.oracle.bundle.groups is batch.bundle.groups
        oracle = MegaOracle(batch)
        (gammas_a, gammas_b) = oracle.gamma_round(
            [(batch.segments[0], 10.0), (batch.segments[1], 10.0)]
        )
        assert len(gammas_a) == 3 and len(gammas_b) == 4
        assert oracle.stats["gamma_rounds"] == 1

    def test_segment_view_matches_private_bundle(self):
        from repro.perf.arrays import JobArrayBundle
        from repro.perf.megabatch import _SegmentView

        a = random_mixed_instance(5, 8, seed=12)
        b = random_communication_instance(4, 8, seed=13)
        jobs = list(a.jobs) + list(b.jobs)
        parent = JobArrayBundle(jobs)
        view = _SegmentView(parent, 5, 9)
        private = JobArrayBundle(list(b.jobs))
        ks = np.array([1.0, 2.0, 3.0, 4.0])
        assert np.array_equal(view.eval_all(ks), private.eval_all(ks))
        idx = np.array([0, 2])
        assert np.array_equal(
            view.eval_at(idx, ks[idx]), private.eval_at(idx, ks[idx])
        )

    def test_a_segment_view_is_monotone_by_its_own_jobs(self):
        """The shared group list holds every segment's classes; the
        estimator's shortcut must read only the segment's own, or a packed
        instance's requests would depend on its neighbours."""
        from repro.perf.arrays import JobArrayBundle
        from repro.perf.megabatch import _SegmentView

        mixed = random_mixed_instance(5, 8, seed=12).jobs
        tabulated = random_quantized_instance(4, 8, seed=13).jobs
        parent = JobArrayBundle(list(mixed) + list(tabulated))
        assert not parent.monotone
        assert _SegmentView(parent, 0, 5).monotone
        assert not _SegmentView(parent, 3, 9).monotone
        assert not _SegmentView(parent, 5, 9).monotone
        assert JobArrayBundle(mixed).monotone


class TestMegaRounds:
    """Row requests are answered first: every estimator finishes before any
    dual search starts, so the dual searches share their γ rounds."""

    @staticmethod
    def _fleet(index):
        """The fleet benchmark's pack: 32 six-job FPTAS instances at
        m = 2^20 and 32 twelve-job chains at m = 4, drawn from one
        generator."""
        r = np.random.default_rng([1, index])
        fptas = [SimpleNamespace(jobs=random_mixed_instance(6, 1 << 20, seed=r).jobs, m=1 << 20) for _ in range(32)]
        chains = [
            SimpleNamespace(jobs=random_chain_instance(12, 4, seed=r).jobs, m=4, algorithm="two_approx")
            for _ in range(32)
        ]
        return fptas + chains

    def test_fleet_pack_rounds(self):
        for index in range(40):
            stats = {}
            solve_mega(self._fleet(index), eps=0.1, stats=stats)
            assert stats["mega_size"] == 64
            assert stats["gamma_rounds"] <= 2
            assert stats["eval_rounds"] <= 2
            assert stats["rows_rounds"] <= 16

    def test_each_round_answers_one_kind_rows_first(self, monkeypatch):
        """A round answers every waiting request of one kind: rows while any
        segment waits on rows, else the kind most segments wait on."""
        log = []
        for kind in ("gamma", "eval", "rows"):
            answer = getattr(MegaOracle, f"{kind}_round")

            def logging_round(self, requests, kind=kind, answer=answer):
                log.append((kind, len(requests)))
                return answer(self, requests)

            monkeypatch.setattr(MegaOracle, f"{kind}_round", logging_round)
        solve_mega(self._fleet(0)[::4], eps=0.1)
        kinds = [kind for kind, _ in log]
        # the floor's γ round, then rows until every estimator is done, and
        # the dual searches' γ rounds after the last row round
        assert kinds[0] == "gamma"
        last_rows = len(kinds) - 1 - kinds[::-1].index("rows")
        assert kinds.count("gamma") == 2 and kinds.index("gamma", 1) > last_rows
