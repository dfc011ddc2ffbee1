"""The columnar Algorithm 3 dual step against its per-job reference.

:func:`repro.core.rounding.round_jobs_to_types`,
:func:`repro.knapsack.bounded.expand_bounded_items` and
:func:`repro.core.shelves.build_three_shelf_schedule` run their per-job work
on the executor's columns; ``reference_shelves.py`` keeps the per-job code
they replaced.  On every instance family, at targets from well below the
estimator's ω (rejected) to 2ω, with both rounding accuracies that make
wide types appear, on both executors (and the scalar one past the int64
range), the two must agree exactly: the same types with the same members,
the same rounded per-job records, the same containers, the same schedule
entries, the same :class:`ThreeShelfDiagnostics` and the same rejection.
"""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.bounded_algorithm import compressible_knapsack
from repro.core.bounds import ludwig_tiwari_estimator
from repro.core.compression import params_for_delta
from repro.core.job import AmdahlJob, PowerLawJob
from repro.core.rounding import round_jobs_to_types
from repro.core.schedule import MAX_COLUMNAR_M
from repro.core.shelves import ThreeShelfDiagnostics, build_three_shelf_schedule, partition_small_big, split_big_jobs
from repro.experiments.fig2_fig3_shelves import _shelf1_by_knapsack
from repro.knapsack.bounded import assign_members, expand_bounded_items, selected_counts
from repro.knapsack.compressible import round_down_geom, round_down_geom_batch, round_up_geom, round_up_geom_batch
from repro.perf.oracle import BatchedOracle, ScalarOracle
from repro.workloads import generators as gen

from reference_shelves import (
    reference_build_three_shelf_schedule,
    reference_expand_bounded_items,
    reference_round_jobs_to_types,
)

FAMILIES = {
    "amdahl": gen.random_amdahl_instance,
    "powerlaw": gen.random_power_law_instance,
    "comm": gen.random_communication_instance,
    "mixed": gen.random_mixed_instance,
    "powerwork": gen.random_power_work_instance,
    "bimodal": gen.random_bimodal_instance,
    "quantized": gen.random_quantized_instance,
    "chain": gen.random_chain_instance,
    "tabulated": gen.random_monotone_tabulated_instance,
}
#: machine counts the scalar executor also runs past the int64 columns
HUGE_M = ((1 << 62) + 1, 1 << 80)


def _executors(jobs, m):
    yield ScalarOracle
    if m <= MAX_COLUMNAR_M:
        yield BatchedOracle


def _type_rows(types):
    return [(t.key, t.size, t.profit, t.count, [id(j) for j in t.members]) for t in types]


def _container_rows(containers):
    return [(c.key, c.size, c.profit, c.payload) for c in containers]


def _schedule_rows(schedule):
    if schedule is None:
        return None
    rows = [(id(e.job), e.start, e.processors, tuple(e.spans)) for e in schedule.entries]
    return rows, schedule.m, schedule.metadata


def assert_rounding_matches(jobs, m, d, delta, executor):
    """Rounding and container expansion agree with the reference, or both
    raise the same error."""
    try:
        ref_rounded, ref_types = reference_round_jobs_to_types(jobs, m, d, delta, oracle=executor(jobs, m))
    except ValueError as err:
        with pytest.raises(ValueError, match=re.escape(str(err))):
            round_jobs_to_types(jobs, m, d, delta, oracle=executor(jobs, m))
        return None
    scheme = round_jobs_to_types(jobs, m, d, delta, oracle=executor(jobs, m))
    assert _type_rows(scheme.types) == _type_rows(ref_types)
    assert scheme.num_types == len(ref_types)
    assert scheme.rounded == ref_rounded
    assert [id(rj.job) for rj in scheme.rounded] == [id(rj.job) for rj in ref_rounded]
    containers = expand_bounded_items(scheme.types)
    assert _container_rows(containers) == _container_rows(reference_expand_bounded_items(ref_types))
    return scheme, containers


def assert_three_shelf_matches(jobs, m, d, shelf1, executor):
    """The three-shelf schedule, its diagnostics and its rejection agree with
    the reference."""
    diag_ref = ThreeShelfDiagnostics(d=d, m=m)
    diag_new = ThreeShelfDiagnostics(d=d, m=m)
    ref = reference_build_three_shelf_schedule(jobs, m, d, shelf1, diagnostics=diag_ref, oracle=executor(jobs, m))
    new = build_three_shelf_schedule(jobs, m, d, shelf1, diagnostics=diag_new, oracle=executor(jobs, m))
    assert diag_new == diag_ref
    assert diag_new.rejected_reason == diag_ref.rejected_reason
    assert _schedule_rows(new) == _schedule_rows(ref)
    return diag_new


def check_dual_step(jobs, m, d, delta, subset_seed):
    """Round, expand and build on every executor, with the forced jobs plus
    (a) a random subset of the knapsack jobs and (b) the bounded knapsack's
    own choice in shelf S1."""
    for executor in _executors(jobs, m):
        split = split_big_jobs(jobs, m, d, oracle=executor(jobs, m))
        if split is None:
            # a rejected target: every big job asked for shelf S1
            _, big = partition_small_big(jobs, d)
            assert_three_shelf_matches(jobs, m, d, big, executor)
            continue
        forced, knapsack_jobs, capacity = split
        pick = np.random.default_rng(subset_seed).random(len(knapsack_jobs)) < 0.5
        selections = [forced + [job for job, p in zip(knapsack_jobs, pick) if p]]
        if knapsack_jobs:
            rounded = assert_rounding_matches(knapsack_jobs, m, d, delta, executor)
            if rounded is not None and capacity >= 0:
                scheme, containers = rounded
                chosen = compressible_knapsack(containers, capacity, params_for_delta(delta).rho)
                selections.append(forced + assign_members(selected_counts(chosen), scheme.types))
        for shelf1 in selections:
            assert_three_shelf_matches(jobs, m, d, shelf1, executor)
            # the construction runs at the inflated target d' of Lemma 16
            assert_three_shelf_matches(jobs, m, (1.0 + delta) ** 2 * d, shelf1, executor)


@st.composite
def dual_cases(draw, families=tuple(sorted(FAMILIES))):
    family = draw(st.sampled_from(families))
    n = draw(st.integers(2, 40))
    m = draw(st.sampled_from([2, 3, 8, 16, 24, 64, 200, 1000]))
    seed = draw(st.integers(0, 2**16))
    factor = draw(st.floats(0.6, 2.0))
    delta = draw(st.sampled_from([0.02, 0.2]))
    subset_seed = draw(st.integers(0, 2**16))
    return family, n, m, seed, factor, delta, subset_seed


@given(dual_cases())
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_dual_step_matches_the_per_job_reference(case):
    family, n, m, seed, factor, delta, subset_seed = case
    jobs = FAMILIES[family](n, m, seed=seed).jobs
    d = factor * ludwig_tiwari_estimator(jobs, m).omega
    check_dual_step(jobs, m, d, delta, subset_seed)


# tabulated jobs store one time per processor count, so they stop at 2^16
@given(dual_cases(tuple(sorted(set(FAMILIES) - {"tabulated"}))), st.sampled_from(HUGE_M))
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_dual_step_matches_the_reference_past_int64(case, huge_m):
    """Past the int64 columns only the scalar executor runs: counts are
    exact Python ints, and so are the rounded sizes."""
    family, n, _, seed, factor, delta, subset_seed = case
    jobs = FAMILIES[family](n, huge_m, seed=seed).jobs
    d = factor * ludwig_tiwari_estimator(jobs, huge_m).omega
    check_dual_step(jobs, huge_m, d, delta, subset_seed)


@pytest.mark.parametrize("d", [2e5, 1e6, 3e6])
def test_counts_past_int64_match_the_reference(d):
    """Near-linear jobs of 10^25 work at m = 2^80 get γ-counts past 2^63:
    the count columns are exact Python ints and the wide types' sizes too."""
    jobs = [AmdahlJob(f"w{i}", 1e25 * (1 + i / 7), 1e-24) for i in range(8)]
    jobs += [PowerLawJob(f"p{i}", 3e5 * (1 + i / 5), 0.9) for i in range(6)]
    jobs += [AmdahlJob(f"s{i}", 1e3 * (1 + i), 0.5) for i in range(5)]
    m = 1 << 80
    knapsack_jobs = split_big_jobs(jobs, m, d)[1]
    assert any(t.size > 2**63 for t in round_jobs_to_types(knapsack_jobs, m, d, 0.2).types) == (d < 3e6)
    for delta in (0.02, 0.2):
        check_dual_step(jobs, m, d, delta, subset_seed=3)


@pytest.mark.parametrize("executor", [ScalarOracle, BatchedOracle])
def test_fig2_fig3_instances_match_the_reference(executor):
    """The Figure 2/3 experiment's instances and MRT knapsack selections."""
    for idx, (n, m) in enumerate(((30, 16), (60, 32), (120, 64), (200, 128))):
        jobs = gen.random_mixed_instance(n, m, seed=23 + idx).jobs
        omega = ludwig_tiwari_estimator(jobs, m).omega
        for d in (1.05 * omega, 2.0 * omega):
            shelf1 = _shelf1_by_knapsack(jobs, m, d)
            if shelf1 is not None:
                diag = assert_three_shelf_matches(jobs, m, d, shelf1, executor)
                assert diag.rejected_reason is None


def test_the_cases_cover_every_construction_branch():
    """The fixed grid the differential draws from reaches wide types, moves
    out of S2, piggybacking and every rejection the shelves can report."""
    kinds, reasons = set(), set()
    moved = piggybacked = 0
    for family in ("mixed", "bimodal", "powerwork"):
        for seed in range(3):
            jobs = FAMILIES[family](30, 24, seed=seed).jobs
            omega = ludwig_tiwari_estimator(jobs, 24).omega
            for factor in (0.6, 0.9, 1.2, 2.0):
                d = factor * omega
                split = split_big_jobs(jobs, 24, d)
                if split is None:
                    continue
                forced, knapsack_jobs, _ = split
                if knapsack_jobs:
                    scheme = round_jobs_to_types(knapsack_jobs, 24, d, 0.2)
                    kinds.update(t.key[0] for t in scheme.types)
                for shelf1 in (forced + knapsack_jobs[::2], forced + knapsack_jobs):
                    diag = assert_three_shelf_matches(jobs, 24, d, shelf1, ScalarOracle)
                    reasons.add(diag.rejected_reason)
                    moved += diag.moved_from_shelf2
                    piggybacked += diag.piggybacked_jobs
    assert kinds == {"narrow", "wide"}
    assert moved and piggybacked
    assert None in reasons and len(reasons) >= 3


class TestBatchedGeometricRounding:
    """``round_*_geom_batch`` equal the scalar roundings value by value."""

    GRIDS = [
        (1.0, 16.0, 2.0),
        (0.05, 3000.0, 1.0 + 0.01 / 400.0),  # the profit grid of delta = 0.01
        (400.0, 4000.0, 1.0 + 0.0012),
        (0.3, 0.6, 1.0 + 4.0 * 0.012),
        (2.0, 2.0, 1.5),  # high <= low: the grid is [low]
        (5.0, 1.0, 3.0),
    ]

    @staticmethod
    def _probes(low, high, ratio):
        steps = 0 if high <= low else math.ceil(math.log(high / low) / math.log(ratio))
        values = [low * 0.25, low * 0.999, high * 1.001, high * 10.0, 0.0, -1.0]
        for i in sorted({0, 1, 2, steps // 3, steps // 2, max(steps - 1, 0), steps}):
            point = low * ratio ** i
            values += [point, np.nextafter(point, -np.inf), np.nextafter(point, np.inf)]
            # where the nudged value lands exactly on the grid point
            values += [point / (1 + 1e-12), point / (1 - 1e-12)]
        return [float(v) for v in values]

    @staticmethod
    def _outcome(fn, value, grid):
        try:
            return fn(value, *grid)
        except (ValueError, OverflowError) as err:
            return err

    @pytest.mark.parametrize("grid", GRIDS)
    def test_round_up_matches_scalar(self, grid):
        values = self._probes(*grid)
        batch = round_up_geom_batch(values, *grid)
        assert batch.tolist() == [round_up_geom(v, *grid) for v in values]

    @pytest.mark.parametrize("grid", GRIDS)
    def test_round_down_matches_scalar(self, grid):
        values = [v for v in self._probes(*grid) if not isinstance(self._outcome(round_down_geom, v, grid), ValueError)]
        batch = round_down_geom_batch(values, *grid)
        assert batch.tolist() == [round_down_geom(v, *grid) for v in values]

    @pytest.mark.parametrize("grid", GRIDS)
    def test_round_down_raises_for_the_first_value_below_the_grid(self, grid):
        low = grid[0]
        values = [low * 2.0, low * 0.5, low * 0.25]
        with pytest.raises(ValueError) as err:
            round_down_geom(values[1], *grid)
        with pytest.raises(ValueError, match=re.escape(str(err.value))):
            round_down_geom_batch(values, *grid)

    def test_profits_under_profit_low_round_to_zero_in_the_types(self):
        """Narrow profits below delta*d/2 drop to 0 before the grid: the
        rounding keeps them at 0, as the per-job reference does."""
        jobs = gen.random_mixed_instance(60, 64, seed=9).jobs
        omega = ludwig_tiwari_estimator(jobs, 64).omega
        d = 1.3 * omega
        knapsack_jobs = split_big_jobs(jobs, 64, d)[1]
        scheme = round_jobs_to_types(knapsack_jobs, 64, d, 0.2)
        zero = [rj for rj in scheme.rounded if rj.type_key[0] == "narrow" and rj.profit == 0.0]
        assert zero
        assert_rounding_matches(knapsack_jobs, 64, d, 0.2, ScalarOracle)

    @pytest.mark.parametrize("grid", GRIDS)
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_behave_as_scalar(self, grid, value):
        for scalar, batch in ((round_up_geom, round_up_geom_batch), (round_down_geom, round_down_geom_batch)):
            outcome = self._outcome(scalar, value, grid)
            if isinstance(outcome, Exception):
                with pytest.raises(type(outcome), match=re.escape(str(outcome))):
                    batch([1.0 * grid[0], value], *grid)
            else:
                assert batch([value], *grid).tolist() == [outcome]

    @given(
        st.floats(1e-6, 1e6),
        st.floats(1.0001, 4.0),
        st.integers(0, 400),
        st.lists(st.floats(0.0, 1e7, allow_nan=False), max_size=20),
    )
    @settings(max_examples=150, deadline=None)
    def test_random_grids_match_scalar(self, low, ratio, span, values):
        high = low * ratio ** (span / 7.0)
        grid = (low, high, ratio)
        assert round_up_geom_batch(values, *grid).tolist() == [round_up_geom(v, *grid) for v in values]
        above = [v for v in values if v * (1 + 1e-12) >= low]
        assert round_down_geom_batch(above, *grid).tolist() == [round_down_geom(v, *grid) for v in above]
