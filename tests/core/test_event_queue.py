"""Event-epoch grouping semantics of the event-queue list scheduler.

The scalar heap loop (``reference_list_scheduling.py``) groups completions within :func:`epoch_tolerance` of
the earliest pending completion into one wake-up — ``max(1e-15 absolute,
two ulp relative)``, so grouping keeps working at magnitudes where float64
resolution has outgrown the historical absolute ``1e-15`` — and the
event-queue scheduler must reproduce that grouping *exactly*: near-tie
floats just past the window (at every magnitude) must NOT merge epochs,
ties inside it MUST, and the tolerance window is anchored at the earliest
completion only (no chaining), following the PR-3 near-tie sweep
conventions of pinning both sides of every tolerance boundary.

All pins assert *both* the epoch instrumentation and bit-identity of the
resulting schedule against the heap reference, so a grouping regression
cannot hide behind a still-identical schedule or vice versa.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.allotment import Allotment
from repro.core.job import TabulatedJob
from repro.core.list_scheduling import (
    EPOCH_REL_TOLERANCE,
    EPOCH_TOLERANCE,
    epoch_tolerance,
    list_schedule,
)
from repro.core.schedule import MAX_COLUMNAR_M
from repro.core.validation import validate_schedule

from reference_list_scheduling import reference_list_schedule

ULP16 = np.nextafter(16.0, 32.0) - 16.0  # 3.55e-15 > EPOCH_TOLERANCE
ULP1 = np.nextafter(1.0, 2.0) - 1.0  # 2.22e-16 < EPOCH_TOLERANCE
M20 = 2.0 ** 20  # a magnitude where one ulp dwarfs the old absolute 1e-15
ULP20 = np.nextafter(M20, 2 * M20) - M20  # 2^-32 ~ 2.33e-10

#: Smallest head wave :func:`_mass_tie_case` draws: a mass start and a mass
#: completion of at least this many unit jobs in one epoch.
MASS_WAVE_MIN = 33


def _jobs_with_durations(durations, need=1):
    """One TabulatedJob per duration, constant table at its allotted need."""
    jobs = [
        TabulatedJob(f"j{i}", [float(d)] * need) for i, d in enumerate(durations)
    ]
    allot = Allotment({job: need for job in jobs})
    return jobs, allot


def _assert_identical(a, b, ctx=""):
    assert a.m == b.m and len(a) == len(b), ctx
    assert [j.name for j in a.jobs()] == [j.name for j in b.jobs()], ctx
    if len(a) == 0:
        return
    ca, cb = a.columns(), b.columns()
    for f in ("start", "processors", "duration", "span_owner", "span_first", "span_end"):
        assert np.array_equal(getattr(ca, f), getattr(cb, f)), (ctx, f)


def _run(jobs, allot, m, **kw):
    stats = {}
    schedule = list_schedule(jobs, allot, m, stats=stats, **kw)
    return schedule, stats


class TestEpochGroupingPins:
    def test_identical_times_merge_into_one_epoch(self):
        jobs, allot = _jobs_with_durations([16.0, 16.0, 16.0, 16.0])
        schedule, stats = _run(jobs, allot, 4)
        assert stats["epochs"] == 1
        assert stats["events"] == 4
        assert stats["max_epoch_completions"] == 4
        _assert_identical(reference_list_schedule(jobs, allot, 4), schedule)

    def test_three_ulp_apart_at_16_does_not_merge(self):
        """At magnitude 16 the relative window is exactly two ulp
        (16 * 2^-51 = 2 * 2^-48): a three-ulp separation sits outside it, so
        the two completions are distinct epochs, exactly as the heap pops
        them."""
        assert ULP16 > EPOCH_TOLERANCE  # the absolute floor alone would split even 1 ulp
        assert 3 * ULP16 > epoch_tolerance(16.0)
        jobs, allot = _jobs_with_durations([16.0, 16.0 + 3 * ULP16])
        schedule, stats = _run(jobs, allot, 2)
        assert stats["epochs"] == 2
        assert stats["max_epoch_completions"] == 1
        _assert_identical(reference_list_schedule(jobs, allot, 2), schedule)

    def test_two_ulp_apart_at_16_merges(self):
        """Both sides of the relative boundary at magnitude 16: two ulp is
        *exactly* the window (16 * EPOCH_REL_TOLERANCE == 2 ulp, and the
        grouping comparison is inclusive), so the completions share one
        epoch — under the old absolute-only 1e-15 tolerance they were
        (wrongly) split, degrading grouping to exact-ties-only past
        magnitude ~1."""
        assert 2 * ULP16 == epoch_tolerance(16.0) > EPOCH_TOLERANCE
        jobs, allot = _jobs_with_durations([16.0, 16.0 + 2 * ULP16])
        schedule, stats = _run(jobs, allot, 2)
        assert stats["epochs"] == 1
        assert stats["max_epoch_completions"] == 2
        _assert_identical(reference_list_schedule(jobs, allot, 2), schedule)

    def test_relative_window_scales_to_large_magnitudes(self):
        """At magnitude 2^20 the window is 2^20 * 2^-51 = still exactly two
        ulp (the relative tolerance is scale-free at power-of-two anchors):
        a two-ulp separation merges, three ulp does not — pinned on both
        sides (the absolute 1e-15 floor is five orders of magnitude below
        one ulp here, so only the relative term can group anything)."""
        assert ULP20 > 100.0 * EPOCH_TOLERANCE
        assert 2 * ULP20 == epoch_tolerance(M20)
        jobs, allot = _jobs_with_durations([M20, M20 + 2 * ULP20])
        schedule, stats = _run(jobs, allot, 2)
        assert stats["epochs"] == 1
        assert stats["max_epoch_completions"] == 2
        _assert_identical(reference_list_schedule(jobs, allot, 2), schedule)

        jobs, allot = _jobs_with_durations([M20, M20 + 3 * ULP20])
        schedule, stats = _run(jobs, allot, 2)
        assert stats["epochs"] == 2
        assert stats["max_epoch_completions"] == 1
        _assert_identical(reference_list_schedule(jobs, allot, 2), schedule)

    def test_relative_window_is_capped_at_magnitude_2_60(self):
        """Above 2^60 the relative term stops growing: the window anchors at
        2^60 * 2^-51 = 512.  Without the cap the window at magnitude 2^62
        would be 2048 — *four* ulp there (ulp = 1024), fusing floats that are
        two representable values apart into one epoch.  Pinned on both sides:
        one ulp (1024) at 2^62 stays split, exact ties still merge."""
        from repro.core.list_scheduling import EPOCH_REL_MAGNITUDE_CAP

        m62 = 2.0 ** 62
        ulp62 = float(np.spacing(m62))
        assert ulp62 == 1024.0
        assert epoch_tolerance(m62) == EPOCH_REL_MAGNITUDE_CAP * EPOCH_REL_TOLERANCE == 512.0
        assert epoch_tolerance(m62) < ulp62  # the uncapped window (2048) was not

        jobs, allot = _jobs_with_durations([m62, m62 + ulp62])
        schedule, stats = _run(jobs, allot, 2)
        assert stats["epochs"] == 2
        _assert_identical(reference_list_schedule(jobs, allot, 2), schedule)

        jobs, allot = _jobs_with_durations([m62, m62])
        schedule, stats = _run(jobs, allot, 2)
        assert stats["epochs"] == 1
        _assert_identical(reference_list_schedule(jobs, allot, 2), schedule)

    def test_two_ulp_still_merges_at_the_cap_anchor(self):
        """At the 2^60 anchor itself the window is exactly two ulp (2^60 *
        2^-51 = 2 * 2^9 = 512 with ulp 256): two ulp merges, three does not —
        the historical two-ulp semantics hold right up to the cap."""
        m60 = 2.0 ** 60
        ulp60 = float(np.spacing(m60))
        assert epoch_tolerance(m60) == 2 * ulp60

        jobs, allot = _jobs_with_durations([m60, m60 + 2 * ulp60])
        schedule, stats = _run(jobs, allot, 2)
        assert stats["epochs"] == 1
        _assert_identical(reference_list_schedule(jobs, allot, 2), schedule)

        jobs, allot = _jobs_with_durations([m60, m60 + 3 * ulp60])
        schedule, stats = _run(jobs, allot, 2)
        assert stats["epochs"] == 2
        _assert_identical(reference_list_schedule(jobs, allot, 2), schedule)

    def test_absolute_floor_governs_below_magnitude_two(self):
        """Below EPOCH_TOLERANCE / EPOCH_REL_TOLERANCE (~2.25) the absolute
        1e-15 floor is the window — the historical semantics are unchanged
        there (see the magnitude-1 pins): four ulp of 1.0 (8.9e-16) still
        merges although it exceeds the relative term."""
        assert epoch_tolerance(1.0) == EPOCH_TOLERANCE > 1.0 * EPOCH_REL_TOLERANCE
        assert 4 * ULP1 > 1.0 * EPOCH_REL_TOLERANCE
        jobs, allot = _jobs_with_durations([1.0, 1.0 + 4 * ULP1])
        schedule, stats = _run(jobs, allot, 2)
        assert stats["epochs"] == 1
        _assert_identical(reference_list_schedule(jobs, allot, 2), schedule)

    def test_one_ulp_apart_below_tolerance_merges(self):
        """At magnitude 1 one ulp (2.2e-16) sits inside the tolerance: the
        scalar loop pops both completions in one wake-up, so must the
        event queue."""
        assert ULP1 < EPOCH_TOLERANCE
        jobs, allot = _jobs_with_durations([1.0, 1.0 + ULP1])
        schedule, stats = _run(jobs, allot, 2)
        assert stats["epochs"] == 1
        assert stats["max_epoch_completions"] == 2
        _assert_identical(reference_list_schedule(jobs, allot, 2), schedule)

    def test_tolerance_window_is_anchored_not_chained(self):
        """Three completions at 1.0, 1.0+4u, 1.0+8u: the window is anchored
        at the earliest end (1.0 + 1e-15), so the third event stays out even
        though it is within tolerance of the second — the scalar loop fixes
        ``now`` once per wake-up and so does the epoch partition."""
        e1, e2, e3 = 1.0, 1.0 + 4 * ULP1, 1.0 + 8 * ULP1
        assert e2 - e1 <= EPOCH_TOLERANCE < e3 - e1
        assert e3 - e2 <= EPOCH_TOLERANCE
        jobs, allot = _jobs_with_durations([e1, e2, e3])
        schedule, stats = _run(jobs, allot, 3)
        assert stats["epochs"] == 2
        assert stats["max_epoch_completions"] == 2
        _assert_identical(reference_list_schedule(jobs, allot, 3), schedule)

    def test_epoch_starts_all_fitting_jobs_at_once(self):
        """A merged epoch's released machines admit the whole next wave in
        one admission scan (same schedule as the heap, one epoch fewer than
        the no-tie case would need)."""
        # wave 1: four unit jobs finishing together; wave 2: four more
        jobs, allot = _jobs_with_durations([2.0] * 4 + [4.0] * 4)
        schedule, stats = _run(jobs, allot, 4)
        # epoch at t=2 (wave 1 done, wave 2 starts), epoch at t=6
        assert stats["epochs"] == 2
        assert stats["max_epoch_completions"] == 4
        heap = reference_list_schedule(jobs, allot, 4)
        _assert_identical(heap, schedule)
        assert schedule.makespan == 6.0


class TestMultiSpanLeftovers:
    def test_leftover_fragments_reassemble_across_spans(self):
        """A wide job started in a simultaneous-completion epoch from
        scattered (non-adjacent) leftover fragments gets the same multi-span
        placement as the heap loop."""
        x = TabulatedJob("x", [10.0])
        y = TabulatedJob("y", [2.0])
        z = TabulatedJob("z", [10.0])
        w = TabulatedJob("w", [2.0])
        v = TabulatedJob("v", [6.0, 6.0])
        jobs = [x, y, z, w, v]
        allot = Allotment({x: 1, y: 1, z: 1, w: 1, v: 2})
        schedule, stats = _run(jobs, allot, 4)
        heap = reference_list_schedule(jobs, allot, 4)
        _assert_identical(heap, schedule)
        # y and w complete in one epoch; v reuses their non-adjacent machines
        assert stats["max_epoch_completions"] == 2
        entry = schedule.entry_for(v)
        assert entry.spans == ((1, 1), (3, 1))
        assert validate_schedule(schedule, jobs).ok

    def test_large_epoch_matches_heap(self):
        """A mass admission of 97 jobs whose ends form runs: each run is one
        event; a prime machine count leaves a ragged tail so span splits land
        mid-span."""
        jobs, allot = _jobs_with_durations([8.0] * 120 + [2.0] * 120)
        schedule, stats = _run(jobs, allot, 97)
        heap = reference_list_schedule(jobs, allot, 97)
        _assert_identical(heap, schedule)
        assert stats["max_epoch_completions"] >= 90


class TestAstronomicalM:
    def test_astronomical_m_runs_natively(self):
        """Machine counts beyond the int64 span range run in Python ints,
        bit-identical to the heap reference."""
        m = MAX_COLUMNAR_M * 4
        jobs = [TabulatedJob("big", [3.0, 3.0]), TabulatedJob("small", [5.0])]
        allot = Allotment({jobs[0]: m - 1, jobs[1]: 1})
        schedule, stats = _run(jobs, allot, m)
        assert schedule.makespan == 5.0
        assert "epochs" in stats
        _assert_identical(reference_list_schedule(jobs, allot, m), schedule)

    def test_huge_total_need_runs_natively(self):
        """Needs whose prefix sums overflow int64 (regression: 40 jobs of
        2^61 processors on m = 2^62 once crashed a NumPy span cut)."""
        m = MAX_COLUMNAR_M
        need = 1 << 61
        jobs = [TabulatedJob(f"h{i}", [10.0]) for i in range(40)]
        allot = Allotment({j: need for j in jobs})
        schedule, stats = _run(jobs, allot, m)
        assert schedule.makespan == 200.0
        assert "epochs" in stats
        _assert_identical(reference_list_schedule(jobs, allot, m), schedule)

    def test_both_sides_of_the_int64_total_need_boundary(self):
        """total_need equal to ``MAX_COLUMNAR_M - m`` and one processor past
        it both match the heap exactly."""
        m = 1 << 61
        budget = MAX_COLUMNAR_M - m  # the historical event-queue guard value
        for extra in (0, 1):
            jobs = [TabulatedJob("a", [4.0]), TabulatedJob("b", [6.0])]
            # two needs <= m whose total sits exactly on / one past the cut
            allot = Allotment({jobs[0]: budget // 2, jobs[1]: budget // 2 + extra})
            schedule, _ = _run(jobs, allot, m)
            _assert_identical(
                reference_list_schedule(jobs, allot, m), schedule, extra
            )

    def test_m_of_2_96(self):
        """Far past every int64 bound the schedule still matches the heap
        exactly."""
        m = 1 << 96
        jobs = [TabulatedJob("big", [3.0, 3.0]), TabulatedJob("small", [5.0])]
        allot = Allotment({jobs[0]: m - 1, jobs[1]: 1})
        schedule, _ = _run(jobs, allot, m)
        _assert_identical(reference_list_schedule(jobs, allot, m), schedule)

    @pytest.mark.parametrize("m", [1 << 80, 1 << 100], ids=["2^80", "2^100"])
    @pytest.mark.parametrize("block", [1, 7])
    def test_mass_tie_of_a_thousand_jobs(self, m, block):
        """1,000 unit jobs start together and end in one epoch, their ends
        alternating (in blocks) between 16 and 16 + one ulp, so runs of equal
        ends break inside the tie; a ragged tail of m/3-wide jobs blocks
        until the tie releases, then takes the 1,000 freed single-machine
        pieces in the heap's (end, row) release order plus part of a span."""
        durations = [16.0 if (i // block) % 2 else 16.0 + ULP16 for i in range(1000)]
        needs = [1] * 1000
        for d in (20.0, 20.0, 9.0, 30.0, 1.0):
            durations.append(d)
            needs.append(m // 3)
        stats = _differential(m, durations, needs)
        assert stats["max_epoch_completions"] >= 1000

    @pytest.mark.parametrize(
        "m",
        [
            (1 << 53) - 1,
            1 << 53,
            (1 << 53) + 1,
            MAX_COLUMNAR_M - 1,
            MAX_COLUMNAR_M,
            MAX_COLUMNAR_M + 1,
            (1 << 63) - 1,
            1 << 63,
            1 << 64,
            (1 << 80) + 1,
        ],
        ids=lambda m: f"m={m:#x}",
    )
    def test_spans_at_the_exactness_boundaries(self, m):
        """On either side of the exact-float (2^53), int64-column (2^62) and
        int64 (2^63, 2^64) boundaries, span ends land on and past the bound:
        a run of three m/3-wide jobs sharing an end, two (m - 1)-wide jobs
        blocked behind them, an (m/2 + 1)-wide job and a tie of 40 unit jobs
        alternating between two ends — all bit-identical to the heap."""
        durations = [4.0, 4.0, 4.0, 2.0, 3.0, 3.0, 1.0]
        needs = [m // 3, m // 3, m // 3, 1, m - 1, m - 1, m // 2 + 1]
        for i in range(40):
            durations.append(5.0 if i % 2 else 5.0 + 4 * ULP16)
            needs.append(1)
        stats = _differential(m, durations, needs)
        assert stats["max_epoch_completions"] >= 3

    def test_stats_contract(self):
        jobs, allot = _jobs_with_durations([1.0, 2.0, 3.0])
        _, stats = _run(jobs, allot, 2)
        assert set(stats) == {
            "epochs",
            "events",
            "max_epoch_completions",
            "candidate_scans",
            "candidates_visited",
        }
        assert stats["events"] == 3
        assert stats["epochs"] >= 1
        assert 1 <= stats["max_epoch_completions"] <= 3
        assert stats["candidate_scans"] >= 1
        assert stats["candidates_visited"] >= 1


@st.composite
def _tie_heavy_case(draw):
    # m and n ranges mix single admissions with mass epochs of more than 32
    # candidates and idle machines, whose equal ends share one event
    m = draw(st.sampled_from([1, 2, 3, 7, 9, 40, 48]))
    n = draw(st.integers(min_value=1, max_value=90))
    # quantized duration grid plus near-tie values straddling the tolerance
    grid = [0.5, 1.0, 1.0 + ULP1, 2.0, 16.0, 16.0 + ULP16, 3.0]
    durations = [draw(st.sampled_from(grid)) for _ in range(n)]
    needs = [draw(st.integers(min_value=1, max_value=m)) for _ in range(n)]
    return m, durations, needs


class TestEpochGroupingProperties:
    @given(_tie_heavy_case())
    @settings(max_examples=120, deadline=None)
    def test_all_backends_bit_identical_on_tie_heavy_instances(self, case):
        m, durations, needs = case
        jobs = [
            TabulatedJob(f"j{i}", [float(d)] * k)
            for i, (d, k) in enumerate(zip(durations, needs))
        ]
        allot = Allotment({job: k for job, k in zip(jobs, needs)})
        heap = reference_list_schedule(jobs, allot, m)
        indexed, stats = _run(jobs, allot, m)
        _assert_identical(heap, indexed, (m, durations, needs))
        # every completion is seen exactly once, and epochs are bounded by
        # the number of *distinct* end values (an epoch consumes at least
        # one distinct completion instant, possibly several within the
        # tolerance window)
        assert stats["events"] == len(jobs)
        distinct_ends = len({float(e) for e in heap.columns().end.tolist()})
        assert 1 <= stats["epochs"] <= distinct_ends


@st.composite
def _chain_case(draw):
    """Adversarial single-completion chains: distinct durations (no two
    completions ever share an epoch window), n far above m, and small needs
    so nearly every epoch admits exactly one successor from a deep waiting
    queue — the regime where an O(n) admission scan per epoch would dominate."""
    m = draw(st.sampled_from([1, 2, 3, 5, 8]))
    n = draw(st.integers(min_value=1, max_value=70))
    # strictly increasing integer-spaced durations: separations are >= 1,
    # astronomically beyond every tolerance window at these magnitudes
    base = draw(st.integers(min_value=1, max_value=50))
    durations = [float(base + 3 * i) for i in range(n)]
    perm = draw(st.permutations(range(n)))
    durations = [durations[i] for i in perm]
    needs = [draw(st.integers(min_value=1, max_value=m)) for _ in range(n)]
    return m, durations, needs


class TestCandidateIndexProperties:
    @given(_chain_case())
    @settings(max_examples=120, deadline=None)
    def test_index_matches_heap_on_single_completion_chains(self, case):
        """Index-vs-heap identical admission order (hence bit-identical
        schedules) on no-tie chains.  Every start and duration is an exact
        integer, so completions group only on exact ties: the epochs are
        exactly the heap schedule's distinct end times."""
        m, durations, needs = case
        jobs = [
            TabulatedJob(f"c{i}", [float(d)] * k)
            for i, (d, k) in enumerate(zip(durations, needs))
        ]
        allot = Allotment({job: k for job, k in zip(jobs, needs)})
        heap = reference_list_schedule(jobs, allot, m)
        indexed, index_stats = _run(jobs, allot, m)
        _assert_identical(heap, indexed, (m, durations, needs))
        ends = heap.columns().end.tolist()
        multiplicity = {e: ends.count(e) for e in ends}
        ctx = (m, durations, needs)
        assert index_stats["events"] == len(jobs), ctx
        assert index_stats["epochs"] == len(multiplicity), ctx
        assert index_stats["max_epoch_completions"] == max(multiplicity.values()), ctx

    @given(
        st.integers(min_value=1, max_value=60),
        st.sampled_from([1, 2, 3, 8, 24, 48]),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_index_matches_heap_on_quantized_family(self, n, m, seed):
        """Index-vs-heap identical admission order on the tie-heavy
        ``quantized`` generator itself (exact duration ties → mass
        simultaneous-completion epochs → mass admissions exercising the
        batched gather/remove paths of the index)."""
        from repro.workloads.generators import random_quantized_instance

        instance = random_quantized_instance(n, m, seed=seed)
        rng = np.random.default_rng(seed)
        needs = [int(k) for k in rng.integers(1, m + 1, size=n)]
        allot = Allotment({job: k for job, k in zip(instance.jobs, needs)})
        heap = reference_list_schedule(instance.jobs, allot, m)
        indexed, index_stats = _run(instance.jobs, allot, m)
        _assert_identical(heap, indexed, (n, m, seed))
        assert index_stats["events"] == n, (n, m, seed)
        distinct_ends = len(set(heap.columns().end.tolist()))
        assert 1 <= index_stats["epochs"] <= distinct_ends, (n, m, seed)

    def test_index_visits_collapse_on_deep_queues(self):
        """The counters must *demonstrate* the index: on a deterministic
        1-wide chain (every epoch admits one of many unit-need waiters) the
        index touches each waiting job once overall, not once per epoch."""
        n = 200
        jobs, allot = _jobs_with_durations([float(3 + i) for i in range(n)])
        _, index_stats = _run(jobs, allot, 1)
        assert index_stats["epochs"] == n
        # every admission gathers exactly the one admissible candidate
        assert index_stats["candidate_scans"] == n
        assert index_stats["candidates_visited"] == n

    @pytest.mark.parametrize("m, head_need, overtaker_need", [(2, 2, 1), (3, 3, 2)])
    def test_index_visits_stay_linear_behind_a_blocked_head(
        self, m, head_need, overtaker_need
    ):
        """A long job holds one processor, so the wide head behind it stays
        blocked while ``n`` overtakers with distinct durations pass it one
        per epoch, each through an index query.  The index must touch O(n)
        entries in total, not re-walk the overtaken ones on every query
        (O(n^2)).  With ``overtaker_need = 2`` the queries hit the boundary
        bucket ``[2, 4)``, which also holds the never-started head, so its
        lazy head cannot advance and only compaction keeps the walks short."""
        n = 1000
        overtakers = [float(1 + i) for i in range(n)]
        durations = [sum(overtakers) + 1.0, 1.0] + overtakers
        needs = [1, head_need] + [overtaker_need] * n
        stats = _differential(m, durations, needs)
        # the long job and the head are the only admissions from the head
        head_admissions = 2
        index_queries = stats["candidate_scans"] - head_admissions
        index_visits = stats["candidates_visited"] - head_admissions
        # one query per overtaker, plus the fruitless one after the last
        assert index_queries == n + 1
        assert index_visits <= 24 * n, index_visits


def _differential(m, durations, needs, order=None):
    """Run the library and the heap reference on one instance; assert
    bit-identity and return the library's stats."""
    # a one-entry table holds its time at every count (huge m included)
    jobs = [TabulatedJob(f"d{i}", [float(d)]) for i, d in enumerate(durations)]
    allot = Allotment({job: k for job, k in zip(jobs, needs)})
    seq = None if order is None else [jobs[i] for i in order]
    heap = reference_list_schedule(jobs, allot, m, order=seq)
    indexed, stats = _run(jobs, allot, m, order=seq)
    _assert_identical(heap, indexed, (m, durations, needs, order))
    assert stats["events"] == len(jobs)
    return stats


@st.composite
def _head_blocked_case(draw):
    """Deep queues whose head is often wider than what one completion frees,
    so first fit must overtake it through the need-bucket index."""
    m = draw(st.sampled_from([4, 6, 8, 16, 33]))
    n = draw(st.integers(min_value=2, max_value=80))
    wide = st.integers(min_value=m // 2 + 1, max_value=m)
    narrow = st.integers(min_value=1, max_value=max(1, m // 4))
    needs = [draw(st.one_of(wide, narrow)) for _ in range(n)]
    # mostly distinct ends (single-completion epochs), a few exact ties
    durations = [draw(st.sampled_from([1.5, 2.0, 7.0])) if draw(st.booleans())
                 else float(3 + 2 * i) for i in range(n)]
    order = draw(st.permutations(range(n)))
    return m, durations, needs, order


@st.composite
def _mass_tie_case(draw):
    """A head wave of at least ``MASS_WAVE_MIN`` unit jobs ending within one
    epoch window (a mass start and a mass completion), followed by a
    shuffled mix of a second tie wave and distinct single completions."""
    m = draw(st.sampled_from([40, 64, 97]))
    wave = draw(st.integers(min_value=MASS_WAVE_MIN, max_value=m))
    rest = draw(st.integers(min_value=0, max_value=80))
    tie = draw(st.sampled_from([2.0, 16.0, 16.0 + ULP16]))
    # part of the wave ends exactly on the epoch window's far edge, so the
    # mass completion's sorted cut must keep events equal to the cut
    edge = tie + epoch_tolerance(tie)
    needs = [1] * wave
    durations = [draw(st.sampled_from([tie, tie, edge])) for _ in range(wave)]
    # no end of the rest lands next to the wave's: sums of 3.0 miss 2 and
    # 16, and every other end is past 20
    for i in range(rest):
        if draw(st.booleans()):
            needs.append(1)
            durations.append(3.0)
        else:
            needs.append(draw(st.integers(min_value=1, max_value=m // 3)))
            durations.append(20.0 + 0.25 * i)
    order = list(range(wave)) + [wave + i for i in draw(st.permutations(range(rest)))]
    return m, durations, needs, order


@st.composite
def _huge_m_case(draw):
    """Machine counts past every int64 bound with needs near ``m``, near
    ``m / 2`` and tiny, so wide jobs block and mass small epochs occur."""
    m = draw(st.sampled_from([2**62 + 1, 2**80, 2**100]))
    n = draw(st.integers(min_value=1, max_value=60))
    slack = st.integers(min_value=0, max_value=5)
    needs = []
    for _ in range(n):
        kind = draw(st.sampled_from(["full", "half", "tiny"]))
        if kind == "full":
            needs.append(m - draw(slack))
        elif kind == "half":
            needs.append(m // 2 - draw(slack))
        else:
            needs.append(1 + draw(slack))
    durations = [draw(st.sampled_from([1.0, 2.0, 3.0, 16.0, 16.0 + ULP16])) for _ in range(n)]
    return m, durations, needs


class TestLeanLoopDifferentials:
    @given(_head_blocked_case())
    @settings(max_examples=150, deadline=None)
    def test_head_blocked_deep_queues_overtake_through_the_index(self, case):
        m, durations, needs, order = case
        _differential(m, durations, needs, order)

    @given(_mass_tie_case())
    @settings(max_examples=60, deadline=None)
    def test_mass_tie_epochs_mixed_with_single_completions(self, case):
        m, durations, needs, order = case
        stats = _differential(m, durations, needs, order)
        # the head wave starts at t=0 and completes in one epoch
        assert stats["max_epoch_completions"] >= MASS_WAVE_MIN

    @given(_huge_m_case())
    @settings(max_examples=60, deadline=None)
    def test_astronomical_m_with_needs_near_m(self, case):
        m, durations, needs = case
        _differential(m, durations, needs)


class TestLazyNeedBucketIndex:
    @given(
        st.sampled_from([1, 3, 9]).flatmap(
            lambda bits: st.lists(
                st.integers(min_value=1, max_value=2**bits), min_size=1, max_size=120
            )
        ),
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=119), st.booleans()),
            max_size=120,
        ),
        st.integers(min_value=1, max_value=600),
        st.integers(min_value=1, max_value=130),
    )
    @settings(max_examples=200, deadline=None)
    def test_gather_equals_a_brute_force_scan_of_waiting_positions(
        self, needs, admissions, cap, limit
    ):
        """After any mix of head-style and overtaking admissions (flagged
        in the shared ``started`` bytearray, never deleted one by one),
        ``gather`` returns exactly the first ``limit`` waiting positions
        with ``need <= cap``, and ``min_need`` the smallest waiting need.
        Few buckets and many admissions make walks cross more than
        ``_MAX_HOLES`` started entries, so the compaction runs too; a second
        query checks what it left behind."""
        from repro.core.list_scheduling import _NeedBucketIndex

        n = len(needs)
        started = bytearray(n)
        index = _NeedBucketIndex(needs, started)
        for pos, query_first in admissions:
            if query_first:
                # interleave queries so lazy heads advance mid-sequence
                index.gather(cap, limit)
            started[pos % n] = 1
        waiting = [p for p in range(n) if not started[p]]
        for query_cap in (cap, cap // 2 + 1, cap):
            expected = [p for p in waiting if needs[p] <= query_cap][:limit]
            assert index.gather(query_cap, limit) == expected
        if waiting:
            assert index.min_need() == min(needs[p] for p in waiting)
