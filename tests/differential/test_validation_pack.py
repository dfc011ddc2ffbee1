"""The validator's pack verdict and its reported peak, on differential
instances and on broken copies of their schedules.

:func:`repro.core.validation.flag_schedules` checks many schedules in one
columnar pass (the mega batch validates its whole pack with it); a pack of
one is what :func:`~repro.core.validation.validate_schedule` runs.  Packing
must change no verdict: each member's flag equals its flag alone, and an
unflagged member always validates clean.  The peak ``validate_schedule``
reports is counted under the verdict's float tolerance, so a clean report
never shows more busy processors than ``m``.
"""

import json
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.schedule import Schedule
from repro.core.scheduler import schedule_moldable
from repro.core.validation import flag_schedules, job_positions, validate_schedule

from .harness import FAMILIES, build_instance, effective_m, load_corpus, run_driver

# the harness puts tests/core on the path
from schedule_mutations import MUTATIONS  # noqa: E402

#: the single-solve corpus cases (the faulty, online and mega families run
#: whole loops, not one driver)
SOLVE_CASES = [
    case
    for case in (json.loads(path.read_text()) for path in load_corpus())
    if case["family"] not in ("faulty", "online", "mega")
]

#: families whose instances a driver solves directly
SOLVE_FAMILIES = sorted(set(FAMILIES) - {"faulty", "online", "mega", "huge_m"})

@lru_cache(maxsize=None)
def solved(family: str, n: int, m: int, seed: int):
    """A two_approx schedule of a differential-family instance (cached: the
    checks only read the schedule, and mutations rebuild copies)."""
    jobs = FAMILIES[family](n, m, seed=seed).jobs
    return schedule_moldable(jobs, m, algorithm="two_approx").schedule, jobs


@lru_cache(maxsize=None)
def huge_member():
    """A schedule on ``m = 2^62 + 1`` machines: int64 columns whose machine
    indices, summed over a pack, would pass int64."""
    case = {"driver": "two_approx", "family": "huge_m", "n": 4, "m": 5, "eps": 0.25, "seed": 3}
    assert effective_m(case) == (1 << 62) + 1
    jobs = build_instance(case).jobs
    return run_driver(case, "scalar", jobs), jobs


def verdict(schedules, instances):
    """Per schedule, whether any columnar check flags it against its
    instance (``None``: no completeness check)."""
    positions = [
        None if jobs is None else job_positions(s.jobs(), {id(j): i for i, j in enumerate(jobs)})
        for s, jobs in zip(schedules, instances)
    ]
    sizes = [0 if jobs is None else len(jobs) for jobs in instances]
    return flag_schedules(schedules, positions, sizes).any()


def mutated(schedule, jobs, name):
    if name is None:
        return schedule, jobs
    out = MUTATIONS[name](schedule, jobs)
    return (schedule, jobs) if out is None else out


@st.composite
def members(draw):
    family = draw(st.sampled_from(SOLVE_FAMILIES))
    n = draw(st.integers(min_value=1, max_value=10))
    m = draw(st.sampled_from([1, 2, 8, 24, 64]))
    seed = draw(st.integers(min_value=0, max_value=50))
    mutation = draw(st.one_of(st.none(), st.sampled_from(sorted(MUTATIONS))))
    return family, n, m, seed, mutation


class TestPackVerdict:
    @given(
        st.lists(members(), min_size=1, max_size=8),
        st.one_of(st.none(), st.sampled_from(sorted(MUTATIONS))),
        st.data(),
    )
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_pack_verdict_equals_separate_verdicts(self, drawn, huge_mutation, data):
        pack = [mutated(*solved(*member[:4]), member[4]) for member in drawn]
        slot = data.draw(st.integers(min_value=0, max_value=len(pack)))
        pack.insert(slot, mutated(*huge_member(), huge_mutation))
        schedules = [s for s, _ in pack]
        jobs = [j for _, j in pack]

        flags = verdict(schedules, jobs).tolist()
        assert flags == [verdict([s], [j])[0] for s, j in pack]
        reports = [validate_schedule(s, j) for s, j in pack]
        for flag, report in zip(flags, reports):
            assert flag or report.ok, report.violations

    def test_every_check_flags_in_a_pack(self):
        clean = [solved("mixed", 6, 8, seed) for seed in range(4)]
        for name in ("overlap", "span_past_m", "processors_past_m", "missing_job",
                     "duplicate_job", "foreign_job", "understated_override"):
            broken = MUTATIONS[name](*clean[2])
            pack = clean[:2] + [broken] + clean[3:]
            flags = verdict([s for s, _ in pack], [j for _, j in pack])
            assert flags.tolist() == [False, False, True, False], name
            assert not validate_schedule(*broken).ok, name

    def test_bounds_compare_each_member_with_its_own_m(self):
        job = FAMILIES["mixed"](1, 4, seed=0).jobs[0]
        narrow = Schedule(m=2)
        narrow.add(job, 0.0, [(1, 2)])  # machine 2 does not exist on m=2
        wide = Schedule(m=4)
        wide.add(job, 0.0, [(1, 2)])
        huge, huge_jobs = huge_member()
        flags = verdict([huge, narrow, wide], [huge_jobs, [job], [job]])
        assert flags.tolist() == [False, True, False]

    def test_a_touch_within_tolerance_is_flagged_but_valid(self):
        schedule, jobs = MUTATIONS["sub_tolerance_touch"](*solved("mixed", 2, 1, 1))
        assert verdict([schedule], [jobs]).tolist() == [True]
        assert validate_schedule(schedule, jobs).ok

    def test_members_without_an_instance_skip_completeness(self):
        schedule, jobs = MUTATIONS["missing_job"](*solved("chain", 5, 2, 0))
        empty = Schedule(m=3)
        assert verdict([schedule, empty], [None, None]).tolist() == [False, False]
        assert verdict([schedule, empty], [jobs, []]).tolist() == [True, False]


class TestReportedPeakWithinM:
    """``ok`` implies ``peak_processors <= m``."""

    @pytest.mark.parametrize("mutation", [None] + sorted(MUTATIONS))
    @pytest.mark.parametrize("case", SOLVE_CASES, ids=lambda c: f"{c['driver']}-{c['family']}-{c['seed']}")
    def test_corpus_and_mutations(self, case, mutation):
        jobs = build_instance(case).jobs
        schedule, jobs = mutated(run_driver(case, "vectorized", jobs), jobs, mutation)
        report = validate_schedule(schedule, jobs)
        assert not report.ok or report.peak_processors <= schedule.m

    @given(members())
    @settings(max_examples=80, deadline=None)
    def test_family_mutations(self, member):
        schedule, jobs = mutated(*solved(*member[:4]), member[4])
        report = validate_schedule(schedule, jobs)
        assert not report.ok or report.peak_processors <= schedule.m
