"""``solve_mega`` validates its whole pack in one columnar pass.

A broken packed schedule must fail exactly as its solo solve fails: the
same :class:`~repro.core.validation.ValidationError` message, and with two
broken instances the first in slot order.  ``validate=False`` returns the
schedules unchecked, and a validated pack leaves every schedule with its
columns built and its durations resolved, as a solo solve does.
"""

from types import SimpleNamespace

import numpy as np
import pytest

import repro.core.two_approx as two_approx
import repro.perf.schedule_builder as schedule_builder
from repro import solve_mega
from repro.core.schedule import Schedule, ScheduledJob
from repro.core.scheduler import schedule_moldable
from repro.core.validation import ValidationError
from repro.workloads.generators import random_chain_instance, random_mixed_instance

M_CHAIN = 4
M_FPTAS = 1 << 12


def named(pack):
    """Prefix each instance's job names with its slot, so a breaker can pick
    one instance out by its first job's name."""
    for i, jobs in enumerate(pack):
        for job in jobs:
            job.name = f"i{i}-{job.name}"
    return pack


def chains(k):
    return named([random_chain_instance(5 + i, M_CHAIN, seed=i).jobs for i in range(k)])


def mixed(k):
    return named([random_mixed_instance(4, M_FPTAS, seed=s).jobs for s in range(k)])


def drop_last(schedule):
    clone = Schedule(m=schedule.m, metadata=dict(schedule.metadata))
    clone.extend(list(schedule.entries)[:-1])
    return clone


def stack_first_two(schedule):
    """The second entry moves onto the first one's start and machines."""
    entries = list(schedule.entries)
    first, second = entries[0], entries[1]
    entries[1] = ScheduledJob(second.job, first.start, first.spans, second.duration_override)
    clone = Schedule(m=schedule.m, metadata=dict(schedule.metadata))
    clone.extend(entries)
    return clone


def as_builder(schedule):
    """An unbuilt :class:`ArraySchedule` holding ``schedule``'s entries."""
    builder = schedule_builder.ArraySchedule(schedule.m, metadata=schedule.metadata)
    for entry in schedule.entries:
        builder.append(entry.job, entry.start, entry.spans, entry.duration_override)
    return builder


@pytest.fixture
def break_schedules(monkeypatch):
    """Break the schedules the drivers hand to their executor's build for
    chosen instances: each breaker is keyed by an instance's first job
    name."""
    breakers = {}

    def wrap(module, name):
        real = getattr(module, name)

        def broken(jobs, *args, **kwargs):
            builder = real(jobs, *args, **kwargs)
            breaker = breakers.get(jobs[0].name) if jobs else None
            return as_builder(breaker(builder.build())) if breaker else builder

        monkeypatch.setattr(module, name, broken)

    wrap(two_approx, "list_schedule_builder")
    wrap(schedule_builder, "builder_from_arrays")
    return breakers


def solo_error(jobs, m, algorithm):
    with pytest.raises(ValidationError) as info:
        schedule_moldable(jobs, m, algorithm=algorithm, backend="vectorized")
    return str(info.value)


class TestFailingPack:
    @pytest.mark.parametrize("breaker", [drop_last, stack_first_two])
    def test_two_approx_raises_the_solo_error(self, break_schedules, breaker):
        pack = chains(4)
        break_schedules[pack[2][0].name] = breaker
        expected = solo_error(pack[2], M_CHAIN, "two_approx")
        with pytest.raises(ValidationError) as info:
            solve_mega([(jobs, M_CHAIN) for jobs in pack], algorithm="two_approx")
        assert str(info.value) == expected

    def test_fptas_raises_the_solo_error(self, break_schedules):
        pack = mixed(3)
        break_schedules[pack[1][0].name] = drop_last
        expected = solo_error(pack[1], M_FPTAS, "fptas")
        with pytest.raises(ValidationError) as info:
            solve_mega([(jobs, M_FPTAS) for jobs in pack], algorithm="fptas")
        assert str(info.value) == expected
        assert "missing from the schedule" in expected

    def test_the_first_failure_in_slot_order_is_raised(self, break_schedules):
        pack = chains(4)
        break_schedules[pack[1][0].name] = drop_last
        break_schedules[pack[3][0].name] = stack_first_two
        expected = solo_error(pack[1], M_CHAIN, "two_approx")
        with pytest.raises(ValidationError) as info:
            solve_mega([(jobs, M_CHAIN) for jobs in pack], algorithm="two_approx")
        assert str(info.value) == expected

    def test_unvalidated_pack_returns_the_broken_schedule(self, break_schedules):
        pack = chains(3)
        break_schedules[pack[0][0].name] = drop_last
        results = solve_mega([(jobs, M_CHAIN) for jobs in pack], algorithm="two_approx", validate=False)
        assert [len(r.schedule) for r in results] == [len(pack[0]) - 1, len(pack[1]), len(pack[2])]


class TestValidatedPackState:
    @staticmethod
    def pack():
        return [SimpleNamespace(jobs=jobs, m=M_CHAIN, eps=0.1, algorithm="two_approx") for jobs in chains(3)] + [
            SimpleNamespace(jobs=jobs, m=M_FPTAS, eps=0.1, algorithm="fptas") for jobs in mixed(3)
        ]

    def test_columns_are_built_and_durations_resolved(self):
        for result in solve_mega(self.pack()):
            cols = result.schedule._cols
            assert cols is not None and cols._duration is not None
            assert not np.isnan(cols._duration).any()

    def test_resolved_durations_equal_the_solo_ones(self):
        mega = solve_mega(self.pack())
        for item, result in zip(self.pack(), mega):
            solo = schedule_moldable(item.jobs, item.m, item.eps, algorithm=item.algorithm, backend="vectorized")
            assert solo.schedule.columns().duration.tolist() == result.schedule.columns().duration.tolist()
