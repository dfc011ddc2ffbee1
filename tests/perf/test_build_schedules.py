"""``build_schedules``: a pack of builders built in one columnar pass.

Its contract is identity with building every builder alone: the same
column dtypes, shapes and bytes, the same job list and metadata, and on a
bad pack the first bad builder's solo ``ValueError``.  Each schedule owns
its arrays: writing into one never shows in another.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.allotment import Allotment
from repro.core.job import AmdahlJob
from repro.core.list_scheduling import list_schedule_builder
from repro.perf.schedule_builder import ArraySchedule, build_schedules, builder_from_arrays
from repro.workloads.generators import random_chain_instance, random_mixed_instance

FIELDS = ("start", "procs", "duration", "has_override", "span_off", "span_first", "span_count")

#: machine counts within int64, and past it
MS = [1, 4, 64, 1 << 20, (1 << 62) + 1]
WIDE_MS = [(1 << 63) + 5, 1 << 80]


def make_job(tag, i):
    return AmdahlJob(f"{tag}-{i}", 10.0 + i, 0.1)


@st.composite
def rows(draw, m):
    """One row's start and spans: disjoint, possibly exactly adjacent, in
    any order, inside ``[0, m)``."""
    start = draw(st.one_of(st.floats(min_value=0.0, max_value=1e6), st.integers(min_value=0, max_value=1000)))
    cuts = sorted(draw(st.lists(st.integers(min_value=0, max_value=min(m, 1 << 70)), min_size=2, max_size=5, unique=True)))
    pieces = list(zip(cuts, cuts[1:]))
    keep = draw(st.lists(st.booleans(), min_size=len(pieces), max_size=len(pieces)))
    spans = [(a, b - a) for (a, b), k in zip(pieces, keep) if k] or [(cuts[0], cuts[1] - cuts[0])]
    return start, draw(st.permutations(spans))


@st.composite
def builders(draw, tag, wild):
    """A builder of up to five rows; a ``wild`` one may be past int64 or
    carry duration overrides, which send a pack down the solo path."""
    m = draw(st.sampled_from(MS + WIDE_MS if wild else MS))
    metadata = draw(st.one_of(st.none(), st.just({"algorithm": tag, "d": 1.5})))
    builder = ArraySchedule(m, metadata=metadata)
    for i in range(draw(st.integers(min_value=0, max_value=5))):
        start, spans = draw(rows(m))
        override = draw(st.one_of(st.none(), st.floats(min_value=0.5, max_value=9.0))) if wild else None
        builder.append(make_job(tag, i), start, spans, override)
    return builder


def break_builder(builder, how):
    """Make ``builder`` fail its solo build in one of the ways the pack flags
    (a builder with no row gets one first)."""
    if not len(builder):
        builder.append(make_job("bad", 0), 0.0, [(0, 1)])
    jobs, starts, overrides, owner, first, count = builder.raw_columns()
    if how == "count":
        count[0] = 0
    elif how == "first":
        first[0] = -1
    elif how == "overlap":
        owner.append(owner[0])
        first.append(first[0])
        count.append(1)
    elif how == "nan":
        starts[0] = math.nan
    elif how == "negative":
        starts[0] = -1.0
    elif how == "string":
        starts[0] = "0.0"
    elif how == "no_span":
        jobs.append(make_job("bad", 1))
        starts.append(0.0)
        overrides.append(None)
    elif how == "override":
        overrides[0] = math.inf
        builder.mark_any_override()
    elif how == "huge":
        first[0] = 1 << 64
    elif how == "wrap":  # the span's end passes int64
        first[0] = (1 << 63) - 1
    elif how == "owner":  # a raw-column writer's span past the last row
        owner.append(len(jobs))
        first.append(1 << 40)
        count.append(1)
    return builder


#: the ways :func:`break_builder` breaks a builder
BREAKS = ["count", "first", "overlap", "nan", "negative", "string", "no_span", "override", "huge", "wrap", "owner"]


def solo(builders):
    """Each builder built alone, in order: the schedules, or the first error."""
    out = []
    for builder in builders:
        try:
            out.append(builder.build())
        except ValueError as error:
            return error
    return out


def assert_same(got, expected):
    assert got.m == expected.m and got.metadata == expected.metadata
    assert got._jobs == expected._jobs and got._jobs is not expected._jobs
    if expected._block is None:
        assert got._block is None
        return
    assert got._block.n == expected._block.n
    for field in FIELDS:
        a, b = getattr(got._block, field), getattr(expected._block, field)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), field
        if a.dtype == object:
            assert a.tolist() == b.tolist(), field
        else:
            assert a.tobytes() == b.tobytes(), field


def assert_pack_matches_solo(pack):
    """``build_schedules(pack)`` equals building each builder alone: the
    same schedules, or the same first error."""
    expected = solo(pack)
    if isinstance(expected, ValueError):
        with pytest.raises(ValueError) as info:
            build_schedules(pack)
        assert str(info.value) == str(expected)
        return
    got = build_schedules(pack)
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert_same(a, b)


class TestPackEqualsSoloBuilds:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_every_schedule_equals_its_solo_build(self, data):
        wild = data.draw(st.integers(min_value=0, max_value=3)) == 0
        size = data.draw(st.integers(min_value=0, max_value=6))
        pack = [data.draw(builders(f"b{i}", wild)) for i in range(size)]
        if pack and data.draw(st.booleans()):
            break_builder(pack[len(pack) // 2], data.draw(st.sampled_from(BREAKS)))
        assert_pack_matches_solo(pack)

    @pytest.mark.parametrize("how", BREAKS)
    def test_a_bad_builder_in_the_middle_fails_as_alone(self, how):
        pack = [_chain_builder(seed) for seed in range(5)]
        break_builder(pack[2], how)
        break_builder(pack[4], "negative")
        assert_pack_matches_solo(pack)


def _chain_builder(seed):
    jobs = random_chain_instance(12, 4, seed=seed).jobs
    allotment = Allotment({job: 1 + i % 4 for i, job in enumerate(jobs)})
    return list_schedule_builder(jobs, allotment, 4)


def _fptas_builder(seed):
    jobs = random_mixed_instance(6, 1 << 20, seed=seed).jobs
    counts = np.arange(1, 7, dtype=np.int64) * 1000
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
    return builder_from_arrays(jobs, 1 << 20, np.arange(6), np.zeros(6), offsets, counts, metadata={"d": 1.0})


class TestEachScheduleOwnsItsArrays:
    def pack(self):
        return [_chain_builder(s) for s in range(4)] + [_fptas_builder(s) for s in range(4)]

    def test_a_clean_pack_builds_in_one_pass(self, monkeypatch):
        """No builder of a clean pack builds alone."""
        pack = self.pack()
        expected = [builder.build() for builder in pack]

        def refuse(self):
            raise AssertionError("a clean pack built a builder alone")

        monkeypatch.setattr(ArraySchedule, "build", refuse)
        for got, solo_schedule in zip(build_schedules(pack), expected):
            assert_same(got, solo_schedule)

    def test_schedules_share_no_writable_arrays(self):
        schedules = build_schedules(self.pack())
        blocks = [s._block for s in schedules]
        for a, b in itertools.combinations(blocks, 2):
            for fa, fb in itertools.product(FIELDS, FIELDS):
                x, y = getattr(a, fa), getattr(b, fb)
                assert not (x.flags.writeable and y.flags.writeable and np.shares_memory(x, y)), (fa, fb)

    def test_writing_into_one_schedule_leaves_the_others_alone(self):
        schedules = build_schedules(self.pack())
        before = [[getattr(s._block, f).tobytes() for f in FIELDS] for s in schedules]
        for field in FIELDS:
            column = getattr(schedules[3]._block, field)
            column[:] = column.dtype.type(1)
        for i, s in enumerate(schedules):
            if i != 3:
                assert [getattr(s._block, f).tobytes() for f in FIELDS] == before[i]
