"""Every schedule consumer at three magnitudes of processor counts.

The compact encoding lets ``m`` grow far past int64, and each magnitude
stores a schedule's columns differently:

* ``int64`` — plain int64 columns, totals well inside the int64 range;
* ``wide_total`` — int64 columns (every count fits) whose processor
  *total* passes ``2**62`` (``m = 2**62``, four entries of ``2**61``);
* ``object`` — exact object-dtype columns (``m = 2**72``, spans of ``2**70``).

Each case pins the values every reader of a schedule returns, so a change
to how the columns are read cannot move any of them.
"""

from __future__ import annotations

import os
import sys

import pytest

from repro.analysis import analyze_schedule
from repro.core.certificates import extract_certificate
from repro.core.job import TabulatedJob
from repro.core.schedule import Schedule
from repro.core.validation import validate_schedule
from repro.io import schedule_from_dict, schedule_to_dict
from repro.simulator.engine import simulate_schedule
from repro.simulator.gantt import render_gantt, render_shelves

from reference_validation import reference_validate

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "simulator"))
from reference_sim import reference_simulate  # noqa: E402

HALF = 1 << 61  # m = 2**62 split in two
WIDE = 1 << 70  # span count of the object-dtype case


def int64_schedule():
    a = TabulatedJob("a", [8.0, 4.0, 3.0, 2.5])
    b = TabulatedJob("b", [6.0, 3.5])
    c = TabulatedJob("c", [2.0])
    schedule = Schedule(m=8)
    schedule.add(a, 0.0, [(0, 4)])
    schedule.add(b, 0.0, [(4, 1), (6, 1)])
    schedule.add(c, 2.5, [(0, 1)], duration_override=2.25)
    return schedule, [a, b, c]


def wide_total_schedule():
    jobs = [TabulatedJob(f"q{i}", [1.5]) for i in range(4)]
    schedule = Schedule(m=1 << 62)
    for i, job in enumerate(jobs):
        schedule.add(job, float(i), [((i % 2) * HALF, HALF)])
    return schedule, jobs


def object_schedule():
    jobs = [
        TabulatedJob("w0", [100.0]),
        TabulatedJob("w1", [100.0]),
        TabulatedJob("w2", [40.0]),
    ]
    schedule = Schedule(m=1 << 72)
    schedule.add(jobs[0], 0.0, [(0, WIDE)])
    schedule.add(jobs[1], 0.0, [(WIDE, WIDE), (3 * WIDE, WIDE)])
    schedule.add(jobs[2], 100.0, [(0, WIDE)], duration_override=60.0)
    return schedule, jobs


EXPECTED = {
    "int64": dict(
        build=int64_schedule,
        dtype="int64",
        d=2.0,
        makespan=4.75,
        total_work=19.25,
        peak=6,
        profile=[(0.0, 6), (2.5, 3), (3.5, 1), (4.75, 0)],
        spans=[[[0, 4]], [[4, 1], [6, 1]], [[0, 1]]],
        starts=[0.0, 0.0, 2.5],
        overrides=[None, None, 2.25],
        allotment=(4, 2, 1),
        order=(0, 1, 2),
        gantt=(
            "job            | 0 ···················· 4.75\n"
            "a             |████████████████| p=4\n"
            "b             |██████████████████████| p=2\n"
            "... (1 more jobs not shown)"
        ),
        shelves=(
            "  S0    jobs=2     processors=6",
            "  S1    jobs=0     processors=0",
            "  S2    jobs=0     processors=0",
            "  small jobs=1     processors=1",
        ),
        analysis=dict(
            sequential_work=16.0,
            utilization=0.506578947368421,
            work_inflation=1.203125,
            ratio_vs_lower_bound=1.3571428571428572,
            lower_bound=3.5,
            average_parallelism=4.052631578947368,
            max_stretch=2.375,
            mean_stretch=1.4583333333333333,
        ),
        per_job=[
            ("a", 4, 0.0, 2.5, 2.5, 1.25, 1.0, 0.8),
            ("b", 2, 0.0, 3.5, 3.5, 1.1666666666666667, 1.0, 0.8571428571428571),
            ("c", 1, 2.5, 4.75, 2.25, 1.125, 2.375, 1.0),
        ],
    ),
    "wide_total": dict(
        build=wide_total_schedule,
        dtype="int64",
        d=2.0,
        makespan=4.5,
        total_work=1.3835058055282164e19,
        peak=2 * HALF,
        profile=[
            (0.0, HALF),
            (1.0, 2 * HALF),
            (1.5, HALF),
            (2.0, 2 * HALF),
            (2.5, HALF),
            (3.0, 2 * HALF),
            (3.5, HALF),
            (4.5, 0),
        ],
        spans=[[[0, HALF]], [[HALF, HALF]], [[0, HALF]], [[HALF, HALF]]],
        starts=[0.0, 1.0, 2.0, 3.0],
        overrides=[None] * 4,
        allotment=(HALF,) * 4,
        order=(0, 1, 2, 3),
        gantt=(
            "job            | 0 ···················· 4.5\n"
            f"q0            |██████████| p={HALF}\n"
            f"q1            |       ██████████| p={HALF}\n"
            "... (2 more jobs not shown)"
        ),
        shelves=(
            "  S0    jobs=0     processors=0",
            f"  S1    jobs=1     processors={HALF}",
            "  S2    jobs=0     processors=0",
            f"  small jobs=3     processors={3 * HALF}",
        ),
        analysis=dict(
            sequential_work=6.0,
            utilization=0.6666666666666666,
            work_inflation=2.305843009213694e18,
            ratio_vs_lower_bound=3.0,
            lower_bound=1.5,
            average_parallelism=3.0744573456182584e18,
            max_stretch=3.0,
            mean_stretch=2.0,
        ),
        per_job=[
            (f"q{i}", HALF, float(i), i + 1.5, 1.5, 2.305843009213694e18, stretch,
             4.336808689942018e-19)
            for i, stretch in enumerate((1.0, 1.6666666666666667, 2.3333333333333335, 3.0))
        ],
    ),
    "object": dict(
        build=object_schedule,
        dtype="object",
        d=100.0,
        makespan=160.0,
        total_work=4.250129834582681e23,
        peak=3 * WIDE,
        profile=[(0.0, 3 * WIDE), (100.0, WIDE), (160.0, 0)],
        spans=[[[0, WIDE]], [[WIDE, WIDE], [3 * WIDE, WIDE]], [[0, WIDE]]],
        starts=[0.0, 0.0, 100.0],
        overrides=[None, None, 60.0],
        allotment=(WIDE, 2 * WIDE, WIDE),
        order=(0, 1, 2),
        gantt=(
            "job            | 0 ···················· 160\n"
            f"w1            |███████████████████| p={2 * WIDE}\n"
            f"w0            |███████████████████| p={WIDE}\n"
            "... (1 more jobs not shown)"
        ),
        shelves=(
            "  S0    jobs=0     processors=0",
            f"  S1    jobs=2     processors={3 * WIDE}",
            "  S2    jobs=0     processors=0",
            f"  small jobs=1     processors={WIDE}",
        ),
        analysis=dict(
            sequential_work=240.0,
            utilization=0.5625,
            work_inflation=1.770887431076117e21,
            ratio_vs_lower_bound=1.6,
            lower_bound=100.0,
            average_parallelism=2.6563311466141754e21,
            max_stretch=4.0,
            mean_stretch=2.0,
        ),
        per_job=[
            ("w0", WIDE, 0.0, 100.0, 100.0, 1.1805916207174113e21, 1.0, 8.470329472543003e-22),
            ("w1", 2 * WIDE, 0.0, 100.0, 100.0, 2.3611832414348226e21, 1.0, 4.235164736271502e-22),
            ("w2", WIDE, 100.0, 160.0, 60.0, 1.770887431076117e21, 4.0, 8.470329472543003e-22),
        ],
    ),
}


@pytest.fixture(params=sorted(EXPECTED))
def case(request):
    expected = EXPECTED[request.param]
    schedule, jobs = expected["build"]()
    return schedule, jobs, expected


def test_column_storage_matches_the_magnitude(case):
    schedule, _, expected = case
    assert schedule.columns().processors.dtype.name == expected["dtype"]


def test_schedule_aggregates(case):
    schedule, _, expected = case
    assert schedule.makespan == expected["makespan"]
    assert schedule.total_work == expected["total_work"]
    assert schedule.peak_processor_usage() == expected["peak"]


@pytest.mark.parametrize(
    "validate", [validate_schedule, reference_validate], ids=["library", "reference"]
)
def test_validate_schedule(case, validate):
    schedule, jobs, expected = case
    report = validate(schedule, jobs)
    assert report.ok and report.violations == []
    assert report.makespan == expected["makespan"]
    assert report.peak_processors == expected["peak"]


@pytest.mark.parametrize(
    "simulate", [simulate_schedule, reference_simulate], ids=["library", "reference"]
)
def test_simulate_schedule(case, simulate):
    schedule, _, expected = case
    trace = simulate(schedule)
    assert trace.makespan == expected["makespan"]
    assert trace.total_work == expected["total_work"]
    assert trace.utilization_profile == expected["profile"]
    assert trace.events == len(schedule)
    assert trace.peak_busy == expected["peak"]


def test_io_round_trip(case):
    schedule, jobs, expected = case
    data = schedule_to_dict(schedule)
    assert data["m"] == schedule.m
    assert [e["job"] for e in data["entries"]] == [job.name for job in jobs]
    assert [e["start"] for e in data["entries"]] == expected["starts"]
    assert [e["spans"] for e in data["entries"]] == expected["spans"]
    assert [e["duration_override"] for e in data["entries"]] == expected["overrides"]
    assert schedule_from_dict(data, jobs) == schedule


def test_extract_certificate(case):
    schedule, jobs, expected = case
    certificate = extract_certificate(schedule, jobs)
    assert certificate.allotment == expected["allotment"]
    assert certificate.order == expected["order"]


def test_render_gantt_and_shelves(case):
    schedule, _, expected = case
    gantt = render_gantt(schedule, width=30, max_rows=2)
    assert gantt == expected["gantt"]
    lines = render_shelves(schedule, expected["d"], width=30, max_rows=2).split("\n")
    assert tuple(lines[1:5]) == expected["shelves"]
    assert "\n".join(lines[6:]) == gantt


def test_analyze_schedule(case):
    schedule, jobs, expected = case
    metrics = analyze_schedule(schedule, jobs)
    assert metrics.makespan == expected["makespan"]
    assert metrics.total_work == expected["total_work"]
    assert metrics.peak_processors == expected["peak"]
    for name, value in expected["analysis"].items():
        assert getattr(metrics, name) == value, name
    assert [
        (
            job.name,
            job.processors,
            job.start,
            job.completion,
            job.duration,
            job.work_inflation,
            job.stretch,
            job.efficiency,
        )
        for job in metrics.per_job
    ] == expected["per_job"]
