"""Tests for instance/schedule serialisation."""

import json

import pytest

from repro.core.job import AmdahlJob, CommunicationJob, OracleJob, PowerLawJob, RigidJob, TabulatedJob
from repro.core.scheduler import schedule_moldable
from repro.hardness.reduction import ReductionJob
from repro.io import (
    SerializationError,
    instance_from_dict,
    instance_to_dict,
    job_from_dict,
    job_to_dict,
    load_instance,
    load_schedule,
    save_instance,
    save_schedule,
    schedule_from_dict,
    schedule_to_dict,
)
from repro.workloads.generators import random_mixed_instance

ALL_JOB_EXAMPLES = [
    TabulatedJob("tab", [10.0, 6.0, 4.0]),
    AmdahlJob("amd", 20.0, 0.15),
    PowerLawJob("pow", 30.0, 0.7),
    CommunicationJob("com", 40.0, 0.01),
    RigidJob("rig", 5.0, 3),
    ReductionJob(2, 7, 4),
]


class TestJobSerialization:
    @pytest.mark.parametrize("job", ALL_JOB_EXAMPLES, ids=lambda j: type(j).__name__)
    def test_round_trip_preserves_processing_times(self, job):
        clone = job_from_dict(job_to_dict(job))
        for k in (1, 2, 3, 5, 8):
            assert clone.processing_time(k) == pytest.approx(job.processing_time(k))

    def test_oracle_jobs_rejected(self):
        job = OracleJob("o", lambda k: 1.0 / k)
        with pytest.raises(SerializationError):
            job_to_dict(job)

    def test_unknown_kind_rejected(self):
        with pytest.raises(SerializationError):
            job_from_dict({"kind": "quantum", "name": "x"})

    def test_dict_is_json_serialisable(self):
        for job in ALL_JOB_EXAMPLES:
            json.dumps(job_to_dict(job))


class TestInstanceSerialization:
    def test_round_trip(self, tmp_path):
        jobs = ALL_JOB_EXAMPLES[:4]
        path = tmp_path / "instance.json"
        save_instance(path, jobs, 64, metadata={"source": "unit-test"})
        loaded_jobs, m, metadata = load_instance(path)
        assert m == 64
        assert metadata == {"source": "unit-test"}
        assert [j.name for j in loaded_jobs] == [j.name for j in jobs]

    def test_version_check(self):
        data = instance_to_dict([ALL_JOB_EXAMPLES[0]], 4)
        data["version"] = 99
        with pytest.raises(SerializationError):
            instance_from_dict(data)

    def test_format_check(self):
        with pytest.raises(SerializationError):
            instance_from_dict({"format": "something-else", "version": 1, "m": 1, "jobs": []})


class TestScheduleSerialization:
    def test_round_trip(self, tmp_path):
        instance = random_mixed_instance(15, 16, seed=1)
        result = schedule_moldable(instance.jobs, 16, 0.25, algorithm="bounded")
        path = tmp_path / "schedule.json"
        save_schedule(path, result.schedule)
        loaded = load_schedule(path, instance.jobs)
        assert loaded.makespan == pytest.approx(result.makespan)
        assert len(loaded) == len(result.schedule)
        assert loaded.m == 16

    def test_round_trip_preserves_spans(self):
        instance = random_mixed_instance(10, 8, seed=2)
        result = schedule_moldable(instance.jobs, 8, 0.3, algorithm="mrt")
        data = schedule_to_dict(result.schedule)
        loaded = schedule_from_dict(data, instance.jobs)
        original_spans = sorted((e.job.name, e.spans) for e in result.schedule.entries)
        loaded_spans = sorted((e.job.name, e.spans) for e in loaded.entries)
        assert original_spans == loaded_spans

    def test_unknown_job_rejected(self):
        instance = random_mixed_instance(5, 4, seed=3)
        result = schedule_moldable(instance.jobs, 4, 0.3, algorithm="two_approx")
        data = schedule_to_dict(result.schedule)
        # an instance whose job *names* differ: placements cannot be re-attached
        from repro.workloads.generators import random_amdahl_instance

        other = random_amdahl_instance(5, 4, seed=4)
        with pytest.raises(SerializationError):
            schedule_from_dict(data, other.jobs)

    def test_duplicate_job_names_rejected(self):
        a = TabulatedJob("same", [1.0])
        b = TabulatedJob("same", [2.0])
        data = {"format": "repro-schedule", "version": 1, "m": 2, "entries": []}
        with pytest.raises(SerializationError):
            schedule_from_dict(data, [a, b])

    @pytest.mark.parametrize(
        "key,token",
        [
            ("start", "NaN"),
            ("start", "Infinity"),
            ("start", "1e400"),  # parses as inf
            ("start", "1" + "0" * 400),  # an int beyond the float range
            ("duration_override", "NaN"),
            ("duration_override", "-Infinity"),
            ("start", '"1.0"'),  # a string is not a time
        ],
        ids=[
            "start-nan", "start-inf", "start-1e400", "start-10**400",
            "override-nan", "override-inf", "start-string",
        ],
    )
    def test_non_finite_times_rejected_on_load(self, tmp_path, key, token):
        """A hand-edited file can carry non-finite times that ``save_schedule``
        never writes; loading rejects them instead of building a schedule
        whose NaN start passes every overlap check."""
        a = TabulatedJob("a", [2.0])
        b = TabulatedJob("b", [1.0])
        result = schedule_moldable([a, b], 1, 0.3, algorithm="two_approx")
        path = tmp_path / "schedule.json"
        save_schedule(path, result.schedule)
        data = json.loads(path.read_text())
        assert load_schedule(path, [a, b]) == result.schedule
        data["entries"][0][key] = "TOKEN"
        path.write_text(json.dumps(data).replace('"TOKEN"', token))
        field = {"start": "start time", "duration_override": "duration override"}[key]
        with pytest.raises(ValueError, match=f"{field} must be a finite float"):
            load_schedule(path, [a, b], validate=False)

    def test_corrupted_schedule_fails_validation(self):
        instance = random_mixed_instance(8, 8, seed=5)
        result = schedule_moldable(instance.jobs, 8, 0.3, algorithm="two_approx")
        data = schedule_to_dict(result.schedule)
        # corrupt: force two entries onto the same machine at the same time
        if len(data["entries"]) >= 2:
            data["entries"][1]["spans"] = data["entries"][0]["spans"]
            data["entries"][1]["start"] = data["entries"][0]["start"]
            from repro.core.validation import ValidationError

            with pytest.raises(ValidationError):
                schedule_from_dict(data, instance.jobs, validate=True)
            # but loading without validation still works for forensics
            loaded = schedule_from_dict(data, instance.jobs, validate=False)
            assert len(loaded) == len(result.schedule)


class TestFaultPlanIO:
    """io-level fault plan persistence (the header-wrapped variant of
    ``FaultPlan.to_dict``)."""

    def _plan(self):
        from repro.resilience.faults import FaultPlan, JobKill, MachineFailure

        return FaultPlan(
            m=16,
            failures=(
                MachineFailure(time=5.0, first=0, count=3),  # permanent
                MachineFailure(time=2.5, first=8, count=2, repair_time=4.0),
            ),
            kills=(JobKill(time=3.0, job="job-7"),),
        )

    def test_header_and_payload(self):
        from repro.io import fault_plan_to_dict

        data = fault_plan_to_dict(self._plan())
        assert data["format"] == "repro-fault-plan"
        assert data["version"] == 1
        assert len(data["failures"]) == 2 and len(data["kills"]) == 1

    def test_round_trip_equality(self):
        from repro.io import fault_plan_from_dict, fault_plan_to_dict

        plan = self._plan()
        assert fault_plan_from_dict(fault_plan_to_dict(plan)) == plan

    def test_save_load_file(self, tmp_path):
        from repro.io import load_fault_plan, save_fault_plan

        plan = self._plan()
        path = tmp_path / "plan.json"
        save_fault_plan(path, plan)
        assert load_fault_plan(path) == plan

    def test_wrong_format_rejected(self):
        from repro.io import fault_plan_from_dict

        with pytest.raises(SerializationError):
            fault_plan_from_dict({"format": "repro-instance", "version": 1, "m": 4})

    def test_property_round_trip(self):
        """Property: any mix of permanent failures, transient failures and
        job kills survives dict round-trip exactly (repr-exact floats)."""
        from hypothesis import given, settings, strategies as st

        from repro.io import fault_plan_from_dict, fault_plan_to_dict
        from repro.resilience.faults import FaultPlan, JobKill, MachineFailure

        times = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)

        @st.composite
        def fault_plans(draw):
            m = draw(st.integers(min_value=2, max_value=64))
            failures = []
            for _ in range(draw(st.integers(min_value=0, max_value=5))):
                first = draw(st.integers(min_value=0, max_value=m - 1))
                count = draw(st.integers(min_value=1, max_value=m - first))
                repair = draw(
                    st.one_of(st.none(), st.floats(min_value=0.5, max_value=1e4))
                )
                failures.append(
                    MachineFailure(
                        time=draw(times), first=first, count=count, repair_time=repair
                    )
                )
            kills = [
                JobKill(time=draw(times), job=f"job-{draw(st.integers(0, 99))}")
                for _ in range(draw(st.integers(min_value=0, max_value=4)))
            ]
            return FaultPlan(m=m, failures=tuple(failures), kills=tuple(kills))

        @given(fault_plans())
        @settings(max_examples=80, deadline=None)
        def check(plan):
            clone = fault_plan_from_dict(fault_plan_to_dict(plan))
            assert clone == plan
            # and through actual JSON text, where floats must repr-round-trip
            rehydrated = fault_plan_from_dict(
                json.loads(json.dumps(fault_plan_to_dict(plan)))
            )
            assert rehydrated == plan

        check()


class TestFleetReportIO:
    def test_save_load_round_trip(self, tmp_path):
        from repro.io import load_fleet_report, save_fleet_report
        from repro.serve import FleetInstance, ServePolicy, schedule_many

        instance = random_mixed_instance(8, 16, seed=9)
        fleet = [
            FleetInstance(name="io-0", jobs=instance.jobs, m=16, algorithm="two_approx")
        ]
        report = schedule_many(
            fleet,
            policy=ServePolicy(timeout=60.0, backoff_base=0.0),
            max_workers=1,
            mp_context="fork",
        )
        path = tmp_path / "report.json"
        save_fleet_report(path, report)
        loaded = load_fleet_report(path)
        assert loaded.comparable_dict() == report.comparable_dict()
        # schedules survive as data and re-attach to the original jobs
        outcome = loaded.outcome("io-0")
        schedule = outcome.schedule(instance.jobs, validate=True)
        assert schedule.makespan == outcome.makespan

    def test_wrong_format_rejected(self):
        from repro.io import fleet_report_from_dict

        with pytest.raises(SerializationError):
            fleet_report_from_dict({"format": "repro-schedule", "version": 1})


class TestInstanceReleasesIO:
    """Release-carrying instances round-trip at format version 2; plain
    instances stay at version 1 so older readers keep loading them."""

    def test_plain_instances_stay_version_1(self):
        data = instance_to_dict(ALL_JOB_EXAMPLES[:2], 8)
        assert data["version"] == 1
        assert "releases" not in data

    def test_releases_bump_the_version(self):
        data = instance_to_dict(ALL_JOB_EXAMPLES[:2], 8, releases=[0.0, 3.5])
        assert data["version"] == 2
        assert data["releases"] == [0.0, 3.5]
        json.dumps(data)

    def test_round_trip_preserves_releases(self, tmp_path):
        jobs = ALL_JOB_EXAMPLES[:4]
        releases = [0.0, 1.25, 1.25, 9.75]
        path = tmp_path / "online.json"
        save_instance(path, jobs, 32, metadata={"kind": "arrivals"}, releases=releases)
        loaded_jobs, m, metadata, loaded_releases = load_instance(path, with_releases=True)
        assert m == 32
        assert metadata == {"kind": "arrivals"}
        assert [j.name for j in loaded_jobs] == [j.name for j in jobs]
        assert loaded_releases == releases

    def test_default_return_stays_a_triple(self, tmp_path):
        path = tmp_path / "online.json"
        save_instance(path, ALL_JOB_EXAMPLES[:2], 8, releases=[0.0, 1.0])
        loaded_jobs, m, metadata = load_instance(path)
        assert m == 8 and len(loaded_jobs) == 2

    def test_version_1_documents_report_no_releases(self):
        data = instance_to_dict(ALL_JOB_EXAMPLES[:2], 8)
        jobs, m, metadata, releases = instance_from_dict(data, with_releases=True)
        assert releases is None

    def test_mismatched_release_count_rejected(self):
        with pytest.raises(SerializationError, match="releases"):
            instance_to_dict(ALL_JOB_EXAMPLES[:2], 8, releases=[0.0])
        data = instance_to_dict(ALL_JOB_EXAMPLES[:2], 8, releases=[0.0, 1.0])
        data["releases"] = [0.0]
        with pytest.raises(SerializationError, match="releases"):
            instance_from_dict(data)

    def test_hypothesis_release_round_trip(self):
        from hypothesis import given, settings, strategies as st

        finite_release = st.floats(
            min_value=0.0, max_value=1e12, allow_nan=False, allow_infinity=False
        )

        @given(st.lists(finite_release, min_size=0, max_size=12))
        @settings(max_examples=60, deadline=None)
        def round_trip(releases):
            jobs = [AmdahlJob(f"j{i}", 10.0 + i, 0.1) for i in range(len(releases))]
            data = json.loads(json.dumps(instance_to_dict(jobs, 16, releases=releases)))
            loaded_jobs, m, _, loaded = instance_from_dict(data, with_releases=True)
            assert m == 16
            assert len(loaded_jobs) == len(jobs)
            assert loaded == ([] if not releases else releases)
            expected_version = 2
            assert data["version"] == expected_version

        round_trip()
