"""Serialisation of instances and schedules (JSON).

A production scheduler needs to persist workloads and schedules; this module
provides a stable JSON format for both.

* **Instances** — every analytic job family of :mod:`repro.core.job` plus the
  hardness-reduction jobs can be round-tripped (oracle jobs with arbitrary
  Python callables cannot, by design: a closure is not data).
* **Schedules** — placements are stored as ``(job name, start, spans)``;
  loading a schedule requires the corresponding instance so that placements
  can be re-attached to job objects and re-validated.

The format is versioned; loaders reject unknown versions instead of guessing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Union

from .core.job import (
    AmdahlJob,
    CommunicationJob,
    MoldableJob,
    PowerLawJob,
    RigidJob,
    TabulatedJob,
)
from .core.schedule import Schedule
from .core.validation import assert_valid_schedule
from .hardness.reduction import ReductionJob

__all__ = [
    "FORMAT_VERSION",
    "INSTANCE_RELEASES_VERSION",
    "SerializationError",
    "job_to_dict",
    "job_from_dict",
    "instance_to_dict",
    "instance_from_dict",
    "save_instance",
    "load_instance",
    "schedule_to_dict",
    "schedule_from_dict",
    "save_schedule",
    "load_schedule",
    "fault_plan_to_dict",
    "fault_plan_from_dict",
    "save_fault_plan",
    "load_fault_plan",
    "fleet_report_to_dict",
    "fleet_report_from_dict",
    "save_fleet_report",
    "load_fleet_report",
]

FORMAT_VERSION = 1
#: Instance documents carrying release times are written at this version;
#: plain instances keep :data:`FORMAT_VERSION` so older readers still load
#: every file that doesn't use the new field.
INSTANCE_RELEASES_VERSION = 2
#: Versions each format's loader accepts (default: the base version only).
SUPPORTED_VERSIONS = {"repro-instance": (FORMAT_VERSION, INSTANCE_RELEASES_VERSION)}

PathLike = Union[str, Path]


class SerializationError(ValueError):
    """Raised when an object cannot be (de)serialised."""


# --------------------------------------------------------------------------
# Jobs
# --------------------------------------------------------------------------

def job_to_dict(job: MoldableJob) -> Dict[str, Any]:
    """Serialise a job to a plain dict."""
    if isinstance(job, TabulatedJob):
        return {"kind": "tabulated", "name": job.name, "times": list(job.times)}
    if isinstance(job, AmdahlJob):
        return {"kind": "amdahl", "name": job.name, "t1": job.t1, "serial_fraction": job.serial_fraction}
    if isinstance(job, PowerLawJob):
        return {"kind": "power_law", "name": job.name, "t1": job.t1, "alpha": job.alpha}
    if isinstance(job, CommunicationJob):
        return {"kind": "communication", "name": job.name, "t1": job.t1, "overhead": job.overhead}
    if isinstance(job, RigidJob):
        return {
            "kind": "rigid",
            "name": job.name,
            "duration": job.duration,
            "size": job.size,
            "penalty": job.penalty,
        }
    if isinstance(job, ReductionJob):
        return {"kind": "reduction", "name": job.name, "index": job.index, "a": job.a, "m": job.m_machines}
    raise SerializationError(
        f"job {job.name!r} of type {type(job).__name__} cannot be serialised "
        "(oracle jobs with arbitrary callables are not data)"
    )


def job_from_dict(data: Dict[str, Any]) -> MoldableJob:
    """Rebuild a job from :func:`job_to_dict` output."""
    kind = data.get("kind")
    if kind == "tabulated":
        return TabulatedJob(data["name"], data["times"])
    if kind == "amdahl":
        return AmdahlJob(data["name"], data["t1"], data["serial_fraction"])
    if kind == "power_law":
        return PowerLawJob(data["name"], data["t1"], data["alpha"])
    if kind == "communication":
        return CommunicationJob(data["name"], data["t1"], data["overhead"])
    if kind == "rigid":
        return RigidJob(data["name"], data["duration"], data["size"], data.get("penalty"))
    if kind == "reduction":
        return ReductionJob(data["index"], data["a"], data["m"])
    raise SerializationError(f"unknown job kind {kind!r}")


# --------------------------------------------------------------------------
# Instances
# --------------------------------------------------------------------------

def instance_to_dict(
    jobs: Sequence[MoldableJob],
    m: int,
    *,
    metadata: Optional[dict] = None,
    releases: Optional[Sequence[float]] = None,
) -> Dict[str, Any]:
    """Serialise an instance; passing ``releases`` (aligned with ``jobs``)
    writes a version-:data:`INSTANCE_RELEASES_VERSION` document carrying
    them, otherwise the classic version-1 layout is emitted unchanged."""
    data: Dict[str, Any] = {
        "format": "repro-instance",
        "version": FORMAT_VERSION,
        "m": int(m),
        "metadata": metadata or {},
        "jobs": [job_to_dict(job) for job in jobs],
    }
    if releases is not None:
        if len(releases) != len(jobs):
            raise SerializationError(
                f"got {len(releases)} releases for {len(jobs)} jobs"
            )
        data["version"] = INSTANCE_RELEASES_VERSION
        data["releases"] = [float(r) for r in releases]
    return data


def instance_from_dict(
    data: Dict[str, Any], *, with_releases: bool = False
) -> Union[tuple[List[MoldableJob], int, dict], tuple[List[MoldableJob], int, dict, Optional[List[float]]]]:
    """Rebuild an instance.  The default return stays the historical
    ``(jobs, m, metadata)`` triple; ``with_releases=True`` appends the
    release list (``None`` for version-1 documents without one)."""
    _check_header(data, "repro-instance")
    jobs = [job_from_dict(item) for item in data["jobs"]]
    raw = data.get("releases")
    releases = [float(r) for r in raw] if raw is not None else None
    if releases is not None and len(releases) != len(jobs):
        raise SerializationError(
            f"instance carries {len(releases)} releases for {len(jobs)} jobs"
        )
    if with_releases:
        return jobs, int(data["m"]), dict(data.get("metadata", {})), releases
    return jobs, int(data["m"]), dict(data.get("metadata", {}))


def save_instance(
    path: PathLike,
    jobs: Sequence[MoldableJob],
    m: int,
    *,
    metadata: Optional[dict] = None,
    releases: Optional[Sequence[float]] = None,
) -> None:
    # allow_nan=False on every save site: NaN/Infinity are not JSON, and a
    # file carrying them would poison comparisons on load — fail at write time
    Path(path).write_text(
        json.dumps(
            instance_to_dict(jobs, m, metadata=metadata, releases=releases),
            indent=2,
            allow_nan=False,
        )
    )


def load_instance(path: PathLike, *, with_releases: bool = False):
    return instance_from_dict(json.loads(Path(path).read_text()), with_releases=with_releases)


# --------------------------------------------------------------------------
# Schedules
# --------------------------------------------------------------------------

def schedule_to_dict(schedule: Schedule) -> Dict[str, Any]:
    entries: List[Dict[str, Any]] = []
    cols = schedule.columns()
    # straight off the columns; only override durations are read, so no
    # oracle-time resolution happens for plain placements
    names = [job.name for job in schedule.jobs()]
    starts = cols.start.tolist()
    overrides = cols.override_values()
    bounds = cols.span_off.tolist()
    span_first = cols.span_first.tolist()
    span_count = (cols.span_end - cols.span_first).tolist()
    for i in range(cols.n):
        lo, hi = bounds[i], bounds[i + 1]
        entries.append(
            {
                "job": names[i],
                "start": starts[i],
                "spans": [[span_first[k], span_count[k]] for k in range(lo, hi)],
                "duration_override": overrides[i],
            }
        )
    return {
        "format": "repro-schedule",
        "version": FORMAT_VERSION,
        "m": schedule.m,
        "metadata": _jsonable(schedule.metadata),
        "entries": entries,
    }


def schedule_from_dict(
    data: Dict[str, Any],
    jobs: Iterable[MoldableJob],
    *,
    validate: bool = True,
) -> Schedule:
    """Rebuild a schedule; jobs are matched to placements by name."""
    _check_header(data, "repro-schedule")
    by_name: Dict[str, MoldableJob] = {}
    for job in jobs:
        if job.name in by_name:
            raise SerializationError(f"duplicate job name {job.name!r}: cannot re-attach placements")
        by_name[job.name] = job
    schedule = Schedule(m=int(data["m"]), metadata=dict(data.get("metadata", {})))
    for item in data["entries"]:
        name = item["job"]
        if name not in by_name:
            raise SerializationError(f"schedule references unknown job {name!r}")
        schedule.add(
            by_name[name],
            item["start"],
            [tuple(span) for span in item["spans"]],
            duration_override=item.get("duration_override"),
        )
    if validate:
        assert_valid_schedule(schedule, by_name.values())
    return schedule


def save_schedule(path: PathLike, schedule: Schedule) -> None:
    Path(path).write_text(json.dumps(schedule_to_dict(schedule), indent=2, allow_nan=False))


def load_schedule(path: PathLike, jobs: Iterable[MoldableJob], *, validate: bool = True) -> Schedule:
    return schedule_from_dict(json.loads(Path(path).read_text()), jobs, validate=validate)


# --------------------------------------------------------------------------
# Fault plans
# --------------------------------------------------------------------------

def fault_plan_to_dict(plan) -> Dict[str, Any]:
    """Serialise a :class:`repro.resilience.FaultPlan` with the standard
    format/version header (the bare ``FaultPlan.to_dict`` payload is kept
    under the same keys, so older consumers keep working)."""
    payload = plan.to_dict()
    payload["format"] = "repro-fault-plan"
    payload["version"] = FORMAT_VERSION
    return payload


def fault_plan_from_dict(data: Dict[str, Any]):
    """Rebuild a :class:`repro.resilience.FaultPlan` from
    :func:`fault_plan_to_dict` output (header checked)."""
    from .resilience.faults import FaultPlan

    _check_header(data, "repro-fault-plan")
    return FaultPlan.from_dict(data)


def save_fault_plan(path: PathLike, plan) -> None:
    Path(path).write_text(
        json.dumps(fault_plan_to_dict(plan), indent=2, sort_keys=True, allow_nan=False)
    )


def load_fault_plan(path: PathLike):
    return fault_plan_from_dict(json.loads(Path(path).read_text()))


# --------------------------------------------------------------------------
# Fleet reports
# --------------------------------------------------------------------------

def fleet_report_to_dict(report) -> Dict[str, Any]:
    """Serialise a :class:`repro.serve.FleetReport` (schedules travel as
    :func:`schedule_to_dict` payloads inside each outcome)."""
    payload = report.to_dict()
    payload["format"] = "repro-fleet-report"
    payload["version"] = FORMAT_VERSION
    return payload


def fleet_report_from_dict(data: Dict[str, Any]):
    """Rebuild a :class:`repro.serve.FleetReport` (header checked).  Job
    objects are not part of the payload; re-attach schedules per outcome via
    :meth:`repro.serve.InstanceOutcome.schedule`."""
    from .serve.fleet import FleetReport

    _check_header(data, "repro-fleet-report")
    return FleetReport.from_dict(data)


def save_fleet_report(path: PathLike, report) -> None:
    Path(path).write_text(
        json.dumps(fleet_report_to_dict(report), indent=2, sort_keys=True, allow_nan=False)
    )


def load_fleet_report(path: PathLike):
    return fleet_report_from_dict(json.loads(Path(path).read_text()))


# --------------------------------------------------------------------------
# helpers
# --------------------------------------------------------------------------

def _check_header(data: Dict[str, Any], expected_format: str) -> None:
    if data.get("format") != expected_format:
        raise SerializationError(f"not a {expected_format} document (format={data.get('format')!r})")
    version = data.get("version")
    supported = SUPPORTED_VERSIONS.get(expected_format, (FORMAT_VERSION,))
    if version not in supported:
        raise SerializationError(
            f"unsupported {expected_format} version {version!r} "
            f"(expected {supported[0] if len(supported) == 1 else 'one of ' + repr(supported)})"
        )


def _jsonable(obj: Any) -> Any:
    """Best-effort conversion of metadata to JSON-serialisable values."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    return str(obj)
