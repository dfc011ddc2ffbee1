"""Fault-isolated fleet batch scheduler.

:func:`schedule_many` / :class:`FleetScheduler` pack many independent
scheduling instances through a pool of subprocess workers and **always**
return a complete :class:`FleetReport`: per-instance failures never surface
as exceptions from the fleet — every instance ends up in exactly one of

* ``solved`` — first ladder rung, makespan bit-identical to a solo
  :func:`repro.core.scheduler.schedule_moldable` run,
* ``degraded`` — solved after at least one retry, one or more rungs down the
  degradation ladder (rungs that only change backend are still bit-identical;
  the bottom rung may change the algorithm and is recorded as such),
* ``quarantined`` — the retry budget is exhausted; the outcome carries the
  final failure kind and captured traceback.

Isolation comes from ``multiprocessing`` worker processes (``spawn``-safe by
default): a segfault, OOM kill or hang of one instance cannot corrupt the
rest.  The parent enforces a per-attempt wall-clock deadline (hung workers
are killed and their slot recycled), retries with exponential backoff plus
deterministic seeded jitter, and journals every terminal outcome to an
append-only JSONL file so an interrupted fleet run resumes without
re-solving completed instances (:mod:`repro.serve.journal`).
"""

from __future__ import annotations

import math
import multiprocessing
import os
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from typing import Any, Dict, List, Optional, Sequence, Union

from ..core.job import MoldableJob
from .deadlines import Deadline
from .journal import JournalWriter, instance_fingerprint, load_journal
from .policy import ChaosPolicy, ServePolicy
from .worker import worker_main

__all__ = [
    "FleetInstance",
    "AttemptRecord",
    "InstanceOutcome",
    "FleetReport",
    "FleetScheduler",
    "schedule_many",
    "STATUSES",
]

#: The three terminal per-instance statuses (a complete report assigns every
#: instance exactly one of them).
STATUSES = ("solved", "degraded", "quarantined")


@dataclass
class FleetInstance:
    """One independent scheduling instance of a fleet run."""

    name: str
    jobs: List[MoldableJob]
    m: int
    eps: float = 0.1
    algorithm: str = "auto"

    def __post_init__(self) -> None:
        self.jobs = list(self.jobs)
        if self.m < 1:
            raise ValueError(f"instance {self.name!r}: m must be >= 1")
        if not self.name:
            raise ValueError("instance name must be non-empty")


@dataclass
class AttemptRecord:
    """What happened on one dispatch of one instance."""

    attempt: int
    step: int
    step_label: str
    outcome: str  # "ok" or one of policy.FAILURE_KINDS
    seconds: float
    error: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "attempt": self.attempt,
            "step": self.step,
            "step_label": self.step_label,
            "outcome": self.outcome,
            "seconds": self.seconds,
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AttemptRecord":
        return cls(
            attempt=int(data["attempt"]),
            step=int(data["step"]),
            step_label=str(data.get("step_label", "")),
            outcome=str(data["outcome"]),
            seconds=float(data.get("seconds", 0.0)),
            error=data.get("error"),
        )


@dataclass
class InstanceOutcome:
    """Terminal result of one instance: schedule + certification for the
    solved/degraded statuses, the captured failure for quarantine."""

    instance: str
    status: str
    makespan: Optional[float] = None
    lower_bound: Optional[float] = None
    guarantee: Optional[float] = None
    algorithm: Optional[str] = None
    eps: Optional[float] = None
    ladder_step: int = 0
    attempts: List[AttemptRecord] = field(default_factory=list)
    error: Optional[str] = None
    schedule_data: Optional[dict] = None
    resumed: bool = False

    @property
    def solved(self) -> bool:
        return self.status in ("solved", "degraded")

    @property
    def degraded(self) -> bool:
        return self.status == "degraded"

    @property
    def certified_ratio(self) -> Optional[float]:
        if self.makespan is None or self.lower_bound is None:
            return None
        if self.lower_bound <= 0:
            return 1.0
        return self.makespan / self.lower_bound

    @property
    def retries(self) -> int:
        return max(0, len(self.attempts) - 1)

    def schedule(self, jobs: Sequence[MoldableJob], *, validate: bool = True):
        """Re-attach the serialised schedule to job objects (see
        :func:`repro.io.schedule_from_dict`)."""
        if self.schedule_data is None:
            raise ValueError(f"instance {self.instance!r} has no schedule ({self.status})")
        from ..io import schedule_from_dict

        return schedule_from_dict(self.schedule_data, jobs, validate=validate)

    def to_dict(self) -> dict:
        return {
            "instance": self.instance,
            "status": self.status,
            "makespan": self.makespan,
            "lower_bound": self.lower_bound,
            "guarantee": self.guarantee,
            "algorithm": self.algorithm,
            "eps": self.eps,
            "ladder_step": self.ladder_step,
            "attempts": [a.to_dict() for a in self.attempts],
            "error": self.error,
            "schedule": self.schedule_data,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "InstanceOutcome":
        status = str(data["status"])
        if status not in STATUSES:
            raise ValueError(f"unknown outcome status {status!r}")
        return cls(
            instance=str(data["instance"]),
            status=status,
            makespan=data.get("makespan"),
            lower_bound=data.get("lower_bound"),
            guarantee=data.get("guarantee"),
            algorithm=data.get("algorithm"),
            eps=data.get("eps"),
            ladder_step=int(data.get("ladder_step", 0)),
            attempts=[AttemptRecord.from_dict(a) for a in data.get("attempts", ())],
            error=data.get("error"),
            schedule_data=data.get("schedule"),
        )

    def comparable_dict(self) -> dict:
        """The outcome minus timings and resume provenance — two runs that
        took different wall-clock paths to the same result compare equal."""
        data = self.to_dict()
        for attempt in data["attempts"]:
            attempt.pop("seconds", None)
        return data


@dataclass
class FleetReport:
    """Complete account of one fleet run, in input-instance order."""

    instances: List[str]
    outcomes: List[InstanceOutcome]
    wall_seconds: float = 0.0
    workers: int = 1
    mp_context: str = "spawn"
    policy: Optional[dict] = None
    chaos: Optional[dict] = None

    def outcome(self, name: str) -> InstanceOutcome:
        for outcome in self.outcomes:
            if outcome.instance == name:
                return outcome
        raise KeyError(name)

    def __iter__(self):
        return iter(self.outcomes)

    def __len__(self) -> int:
        return len(self.outcomes)

    @property
    def solved(self) -> List[InstanceOutcome]:
        return [o for o in self.outcomes if o.status == "solved"]

    @property
    def degraded(self) -> List[InstanceOutcome]:
        return [o for o in self.outcomes if o.status == "degraded"]

    @property
    def quarantined(self) -> List[InstanceOutcome]:
        return [o for o in self.outcomes if o.status == "quarantined"]

    @property
    def resumed(self) -> List[InstanceOutcome]:
        return [o for o in self.outcomes if o.resumed]

    @property
    def complete(self) -> bool:
        """Every requested instance has exactly one terminal outcome."""
        names = [o.instance for o in self.outcomes]
        return (
            sorted(names) == sorted(self.instances)
            and len(set(names)) == len(names)
            and all(o.status in STATUSES for o in self.outcomes)
        )

    @property
    def throughput(self) -> float:
        """Instances per second over the whole run (0 for an empty run)."""
        if self.wall_seconds <= 0:
            return 0.0
        return len(self.outcomes) / self.wall_seconds

    def to_dict(self) -> dict:
        return {
            "instances": list(self.instances),
            "wall_seconds": self.wall_seconds,
            "workers": self.workers,
            "mp_context": self.mp_context,
            "policy": self.policy,
            "chaos": self.chaos,
            "outcomes": [o.to_dict() for o in self.outcomes],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FleetReport":
        return cls(
            instances=[str(n) for n in data.get("instances", ())],
            outcomes=[InstanceOutcome.from_dict(o) for o in data.get("outcomes", ())],
            wall_seconds=float(data.get("wall_seconds", 0.0)),
            workers=int(data.get("workers", 1)),
            mp_context=str(data.get("mp_context", "spawn")),
            policy=data.get("policy"),
            chaos=data.get("chaos"),
        )

    def comparable_dict(self) -> dict:
        """The report minus timings — resume-equality tests compare this."""
        return {
            "instances": list(self.instances),
            "outcomes": [o.comparable_dict() for o in self.outcomes],
        }


# --------------------------------------------------------------------------
# dispatcher internals
# --------------------------------------------------------------------------

@dataclass
class _Task:
    index: int
    attempt: int
    step: int
    not_before: float  # monotonic instant before which it must not dispatch


class _Slot:
    """One worker process + its dedicated pipe."""

    __slots__ = ("proc", "conn", "task", "deadline", "started")

    def __init__(self, ctx, chaos: Optional[ChaosPolicy]) -> None:
        parent_conn, child_conn = ctx.Pipe()
        self.proc = ctx.Process(
            target=worker_main, args=(child_conn, chaos), daemon=True
        )
        self.proc.start()
        child_conn.close()  # parent's copy; the worker holds the live end
        self.conn = parent_conn
        # a single _Task, or a list of them when a mega-batch pack is in flight
        self.task: Optional[Union["_Task", List["_Task"]]] = None
        self.deadline: Optional[Deadline] = None
        self.started = 0.0

    @property
    def busy(self) -> bool:
        return self.task is not None

    def kill(self) -> None:
        try:
            self.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        if self.proc.is_alive():
            self.proc.kill()
        self.proc.join()
        self.task = None
        self.deadline = None

    def shutdown(self) -> None:
        """Graceful stop for idle workers, kill for busy/stuck ones."""
        if self.task is None and self.proc.is_alive():
            try:
                self.conn.send(("stop", None))
            except OSError:
                pass
        self.kill()


class FleetScheduler:
    """Reusable fleet front end; see the module docstring for semantics."""

    def __init__(
        self,
        *,
        policy: Optional[ServePolicy] = None,
        chaos: Optional[ChaosPolicy] = None,
        max_workers: Optional[int] = None,
        mp_context: str = "spawn",
        journal: Optional[Union[str, os.PathLike]] = None,
    ) -> None:
        self.policy = policy if policy is not None else ServePolicy()
        self.chaos = chaos
        if max_workers is None:
            max_workers = min(4, os.cpu_count() or 1)
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = int(max_workers)
        # validate eagerly: a typo'd start method must fail at construction
        multiprocessing.get_context(mp_context)
        self.mp_context = mp_context
        self.journal = journal

    # ------------------------------------------------------------ normalize
    def _normalize(
        self, instances: Sequence[Any], m: Optional[int], eps: float, algorithm: str
    ) -> List[FleetInstance]:
        fleet: List[FleetInstance] = []
        for i, item in enumerate(instances):
            if isinstance(item, FleetInstance):
                fleet.append(item)
            elif hasattr(item, "jobs") and hasattr(item, "m"):  # WorkloadInstance
                kind = getattr(getattr(item, "spec", None), "kind", "instance")
                fleet.append(
                    FleetInstance(
                        name=f"{kind}-{i}", jobs=list(item.jobs), m=int(item.m),
                        eps=eps, algorithm=algorithm,
                    )
                )
            else:  # a bare job sequence; needs the shared machine count
                if m is None:
                    raise ValueError(
                        "passing bare job sequences requires the shared machine count m"
                    )
                fleet.append(
                    FleetInstance(
                        name=f"instance-{i}", jobs=list(item), m=int(m),
                        eps=eps, algorithm=algorithm,
                    )
                )
        names = [inst.name for inst in fleet]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate instance names {dupes}: journal/report keys must be unique")
        return fleet

    # ------------------------------------------------------------------ run
    def run(
        self,
        instances: Sequence[Any],
        *,
        m: Optional[int] = None,
        eps: float = 0.1,
        algorithm: str = "auto",
    ) -> FleetReport:
        t0 = time.perf_counter()
        fleet = self._normalize(instances, m, eps, algorithm)
        # the ladder and chaos configuration are part of the resume identity:
        # outcomes journalled under a different ladder (whose bottom rung may
        # change the algorithm) or chaos seed must re-solve, not resume
        ladder_dicts = [step.to_dict() for step in self.policy.ladder]
        chaos_dict = self.chaos.to_dict() if self.chaos is not None else None
        fingerprints = {
            inst.name: instance_fingerprint(
                inst.name, inst.jobs, inst.m, inst.eps, inst.algorithm,
                ladder=ladder_dicts, chaos=chaos_dict,
            )
            for inst in fleet
        }
        outcomes: Dict[str, InstanceOutcome] = {}
        writer: Optional[JournalWriter] = None
        if self.journal is not None:
            journal_records = load_journal(self.journal)
            for inst in fleet:
                record = journal_records.get(inst.name)
                if record is None or record.get("fingerprint") != fingerprints[inst.name]:
                    continue
                try:
                    outcome = InstanceOutcome.from_dict(record["outcome"])
                except (KeyError, ValueError, TypeError):
                    continue  # unreadable outcome: re-solve
                outcome.resumed = True
                outcomes[inst.name] = outcome
            writer = JournalWriter(self.journal)
        pending = [
            _Task(index=i, attempt=0, step=0, not_before=0.0)
            for i, inst in enumerate(fleet)
            if inst.name not in outcomes
        ]
        try:
            if pending:
                _Dispatch(self, fleet, fingerprints, pending, outcomes, writer).run()
        finally:
            if writer is not None:
                writer.close()
        return FleetReport(
            instances=[inst.name for inst in fleet],
            outcomes=[outcomes[inst.name] for inst in fleet if inst.name in outcomes],
            wall_seconds=time.perf_counter() - t0,
            workers=self.max_workers,
            mp_context=self.mp_context,
            policy=self._policy_dict(),
            chaos=self.chaos.to_dict() if self.chaos is not None else None,
        )

    def _policy_dict(self) -> dict:
        p = self.policy
        return {
            "timeout": p.timeout,
            "max_retries": p.max_retries,
            "backoff_base": p.backoff_base,
            "backoff_cap": p.backoff_cap,
            "backoff_jitter": p.backoff_jitter,
            "seed": p.seed,
            "ladder": [step.to_dict() for step in p.ladder],
            "mega_batch_size": p.mega_batch_size,
        }


class _Dispatch:
    """One fleet run's dispatcher state machine."""

    def __init__(
        self,
        scheduler: FleetScheduler,
        fleet: List[FleetInstance],
        fingerprints: Dict[str, str],
        pending: List[_Task],
        outcomes: Dict[str, InstanceOutcome],
        writer: Optional[JournalWriter],
    ) -> None:
        self.policy = scheduler.policy
        self.chaos = scheduler.chaos
        self.fleet = fleet
        self.fingerprints = fingerprints
        self.pending = pending
        self.outcomes = outcomes
        self.writer = writer
        self.attempts: Dict[str, List[AttemptRecord]] = {}
        self.ctx = multiprocessing.get_context(scheduler.mp_context)
        self.n_workers = max(1, min(scheduler.max_workers, len(pending)))

    # --------------------------------------------------------------- loop
    def run(self) -> None:
        slots = [_Slot(self.ctx, self.chaos) for _ in range(self.n_workers)]
        try:
            while self.pending or any(slot.busy for slot in slots):
                self._assign(slots)
                busy = [slot for slot in slots if slot.busy]
                if not busy:
                    # everything runnable is deferred by backoff
                    delay = min(t.not_before for t in self.pending) - time.monotonic()
                    if delay > 0:
                        time.sleep(min(delay, 0.5))
                    continue
                self._collect(busy)
        finally:
            for slot in slots:
                slot.shutdown()

    def _task_payload(self, task: _Task) -> dict:
        inst = self.fleet[task.index]
        return {
            "name": inst.name,
            "jobs": inst.jobs,
            "m": inst.m,
            "eps": inst.eps,
            "algorithm": inst.algorithm,
            "attempt": task.attempt,
            "step": self.policy.step(task.step).to_dict(),
        }

    def _assign(self, slots: List[_Slot]) -> None:
        now = time.monotonic()
        for slot in slots:
            if slot.busy:
                continue
            task = self._pop_ready(now)
            if task is None:
                return
            # mega-batch packing: fill the slot with further *first-attempt*
            # tasks (all on the same ladder rung, by construction) so the
            # worker solves them in one lockstep mega batch.  Retries stay
            # solo — a pack failure fails all members, and re-batching them
            # would let one poison instance starve the others' retry budget.
            tasks = [task]
            if self.policy.mega_batch_size > 1 and task.attempt == 0:
                while len(tasks) < self.policy.mega_batch_size:
                    extra = self._pop_ready(now, first_attempt_only=True)
                    if extra is None:
                        break
                    tasks.append(extra)
            if len(tasks) == 1:
                payload: dict = self._task_payload(task)
            else:
                payload = {
                    "pack": [self._task_payload(t) for t in tasks],
                    "step": self.policy.step(task.step).to_dict(),
                }
            died = False
            try:
                slot.conn.send(("task", payload))
            except OSError:
                died = True
            except Exception:
                # pickling failed before any bytes hit the pipe: the channel
                # is intact, but the instance can never reach a worker.  Solo
                # that is deterministic — quarantine without burning retries.
                # For a pack, any member may be the poison one: fail all of
                # them retryably so the innocent members re-solve solo and
                # only the true culprit reaches quarantine.
                for t in tasks:
                    self._failure(
                        t, "serialization", traceback.format_exc(), 0.0,
                        force_quarantine=len(tasks) == 1,
                    )
                continue
            if died:
                # the worker died while idle; recycle it and retry the task
                slot.kill()
                self._respawn(slot)
                for t in tasks:
                    self._failure(
                        t, "worker-death", "worker died before accepting the task", 0.0
                    )
                continue
            slot.task = tasks if len(tasks) > 1 else task
            slot.started = time.monotonic()
            slot.deadline = Deadline(self.policy.timeout)

    def _pop_ready(self, now: float, *, first_attempt_only: bool = False) -> Optional[_Task]:
        for i, task in enumerate(self.pending):
            if task.not_before <= now and (not first_attempt_only or task.attempt == 0):
                return self.pending.pop(i)
        return None

    def _collect(self, busy: List[_Slot]) -> None:
        timeout: Optional[float] = None
        remaining = [slot.deadline.remaining() for slot in busy if slot.deadline]
        if remaining:
            candidate = min(remaining)
            # isfinite, not ``!= inf``: a NaN (e.g. arithmetic poisoned by a
            # corrupt journal line) passes the inequality and would become a
            # NaN wait timeout instead of "no deadline"
            if math.isfinite(candidate):
                timeout = candidate
        if self.pending:
            defer = min(t.not_before for t in self.pending) - time.monotonic()
            defer = max(0.0, defer)
            timeout = defer if timeout is None else min(timeout, defer)
        objects: List[Any] = []
        for slot in busy:
            objects.append(slot.conn)
            objects.append(slot.proc.sentinel)
        ready = set(mp_connection.wait(objects, timeout))
        for slot in busy:
            task = slot.task
            if task is None:  # pragma: no cover - defensive
                continue
            # a packed slot carries a list of tasks; any failure of the pack
            # fails every member (each retries individually afterwards)
            tasks = task if isinstance(task, list) else [task]
            elapsed = time.monotonic() - slot.started
            if slot.conn in ready:
                try:
                    kind, payload = slot.conn.recv()
                except (EOFError, OSError):
                    kind = None
                if kind is None:
                    proc = slot.proc
                    slot.kill()
                    exitcode = proc.exitcode
                    self._respawn(slot)
                    for t in tasks:
                        self._failure(
                            t,
                            "worker-death",
                            f"worker died mid-solve (exitcode {exitcode})",
                            elapsed,
                        )
                    continue
                slot.task = None
                slot.deadline = None
                if kind == "ok":
                    if isinstance(task, list):
                        for t, result in zip(task, payload):
                            self._success(t, result, elapsed)
                    else:
                        self._success(task, payload, elapsed)
                else:
                    error = payload.get("traceback") or payload.get("error")
                    for t in tasks:
                        self._failure(t, "raise", error, elapsed)
            elif slot.proc.sentinel in ready:
                proc = slot.proc
                slot.kill()
                exitcode = proc.exitcode
                self._respawn(slot)
                for t in tasks:
                    self._failure(
                        t,
                        "worker-death",
                        f"worker died mid-solve (exitcode {exitcode})",
                        elapsed,
                    )
            elif slot.deadline is not None and slot.deadline.expired:
                slot.kill()
                self._respawn(slot)
                for t in tasks:
                    self._failure(
                        t,
                        "timeout",
                        f"per-attempt deadline of {self.policy.timeout}s exceeded; worker killed",
                        elapsed,
                    )

    def _respawn(self, slot: _Slot) -> None:
        """Replace ``slot``'s worker.  Never call it inside an ``except``
        block: a worker forked there inherits the handled exception as the
        implicit ``__context__`` of everything it raises, so its reported
        tracebacks would depend on which path noticed the old worker die."""
        fresh = _Slot(self.ctx, self.chaos)
        slot.proc = fresh.proc
        slot.conn = fresh.conn
        slot.task = None
        slot.deadline = None
        slot.started = 0.0

    # ------------------------------------------------------------ outcomes
    def _record(self, task: _Task, outcome_kind: str, seconds: float, error: Optional[str]) -> AttemptRecord:
        record = AttemptRecord(
            attempt=task.attempt,
            step=task.step,
            step_label=self.policy.step(task.step).label,
            outcome=outcome_kind,
            seconds=seconds,
            error=error,
        )
        name = self.fleet[task.index].name
        self.attempts.setdefault(name, []).append(record)
        return record

    def _finalize(self, outcome: InstanceOutcome) -> None:
        self.outcomes[outcome.instance] = outcome
        if self.writer is not None:
            self.writer.append(
                outcome.instance, self.fingerprints[outcome.instance], outcome.to_dict()
            )

    def _success(self, task: _Task, payload: dict, seconds: float) -> None:
        self._record(task, "ok", seconds, None)
        inst = self.fleet[task.index]
        self._finalize(
            InstanceOutcome(
                instance=inst.name,
                status="degraded" if task.step > 0 else "solved",
                makespan=payload["makespan"],
                lower_bound=payload["lower_bound"],
                guarantee=payload["guarantee"],
                algorithm=payload["algorithm"],
                eps=payload["eps"],
                ladder_step=task.step,
                attempts=self.attempts.pop(inst.name, []),
                schedule_data=payload["schedule"],
            )
        )

    def _failure(
        self,
        task: _Task,
        kind: str,
        error: Optional[str],
        seconds: float,
        *,
        force_quarantine: bool = False,
    ) -> None:
        self._record(task, kind, seconds, error)
        inst = self.fleet[task.index]
        if not force_quarantine and task.attempt < self.policy.max_retries:
            delay = self.policy.backoff(inst.name, task.attempt)
            self.pending.append(
                _Task(
                    index=task.index,
                    attempt=task.attempt + 1,
                    step=min(task.step + 1, len(self.policy.ladder) - 1),
                    not_before=time.monotonic() + delay,
                )
            )
            return
        self._finalize(
            InstanceOutcome(
                instance=inst.name,
                status="quarantined",
                algorithm=inst.algorithm,
                eps=inst.eps,
                ladder_step=task.step,
                attempts=self.attempts.pop(inst.name, []),
                error=error,
            )
        )


def schedule_many(
    instances: Sequence[Any],
    m: Optional[int] = None,
    *,
    eps: float = 0.1,
    algorithm: str = "auto",
    policy: Optional[ServePolicy] = None,
    chaos: Optional[ChaosPolicy] = None,
    max_workers: Optional[int] = None,
    mp_context: str = "spawn",
    journal: Optional[Union[str, os.PathLike]] = None,
) -> FleetReport:
    """Solve many independent instances through a fault-isolated worker
    fleet; see :class:`FleetScheduler`.

    ``instances`` may mix :class:`FleetInstance` objects,
    :class:`~repro.workloads.generators.WorkloadInstance` objects (their own
    ``m`` is used) and bare job sequences (which require the shared ``m``).
    Always returns a complete :class:`FleetReport`; per-instance failures are
    reported, never raised.
    """
    scheduler = FleetScheduler(
        policy=policy,
        chaos=chaos,
        max_workers=max_workers,
        mp_context=mp_context,
        journal=journal,
    )
    return scheduler.run(instances, m=m, eps=eps, algorithm=algorithm)
