"""Worker-process side of the fleet scheduler.

:func:`worker_main` is the spawn-safe subprocess entry point: a plain
module-level function (so the ``spawn`` start method can import it by
qualified name), looping over tasks received on its pipe.  Each task solves
one instance via :func:`repro.core.scheduler.schedule_moldable` at the
ladder rung the dispatcher selected and replies with a fully serialised
result — the parent never unpickles schedules from a worker, it receives
plain dicts (:func:`repro.io.schedule_to_dict` output plus certification
numbers), so a corrupted worker cannot smuggle unpicklable state back.

Chaos injection (:class:`repro.serve.policy.ChaosPolicy`) lives here too:
the drawn action fires either inside the γ-bisection inner loop (a
:class:`BatchedOracle` subclass that kills/hangs/raises after a fixed number
of ``gamma_array`` evaluations — genuinely mid-solve) or, when the attempt's
algorithm never consulted the oracle, immediately after the solve and before
the result is sent, which is indistinguishable from the parent's side.
"""

from __future__ import annotations

import os
import signal
import time
import traceback
from typing import Optional

from ..core.backend import MAX_VECTORIZED_M
from ..core.scheduler import schedule_moldable
from ..io import schedule_to_dict
from ..perf.oracle import BatchedOracle
from .policy import ChaosPolicy, LadderStep

__all__ = ["ChaosError", "worker_main", "solve_task", "solve_pack"]


class ChaosError(RuntimeError):
    """The injected failure of a ``raise`` chaos action."""


def _fire(action: str, hang_seconds: float) -> None:
    """Execute a chaos action.  ``kill`` never returns; ``hang`` sleeps far
    past any sane deadline (the parent must reap the process); ``raise``
    raises :class:`ChaosError`."""
    if action == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
        time.sleep(60.0)  # pragma: no cover - SIGKILL is not deliverable twice
    elif action == "hang":
        deadline = time.monotonic() + hang_seconds
        while time.monotonic() < deadline:  # sleep() can be cut short by signals
            time.sleep(min(1.0, max(0.0, deadline - time.monotonic())))
    elif action == "raise":
        raise ChaosError("injected chaos failure")
    else:  # pragma: no cover - exhaustiveness guard
        raise AssertionError(action)


class _ChaosOracle(BatchedOracle):
    """A :class:`BatchedOracle` that fires a chaos action after a fixed
    number of ``gamma_array`` evaluations — i.e. inside the γ-bisection inner
    loop of whatever driver is using it."""

    def __init__(self, jobs, m, *, action: str, hang_seconds: float, fire_after: int) -> None:
        super().__init__(jobs, m)
        self._chaos_action = action
        self._chaos_hang_seconds = hang_seconds
        self._chaos_fire_after = max(1, int(fire_after))
        self._chaos_calls = 0
        self.chaos_fired = False

    def gamma_array(self, threshold: float):
        self._chaos_calls += 1
        if self._chaos_calls == self._chaos_fire_after:
            self.chaos_fired = True
            _fire(self._chaos_action, self._chaos_hang_seconds)
        return super().gamma_array(threshold)


def solve_task(task: dict, chaos: Optional[ChaosPolicy]) -> dict:
    """Solve one task dict (see the dispatcher for the schema) and return the
    serialised result.  Chaos, when drawn for this ``(instance, attempt)``,
    fires mid-solve where possible and post-solve otherwise."""
    name = task["name"]
    attempt = int(task["attempt"])
    step = LadderStep.from_dict(task["step"])
    jobs = task["jobs"]
    m = task["m"]
    eps = float(task["eps"])
    algorithm = step.algorithm or task["algorithm"]

    action = chaos.draw(name, attempt) if chaos is not None else None
    oracle = None
    if (
        action is not None
        and chaos.mid_solve
        and algorithm != "exact"  # every other driver runs on the caller's oracle
        and step.backend == "vectorized"
        and int(m) <= MAX_VECTORIZED_M
    ):
        oracle = _ChaosOracle(
            jobs,
            m,
            action=action,
            hang_seconds=chaos.hang_seconds,
            fire_after=chaos.fire_after_probes,
        )

    result = schedule_moldable(
        jobs,
        m,
        eps,
        algorithm=algorithm,
        backend=step.backend,
        oracle=oracle,
    )

    # The solve finished without routing through the chaos oracle (wrong
    # algorithm, scalar rung, or too few γ-batches): fire before reporting,
    # so a drawn action always manifests as a failure the parent observes.
    if action is not None and not (oracle is not None and oracle.chaos_fired):
        _fire(action, chaos.hang_seconds)

    return {
        "makespan": result.makespan,
        "lower_bound": result.lower_bound,
        "guarantee": result.guarantee,
        "algorithm": result.algorithm,
        "eps": result.eps,
        "schedule": schedule_to_dict(result.schedule),
    }


def solve_pack(payload: dict, chaos: Optional[ChaosPolicy]) -> list:
    """Solve a mega-batch pack: ``payload["pack"]`` is a list of task dicts
    (without their per-task ``step``), ``payload["step"]`` the shared ladder
    rung.  On a vectorized rung all members solve in one lockstep mega batch
    (:func:`repro.perf.megabatch.solve_mega` — bit-identical per-instance
    results); otherwise they solve sequentially on the rung's backend.

    Chaos is still drawn per ``(instance, attempt)`` so a member's fate does
    not depend on how it was packed, but a drawn action fires for the whole
    pack (post-solve, before the reply): the parent fails every member, and
    each retries solo where mid-solve chaos hooks apply as usual.
    """
    from types import SimpleNamespace

    from ..perf.megabatch import solve_mega

    members = payload["pack"]
    step = LadderStep.from_dict(payload["step"])
    actions = [
        chaos.draw(mem["name"], int(mem["attempt"])) if chaos is not None else None
        for mem in members
    ]

    if step.backend == "vectorized":
        items = [
            SimpleNamespace(
                jobs=mem["jobs"],
                m=mem["m"],
                eps=float(mem["eps"]),
                algorithm=step.algorithm or mem["algorithm"],
            )
            for mem in members
        ]
        results = solve_mega(items)
    else:
        results = [
            schedule_moldable(
                mem["jobs"],
                mem["m"],
                float(mem["eps"]),
                algorithm=step.algorithm or mem["algorithm"],
                backend=step.backend,
            )
            for mem in members
        ]

    for action in actions:
        if action is not None:
            _fire(action, chaos.hang_seconds)
            break

    return [
        {
            "makespan": result.makespan,
            "lower_bound": result.lower_bound,
            "guarantee": result.guarantee,
            "algorithm": result.algorithm,
            "eps": result.eps,
            "schedule": schedule_to_dict(result.schedule),
        }
        for result in results
    ]


def worker_main(conn, chaos: Optional[ChaosPolicy]) -> None:
    """Subprocess entry point: serve tasks from ``conn`` until a ``"stop"``
    message or the parent goes away."""
    # The parent handles Ctrl-C; an interrupted worker must not spray
    # KeyboardInterrupt tracebacks while the dispatcher tears the fleet down.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            kind, payload = conn.recv()
        except (EOFError, OSError):
            return
        if kind == "stop":
            return
        try:
            if "pack" in payload:
                reply = ("ok", solve_pack(payload, chaos))
            else:
                reply = ("ok", solve_task(payload, chaos))
        except BaseException as exc:  # noqa: BLE001 - everything must travel back
            reply = (
                "error",
                {
                    "error": f"{type(exc).__name__}: {exc}",
                    "traceback": traceback.format_exc(),
                },
            )
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):  # pragma: no cover - parent died
            return
