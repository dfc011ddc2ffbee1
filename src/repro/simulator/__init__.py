"""Discrete-event execution of schedules and Gantt renderings.

The simulator executes a :class:`repro.core.schedule.Schedule` on ``m``
machines event by event, measuring utilisation over time and, in strict
mode, rejecting infeasible placements with the validator's verdict; it
powers the ASCII Gantt/shelf renderings used to reproduce Figures 1–3 of
the paper.
"""

from .engine import ExecutionTrace, SimulationError, simulate_schedule
from .gantt import render_gantt, render_shelves

__all__ = [
    "ExecutionTrace",
    "SimulationError",
    "simulate_schedule",
    "render_gantt",
    "render_shelves",
]
