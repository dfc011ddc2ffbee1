"""Hypothesis-driven parity fuzzing of the simulator against its reference.

:func:`repro.simulator.engine.simulate_schedule` replays a schedule as one
sort and prefix sum over its columns; ``tests/simulator/reference_sim.py``
visits the events one at a time.  On random small schedules built from the
cases the replay must reproduce with care — jobs shorter than the float
tolerance, starts a few ``1e-10`` apart, recorded durations of zero, machine
conflicts, spans leaving ``[0, m)``, start times up to ``1e6`` and machine
counts past ``2^62`` — both must return the identical trace, or both must
raise :class:`SimulationError`, under either strict mode.

``DIFF_FUZZ_EXAMPLES`` sets hypothesis ``max_examples`` (default 120), as
for the cross-backend fuzzer.
"""

import os

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.job import TabulatedJob
from repro.core.schedule import Schedule
from repro.simulator.engine import SimulationError, simulate_schedule

from .harness import reference_simulate

FUZZ_EXAMPLES = int(os.environ.get("DIFF_FUZZ_EXAMPLES", "120"))

#: Machine counts: small ones, where spans are single machines, and two past
#: int64, where a span is a block of ``m // 8`` machines.
M_CHOICES = [1, 2, 3, 5, 8, 2**62 + 5, 2**96]
DURATIONS = [1e-12, 1e-10, 5e-10, 2e-9, 0.5, 1.0, 2.0]


@st.composite
def edge_schedules(draw):
    m = draw(st.sampled_from(M_CHOICES))
    unit = 1 if m <= 8 else m // 8
    blocks = m // unit
    base = draw(st.sampled_from([0.0, 1.0, 1e3, 1e6]))
    schedule = Schedule(m=m)
    for i in range(draw(st.integers(min_value=1, max_value=7))):
        duration = draw(st.sampled_from(DURATIONS))
        offset = draw(st.sampled_from([0.0, 0.5, 1.0, 2.0]))
        jitter = draw(st.sampled_from([0.0, 1e-10, -1e-10, 5e-10, 1e-9, duration]))
        # most jobs share the first block, where conflicts happen
        first = draw(st.sampled_from([0, 0, 0, *range(blocks)]))
        # one block past the last machine lets a span leave [0, m)
        count = draw(st.integers(min_value=1, max_value=blocks - first + 1))
        spans = [(first * unit, count * unit)]
        gap_first = first + count + 1
        if gap_first < blocks and draw(st.booleans()):
            spans.append((gap_first * unit, draw(st.integers(1, blocks - gap_first)) * unit))
        override = draw(st.sampled_from([None, None, None, None, 0.0, duration / 2]))
        schedule.add(
            TabulatedJob(f"j{i}", [duration]),
            max(0.0, base + offset + jitter),
            spans,
            duration_override=override,
        )
    return schedule


def _outcome(simulate, schedule, strict):
    try:
        return simulate(schedule, strict=strict)
    except SimulationError:
        return "raised"


class TestSimulatorMatchesReference:
    @given(edge_schedules(), st.booleans())
    @settings(
        max_examples=FUZZ_EXAMPLES,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_trace_or_raise_matches(self, schedule, strict):
        assert _outcome(simulate_schedule, schedule, strict) == _outcome(
            reference_simulate, schedule, strict
        )
