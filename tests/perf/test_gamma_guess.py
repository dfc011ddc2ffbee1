"""The closed-form γ guess only steers probes: warm ``gamma_array`` must equal
the scalar binary search job by job, whatever the guess comes out as.

The warm γ-search probes each closed-form job's inverted curve first (the
``guess`` kernels of :mod:`repro.perf.arrays`).  These tests aim at the
places where that inversion is fragile — edge parameters (``f`` and
``alpha`` at 0 or 1, zero overhead), thresholds exactly at ``t_j(k)`` and one
ulp either side, thresholds around the communication optimum ``t(k*)``, and
machine counts from 1 up to ``MAX_COLUMNAR_M`` — and at guesses that come out
NaN, infinite or at least ``m``, which must predict nothing.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.allotment import gamma
from repro.core.capacity import MAX_COLUMNAR_M
from repro.core.job import AmdahlJob, CommunicationJob, PowerLawJob
from repro.perf import arrays
from repro.perf.arrays import JobArrayBundle
from repro.perf.oracle import BatchedOracle

MACHINE_COUNTS = (1, 2, 3, 64, 4000, 1 << 20, 1 << 40, MAX_COLUMNAR_M)

t1s = st.floats(min_value=1e-3, max_value=1e6)
unit = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0))
# tiny exponents make the power-law inverse amplify float error enormously
alphas = st.one_of(unit, st.floats(min_value=1e-16, max_value=1e-12))
overheads = st.one_of(st.just(0.0), st.floats(min_value=1e-9, max_value=10.0))


@st.composite
def closed_form_job(draw, index):
    kind = draw(st.sampled_from(["amdahl", "powerlaw", "comm"]))
    t1 = draw(t1s)
    if kind == "amdahl":
        return AmdahlJob(f"a{index}", t1, draw(unit))
    if kind == "powerlaw":
        return PowerLawJob(f"p{index}", t1, draw(alphas))
    return CommunicationJob(f"c{index}", t1, draw(overheads))


@st.composite
def threshold_for(draw, jobs, m, ks):
    """A threshold at some job's ``t_j(k)``, optionally one ulp off, with
    ``k`` from ``ks`` or (for communication jobs) next to ``k*``.  Drawing
    several thresholds from few counts makes neighbouring thresholds share
    γ values, the edge of the warm-start brackets."""
    job = draw(st.sampled_from(jobs))
    k = draw(st.sampled_from(ks))
    if isinstance(job, CommunicationJob) and job.k_star is not None and draw(st.booleans()):
        k = min(m, max(1, job.k_star + draw(st.integers(min_value=-1, max_value=1))))
    t = job.processing_time(k)
    step = draw(st.sampled_from([-math.inf, 0.0, math.inf]))
    return math.nextafter(t, step) if step else t


def assert_matches_scalar(jobs, m, thresholds, oracle):
    for thr in thresholds:
        got = oracle.gamma_array(thr).tolist()
        want = [gamma(job, thr, m) for job in jobs]
        assert got == [m + 1 if g is None else g for g in want], thr


@settings(max_examples=150, deadline=None)
@given(data=st.data(), m=st.sampled_from(MACHINE_COUNTS))
def test_warm_gamma_array_equals_scalar_gamma(data, m):
    jobs = [data.draw(closed_form_job(i)) for i in range(data.draw(st.integers(1, 4)))]
    ks = data.draw(st.lists(st.integers(min_value=1, max_value=m), min_size=1, max_size=2))
    thresholds = [data.draw(threshold_for(jobs, m, ks)) for _ in range(data.draw(st.integers(1, 5)))]
    # one oracle sees the thresholds in sequence, so later searches combine
    # the guess with neighbour brackets
    assert_matches_scalar(jobs, m, thresholds, BatchedOracle(jobs, m))


def test_edge_guesses_are_nan_or_past_m():
    """Natural guesses outside ``[1, m]`` on jobs the search must run."""
    # t(m) rounds to t1 * f exactly: thr/t1 - f == 0, no inverse
    amdahl = AmdahlJob("a", 10.0, 0.5)
    m = MAX_COLUMNAR_M
    thr = amdahl.processing_time(m)
    assert amdahl.processing_time(1) > thr
    bundle = JobArrayBundle([amdahl])
    with np.errstate(all="ignore"):
        assert np.isnan(bundle.groups[0].guess(np.array([0]), np.array([thr])))[0]
    assert_matches_scalar([amdahl], m, [thr], BatchedOracle([amdahl], m))

    # a tiny exponent amplifies one ulp of t(m) into a guess past m
    power = PowerLawJob("p", 7.0, 1e-15)
    m = 1 << 40
    thr = power.processing_time(m)
    bundle = JobArrayBundle([power])
    assert bundle.groups[0].guess(np.array([0]), np.array([thr]))[0] > m
    assert_matches_scalar([power], m, [thr], BatchedOracle([power], m))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -3.0, 0.0, 1e30])
def test_unusable_guesses_predict_nothing(monkeypatch, bad):
    """Whatever a guess kernel returns, the bracket decides the answer; a
    NaN, infinite or out-of-range guess spends no warm probe."""
    monkeypatch.setattr(
        arrays._AmdahlGroup, "guess", lambda self, pos, thr: np.full(len(pos), bad)
    )
    jobs = [AmdahlJob(f"a{i}", 10.0 + i, 0.05) for i in range(6)]
    m = 64
    oracle = BatchedOracle(jobs, m)
    assert_matches_scalar(jobs, m, [8.0, 2.0, 4.0], oracle)
    assert oracle.stats["warm_probes"] == 0
