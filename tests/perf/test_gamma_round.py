"""One flat γ round over many oracles must act exactly like solo calls.

:func:`repro.perf.oracle.lockstep_gamma_round` runs every request of a
mega-batch round as one bisection over the concatenated jobs of all
segments.  Here each segment oracle is paired with a twin — a private
:class:`BatchedOracle` over the same jobs — that makes the same requests one
by one, in request order.  γ-arrays, ``stats`` and the sorted-threshold
warm-start index must agree, across warm and cold oracles, closed-form,
tabulated and callable job classes, a repeated request, a cached threshold
and a non-positive one.  NaN thresholds are rejected before anything moves.
"""

import math

import numpy as np
import pytest

from repro.core.allotment import gamma
from repro.core.job import AmdahlJob, CommunicationJob, OracleJob, PowerLawJob, TabulatedJob
from repro.perf.megabatch import MegaBatch, _Segment
from repro.perf.oracle import BatchedOracle, lockstep_gamma_round


def _closed_form(tag):
    return [
        AmdahlJob(f"{tag}a", 40.0, 0.1),
        PowerLawJob(f"{tag}p", 36.0, 0.8),
        CommunicationJob(f"{tag}c", 50.0, 0.01),
        CommunicationJob(f"{tag}z", 30.0, 0.0),
    ]


def _table_and_callable(tag):
    return [
        TabulatedJob(f"{tag}t", [60.0 / k**0.7 for k in range(1, 40)]),
        OracleJob(f"{tag}o", lambda k: 45.0 / k + 0.5),
        OracleJob(
            f"{tag}v",
            lambda k: 80.0 / math.sqrt(k),
            times_vectorized=lambda ks: 80.0 / np.sqrt(ks),
        ),
    ]


#: (jobs, m, warm_start) per segment
SEGMENTS = [
    (_closed_form("A"), 256, True),
    (_table_and_callable("B"), 128, True),
    (_closed_form("C") + _table_and_callable("C"), 512, False),
    (_closed_form("D") + _table_and_callable("D"), 64, True),
    (_table_and_callable("E"), 32, True),
]

#: solo calls on every oracle before the rounds, so brackets and
#: interpolation have neighbours to work with (7.25 shares most γ values
#: with 7.0, the edge of the brackets)
HISTORY = (50.0, 2.0, 7.25)

#: rounds of (segment, threshold) requests: a repeated pair (A, 7.0), a
#: cached threshold (D, 50.0), non-positive thresholds (E, -1.0) / (E, 0.0)
ROUNDS = [
    [(0, 7.0), (1, 5.0), (2, 3.0), (0, 7.0), (3, 50.0), (4, -1.0)],
    [(3, 9.0), (0, 3.5), (1, 12.0), (2, 20.0), (4, 6.0)],
    [(1, 8.0), (2, 5.5), (3, 4.0), (4, 0.0), (0, 7.0), (0, 11.0)],
]


def _build():
    segments = [_Segment(i, jobs, m, 0.1, "two_approx") for i, (jobs, m, _) in enumerate(SEGMENTS)]
    batch = MegaBatch(segments)
    mega = [seg.oracle for seg in batch.segments]
    for oracle, (_, _, warm) in zip(mega, SEGMENTS):
        oracle.warm_start = warm
    twins = [BatchedOracle(jobs, m, warm_start=warm) for jobs, m, warm in SEGMENTS]
    for oracle in mega + twins:
        for thr in HISTORY:
            oracle.gamma_array(thr)
    return mega, twins


def test_round_matches_solo_twins():
    mega, twins = _build()
    for requests in ROUNDS:
        got = lockstep_gamma_round([(mega[i], thr) for i, thr in requests])
        for (i, thr), arr in zip(requests, got):
            want = twins[i].gamma_array(thr)
            assert np.array_equal(arr, want), (i, thr)
            jobs, m, _ = SEGMENTS[i]
            scalar = [gamma(job, thr, m) for job in jobs]
            assert arr.tolist() == [m + 1 if g is None else g for g in scalar]
            assert not arr.flags.writeable
    for i, (oracle, twin) in enumerate(zip(mega, twins)):
        assert oracle.stats == twin.stats, i
        assert oracle._sorted_thresholds == twin._sorted_thresholds, i
    # the mix really took every path
    assert mega[0].stats["threshold_cache_hits"] >= 1  # repeated (A, 7.0)
    assert mega[1].stats["warm_probes"] > 0  # interpolation-guided probes
    assert mega[2].stats["warm_probes"] == 0  # cold
    assert mega[3].stats["threshold_cache_hits"] >= 1  # cached (D, 50.0)


def test_repeated_pair_is_one_search_and_one_cache_hit():
    mega, _ = _build()
    a = mega[0]
    before = dict(a.stats)
    first, again = lockstep_gamma_round([(a, 7.0), (a, 7.0)])
    assert again is first
    assert a.stats["gamma_batches"] == before["gamma_batches"] + 1
    assert a.stats["threshold_cache_hits"] == before["threshold_cache_hits"] + 1
    assert a._sorted_thresholds.count(7.0) == 1


class TestNanThreshold:
    def test_round_rejects_nan_before_touching_any_oracle(self):
        mega, _ = _build()
        stats = [dict(o.stats) for o in mega]
        cached = [list(o._sorted_thresholds) for o in mega]
        with pytest.raises(ValueError, match="NaN"):
            lockstep_gamma_round([(mega[0], 3.0), (mega[1], 3.0), (mega[2], math.nan)])
        assert [o.stats for o in mega] == stats
        assert [o._sorted_thresholds for o in mega] == cached

    def test_gamma_array_and_gamma_reject_nan(self):
        jobs = _closed_form("N")
        oracle = BatchedOracle(jobs, 64)
        with pytest.raises(ValueError, match="NaN"):
            oracle.gamma_array(float("nan"))
        with pytest.raises(ValueError, match="NaN"):
            oracle.gamma(jobs[0], float("nan"))
        assert oracle._sorted_thresholds == []
        assert oracle.stats["gamma_batches"] == 0

    def test_scalar_gamma_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            gamma(AmdahlJob("a", 10.0, 0.1), float("nan"), 16)
