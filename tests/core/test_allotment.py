"""Tests for gamma (canonical processor counts) and Allotment."""

import pytest

from repro.core.allotment import Allotment, canonical_allotment, gamma
from repro.core.job import AmdahlJob, OracleJob, PowerLawJob, TabulatedJob


class TestGamma:
    def test_exact_table(self):
        job = TabulatedJob("t", [10.0, 6.0, 4.0, 3.0])
        assert gamma(job, 10.0, 4) == 1
        assert gamma(job, 6.0, 4) == 2
        assert gamma(job, 5.0, 4) == 3
        assert gamma(job, 3.5, 4) is None or gamma(job, 3.5, 4) == 4
        assert gamma(job, 3.0, 4) == 4

    def test_unreachable_threshold(self):
        job = TabulatedJob("t", [10.0, 6.0])
        assert gamma(job, 1.0, 2) is None

    def test_threshold_zero_or_negative(self):
        job = TabulatedJob("t", [10.0])
        assert gamma(job, 0.0, 4) is None
        assert gamma(job, -5.0, 4) is None

    def test_minimality(self):
        """gamma returns the *least* processor count meeting the threshold."""
        job = PowerLawJob("p", 100.0, 0.7)
        m = 1024
        for threshold in (80.0, 40.0, 10.0, 5.0):
            g = gamma(job, threshold, m)
            assert g is not None
            assert job.processing_time(g) <= threshold
            if g > 1:
                assert job.processing_time(g - 1) > threshold

    def test_large_m_uses_logarithmic_search(self):
        calls = []

        def oracle(k):
            calls.append(k)
            return 1e6 / k

        job = OracleJob("big", oracle)
        m = 10 ** 9
        g = gamma(job, 2.0, m)
        assert g == 500_000
        # binary search plus the two endpoint probes: far fewer than m calls
        assert len(calls) < 80

    def test_invalid_m(self):
        job = TabulatedJob("t", [1.0])
        with pytest.raises(ValueError):
            gamma(job, 1.0, 0)


class TestCanonicalAllotment:
    def test_all_jobs_meet_threshold(self):
        jobs = [AmdahlJob(f"a{i}", 50.0, 0.1) for i in range(5)]
        allot = canonical_allotment(jobs, 10.0, 64)
        assert allot is not None
        for job in jobs:
            assert job.processing_time(allot[job]) <= 10.0

    def test_returns_none_when_impossible(self):
        jobs = [AmdahlJob("a", 50.0, 0.5)]  # can never go below 25
        assert canonical_allotment(jobs, 10.0, 1024) is None


class TestAllotment:
    def test_aggregates(self):
        a = TabulatedJob("a", [10.0, 6.0])
        b = TabulatedJob("b", [8.0, 5.0])
        allot = Allotment({a: 2, b: 1})
        assert allot.total_processors() == 3
        assert allot.total_work() == pytest.approx(2 * 6.0 + 8.0)
        assert allot.max_time() == pytest.approx(8.0)
        assert allot.average_load(4) == pytest.approx((12.0 + 8.0) / 4)

    def test_invalid_count_rejected(self):
        a = TabulatedJob("a", [1.0])
        with pytest.raises(ValueError):
            Allotment({a: 0})

    def test_mapping_protocol(self):
        a = TabulatedJob("a", [1.0])
        allot = Allotment({a: 1})
        assert a in allot
        assert len(allot) == 1
        allot[a] = 3
        assert allot[a] == 3
        assert list(iter(allot)) == [a]

    @pytest.mark.parametrize("bad", [2.7, 0, -1, 0.5])
    def test_setitem_applies_the_constructor_check(self, bad):
        """``allot[job] = 2.7`` is rejected like ``Allotment({job: 2.7})``,
        not truncated to 2."""
        a = TabulatedJob("a", [1.0])
        allot = Allotment({a: 1})
        with pytest.raises(ValueError, match="positive integer"):
            Allotment({a: bad})
        with pytest.raises(ValueError, match="positive integer"):
            allot[a] = bad
        assert allot[a] == 1

    def test_setitem_stores_integral_floats_as_int(self):
        a = TabulatedJob("a", [1.0])
        allot = Allotment({a: 1})
        allot[a] = 4.0
        assert allot[a] == 4 and type(allot[a]) is int

    def test_copy_is_independent(self):
        a = TabulatedJob("a", [1.0])
        allot = Allotment({a: 1})
        clone = allot.copy()
        clone[a] = 2
        assert allot[a] == 1

    def test_empty_allotment(self):
        allot = Allotment({})
        assert allot.total_processors() == 0
        assert allot.total_work() == 0.0
        assert allot.max_time() == 0.0
