"""Hypothesis-driven cross-backend parity fuzzing.

Draws random (driver, family, n, m, eps, seed) cases across all five
algorithm drivers and every instance family (the bench sweep plus the
tie-heavy ``quantized``, the no-tie ``chain``, the fault-recovery
``faulty``, the overflow-boundary ``huge_m``, the lockstep co-batch
``mega``, and the arrival-epoch ``online`` families), runs each
driver under both backends of the comparison (the scalar and the
vectorized executor), and asserts identical schedules, makespans and
validator verdicts, plus an identical list-schedule replay by the library
and the heap reference (see ``tests/differential/harness.py`` for the exact
checks).

Any failing case is serialised into ``tests/differential/corpus/`` before
the assertion propagates, so it is replayed forever after as a
deterministic regression test (``test_corpus_replay.py``) — shrinking a
hypothesis failure once is enough to pin it for every future run.

Two environment knobs configure the run (the nightly long-fuzz workflow
sets both; tier-1 CI uses the defaults):

* ``DIFF_FUZZ_EXAMPLES`` — hypothesis ``max_examples`` (default 120);
* ``DIFF_FUZZ_PROFILE`` — ``"tier1"`` (default) or ``"long"``: the long
  profile draws larger instances (n up to 48, m up to 4096) where rarer
  epoch/packing interactions live.
"""

import os

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from .harness import BACKENDS, DRIVERS, FAMILIES, run_case, save_failure

FUZZ_EXAMPLES = int(os.environ.get("DIFF_FUZZ_EXAMPLES", "120"))
FUZZ_PROFILE = os.environ.get("DIFF_FUZZ_PROFILE", "tier1")

if FUZZ_PROFILE == "long":
    MAX_N = 48
    M_CHOICES = [1, 2, 3, 8, 24, 64, 256, 1024, 4096]
    EPS_CHOICES = [0.05, 0.1, 0.25, 0.5]
else:
    MAX_N = 10
    M_CHOICES = [1, 2, 3, 8, 24, 64, 256]
    EPS_CHOICES = [0.1, 0.25, 0.5]


@st.composite
def cases(draw):
    driver = draw(st.sampled_from(DRIVERS))
    family = draw(st.sampled_from(sorted(FAMILIES)))
    n = draw(st.integers(min_value=1, max_value=MAX_N))
    m = draw(st.sampled_from(M_CHOICES))
    eps = draw(st.sampled_from(EPS_CHOICES))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return {"driver": driver, "family": family, "n": n, "m": m, "eps": eps, "seed": seed}


class TestCrossBackendParity:
    @given(cases())
    @settings(
        max_examples=FUZZ_EXAMPLES,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_backends_agree_on_random_cases(self, case):
        try:
            run_case(case)
        except AssertionError as exc:
            path = save_failure(case, exc)
            raise AssertionError(
                f"cross-backend divergence (case saved to {path}): {exc}"
            ) from exc


class TestHarnessSelfChecks:
    """The harness must actually be able to catch divergences."""

    def test_every_driver_and_family_is_exercised(self):
        assert set(DRIVERS) == {"mrt", "compressible", "bounded", "fptas", "two_approx"}
        assert set(FAMILIES) == {
            "mixed",
            "powerwork",
            "comm",
            "bimodal",
            "tiny_n_huge_m",
            "quantized",
            "chain",
            "faulty",
            "huge_m",
            "mega",
            "online",
        }

    def test_comparison_pins_both_backends(self):
        """The harness compares the scalar reference against the vectorized
        implementation — exactly these two, reference first."""
        assert BACKENDS == ("scalar", "vectorized")

    def test_profile_defaults(self):
        """Tier-1 CI must keep the fast profile unless told otherwise."""
        if "DIFF_FUZZ_EXAMPLES" not in os.environ:
            assert FUZZ_EXAMPLES == 120
        if os.environ.get("DIFF_FUZZ_PROFILE", "tier1") != "long":
            assert MAX_N == 10

    @pytest.mark.parametrize("driver", DRIVERS)
    def test_one_deterministic_case_per_driver(self, driver):
        run_case(
            {"driver": driver, "family": "mixed", "n": 6, "m": 24, "eps": 0.25, "seed": 7}
        )

    @pytest.mark.parametrize("driver", DRIVERS)
    def test_one_deterministic_huge_m_case_per_driver(self, driver):
        """Every driver runs the astronomical-m family: the drawn ``m``
        selects a HUGE_M_CHOICES boundary straddler (here 2^62 + 1, the
        first wide-tier machine count)."""
        run_case(
            {"driver": driver, "family": "huge_m", "n": 6, "m": 5, "eps": 0.25, "seed": 13}
        )

    @pytest.mark.parametrize("driver", DRIVERS)
    def test_one_deterministic_mega_case_per_driver(self, driver):
        """Every driver solves inside a random lockstep co-batch and must
        reproduce its solo result bit-identically."""
        run_case(
            {"driver": driver, "family": "mega", "n": 6, "m": 24, "eps": 0.25, "seed": 17}
        )

    @pytest.mark.parametrize("driver", DRIVERS)
    def test_one_deterministic_faulty_case_per_driver(self, driver):
        """The recovery loop itself is part of the cross-backend comparison."""
        run_case(
            {"driver": driver, "family": "faulty", "n": 8, "m": 24, "eps": 0.25, "seed": 11}
        )

    @pytest.mark.parametrize("driver", DRIVERS)
    def test_one_deterministic_online_case_per_driver(self, driver):
        """The online arrival-epoch loop is part of the cross-backend comparison."""
        run_case(
            {"driver": driver, "family": "online", "n": 8, "m": 24, "eps": 0.25, "seed": 19}
        )

    def test_online_family_compares_auto(self, monkeypatch):
        """``backend="auto"`` mixes scalar and vectorized epochs in one
        stitched schedule, so the online family runs it too."""
        from . import harness

        seen = []
        run_online = harness.run_online

        def spy(case, backend, instance, **kwargs):
            seen.append(backend)
            return run_online(case, backend, instance, **kwargs)

        monkeypatch.setattr(harness, "run_online", spy)
        run_case(
            {"driver": "two_approx", "family": "online", "n": 8, "m": 24, "eps": 0.25, "seed": 19}
        )
        assert set(harness.ONLINE_BACKENDS) <= set(seen)
        assert "auto" in harness.ONLINE_BACKENDS

    def test_save_failure_roundtrip(self, tmp_path, monkeypatch):
        import json

        from . import harness

        monkeypatch.setattr(harness, "CORPUS_DIR", tmp_path / "corpus")
        case = {"driver": "mrt", "family": "comm", "n": 3, "m": 8, "eps": 0.5, "seed": 1}
        path = harness.save_failure(case, AssertionError("makespan mismatch"))
        assert path.is_file()
        payload = json.loads(path.read_text())
        assert payload["driver"] == "mrt"
        assert payload["seed"] == 1
        assert "makespan mismatch" in payload["error"]
        # idempotent: the same case maps to the same file
        assert harness.save_failure(case, AssertionError("again")) == path
