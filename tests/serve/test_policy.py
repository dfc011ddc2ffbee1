"""Units for the pure-data serving policies: backoff, ladder, chaos, deadlines."""

import time

import pytest

from repro.serve import ChaosPolicy, DEFAULT_LADDER, Deadline, LadderStep, ServePolicy


class TestLadder:
    def test_default_ladder_fast_to_conservative(self):
        assert DEFAULT_LADDER == (
            LadderStep(backend="vectorized"),
            LadderStep(backend="scalar"),
            LadderStep(backend="scalar", algorithm="two_approx"),
        )
        assert DEFAULT_LADDER[-1].algorithm == "two_approx"
        # only the last rung changes the algorithm (result-changing
        # degradation); everything above trades speed only
        assert all(step.algorithm is None for step in DEFAULT_LADDER[:-1])

    def test_labels(self):
        assert DEFAULT_LADDER[0].label == "vectorized"
        assert DEFAULT_LADDER[1].label == "scalar"
        assert DEFAULT_LADDER[2].label == "scalar+algorithm=two_approx"

    def test_step_round_trips(self):
        for step in DEFAULT_LADDER:
            assert LadderStep.from_dict(step.to_dict()) == step

    def test_from_dict_ignores_unknown_keys(self):
        data = {"backend": "vectorized", "algorithm": None, "retired": "event_queue"}
        assert LadderStep.from_dict(data) == DEFAULT_LADDER[0]

    def test_policy_step_clamps_past_the_last_rung(self):
        policy = ServePolicy()
        assert policy.step(0) is DEFAULT_LADDER[0]
        assert policy.step(len(DEFAULT_LADDER) + 5) is DEFAULT_LADDER[-1]

    def test_empty_ladder_rejected(self):
        with pytest.raises(ValueError):
            ServePolicy(ladder=())


class TestBackoff:
    def test_deterministic_per_instance_and_attempt(self):
        a = ServePolicy(seed=3).backoff("inst-1", 2)
        b = ServePolicy(seed=3).backoff("inst-1", 2)
        assert a == b
        assert ServePolicy(seed=3).backoff("inst-2", 2) != a
        assert ServePolicy(seed=4).backoff("inst-1", 2) != a

    def test_exponential_with_cap(self):
        policy = ServePolicy(backoff_base=0.1, backoff_cap=0.4, backoff_jitter=0.0)
        assert policy.backoff("x", 0) == pytest.approx(0.1)
        assert policy.backoff("x", 1) == pytest.approx(0.2)
        assert policy.backoff("x", 2) == pytest.approx(0.4)
        assert policy.backoff("x", 10) == pytest.approx(0.4)  # capped

    def test_jitter_bounded_and_nonnegative(self):
        policy = ServePolicy(backoff_base=0.1, backoff_cap=2.0, backoff_jitter=0.5)
        for attempt in range(6):
            delay = policy.backoff("inst", attempt)
            base = min(0.1 * 2.0 ** attempt, 2.0)
            assert base <= delay <= base * 1.5

    def test_zero_base_means_no_delay(self):
        assert ServePolicy(backoff_base=0.0).backoff("inst", 3) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ServePolicy(timeout=0.0)
        with pytest.raises(ValueError):
            ServePolicy(max_retries=-1)
        with pytest.raises(ValueError):
            ServePolicy(backoff_base=-0.1)


class TestChaos:
    def test_draw_deterministic(self):
        chaos = ChaosPolicy(seed=9, kill_prob=0.3, hang_prob=0.3, raise_prob=0.3)
        draws = [chaos.draw(f"i-{k}", a) for k in range(40) for a in range(3)]
        again = [chaos.draw(f"i-{k}", a) for k in range(40) for a in range(3)]
        assert draws == again
        assert set(draws) <= {"kill", "hang", "raise", None}
        # at 90% total probability all three kinds actually appear
        assert {"kill", "hang", "raise"} <= set(draws)

    def test_zero_probability_is_always_clean(self):
        chaos = ChaosPolicy(seed=1)
        assert all(chaos.draw(f"i-{k}", 0) is None for k in range(50))

    def test_attempt_limit_protects_retries(self):
        chaos = ChaosPolicy(seed=1, kill_prob=1.0, attempts=1)
        assert chaos.draw("inst", 0) == "kill"
        assert chaos.draw("inst", 1) is None
        assert chaos.draw("inst", 5) is None

    def test_probability_validation(self):
        with pytest.raises(ValueError):
            ChaosPolicy(kill_prob=1.5)
        with pytest.raises(ValueError):
            ChaosPolicy(kill_prob=0.6, hang_prob=0.6)
        with pytest.raises(ValueError):
            ChaosPolicy(hang_seconds=0.0)

    def test_to_dict_mentions_every_knob(self):
        data = ChaosPolicy(seed=2, kill_prob=0.1).to_dict()
        assert data["seed"] == 2 and data["kill_prob"] == 0.1
        assert set(data) == {
            "seed", "kill_prob", "hang_prob", "raise_prob", "attempts",
            "mid_solve", "hang_seconds", "fire_after_probes",
        }


class TestDeadline:
    def test_none_never_expires(self):
        deadline = Deadline(None)
        assert not deadline.expired
        assert deadline.remaining() == float("inf")

    def test_expiry(self):
        deadline = Deadline(0.01)
        assert deadline.remaining() <= 0.01
        time.sleep(0.02)
        assert deadline.expired
        assert deadline.remaining() == 0.0  # clamped, never negative

    def test_fresh_deadline_not_expired(self):
        assert not Deadline(60.0).expired

    def test_nan_seconds_rejected(self):
        """NaN passes a naive ``seconds < 0`` check and would build a
        deadline that never expires — it must be rejected up front."""
        with pytest.raises(ValueError, match="deadline seconds"):
            Deadline(float("nan"))
        with pytest.raises(ValueError):
            Deadline(-1.0)


class TestNaNHardening:
    def test_nan_timeout_rejected(self):
        """A NaN timeout would silently disable deadline enforcement (NaN
        fails every comparison, including ``<= 0``)."""
        with pytest.raises(ValueError, match="timeout must be positive"):
            ServePolicy(timeout=float("nan"))

    def test_mega_batch_size_validation(self):
        assert ServePolicy().mega_batch_size == 1
        assert ServePolicy(mega_batch_size=8).mega_batch_size == 8
        with pytest.raises(ValueError, match="mega_batch_size"):
            ServePolicy(mega_batch_size=0)
