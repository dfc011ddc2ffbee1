"""Units for the append-only outcome journal and its crash-tolerant loader."""

import json

import pytest

from repro.serve import (
    FleetInstance,
    JournalError,
    JournalWriter,
    ServePolicy,
    instance_fingerprint,
    load_journal,
    schedule_many,
)
from repro.workloads.generators import random_mixed_instance


def _outcome(name, makespan=1.0):
    return {
        "instance": name,
        "status": "solved",
        "makespan": makespan,
        "lower_bound": 0.5,
        "guarantee": 2.0,
        "algorithm": "two_approx",
        "eps": 0.1,
        "ladder_step": 0,
        "attempts": [],
        "error": None,
        "schedule_data": None,
    }


def _line(name, makespan=1.0):
    return json.dumps(
        {
            "record": "repro-fleet-outcome",
            "instance": name,
            "fingerprint": "f" * 32,
            "outcome": _outcome(name, makespan),
        }
    )


class TestFingerprint:
    def test_stable_across_calls(self):
        jobs = random_mixed_instance(6, 8, seed=1).jobs
        a = instance_fingerprint("x", jobs, 8, 0.1, "auto")
        b = instance_fingerprint("x", jobs, 8, 0.1, "auto")
        assert a == b and len(a) == 32

    def test_sensitive_to_every_input(self):
        jobs = random_mixed_instance(6, 8, seed=1).jobs
        base = instance_fingerprint("x", jobs, 8, 0.1, "auto")
        assert instance_fingerprint("y", jobs, 8, 0.1, "auto") != base
        assert instance_fingerprint("x", jobs, 16, 0.1, "auto") != base
        assert instance_fingerprint("x", jobs, 8, 0.2, "auto") != base
        assert instance_fingerprint("x", jobs, 8, 0.1, "fptas") != base
        other = random_mixed_instance(6, 8, seed=2).jobs
        assert instance_fingerprint("x", other, 8, 0.1, "auto") != base

    def test_sensitive_to_ladder_and_chaos(self):
        """The degradation ladder and the chaos policy are part of the resume
        identity: a journal written under either a different ladder or a
        different chaos seed must not resume."""
        jobs = random_mixed_instance(6, 8, seed=1).jobs
        ladder = [{"backend": "vectorized", "algorithm": None}]
        chaos = {"seed": 3, "kill_prob": 0.1}
        base = instance_fingerprint("x", jobs, 8, 0.1, "auto", ladder=ladder, chaos=chaos)
        shorter = ladder + [{"backend": "scalar", "algorithm": None}]
        assert (
            instance_fingerprint("x", jobs, 8, 0.1, "auto", ladder=shorter, chaos=chaos)
            != base
        )
        reseeded = dict(chaos, seed=4)
        assert (
            instance_fingerprint("x", jobs, 8, 0.1, "auto", ladder=ladder, chaos=reseeded)
            != base
        )
        assert (
            instance_fingerprint("x", jobs, 8, 0.1, "auto", ladder=ladder, chaos=None)
            != base
        )


class TestJournalRoundTrip:
    def test_write_then_load(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with JournalWriter(path) as writer:
            writer.append("a", "f" * 32, _outcome("a"))
            writer.append("b", "f" * 32, _outcome("b"))
        records = load_journal(path)
        assert set(records) == {"a", "b"}
        assert records["a"]["outcome"]["status"] == "solved"
        assert records["b"]["fingerprint"] == "f" * 32

    def test_closed_writer_refuses_appends(self, tmp_path):
        writer = JournalWriter(tmp_path / "j.jsonl")
        writer.close()
        with pytest.raises(JournalError):
            writer.append("a", "f" * 32, _outcome("a"))

    def test_later_records_win(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with JournalWriter(path) as writer:
            writer.append("a", "f" * 32, _outcome("a", makespan=1.0))
            writer.append("a", "f" * 32, _outcome("a", makespan=2.0))
        assert load_journal(path)["a"]["outcome"]["makespan"] == 2.0

    def test_missing_file_is_empty(self, tmp_path):
        assert load_journal(tmp_path / "absent.jsonl") == {}

    def test_truncated_final_line_dropped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with JournalWriter(path) as writer:
            writer.append("a", "f" * 32, _outcome("a"))
            writer.append("b", "f" * 32, _outcome("b"))
        text = path.read_text()
        path.write_text(text[: len(text) - 25])  # parent killed mid-write
        records = load_journal(path)
        assert set(records) == {"a"}

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text("\n".join([_line("a"), "{corrupt", _line("b")]) + "\n")
        with pytest.raises(JournalError):
            load_journal(path)

    def test_foreign_record_before_the_tail_rejected(self, tmp_path):
        path = tmp_path / "j.jsonl"
        foreign = json.dumps({"record": "something-else"})
        path.write_text("\n".join([foreign, _line("a")]) + "\n")
        with pytest.raises(JournalError):
            load_journal(path)

    def test_nan_token_mid_file_is_corruption(self, tmp_path):
        """``json.loads`` accepts the NaN token by default; the loader must
        not — a NaN makespan would sail through every ``!= inf`` /
        ``<= deadline`` comparison downstream."""
        path = tmp_path / "j.jsonl"
        nan_line = _line("a").replace("1.0", "NaN", 1)
        path.write_text("\n".join([nan_line, _line("b")]) + "\n")
        with pytest.raises(JournalError, match="non-finite JSON token"):
            load_journal(path)

    def test_nan_token_in_final_line_dropped_as_torn_tail(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text("\n".join([_line("a"), _line("b").replace("1.0", "Infinity", 1)]) + "\n")
        assert set(load_journal(path)) == {"a"}

    def test_writer_refuses_non_finite_outcomes(self, tmp_path):
        with JournalWriter(tmp_path / "j.jsonl") as writer:
            with pytest.raises(ValueError):
                writer.append("a", "f" * 32, _outcome("a", makespan=float("nan")))


class TestFingerprintGuard:
    def test_stale_fingerprint_forces_resolve(self, tmp_path):
        """A journal whose fingerprint no longer matches the instance (the
        workload changed under the same name) must be ignored, not resumed."""
        journal = tmp_path / "j.jsonl"
        policy = ServePolicy(timeout=30.0, backoff_base=0.0)
        inst_v1 = FleetInstance(
            name="inst", jobs=random_mixed_instance(6, 8, seed=1).jobs, m=8,
            algorithm="two_approx",
        )
        first = schedule_many(
            [inst_v1], policy=policy, max_workers=1, mp_context="fork", journal=journal
        )
        assert first.outcome("inst").status == "solved"
        assert not first.resumed

        inst_v2 = FleetInstance(
            name="inst", jobs=random_mixed_instance(6, 8, seed=2).jobs, m=8,
            algorithm="two_approx",
        )
        second = schedule_many(
            [inst_v2], policy=policy, max_workers=1, mp_context="fork", journal=journal
        )
        outcome = second.outcome("inst")
        assert outcome.status == "solved"
        assert not outcome.resumed  # fingerprint mismatch -> solved fresh
        assert outcome.makespan != first.outcome("inst").makespan

        # same workload again: now it resumes from the journal
        third = schedule_many(
            [inst_v2], policy=policy, max_workers=1, mp_context="fork", journal=journal
        )
        assert third.outcome("inst").resumed
        assert third.outcome("inst").makespan == outcome.makespan

    def test_changed_ladder_or_chaos_forces_resolve(self, tmp_path):
        """Outcomes journalled under a different degradation ladder or chaos
        configuration must re-solve: the journalled answer may have been
        reached through a rung (or an attempt history) the current
        configuration cannot reproduce."""
        from repro.serve import ChaosPolicy, LadderStep

        journal = tmp_path / "j.jsonl"
        inst = FleetInstance(
            name="inst", jobs=random_mixed_instance(6, 8, seed=1).jobs, m=8,
            algorithm="two_approx",
        )
        policy = ServePolicy(timeout=30.0, backoff_base=0.0)
        first = schedule_many(
            [inst], policy=policy, max_workers=1, mp_context="fork", journal=journal
        )
        assert first.outcome("inst").status == "solved" and not first.resumed

        # identical everything -> resumes
        again = schedule_many(
            [inst], policy=policy, max_workers=1, mp_context="fork", journal=journal
        )
        assert again.outcome("inst").resumed

        # a different ladder -> fingerprint mismatch -> solved fresh
        short_ladder = ServePolicy(
            timeout=30.0, backoff_base=0.0,
            ladder=(LadderStep(backend="vectorized"), LadderStep(backend="scalar")),
        )
        reladdered = schedule_many(
            [inst], policy=short_ladder, max_workers=1, mp_context="fork", journal=journal
        )
        assert not reladdered.outcome("inst").resumed
        assert reladdered.outcome("inst").status == "solved"

        # a chaos policy (even an all-clean one with a new seed) -> re-solve
        rechaosed = schedule_many(
            [inst], policy=policy, chaos=ChaosPolicy(seed=99),
            max_workers=1, mp_context="fork", journal=journal,
        )
        assert not rechaosed.outcome("inst").resumed
        assert rechaosed.outcome("inst").status == "solved"
        # the result itself is configuration-independent here
        assert rechaosed.outcome("inst").makespan == first.outcome("inst").makespan
