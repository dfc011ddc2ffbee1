"""Subprocess smoke tests for the runnable examples/.

Each example is executed exactly the way the README tells a user to run it
(``python examples/<name>.py`` with ``src`` on ``PYTHONPATH``), so import
breakage, API drift, or a crash anywhere in the script fails tier-1 —
docstring-only walkthroughs cannot rot silently.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
EXAMPLES = [
    "online_cluster_day.py",
    "cluster_with_failures.py",
    "hpc_cluster_campaign.py",
    "serve_fleet.py",
]


def run_example(name: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, str(REPO_ROOT / "examples" / name)],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
        cwd=str(REPO_ROOT),
    )


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_runs_clean(name):
    proc = run_example(name)
    assert proc.returncode == 0, proc.stderr


def test_online_example_reports_warm_start_parity():
    proc = run_example("online_cluster_day.py")
    assert proc.returncode == 0, proc.stderr
    assert "schedules bit-identical: True" in proc.stdout
    assert "reduction)" in proc.stdout
    assert "clairvoyant offline" in proc.stdout
    assert "release-aware LB" in proc.stdout
    assert "release round-trip exact: True" in proc.stdout


def test_campaign_example_reports_complete_fleet():
    proc = run_example("hpc_cluster_campaign.py")
    assert proc.returncode == 0, proc.stderr
    assert "fleet: 4 solved, 0 degraded, 0 quarantined" in proc.stdout
    assert "best schedule: two_approx" in proc.stdout
    assert "QUARANTINED" not in proc.stdout


def test_serve_fleet_example_reports_resume():
    proc = run_example("serve_fleet.py")
    assert proc.returncode == 0, proc.stderr
    assert "(complete=True)" in proc.stdout
    assert "12 of 12 resumed from the journal" in proc.stdout
    assert "journal grew by 0 lines" in proc.stdout
    assert "resumed outcomes identical to first run: True" in proc.stdout


def test_failure_example_reports_successful_recovery():
    proc = run_example("cluster_with_failures.py")
    assert proc.returncode == 0, proc.stderr
    assert "stitched schedule validates on survivors: True" in proc.stdout
    assert "simulator replay matches: True" in proc.stdout
    assert "fault plan JSON roundtrip: True" in proc.stdout
    assert "re-plans" in proc.stdout
