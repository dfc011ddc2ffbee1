"""Shared fixtures for the benchmark harness.

The benchmarks use modest instance sizes so that the whole suite completes
in a few minutes; the experiment drivers in ``repro.experiments`` run the
same code on larger sweeps.
"""

from __future__ import annotations

import pytest

from repro.core.bounds import ludwig_tiwari_estimator
from repro.workloads.generators import random_mixed_instance


@pytest.fixture(scope="session")
def base_instance():
    """The workload used by most dual-step benchmarks (n=200, m=1024 < 16n)."""
    instance = random_mixed_instance(200, 1024, seed=7)
    omega = ludwig_tiwari_estimator(instance.jobs, instance.m).omega
    return instance, omega


@pytest.fixture(scope="session")
def small_instance():
    instance = random_mixed_instance(60, 64, seed=3)
    omega = ludwig_tiwari_estimator(instance.jobs, instance.m).omega
    return instance, omega
