"""Core scheduling algorithms and data structures.

The public surface mirrors the paper's structure:

* job models and oracles (:mod:`repro.core.job`);
* the canonical allotment :func:`repro.core.allotment.gamma`;
* schedules with machine spans and feasibility validation;
* the compression lemmas (:mod:`repro.core.compression`);
* bounds / estimator, list scheduling and the 2-approximation baseline;
* the dual-approximation framework, the FPTAS (Theorem 2), the MRT baseline
  and the accelerated `(3/2+eps)` algorithms (Theorem 3);
* the :func:`repro.core.scheduler.schedule_moldable` facade.
"""

from .allotment import Allotment, canonical_allotment, gamma, gamma_batch
from .bounded_algorithm import bounded_dual, bounded_schedule
from .certificates import Certificate, extract_certificate, replay_certificate, verify_certificate
from .bounds import (
    EstimatorResult,
    ludwig_tiwari_estimator,
    makespan_lower_bound,
    serial_upper_bound,
    trivial_lower_bound,
)
from .compressible_algorithm import compressible_dual, compressible_schedule
from .compression import (
    CompressionParams,
    compressed_count,
    compression_time_bound,
    is_compressible,
    params_for_delta,
    verify_compression_lemma,
)
from .dual import DualSearchResult, dual_binary_search
from .exact_small import exact_makespan, exact_schedule, exact_solver_applicable
from .fptas import fptas_dual, fptas_machine_threshold, fptas_schedule, ptas_schedule
from .job import (
    AmdahlJob,
    CommunicationJob,
    MoldableJob,
    OracleJob,
    PowerLawJob,
    RigidJob,
    TabulatedJob,
    max_sequential_time,
    total_minimal_work,
)
from .list_scheduling import list_schedule, list_schedule_bound
from .mrt import mrt_dual, mrt_schedule
from .replan import (
    EpochPartition,
    PlacedEntry,
    ReplanError,
    ReplanOutcome,
    ReplanState,
    availability_prefix,
    remap_spans,
    segment_algorithm,
)
from .rounding import RoundedJob, RoundingScheme, round_jobs_to_types
from .schedule import MachineSpan, Schedule, ScheduledJob
from .scheduler import ALGORITHMS, SchedulingResult, schedule_moldable
from .shelves import (
    ThreeShelfDiagnostics,
    TwoShelfSchedule,
    build_three_shelf_schedule,
    build_two_shelf_schedule,
    partition_small_big,
    shelf_profit,
    small_jobs_work,
)
from .two_approx import TwoApproxResult, two_approximation
from .validation import (
    ValidationError,
    ValidationReport,
    assert_valid_schedule,
    check_monotone_job,
    is_monotone_work,
    is_nonincreasing_time,
    validate_schedule,
)

__all__ = [
    # jobs
    "MoldableJob",
    "TabulatedJob",
    "OracleJob",
    "AmdahlJob",
    "PowerLawJob",
    "CommunicationJob",
    "RigidJob",
    "total_minimal_work",
    "max_sequential_time",
    # allotment / schedule
    "gamma",
    "gamma_batch",
    "canonical_allotment",
    "Allotment",
    "MachineSpan",
    "ScheduledJob",
    "Schedule",
    # validation
    "ValidationError",
    "ValidationReport",
    "validate_schedule",
    "assert_valid_schedule",
    "is_nonincreasing_time",
    "is_monotone_work",
    "check_monotone_job",
    # compression
    "CompressionParams",
    "compressed_count",
    "compression_time_bound",
    "is_compressible",
    "params_for_delta",
    "verify_compression_lemma",
    # bounds & baselines
    "trivial_lower_bound",
    "serial_upper_bound",
    "EstimatorResult",
    "ludwig_tiwari_estimator",
    "makespan_lower_bound",
    "list_schedule",
    "list_schedule_bound",
    "TwoApproxResult",
    "two_approximation",
    # dual framework & algorithms
    "DualSearchResult",
    "dual_binary_search",
    "fptas_machine_threshold",
    "fptas_dual",
    "fptas_schedule",
    "ptas_schedule",
    "mrt_dual",
    "mrt_schedule",
    "compressible_dual",
    "compressible_schedule",
    "bounded_dual",
    "bounded_schedule",
    "exact_solver_applicable",
    "exact_makespan",
    "exact_schedule",
    # incremental re-planning core
    "ReplanError",
    "ReplanState",
    "ReplanOutcome",
    "EpochPartition",
    "PlacedEntry",
    "availability_prefix",
    "remap_spans",
    "segment_algorithm",
    # shelves & rounding
    "partition_small_big",
    "small_jobs_work",
    "shelf_profit",
    "TwoShelfSchedule",
    "build_two_shelf_schedule",
    "ThreeShelfDiagnostics",
    "build_three_shelf_schedule",
    "RoundedJob",
    "RoundingScheme",
    "round_jobs_to_types",
    # certificates
    "Certificate",
    "extract_certificate",
    "replay_certificate",
    "verify_certificate",
    # facade
    "ALGORITHMS",
    "SchedulingResult",
    "schedule_moldable",
]
