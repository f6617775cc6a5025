"""CAMEO reproduction: a two-level stacked-DRAM memory-organization simulator.

Reproduces *CAMEO: A Two-Level Memory Organization with Capacity of Main
Memory and Flexibility of Hardware-Managed Cache* (Chou, Jaleel, Qureshi;
MICRO 2014) as a pure-Python, trace-driven memory-system simulator.

Quickstart::

    from repro import run_workload

    baseline = run_workload("baseline", "milc")
    cameo = run_workload("cameo", "milc")
    print(f"CAMEO speedup on milc: {cameo.speedup_over(baseline):.2f}x")

The main layers:

* :mod:`repro.config` — Table I parameters and scaled system geometry.
* :mod:`repro.core` — the paper's contribution: congruence groups, the
  Line Location Table and its three storage designs, and the Line
  Location Predictor.
* :mod:`repro.orgs` — every evaluated organization (Alloy Cache, the TLM
  family, DoubleUse, the no-stacked baseline).
* :mod:`repro.workloads` — the Table II workload registry and synthetic
  SPEC-like trace generation.
* :mod:`repro.sim` — the trace-driven engine and high-level runners.
* :mod:`repro.experiments` — one function per paper table/figure.
"""

from .config import SystemConfig, scaled_paper_system
from .core import (
    CongruenceSpace,
    LastLocationPredictor,
    LineLocationTable,
    PerfectPredictor,
    SamPredictor,
)
from .errors import (
    ConfigurationError,
    FaultError,
    RecoveryExhaustedError,
    ReproError,
    SimulationError,
    WorkloadError,
)
from .faults import FaultConfig, FaultInjector, FaultStats, RetryPolicy
from .orgs import MemoryOrganization, build_organization, organization_names
from .sim import (
    RunResult,
    SpeedupReport,
    build_speedup_report,
    run_configs,
    run_workload,
)
from .workloads import WORKLOADS, WorkloadSpec, workload, workload_names

__version__ = "1.0.0"

__all__ = [
    "ConfigurationError",
    "CongruenceSpace",
    "FaultConfig",
    "FaultError",
    "FaultInjector",
    "FaultStats",
    "LastLocationPredictor",
    "LineLocationTable",
    "MemoryOrganization",
    "PerfectPredictor",
    "RecoveryExhaustedError",
    "ReproError",
    "RetryPolicy",
    "RunResult",
    "SamPredictor",
    "SimulationError",
    "SpeedupReport",
    "SystemConfig",
    "WORKLOADS",
    "WorkloadError",
    "WorkloadSpec",
    "build_organization",
    "build_speedup_report",
    "organization_names",
    "run_configs",
    "run_workload",
    "scaled_paper_system",
    "workload",
    "workload_names",
    "__version__",
]
