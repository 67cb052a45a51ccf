"""Deterministic simulator and scoring engine for real-time multi-model
inference workloads on modeled accelerator hardware."""

from .costmodel import (
    CostEntry,
    CostTable,
    HardwareSystem,
    HardwareUnit,
    preset_system,
    synthetic_cost,
    synthetic_table,
)
from .errors import ConfigError, ScoringError
from .loadgen import (
    InferenceRequest,
    RequestStream,
    det_rand,
    generate_requests,
)
from .runtime import EventLog, simulate, simulate_suite, validate_schedule
from .scoring import ScoreReport, ScoringConfig, build_report
from .workload import (
    BenchmarkSuite,
    DependencyEdge,
    InputSource,
    ScenarioEntry,
    SuiteConfig,
    UnitModel,
    UsageScenario,
    accuracy_goal,
    builtin_config,
    builtin_suite,
    validate_scenario,
)

__version__ = "0.1.0"
