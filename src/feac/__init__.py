"""Emergency-aware access control: planning, enforcement, audit, simulation."""

from .audit import AuditFormatError, AuditLog, AuditRecord, parse_trace, replay_store
from .checks import CheckViolation, check_trace
from .engine import EngineConfig, EngineError, ScenarioEvent, SystemState, engine_tick
from .fault import apply_fault_tolerance, find_substitute
from .model import (
    AclEntry,
    Decision,
    Emergency,
    Op,
    PolicyStore,
    RoleKind,
    RoleMapping,
    Subject,
    SystemObject,
    TaskSet,
    Violation,
    acl_check,
    serialize_store,
    validate_store,
)
from .planner import (
    InfluencePair,
    InfluenceSpec,
    PlannerConfig,
    PlanPath,
    PlanStep,
    build_transition_graph,
    compute_p_value,
    select_optimal_path,
)
from .scenario import Diagnostic, Scenario, load_scenario, parse_scenario, print_scenario
from .sim import SimTrace, run_simulation

__version__ = "0.1.0"

__all__ = [
    "AclEntry",
    "AuditFormatError",
    "AuditLog",
    "AuditRecord",
    "CheckViolation",
    "Decision",
    "Diagnostic",
    "Emergency",
    "EngineConfig",
    "EngineError",
    "InfluencePair",
    "InfluenceSpec",
    "Op",
    "PlanPath",
    "PlanStep",
    "PlannerConfig",
    "PolicyStore",
    "RoleKind",
    "RoleMapping",
    "Scenario",
    "ScenarioEvent",
    "SimTrace",
    "Subject",
    "SystemObject",
    "SystemState",
    "TaskSet",
    "Violation",
    "acl_check",
    "apply_fault_tolerance",
    "build_transition_graph",
    "check_trace",
    "compute_p_value",
    "engine_tick",
    "find_substitute",
    "load_scenario",
    "parse_scenario",
    "parse_trace",
    "print_scenario",
    "replay_store",
    "run_simulation",
    "select_optimal_path",
    "serialize_store",
    "validate_store",
]
