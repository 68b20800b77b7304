"""comal: mixed-autonomy traffic microsimulation with agent-controlled vehicles.

Human-driven vehicles follow the intelligent driver model with seeded
acceleration noise; connected autonomous vehicles run a perception ->
memory -> collaboration -> reasoning -> execution pipeline that retunes
their car-following parameters on the fly. Ships the ring, figure-eight
and merge benchmarks, traffic-flow metrics, deterministic replay, and a
CLI (``comal list|run|sweep``).
"""
from .agent import MemoryStore, PlannerSpec, ScriptedBackend, perceive, reason
from .dynamics import (CollisionError, IdmParams, VehicleState, World,
                       desired_gap, equilibrium_speed, human_params, idm_accel,
                       step)
from .harness import RunResult, export, metrics, run, sweep
from .llm_client import BackendConfig, RemoteBackend, ReplayBackend
from .network import (NetworkSpec, build_figure_eight, build_merge, build_ring,
                      leader_of)
from .scenario import ScenarioConfig, catalog, find, instantiate

__version__ = "0.1.0"

__all__ = [
    "BackendConfig", "CollisionError", "IdmParams", "MemoryStore",
    "NetworkSpec", "PlannerSpec", "RemoteBackend", "ReplayBackend",
    "RunResult", "ScenarioConfig", "ScriptedBackend", "VehicleState", "World",
    "build_figure_eight", "build_merge", "build_ring",
    "catalog", "desired_gap", "equilibrium_speed", "export",
    "find", "human_params", "idm_accel", "instantiate", "leader_of",
    "metrics", "perceive", "reason", "run", "step", "sweep",
]
