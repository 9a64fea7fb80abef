"""Run configuration dataclasses (parsed from YAML by scenario_io)."""

from __future__ import annotations

from dataclasses import dataclass, field

from .agents import PLANNER_OBSERVED
from .processes import DEFAULT_SEARCH_BOUND, ProcessSpec
from .stochastic import RateProfile


@dataclass
class FleetConfig:
    count: int = 1
    default_velocity: float = 1.5
    agent_width: float = 0.5
    sensor_radius: float = 20.0
    planner_mode: str = PLANNER_OBSERVED


@dataclass
class TaskSpec:
    """Delivery-task generator: one NHPP per PoI of a matching place class."""

    name: str
    place_classes: frozenset
    rate_profile: RateProfile


@dataclass
class SimConfig:
    processes: list[ProcessSpec] = field(default_factory=list)
    tasks: list[TaskSpec] = field(default_factory=list)
    fleet: FleetConfig = field(default_factory=FleetConfig)
    duration: float = 22 * 86400.0
    warmup: float = 48 * 3600.0
    replications: int = 5
    seed: int = 1
    drain_search_bound: float = DEFAULT_SEARCH_BOUND
