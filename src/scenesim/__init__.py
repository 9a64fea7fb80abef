"""Discrete-event simulation of dynamic scene graphs under partial observation."""

from .graph import (
    ClassRegistry,
    DEFAULT_REGISTRY,
    Edge,
    ObjectNode,
    Observation,
    ObservedGraph,
    PathNode,
    PoiNode,
    SceneGraph,
    up_to_date,
)
from .stochastic import (
    RandomStream,
    RateProfile,
    balanced_mean_lifetime,
    next_nhpp_interarrival,
)
from .processes import ProcessSpec, ProcessInstance, instantiate_processes
from .agents import Agent, Task, node_velocity, observe, plan_path
from .config import FleetConfig, SimConfig, TaskSpec
from .kernel import SimState, run_replications
from .metrics import MetricsLedger, signed_task_delay
from .scenario import load_config, load_scenario, save_scenario

__version__ = "0.1.0"
