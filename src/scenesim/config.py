"""Run configuration dataclasses, parsed from YAML by ``scenario``; each checks itself.

A rule function returns the loader's ``"<field>: <problem>"`` lines; its caller adds the prefix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .agents import PLANNER_MODES, PLANNER_OBSERVED
from .errors import ValidationError
from .processes import DEFAULT_SEARCH_BOUND, ProcessSpec, positive_faults
from .stochastic import RateProfile


def fleet_faults(fleet) -> list[str]:
    """The fleet's faulty fields; NaN fails every rule, and an infinite radius sees all."""
    faults = ([] if fleet.planner_mode in PLANNER_MODES
              else [f"planner_mode: unknown {fleet.planner_mode!r}"])
    faults += [] if fleet.count >= 0 else ["count: must be >= 0"]
    faults += positive_faults("default_velocity", fleet.default_velocity, finite=True)
    faults += positive_faults("agent_width", fleet.agent_width, finite=True)
    return faults + ([] if fleet.sensor_radius >= 0 else ["sensor_radius: must be non-negative"])


def run_control_violations(duration: float, warmup: float, replications: int) -> list[str]:
    """The run-control fields' faults, keyed as in a config file's ``sim`` section.

    ``duration`` and ``warmup`` are in seconds; NaN fails every comparison
    and is reported like any other out-of-range value.  The warm-up is held
    against the duration only when that is valid, so it is reported once.
    """
    duration_ok = 0 < duration < math.inf
    violations = [] if duration_ok else ["duration_days: must be positive and finite"]
    if not 0 <= warmup or (duration_ok and warmup >= duration):
        violations.append("warmup_hours: must lie inside the run duration")
    return violations + ([] if replications >= 1 else ["replications: must be >= 1"])


def search_bound_faults(bound: float) -> list[str]:
    """The capacity search's bound is positive; an infinite one searches the whole network."""
    return positive_faults("drain_search_bound", bound)


def undeclared(key: str, names, declared) -> list[str]:
    """``"<key>: undeclared class '<name>'"`` per name not in ``declared``, once each, in order."""
    return [f"{key}: undeclared class {name!r}" for name in dict.fromkeys(names)
            if name not in declared]


@dataclass
class FleetConfig:
    count: int = 1
    default_velocity: float = 1.5
    agent_width: float = 0.5
    sensor_radius: float = 20.0
    planner_mode: str = PLANNER_OBSERVED

    def __post_init__(self):
        if faults := fleet_faults(self):
            raise ValidationError([f"fleet.{fault}" for fault in faults])


@dataclass
class TaskSpec:
    """Delivery-task generator: one NHPP per PoI of a matching place class."""

    name: str
    place_classes: frozenset
    rate_profile: RateProfile


@dataclass
class SimConfig:
    """A whole run; names are unique per section, as they key event payloads and streams."""

    processes: list[ProcessSpec] = field(default_factory=list)
    tasks: list[TaskSpec] = field(default_factory=list)
    fleet: FleetConfig = field(default_factory=FleetConfig)
    duration: float = 22 * 86400.0
    warmup: float = 48 * 3600.0
    replications: int = 5
    seed: int = 1
    drain_search_bound: float = DEFAULT_SEARCH_BOUND

    def __post_init__(self):
        faults = []
        for section in ("processes", "tasks"):
            names = [spec.name for spec in getattr(self, section)]
            faults += [f"{section}[{i}].name: duplicate {name!r}"
                       for i, name in enumerate(names) if name in names[:i]]
        faults += [f"sim.{fault}" for fault in
                   run_control_violations(self.duration, self.warmup, self.replications)
                   + search_bound_faults(self.drain_search_bound)]
        if faults:
            raise ValidationError(faults)

    def class_faults(self, registry) -> list[str]:
        """Each spec's classes that the scene's ``registry`` does not declare, in name order."""
        checks = {"processes": (("source_classes", registry.places),
                                ("object_classes", registry.objects)),
                  "tasks": (("place_classes", registry.places),)}
        return [f"{section}[{i}].{fault}" for section, keys in checks.items()
                for i, spec in enumerate(getattr(self, section)) for key, declared in keys
                for fault in undeclared(key, sorted(getattr(spec, key), key=str), declared)]
