"""Benchmark workloads: the scenario and run configuration each one simulates.

Every workload is one replication of a synthetic grid that starts at
midnight.  The scenario is fixed by the workload; the seed drives the
simulator's random streams, so the same seed always gives the same inputs.
``size="tiny"`` shrinks the grid and the horizon for the smoke test and keeps
every other parameter.
"""

from __future__ import annotations

from scenesim.config import FleetConfig, SimConfig, TaskSpec
from scenesim.processes import ProcessSpec
from scenesim.stochastic import RateProfile
from scenesim.synthetic import grid_scenario

HOUR = 3600.0

# Place classes that spawn cars and tasks, as in scripts/planner_gap.py.
ALL_PLACES = frozenset({"housing", "retail", "work", "education"})

# The agent workloads use planner_gap.py's defaults except the task rate and
# the horizon.  At its 0.1 tasks/h per PoI the 3 agents are busy 70-90% of the
# time, and the events of an 8 h run vary by +-14% between seeds.  At 0.3 the
# fleet is saturated, so the work per simulated hour is set by the fleet and
# varies by about 2% between seeds.  3 h (1 h warm-up) instead of 8 h keeps a
# replication near 3 s, so a run holds enough replications for a steady median.

# Criterion 12's aggregate load (3 spawns/h per node of its 71x71 grid)
# spread over truth_10k's 100x100 nodes; the tiny grid keeps the per-node load.
TRUTH_RATE_PER_NODE = 3.0 * 5041 / 10000
# Daily shape with mean 1.  The 8 h run covers four off-peak hours
# (rate/peak = 1/3) and four peak hours, so the thinning step rejects
# candidates while the run's mean load equals the daily mean.
TRUTH_SHAPE = (0.5,) * 4 + (1.5,) * 4 + (1.0,) * 16

WORKLOADS = {
    "truth_10k": {
        "grid": (100, 100),
        "tiny_grid": (12, 12),
        "hours": 8.0,
        "warmup_hours": 0.0,
        "process": {"rate_per_node_per_hour": TRUTH_RATE_PER_NODE,
                    "daily_shape": TRUTH_SHAPE,
                    "lifetime_s": 600.0, "footprint_m2": 1.0},
        "tasks_per_poi_per_hour": 0.0,
        "agents": 0,
        "why": "truth layer only at 10k nodes: kernel queue, NHPP thinning, "
               "capacity drain and metric hooks, the largest set-up and memory; "
               "no observe, merge or plan",
    },
    "agents_observed_800": {
        "grid": (40, 20),
        "tiny_grid": (10, 6),
        "hours": 3.0,
        "warmup_hours": 1.0,
        "process": {"rate_per_poi_per_hour": 1.0, "lifetime_s": 8 * HOUR,
                    "footprint_m2": 4.0},
        "tasks_per_poi_per_hour": 0.3,
        "agents": 3,
        "sensor_radius_m": 45.0,
        "planner": "observed",
        "why": "the paper's belief-vs-truth run: observe and merge on every "
               "node entry and exit, en-route A* replans over believed costs",
    },
    "agents_static_800": {
        "grid": (40, 20),
        "tiny_grid": (10, 6),
        "hours": 3.0,
        "warmup_hours": 1.0,
        "process": {"rate_per_poi_per_hour": 1.0, "lifetime_s": 8 * HOUR,
                    "footprint_m2": 4.0},
        "tasks_per_poi_per_hour": 0.3,
        "agents": 3,
        "sensor_radius_m": 45.0,
        "planner": "static",
        "why": "same scenario with the static planner: observe and merge still "
               "run, but no en-route replans and constant A* costs",
    },
}

SIZES = ("full", "tiny")


def horizon(name: str, size: str) -> tuple[float, float]:
    """(duration, warm-up) in simulated seconds."""
    spec = WORKLOADS[name]
    if size == "tiny":
        return 1.0 * HOUR, (0.25 * HOUR if spec["warmup_hours"] else 0.0)
    return spec["hours"] * HOUR, spec["warmup_hours"] * HOUR


def build_scenario(name: str, size: str):
    cols, rows = WORKLOADS[name]["tiny_grid" if size == "tiny" else "grid"]
    return grid_scenario(cols, rows)


def build_config(name: str, seed: int, size: str, poi_count: int) -> SimConfig:
    """Run configuration; ``poi_count`` is the scenario's PoIs, depot included."""
    spec = WORKLOADS[name]
    duration, warmup = horizon(name, size)
    if spec["agents"] == 0:
        cols, rows = spec["tiny_grid" if size == "tiny" else "grid"]
        per_poi = spec["process"]["rate_per_node_per_hour"] * cols * rows / (poi_count - 1)
        profile = RateProfile(tuple(per_poi * w for w in spec["process"]["daily_shape"]))
        return SimConfig(
            processes=[ProcessSpec("cars", ALL_PLACES, frozenset({"car"}), profile,
                                   footprint_area=spec["process"]["footprint_m2"],
                                   lifetime_mean=spec["process"]["lifetime_s"])],
            tasks=[], fleet=FleetConfig(count=0),
            duration=duration, warmup=warmup, replications=1, seed=seed)
    return SimConfig(
        processes=[ProcessSpec(
            "parked_cars", ALL_PLACES, frozenset({"car"}),
            RateProfile.constant(spec["process"]["rate_per_poi_per_hour"]),
            footprint_area=spec["process"]["footprint_m2"],
            lifetime_mean=spec["process"]["lifetime_s"])],
        tasks=[TaskSpec("deliveries", ALL_PLACES,
                        RateProfile.constant(spec["tasks_per_poi_per_hour"]))],
        fleet=FleetConfig(count=spec["agents"],
                          sensor_radius=spec["sensor_radius_m"],
                          planner_mode=spec["planner"]),
        duration=duration, warmup=warmup, replications=1, seed=seed)
