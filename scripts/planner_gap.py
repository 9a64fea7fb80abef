"""Compare task-delay error of the static and observed planners.

Runs the same obstacle-heavy synthetic scenario with both planner modes and
prints the mean absolute normalized prediction error per mode, replicating
the belief-vs-truth gap experiment on a desk-scale grid.  Each mode's line
also gives the wall seconds of its runs and their real-time factor
(simulated seconds per wall second), so ``--cols``/``--rows`` give the
planner's scaling, e.g.::

    python scripts/planner_gap.py --cols 80 --rows 40 --days 1 --warmup-hours 2
"""

import argparse
import time

from scenesim.config import FleetConfig, SimConfig, TaskSpec
from scenesim.kernel import run_replications
from scenesim.processes import ProcessSpec
from scenesim.stochastic import RateProfile
from scenesim.synthetic import grid_scenario

HOUR = 3600.0
DAY = 86400.0
ALL_PLACES = frozenset({"housing", "retail", "work", "education"})


def build_scenario(cols=20, rows=10, spacing=20.0):
    return grid_scenario(cols, rows, spacing=spacing)


def build_config(mode, *, rate_per_hour, lifetime_hours, footprint,
                 task_rate, agents, sensor_radius, days, warmup_hours, seed):
    return SimConfig(
        processes=[ProcessSpec(
            name="parked_cars",
            source_classes=ALL_PLACES,
            object_classes=frozenset({"car"}),
            rate_profile=RateProfile.constant(rate_per_hour),
            footprint_area=footprint,
            lifetime_mean=lifetime_hours * HOUR,
        )],
        tasks=[TaskSpec("deliveries", ALL_PLACES,
                        RateProfile.constant(task_rate))],
        fleet=FleetConfig(count=agents, sensor_radius=sensor_radius,
                          planner_mode=mode),
        duration=days * DAY,
        warmup=warmup_hours * HOUR,
        seed=seed,
    )


def mean_delay(scenario, config, replications):
    """(mean delay %, tasks, wall seconds) over the replications."""
    started = time.perf_counter()
    ledgers = run_replications(scenario, config, replications, config.seed)
    wall = time.perf_counter() - started
    delays = [l.mean_task_delay_pct() for l in ledgers]
    tasks = sum(len(l.tasks) for l in ledgers)
    return sum(delays) / len(delays), tasks, wall


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rate", type=float, default=1.0,
                        help="spawns per hour per process instance")
    parser.add_argument("--lifetime-hours", type=float, default=8.0)
    parser.add_argument("--footprint", type=float, default=4.0)
    parser.add_argument("--task-rate", type=float, default=0.1,
                        help="tasks per hour per PoI")
    parser.add_argument("--cols", type=int, default=20, help="grid columns")
    parser.add_argument("--rows", type=int, default=10, help="grid rows")
    parser.add_argument("--agents", type=int, default=3)
    parser.add_argument("--sensor-radius", type=float, default=45.0)
    parser.add_argument("--days", type=float, default=4.0)
    parser.add_argument("--warmup-hours", type=float, default=24.0)
    parser.add_argument("--replications", type=int, default=1)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    scenario = build_scenario(args.cols, args.rows)
    print(f"grid: {len(scenario.path_nodes)} path nodes, "
          f"{len(scenario.poi_nodes)} PoIs")
    results = {}
    for mode in ("static", "observed"):
        config = build_config(
            mode, rate_per_hour=args.rate, lifetime_hours=args.lifetime_hours,
            footprint=args.footprint, task_rate=args.task_rate,
            agents=args.agents, sensor_radius=args.sensor_radius,
            days=args.days, warmup_hours=args.warmup_hours, seed=args.seed)
        delay, tasks, wall = mean_delay(scenario, config, args.replications)
        results[mode] = delay
        rtf = config.duration * args.replications / wall
        print(f"{mode:>8}: mean |d| = {delay:.3f}% over {tasks} tasks; "
              f"wall {wall:.2f} s, RTF {rtf:,.0f}")
    if results["observed"]:
        print(f"   ratio: {results['static'] / results['observed']:.2f}x")


if __name__ == "__main__":
    main()
