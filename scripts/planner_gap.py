"""Compare task-delay error of the static and observed planners.

Runs the same obstacle-heavy synthetic scenario with both planner modes and
prints the mean absolute normalized prediction error per mode, replicating
the belief-vs-truth gap experiment on a desk-scale grid.  Each mode's line
also gives the wall seconds of its runs and their real-time factor
(simulated seconds per wall second), so ``--cols``/``--rows`` give the
planner's scaling, e.g.::

    python scripts/planner_gap.py --cols 80 --rows 40 --days 1 --warmup-hours 2

Replication i runs under seed ``seed ^ i`` in both modes, and the true world
does not depend on the planner, so the modes are compared on common random
numbers: each replication's paired difference observed - static in mean
|delay| % is printed, then their mean with its 95% t half-width, beside the
half-widths of the two modes' independent means (Law & Kelton, *Simulation
Modeling and Analysis*, on comparing two systems).  A replication with no
measured task in either mode has no delay; its pair is skipped and counted.
"""

import argparse
import math
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


def replication_delays(scenario, config, replications):
    """(mean delay % per replication, None where none was measured; tasks; wall seconds)."""
    started = time.perf_counter()
    ledgers = run_replications(scenario, config, replications, config.seed)
    wall = time.perf_counter() - started
    return ([l.mean_task_delay_pct() for l in ledgers],
            sum(len(l.tasks) for l in ledgers), wall)


# Student t quantiles t(0.975; df) for df = 1..30, to 3 decimals
T975 = (12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
        2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
        2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042)


def t975(df: int) -> float:
    """t(0.975; df): tabled to 30, beyond by the Cornish-Fisher expansion about z."""
    if df <= len(T975):
        return T975[df - 1]
    z = 1.959964
    return (z + (z ** 3 + z) / (4 * df) + (5 * z ** 5 + 16 * z ** 3 + 3 * z) / (96 * df ** 2)
            + (3 * z ** 7 + 19 * z ** 5 + 17 * z ** 3 - 15 * z) / (384 * df ** 3))


def mean_and_half_width(values):
    """(mean, 95% t half-width) of ``values``: (None, None) if empty; no width for one."""
    n = len(values)
    if n == 0:
        return None, None
    mean = sum(values) / n
    if n == 1:
        return mean, None
    variance = sum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, t975(n - 1) * math.sqrt(variance / n)


def _fmt(value, spec=".3f", unit=""):
    return "n/a" if value is None else format(value, spec) + unit


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
    delays, means, widths = {}, {}, {}
    for mode in ("static", "observed"):
        config = build_config(
            mode, rate_per_hour=args.rate, lifetime_hours=args.lifetime_hours,
            footprint=args.footprint, task_rate=args.task_rate,
            agents=args.agents, sensor_radius=args.sensor_radius,
            days=args.days, warmup_hours=args.warmup_hours, seed=args.seed)
        delays[mode], tasks, wall = replication_delays(scenario, config, args.replications)
        means[mode], widths[mode] = mean_and_half_width(
            [d for d in delays[mode] if d is not None])
        rtf = config.duration * args.replications / wall
        print(f"{mode:>8}: mean |d| = {_fmt(means[mode], unit='%')} over {tasks} tasks; "
              f"wall {wall:.2f} s, RTF {rtf:,.0f}")
    if means["static"] is not None and means["observed"]:
        print(f"   ratio: {means['static'] / means['observed']:.2f}x")

    diffs = []
    for i, (static, observed) in enumerate(zip(delays["static"], delays["observed"])):
        if static is not None and observed is not None:
            diffs.append(observed - static)
            print(f"  rep {i}: observed - static = {diffs[-1]:+.3f} pp")
    mean, width = mean_and_half_width(diffs)
    print(f"  paired: observed - static = {_fmt(mean, '+.3f')} +/- {_fmt(width)} pp "
          f"(95% t) over {len(diffs)} pair(s), {args.replications - len(diffs)} skipped "
          f"without a measured task; independent +/- {_fmt(widths['static'])} static, "
          f"+/- {_fmt(widths['observed'])} observed")


if __name__ == "__main__":
    main()
