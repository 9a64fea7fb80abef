"""Run one replication of a workload in a fresh process and check its outputs.

Prints one JSON object: the timings, the peak resident memory, the digest of
the simulated statistics, the failed checks and, when traced, the per-layer
numbers.  ``run.py`` starts this script once per sample.

    python3 perfbench/replicate.py --workload truth_10k --seed 1 \
        --scenario S.json --pois 2501 --out DIR [--size tiny] [--setups 2] \
        [--cpu 0] [--traced]
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import heapq
import json
import math
import os
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import scenesim  # noqa: E402

if not Path(scenesim.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"scenesim imported from {scenesim.__file__}, not from {ROOT / 'src'}")

from scenesim.kernel import SimState  # noqa: E402
from scenesim.metrics import write_outputs  # noqa: E402
from scenesim.scenario import load_scenario  # noqa: E402

import workloads  # noqa: E402

CALIBRATION_KEYS = 30_000

# CSVs whose bytes must repeat for a seed; summary.csv is read row by row
# because its rtf rows measure wall time.
DIGEST_FILES = ("daily_trends.csv", "arrivals_by_node_hour.csv", "tasks.csv",
                "heatmap.csv")


def calibration_chunks(chunks: int = 6) -> dict:
    """Wall times of two fixed pure-Python loops that do not use scenesim.

    Other tenants of a shared machine slow each CPU by up to ~40% for seconds
    to minutes at a time, and they slow memory-bound and allocation-bound code
    by different amounts.  The "memory" loop makes dict lookups over a ~6 MB
    table in a scattered order (like the truth layer); the "sets" loop builds
    small frozenset unions and tests membership (like the observation scan).
    The replication is pinned to one CPU, so the loops time the CPU that runs
    the simulation.  The tables are freed before returning.
    """
    table = {f"n{i}": (i, float(i % 977)) for i in range(CALIBRATION_KEYS)}
    order = [f"n{(i * 7919) % CALIBRATION_KEYS}" for i in range(CALIBRATION_KEYS)]
    groups = [frozenset(order[j:j + 24]) for j in range(0, 2400, 24)]
    times = {"memory": [], "sets": []}
    for _ in range(chunks):
        heap, acc = [], 0.0
        t0 = time.perf_counter()
        for key in order:
            i, x = table[key]
            acc += math.hypot(x, i % 89)
            heapq.heappush(heap, (acc % 1000.0, i))
            if len(heap) > 64:
                heapq.heappop(heap)
        times["memory"].append(time.perf_counter() - t0)
    for _ in range(chunks):
        hits = 0
        t0 = time.perf_counter()
        for j in range(len(groups) - 1):
            for k in range(240):
                hits += order[k] in (groups[j] | groups[j + 1])
        times["sets"].append(time.perf_counter() - t0)
    return times


def calibration_s(before: dict, after: dict) -> float:
    """Geometric mean of the two loops' median chunk times around a replication."""
    return math.sqrt(statistics.median(before["memory"] + after["memory"])
                     * statistics.median(before["sets"] + after["sets"]))


def read_summary(outdir: Path) -> dict:
    """(replication, metric) -> value from summary.csv, rtf rows left out."""
    with open(outdir / "summary.csv", newline="") as f:
        return {f"{row['replication']}.{row['metric']}": row["value"]
                for row in csv.DictReader(f) if row["metric"] != "rtf"}


def digest(summary: dict, counters: dict, events: int, outdir: Path) -> str:
    h = hashlib.sha256()
    h.update(json.dumps([summary, counters, events], sort_keys=True).encode())
    for name in DIGEST_FILES:
        path = outdir / name
        if path.exists():
            h.update(name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def check(state, summary: dict) -> list[str]:
    """Invariants of a finished replication; returns the violated ones."""
    failures = []
    truth, belief, ledger = state.truth, state.belief, state.ledger
    spawned = int(summary["0.objects_spawned"])
    expired = int(summary["0.objects_expired"])
    if spawned - expired != len(truth.objects):
        failures.append(f"spawned {spawned} - expired {expired} != "
                        f"{len(truth.objects)} live objects")

    occupancy = Counter((o.attached_to, o.semantic_class) for o in truth.objects.values())
    over = [key for key, n in occupancy.items()
            if n > truth.path_nodes[key[0]].capacity.get(key[1], 0)]
    if over:
        failures.append(f"occupancy over capacity at {sorted(over)[:5]}")

    # A believed object is the live true object of that id, or one that was
    # spawned and has expired by the end of the run.
    phantoms = [
        oid for oid, obj in belief.objects.items()
        if truth.objects.get(oid, obj) != obj
        or not (obj.t_lifetime > 0 and obj.t_spawn <= state.t_end)
        or (oid not in truth.objects and obj.t_spawn + obj.t_lifetime > state.t_end)
    ]
    if phantoms:
        failures.append(f"believed objects never spawned: {sorted(phantoms)[:5]}")

    completed, issued = ledger.counters["tasks_completed"], ledger.counters["tasks_issued"]
    if completed > issued:
        failures.append(f"tasks_completed {completed} > tasks_issued {issued}")

    share = float(summary["0.up_to_date_share_pct"])
    if not 0.0 <= share <= 100.0:
        failures.append(f"up_to_date_share_pct {share} outside [0, 100]")
    return failures


def check_trace(tracer, counters: dict, events: int) -> list[str]:
    """The traced event counts and span self times must be consistent."""
    failures = []
    kinds = tracer.events
    expected = {
        "spawn": counters.get("spawned", 0) + counters.get("discarded_private", 0)
                 + counters.get("discarded_capacity", 0),
        "expiry": counters.get("expired", 0),
        "task_arrival": counters.get("tasks_issued", 0),
    }
    for kind, n in expected.items():
        if kinds[kind] != n:
            failures.append(f"traced {kind} events {kinds[kind]} != ledger {n}")
    if sum(kinds.values()) != events:
        failures.append(f"traced events {sum(kinds.values())} != run() count {events}")
    run_s = sum(tracer.durations["kernel.run"])
    self_sum = sum(tracer.self_s.values())
    if abs(self_sum - run_s) > 1e-6 * run_s + 1e-9:
        failures.append(f"layer self times sum to {self_sum} s, run() span is {run_s} s")
    if tracer.missing:
        failures.append(f"trace hooks not found: {tracer.missing}")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scenario", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--pois", type=int, required=True,
                        help="PoIs in the scenario, depot included")
    parser.add_argument("--size", default="full", choices=workloads.SIZES)
    parser.add_argument("--setups", type=int, default=1,
                        help="set-ups to time; the first one is run")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--run-id", default="run")
    parser.add_argument("--cpu", type=int, default=None, help="CPU to pin to")
    args = parser.parse_args()
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    outdir = Path(args.out)
    tracer = None
    if args.traced:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    # The config is part of the input, so it is built before timing starts.
    config = workloads.build_config(args.workload, args.seed, args.size, args.pois)

    def set_up():
        t0 = time.perf_counter()
        graph = load_scenario(args.scenario)
        t1 = time.perf_counter()
        state = SimState(graph, config, args.seed,
                         trace=tracer.on_event if tracer else None)
        state.initialize()
        return graph, state, t0, t1, time.perf_counter()

    # The calibration brackets set-up, run and export; it runs outside the
    # window whose peak memory is reported.
    cal_before = calibration_chunks()
    graph, state, t0, t1, t2 = set_up()
    events = state.run()
    t3 = time.perf_counter()
    write_outputs([state.ledger], graph, outdir)
    t4 = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    cal_after = calibration_chunks()

    summary = read_summary(outdir)
    counters = dict(sorted(state.ledger.counters.items()))
    failures = check(state, summary)
    setups = [t2 - t0]
    for _ in range(args.setups - 1):
        _, _, s0, _, s2 = set_up()
        setups.append(s2 - s0)
    result = {
        "setup_s": setups,
        "run_s": t3 - t2,
        "export_s": t4 - t3,
        "result_s": t4 - t0,
        "rtf": state.t_end / (t3 - t2),
        "events": events,
        "calibration_s": calibration_s(cal_before, cal_after),
        "calibration_chunks_s": [cal_before, cal_after],
        "peak_rss_mb": peak_rss_mb,
        "digest": digest(summary, counters, events, outdir),
    }
    if tracer is not None:
        tracer.uninstall()
        failures += check_trace(tracer, counters, events)
        layers = tracer.layer_metrics()
        layers["scenario.load_s"] = t1 - t0
        layers["kernel.init_s"] = t2 - t1
        layers["metrics.export_s"] = t4 - t3
        result["layers"] = layers
        tracer.save(outdir / "spans.npz", args.run_id)
    result["failures"] = failures
    print(json.dumps(result))


if __name__ == "__main__":
    main()
