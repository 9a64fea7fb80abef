"""scenesim benchmark: one workload, measured for a fixed wall-clock budget.

    python3 perfbench/run.py --workload truth_10k --seed 1 --seconds 30 --trace 0

Writes the workload's scenario JSON from the seed before timing starts, then
runs fresh-process replications of it (``replicate.py``) until the budget is
spent.  Every replication uses the same seed, so their simulated statistics
must be identical; each one's outputs are checked, and a replication that
raises or fails a check counts in ``failed``.

``--trace 0`` reports the end-to-end metrics (median over replications).
``--trace 1`` alternates untraced and traced replications and reports the
per-layer metrics of the traced ones, plus the tracing overhead.  Human
readable tables go to stdout first; the last line is one JSON object.
Scratch files, the raw per-replication results (``results.json``) and the
span files of traced replications go to ``perfbench/.work/<workload>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text()) \
    if (ROOT / "BENCHMARK.json").exists() else None

# Set-ups timed per replication; the set-up metric is their median.
SETUPS = 2
CHILD_TIMEOUT_S = 120
# Calibration time (replicate.calibration_s) that reported times are scaled
# to: about what the calibration takes on an idle 2-core Xeon host.
REFERENCE_CALIBRATION_S = 0.022


def machine_scale(result: dict) -> float:
    """Factor that turns a time measured in a replication into reference time.

    The machine is shared, and other tenants slow it by up to ~40% for
    seconds to minutes at a time.  Each replication times fixed calibration
    loops right before set-up and right after export; scaling by them removes
    most of that drift from run-to-run comparisons.
    """
    return REFERENCE_CALIBRATION_S / result["calibration_s"]


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def quietest_cpu() -> int | None:
    """The CPU on which a short probe loop runs fastest right now.

    The slowdowns other tenants cause are independent between this
    machine's CPUs, so each replication is pinned to the quieter one, and
    its calibration measures the CPU that ran it.
    """
    cpus = os.sched_getaffinity(0)
    if len(cpus) < 2:
        return None
    timings = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            probes = []
            for _ in range(3):
                t0 = time.perf_counter()
                sum(i * i % 7 for i in range(50_000))
                probes.append(time.perf_counter() - t0)
            timings.append((min(probes), cpu))
    finally:
        os.sched_setaffinity(0, cpus)
    return min(timings)[1]


def write_scenario(workload: str, size: str, path: Path) -> int:
    """Write the workload's scenario JSON; returns its PoI count."""
    from scenesim.scenario import save_scenario
    import workloads
    graph = workloads.build_scenario(workload, size)
    save_scenario(graph, path, name=workload)
    return len(graph.poi_nodes)


def replicate(args, scenario: Path, pois: int, outdir: Path, traced: bool,
              run_id: str) -> dict:
    cmd = [sys.executable, str(HERE / "replicate.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--scenario", str(scenario), "--pois", str(pois),
           "--out", str(outdir), "--size", args.size, "--run-id", run_id,
           "--setups", "1" if traced else str(SETUPS)]
    if traced:
        cmd.append("--traced")
    cpu = quietest_cpu()
    if cpu is not None:
        cmd += ["--cpu", str(cpu)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"failures": [f"{run_id}: timed out"]}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"failures": [f"{run_id}: exit {proc.returncode}: {tail[0]}"]}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def print_table(title, rows):
    print(title)
    print(f"  {'metric':40s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'n':>4s}  unit")
    for name, unit, values in rows:
        q1, med, q3 = quartiles(values)
        print(f"  {name:40s} {med:14.6g} {q1:14.6g} {q3:14.6g} {len(values):4d}  {unit}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", default="full", choices=("full", "tiny"),
                        help="tiny shrinks every workload for the smoke test")
    args = parser.parse_args()

    if SPEC is None or not (ROOT / "src" / "scenesim" / "__init__.py").is_file():
        sys.exit(f"no scenesim source tree or BENCHMARK.json under {ROOT}")
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")

    work = HERE / ".work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    scenario = work / "scenario.json"
    pois = write_scenario(args.workload, args.size, scenario)

    start = time.perf_counter()
    results = []
    while True:
        traced = bool(args.trace) and len(results) % 2 == 1
        run_id = f"{args.workload}-seed{args.seed}-rep{len(results)}"
        results.append(replicate(args, scenario, pois, work / run_id, traced, run_id))
        elapsed = time.perf_counter() - start
        per_rep = elapsed / len(results)
        # A traced run needs at least one untraced and one traced replication.
        if len(results) >= 1 + args.trace and elapsed + per_rep > args.seconds:
            break

    (work / "results.json").write_text(json.dumps(results, indent=1))
    reference = next((r["digest"] for r in results if "digest" in r), None)
    for r in results:
        if "digest" in r and r["digest"] != reference:
            r["failures"].append(f"simulated statistics differ from the first "
                                 f"replication: {r['digest'][:12]} != {reference[:12]}")
    failures = [f for r in results for f in r["failures"]]
    failed = sum(1 for r in results if r["failures"])
    ok = [r for r in results if not r["failures"]]
    plain = [r for r in ok if "layers" not in r]
    traced_ok = [r for r in ok if "layers" in r]

    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  "
          f"replications {len(results)} ({len(traced_ok)} traced)  "
          f"digest {reference[:16] if reference else '-'}")
    for failure in failures:
        print(f"  FAILED: {failure}")

    metrics = {}
    if not args.trace:
        units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        samples = {
            "rtf": [r["rtf"] / machine_scale(r) for r in plain],
            "setup_s": [s * machine_scale(r) for r in plain for s in r["setup_s"]],
            "result_s": [r["result_s"] * machine_scale(r) for r in plain],
            "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        }
        rows = [(name, units[name], values) for name, values in samples.items() if values]
        print_table("end-to-end (untraced; times scaled to the reference machine speed)",
                    rows + [
                        ("rtf as measured", units["rtf"], [r["rtf"] for r in plain]),
                        ("calibration", "s", [r["calibration_s"] for r in plain]),
                    ] if plain else rows)
        metrics = {name: {"value": quartiles(values)[1], "unit": unit}
                   for name, unit, values in rows}
    else:
        units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        rows = []
        for name, unit in units.items():
            if name == "trace.overhead_pct":
                continue
            values = [r["layers"].get(name, 0) for r in traced_ok]
            if values:
                rows.append((name, unit, values))
        if plain and traced_ok:
            # scaled like the end-to-end times, as the two ran at different moments
            base = statistics.median(r["run_s"] * machine_scale(r) for r in plain)
            overhead = statistics.median(r["run_s"] * machine_scale(r)
                                         for r in traced_ok) / base - 1
            rows.append(("trace.overhead_pct", units["trace.overhead_pct"],
                         [100.0 * overhead]))
        print_table("per-layer (traced run)", rows)
        metrics = {name: {"value": quartiles(values)[1], "unit": unit}
                   for name, unit, values in rows}

    print(json.dumps({"correct": not failures, "attempted": len(results),
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
