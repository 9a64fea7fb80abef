"""Print every metric of every workload in one go.

    python3 perfbench/report.py [--seed 1] [--seconds 30] [--size full]

For each workload in BENCHMARK.json it runs ``run.py`` untraced (end-to-end
metrics: median, quartiles, sample count and unit) and then traced (per-layer
metrics and the tracing overhead).  Exits non-zero if any run failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="budget per run; defaults to BENCHMARK.json run_seconds")
    parser.add_argument("--size", default="full", choices=("full", "tiny"))
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(seconds),
                 "--trace", str(trace), "--size", args.size],
                capture_output=True, text=True, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                result = None
            if proc.returncode != 0 or result is None:
                print(f"  run exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
                ok = False
                continue
            print(f"  runs_attempted {result['attempted']}  runs_failed {result['failed']}\n")
            ok = ok and result["correct"] and result["failed"] == 0
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
