"""Command-line interface.

Subcommands:
  import       OSM XML extract -> scenario file
  validate     load scenario (and optionally config) and report problems
  run          full simulation -> metric CSVs (optionally event traces)
  sample       truth-only long run (no agents/tasks) for ground-truth stats
  init-config  write a commented config template

Exit codes: 0 success, 1 runtime failure, 2 usage/validation error.  Every
failure exit prints ``error:`` lines to stderr, not a traceback.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .agents import PLANNER_MODES
from .errors import ScenesimError, ValidationError
from .kernel import run_replications
from .metrics import write_outputs
from .osm import import_osm
from .scenario import load_config, load_scenario, save_scenario, write_config_template


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        for violation in exc.violations:
            print(f"error: {violation}", file=sys.stderr)
        return 2
    except ScenesimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        # the kernel wraps a failing event's error with the event it hit
        if not isinstance(exc.__cause__, ScenesimError):
            raise
        print(f"error: {exc}: {exc.__cause__}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="scenesim")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("import", help="build a scenario from an OSM XML extract")
    p.add_argument("osm_xml")
    p.add_argument("output")
    p.add_argument("--center", nargs=2, type=float, metavar=("LON", "LAT"), required=True)
    p.add_argument("--radius", type=float, required=True, help="L1 range in meters")
    p.add_argument("--max-segment", type=float, default=25.0)
    p.add_argument("--sidewalk-width", type=float, default=2.0)
    p.add_argument("--name", default=None)
    p.set_defaults(func=cmd_import)

    p = sub.add_parser("validate", help="check a scenario (and optional config)")
    p.add_argument("scenario")
    p.add_argument("config", nargs="?")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("run", help="simulate and write metric CSVs")
    p.add_argument("scenario")
    p.add_argument("config")
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--replications", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--days", type=float, default=None)
    p.add_argument("--warmup-hours", type=float, default=None)
    p.add_argument("--planner", choices=PLANNER_MODES, default=None)
    p.add_argument("--trace", action="store_true", help="write per-event ndjson traces")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sample", help="truth-only Monte Carlo (agents disabled)")
    p.add_argument("scenario")
    p.add_argument("config")
    p.add_argument("--out", default="out")
    p.add_argument("--days", type=float, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("init-config", help="write a commented config template")
    p.add_argument("output")
    p.set_defaults(func=cmd_init_config)
    return parser


def cmd_import(args) -> int:
    graph = import_osm(args.osm_xml, tuple(args.center), args.radius,
                       max_segment=args.max_segment, sidewalk_width=args.sidewalk_width)
    name = args.name or Path(args.output).stem
    save_scenario(graph, args.output, name=name,
                  center=tuple(args.center), radius=args.radius)
    print(f"{args.output}: {len(graph.path_nodes)} path nodes, "
          f"{len(graph.poi_nodes)} PoIs, depot {graph.depot_id}")
    return 0


def cmd_validate(args) -> int:
    graph = load_scenario(args.scenario)
    print(f"{args.scenario}: ok ({len(graph.path_nodes)} path nodes, "
          f"{len(graph.poi_nodes)} PoIs)")
    if args.config:
        load_config(args.config, graph)
        print(f"{args.config}: ok")
    return 0


def _apply_overrides(config, args):
    """``config`` with the run's overrides, checked as the config file's values are."""
    changes = {key: getattr(args, arg) * unit for arg, key, unit in (
        ("replications", "replications", 1), ("seed", "seed", 1),
        ("days", "duration", 86400.0), ("warmup_hours", "warmup", 3600.0))
        if getattr(args, arg) is not None}
    if args.planner is not None:
        changes["fleet"] = dataclasses.replace(config.fleet, planner_mode=args.planner)
    return dataclasses.replace(config, **changes)


def cmd_run(args) -> int:
    graph = load_scenario(args.scenario)
    config = _apply_overrides(load_config(args.config, graph), args)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)

    trace_factory = None
    if args.trace:
        def trace_factory(i):
            return TraceWriter(outdir / f"trace_{i}.ndjson")

    ledgers = run_replications(graph, config, config.replications, config.seed,
                               trace_factory=trace_factory)
    for i, ledger in enumerate(ledgers):
        if dropped := ledger.counters["tasks_unreachable"]:
            print(f"warning: replication {i}: dropped {dropped} task(s) the fleet cannot reach",
                  file=sys.stderr)
    write_outputs(ledgers, graph, outdir)
    print(f"wrote metrics for {len(ledgers)} replication(s) to {outdir}")
    return 0


def cmd_sample(args) -> int:
    graph = load_scenario(args.scenario)
    config = load_config(args.config, graph)
    duration = args.days * 86400.0
    config = dataclasses.replace(
        config, seed=config.seed if args.seed is None else args.seed, duration=duration,
        warmup=min(config.warmup, duration / 2), tasks=[],
        fleet=dataclasses.replace(config.fleet, count=0))
    ledgers = run_replications(graph, config, 1, config.seed)
    write_outputs(ledgers, graph, Path(args.out))
    print(f"sampled {args.days} day(s) of ground truth into {args.out}")
    return 0


def cmd_init_config(args) -> int:
    write_config_template(args.output)
    print(f"wrote config template to {args.output}")
    return 0


class TraceWriter:
    """Per-replication trace callback writing one JSON object per event line."""

    def __init__(self, path):
        self._file = open(path, "w")

    def __call__(self, t, kind, payload):
        # a name JSON cannot encode (a YAML date, say) is written as its str()
        self._file.write(json.dumps(
            {"t": round(t, 9), "kind": kind, "payload": payload}, default=str
        ) + "\n")

    def close(self):
        self._file.close()


if __name__ == "__main__":
    sys.exit(main())
