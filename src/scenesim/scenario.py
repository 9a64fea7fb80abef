"""Scenario (JSON) and run-config (YAML) files: load, save, validate.

The scenario file is the serialized static scene graph: class registry,
path nodes with capacities and sidewalk geometry, PoI nodes, adjacency and
access edges, and the depot id.  The config file declares processes, task
generators, fleet parameters, and run control.  Loading validates against
every graph invariant and reports all violations at once.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from .config import (FleetConfig, SimConfig, TaskSpec, run_control_violations,
                     search_bound_faults, undeclared)
from .errors import ParseError, ValidationError
from .graph import (ClassRegistry, PathNode, PoiNode, SceneGraph, path_node_faults, poi_faults,
                    scene_faults)
from .processes import ProcessSpec, footprint_faults, spec_violations
from .stochastic import RateProfile

SCENARIO_VERSION = 1


def save_scenario(graph: SceneGraph, path, name: str = "scenario",
                  center=(0.0, 0.0), radius: float = 0.0):
    """Serialize the static subgraph to JSON (sorted keys, stable bytes)."""
    data = {
        "version": SCENARIO_VERSION,
        "name": name,
        "center": list(center),
        "radius": radius,
        "classes": {
            "places": sorted(graph.registry.places),
            "objects": sorted(graph.registry.objects),
        },
        "depot": graph.depot_id,
        "path_nodes": [
            {
                "id": n.id, "x": n.x, "y": n.y, "class": n.semantic_class,
                "capacity": {k: n.capacity[k] for k in sorted(n.capacity)},
                "segment_length": n.segment_length,
                "sidewalk_width": n.sidewalk_width,
            }
            for n in (graph.path_nodes[i] for i in sorted(graph.path_nodes))
        ],
        "poi_nodes": [
            {"id": n.id, "x": n.x, "y": n.y, "class": n.semantic_class}
            for n in (graph.poi_nodes[i] for i in sorted(graph.poi_nodes))
        ],
        "edges": [
            {"kind": e.kind, "u": e.u, "v": e.v,
             "directed": e.directed, "length": e.length}
            for e in sorted(graph.static_edges, key=lambda e: (e.kind, e.u, e.v))
        ],
    }
    with open(path, "w") as f:  # streamed: no whole-file string in memory
        json.dump(data, f, indent=1, sort_keys=True)
        f.write("\n")


def load_scenario(path) -> SceneGraph:
    """Parse and validate a scenario file into a frozen scene graph."""
    return scenario_from_dict(_read(path, json.loads, json.JSONDecodeError))


def _read(path, parse, parse_error) -> dict:
    """Parse the file at ``path`` into a mapping, or raise ParseError."""
    try:
        data = parse(Path(path).read_text())
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror or exc}") from exc
    except (UnicodeDecodeError, parse_error) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError(f"{path}: expected a mapping at top level")
    return data


def _section(data: dict, key: str, violations: list) -> dict:
    """The mapping under ``data[key]`` ({} when absent or null); anything else is a violation."""
    section = data.get(key)
    if section is None:
        return {}
    if not isinstance(section, dict):
        violations.append(f"{key}: expected a mapping")
        return {}
    return section


def _listed(value, where: str, violations: list, default=()) -> list:
    """``value`` if it is a list; anything else is a violation, read as ``default``."""
    if isinstance(value, list):
        return value
    violations.append(f"{where}: expected a list")
    return list(default)


def _entries(data: dict, key: str, violations: list):
    """Yield (index, mapping) per entry under ``data[key]`` (none when absent or null);
    anything else is a violation."""
    entries = data.get(key)
    for i, entry in enumerate(() if entries is None else _listed(entries, key, violations)):
        if isinstance(entry, dict):
            yield i, entry
        else:
            violations.append(f"{key}[{i}]: expected a mapping")


def _class_names(classes: dict, key: str, violations: list) -> set | None:
    """The class names listed under ``classes[key]``; None when the list is rejected.

    A value that is not a list, or a list holding anything but strings, is
    reported here, and no class is judged undeclared against it later.
    """
    count = len(violations)
    names = _listed(classes.get(key, []), f"classes.{key}", violations)
    for i, name in enumerate(names):
        if not isinstance(name, str):
            violations.append(f"classes.{key}[{i}]: expected a string")
    return set(names) if len(violations) == count else None


def _fractional(value) -> bool:
    """True for a float that ``int()`` would truncate (or cannot convert)."""
    return isinstance(value, float) and not value.is_integer()


def scenario_from_dict(data: dict) -> SceneGraph:
    violations: list[str] = []
    report = violations.append

    # a rejected section or class list is None: its one violation stands
    # alone, as no node's class is judged undeclared against it
    classes = _section(data, "classes", violations)
    places = objects = None
    if not violations:
        places = _class_names(classes, "places", violations)
        objects = _class_names(classes, "objects", violations)
    overlap = (places or set()) & (objects or set())
    if overlap:
        report(f"classes: place/object overlap {sorted(overlap)}")
        objects -= overlap
    graph = SceneGraph(ClassRegistry(frozenset(places or ()), frozenset(objects or ())))

    pois = list(_entries(data, "poi_nodes", violations))
    flagged = [str(p.get("id")) for _, p in pois if p.get("is_depot")]
    depot_id = data.get("depot")
    if depot_id is None and len(flagged) == 1:
        depot_id = flagged[0]
    if len(flagged) > 1:
        report(f"depot: multiple depots declared: {flagged}")
    if depot_id is None:
        report("depot: no depot declared")
    elif not any(str(p.get("id")) == str(depot_id) for _, p in pois):
        report(f"depot: {depot_id!r} is not a PoI node")
    if len(flagged) == 1 and str(depot_id) != flagged[0]:
        report(f"depot: {depot_id!r} conflicts with is_depot on {flagged[0]!r}")

    # An entry is parsed whole before its record's faults are checked, so a
    # field that does not parse is its one violation.  One object per distinct
    # value: class names and positive finite lengths come from their tables,
    # and each distinct capacity map is parsed once (a fractional count kept,
    # for its fault to name it) and, once faultless, not checked again.
    inf = math.inf
    names, numbers, capacities, checked = {}, {}, {}, set()

    def shared(length: float) -> float:
        """``length`` from the number table if it is positive and finite, else as is."""
        return numbers.setdefault(length, length) if 0 < length < inf else length

    for i, spec in _entries(data, "path_nodes", violations):
        try:
            nid, x, y, cls = str(spec["id"]), float(spec["x"]), float(spec["y"]), spec["class"]
            given = spec.get("capacity", {})
            key = tuple(given.items())
            try:
                capacity = capacities.get(key)
            except TypeError:  # an unhashable count: the parse below reports it
                key = capacity = None
            if capacity is None:
                capacity = {k: v if _fractional(v) else int(v) for k, v in given.items()}
                if key is not None:
                    capacities[key] = capacity
            segment, width = float(spec["segment_length"]), float(spec["sidewalk_width"])
        except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
            report(f"path_nodes[{i}]: {exc!r}")
            continue
        if isinstance(cls, str):
            cls = names.setdefault(cls, cls)
        node = PathNode(nid, x, y, cls, capacity, shared(segment), shared(width))
        faults = path_node_faults(node, places, objects, checked)
        if faults:
            violations.extend(f"path_nodes[{i}].{fault}" for fault in faults)
        try:
            graph.add_path_node(node)
        except Exception as exc:
            report(f"path_nodes[{i}]: {exc}")

    depot = str(depot_id)
    for i, spec in pois:
        try:
            pid, x, y, cls = str(spec["id"]), float(spec["x"]), float(spec["y"]), spec["class"]
        except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
            report(f"poi_nodes[{i}]: {exc!r}")
            continue
        if isinstance(cls, str):
            cls = names.setdefault(cls, cls)
        node = PoiNode(pid, x, y, cls, pid == depot)
        faults = poi_faults(node, places)
        if faults:
            violations.extend(f"poi_nodes[{i}].{fault}" for fault in faults)
        try:
            graph.add_poi_node(node)
        except Exception as exc:
            report(f"poi_nodes[{i}]: {exc}")

    add_adjacency, add_access = graph.add_adjacency_edge, graph.add_access_edge
    for i, spec in _entries(data, "edges", violations):
        kind, u, v = spec.get("kind"), spec.get("u"), spec.get("v")
        # endpoints are node ids, converted as the nodes' own ids are
        u = u if u is None else str(u)
        v = v if v is None else str(v)
        try:
            if kind == "adjacency":
                directed = spec.get("directed", False)
                if directed is not True and directed is not False:
                    report(f"edges[{i}].directed: expected true or false, got {directed!r}")
                    continue
                add_adjacency(u, v, shared(float(spec["length"])), directed)
            elif kind == "access":
                add_access(u, v, shared(float(spec["length"])))
            else:
                report(f"edges[{i}].kind: unknown {kind!r}")
        except Exception as exc:
            report(f"edges[{i}]: {exc}")

    violations.extend(scene_faults(graph))
    if violations:
        raise ValidationError(violations)
    graph._compile_static()  # every fault freeze_static checks is reported above
    return graph


# -- config -----------------------------------------------------------------------


def load_config(path, graph: SceneGraph | None = None) -> SimConfig:
    """Parse a YAML run config; validate class references against the scenario."""
    import yaml  # only a run config is YAML, so importing scenesim leaves it unloaded
    return config_from_dict(_read(path, yaml.safe_load, yaml.YAMLError), graph)


def config_from_dict(data: dict, graph: SceneGraph | None = None) -> SimConfig:
    violations: list[str] = []
    places = graph.registry.places if graph is not None else None
    objects = graph.registry.objects if graph is not None else None

    def classes(spec, where, key, universe) -> frozenset:
        """The class names listed under ``spec[key]``; undeclared ones are reported in order."""
        names = _listed(spec[key], f"{where}.{key}", violations)
        if universe is not None:
            violations.extend(f"{where}.{fault}" for fault in undeclared(key, names, universe))
        return frozenset(names)

    def rates(spec, where) -> list:
        # a stand-in of 24 zeros for a rejected value spares a second violation
        return _listed(spec["hourly_rates"], f"{where}.hourly_rates", violations, [0.0] * 24)

    def unique(name, where, seen: set):
        if name in seen:
            violations.append(f"{where}.name: duplicate {name!r}")
        seen.add(name)

    def number(section, where, key, default):
        """``section[key]`` as the type of ``default``, its value when absent."""
        value, cast = section.get(key, default), type(default)
        if cast is int and _fractional(value):
            violations.append(f"{where}.{key}: expected an integer, got {value!r}")
            return default
        try:
            return cast(value)
        except (OverflowError, TypeError, ValueError):
            violations.append(f"{where}.{key}: expected a number, got {value!r}")
            return default

    # a name keys its sources' event payloads and random streams
    processes, names = [], set()
    for i, spec in _entries(data, "processes", violations):
        where = f"processes[{i}]"
        try:
            name = spec.get("name", f"process{i}")
            unique(name, where, names)
            source_classes = classes(spec, where, "source_classes", places)
            object_classes = classes(spec, where, "object_classes", objects)
            profile = RateProfile(tuple(rates(spec, where)))
            footprint, before = float(spec["footprint_area"]), len(violations)
            violations.extend(f"{where}.{fault}" for fault in footprint_faults(footprint))
            means = {key: float(spec[key]) for key in ("lifetime_mean", "target_population")
                     if spec.get(key) is not None}
            sidewalk_p = float(spec.get("sidewalk_probability", 1.0))
            violations.extend(f"{where}.{fault}" for fault in spec_violations(
                means.get("lifetime_mean"), means.get("target_population"), sidewalk_p))
            if len(violations) > before:  # reported keyed by field, so the spec is not built
                continue
            processes.append(ProcessSpec(name, source_classes, object_classes, profile,
                                         footprint, sidewalk_p, **means))
        except (KeyError, TypeError, ValueError) as exc:
            violations.append(f"{where}: {exc!r}")

    tasks, names = [], set()
    for i, spec in _entries(data, "tasks", violations):
        where = f"tasks[{i}]"
        try:
            name = spec.get("name", f"tasks{i}")
            unique(name, where, names)
            tasks.append(TaskSpec(name, classes(spec, where, "place_classes", places),
                                  RateProfile(tuple(rates(spec, where)))))
        except (KeyError, TypeError, ValueError) as exc:
            violations.append(f"{where}: {exc!r}")

    fleet_data, default = _section(data, "fleet", violations), FleetConfig()
    try:  # the fleet checks its own rules when built
        fleet = FleetConfig(
            planner_mode=fleet_data.get("planner_mode", default.planner_mode),
            **{key: number(fleet_data, "fleet", key, getattr(default, key))
               for key in ("count", "default_velocity", "agent_width", "sensor_radius")},
        )
    except ValidationError as exc:
        violations.extend(exc.violations)

    sim, default = _section(data, "sim", violations), SimConfig()
    duration = number(sim, "sim", "duration_days", default.duration / 86400.0) * 86400.0
    warmup = number(sim, "sim", "warmup_hours", default.warmup / 3600.0) * 3600.0
    replications = number(sim, "sim", "replications", default.replications)
    violations.extend(f"sim.{fault}" for fault in
                      run_control_violations(duration, warmup, replications))
    bound = number(sim, "sim", "drain_search_bound", default.drain_search_bound)
    violations.extend(f"sim.{fault}" for fault in search_bound_faults(bound))
    seed = number(sim, "sim", "seed", default.seed)

    if violations:
        raise ValidationError(violations)
    return SimConfig(processes=processes, tasks=tasks, fleet=fleet, duration=duration,
                     warmup=warmup, replications=replications, seed=seed, drain_search_bound=bound)


CONFIG_TEMPLATE = """\
# scenesim run configuration
#
# Rates are arrivals per hour, 24 bins indexed by hour-of-day.
# Capacities, rates, and lifetimes below are synthetic placeholders, not
# values calibrated from real statistics.

processes:
  - name: housing_cars
    source_classes: [housing]
    object_classes: [car]
    # night maximum, midday minimum
    hourly_rates: [6, 6, 6, 6, 6, 5, 4, 3, 2, 1, 1, 1,
                   1, 1, 2, 2, 3, 4, 5, 5, 6, 6, 6, 6]
    footprint_area: 4.0
    sidewalk_probability: 1.0
    lifetime_mean: 14400.0        # seconds; or use target_population instead

tasks:
  - name: deliveries
    place_classes: [housing, retail]
    hourly_rates: [0, 0, 0, 0, 0, 0, 1, 2, 3, 3, 3, 4,
                   4, 3, 3, 3, 2, 2, 2, 1, 1, 0, 0, 0]

fleet:
  count: 2
  default_velocity: 1.5           # m/s
  agent_width: 0.5                # m
  sensor_radius: 20.0             # m
  planner_mode: observed          # observed | static

sim:
  duration_days: 22
  warmup_hours: 48
  replications: 5
  seed: 1
  drain_search_bound: 300.0       # m network distance for the capacity search
"""


def write_config_template(path):
    Path(path).write_text(CONFIG_TEMPLATE)
