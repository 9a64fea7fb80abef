"""Scenario JSON and run-config YAML: round trips and validation."""

import dataclasses
import hashlib
import json
import math
import re

import networkx as nx
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from scenesim import graph as graph_module
from scenesim.cli import main
from scenesim.config import SimConfig
from scenesim.errors import ParseError, ValidationError
from scenesim.graph import PathNode, PoiNode, SceneGraph, scene_faults
from scenesim.kernel import SimState, run_replications
from scenesim.scenario import (
    CONFIG_TEMPLATE,
    config_from_dict,
    load_config,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    write_config_template,
)
from scenesim.routing import components
from scenesim.stochastic import hour_of_day
from scenesim.synthetic import grid_scenario, line_scenario
from conftest import id_adjacency


def scenario_dict(**overrides):
    """A minimal valid two-node scenario, as parsed JSON."""
    base = {
        "version": 1,
        "classes": {
            "places": ["sidewalk", "housing"],
            "objects": ["car"],
        },
        "depot": "d",
        "path_nodes": [
            {"id": "p0", "x": 0.0, "y": 0.0, "class": "sidewalk",
             "capacity": {"car": 2}, "segment_length": 10.0,
             "sidewalk_width": 2.0},
            {"id": "p1", "x": 10.0, "y": 0.0, "class": "sidewalk",
             "capacity": {"car": 2}, "segment_length": 10.0,
             "sidewalk_width": 2.0},
        ],
        "poi_nodes": [
            {"id": "d", "x": 0.0, "y": 5.0, "class": "housing"},
        ],
        "edges": [
            {"kind": "adjacency", "u": "p0", "v": "p1", "length": 10.0},
            {"kind": "access", "u": "d", "v": "p0", "length": 5.0},
        ],
    }
    base.update(overrides)
    return base


def violations_of(data) -> str:
    with pytest.raises(ValidationError) as exc:
        scenario_from_dict(data)
    return "\n".join(exc.value.violations)


class TestScenarioRoundTrip:
    def test_save_load_preserves_structure(self, tmp_path):
        graph = grid_scenario(4, 3)
        path = tmp_path / "scenario.json"
        save_scenario(graph, path)
        loaded = load_scenario(path)
        assert loaded.static_hash() == graph.static_hash()
        assert loaded.depot_id == graph.depot_id
        assert sorted(loaded.path_nodes) == sorted(graph.path_nodes)
        assert id_adjacency(loaded) == id_adjacency(graph)

    def test_save_is_byte_stable(self, tmp_path):
        graph = line_scenario(4, pois=((3, "retail"),))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_scenario(graph, a)
        save_scenario(graph, b)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("build, saved, static", [
        # the benchmark's two scenes
        (lambda: grid_scenario(100, 100),
         "8470ac054968b53695437e2858662127d471db3de89be8a7eda20ce5c2b8d384",
         "e32ef4038951674cb915ea8b747143ca33155716f22c9330e68b00f2fb707ecc"),
        (lambda: grid_scenario(40, 20),
         "69c3d631ffc7a5c187d3b79194af4a7028e05afe98957f0c783a3106237b21a5",
         "fae8c756d83d58e188f4fa592521f0a4b76770dc25daab7f2acc74d090c58688"),
        (lambda: grid_scenario(7, 5, spacing=12.5, capacity={"car": 1, "trashcan": 3},
                               poi_every=3),
         "06641e305e1432453edd6447b57ed2df78738ad07c98efe4d4d1d41d82d99fc9",
         "ecc18e553ba462b40b6f96f1b1aed75f93293ebf8107401d6aa37b3c3eeb9323"),
        (lambda: line_scenario(6, pois=((1, "retail"), (4, "housing"), (5, "leisure")),
                               depot_at=3),
         "9000c0c9e14cb236e2ab823ea3cd75d16c7cd77f28acfc653ae0aedd317839dc",
         "e3668f1920ddb7e0a5309043d18a6dd84f71f71eb27d62766b11b900d8289c55"),
        (lambda: line_scenario(1),
         "1d80706b32014da23a7557b299c3bcf336a299404114a9273890324360e62efb",
         "3bde93ddd44209d679235a8bab1119b654867cdf6f9200344142979e2a4a18b0"),
    ], ids=["grid_100x100", "grid_40x20", "grid_custom", "line_pois", "line_1"])
    def test_builders_pinned(self, tmp_path, build, saved, static):
        # a builder refactor must leave every scene byte for byte as it was
        graph = build()
        path = tmp_path / "scenario.json"
        save_scenario(graph, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == saved
        assert graph.static_hash() == static

    def test_loaded_scene_keeps_one_object_per_value(self, tmp_path):
        # every edge end and access target is its node's own id string, and
        # equal capacity maps, class names and lengths are one object each
        path = tmp_path / "scenario.json"
        save_scenario(grid_scenario(4, 3), path)
        graph = load_scenario(path)
        paths, pois = graph.path_nodes, graph.poi_nodes
        for kind, u, v, _, _ in graph.static_edges:
            assert u is (paths if kind == "adjacency" else pois)[u].id
            assert v is paths[v].id
        for poi_id, path_id in graph.access.items():
            assert poi_id is pois[poi_id].id and path_id is paths[path_id].id
        nodes = list(paths.values())
        for field in ("capacity", "semantic_class", "segment_length", "sidewalk_width"):
            assert len({id(getattr(n, field)) for n in nodes}) == 1, field
        assert len({id(e.length) for e in graph.static_edges if e.kind == "adjacency"}) == 1

    def test_equal_capacities_share_one_mapping(self, tmp_path):
        data = scenario_dict()
        data["path_nodes"].append(
            {"id": "p2", "x": 20.0, "y": 0.0, "class": "sidewalk", "capacity": {"car": 1},
             "segment_length": 10.0, "sidewalk_width": 2.0})
        data["edges"].append({"kind": "adjacency", "u": "p1", "v": "p2", "length": 10.0})
        path, resaved = tmp_path / "scenario.json", tmp_path / "resaved.json"
        path.write_text(json.dumps(data))
        graph = load_scenario(path)
        p0, p1, p2 = (graph.path_nodes[f"p{i}"].capacity for i in range(3))
        assert p0 is p1 and p0 == {"car": 2}
        assert p2 is not p0 and p2 == {"car": 1}
        built = grid_scenario(3, 2)
        assert len({id(n.capacity) for n in built.path_nodes.values()}) == 1
        # saving the loaded scene gives back the bytes it was loaded from
        save_scenario(built, path)
        save_scenario(load_scenario(path), resaved)
        assert resaved.read_bytes() == path.read_bytes()

    def test_minimal_dict_loads(self):
        graph = scenario_from_dict(scenario_dict())
        assert graph.depot_id == "d"
        assert graph.access["d"] == "p0"
        assert ("access", "d", "p0", False, 5.0) in graph.static_edges

    def test_load_checks_connectivity_once(self, tmp_path, monkeypatch):
        # the loader reports the scene's faults and compiles it without a second check
        path = tmp_path / "grid.json"
        save_scenario(grid_scenario(4, 3), path)
        calls = []
        monkeypatch.setattr(graph_module, "components",
                            lambda *args: calls.append(args) or components(*args))
        load_scenario(path)
        assert len(calls) == 1

    def test_malformed_json_is_parse_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_scenario(path)


class TestScenarioValidation:
    def test_depot_flag_substitutes_for_field(self):
        data = scenario_dict(depot=None)
        data["poi_nodes"][0]["is_depot"] = True
        assert scenario_from_dict(data).depot_id == "d"

    def test_two_depot_flags_name_both(self):
        data = scenario_dict(depot=None)
        data["poi_nodes"].append({"id": "e", "x": 5.0, "y": 5.0,
                                  "class": "housing", "is_depot": True})
        data["poi_nodes"][0]["is_depot"] = True
        data["edges"].append({"kind": "access", "u": "e", "v": "p1",
                              "length": 5.0})
        text = violations_of(data)
        assert "d" in text and "e" in text and "multiple" in text

    def test_depot_field_and_flag_must_agree(self, tmp_path):
        # a field naming one PoI and a flag on another used to load silently,
        # with the field's depot
        path = tmp_path / "grid.json"
        save_scenario(grid_scenario(3, 3), path)
        data = json.loads(path.read_text())
        pois = {p["id"]: p for p in data["poi_nodes"]}
        pois["poi0"]["is_depot"] = True
        with pytest.raises(ValidationError) as exc:
            scenario_from_dict(data)
        assert exc.value.violations == ["depot: 'depot' conflicts with is_depot on 'poi0'"]
        # a field and a flag that name the same PoI stay valid
        del pois["poi0"]["is_depot"]
        pois["depot"]["is_depot"] = True
        assert scenario_from_dict(data).depot_id == "depot"

    def test_missing_depot(self):
        assert "no depot" in violations_of(scenario_dict(depot=None))

    def test_undeclared_object_class_in_capacity(self):
        data = scenario_dict()
        data["path_nodes"][0]["capacity"]["scooter"] = 1
        assert "scooter" in violations_of(data)

    def test_undeclared_place_class(self):
        data = scenario_dict()
        data["poi_nodes"][0]["class"] = "harbor"
        assert "harbor" in violations_of(data)

    @pytest.mark.parametrize("key, value", [
        ("places", 5), ("places", "sidewalk,housing"), ("objects", "car"), ("objects", None),
    ])
    def test_class_lists_must_be_lists(self, key, value):
        # a string is not read one character at a time; an int is no traceback
        data = scenario_dict()
        data["classes"][key] = value
        # the rejected list is the one fault: no class is undeclared against it
        assert violations_of(data).splitlines() == [f"classes.{key}: expected a list"]

    @pytest.mark.parametrize("key, violation", [
        ("places", "classes.places: expected a list"),
        ("objects", "classes.objects: expected a list"),
        (None, "classes: expected a mapping"),
    ])
    def test_rejected_class_list_is_reported_once(self, tmp_path, key, violation):
        path = tmp_path / "grid.json"
        save_scenario(grid_scenario(3, 2), path)
        data = json.loads(path.read_text())
        if key is None:
            data["classes"] = 5
        else:
            data["classes"][key] = 5
        with pytest.raises(ValidationError) as exc:
            scenario_from_dict(data)
        assert exc.value.violations == [violation]

    @pytest.mark.parametrize("where, violation", [
        ("places", "classes.places[1]: expected a string"),
        ("path node", "path_nodes[1].class: expected a string"),
        ("poi", "poi_nodes[0].class: expected a string"),
    ])
    def test_class_names_must_be_strings(self, tmp_path, capsys, where, violation):
        data = scenario_dict()
        if where == "places":
            data["classes"]["places"] = ["sidewalk", ["housing"]]
        else:
            data["path_nodes" if where == "path node" else "poi_nodes"][-1]["class"] = ["x"]
        assert violations_of(data).splitlines() == [violation]
        path = tmp_path / "s.json"
        path.write_text(json.dumps(data))
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {violation}"]

    def test_class_list_fault_exits_two(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(scenario_dict(classes={"places": 5, "objects": ["car"]})))
        assert main(["validate", str(path)]) == 2
        assert "error: classes.places: expected a list" in capsys.readouterr().err

    def test_place_object_overlap(self):
        data = scenario_dict()
        data["classes"]["objects"].append("housing")
        assert "overlap" in violations_of(data)

    def test_poi_cannot_be_sidewalk(self):
        data = scenario_dict()
        data["classes"]["places"] = ["sidewalk"]
        data["poi_nodes"][0]["class"] = "sidewalk"
        assert "sidewalk" in violations_of(data)

    def test_poi_without_access_edge(self):
        data = scenario_dict(edges=[
            {"kind": "adjacency", "u": "p0", "v": "p1", "length": 10.0}])
        assert "missing access" in violations_of(data)

    def test_disconnected_network(self):
        data = scenario_dict()
        data["path_nodes"].append(
            {"id": "p2", "x": 99.0, "y": 99.0, "class": "sidewalk",
             "capacity": {}, "segment_length": 10.0, "sidewalk_width": 2.0})
        assert "not connected" in violations_of(data)

    def test_nonpositive_geometry(self):
        data = scenario_dict()
        data["path_nodes"][0]["segment_length"] = 0.0
        data["path_nodes"][1]["sidewalk_width"] = -1.0
        text = violations_of(data)
        assert "segment_length" in text and "sidewalk_width" in text

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("field,message", [
        ("segment_length", "path_nodes[0].segment_length: must be positive and finite"),
        ("sidewalk_width", "path_nodes[0].sidewalk_width: must be positive and finite"),
        ("adjacency", "edges[0]: edge 'p0'-'p1' length: must be positive and finite, got "),
        ("access", "edges[1]: access edge 'd'-'p0' length: must be positive and finite, got "),
        ("x", "path_nodes[0].position: not finite"),
        ("y", "path_nodes[0].position: not finite"),
        # a NaN PoI position used to pass and fail the first observe
        ("poi_nodes.x", "poi_nodes[0].position: not finite"),
        ("poi_nodes.y", "poi_nodes[0].position: not finite"),
    ])
    def test_non_finite_geometry_rejected(self, field, message, value):
        # NaN passes a `<= 0` test; the planner's heuristic is derived from these
        data = scenario_dict()
        if field in ("adjacency", "access"):
            data["edges"][0 if field == "adjacency" else 1]["length"] = value
            message += repr(value)
        else:
            kind, _, name = field.rpartition(".")
            data[kind or "path_nodes"][0][name] = value
        lines = violations_of(data).splitlines()
        assert message in lines
        if field not in ("adjacency", "access"):
            assert lines == [message]  # reported once, and no edge loses its node

    def test_entries_must_be_mappings(self):
        data = scenario_dict()
        data["path_nodes"][1]["capacity"] = ["car"]
        data["path_nodes"].append(5)
        data["edges"].append("p0-p1")
        text = violations_of(data)
        assert "path_nodes[1]: AttributeError(" in text
        assert "path_nodes[2]: expected a mapping" in text
        assert "edges[2]: expected a mapping" in text
        text = violations_of(scenario_dict(classes=["sidewalk"], poi_nodes="d"))
        assert "classes: expected a mapping" in text
        assert "poi_nodes: expected a list" in text

    @pytest.mark.parametrize("value", [1.5, float("nan"), float("inf")])
    def test_non_integral_capacity_rejected(self, value):
        data = scenario_dict()
        data["path_nodes"][0]["capacity"]["car"] = value
        assert violations_of(data) == (
            f"path_nodes[0].capacity[car]: expected an integer, got {value!r}")

    def test_integral_float_capacity_loads(self):
        data = scenario_dict()
        data["path_nodes"][0]["capacity"]["car"] = 3.0
        capacity = scenario_from_dict(data).path_nodes["p0"].capacity
        assert capacity == {"car": 3} and type(capacity["car"]) is int

    def test_repeated_capacity_faults_reported_per_node(self, tmp_path):
        # a bad map that several nodes share is reported at every one of them,
        # with each node's own index, among nodes that share a good map
        try:
            int([1])
        except TypeError as exc:
            unconvertible = repr(exc)  # its wording varies with the Python version
        capacities = [{"car": 2}, {"car": 1.5}, {"boat": 1}, {"car": 1.5}, {"car": 2},
                      {"car": [1]}, {"boat": 1}, {"car": 1.5}]
        data = scenario_dict(
            path_nodes=[{"id": f"p{i}", "x": 10.0 * i, "y": 0.0, "class": "sidewalk",
                         "capacity": capacity, "segment_length": 10.0, "sidewalk_width": 2.0}
                        for i, capacity in enumerate(capacities)],
            edges=[{"kind": "adjacency", "u": f"p{i}", "v": f"p{i + 1}", "length": 10.0}
                   for i in range(len(capacities) - 1)]
            + [{"kind": "access", "u": "d", "v": "p0", "length": 5.0}])
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValidationError) as exc:
            load_scenario(path)
        assert str(exc.value) == "; ".join([
            "path_nodes[1].capacity[car]: expected an integer, got 1.5",
            "path_nodes[2].capacity: undeclared class 'boat'",
            "path_nodes[3].capacity[car]: expected an integer, got 1.5",
            f"path_nodes[5]: {unconvertible}",
            "path_nodes[6].capacity: undeclared class 'boat'",
            "path_nodes[7].capacity[car]: expected an integer, got 1.5",
            "edges[4]: adjacency edge 'p4'-'p5' references unknown path node",
            "edges[5]: adjacency edge 'p5'-'p6' references unknown path node",
            "path network is not connected",
        ])

    def test_numeric_poi_id_with_string_depot(self):
        data = scenario_dict(depot="5")
        data["poi_nodes"] = [
            {"id": 5, "x": 0.0, "y": 5.0, "class": "housing"},
            {"id": "r", "x": 10.0, "y": 5.0, "class": "retail"},
        ]
        data["classes"]["places"].append("retail")
        data["edges"][1]["u"] = 5  # endpoints convert like node ids
        data["edges"].append({"kind": "access", "u": "r", "v": "p1", "length": 5.0})
        graph = scenario_from_dict(data)
        assert graph.depot_id == "5"
        assert graph.poi_nodes["5"].is_depot
        config = config_from_dict(config_dict(
            tasks=[{"name": "visits", "place_classes": ["retail"],
                    "hourly_rates": [2.0] * 24}],
            fleet={"count": 1},
            sim={"duration_days": 0.25, "warmup_hours": 1, "replications": 1,
                 "seed": 3}), graph)
        (ledger,) = run_replications(graph, config, 1, config.seed)
        assert ledger.counters["tasks_issued"] > 0
        assert ledger.counters["tasks_completed"] > 0

    def test_every_violation_kind_reported_exactly(self):
        # one fault of each kind the loader reports, in the order it reports them
        def node(nid, x=0.0, cls="sidewalk", capacity=None, seg=10.0, width=2.0):
            return {"id": nid, "x": x, "y": 0.0, "class": cls,
                    "capacity": {"car": 1} if capacity is None else capacity,
                    "segment_length": seg, "sidewalk_width": width}

        def poi(pid, x=0.0, cls="housing", **flags):
            return {"id": pid, "x": x, "y": 5.0, "class": cls, **flags}

        def edge(kind, u, v, length=10.0, **extra):
            return {"kind": kind, "u": u, "v": v, "length": length, **extra}

        nan = float("nan")
        data = scenario_dict(
            depot="nowhere",
            classes={"places": ["sidewalk", "housing"], "objects": ["car", "housing"]},
            path_nodes=[
                node("p0", capacity={"car": 1.5}),
                node("p1", x=10.0, capacity={"car": -1, "scooter": 1}),
                5,
                {k: v for k, v in node("p3").items() if k != "x"},
                node("p4", x="abc"),
                node("p5", capacity=["car"]),
                node("p6", x=20.0, seg=0.0, width=nan),
                node("p7", x=math.inf),
                node("p8", x=30.0, cls="harbor"),
                node("p0", x=40.0),
                node(9, x=99.0),
            ],
            poi_nodes=[
                poi("d", is_depot=True),
                poi("e", 10.0, is_depot=True),
                poi("q", 20.0, cls="sidewalk"),
                poi("r", 30.0, cls="harbor"),
                poi("s", nan),
                poi("p1", 10.0),
                poi("t", 40.0),
                7,
                {"id": "u", "y": 5.0, "class": "housing"},
            ],
            edges=[
                edge("adjacency", "p0", "p1"),
                edge("bridge", "p0", "p1"),
                edge("adjacency", "p0", "zz"),
                edge("adjacency", "p1", "p6", -1.0),
                edge("adjacency", "p1", "p6", "abc"),
                {"kind": "adjacency", "u": "p1", "v": "p6"},
                {"kind": "adjacency", "v": "p6", "length": 10.0},
                edge("adjacency", "p1", "p6", directed=True),
                edge("adjacency", "p6", "p7"),
                edge("adjacency", "p7", "p8"),
                edge("access", "d", "p0", 5.0),
                edge("access", "d", "p1", 5.0),
                edge("access", "e", "p1", nan),
                edge("access", "zz", "p0", 5.0),
                edge("access", "q", "p8", 5.0),
                edge("access", "r", "p8", 5.0),
                edge("access", "s", "p8", 5.0),
                "p0-p1",
            ],
        )
        with pytest.raises(ValidationError) as exc:
            scenario_from_dict(data)
        assert exc.value.violations == [
            "classes: place/object overlap ['housing']",
            "poi_nodes[7]: expected a mapping",
            "depot: multiple depots declared: ['d', 'e']",
            "depot: 'nowhere' is not a PoI node",
            "path_nodes[0].capacity[car]: expected an integer, got 1.5",
            "path_nodes[1].capacity[car]: negative",
            "path_nodes[1].capacity: undeclared class 'scooter'",
            "path_nodes[2]: expected a mapping",
            "path_nodes[3]: KeyError('x')",
            "path_nodes[4]: ValueError(\"could not convert string to float: 'abc'\")",
            "path_nodes[5]: AttributeError(\"'list' object has no attribute 'items'\")",
            "path_nodes[6].segment_length: must be positive and finite",
            "path_nodes[6].sidewalk_width: must be positive and finite",
            "path_nodes[7].position: not finite",
            "path_nodes[8].class: undeclared 'harbor'",
            "path_nodes[9]: node id 'p0' already in use",
            "poi_nodes[2].class: PoI may not be a sidewalk",
            "poi_nodes[3].class: undeclared 'harbor'",
            "poi_nodes[4].position: not finite",
            "poi_nodes[5]: node id 'p1' already in use",
            "poi_nodes[8]: KeyError('x')",
            "edges[1].kind: unknown 'bridge'",
            "edges[2]: adjacency edge 'p0'-'zz' references unknown path node",
            "edges[3]: edge 'p1'-'p6' length: must be positive and finite, got -1.0",
            "edges[4]: could not convert string to float: 'abc'",
            "edges[5]: 'length'",
            "edges[6]: adjacency edge None-'p6' references unknown path node",
            "edges[11]: poi 'd' already has an access edge",
            "edges[12]: access edge 'e'-'p1' length: must be positive and finite, got nan",
            "edges[13]: access edge 'zz'-'p0' references unknown node",
            "edges[17]: expected a mapping",
            "poi 'e': missing access edge",
            "poi 't': missing access edge",
            "path network is not connected",  # node '9' has no edge
        ]

    @pytest.mark.parametrize("overrides, violations", [
        ({"depot": None}, ["depot: no depot declared"]),
        ({"classes": ["sidewalk"], "path_nodes": "p0", "poi_nodes": {"id": "d"},
          "edges": 5},
         ["classes: expected a mapping", "poi_nodes: expected a list",
          "depot: 'd' is not a PoI node", "path_nodes: expected a list",
          "edges: expected a list"]),
        # only a missing or null section reads as empty; a falsy one of the
        # wrong type is its own violation
        ({"edges": None}, ["poi 'd': missing access edge", "path network is not connected"]),
        *(({"edges": falsy}, ["edges: expected a list", "poi 'd': missing access edge",
                              "path network is not connected"])
          for falsy in ({}, 0, "", False)),
        *(({"poi_nodes": falsy}, ["poi_nodes: expected a list", "depot: 'd' is not a PoI node",
                                  "edges[1]: access edge 'd'-'p0' references unknown node"])
          for falsy in ({}, 0, "", False)),
        *(({"path_nodes": falsy},
           ["path_nodes: expected a list",
            "edges[0]: adjacency edge 'p0'-'p1' references unknown path node",
            "edges[1]: access edge 'd'-'p0' references unknown node",
            "poi 'd': missing access edge"])
          for falsy in ({}, 0, "", False)),
        ({"classes": []}, ["classes: expected a mapping"]),
        ({"classes": ["x"]}, ["classes: expected a mapping"]),
    ])
    def test_section_faults_reported_exactly(self, overrides, violations):
        with pytest.raises(ValidationError) as exc:
            scenario_from_dict(scenario_dict(**overrides))
        assert exc.value.violations == violations

    @pytest.mark.parametrize("kind, field", [
        ("path_nodes", "x"), ("path_nodes", "segment_length"), ("poi_nodes", "y"),
        ("edges", "length"),
    ])
    def test_integer_too_large_for_a_float(self, kind, field):
        # a JSON integer of 400 digits parses, but float() overflows on it
        data = scenario_dict()
        data[kind][0][field] = 10 ** 400
        message = "OverflowError('int too large to convert to float')"
        if kind == "edges":
            message = "int too large to convert to float"
        # the failed entry's edges and connectivity are reported after it
        assert violations_of(data).splitlines()[0] == f"{kind}[0]: {message}"

    @pytest.mark.parametrize("u, v", [("p1", "p2"), ("p2", "p1")])
    def test_one_directed_edge_connects(self, u, v):
        # weak connectivity: a directed edge joins its ends either way round
        data = scenario_dict()
        data["path_nodes"].append(
            {"id": "p2", "x": 20.0, "y": 0.0, "class": "sidewalk",
             "capacity": {}, "segment_length": 10.0, "sidewalk_width": 2.0})
        data["edges"].append({"kind": "adjacency", "u": u, "v": v, "length": 10.0,
                              "directed": True})
        graph = scenario_from_dict(data)
        assert id_adjacency(graph)["p2"] == ([("p1", 10.0)] if u == "p2" else [])
        del data["edges"][-1]
        assert violations_of(data) == "path network is not connected"

    @pytest.mark.parametrize("directed", ["false", 0, 1])
    def test_directed_must_be_a_boolean(self, tmp_path, capsys, directed):
        # a string "false" or a 0/1 once read as bool(): "false" made a one-way edge
        path = tmp_path / "s.json"
        save_scenario(grid_scenario(3, 2), path)
        data = json.loads(path.read_text())
        data["edges"][2]["directed"] = directed
        path.write_text(json.dumps(data))
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: edges[2].directed: expected true or false, got {directed!r}"]

    def test_all_violations_reported_together(self):
        data = scenario_dict(depot=None)
        data["path_nodes"][0]["capacity"]["scooter"] = 1
        data["poi_nodes"][0]["class"] = "harbor"
        with pytest.raises(ValidationError) as exc:
            scenario_from_dict(data)
        assert len(exc.value.violations) >= 3


def faulty_scene(record, edit) -> SceneGraph:
    """An unfrozen line a-b-c, depot d at a and house h at c, with ``edit`` applied.

    ``record`` "b" or "h" replaces that node's fields by ``edit``; "scene" leaves
    out the edge ``edit`` names (the access edge "h"-"c" or the adjacency "b"-"c").
    """
    graph = SceneGraph()
    for nid, x in (("a", 0.0), ("b", 10.0), ("c", 20.0)):
        node = PathNode(nid, x, 0.0, "sidewalk", {"car": 1}, 4.0, 2.0)
        graph.add_path_node(node._replace(**edit) if record == nid else node)
    for poi, at in ((PoiNode("d", 0.0, 3.0, "work", is_depot=True), "a"),
                    (PoiNode("h", 20.0, 3.0, "housing"), "c")):
        graph.add_poi_node(poi._replace(**edit) if record == poi.id else poi)
        if (record, edit) != ("scene", (poi.id, at)):
            graph.add_access_edge(poi.id, at, 3.0)
    for u, v in (("a", "b"), ("b", "c")):
        if (record, edit) != ("scene", (u, v)):
            graph.add_adjacency_edge(u, v, 10.0)
    return graph


class TestOneHomePerRule:
    """A scene built in code and one loaded from its file break a rule with one fault text."""

    @pytest.mark.parametrize("record, edit, fault", [
        ("b", {"x": math.nan}, "position: not finite"),
        ("b", {"y": math.inf}, "position: not finite"),
        ("b", {"semantic_class": ["sidewalk"]}, "class: expected a string"),
        ("b", {"semantic_class": "harbor"}, "class: undeclared 'harbor'"),
        ("b", {"capacity": {"boat": 1}}, "capacity: undeclared class 'boat'"),
        ("b", {"capacity": {"car": 1.5}}, "capacity[car]: expected an integer, got 1.5"),
        ("b", {"capacity": {"car": -1}}, "capacity[car]: negative"),
        ("b", {"segment_length": 0.0}, "segment_length: must be positive and finite"),
        ("b", {"sidewalk_width": math.nan}, "sidewalk_width: must be positive and finite"),
        ("h", {"x": -math.inf}, "position: not finite"),
        ("h", {"semantic_class": "harbor"}, "class: undeclared 'harbor'"),
        ("h", {"semantic_class": "sidewalk"}, "class: PoI may not be a sidewalk"),
        ("scene", ("h", "c"), "poi 'h': missing access edge"),
        ("scene", ("b", "c"), "path network is not connected"),
    ])
    def test_loader_and_freeze_report_one_fault(self, tmp_path, record, edit, fault):
        graph = faulty_scene(record, edit)
        path = tmp_path / "scene.json"
        save_scenario(graph, path)  # path nodes a, b, c and PoIs d, h, by id
        loaded = {"b": f"path_nodes[1].{fault}", "h": f"poi_nodes[1].{fault}"}.get(record, fault)
        with pytest.raises(ValidationError) as exc:
            load_scenario(path)
        assert exc.value.violations == [loaded]
        frozen = {"b": f"path node 'b' {fault}", "h": f"PoI 'h' {fault}"}.get(record, fault)
        with pytest.raises(ValueError, match=f"^{re.escape(frozen)}$"):
            graph.freeze_static()
        with pytest.raises(ValueError, match="freeze the static subgraph first"):
            graph.network

    def test_faultless_scene_loads_and_freezes(self, tmp_path):
        graph = faulty_scene(None, None)
        save_scenario(graph, tmp_path / "scene.json")
        graph.freeze_static()
        assert load_scenario(tmp_path / "scene.json").static_hash() == graph.static_hash()


@st.composite
def small_networks(draw):
    """1-7 path nodes, up to 8 edges (directed, self-loops and parallels allowed), maybe a PoI."""
    n = draw(st.integers(1, 7))
    node = st.integers(0, n - 1)
    return (n, draw(st.lists(st.tuples(node, node, st.booleans()), max_size=8)),
            draw(st.none() | node))


@settings(max_examples=200, deadline=None)
@given(case=small_networks())
def test_connectivity_is_weak_connectivity(case):
    # nodes no edge touches are isolated, and an access edge joins no path
    # nodes; networkx judges the loader's check and the partition it rests on
    n, edges, poi_at = case
    graph, oracle = SceneGraph(), nx.DiGraph()
    for i in range(n):
        graph.add_path_node(PathNode(f"v{i}", float(i), 0.0, "sidewalk", {}, 1.0, 2.0))
        oracle.add_node(f"v{i}")
    edges = [(f"v{u}", f"v{v}", directed) for u, v, directed in edges]
    for u, v, directed in edges:
        graph.add_adjacency_edge(u, v, 1.0, directed)
        oracle.add_edge(u, v)
        if not directed:
            oracle.add_edge(v, u)
    if poi_at is not None:
        graph.add_poi_node(PoiNode("p", 0.0, 1.0, "housing"))
        graph.add_access_edge("p", f"v{poi_at}", 1.0)
    # the PoI has its access edge, so connectivity is the one fault possible
    assert (scene_faults(graph) == []) == nx.is_weakly_connected(oracle)
    by_root = {}
    for node, root in components(graph.path_nodes, ((u, v) for u, v, _ in edges)).items():
        by_root.setdefault(root, set()).add(node)
    assert (sorted(map(sorted, by_root.values()))
            == sorted(map(sorted, nx.weakly_connected_components(oracle))))


def config_dict(**overrides):
    base = {
        "processes": [
            {"name": "cars", "source_classes": ["housing"],
             "object_classes": ["car"], "hourly_rates": [1.0] * 24,
             "footprint_area": 4.0, "lifetime_mean": 3600.0},
        ],
        "tasks": [
            {"name": "visits", "place_classes": ["housing"],
             "hourly_rates": [0.5] * 24},
        ],
        "fleet": {"count": 2, "planner_mode": "observed"},
        "sim": {"duration_days": 1, "warmup_hours": 2, "replications": 3,
                "seed": 9},
    }
    base.update(overrides)
    return base


class TestConfig:
    def test_parses_fields(self):
        cfg = config_from_dict(config_dict())
        assert cfg.duration == 86400.0
        assert cfg.warmup == 7200.0
        assert cfg.replications == 3
        assert cfg.seed == 9
        assert cfg.fleet.count == 2
        assert len(cfg.processes) == 1 and len(cfg.tasks) == 1
        assert cfg.processes[0].rate_profile.per_second[hour_of_day(0.0)] == 1.0 / 3600.0

    def test_class_references_checked_against_scenario(self):
        graph = line_scenario(3, pois=((1, "housing"),))
        data = config_dict()
        data["processes"][0]["object_classes"] = ["scooter"]
        data["tasks"][0]["place_classes"] = ["harbor"]
        with pytest.raises(ValidationError) as exc:
            config_from_dict(data, graph)
        text = "\n".join(exc.value.violations)
        assert "scooter" in text and "harbor" in text

    @pytest.mark.parametrize("graph", [None, line_scenario(3, pois=((1, "housing"),))],
                             ids=["no-scenario", "scenario"])
    @pytest.mark.parametrize("where, key, value", [
        ("processes[0]", "source_classes", "housing"),
        ("processes[0]", "object_classes", "car"),
        ("processes[0]", "hourly_rates", "1" * 24),
        ("tasks[0]", "place_classes", "housing"),
        ("tasks[0]", "hourly_rates", 0.5),
    ])
    def test_name_and_rate_lists_must_be_lists(self, graph, where, key, value):
        # a string is not read as its characters, with or without a scenario
        data = config_dict()
        data[where.split("[")[0]][0][key] = value
        with pytest.raises(ValidationError) as exc:
            config_from_dict(data, graph)
        assert exc.value.violations == [f"{where}.{key}: expected a list"]

    def test_undeclared_classes_reported_in_listed_order(self):
        graph = line_scenario(3, pois=((1, "housing"),))
        listed = ["zeta", "housing", "alpha", "mu", "beta", "zeta", "omega", "kappa", "gamma"]
        data = config_dict()
        data["processes"][0]["source_classes"] = listed
        with pytest.raises(ValidationError) as exc:
            config_from_dict(data, graph)
        assert exc.value.violations == [
            f"processes[0].source_classes: undeclared class {name!r}"
            for name in ("zeta", "alpha", "mu", "beta", "omega", "kappa", "gamma")]

    @pytest.mark.parametrize("section", ["processes", "tasks"])
    def test_names_must_be_unique(self, section):
        # a name keys the event payloads and random streams of its sources
        data = config_dict()
        first = data[section][0]
        data[section] += [dict(first, name="other"), dict(first), dict(first)]
        with pytest.raises(ValidationError) as exc:
            config_from_dict(data)
        name = first["name"]
        assert exc.value.violations == [f"{section}[2].name: duplicate {name!r}",
                                        f"{section}[3].name: duplicate {name!r}"]

    def test_default_names_are_unique_too(self):
        data = config_dict()
        first = data["processes"][0]
        data["processes"] = [dict(first, name="process1"), {k: v for k, v in first.items()
                                                            if k != "name"}]
        with pytest.raises(ValidationError) as exc:
            config_from_dict(data)
        assert exc.value.violations == ["processes[1].name: duplicate 'process1'"]

    def test_no_scenario_skips_class_checks(self):
        data = config_dict()
        data["processes"][0]["source_classes"] = ["anything"]
        config_from_dict(data)  # must not raise

    def test_both_lifetime_and_population_rejected(self):
        data = config_dict()
        data["processes"][0]["target_population"] = 10.0
        with pytest.raises(ValidationError):
            config_from_dict(data)

    def test_warmup_must_fit_in_duration(self):
        data = config_dict()
        data["sim"]["warmup_hours"] = 48
        with pytest.raises(ValidationError) as exc:
            config_from_dict(data)
        assert any("warmup" in v for v in exc.value.violations)

    def test_bad_planner_mode(self):
        data = config_dict()
        data["fleet"]["planner_mode"] = "psychic"
        with pytest.raises(ValidationError):
            config_from_dict(data)

    @pytest.mark.parametrize("field, value, message", [
        ("agent_width", -1.0, "fleet.agent_width: must be positive"),
        ("agent_width", 0.0, "fleet.agent_width: must be positive"),
        ("agent_width", float("nan"), "fleet.agent_width: must be positive"),
        ("agent_width", float("inf"), "fleet.agent_width: must be finite"),
        ("default_velocity", 0.0, "fleet.default_velocity: must be positive"),
        ("default_velocity", float("nan"), "fleet.default_velocity: must be positive"),
        ("default_velocity", float("inf"), "fleet.default_velocity: must be finite"),
        ("sensor_radius", -1.0, "fleet.sensor_radius: must be non-negative"),
        ("sensor_radius", float("nan"), "fleet.sensor_radius: must be non-negative"),
        ("count", -3, "fleet.count: must be >= 0"),
        ("count", "three", "fleet.count: expected a number, got 'three'"),
    ])
    def test_bad_fleet_values(self, field, value, message):
        data = config_dict()
        data["fleet"][field] = value
        with pytest.raises(ValidationError) as exc:
            config_from_dict(data)
        assert exc.value.violations == [message]

    @pytest.mark.parametrize("field, value, message", [
        ("processes[0].footprint_area", 0.0, "must be positive"),
        ("processes[0].footprint_area", float("nan"), "must be positive"),
        ("processes[0].footprint_area", float("inf"), "must be finite"),
        ("processes[0].lifetime_mean", -5.0, "must be positive"),
        ("processes[0].lifetime_mean", float("nan"), "must be positive"),
        ("processes[0].target_population", 0.0, "must be positive"),
        ("processes[0].target_population", float("nan"), "must be positive"),
        ("sim.drain_search_bound", 0.0, "must be positive"),
        ("sim.drain_search_bound", -1.0, "must be positive"),
        ("sim.drain_search_bound", float("nan"), "must be positive"),
    ])
    def test_bad_process_and_sim_values(self, field, value, message):
        data = config_dict()
        section, key = field.split(".")
        target = data["processes"][0] if section == "processes[0]" else data[section]
        if key == "target_population":
            del target["lifetime_mean"]  # exactly one of the two may be set
        target[key] = value
        with pytest.raises(ValidationError) as exc:
            config_from_dict(data)
        assert exc.value.violations == [f"{field}: {message}"]

    def test_bad_mean_and_both_durations_each_reported(self):
        data = config_dict()
        data["processes"][0].update(lifetime_mean=-5.0, target_population=10.0)
        with pytest.raises(ValidationError) as exc:
            config_from_dict(data)
        assert exc.value.violations == [
            "processes[0].lifetime_mean: must be positive",
            "processes[0].lifetime_mean/target_population: exactly one must be set"]

    def test_infinite_means_radius_and_bound_accepted(self):
        data = config_dict(fleet={"sensor_radius": float("inf")},
                           sim={"drain_search_bound": float("inf")})
        data["processes"][0]["lifetime_mean"] = float("inf")
        data["processes"].append(dict(data["processes"][0], name="more", lifetime_mean=None,
                                      target_population=float("inf")))
        cfg = config_from_dict(data)
        assert cfg.fleet.sensor_radius == cfg.drain_search_bound == math.inf
        assert cfg.processes[0].lifetime_mean == cfg.processes[1].target_population == math.inf

    def test_nan_lifetime_exits_two(self, tmp_path, capsys):
        scenario, config = tmp_path / "s.json", tmp_path / "c.yaml"
        save_scenario(line_scenario(3, pois=((1, "housing"),)), scenario)
        data = config_dict()
        data["processes"][0]["lifetime_mean"] = float("nan")
        config.write_text(yaml.safe_dump(data))
        assert ".nan" in config.read_text()
        assert main(["validate", str(scenario), str(config)]) == 2
        err = capsys.readouterr().err
        assert "error: processes[0].lifetime_mean: must be positive" in err

    def test_defaults_come_from_the_dataclasses(self):
        assert config_from_dict({}) == SimConfig()

    @pytest.mark.parametrize("section, field, value", [
        ("fleet", "count", 1.5),
        ("sim", "replications", 2.9),
        ("sim", "seed", 9.5),
        ("sim", "replications", float("nan")),
        ("fleet", "count", float("inf")),
    ])
    def test_non_integral_counts_rejected(self, section, field, value):
        data = config_dict()
        data[section][field] = value
        with pytest.raises(ValidationError) as exc:
            config_from_dict(data)
        assert exc.value.violations == [
            f"{section}.{field}: expected an integer, got {value!r}"]

    def test_integral_float_counts_accepted(self):
        data = config_dict()
        data["fleet"]["count"] = 2.0
        data["sim"]["replications"] = 3.0
        cfg = config_from_dict(data)
        assert (cfg.fleet.count, cfg.replications) == (2, 3)
        assert type(cfg.fleet.count) is int and type(cfg.replications) is int

    def test_non_integral_count_exits_two(self, tmp_path, capsys):
        scenario, config = tmp_path / "s.json", tmp_path / "c.yaml"
        save_scenario(line_scenario(3, pois=((1, "housing"),)), scenario)
        config.write_text(json.dumps(config_dict(fleet={"count": 1.5})))
        assert main(["validate", str(scenario), str(config)]) == 2
        assert "error: fleet.count: expected an integer, got 1.5" in capsys.readouterr().err

    def test_empty_fleet_allowed(self):
        data = config_dict()
        data["fleet"]["count"] = 0
        assert config_from_dict(data).fleet.count == 0

    def test_sections_must_be_mappings(self):
        data = config_dict(fleet=[1], sim="daily", tasks={"name": "visits"})
        with pytest.raises(ValidationError) as exc:
            config_from_dict(data)
        assert exc.value.violations == ["tasks: expected a list",
                                        "fleet: expected a mapping",
                                        "sim: expected a mapping"]
        # a falsy section of the wrong type is no empty one; a null one is
        with pytest.raises(ValidationError) as exc:
            config_from_dict(config_dict(fleet=[], sim=0, tasks={}))
        assert exc.value.violations == ["tasks: expected a list",
                                        "fleet: expected a mapping",
                                        "sim: expected a mapping"]
        assert config_from_dict(config_dict(fleet=None, sim=None, tasks=None)).tasks == []

    def test_template_round_trips(self, tmp_path):
        path = tmp_path / "config.yaml"
        write_config_template(path)
        assert path.read_text() == CONFIG_TEMPLATE
        cfg = load_config(path)
        assert cfg.fleet.planner_mode == "observed"
        assert len(cfg.processes) == 1

    def test_yaml_parse_error(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("fleet: [unclosed")
        with pytest.raises(ParseError):
            load_config(path)


class TestCodeBuiltConfig:
    """A record built in code checks the loader's rules, in the loader's words.

    Each case edits one field of ``config_dict()``'s config: in the file, and
    in code through ``dataclasses.replace`` on its record.  A spec's class
    faults need the scene, so ``SimState`` reports them; a process spec names
    itself as ``process '<name>':`` where the loader gives its index.
    """

    GRAPH = line_scenario(3, pois=((1, "housing"),))

    @pytest.mark.parametrize("section, key, value, field, code_value, line", [
        ("sim", "warmup_hours", -8, "warmup", -8 * 3600.0,
         "sim.warmup_hours: must lie inside the run duration"),
        ("fleet", "agent_width", -1, "agent_width", -1.0, "fleet.agent_width: must be positive"),
        ("processes", "footprint_area", -4, "footprint_area", -4.0,
         "processes[0].footprint_area: must be positive"),
        ("sim", "drain_search_bound", -1, "drain_search_bound", -1.0,
         "sim.drain_search_bound: must be positive"),
        ("fleet", "count", -1, "count", -1, "fleet.count: must be >= 0"),
        ("processes", "source_classes", ["houses"], "source_classes", frozenset({"houses"}),
         "processes[0].source_classes: undeclared class 'houses'"),
        ("processes", "object_classes", ["cars"], "object_classes", frozenset({"cars"}),
         "processes[0].object_classes: undeclared class 'cars'"),
        ("tasks", "place_classes", ["shops"], "place_classes", frozenset({"shops"}),
         "tasks[0].place_classes: undeclared class 'shops'"),
        ("fleet", "default_velocity", math.inf, "default_velocity", math.inf,
         "fleet.default_velocity: must be finite"),
        ("sim", "duration_days", math.inf, "duration", math.inf,
         "sim.duration_days: must be positive and finite"),
        ("sim", "duration_days", math.nan, "duration", math.nan,
         "sim.duration_days: must be positive and finite"),
        ("fleet", "default_velocity", 0, "default_velocity", 0.0,
         "fleet.default_velocity: must be positive"),
        ("fleet", "sensor_radius", -1, "sensor_radius", -1.0,
         "fleet.sensor_radius: must be non-negative"),
    ], ids=["negative-warmup", "negative-width", "negative-footprint", "negative-bound",
            "negative-count", "undeclared-source", "undeclared-object", "undeclared-place",
            "infinite-velocity", "infinite-duration", "nan-duration", "zero-velocity",
            "negative-radius"])
    def test_code_built_fault_raises_the_loaders_line(self, section, key, value, field,
                                                     code_value, line):
        data = config_dict()
        (data[section][0] if section in ("processes", "tasks") else data[section])[key] = value
        with pytest.raises(ValidationError) as loaded:
            config_from_dict(data, self.GRAPH)
        assert loaded.value.violations == [line]

        config = config_from_dict(config_dict(), self.GRAPH)
        with pytest.raises(ValidationError) as built:
            if section == "sim":
                dataclasses.replace(config, **{field: code_value})
            elif section == "fleet":
                dataclasses.replace(config.fleet, **{field: code_value})
            else:
                spec = dataclasses.replace(getattr(config, section)[0], **{field: code_value})
                SimState(self.GRAPH, dataclasses.replace(config, **{section: [spec]}), 1)
        name = config.processes[0].name
        assert built.value.violations == [line.replace("processes[0].", f"process {name!r}: ")
                                          if field == "footprint_area" else line]

    def test_scene_puts_undeclared_classes_in_name_order(self):
        spec = dataclasses.replace(config_from_dict(config_dict()).processes[0],
                                   source_classes=frozenset({"zeta", "housing", "alpha"}))
        with pytest.raises(ValidationError) as exc:
            SimState(self.GRAPH, SimConfig(processes=[spec]), 1)
        assert exc.value.violations == ["processes[0].source_classes: undeclared class 'alpha'",
                                        "processes[0].source_classes: undeclared class 'zeta'"]

    def test_footprint_reported_before_a_mean_that_does_not_parse(self):
        # the loader checks the footprint where it parses it, so a later
        # field that does not parse is reported after it
        data = config_dict()
        data["processes"][0].update(footprint_area=-4.0, lifetime_mean="long")
        with pytest.raises(ValidationError) as exc:
            config_from_dict(data)
        assert exc.value.violations == [
            "processes[0].footprint_area: must be positive",
            "processes[0]: ValueError(\"could not convert string to float: 'long'\")"]
