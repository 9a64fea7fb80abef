"""Event kernel: ordering, determinism, tick-based oracle, task lifecycle."""

import contextlib
import csv
import dataclasses
import functools
import hashlib
import heapq
import itertools
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import scenesim
from scenesim.agents import NodeCosts, Task, cost_table, plan_path
from scenesim.cli import TraceWriter
from scenesim.config import FleetConfig, SimConfig, TaskSpec
from scenesim.errors import TimeTravel, Unreachable, ValidationError
from scenesim.graph import (ObjectNode, ObservedGraph, PathNode, PoiNode, SceneGraph,
                            StaticNetwork, _scan, up_to_date)
from scenesim.kernel import (
    AGENT_NODE_ENTRY,
    AGENT_NODE_EXIT,
    EXPIRY,
    SPAWN,
    TASK_ARRIVAL,
    WAIT_RETRY,
    SimState,
    run_replications,
)
from scenesim.metrics import summary_metrics, write_outputs
from scenesim.processes import ProcessSpec
from scenesim.stochastic import RateProfile, random_streams
from scenesim.routing import astar
from scenesim.synthetic import grid_scenario, line_scenario
from conftest import load_script, plan_ids

HOUR = 3600.0


def empty_config(**overrides):
    base = dict(processes=[], tasks=[], fleet=FleetConfig(count=0),
                duration=10 * HOUR, warmup=0.0)
    base.update(overrides)
    return SimConfig(**base)


def car_process(rate_per_hour=2.0, lifetime=HOUR, **overrides):
    base = dict(
        name="parked-cars",
        source_classes=frozenset({"housing"}),
        object_classes=frozenset({"car"}),
        rate_profile=RateProfile.constant(rate_per_hour),
        footprint_area=8.0,
        lifetime_mean=lifetime,
    )
    base.update(overrides)
    return ProcessSpec(**base)


class TestScheduling:
    def test_equal_time_orders_by_kind(self):
        state = SimState(line_scenario(3), empty_config(), seed=1)
        kinds = [WAIT_RETRY, AGENT_NODE_EXIT, SPAWN, TASK_ARRIVAL,
                 AGENT_NODE_ENTRY, EXPIRY]
        for kind in kinds:
            state.schedule(5.0, kind, None)
        popped = [heapq.heappop(state._queue)[3] for _ in range(len(kinds))]
        assert popped == [EXPIRY, SPAWN, TASK_ARRIVAL, AGENT_NODE_ENTRY,
                          AGENT_NODE_EXIT, WAIT_RETRY]

    def test_equal_time_and_kind_is_fifo(self):
        state = SimState(line_scenario(3), empty_config(), seed=1)
        for oid in ("b", "a", "c"):
            state.schedule(5.0, EXPIRY, oid)
        popped = [heapq.heappop(state._queue)[4] for _ in range(3)]
        assert popped == ["b", "a", "c"]

    @pytest.mark.parametrize("t", [9.0, math.nan])
    def test_past_event_rejected(self, t):
        # a NaN time would break the queue's heap order
        state = SimState(line_scenario(3), empty_config(), seed=1)
        state.clock = 10.0
        with pytest.raises(TimeTravel):
            state.schedule(t, SPAWN, None)

    @pytest.mark.parametrize("mode", ["Static", "", "psychic"])
    def test_unknown_planner_mode_rejected(self, mode):
        # a code-built fleet meets the loader's rule: a misspelling must not plan as observed
        with pytest.raises(ValidationError) as exc:
            FleetConfig(planner_mode=mode)
        assert exc.value.violations == [f"fleet.planner_mode: unknown {mode!r}"]

    @pytest.mark.parametrize("section", ["processes", "tasks"])
    def test_sources_sharing_a_payload_rejected(self, section):
        # two specs of one name would share an event payload and a random
        # stream: one source's events would drive the other's draws
        twins = {
            "processes": [car_process(1.0, name="p"), car_process(5.0, name="p")],
            "tasks": [TaskSpec("a", frozenset({"housing"}), RateProfile.constant(rate))
                      for rate in (1.0, 5.0)],
        }[section]
        scenario = line_scenario(3, pois=((2, "housing"),))
        with pytest.raises(ValidationError) as exc:
            empty_config(**{section: twins})
        assert exc.value.violations == [f"{section}[1].name: duplicate {twins[0].name!r}"]
        twins[1] = dataclasses.replace(twins[1], name="b")
        SimState(scenario, empty_config(**{section: twins}), seed=1)

    def test_one_seeding_pass_per_replication(self, monkeypatch):
        # every process and task stream is seeded in one random_streams call,
        # processes first, each under the stream id it has always had
        calls = []

        def counted(seed, stream_ids):
            calls.append(list(stream_ids))
            return random_streams(seed, calls[-1])

        for name, module in list(sys.modules.items()):
            if name.startswith("scenesim") and hasattr(module, "random_streams"):
                monkeypatch.setattr(module, "random_streams", counted)
        scenario = line_scenario(5, pois=((2, "housing"), (4, "housing")))
        config = empty_config(
            processes=[car_process(object_classes=frozenset({"car", "bicycle"}))],
            tasks=[TaskSpec("visits", frozenset({"housing"}), RateProfile.constant(1.0))])
        state = SimState(scenario, config, seed=1)
        processes = [("process", "parked-cars", poi, cls)
                     for poi in ("poi0", "poi1") for cls in ("bicycle", "car")]
        assert calls == [processes + [("task", "visits", "poi0"), ("task", "visits", "poi1")]]
        assert [inst.stream.stream_id for inst in state.instances] == processes


class TestRun:
    def test_empty_system_reaches_horizon(self):
        state = SimState(line_scenario(3), empty_config(), seed=1)
        executed = state.run()
        assert executed == 0
        assert state.clock == 10 * HOUR
        assert state.rtf > 0

    def test_rtf_requires_completed_run(self):
        state = SimState(line_scenario(3), empty_config(), seed=1)
        assert state.rtf is None

    def test_spawn_and_expiry_are_paired(self):
        scenario = line_scenario(5, pois=((2, "housing"),))
        config = empty_config(processes=[car_process()], duration=200 * HOUR)
        state = SimState(scenario, config, seed=7)
        state.run()
        c = state.ledger.counters
        assert c["spawned"] > 100
        live_now = len(state.truth.objects)
        assert c["spawned"] - c["expired"] == live_now

    def test_expiry_frees_capacity_for_simultaneous_spawn(self, scripted_stream):
        # one free slot: a spawn landing exactly at an expiry instant must
        # find the slot already vacated
        scenario = line_scenario(3, capacity={"car": 1}, pois=((1, "housing"),))
        config = empty_config(processes=[car_process()],
                              duration=50.0, drain_search_bound=5.0)
        state = SimState(scenario, config, seed=1)
        (inst,) = state.instances
        inst.stream = scripted_stream([10.0, 10.0], [10.0, 100.0])
        state.run()
        assert state.ledger.counters["spawned"] == 2
        assert state.ledger.counters["discarded_capacity"] == 0


class TestDeterminism:
    @staticmethod
    def trace_of(seed, scenario, config):
        events = []
        state = SimState(scenario, config, seed,
                         trace=lambda t, k, p: events.append((t, k, repr(p))))
        state.run()
        return events

    def test_same_seed_same_trace(self):
        scenario = grid_scenario(4, 4)
        config = empty_config(
            processes=[car_process(footprint_area=2.0,
                                   source_classes=frozenset(
                                       {"housing", "retail", "work", "education"}))],
            tasks=[TaskSpec("visits", frozenset({"housing"}),
                            RateProfile.constant(1.0))],
            fleet=FleetConfig(count=2),
            duration=24 * HOUR,
        )
        a = self.trace_of(42, scenario, config)
        b = self.trace_of(42, scenario, config)
        assert len(a) > 500
        assert a == b

    def test_different_seed_different_trace(self):
        scenario = line_scenario(5, pois=((2, "housing"),))
        config = empty_config(processes=[car_process()], duration=24 * HOUR)
        assert self.trace_of(1, scenario, config) != self.trace_of(2, scenario, config)


class TestTickOracle:
    def test_live_counts_match_fixed_step_simulation(self, scripted_stream):
        # inject pre-drawn variates into the event kernel, then replay the
        # same variates through an independent 1 s fixed-step loop and compare
        # the live-object count at every tick
        horizon = 2000.0
        interarrivals = [7.0, 13.0, 5.0, 41.0, 3.0, 97.0, 11.0, 251.0, 2.0,
                         173.0, 19.0, 307.0, 23.0, 89.0, 131.0]
        lifetimes = [50.0, 200.0, 12.0, 500.0, 75.0, 30.0, 999.0, 40.0, 8.0,
                     120.0, 61.0, 340.0, 17.0, 260.0, 90.0]

        scenario = line_scenario(5, capacity={"car": 100}, pois=((2, "housing"),))
        config = empty_config(processes=[car_process()], duration=horizon)
        state = SimState(scenario, config, seed=1)
        (inst,) = state.instances
        inst.stream = scripted_stream(interarrivals, lifetimes)
        events = []
        state.trace = lambda t, k, p: events.append((t, k))
        state.run()

        spawn_times = list(itertools.accumulate(interarrivals))
        windows = [(s, s + l) for s, l in zip(spawn_times, lifetimes)
                   if s <= horizon]

        ticks = [float(i) for i in range(int(horizon) + 1)]
        for t in ticks:
            oracle = sum(1 for s, e in windows if s <= t < e)
            des = (sum(1 for et, k in events if k == SPAWN and et <= t)
                   - sum(1 for et, k in events if k == EXPIRY and et <= t))
            assert des == oracle, f"mismatch at t={t}: des={des} oracle={oracle}"


class TestTasks:
    def task_config(self, rate=2.0, **overrides):
        base = dict(
            processes=[],
            tasks=[TaskSpec("visits", frozenset({"housing"}),
                            RateProfile.constant(rate))],
            fleet=FleetConfig(count=1),
            duration=12 * HOUR,
            warmup=0.0,
        )
        base.update(overrides)
        return SimConfig(**base)

    def test_round_trip_completes_and_frees_agent(self):
        scenario = line_scenario(5, pois=((4, "housing"),))
        state = SimState(scenario, self.task_config(), seed=3)
        state.run()
        c = state.ledger.counters
        assert c["tasks_completed"] > 10
        assert "tasks_unreachable" not in c  # absent when zero: no digest moves
        assert state.fleet[0].current_node == "v0"
        assert len(state.idle_agents) == 1

    def test_prediction_exact_without_obstacles(self):
        # no object processes: predicted and realized round-trip durations
        # must agree to float precision, for either planner
        scenario = line_scenario(6, pois=((5, "housing"),))
        for mode in ("observed", "static"):
            state = SimState(
                scenario,
                self.task_config(fleet=FleetConfig(count=1, planner_mode=mode)),
                seed=3)
            state.run()
            assert state.ledger.tasks, "no completed tasks"
            for task in state.ledger.tasks:
                assert task.t_completed == pytest.approx(task.t_pred, rel=1e-12)

    def test_agents_pay_what_the_planner_charges(self):
        # obstacles with fractional areas slow the route; with the belief
        # synced to a truth that never changes, each dwell an agent pays
        # must be the node cost the planner charged
        scenario = line_scenario(6, pois=((5, "housing"),))
        state = SimState(scenario, self.task_config(), seed=3)
        for oid, area, node in (("o0", 1.1, "v2"), ("o1", 0.7, "v4")):
            state.truth.attach_object(ObjectNode(oid, "car", 0.0, 1e9, area, node))
        state.belief.merge_observation(
            state.truth.radius_subgraph((0.0, 0.0), math.inf))
        state.run()
        agent, poi = state.fleet[0], scenario.access["poi0"]
        free = sum(plan_ids(state.truth.network.bare, a, b, agent)[1]
                   for a, b in (("v0", poi), (poi, "v0")))
        assert state.ledger.tasks, "no completed tasks"
        for task in state.ledger.tasks:
            assert task.t_pred - task.t_assigned > free * (1 + 1e-9)
            assert task.t_completed == pytest.approx(task.t_pred, rel=1e-12)

    @pytest.mark.parametrize("mode", ["static", "observed"])
    def test_narrow_node_is_detoured(self, narrow_detour, mode):
        # the short route a-b-c crosses b's 0.4 m sidewalk, too narrow for
        # the 0.5 m agent: every leg takes the detour and the run completes
        entered = []

        def trace(t, kind, payload):
            if kind == AGENT_NODE_ENTRY:
                entered.append(payload[1])

        fleet = FleetConfig(count=1, planner_mode=mode)
        state = SimState(narrow_detour, self.task_config(fleet=fleet), seed=3, trace=trace)
        state.run()
        assert state.ledger.tasks, "no completed tasks"
        assert "b" not in entered and "d" in entered
        for task in state.ledger.tasks:
            # out a-d-e-c and back c-e-d-a: 40 m of edges and three 5 m segments each
            leg = 55.0 / fleet.default_velocity
            assert task.t_pred - task.t_assigned == pytest.approx(2 * leg)
            assert task.t_completed == pytest.approx(task.t_pred, rel=1e-12)

    @pytest.mark.parametrize("mode", ["static", "observed"])
    def test_hop_takes_the_shortest_edge(self, mode):
        # a-b joined by parallel edges of 20 and 12 m, b -> c of 7 m and
        # c -> b of 15 m: each hop costs its shortest edge over the speed
        graph = SceneGraph()
        for nid, x in (("a", 0.0), ("b", 10.0), ("c", 20.0)):
            graph.add_path_node(PathNode(nid, x, 0.0, "sidewalk", {"car": 1}, 5.0, 2.0))
        graph.add_adjacency_edge("a", "b", 20.0)
        graph.add_adjacency_edge("a", "b", 12.0)
        graph.add_adjacency_edge("b", "c", 7.0, directed=True)
        graph.add_adjacency_edge("c", "b", 15.0, directed=True)
        for pid, node in (("depot", "a"), ("home", "c")):
            graph.add_poi_node(PoiNode(pid, graph.path_nodes[node].x, 3.0, "housing",
                                       is_depot=pid == "depot"))
            graph.add_access_edge(pid, node, 3.0)
        graph.freeze_static()
        hops, left = [], [0.0]

        def trace(t, kind, payload):
            if kind == AGENT_NODE_EXIT:
                left.append(t)
            elif kind == AGENT_NODE_ENTRY:
                hops.append((payload[1], t - left[-1]))

        fleet = FleetConfig(count=1, planner_mode=mode)
        state = SimState(graph, empty_config(fleet=fleet), seed=1, trace=trace)
        state._assign(0.0, state.fleet[0], Task("t0", "home", 0.0))
        state.run()
        v = fleet.default_velocity
        assert [node for node, _ in hops] == ["b", "c", "b", "a"]
        assert [dt for _, dt in hops] == pytest.approx([12.0 / v, 7.0 / v, 15.0 / v, 12.0 / v],
                                                       rel=1e-12)
        (task,) = state.ledger.tasks
        assert task.t_completed == pytest.approx(task.t_pred, rel=1e-12)

    @staticmethod
    def narrow_end():
        """Line a-b-c with a depot at a and housing PoIs at b and c, where c is 0.4 m wide."""
        graph = SceneGraph()
        for nid, x, width in (("a", 0.0, 2.0), ("b", 10.0, 2.0), ("c", 20.0, 0.4)):
            graph.add_path_node(PathNode(nid, x, 0.0, "sidewalk", {"car": 1}, 5.0, width))
        graph.add_adjacency_edge("a", "b", 10.0)
        graph.add_adjacency_edge("b", "c", 10.0)
        for pid, x, node, cls in (("depot", 0.0, "a", "work"), ("near", 10.0, "b", "housing"),
                                  ("far", 20.0, "c", "housing")):
            graph.add_poi_node(PoiNode(pid, x, 3.0, cls, is_depot=pid == "depot"))
            graph.add_access_edge(pid, node, 3.0)
        graph.freeze_static()
        return graph

    @pytest.mark.parametrize("mode", ["static", "observed"])
    def test_unreachable_task_is_dropped(self, mode):
        # line a-b-c whose last sidewalk, c, is narrower than the 0.5 m
        # agents: a task at c's PoI is dropped and counted, and the agent
        # that drew it takes the next task
        graph = self.narrow_end()
        fleet = FleetConfig(count=2, planner_mode=mode)
        state = SimState(graph, self.task_config(fleet=fleet), seed=3)
        first, second = state.fleet
        state.task_queue.extend([Task("t0", "far", 0.0), Task("t1", "near", 0.0)])
        state._try_dispatch(0.0)
        assert state.ledger.counters["tasks_unreachable"] == 1
        assert first.task.id == "t1" and list(state.idle_agents) == [second]
        state.run()
        c = state.ledger.counters
        assert c["tasks_unreachable"] > 1 and c["tasks_completed"] > 1
        assert {task.target_poi for task in state.ledger.tasks} == {"near"}

    @pytest.mark.parametrize("mode", ["static", "observed"])
    def test_legs_plan_on_the_layer_chosen_at_set_up(self, mode, monkeypatch):
        # static mode plans on the object-free layer, whose version stays 0,
        # and searches an unreachable leg there once; observed mode plans on
        # the belief and falls back to that layer once
        searched = []

        def recording(view, start, goal, agent):
            searched.append((view, view.network.ids[goal]))
            return plan_path(view, start, goal, agent)

        monkeypatch.setattr("scenesim.kernel.plan_path", recording)
        state = SimState(self.narrow_end(), self.task_config(
            fleet=FleetConfig(count=1, planner_mode=mode)), seed=3)
        bare = state.truth.network.bare
        assert state.plan_layer is (bare if mode == "static" else state.belief)
        assert bare.version == 0
        agent = state.fleet[0]
        state._assign(0.0, agent, Task("t0", "far", 0.0))
        want = [bare] if mode == "static" else [state.belief, bare]
        assert searched == [(view, "c") for view in want]  # far's access node
        assert state.ledger.counters["tasks_unreachable"] == 1 and state.work["plans"] == 1
        state._assign(0.0, agent, Task("t1", "near", 0.0))
        assert agent.plan_mark == state.plan_layer.version

    def test_tasks_queue_when_fleet_busy(self):
        scenario = line_scenario(12, pois=((11, "housing"),))
        state = SimState(scenario, self.task_config(rate=60.0, duration=HOUR),
                         seed=5)
        state.run()
        c = state.ledger.counters
        assert c["tasks_issued"] > c["tasks_completed"] > 0


class TestWaiting:
    def test_blocked_agent_waits_until_expiry(self):
        # saturate the mid node until t=300; the lone agent must stall there
        # and resume once the obstacle expires
        scenario = line_scenario(3, capacity={"car": 9}, pois=((2, "housing"),))
        config = SimConfig(
            processes=[], tasks=[],
            fleet=FleetConfig(count=1, planner_mode="static"),
            duration=HOUR, warmup=0.0)
        state = SimState(scenario, config, seed=1)
        state.initialize()
        blocker = ObjectNode("big", "car", 0.0, 300.0, 100.0, "v1")
        state.truth.attach_object(blocker)
        state.schedule(300.0, EXPIRY, "big")

        agent = state.fleet[0]
        task = Task(id="t0", target_poi="poi0", t_issued=0.0)
        state._assign(0.0, agent, task)
        state.run(200.0)
        assert agent.current_node == "v1" and agent in state.waiting_at["v1"]

        state.run()
        assert task.t_completed is not None
        # resumes at the expiry instant (arrival travel time is absorbed by
        # the wait), then dwell v1 (10 m segment), edge, dwell v2, and the
        # full return leg: (10+10+10)/1.5 out plus (10+10+10+10)/1.5 back
        expected = 300.0 + 30.0 / 1.5 + 40.0 / 1.5
        assert task.t_completed == pytest.approx(expected, rel=1e-9)


class TestReplications:
    def test_returns_one_ledger_per_replication(self):
        scenario = line_scenario(5, pois=((2, "housing"),))
        config = empty_config(processes=[car_process()], duration=24 * HOUR)
        ledgers = run_replications(scenario, config, 3, base_seed=9)
        assert len(ledgers) == 3
        spawned = [l.counters["spawned"] for l in ledgers]
        assert len(set(spawned)) > 1  # distinct seeds -> distinct realizations

    def test_same_base_seed_reproduces_aggregates(self):
        scenario = line_scenario(5, pois=((2, "housing"),))
        config = empty_config(processes=[car_process()], duration=24 * HOUR)
        a = run_replications(scenario, config, 2, base_seed=11)
        b = run_replications(scenario, config, 2, base_seed=11)
        assert [l.counters for l in a] == [l.counters for l in b]

    def test_replications_sharing_a_scenario_agree(self):
        # the first run fills the network's shared sensor views, the second reads them
        config = empty_config(
            processes=[car_process(footprint_area=2.0,
                                   source_classes=frozenset({"housing", "retail"}))],
            tasks=[TaskSpec("visits", frozenset({"housing"}),
                            RateProfile.constant(1.0))],
            fleet=FleetConfig(count=2, sensor_radius=25.0),
            duration=12 * HOUR, warmup=HOUR)

        def summary(scenario):
            state = SimState(scenario, config, 5)
            state.run()
            row = summary_metrics(state.ledger, sorted(scenario.path_nodes))
            del row["rtf"]
            return row, state.ledger.heatmap, state.ledger.counters

        shared = grid_scenario(5, 5)
        first = summary(shared)
        assert first[1]  # agents observed something
        assert summary(shared) == first
        assert summary(grid_scenario(5, 5)) == first

    def test_rejects_zero_replications(self):
        with pytest.raises(ValueError):
            run_replications(line_scenario(3), empty_config(), 0, base_seed=1)


# -- golden outputs ---------------------------------------------------------------

GOLDEN_FILES = ("daily_trends.csv", "arrivals_by_node_hour.csv", "heatmap.csv",
                "tasks.csv", "summary.csv")
GOLDEN_PLACES = frozenset({"housing", "retail", "leisure", "work"})


def golden_config(planner, agents, footprint_area=6.0):
    # two cars of 6 m^2 take 12 of a node's 15 m^2 free area, so believed
    # costs vary from node to node and the observed planner replans en route
    return SimConfig(
        processes=[ProcessSpec("cars", GOLDEN_PLACES, frozenset({"car"}),
                               RateProfile.constant(2.0), footprint_area=footprint_area,
                               lifetime_mean=2 * HOUR)],
        tasks=([TaskSpec("visits", GOLDEN_PLACES, RateProfile.constant(0.5))]
               if agents else []),
        fleet=FleetConfig(count=agents, sensor_radius=25.0, planner_mode=planner),
        duration=12 * HOUR, warmup=HOUR)


def output_digest(outdir, files=GOLDEN_FILES) -> str:
    """sha256 over the metric CSVs, summary.csv without its wall-clock rtf rows."""
    h = hashlib.sha256()
    for name in files:
        lines = (outdir / name).read_text().splitlines(keepends=True)
        if name == "summary.csv":
            lines = [l for l in lines if l.split(",")[1] != "rtf"]
        h.update(name.encode())
        h.update("".join(lines).encode())
    return h.hexdigest()


class TestGoldenOutputs:
    """Pinned output digests: the README determinism contract across changes.

    A change that alters any simulated number (event order, a float
    expression, a tie-break) changes these digests.  Update them only for a
    deliberate change of the model's behaviour, and say so.
    """

    @pytest.mark.parametrize("planner, agents, expected", [
        ("observed", 3,
         "e23bacde68eacb0b6004c9c9d1da046aa9dce15b9b9b32c0ac6364a1e7985136"),
        ("static", 3,
         "f164187fc8259bfb0189f4be1c762d6c8b7f197fe0932cdae194251e1ba7a12a"),
        ("static", 0,
         "ba927eaf1675520fbf1f5618f0dacf207dfd7fd0f68233b2d20cfa8885f5d8b9"),
    ])
    def test_digest(self, tmp_path, planner, agents, expected):
        scenario = grid_scenario(8, 6)
        ledgers = run_replications(scenario, golden_config(planner, agents), 2,
                                   base_seed=5)
        write_outputs(ledgers, scenario, tmp_path)
        assert output_digest(tmp_path) == expected

    @pytest.mark.parametrize("planner, agents, expected", [
        ("observed", 3,
         "84978b78a6e23c1c80d9c7d9fcc02f4dad5b7ba5607cf2bdc70cc62d7411a88d"),
        ("static", 3,
         "27c8475cb5888bf5145688154ef31e0f0a075130d35c093e372fe33f6d95c12a"),
        ("static", 0,
         "59a78100892a8af735a71c28fa18e522f898700272ce26957c908e6c35b8b343"),
    ])
    def test_node_gaps_digest(self, tmp_path, planner, agents, expected):
        # the inter-observation gaps, pinned apart from the files above
        scenario = grid_scenario(8, 6)
        ledgers = run_replications(scenario, golden_config(planner, agents), 2,
                                   base_seed=5)
        write_outputs(ledgers, scenario, tmp_path)
        assert output_digest(tmp_path, ("node_gaps.csv",)) == expected

    @pytest.mark.parametrize("planner, expected", [
        ("observed", "dd4d457b172a033de7161a12548e35010d052bf46a337e0acc2ebc6c9540c045"),
        ("static", "209898ef5f4502fefd051cb13d3570ffc9434ad5dc409b73751ccd1f24189e90"),
    ])
    def test_trace_digest(self, tmp_path, planner, expected):
        # the event trace byte for byte: a payload that named a node by
        # anything but its id would pass every CSV digest above
        run_replications(grid_scenario(8, 6), golden_config(planner, 3), 2, base_seed=5,
                         trace_factory=lambda i: TraceWriter(tmp_path / f"trace_{i}.ndjson"))
        h = hashlib.sha256()
        for i in range(2):
            h.update((tmp_path / f"trace_{i}.ndjson").read_bytes())
        assert h.hexdigest() == expected

    @pytest.mark.parametrize("planner, csv_digest, trace_digest", [
        ("observed", "9d49458384ec9f10b1dff9c41dbb5e60ee8a038768a0cd40a978a2e01fe2fac9",
         "07fe3849f10c4f4d550d872dfae741838c5c437040541a2573f9592533e1d843"),
        ("static", "78803069d8696e9f079bff130cf4c27537fcc8f504deb6d43bbc261515b29174",
         "69f7caabadc19377116deb73fbde68f876a6679cd3693864afac3dd91a627153"),
    ])
    def test_blocked_digest(self, tmp_path, planner, csv_digest, trace_digest):
        # cars of 7.5 m^2: two fill a node's 15 m^2 free area, so agents meet
        # truly blocked nodes and wait there for an expiry (63 waits observed,
        # 68 static); the outputs and the trace pin the wait path
        scenario = grid_scenario(8, 6)
        ledgers = run_replications(
            scenario, golden_config(planner, 3, footprint_area=7.5), 2, base_seed=5,
            trace_factory=lambda i: TraceWriter(tmp_path / f"trace_{i}.ndjson"))
        assert all(ledger.counters["tasks_completed"] > 0 for ledger in ledgers)
        write_outputs(ledgers, scenario, tmp_path)
        assert output_digest(tmp_path) == csv_digest
        traces = [(tmp_path / f"trace_{i}.ndjson").read_bytes() for i in range(2)]
        assert all(b'"kind": "wait_retry"' in trace for trace in traces)
        assert hashlib.sha256(b"".join(traces)).hexdigest() == trace_digest

    @pytest.mark.parametrize("planner", ["observed", "static"])
    def test_replan_skip_is_output_neutral(self, tmp_path, monkeypatch, planner):
        # a skipped en-route replan must be one that would have returned the
        # rest of the committed path: replanning at every belief change
        # changes no output (the kernel finds no kept plan in a fresh table)
        scenario = grid_scenario(8, 6)
        for name in ("skip", "always"):
            if name == "always":
                monkeypatch.setattr("scenesim.kernel.cost_table", fresh_costs)
            ledgers = run_replications(scenario, golden_config(planner, 3), 2, base_seed=5)
            write_outputs(ledgers, scenario, tmp_path / name)
        assert csv_outputs(tmp_path / "skip") == csv_outputs(tmp_path / "always")

    def test_truth_only_spawn_paths(self, tmp_path):
        # every branch of a spawn: thinning rejects candidates off-peak, 30%
        # of objects stay private, one car slot per node sends drains past a
        # full access node and a 25 m bound discards some; the warm-up ends
        # mid-hour
        shape = (1.0,) * 6 + (4.0,) * 6 + (2.0,) * 12
        config = SimConfig(
            processes=[ProcessSpec("cars", GOLDEN_PLACES, frozenset({"car"}),
                                   RateProfile(shape), footprint_area=6.0,
                                   sidewalk_probability=0.7,
                                   lifetime_mean=3 * HOUR)],
            tasks=[], fleet=FleetConfig(count=0),
            duration=12 * HOUR, warmup=1.5 * HOUR, drain_search_bound=25.0)
        scenario = grid_scenario(8, 6, capacity={"car": 1})
        ledgers = run_replications(scenario, config, 2, base_seed=5)
        for ledger in ledgers:
            assert ledger.counters["discarded_private"] > 0
            assert ledger.counters["discarded_capacity"] > 0
            assert ledger.counters["spawned"] > 0
        write_outputs(ledgers, scenario, tmp_path)
        assert output_digest(tmp_path) == (
            "f28cfe05b85fd2a993914af9058f8b713b2e84ca811a056b1239b9d6ad440ec0")


def fresh_costs(layer, agent):
    """A new cost table, which holds no plan: what every cached table stands for."""
    return NodeCosts(layer, agent.width, agent.default_velocity)


def csv_outputs(outdir):
    """Every metric CSV's text, summary.csv without its wall-clock rtf rows."""
    return {path.name: [l for l in path.read_text().splitlines()
                        if l.split(",")[1] != "rtf"]
            for path in sorted(outdir.glob("*.csv"))}


class TestObservedFallback:
    def test_leg_blocked_in_belief_is_planned_on_static_view(self, monkeypatch):
        # cars of 8 m^2: two fill a node's 15 m^2 free area, so the belief
        # can block every way to a target or back to the depot
        blocked = []

        def recording(view, start, goal, agent):
            try:
                return plan_path(view, start, goal, agent)
            except Unreachable:
                blocked.append(view)
                raise

        monkeypatch.setattr("scenesim.kernel.plan_path", recording)
        config = SimConfig(
            processes=[ProcessSpec("cars", GOLDEN_PLACES, frozenset({"car"}),
                                   RateProfile.constant(1.0), footprint_area=8.0,
                                   lifetime_mean=8 * HOUR)],
            tasks=[TaskSpec("visits", GOLDEN_PLACES, RateProfile.constant(0.5))],
            fleet=FleetConfig(count=3, sensor_radius=25.0, planner_mode="observed"),
            duration=8 * HOUR, warmup=HOUR)
        ledgers = run_replications(grid_scenario(6, 6), config, 2, base_seed=5)
        # the belief blocked some leg, and the object-free layer none
        assert blocked and {type(view) for view in blocked} == {ObservedGraph}
        for ledger in ledgers:
            assert ledger._finalized
            assert ledger.counters["tasks_completed"] > 0


class TestReplanSkip:
    def test_work_counts_every_entry_after_a_belief_change(self):
        # every en-route entry at which the belief's version moved since
        # the agent's mark is either replanned or skipped, and counted once
        state = SimState(grid_scenario(8, 6), golden_config("observed", 3), seed=5)
        belief, entries, grown = state.belief, [], []
        merge = state._merge_observation

        def record(t, kind, payload):
            if kind == AGENT_NODE_ENTRY:
                agent = state._agents_by_id[payload[0]]
                entries.append((agent, payload[1], agent.plan_mark,
                                state.truth.network.ids[agent.destination]))

        def merging(agent, t):
            merge(agent, t)
            if entries and entries[-1][0] is agent:
                _, node, mark, destination = entries.pop()
                grown.append(mark != belief.version and node != destination)

        state.trace = record
        state._merge_observation = merging
        state.run()
        work = state.work
        assert work["replans"] > 0 and work["replans_skipped"] > 0 and work["plans"] > 0
        assert work["replans"] + work["replans_skipped"] == sum(grown)
        assert set(work) == {"plans", "replans", "replans_skipped"}
        # outputs digest the ledger's counters: the work counters stay out of them
        assert set(state.ledger.counters) == {"spawned", "expired", "tasks_issued",
                                              "tasks_completed", "tasks_warmup",
                                              "degenerate_tasks"}

    @staticmethod
    def blocked_line():
        """An agent about to deliver along v0..v4 whose belief will see v3 blocked."""
        config = empty_config(fleet=FleetConfig(count=1, sensor_radius=25.0))
        state = SimState(line_scenario(5, capacity={"car": 9}, pois=((4, "housing"),)),
                         config, seed=1)
        block = ObjectNode("block", "car", 0.0, 1e9, 100.0, "v3")
        return state, state.fleet[0], block

    @staticmethod
    def kept_plan(state, agent):
        """The belief's kept plan for the agent's committed leg, or None."""
        return cost_table(state.belief, agent).plans.get((agent.path[0], agent.destination))

    def test_static_fallback_path_is_no_belief_plan(self):
        state, agent, block = self.blocked_line()
        state.truth.attach_object(block)
        state.belief.merge_observation(state.truth.network.visible("v3", 1.0))
        state._assign(0.0, agent, Task("t0", "poi0", 0.0))
        assert [state.truth.network.ids[i] for i in agent.path] == ["v0", "v1", "v2", "v3", "v4"]
        assert self.kept_plan(state, agent) is None
        assert agent.plan_mark == state.belief.version == 1
        # the belief does not change on the way, so the agent never replans
        state.run(60.0 / agent.default_velocity)
        assert agent.current_node == "v3" and agent in state.waiting_at["v3"]
        assert state.work["replans"] == state.work["replans_skipped"] == 0

    def test_path_kept_after_unreachable_is_no_belief_plan(self):
        state, agent, block = self.blocked_line()
        state._assign(0.0, agent, Task("t0", "poi0", 0.0))
        assert self.kept_plan(state, agent) == (
            tuple(agent.path), plan_ids(state.belief, "v0", "v4", agent)[1])
        state.truth.attach_object(block)
        # entering v1, the agent sees v3 blocked ahead: the replan fails
        state.run(10.0 / agent.default_velocity)
        assert agent.current_node == "v1" and state.work["replans"] == 1
        assert [state.truth.network.ids[i] for i in agent.path] == ["v0", "v1", "v2", "v3", "v4"]
        assert agent.path_index == 1
        assert self.kept_plan(state, agent) is None
        assert agent.plan_mark == state.belief.version > 0
        # no replan at v2 or v3 until the belief changes again
        state.run(60.0 / agent.default_velocity)
        assert agent.current_node == "v3" and agent in state.waiting_at["v3"]
        assert state.work["replans"] == 1 and state.work["replans_skipped"] == 0

    def test_return_leg_reuses_its_dispatch_plan_after_an_off_path_gain(self, monkeypatch):
        # dispatch plans both legs; a gain the belief learns of before the
        # return, at a node both searches read but neither path crosses,
        # leaves the return plan kept, so the return leg searches nothing
        config = empty_config(fleet=FleetConfig(count=1, sensor_radius=25.0))
        state = SimState(grid_scenario(4, 3, capacity={"car": 9}), config, seed=1)
        agent, ids, searches, read = state.fleet[0], state.truth.network.ids, [], set()

        def counting(in_edges, positions, start, goal, speed, node_cost):
            searches.append((ids[start], ids[goal]))

            def cost(i):
                read.add(ids[i])
                return node_cost(i)
            return astar(in_edges, positions, start, goal, speed, cost)

        monkeypatch.setattr("scenesim.agents.astar", counting)
        state._assign(0.0, agent, Task("t0", "poi00", 0.0))
        assert searches == [("g06", "g00"), ("g00", "g06")]
        index = state.truth.network.index
        back = cost_table(state.belief, agent).plans[(index["g00"], index["g06"])]
        off_path = sorted(read - {ids[i] for i in agent.path + back[0]})
        assert off_path
        state.truth.attach_object(ObjectNode("gain", "car", 0.0, 1e9, 4.0, off_path[0]))
        assert state.belief.merge_observation(state.truth.network.visible(off_path[0], 1.0))
        state.run()
        assert state.ledger.counters["tasks_completed"] == 1
        assert searches == [("g06", "g00"), ("g00", "g06")]
        assert state.work["plans"] == 3 and state.work["replans_skipped"] == 1


class TestSplitRun:
    def test_paused_run_matches_one_shot(self, tmp_path):
        scenario = grid_scenario(8, 6)
        config = golden_config("observed", 3)
        whole = SimState(scenario, config, seed=5)
        whole.run()
        split = SimState(scenario, config, seed=5)
        split.run(config.duration / 2)
        split.run()

        rows = []
        for name, state in (("whole", whole), ("split", split)):
            row = summary_metrics(state.ledger, sorted(scenario.path_nodes))
            assert 0 < row.pop("rtf") < math.inf
            rows.append(row)
            write_outputs([state.ledger], scenario, tmp_path / name)
        assert rows[0] == rows[1]
        assert csv_outputs(tmp_path / "whole") == csv_outputs(tmp_path / "split")

    @pytest.mark.parametrize("t_end", [100.0, math.nan])
    def test_run_before_clock_rejected(self, t_end):
        # a NaN end would set the clock to NaN, and a later run continue from it
        config = golden_config("observed", 3)
        state = SimState(grid_scenario(8, 6), config, seed=5)
        state.run(200.0)
        before = (state.clock, list(state._queue), state._seq, state.wall_s,
                  state.rtf, dict(state.ledger.counters))
        with pytest.raises(TimeTravel):
            state.run(t_end)
        assert (state.clock, list(state._queue), state._seq, state.wall_s,
                state.rtf, dict(state.ledger.counters)) == before
        with pytest.raises(TimeTravel):
            state.schedule(150.0, SPAWN, None)
        state.run(200.0)  # up to the clock itself is allowed and runs nothing
        assert state.clock == 200.0

    def test_run_past_configured_end_rejected(self):
        # the ledger finalizes at the configured end; running on would count
        # spawns past it and add stale spans that finalize already closed
        config = empty_config(processes=[car_process(4.0, lifetime=HOUR)],
                              duration=5 * HOUR)
        scenario = line_scenario(6, pois=((2, "housing"), (4, "housing")))
        whole = SimState(scenario, config, seed=1)
        whole.run()

        fresh = SimState(scenario, config, seed=1)
        with pytest.raises(ValueError, match="past the configured end"):
            fresh.run(10 * HOUR)
        assert (fresh.clock, fresh._queue, fresh.wall_s, fresh.rtf) == (0.0, [], 0.0, None)
        assert not fresh._initialized and not fresh.ledger.counters

        split = SimState(scenario, config, seed=1)
        split.run()
        before = (split.clock, list(split._queue), split._seq, split.wall_s, split.rtf,
                  dict(split.ledger._stale_since), dict(split.ledger._stale_s),
                  dict(split.ledger.counters))
        with pytest.raises(ValueError, match="past the configured end"):
            split.run(10 * HOUR)
        assert (split.clock, list(split._queue), split._seq, split.wall_s, split.rtf,
                dict(split.ledger._stale_since), dict(split.ledger._stale_s),
                dict(split.ledger.counters)) == before
        split.run()  # up to the configured end itself runs nothing
        rows = [summary_metrics(state.ledger, sorted(scenario.path_nodes))
                for state in (whole, split)]
        for row in rows:
            row.pop("rtf")
        assert rows[0] == rows[1]
        assert 0.0 <= rows[1]["up_to_date_share_pct"] <= 100.0

    def test_rtf_spans_every_segment(self):
        config = golden_config("observed", 3)
        state = SimState(grid_scenario(8, 6), config, seed=5)
        state.run(config.duration / 4)
        first = state.wall_s
        assert state.rtf == pytest.approx(config.duration / 4 / first)
        state.run()
        assert state.wall_s > first
        assert state.rtf == pytest.approx(config.duration / state.wall_s)


# one run of a golden-like scenario whose nodes hold cars of 1.1 m^2 and
# bicycles of 0.7 m^2: sums of those areas round differently by order
HASH_SEED_RUN = """
import sys
from scenesim.config import FleetConfig, SimConfig, TaskSpec
from scenesim.kernel import run_replications
from scenesim.metrics import write_outputs
from scenesim.processes import ProcessSpec
from scenesim.stochastic import RateProfile
from scenesim.synthetic import grid_scenario

places = frozenset({"housing", "retail", "leisure", "work"})
config = SimConfig(
    processes=[ProcessSpec(name, places, frozenset({cls}), RateProfile.constant(2.0),
                           footprint_area=area, lifetime_mean=7200.0)
               for name, cls, area in (("cars", "car", 1.1),
                                       ("bikes", "bicycle", 0.7))],
    tasks=[TaskSpec("visits", places, RateProfile.constant(0.5))],
    fleet=FleetConfig(count=3, sensor_radius=25.0, planner_mode="observed"),
    duration=12 * 3600.0, warmup=3600.0)
scenario = grid_scenario(10, 6)
write_outputs(run_replications(scenario, config, 2, base_seed=5), scenario, sys.argv[1])
"""


def test_outputs_independent_of_hash_seed(tmp_path):
    # set iteration order follows PYTHONHASHSEED; no output may depend on it
    src = Path(scenesim.__file__).resolve().parent.parent
    outputs = []
    for hash_seed in ("0", "2"):
        out = tmp_path / hash_seed
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=hash_seed)
        proc = subprocess.run([sys.executable, "-c", HASH_SEED_RUN, str(out)],
                              capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append(csv_outputs(out))
    assert len(outputs[0]["tasks.csv"]) > 10
    assert outputs[0] == outputs[1]


class TestStaleSet:
    @pytest.mark.parametrize("planner", ["observed", "static"])
    def test_stale_keys_are_the_mismatched_nodes(self, planner):
        # the ledger learns of staleness only from spawns, expiries and
        # merges; before every event and after the run its stale nodes must
        # be exactly those whose believed objects differ from the true ones,
        # and the merge, which compares only unsynced nodes, must see them all
        state = SimState(grid_scenario(8, 6), golden_config(planner, 3), seed=5)
        truth, belief, ledger = state.truth, state.belief, state.ledger
        sizes = []

        def check(*_):
            stale = {n for n in truth.path_nodes
                     if belief.objects_at.get(n, set()) != truth.objects_at.get(n, set())}
            assert ledger._stale_since.keys() == stale
            assert ledger._stale_since.keys() <= belief.unsynced
            sizes.append(len(stale))

        state.trace = check
        state.run()
        check()
        assert len(sizes) > 1000 and max(sizes) > 5
        assert ledger.counters["tasks_completed"] > 0

    def test_believed_object_expiry_marks_stale_without_comparing(self, monkeypatch):
        # "seen" is believed at v1, "unseen" at v2 is not: only the latter's
        # expiry needs the id sets compared, and it makes v2 correct again
        state = SimState(line_scenario(3, capacity={"car": 9}), empty_config(), seed=1)
        for oid, node, expires in (("seen", "v1", 100.0), ("unseen", "v2", 200.0)):
            state.truth.attach_object(ObjectNode(oid, "car", 0.0, expires, 1.0, node))
            state.schedule(expires, EXPIRY, oid)
        state.belief.merge_observation(state.truth.network.visible("v1", 1.0))
        state.ledger.set_correct(0.0, "v2", False)
        compared = []

        def recording(belief, truth, node):
            compared.append(node)
            return up_to_date(belief, truth, node)

        monkeypatch.setattr("scenesim.kernel.up_to_date", recording)
        state.run(150.0)
        assert compared == [] and state.ledger._stale_since == {"v1": 100.0, "v2": 0.0}
        state.run()
        assert compared == ["v2"] and state.ledger._stale_since == {"v1": 100.0}


# -- every cache against its reference ---------------------------------------------------


KERNEL_INPUTS = st.fixed_dictionaries({
    # a line of n nodes, or a cols x rows grid
    "shape": st.one_of(st.tuples(st.integers(3, 8)),
                       st.tuples(st.integers(3, 8), st.integers(2, 6))),
    "planner": st.sampled_from(["observed", "static"]),
    "agents": st.integers(1, 3),
    # every free area is 15 m^2: one car of 16 m^2 or two of 8 m^2 block a
    # node, and two of 6 m^2 slow an agent to a fifth of its speed
    "footprint": st.sampled_from([3.0, 6.0, 8.0, 16.0]),
    "cars_per_hour": st.sampled_from([1.0, 4.0]),
    "tasks_per_hour": st.sampled_from([0.5, 2.0]),
    "radius": st.sampled_from([15.0, 20.0, 25.0]),
    "hours": st.integers(2, 8),
    "seed": st.integers(0, 2 ** 16),
})


def kernel_case(shape, planner, agents, footprint, cars_per_hour, tasks_per_hour, radius,
                hours, seed):
    """A fresh scenario builder, the config and the seed of one differential input."""
    if len(shape) == 1:
        (n,) = shape
        build = functools.partial(line_scenario, n, capacity={"car": 2},
                                  pois=((n - 1, "housing"), (n // 2, "retail")))
    else:
        build = functools.partial(grid_scenario, *shape, capacity={"car": 2}, poi_every=2)
    places = frozenset({"housing", "retail", "leisure"})
    config = SimConfig(
        processes=[ProcessSpec("cars", places, frozenset({"car"}),
                               RateProfile.constant(cars_per_hour),
                               footprint_area=footprint, lifetime_mean=HOUR)],
        tasks=[TaskSpec("visits", places, RateProfile.constant(tasks_per_hour))],
        fleet=FleetConfig(count=agents, sensor_radius=radius, planner_mode=planner),
        duration=hours * HOUR, warmup=0.5 * HOUR)
    return build, config, seed


def reference_caches():
    """Patches that replace every kernel-path cache with what it caches."""
    merge = ObservedGraph.merge_observation

    def visible(network, node_id, r):
        node = network._path_nodes[node_id]
        return _scan(network._path_nodes, network._poi_nodes, node.x, node.y, r)

    def merge_all(belief, obs):
        belief.unsynced |= obs.path_nodes
        return merge(belief, obs)

    return [mock.patch.object(StaticNetwork, "visible", visible),
            mock.patch.object(ObservedGraph, "merge_observation", merge_all),
            mock.patch("scenesim.kernel.cost_table", fresh_costs),
            mock.patch("scenesim.agents.cost_table", fresh_costs)]


def assert_stale_set_exact(state):
    believed, true = state.belief.objects_at, state.truth.objects_at
    stale = {n for n in state.truth.path_nodes
             if believed.get(n, set()) != true.get(n, set())}
    assert state.ledger._stale_since.keys() == stale


def run_with(build, config, seed, outdir, patches):
    """Events per replication and the CSVs of two replications on a fresh scenario."""
    scenario = build()
    events, states, run = [], [], SimState.run

    def running(state, t_end=None):
        states.append(state)
        return run(state, t_end)

    def trace_factory(i):
        log = []
        events.append(log)

        def trace(t, kind, payload):
            log.append((t, kind, payload))
            assert_stale_set_exact(states[-1])
        return trace

    with contextlib.ExitStack() as stack:
        for patch in [mock.patch.object(SimState, "run", running), *patches]:
            stack.enter_context(patch)
        ledgers = run_replications(scenario, config, 2, seed, trace_factory=trace_factory)
    for state in states:
        assert_stale_set_exact(state)
    write_outputs(ledgers, scenario, outdir)
    return events, csv_outputs(outdir)


@settings(max_examples=60, deadline=None)
@given(KERNEL_INPUTS)
def test_differential_caches_match_their_references(params):
    # memoized views, the unsynced set, cost tables and their plan memos,
    # which the replan skip reads, each stand for a computation; doing that
    # computation every time instead must change no event and no output
    build, config, seed = kernel_case(**params)
    with tempfile.TemporaryDirectory() as tmp:
        cached = run_with(build, config, seed, Path(tmp, "cached"), [])
        reference = run_with(build, config, seed, Path(tmp, "reference"), reference_caches())
    assert cached[0] == reference[0]
    assert cached[1] == reference[1]


class TestTruthIndependence:
    """For a seed, the true world is the same whatever the fleet and its planner."""

    SUMMARY_ROWS = ("objects_spawned", "objects_expired", "discarded_private",
                    "discarded_capacity")

    def truth_of(self, scenario, config, out):
        """(the run's true-world outputs, tasks it completed)."""
        state = SimState(scenario, config, config.seed)
        state.run()
        write_outputs([state.ledger], scenario, out)
        with open(out / "arrivals_by_node_hour.csv") as f:
            arrivals = [(node, hour, true) for _, node, hour, true, _ in itertools.islice(
                csv.reader(f), 1, None) if int(true) > 0]
        with open(out / "summary.csv") as f:
            summary = [row for row in csv.reader(f) if row[1] in self.SUMMARY_ROWS]
        truth = ((out / "daily_trends.csv").read_bytes(), arrivals, summary,
                 state.ledger.counters["tasks_issued"])
        return truth, state.ledger.counters["tasks_completed"]

    def test_truth_does_not_depend_on_the_fleet(self, tmp_path):
        # planner_gap.py's scene and rates, one day; agents draw no random
        # numbers and every source owns its stream, so neither the planner
        # nor the fleet size may move a spawn, an expiry or a task arrival
        gap = load_script("planner_gap")
        scenario = gap.build_scenario()
        by_seed = {}
        for seed in (1, 2):
            truths, completed = {}, {}
            for mode in ("observed", "static"):
                for agents in (0, 3, 12):
                    config = gap.build_config(
                        mode, rate_per_hour=1.0, lifetime_hours=8.0, footprint=4.0,
                        task_rate=0.1, agents=agents, sensor_radius=45.0, days=1,
                        warmup_hours=2, seed=seed)
                    out = tmp_path / f"{seed}-{mode}-{agents}"
                    truths[mode, agents], completed[mode, agents] = self.truth_of(
                        scenario, config, out)
            first = truths["observed", 0]
            assert [key for key, truth in truths.items() if truth != first] == []
            assert first[1] and first[3] > 0  # arrivals and tasks, so the pin is not empty
            assert min(done for (_, agents), done in completed.items() if agents) > 0
            by_seed[seed] = first
        assert by_seed[1] != by_seed[2]
