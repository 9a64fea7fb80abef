"""Outside-in span tracing of one replication.

The tracer replaces the public functions the kernel calls into with timing
wrappers, installed where the caller looks the name up (``scenesim.kernel``
imported ``observe``, ``plan_path``, ``up_to_date`` and
``next_nhpp_interarrival`` by name; ``processes`` calls
``stochastic.next_nhpp_interarrival`` through the module; ``agents`` calls
``astar`` by name).  Nothing under ``src/`` changes.

Each span records (name, start, end, parent) in flat arrays held in memory and
written once at the end.  A span's self time is its duration minus the
durations of its direct children, so the self times of all spans inside the
``kernel.run`` span add up to that span exactly.  Layer statistics are only
accumulated while ``SimState.run`` executes; set-up and export are timed by
the caller.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter, defaultdict

import numpy as np

import scenesim.agents
import scenesim.graph
import scenesim.kernel
import scenesim.metrics
import scenesim.processes
import scenesim.stochastic

# Ledger calls made by the kernel; together they are the metrics layer.
LEDGER_HOOKS = ("set_correct", "on_merge", "on_live_change", "on_true_arrival",
                "record_task", "finalize")


def _percentile(values, q):
    return float(np.percentile(values, q)) if values else 0.0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span index, summed child duration]
        self.in_run = False
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.durations = defaultdict(list)  # span name -> total durations
        self.counts = Counter()
        self.events = Counter()
        self.missing: list[str] = []
        self._restore: list[tuple] = []

    # -- spans -----------------------------------------------------------------

    def span(self, name: str, fn, keep_durations: bool = False):
        """Wrap ``fn`` so that every call records a span called ``name``."""
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        if nid == len(self.names):
            self.names.append(name)
        perf = time.perf_counter
        stack = self._stack
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        calls, self_s, durations = self.calls, self.self_s, self.durations

        def wrapper(*args, **kwargs):
            idx = len(span_name)
            span_name.append(nid)
            span_parent.append(stack[-1][0] if stack else -1)
            span_start.append(0.0)
            span_end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                span_start[idx] = start
                span_end[idx] = end
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                if self.in_run:
                    calls[name] += 1
                    self_s[name] += duration - frame[1]
                    if keep_durations:
                        durations[name].append(duration)

        return wrapper

    def on_event(self, t, kind, payload):
        """``SimState(trace=...)`` callback: count events per kind."""
        self.events[kind] += 1

    # -- installation ------------------------------------------------------------

    def _patch(self, owner, attr, make):
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._restore.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self):
        """Wrap every layer boundary the kernel calls into."""
        kernel, stochastic = scenesim.kernel, scenesim.stochastic
        counts = self.counts

        def run_span(original):
            traced = self.span("kernel.run", original, keep_durations=True)

            def run(*args, **kwargs):
                self.in_run = True
                try:
                    return traced(*args, **kwargs)
                finally:
                    self.in_run = False
            return run

        self._patch(kernel.SimState, "run", run_span)
        self._patch(kernel.SimState, "schedule",
                    lambda f: self.span("kernel.schedule", f))

        # stochastic: proposals are the uniform draws made inside the sampler
        nhpp = {"depth": 0}

        def interarrival(original):
            def counted(*args, **kwargs):
                nhpp["depth"] += 1
                try:
                    return original(*args, **kwargs)
                finally:
                    nhpp["depth"] -= 1
                    if self.in_run:
                        counts["nhpp.accepted"] += 1
            return self.span("stochastic.interarrival", counted)

        for module in (stochastic, kernel):
            self._patch(module, "next_nhpp_interarrival", interarrival)

        def uniform(original):
            def counted(*args, **kwargs):
                if nhpp["depth"] and self.in_run:
                    counts["nhpp.proposed"] += 1
                return original(*args, **kwargs)
            return counted

        self._patch(stochastic.RandomStream, "uniform", uniform)

        # processes: drain and the capacity predicate it hands to the search
        def drain(original):
            def counted(*args, **kwargs):
                outcome = original(*args, **kwargs)
                if self.in_run and outcome.status == scenesim.processes.ATTACHED:
                    counts["drain.attached"] += 1
                return outcome
            return self.span("processes.drain", counted)

        self._patch(scenesim.processes.ProcessInstance, "drain", drain)

        def nearest(original):
            def counted(adjacency, start, predicate, bound):
                def tested(node):
                    counts["drain.nodes_tested"] += 1
                    return predicate(node)
                return original(adjacency, start, tested, bound)
            return counted

        self._patch(scenesim.processes, "nearest_matching_node", nearest)

        # graph: observation, merge, footprint totals, correctness test
        def observe(original):
            def counted(truth, *args, **kwargs):
                obs = original(truth, *args, **kwargs)
                counts["observe.selected"] += len(obs.path_nodes) + len(obs.poi_nodes)
                counts["observe.scanned"] += len(truth.path_nodes) + len(truth.poi_nodes)
                return obs
            return self.span("graph.observe", counted, keep_durations=True)

        self._patch(kernel, "observe", observe)

        def merge(original):
            def counted(belief, *args, **kwargs):
                before = belief.version
                result = original(belief, *args, **kwargs)
                if belief.version != before:
                    counts["merge.changed"] += 1
                return result
            return self.span("graph.merge", counted)

        self._patch(scenesim.graph.ObservedGraph, "merge_observation", merge)
        for cls in (scenesim.graph.SceneGraph, scenesim.graph.ObservedGraph):
            self._patch(cls, "footprint_sum",
                        lambda f: self.span("graph.footprint_sum", f))
        self._patch(kernel, "up_to_date", lambda f: self.span("graph.up_to_date", f))

        # agents and routing: planning, en-route replans, A* cost evaluations
        def plan(original):
            def counted(view, start, goal, agent, *args, **kwargs):
                path = getattr(agent, "path", None) or []
                index = getattr(agent, "path_index", 0)
                en_route = (start != goal and index < len(path)
                            and path[index] == start and path[-1] == goal)
                result = original(view, start, goal, agent, *args, **kwargs)
                if en_route:
                    counts["plan.en_route"] += 1
                    if list(result[0]) == list(path[index:]):
                        counts["plan.en_route_unchanged"] += 1
                return result
            return self.span("agents.plan", counted, keep_durations=True)

        self._patch(kernel, "plan_path", plan)

        def astar(original):
            def counted(adjacency, positions, start, goal, speed, node_cost):
                def cost(node):
                    counts["astar.cost_evals"] += 1
                    return node_cost(node)
                return original(adjacency, positions, start, goal, speed, cost)
            return counted

        self._patch(scenesim.agents, "astar", astar)

        for hook in LEDGER_HOOKS:
            self._patch(scenesim.metrics.MetricsLedger, hook,
                        lambda f: self.span("metrics.hooks", f))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results -------------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer numbers of the traced ``run()``; keys as in BENCHMARK.json."""
        n, s, counts = self.calls, self.self_s, self.counts
        events = sum(self.events.values())
        run_s = sum(self.durations["kernel.run"])

        def share(num, den):
            return num / den if den else 0.0

        out = {
            "kernel.events": events,
            "kernel.run_s": run_s,
            "kernel.self_s": s["kernel.run"],
            "kernel.us_per_event": 1e6 * share(s["kernel.run"], events),
            "kernel.schedule.calls": n["kernel.schedule"],
            "kernel.schedule.s": s["kernel.schedule"],
            "stochastic.interarrival.calls": n["stochastic.interarrival"],
            "stochastic.interarrival.self_s": s["stochastic.interarrival"],
            "stochastic.thinning.accept_ratio": share(counts["nhpp.accepted"],
                                                         counts["nhpp.proposed"]),
            "processes.drain.calls": n["processes.drain"],
            "processes.drain.self_s": s["processes.drain"],
            "processes.drain.nodes_tested": counts["drain.nodes_tested"],
            "processes.drain.attached_ratio": share(counts["drain.attached"],
                                                     n["processes.drain"]),
            "graph.observe.calls": n["graph.observe"],
            "graph.observe.self_s": s["graph.observe"],
            "graph.observe.p50_us": 1e6 * _percentile(self.durations["graph.observe"], 50),
            "graph.observe.p99_us": 1e6 * _percentile(self.durations["graph.observe"], 99),
            "graph.observe.selected_ratio": share(counts["observe.selected"],
                                                  counts["observe.scanned"]),
            "graph.merge.calls": n["graph.merge"],
            "graph.merge.self_s": s["graph.merge"],
            "graph.merge.changed_ratio": share(counts["merge.changed"], n["graph.merge"]),
            "graph.footprint_sum.calls": n["graph.footprint_sum"],
            "graph.footprint_sum.self_s": s["graph.footprint_sum"],
            "graph.up_to_date.calls": n["graph.up_to_date"],
            "graph.up_to_date.self_s": s["graph.up_to_date"],
            "agents.plan.calls": n["agents.plan"],
            "agents.plan.self_s": s["agents.plan"],
            "agents.plan.p50_us": 1e6 * _percentile(self.durations["agents.plan"], 50),
            "agents.plan.p99_us": 1e6 * _percentile(self.durations["agents.plan"], 99),
            "agents.plan.replan_unchanged_ratio": share(counts["plan.en_route_unchanged"],
                                                        counts["plan.en_route"]),
            "routing.astar.cost_evals": counts["astar.cost_evals"],
            "metrics.hooks.calls": n["metrics.hooks"],
            "metrics.hooks.self_s": s["metrics.hooks"],
        }
        for kind, count in self.events.items():
            out[f"kernel.events.{kind}"] = count
        return out

    def save(self, path, run_id: str):
        """Write every recorded span; span indices follow start order."""
        np.savez(
            path,
            run_id=np.array(run_id),
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )
