"""Discrete-event kernel: event queue, clock, handlers, replications.

Events execute in (time, kind priority, sequence) order.  Expiry sorts before
spawn at equal timestamps so capacity freed at t is usable by a spawn at t;
wait-retry sorts last so a blocked agent re-checks after the expiry that woke
it has been applied.  A replication is strictly sequential; parallelism only
ever happens across replications, which share nothing mutable.
"""

from __future__ import annotations

import heapq
import math
import time as _time
from collections import Counter, deque
from typing import NamedTuple

from .agents import (
    IDLE_AT_DEPOT,
    PLANNER_STATIC,
    RETURNING,
    TO_TARGET,
    Agent,
    Task,
    cost_table,
    observe,
    plan_path,
)
from .config import SimConfig, TaskSpec
from .errors import TimeTravel, Unreachable, ValidationError, ZeroRate
from .graph import ObservedGraph, SceneGraph, up_to_date
from .metrics import MetricsLedger
from .processes import instantiate_processes, process_keys
from .stochastic import RandomStream, next_nhpp_interarrival, random_streams

SPAWN = "spawn"
EXPIRY = "expiry"
TASK_ARRIVAL = "task_arrival"
AGENT_NODE_ENTRY = "agent_node_entry"
AGENT_NODE_EXIT = "agent_node_exit"
WAIT_RETRY = "wait_retry"

KIND_PRIORITY = {
    EXPIRY: 0,
    SPAWN: 1,
    TASK_ARRIVAL: 2,
    AGENT_NODE_ENTRY: 3,
    AGENT_NODE_EXIT: 4,
    WAIT_RETRY: 5,
}


class TaskSource(NamedTuple):
    """One task generator at one PoI: its spec and its own stream."""

    spec: TaskSpec
    stream: RandomStream


class SimState:
    """All mutable state of one replication."""

    def __init__(self, scenario: SceneGraph, config: SimConfig, seed: int,
                 trace=None):
        if faults := config.class_faults(scenario.registry):  # the config checks the rest
            raise ValidationError(faults)
        self.truth = scenario.dynamic_copy()
        self.belief = ObservedGraph(self.truth)
        # the layer every leg is planned on: a planner mode is a choice of layer
        self.plan_layer = (self.truth.network.bare if config.fleet.planner_mode == PLANNER_STATIC
                           else self.belief)
        self.clock = 0.0
        self.t_end = config.duration
        self._search_bound = config.drain_search_bound
        self.trace = trace
        self._queue: list = []
        self._seq = 0
        self._object_serial = 0
        self._task_serial = 0
        self.rtf: float | None = None
        self.wall_s = 0.0  # summed wall time of all run() segments
        self._initialized = False
        # legs planned at dispatch and at the target, en-route replans run
        # and skipped; kept apart from ledger.counters, which outputs digest
        self.work = Counter()

        self.ledger = MetricsLedger(
            config.warmup, config.duration, self.truth.registry.objects
        )
        # every process and task stream, seeded in one pass
        keys = process_keys(self.truth, config.processes)
        tasks = [(spec, poi_id) for spec in config.tasks
                 for poi_id in sorted(pid for pid, poi in self.truth.poi_nodes.items()
                                      if poi.semantic_class in spec.place_classes)]
        streams = random_streams(seed, [("process", s.name, p, c) for s, p, c in keys]
                                 + [("task", s.name, p) for s, p in tasks])
        self.instances = instantiate_processes(keys, streams[:len(keys)])

        depot = self.truth.depot_id
        self._depot_node = self.truth.access[depot] if depot is not None else None
        self.fleet = [
            Agent(
                id=f"agent{i}",
                current_node=self._depot_node,
                default_velocity=config.fleet.default_velocity,
                width=config.fleet.agent_width,
                sensor_radius=config.fleet.sensor_radius,
            )
            for i in range(config.fleet.count if self._depot_node is not None else 0)
        ]
        self.idle_agents = deque(self.fleet)
        self.task_queue: deque = deque()
        self.waiting_at: dict[str, list[Agent]] = {}
        self._agents_by_id = {a.id: a for a in self.fleet}
        # event payload -> (kind, source): a process instance or a task
        # source, each with a ``spec`` and its own ``stream``; the config's
        # unique names make each payload unique
        self._sources: dict[tuple, tuple] = {
            (inst.spec.name, inst.poi_id, inst.object_class): (SPAWN, inst)
            for inst in self.instances}
        self._sources.update(((spec.name, poi_id), (TASK_ARRIVAL, TaskSource(spec, stream)))
                             for (spec, poi_id), stream in zip(tasks, streams[len(keys):]))

    # -- scheduling -------------------------------------------------------------

    def schedule(self, t: float, kind: str, payload):
        if not t >= self.clock:  # NaN fails too
            raise TimeTravel(f"{kind} scheduled at {t} before clock {self.clock}")
        heapq.heappush(self._queue, (t, KIND_PRIORITY[kind], self._seq, kind, payload))
        self._seq += 1

    def initialize(self):
        """Schedule the first spawn per process and first arrival per task source."""
        if self._initialized:
            return
        self._initialized = True
        # in insertion order: process instances, then task sources; the
        # streams are read now, so a test may replace one after construction
        for payload, (kind, source) in self._sources.items():
            try:
                dt = next_nhpp_interarrival(source.spec.rate_profile, 0.0, source.stream)
            except ZeroRate:
                continue
            self.schedule(dt, kind, payload)

    # -- main loop ---------------------------------------------------------------

    def run(self, t_end: float | None = None):
        """Execute events until the queue drains or the clock passes t_end.

        A run may be split into segments, ``run(t1)`` then ``run()``: the
        ledger is finalized once the clock reaches the configured end, and
        ``rtf`` is the simulated time over the wall time of all segments.
        A ``t_end`` before the clock, past the configured end or NaN raises and changes nothing.
        """
        if t_end is None:
            t_end = self.t_end
        if not t_end >= self.clock:  # NaN fails too
            raise TimeTravel(f"run to {t_end} before clock {self.clock}")
        if t_end > self.t_end:
            raise ValueError(f"run to {t_end} past the configured end {self.t_end}")
        self.initialize()
        started = _time.perf_counter()
        # each event kind is handled by the method named after it
        handlers = {kind: getattr(self, f"_handle_{kind}") for kind in KIND_PRIORITY}
        queue, pop, trace = self._queue, heapq.heappop, self.trace
        executed = 0
        while queue and queue[0][0] <= t_end:
            t, _, _, kind, payload = pop(queue)
            self.clock = t
            if trace is not None:
                trace(t, kind, payload)
            try:
                handlers[kind](t, payload)
            except Exception as exc:
                raise RuntimeError(
                    f"event #{executed} ({kind} at t={t}, payload={payload!r}) failed"
                ) from exc
            executed += 1
        self.clock = t_end
        if t_end >= self.t_end:
            self.ledger.finalize()
        self.wall_s += _time.perf_counter() - started
        self.rtf = t_end / self.wall_s if self.wall_s > 0 else float("inf")
        self.ledger.rtf = self.rtf
        return executed

    # -- shared helpers ------------------------------------------------------------

    def _merge_observation(self, agent: Agent, t: float):
        obs = observe(self.truth, agent)
        self.ledger.on_merge(t, obs, self.belief.merge_observation(obs))

    def _plan(self, agent: Agent, start: int, goal: int):
        """Plan a leg between network indices on ``plan_layer``: (path, cost).

        In observed mode a leg the belief blocks is planned on the network's
        object-free layer instead, as the en-route replan keeps its committed
        path: physics will decide, and the agent waits where a node is truly
        full.  In static mode that is the layer already searched.
        """
        self.work["plans"] += 1
        layer, bare = self.plan_layer, self.truth.network.bare
        try:
            return plan_path(layer, start, goal, agent)
        except Unreachable:
            if layer is bare:
                raise
        return plan_path(bare, start, goal, agent)

    def _commit(self, agent: Agent, path: tuple):
        """Set the agent on ``path`` from its start, marked at the planning layer's version."""
        agent.path = path
        agent.path_index = 0
        agent.plan_mark = self.plan_layer.version

    # -- process events ---------------------------------------------------------------

    def _handle_spawn(self, t: float, key):
        inst = self._sources[key][1]
        object_id = f"obj{self._object_serial}"
        self._object_serial += 1
        status, obj = inst.drain(t, self.truth, object_id, self._search_bound)
        ledger = self.ledger
        if obj is None:
            ledger.counters[status] += 1  # a discard status names its counter
        else:
            node = obj.attached_to
            ledger.counters["spawned"] += 1
            ledger.on_true_arrival(t, node)
            ledger.on_live_change(t, obj.semantic_class, +1)
            # a fresh object id cannot be believed yet, so the node is stale
            ledger.set_correct(t, node, False)
            self.schedule(t + obj.t_lifetime, EXPIRY, object_id)
        self.schedule(t + next_nhpp_interarrival(inst.spec.rate_profile, t, inst.stream),
                      SPAWN, key)

    def _handle_expiry(self, t: float, object_id: str):
        obj = self.truth.remove_object(object_id)
        node = obj.attached_to
        ledger = self.ledger
        ledger.counters["expired"] += 1
        ledger.on_live_change(t, obj.semantic_class, -1)
        # a believed object that expires leaves its node stale: no need to compare
        believed = object_id in self.belief.objects
        ledger.set_correct(t, node, not believed and up_to_date(self.belief, self.truth, node))
        for agent in self.waiting_at.get(node, ()):
            self.schedule(t, WAIT_RETRY, agent.id)

    # -- task events --------------------------------------------------------------------

    def _handle_task_arrival(self, t: float, payload):
        spec, stream = self._sources[payload][1]
        _, poi_id = payload
        task = Task(id=f"task{self._task_serial}", target_poi=poi_id, t_issued=t)
        self._task_serial += 1
        self.ledger.counters["tasks_issued"] += 1
        self.task_queue.append(task)
        self._try_dispatch(t)
        self.schedule(t + next_nhpp_interarrival(spec.rate_profile, t, stream),
                      TASK_ARRIVAL, payload)

    def _try_dispatch(self, t: float):
        while self.task_queue and self.idle_agents:
            task = self.task_queue.popleft()
            agent = self.idle_agents.popleft()
            self._assign(t, agent, task)

    def _assign(self, t: float, agent: Agent, task: Task):
        """FIFO assignment; prediction is the round-trip cost on the planner view."""
        index = self.truth.network.index  # the depot and the PoI, by their access nodes
        depot, target = index[self._depot_node], index[self.truth.access[task.target_poi]]
        try:
            path_out, cost_out = self._plan(agent, depot, target)
            cost_back = self._plan(agent, target, depot)[1]
        except Unreachable:  # no route there or back: drop the task, keep the agent first
            self.ledger.counters["tasks_unreachable"] += 1
            self.idle_agents.appendleft(agent)
            return
        task.t_assigned = t
        task.t_pred = t + cost_out + cost_back
        agent.task = task
        agent.state = TO_TARGET
        self._commit(agent, path_out)
        if len(path_out) == 1:
            self._leg_complete(agent, t)
        else:
            self._merge_observation(agent, t)  # exit observation when departing
            self._advance(agent, t)

    # -- agent movement -------------------------------------------------------------------

    def _advance(self, agent: Agent, t: float):
        network = self.truth.network
        i, j = agent.path[agent.path_index:agent.path_index + 2]
        # the shortest parallel edge: the length the planner's labels charged
        length = min(length for k, length in network.neighbours[i] if k == j)
        self.schedule(t + length / agent.default_velocity, AGENT_NODE_ENTRY,
                      (agent.id, network.ids[j]))

    def _handle_agent_node_entry(self, t: float, payload):
        agent_id, node = payload
        agent = self._agents_by_id[agent_id]
        agent.current_node = node
        agent.path_index += 1
        self._merge_observation(agent, t)

        # on ``bare``, whose version stays 0, no plan ever needs checking
        layer, i = self.plan_layer, agent.path[agent.path_index]
        if agent.plan_mark != layer.version and i != agent.destination:
            plan = cost_table(layer, agent).plans.get((agent.path[0], agent.destination))
            if plan is not None and plan[0] == agent.path:
                # the belief still plans this path, so by the goal-rooted
                # rule a replan would return the rest of it
                self.work["replans_skipped"] += 1
            else:
                self.work["replans"] += 1
                try:
                    agent.path = plan_path(layer, i, agent.destination, agent)[0]
                    agent.path_index = 0
                except Unreachable:
                    pass  # keep the committed path; physics will decide
            agent.plan_mark = layer.version

        self._start_dwell_or_wait(agent, t)

    def _start_dwell_or_wait(self, agent: Agent, t: float):
        dwell = cost_table(self.truth, agent)[agent.path[agent.path_index]]
        if dwell == math.inf:
            self.waiting_at.setdefault(agent.current_node, []).append(agent)
            return
        self.schedule(t + dwell, AGENT_NODE_EXIT, (agent.id, agent.current_node))

    def _handle_agent_node_exit(self, t: float, payload):
        agent_id, node = payload
        agent = self._agents_by_id[agent_id]
        self._merge_observation(agent, t)
        if agent.path_index == len(agent.path) - 1:
            self._leg_complete(agent, t)
        else:
            self._advance(agent, t)

    def _handle_wait_retry(self, t: float, agent_id: str):
        agent = self._agents_by_id[agent_id]
        waiting = self.waiting_at.get(agent.current_node, ())
        if (agent not in waiting
                or cost_table(self.truth, agent)[agent.path[agent.path_index]] == math.inf):
            return
        waiting.remove(agent)
        self._merge_observation(agent, t)
        self._start_dwell_or_wait(agent, t)

    def _leg_complete(self, agent: Agent, t: float):
        if agent.state == TO_TARGET:
            depot = self.truth.network.index[self._depot_node]
            path_back = self._plan(agent, agent.destination, depot)[0]
            agent.state = RETURNING
            self._commit(agent, path_back)
            if len(path_back) == 1:
                self._leg_complete(agent, t)
            else:
                self._advance(agent, t)
        else:
            task = agent.task
            task.t_completed = t
            self.ledger.record_task(task)
            self.ledger.counters["tasks_completed"] += 1
            agent.task = None
            agent.state = IDLE_AT_DEPOT
            agent.path = ()
            agent.path_index = 0
            self.idle_agents.append(agent)
            self._try_dispatch(t)


def run_replications(scenario: SceneGraph, config: SimConfig, n: int,
                     base_seed: int, trace_factory=None):
    """Run n independent replications with derived seeds base_seed ^ i.

    ``trace_factory(i)`` may return a per-replication trace callback; if it
    has a ``close()`` method, that is called when the replication ends, also
    when it fails.  Returns the list of finalized ledgers.
    """
    if n < 1:
        raise ValueError("need at least one replication")
    ledgers = []
    for i in range(n):
        trace = trace_factory(i) if trace_factory is not None else None
        try:
            state = SimState(scenario, config, base_seed ^ i, trace=trace)
            state.run()
        finally:
            close = getattr(trace, "close", None)
            if close is not None:
                close()
        ledgers.append(state.ledger)
    return ledgers
