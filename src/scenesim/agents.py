"""Mobile agents: obstacle-dependent travel costs, planning, observation.

Agents move on the path network, pay a dwell time at every node they enter
that grows with obstacle density on the node's sidewalk segment, and sense
all nodes within their sensor radius on every node entry and exit.  Planning
runs either on the network's object-free layer or on the shared belief graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import Unreachable
from .graph import ObjectLayer, Observation, PathNode, SceneGraph
from .routing import astar

IDLE_AT_DEPOT = "idle_at_depot"
TO_TARGET = "to_target"
RETURNING = "returning"

PLANNER_STATIC = "static"
PLANNER_OBSERVED = "observed"
PLANNER_MODES = (PLANNER_STATIC, PLANNER_OBSERVED)


@dataclass
class Agent:
    id: str
    current_node: str
    default_velocity: float
    width: float
    sensor_radius: float
    state: str = IDLE_AT_DEPOT  # a waiting agent keeps its leg; the kernel's waiting_at holds it
    path: tuple[int, ...] = ()  # the leg's network indices, as planned
    path_index: int = 0
    plan_mark: int = 0  # planning layer's version when the path was planned or last confirmed
    task: object = None

    @property
    def destination(self) -> int | None:
        return self.path[-1] if self.path else None


@dataclass
class Task:
    id: str
    target_poi: str
    t_issued: float
    t_assigned: float | None = None
    t_pred: float | None = None
    t_completed: float | None = None


def node_velocity(node: PathNode, footprint_sum: float, agent_width: float,
                  default_velocity: float) -> float:
    """Agent velocity over the node's segment under the linear density model.

    The free area not swept by the agent is l_s * (b_s - b_agent); occupied
    footprint shrinks it linearly and the velocity clamps at zero when
    obstacles fill the free area.  A sidewalk not wider than the agent has
    no free area at all: the velocity is zero, as on a full segment.
    """
    if agent_width >= node.sidewalk_width:
        return 0.0
    a_free = node.segment_length * (node.sidewalk_width - agent_width)
    return max((a_free - footprint_sum) / a_free * default_velocity, 0.0)


def dwell_time(node: PathNode, footprint_sum: float, agent_width: float,
               default_velocity: float) -> float:
    """Time to cross the node's segment, ``segment_length / nu``; inf when blocked."""
    nu = node_velocity(node, footprint_sum, agent_width, default_velocity)
    return math.inf if nu == 0.0 else node.segment_length / nu


class NodeCosts(dict):
    """Network index -> a layer's node cost for agents of one width and speed.

    This is the one dwell rule: the planner reads it on the belief or on
    ``network.bare``, the kernel on the truth.  An entry is filled on first
    read with the :func:`dwell_time` at the node's footprint sum, inf where
    the node is blocked; the layer drops it when the node's objects change.
    ``plans`` memoizes the searches over the table (:func:`plan_path`), and
    :meth:`forget` drops the ones a change could alter.
    """

    __slots__ = ("layer", "width", "speed", "plans")

    def __init__(self, layer: ObjectLayer, width: float, speed: float):
        super().__init__()
        self.layer, self.width, self.speed = layer, width, speed
        self.plans: dict[tuple[int, int], tuple[tuple[int, ...], float]] = {}

    def __missing__(self, i: int) -> float:
        nid = self.layer.network.ids[i]
        cost = self[i] = dwell_time(self.layer.path_nodes[nid], self.layer.footprint_sum(nid),
                                    self.width, self.speed)
        return cost

    def forget(self, i: int, shrank: bool):
        """Drop the kept plans that a change of node ``i``'s cost could alter.

        Under the goal-rooted rule a plan stays what a new search would
        return while no node on its path changes: a node off it that only
        gained objects got no cheaper, so the labels of the path's nodes and
        their successor choices stay as they were.  A node x that lost
        objects (``shrank``) lies on no route as cheap as the plan when
        ``kappa * (|start - x| + |x - goal|) / v``, the network's lower bound
        on any route through it (see :attr:`StaticNetwork.kappa`), exceeds
        the plan's cost.  Every kept plan is tested, whether or not the
        table held an entry for ``i``: a plan may have read an entry that an
        earlier change dropped.
        """
        net = self.layer.network
        pos, dist, k, v = net.positions, math.dist, net.kappa, self.speed
        x = pos[i]
        stale = []
        for key, (path, cost) in self.plans.items():
            if i in path:
                stale.append(key)
            elif shrank:
                through = dist(pos[key[0]], x) + dist(x, pos[key[1]])
                if k * through / v <= cost * (1 + 1e-9):
                    stale.append(key)
        for key in stale:
            del self.plans[key]


def cost_table(layer: ObjectLayer, agent: Agent) -> NodeCosts:
    """``layer``'s node-cost table for agents of ``agent``'s width and speed."""
    key = (agent.width, agent.default_velocity)
    table = layer.node_costs.get(key)
    if table is None:
        table = layer.node_costs[key] = NodeCosts(layer, *key)
    return table


def plan_path(view, start: int, goal: int, agent: Agent) -> tuple[tuple[int, ...], float]:
    """Minimum travel-time path between two path nodes, by network index, on ``view``.

    Per-edge cost is length/velocity plus the full dwell at the target
    node, from the view's objects; a blocked node is never entered.  The
    cost of a path therefore equals the time an agent needs to traverse it
    when the world matches the view.  The observed planner passes the
    belief; the static planner passes ``network.bare``, where every segment
    is empty.

    The path follows the goal-rooted rule of :func:`routing.astar`, so its
    every suffix is the plan from that suffix's first node.  The search runs
    over the in-edges of the view's compiled :class:`StaticNetwork`, whose
    indices order like the ids, so it returns what a search over the ids
    would.  A node's cost is looked up by index in the view's cost table for
    the agent's width and speed, which the view keeps current as its objects
    change.  Its result is memoized in the table's ``plans`` per (start,
    goal) and kept until a change of the view's objects could alter it
    (:meth:`NodeCosts.forget`); on ``bare`` nothing ever changes.  A call
    returns the memo's entry, whose path is an immutable tuple.
    """
    costs = cost_table(view, agent)
    plan = costs.plans.get((start, goal))
    if plan is None:
        net = view.network
        try:
            path, cost = astar(net.predecessors, net.bound_positions, start, goal,
                               agent.default_velocity, costs.__getitem__)
        except Unreachable:
            raise Unreachable(f"no path from {net.ids[start]!r} to {net.ids[goal]!r}") from None
        plan = costs.plans[start, goal] = (tuple(path), cost)
    return plan


def observe(truth: SceneGraph, agent: Agent) -> Observation:
    """Noiseless view of the truth within the agent's sensor radius (memoized)."""
    return truth.network.visible(agent.current_node, agent.sensor_radius)
