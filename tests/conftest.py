import importlib.util
from pathlib import Path

import pytest

from scenesim.agents import dwell_time, plan_path
from scenesim.graph import EDGE_ADJACENCY, PathNode, PoiNode, SceneGraph
from scenesim.processes import instantiate_processes, process_keys
from scenesim.stochastic import random_streams
from scenesim.synthetic import line_scenario


@pytest.fixture
def tiny_graph():
    """Three-node line at x = 0, 10, 20 with a depot and one housing PoI."""
    return line_scenario(
        3, spacing=10.0, capacity={"car": 1, "bicycle": 3, "trashcan": 1},
        pois=((2, "housing"),),
    )


@pytest.fixture
def narrow_detour():
    """Route a-b-c through a 0.4 m sidewalk at b, detour a-d-e-c of 10, 20, 10 m.

    Every segment is 5 m long and every other sidewalk 2 m wide; the depot
    sits at a and a housing PoI at c, each 3 m off the path.
    """
    graph = SceneGraph()
    for nid, x, y, width in (("a", 0, 0, 2.0), ("b", 10, 0, 0.4), ("c", 20, 0, 2.0),
                             ("d", 0, 10, 2.0), ("e", 20, 10, 2.0)):
        graph.add_path_node(PathNode(nid, x, y, "sidewalk", {"car": 1}, 5.0, width))
    for u, v, length in (("a", "b", 10.0), ("b", "c", 10.0),
                         ("a", "d", 10.0), ("d", "e", 20.0), ("e", "c", 10.0)):
        graph.add_adjacency_edge(u, v, length)
    graph.add_poi_node(PoiNode("depot", -2.0, 2.0, "work", is_depot=True))
    graph.add_poi_node(PoiNode("home", 22.0, -2.0, "housing"))
    graph.add_access_edge("depot", "a", 3.0)
    graph.add_access_edge("home", "c", 3.0)
    graph.freeze_static()
    return graph


def build_line(n, capacity=None, pois=(), **kwargs):
    return line_scenario(n, capacity=capacity, pois=pois, **kwargs)


def node_penalty(node, footprint_sum, agent_width, default_velocity):
    """The time obstacles add to crossing ``node``: its dwell less the empty segment's."""
    return (dwell_time(node, footprint_sum, agent_width, default_velocity)
            - node.segment_length / default_velocity)


def mean_live(ledger, object_class):
    """The mean of every hourly live-count sample of ``object_class`` in ``ledger``."""
    bins = [b for (cls, _), b in ledger._live_bins.items() if cls == object_class]
    return sum(s for s, _ in bins) / sum(n for _, n in bins)


def id_adjacency(graph):
    """Path node id -> [(neighbour id, length)], rebuilt from ``graph.static_edges``.

    Every adjacency edge u-v, in edge order, appends (v, length) to u's list
    and, unless directed, (u, length) to v's.  It reads the edges only, never
    the compiled network, so tests can hold ``network.neighbours`` to it.
    """
    adjacency = {nid: [] for nid in graph.path_nodes}
    for edge in graph.static_edges:
        if edge.kind == EDGE_ADJACENCY:
            adjacency[edge.u].append((edge.v, edge.length))
            if not edge.directed:
                adjacency[edge.v].append((edge.u, edge.length))
    return adjacency


def plan_ids(view, start, goal, agent):
    """:func:`plan_path` between path node ids: (the path's ids, cost).

    The planner takes and returns network indices; tests name nodes by id,
    mapped through ``network.index`` on the way in and ``network.ids`` out.
    """
    net = view.network
    path, cost = plan_path(view, net.index[start], net.index[goal], agent)
    return [net.ids[i] for i in path], cost


def indexed_graph(edges, positions, costs):
    """A graph keyed by node name, as ``astar`` reads it: by index in sorted name order.

    ``edges``, ``positions`` and ``costs`` map every name to its edge list
    ``[(name, length)]``, its position and its cost; each comes back as a
    list, the edges naming their other end by index.
    """
    names = sorted(edges)
    index = {name: i for i, name in enumerate(names)}
    return ([[(index[u], length) for u, length in edges[name]] for name in names],
            [positions[name] for name in names], [costs[name] for name in names])


def seeded_processes(graph, specs, seed):
    """The process instances of ``specs`` on ``graph``, seeded as a replication seeds them."""
    keys = process_keys(graph, specs)
    return instantiate_processes(keys, random_streams(
        seed, [("process", spec.name, poi_id, cls) for spec, poi_id, cls in keys]))


class ScriptedStream:
    """Stand-in for a process's ``RandomStream`` that serves scripted variates.

    ``uniform()`` is always 0.0, so every sidewalk draw and every thinning
    candidate is accepted.  ``exponential()`` ignores the mean and replays the
    first inter-arrival, then each spawn's lifetime and next inter-arrival in
    the order ``ProcessInstance.drain`` and the kernel draw them; once the
    script is spent it returns 1e18 s, which pushes the next spawn past any
    horizon (``inf`` would not do: the rate profile cannot bin it).
    """

    def __init__(self, interarrivals, lifetimes):
        script = [interarrivals[0]]
        for k, lifetime in enumerate(lifetimes):
            script.append(lifetime)
            script.append(interarrivals[k + 1] if k + 1 < len(interarrivals) else 1e18)
        self._script = iter(script)

    def uniform(self):
        return 0.0

    def exponential(self, _mean):
        return next(self._script, 1e18)


@pytest.fixture
def scripted_stream():
    return ScriptedStream


def load_script(name):
    """The module of ``scripts/<name>.py``, loaded by its path: ``scripts/`` is no package."""
    spec = importlib.util.spec_from_file_location(
        name, Path(__file__).parents[1] / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
