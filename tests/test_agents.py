"""Travel-cost model, planner optimality, observation, task assignment."""

import math
import os

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from scenesim.agents import (
    Agent,
    NodeCosts,
    PLANNER_OBSERVED,
    PLANNER_STATIC,
    node_velocity,
    observe,
    plan_path,
)
from scenesim.errors import Unreachable
from scenesim.graph import ObjectNode, ObservedGraph, PathNode, SceneGraph
from scenesim.routing import astar, least_cost_per_metre
from scenesim.stochastic import RandomStream
from scenesim.synthetic import grid_scenario, line_scenario
from conftest import id_adjacency, indexed_graph, node_penalty, plan_ids

# Hypothesis examples per planner property and seeds per oracle; a longer CI
# step sets this to run every one of them at that count
EXAMPLES = os.environ.get("SCENESIM_PLANNER_EXAMPLES")


def examples(default: int) -> int:
    return int(EXAMPLES) if EXAMPLES else default


def make_agent(node="v0", velocity=1.0, width=0.5, radius=20.0):
    return Agent(id="a0", current_node=node, default_velocity=velocity,
                 width=width, sensor_radius=radius)


def pnode(l_s=10.0, b_s=2.0):
    return PathNode(id="n", x=0, y=0, semantic_class="sidewalk",
                    capacity={}, segment_length=l_s, sidewalk_width=b_s)


class TestPenalty:
    def test_empty_node_is_free(self):
        assert node_penalty(pnode(), 0.0, 0.5, 1.0) == 0.0

    def test_worked_example(self):
        # A_free = 10 * (2 - 0.5) = 15 m^2; half occupied -> velocity halves,
        # so the node costs 10/0.5 - 10/1 = 10 extra seconds
        assert node_velocity(pnode(), 7.5, 0.5, 1.0) == pytest.approx(0.5)
        assert node_penalty(pnode(), 7.5, 0.5, 1.0) == pytest.approx(10.0)

    def test_saturated_node_blocks(self):
        assert node_velocity(pnode(), 15.0, 0.5, 1.0) == 0.0
        assert node_penalty(pnode(), 15.0, 0.5, 1.0) == math.inf
        assert node_penalty(pnode(), 20.0, 0.5, 1.0) == math.inf

    def test_monotone_in_footprint(self):
        penalties = [node_penalty(pnode(), a, 0.5, 1.0) for a in (0.0, 3.0, 7.5, 12.0)]
        assert penalties == sorted(penalties)

    def test_wide_agent_blocked(self):
        # no free area is left beside the agent: blocked even when empty
        for width in (2.0, 2.5):
            assert node_velocity(pnode(b_s=2.0), 0.0, width, 1.0) == 0.0
            assert node_penalty(pnode(b_s=2.0), 0.0, width, 1.0) == math.inf


def add_object(graph, oid, node, area=1.0, cls="car"):
    graph.attach_object(ObjectNode(id=oid, semantic_class=cls, t_spawn=0.0,
                                   t_lifetime=1.0, footprint_area=area,
                                   attached_to=node))


class TestPlanPath:
    def test_obstacle_free_matches_shortest_distance(self):
        graph = line_scenario(5)
        agent = make_agent()
        path, _ = plan_ids(graph.network.bare, "v0", "v4", agent)
        assert path == ["v0", "v1", "v2", "v3", "v4"]

    def test_penalized_route_avoided(self):
        # two routes between ends: direct 100 m vs detour 120 m, v = 1 m/s;
        # a believed 30 s penalty on the direct route's midpoint flips the choice
        graph = SceneGraph()
        coords = {
            "a": (0, 0), "m": (50, 0), "b": (100, 0),
            "d1": (40, 30), "d2": (80, 30),
        }
        for nid, (x, y) in coords.items():
            graph.add_path_node(PathNode(nid, x, y, "sidewalk",
                                         {"car": 5}, 10.0, 2.0))
        graph.add_adjacency_edge("a", "m", 50.0)
        graph.add_adjacency_edge("m", "b", 50.0)
        graph.add_adjacency_edge("a", "d1", 40.0)
        graph.add_adjacency_edge("d1", "d2", 40.0)
        graph.add_adjacency_edge("d2", "b", 40.0)
        graph.freeze_static()
        agent = make_agent(node="a")
        belief = ObservedGraph(graph)

        path, _ = plan_ids(belief, "a", "b", agent)
        assert path == ["a", "m", "b"]

        # ~30 s penalty at m: free area 15 m^2, 11.25 m^2 occupied -> nu=0.25
        add_object(graph, "o1", "m", area=11.25)
        belief.merge_observation(graph.radius_subgraph((50, 0), 1.0))
        path, _ = plan_ids(belief, "a", "b", agent)
        assert path == ["a", "d1", "d2", "b"]

    def test_blocked_node_excluded(self):
        graph = line_scenario(3, capacity={"car": 9})
        add_object(graph, "o1", "v1", area=100.0)  # saturates the 15 m^2 free area
        belief = ObservedGraph(graph)
        belief.merge_observation(graph.radius_subgraph((10, 0), 1.0))
        with pytest.raises(Unreachable):
            plan_ids(belief, "v0", "v2", make_agent())

    def test_poi_endpoints_resolve_via_access_edge(self):
        graph = line_scenario(4, pois=((3, "housing"),))
        path, _ = plan_ids(graph.network.bare, graph.access["depot"], graph.access["poi0"],
                           make_agent())
        assert path[0] == "v0" and path[-1] == "v3"

    def test_static_ignores_objects(self):
        graph = line_scenario(3, capacity={"car": 9})
        add_object(graph, "o1", "v1", area=100.0)
        path, cost = plan_ids(graph.network.bare, "v0", "v2", make_agent())
        assert path == ["v0", "v1", "v2"]
        # 2 edges of 10 m plus 2 entered nodes of 10 m segment at 1 m/s
        assert cost == pytest.approx(40.0)

    def test_path_edges_are_adjacent(self):
        graph = line_scenario(6)
        path, _ = plan_ids(graph.network.bare, "v0", "v5", make_agent())
        adjacency = id_adjacency(graph)
        for u, v in zip(path, path[1:]):
            assert any(n == v for n, _ in adjacency[u])

    @pytest.mark.parametrize("mode", [PLANNER_OBSERVED, PLANNER_STATIC])
    def test_edges_shorter_than_their_straight_line(self, mode):
        # a plain straight-line heuristic puts f at 414 s and returns the
        # 102 s route through m; the network's kappa keeps the bound below 22
        graph = short_edge_scenario()
        want = reference_plan(graph, "a", "b", make_agent(node="a"), mode)
        assert want == (["a", "f", "b"], 22.0)
        assert plan_ids(planner_view(graph, mode), "a", "b", make_agent(node="a")) == want
        belief = ObservedGraph(graph)
        assert plan_ids(planner_view(belief, mode), "a", "b", make_agent(node="a")) == want


def short_edge_scenario():
    """From a (0, 0) to b (100, 0): 50 + 50 m via m (50, 0) costs 102 s at
    1 m/s with 1 m segments, 10 + 10 m via f (50, 400) costs 22 s."""
    graph = SceneGraph()
    for nid, (x, y) in {"a": (0, 0), "m": (50, 0), "b": (100, 0), "f": (50, 400)}.items():
        graph.add_path_node(PathNode(nid, x, y, "sidewalk", {"car": 5}, 1.0, 2.0))
    for u, v, length in (("a", "m", 50.0), ("m", "b", 50.0), ("a", "f", 10.0), ("f", "b", 10.0)):
        graph.add_adjacency_edge(u, v, length)
    graph.freeze_static()
    return graph


def kappa_positions(in_edges, positions, dwell):
    """Positions times the graph's kappa, as the planner hands them to astar."""
    k = least_cost_per_metre(((u, s, length) for s, ins in in_edges.items()
                              for u, length in ins), positions, dwell)
    return {nid: (k * x, k * y) for nid, (x, y) in positions.items()}


class TestAstarOracle:
    @pytest.mark.parametrize("seed", range(examples(20)))
    def test_random_graphs_match_networkx_dijkstra(self, seed):
        rng = RandomStream(seed, "astar-oracle")
        n = 5 + int(rng.uniform() * 45)
        positions = {f"q{i:02d}": (rng.uniform() * 200, rng.uniform() * 200)
                     for i in range(n)}
        nodes = sorted(positions)
        adjacency = {nid: [] for nid in nodes}
        G = nx.DiGraph()
        penalties = {nid: (math.inf if rng.uniform() < 0.05 else rng.uniform() * 30)
                     for nid in nodes}
        # random connected-ish graph: chain plus random chords; some edges
        # are shorter than the straight line, which kappa must absorb
        edges = [(nodes[i], nodes[i + 1]) for i in range(n - 1)]
        edges += [
            (nodes[int(rng.uniform() * n)], nodes[int(rng.uniform() * n)])
            for _ in range(2 * n)
        ]
        for u, v in edges:
            if u == v:
                continue
            dist = math.dist(positions[u], positions[v])
            length = dist * (0.25 + 1.75 * rng.uniform())
            adjacency[u].append((v, length))
            adjacency[v].append((u, length))
            for a, b in ((u, v), (v, u)):
                w = length + penalties[b]
                if not math.isinf(w) and (not G.has_edge(a, b) or G[a][b]["weight"] > w):
                    G.add_edge(a, b, weight=w)

        positions = kappa_positions(adjacency, positions, penalties)
        in_edges, positions, costs = indexed_graph(adjacency, positions, penalties)
        src, dst = nodes[0], nodes[-1]
        try:
            expected = nx.dijkstra_path_length(G, src, dst)
            reachable = True
        except (nx.NetworkXNoPath, nx.NodeNotFound):
            reachable = False
        if reachable:
            _, cost = astar(in_edges, positions, 0, n - 1, 1.0, costs.__getitem__)
            assert cost == pytest.approx(expected, abs=1e-9)
        else:
            with pytest.raises(Unreachable):
                astar(in_edges, positions, 0, n - 1, 1.0, costs.__getitem__)


    @pytest.mark.parametrize("seed", range(examples(12)))
    def test_one_way_edges_match_networkx_dijkstra(self, seed):
        # undirected graphs cannot tell in-edges from out-edges: here half
        # the edges run one way only, so a search over the wrong ones fails
        rng = RandomStream(seed, "astar-digraph")
        n = 5 + int(rng.uniform() * 35)
        positions = {f"q{i:02d}": (rng.uniform() * 200, rng.uniform() * 200)
                     for i in range(n)}
        nodes = sorted(positions)
        penalties = {nid: (math.inf if rng.uniform() < 0.05 else rng.uniform() * 30)
                     for nid in nodes}
        in_edges = {nid: [] for nid in nodes}
        G = nx.DiGraph()
        G.add_nodes_from(nodes)
        edges = [(nodes[i], nodes[i + 1]) for i in range(n - 1)]
        edges += [(nodes[int(rng.uniform() * n)], nodes[int(rng.uniform() * n)])
                  for _ in range(n)]
        for u, v in edges:
            if u == v:
                continue
            length = math.dist(positions[u], positions[v]) * (0.25 + 1.75 * rng.uniform())
            one_way = rng.uniform() < 0.5
            if one_way and rng.uniform() < 0.5:
                u, v = v, u
            for a, b in ((u, v),) if one_way else ((u, v), (v, u)):
                in_edges[b].append((a, length))
                w = length + penalties[b]
                if not math.isinf(w) and (not G.has_edge(a, b) or G[a][b]["weight"] > w):
                    G.add_edge(a, b, weight=w)

        positions = kappa_positions(in_edges, positions, penalties)
        in_edges, positions, costs = indexed_graph(in_edges, positions, penalties)
        src, dst = nodes[0], nodes[-1]
        if nx.has_path(G, src, dst):
            path, cost = astar(in_edges, positions, 0, n - 1, 1.0, costs.__getitem__)
            path = [nodes[i] for i in path]
            assert cost == pytest.approx(nx.dijkstra_path_length(G, src, dst), abs=1e-9)
            assert path[0] == src and path[-1] == dst
            assert all(G.has_edge(a, b) for a, b in zip(path, path[1:]))
        else:
            with pytest.raises(Unreachable):
                astar(in_edges, positions, 0, n - 1, 1.0, costs.__getitem__)


class TestForget:
    """Which kept plans a change drops, one branch per case.

    The table holds one plan, g02 -> g09 along row 0 of a 10 x 5 grid of
    20 m spacing.  Entering a node costs at least 20 m of edge plus its
    10 m segment, so kappa is 1.5 and at 1 m/s the row costs 210 s when
    empty.  A plan cost of 250 s (40 s of believed dwell on the row) bounds
    the ellipse with foci g02 and g09 that a freed node must lie in to
    matter: 250 / 1.5 = 166.7 m of straight line through it.
    """

    PLAN = tuple(f"g{k:02d}" for k in range(2, 10))

    @pytest.fixture
    def table(self):
        table = NodeCosts(grid_scenario(10, 5), 0.5, 1.0)
        index = table.layer.network.index
        table.plans[index["g02"], index["g09"]] = (tuple(index[nid] for nid in self.PLAN), 250.0)
        return table

    @staticmethod
    def kept(table, *changes):
        """Whether the table still holds its plans after each (node, shrank) change."""
        for nid, shrank in changes:
            table.forget(table.layer.network.index[nid], shrank)
        return bool(table.plans)

    def test_no_change_keeps(self, table):
        assert self.kept(table)

    @pytest.mark.parametrize("shrank", [False, True])
    def test_change_on_the_path_drops(self, table, shrank):
        assert not self.kept(table, ("g25", False), ("g05", shrank))

    def test_changes_off_the_plan_and_gains_keep(self, table):
        # g00 and g01 lie behind the plan's start, g25 beside it
        assert self.kept(table, ("g00", False), ("g01", False), ("g25", False))

    def test_shrink_inside_ellipse_drops(self, table):
        # g25 at (100, 40): 1.5 * (72.1 m + 89.4 m) of straight line, 242 s
        assert not self.kept(table, ("g45", False), ("g25", True))

    def test_shrink_outside_ellipse_keeps(self, table):
        # g40 at (0, 80): 89.4 m + 197.0 m, over 250 s even at 1 s per metre
        assert self.kept(table, ("g40", True), ("g45", False))

    def test_shrink_between_straight_line_and_kappa_ellipse_keeps(self, table):
        # g45 at (100, 80): 100 m + 113.1 m costs 213 s at 1 s per metre,
        # inside the plain straight-line ellipse, but 320 s at kappa
        assert self.kept(table, ("g45", True), ("g45", False))

    def test_a_table_without_plans_only_drops_the_entry(self, table, monkeypatch):
        # every truth table and the object-free layer's hold no plan that a
        # change could alter: the layer pops the entry and tests nothing
        graph = table.layer
        table.plans.clear()
        graph.node_costs[0.5, 1.0] = table
        assert table[5] == 10.0 and table[6] == 10.0
        monkeypatch.setattr(NodeCosts, "forget", None)
        graph.attach_object(ObjectNode("o", "car", 0.0, 1.0, 1.5, "g05"))
        assert dict(table) == {6: 10.0} and table.plans == {}

    def test_a_plan_is_tested_after_its_entry_was_dropped(self):
        # the plan via m read f's blocked cost; a gain at f drops that entry
        # and keeps the plan, and the loss that frees f must still drop it
        graph, agent = short_edge_scenario(), make_agent(node="a")
        add_object(graph, "big", "f", area=1.5)
        assert plan_ids(graph, "a", "b", agent) == (["a", "m", "b"], 102.0)
        add_object(graph, "small", "f", area=0.25)
        assert graph.node_costs[0.5, 1.0].plans
        graph.remove_object("big")
        assert plan_ids(graph, "a", "b", agent)[0] == ["a", "f", "b"]

    def test_short_edge_puts_a_far_node_inside_the_ellipse(self):
        # planned via m at 102 s while f was believed blocked; f lies 806 m
        # of straight line off, but its 10 m edges make the route 22 s
        graph = short_edge_scenario()
        for shrank in (True, False):
            table, index = NodeCosts(graph, 0.5, 1.0), graph.network.index
            table.plans[index["a"], index["b"]] = ((index["a"], index["m"], index["b"]), 102.0)
            assert self.kept(table, ("f", shrank)) is not shrank


class TestObserve:
    def test_zero_radius_sees_nothing(self):
        graph = line_scenario(3)
        agent = make_agent(radius=0.0)
        obs = observe(graph, agent)
        assert not obs.path_nodes

    def test_object_at_own_node_observed(self):
        graph = line_scenario(3)
        add_object(graph, "o1", "v0")
        obs = observe(graph, make_agent(radius=5.0))
        belief = ObservedGraph(graph)
        assert belief.merge_observation(obs) == [("v0", 1)]

    def test_object_beyond_range_not_observed(self):
        graph = line_scenario(5)
        add_object(graph, "o1", "v4")  # 40 m away, radius 20
        obs = observe(graph, make_agent(radius=20.0))
        assert "v4" not in obs.path_nodes
        belief = ObservedGraph(graph)
        assert belief.merge_observation(obs) == [] and not belief.objects


# -- the compiled planner against the reference search on string ids -------------


def reference_plan(view, start, goal, agent, mode):
    """The goal-rooted rule by brute force on the string-keyed graph.

    Iterates c(goal) = 0, c(u) = min over edges u -> s of
    ``length / v + cost(s) + c(s)`` to its fixed point, Bellman-Ford style,
    with the model's node costs (inf in either mode where the sidewalk is
    not wider than the agent), then walks from the start, taking at each
    node the lowest-id successor that achieves its label.
    """
    v = agent.default_velocity
    costs = {}
    for nid, node in view.path_nodes.items():
        if agent.width >= node.sidewalk_width:
            costs[nid] = math.inf
        elif mode == PLANNER_STATIC:
            costs[nid] = node.segment_length / v
        else:
            nu = node_velocity(node, view.footprint_sum(nid), agent.width, v)
            costs[nid] = math.inf if nu == 0.0 else node.segment_length / nu
    if start == goal:
        return [start], 0.0

    label = dict.fromkeys(view.path_nodes, math.inf)
    label[goal] = 0.0
    adjacency = id_adjacency(view)

    def through(u):
        return [(length / v + costs[s] + label[s], s)
                for s, length in adjacency[u] if costs[s] < math.inf]

    changed = True
    while changed:
        changed = False
        for u in view.path_nodes:
            best = min((c for c, _ in through(u)), default=math.inf)
            if best < label[u]:
                label[u], changed = best, True

    if label[start] == math.inf:
        raise Unreachable(f"no path from {start!r} to {goal!r}")
    path = [start]
    while path[-1] != goal:
        u = path[-1]
        path.append(min(s for c, s in through(u) if c == label[u]))
    return path, label[start]


def planner_view(view, mode):
    """The layer a planner mode plans on: the view, or its object-free network layer."""
    return view.network.bare if mode == PLANNER_STATIC else view


def outcome(plan, *args):
    try:
        return plan(*args)
    except Unreachable as exc:
        return type(exc), str(exc)


@st.composite
def random_grids(draw):
    """Grids with equal edge lengths (many equal-cost routes), some down
    edges shorter than their straight line, node ids in random order, and
    narrow nodes; returns the frozen graph and its ids in grid order."""
    cols, rows = draw(st.integers(2, 5)), draw(st.integers(1, 5))
    n = cols * rows
    ids = draw(st.permutations([f"n{k}" for k in range(n)]))
    graph = SceneGraph()
    for k, nid in enumerate(ids):
        graph.add_path_node(PathNode(
            nid, (k % cols) * 10.0, (k // cols) * 10.0, "sidewalk", {"car": 12},
            draw(st.sampled_from([5.0, 10.0])),
            draw(st.sampled_from([2.0] * 8 + [1.0, 0.5]))))
    for k in range(n):
        right, down = k + 1, k + cols
        if right % cols:
            graph.add_adjacency_edge(ids[k], ids[right], 10.0,
                                     directed=draw(st.booleans()) and draw(st.booleans()))
        if down < n:
            # a 2 m edge between rows 10 m apart is shorter than its straight line
            graph.add_adjacency_edge(ids[k], ids[down], draw(st.sampled_from([10.0, 12.0, 2.0])))
    graph.freeze_static()
    return graph, ids


@st.composite
def planning_cases(draw):
    """Random grids, random believed footprints, blocked nodes, and the
    object changes to make between plans."""
    graph, ids = draw(random_grids())
    for k, nid in enumerate(draw(st.lists(st.sampled_from(ids), max_size=12))):
        area = draw(st.sampled_from([1.5, 3.75, 7.5, 16.0]))
        add_object(graph, f"o{k}", nid, area=area)
    belief = ObservedGraph(graph)
    for nid, r in draw(st.lists(st.tuples(st.sampled_from(ids),
                                          st.sampled_from([5.0, 15.0, 25.0])),
                                max_size=4)):
        belief.merge_observation(graph.network.visible(nid, r))
    agent = make_agent(velocity=draw(st.sampled_from([1.0, 1.5])))
    start, goal = draw(st.sampled_from(ids)), draw(st.sampled_from(ids))
    areas = st.sampled_from([1.5, 3.75, 7.5, 16.0])
    changes = draw(st.lists(st.one_of(
        st.tuples(st.just("attach"), st.sampled_from(ids), areas),
        st.tuples(st.just("remove"), st.integers(0, 20), st.just(0.0)),
        st.tuples(st.just("merge"), st.sampled_from(ids), st.sampled_from([5.0, 15.0, 25.0])),
    ), max_size=4))
    return graph, belief, start, goal, agent, changes


def change_objects(truth, belief, change, serial):
    """Attach to or remove from the truth, or merge a view of it into the belief."""
    op, arg, value = change
    if op == "attach":
        if truth.free_capacity(arg, "car"):
            add_object(truth, f"c{serial}", arg, area=value)
    elif op == "remove":
        if truth.objects:
            truth.remove_object(sorted(truth.objects)[arg % len(truth.objects)])
    else:
        belief.merge_observation(truth.network.visible(arg, value))


@settings(max_examples=examples(300), deadline=None)
@given(case=planning_cases())
def test_compiled_planner_matches_reference_search(case):
    truth, belief, start, goal, agent, changes = case
    # plan again after each change: a cost table that kept an entry from
    # before it would answer differently from the reference
    for serial, change in enumerate([None, *changes]):
        if change is not None:
            change_objects(truth, belief, change, serial)
        for view in (belief, truth):
            for mode in (PLANNER_OBSERVED, PLANNER_STATIC):
                want = outcome(reference_plan, view, start, goal, agent, mode)
                layer = planner_view(view, mode)
                assert outcome(plan_ids, layer, start, goal, agent) == want
                # a repeat, served from the table's plan memo when a plan exists
                assert outcome(plan_ids, layer, start, goal, agent) == want
                if isinstance(want[0], list):
                    # every suffix of a plan is the plan from its first node
                    path = want[0]
                    for k in range(1, len(path)):
                        suffix = plan_ids(layer, path[k], goal, agent)
                        assert suffix == reference_plan(view, path[k], goal, agent, mode)
                        assert suffix[0] == path[k:]
    copy = truth.dynamic_copy()
    assert (outcome(plan_ids, copy.network.bare, start, goal, agent)
            == outcome(reference_plan, copy, start, goal, agent, PLANNER_STATIC))


@st.composite
def kept_plan_cases(draw):
    """A random grid or the short-edge scene, and a mix of object changes and plans."""
    graph, ids = (short_edge_scenario(), ["a", "m", "b", "f"]) if draw(st.booleans()) \
        else draw(random_grids())
    steps = draw(st.lists(st.one_of(
        st.tuples(st.just("attach"), st.sampled_from(ids),
                  st.sampled_from([0.25, 0.5, 1.5, 3.75, 7.5, 16.0])),
        st.tuples(st.just("remove"), st.integers(0, 20), st.just(0.0)),
        st.tuples(st.just("merge"), st.sampled_from(ids),
                  st.sampled_from([5.0, 15.0, 25.0, 1000.0])),
        st.tuples(st.just("plan"), st.tuples(st.sampled_from(ids), st.sampled_from(ids)),
                  st.sampled_from([1.0, 1.5])),
    ), max_size=30))
    return graph, steps


def assert_kept_plans_exact(layer):
    """Every plan the layer's tables keep is what a search over fresh tables returns."""
    net = layer.network
    for table in layer.node_costs.values():
        fresh = NodeCosts(layer, table.width, table.speed)
        for (start, goal), (path, cost) in table.plans.items():
            want, want_cost = astar(net.predecessors, net.bound_positions, start, goal,
                                    table.speed, fresh.__getitem__)
            assert path == tuple(want)
            assert cost.hex() == want_cost.hex()


@settings(max_examples=examples(200), deadline=None)
@given(case=kept_plan_cases())
def test_kept_plans_match_a_fresh_search(case):
    # a change drops only the kept plans it could alter, on the truth (attach,
    # remove) and on the belief (merge), and whatever is kept must be exact
    truth, steps = case
    belief = ObservedGraph(truth)
    for serial, (op, arg, value) in enumerate(steps):
        if op == "plan":
            agent = make_agent(velocity=value)
            for layer in (belief, truth):
                outcome(plan_ids, layer, *arg, agent)
        else:
            change_objects(truth, belief, (op, arg, value), serial)
        for layer in (belief, truth):
            assert_kept_plans_exact(layer)


class TestCompiledPlanner:
    def test_unreachable_names_string_ids(self):
        graph = line_scenario(3, capacity={"car": 9})
        add_object(graph, "o1", "v1", area=100.0)
        belief = ObservedGraph(graph)
        belief.merge_observation(graph.network.visible("v1", 1.0))
        with pytest.raises(Unreachable, match=r"^no path from 'v0' to 'v2'$"):
            plan_ids(belief, "v0", "v2", make_agent())

    def test_narrow_goal_is_unreachable(self):
        graph = line_scenario(4)
        agent = make_agent(width=2.0)  # every sidewalk is 2 m wide
        for mode in (PLANNER_OBSERVED, PLANNER_STATIC):
            assert plan_ids(planner_view(graph, mode), "v1", "v1", agent) == (["v1"], 0.0)
            with pytest.raises(Unreachable, match=r"^no path from 'v0' to 'v3'$"):
                plan_ids(planner_view(graph, mode), "v0", "v3", agent)

    @pytest.mark.parametrize("mode", [PLANNER_OBSERVED, PLANNER_STATIC])
    def test_narrow_node_is_detoured(self, narrow_detour, mode):
        # a-b-c would cost 30 s, but b's 0.4 m sidewalk blocks a 0.5 m agent
        agent = make_agent(node="a")
        for view in (narrow_detour, ObservedGraph(narrow_detour)):
            assert (plan_ids(planner_view(view, mode), "a", "c", agent)
                    == (["a", "d", "e", "c"], 55.0))
        # a narrower agent still takes the short route
        assert (plan_ids(planner_view(narrow_detour, mode), "a", "c",
                         make_agent(node="a", width=0.3)) == (["a", "b", "c"], 30.0))

    def test_static_memo_returns_its_immutable_entry(self):
        # a copy's object-free layer shares the memo, and every call returns
        # the memo's own entry, whose path no caller can alter
        graph = line_scenario(4)
        agent = make_agent()
        v0, v3 = graph.network.index["v0"], graph.network.index["v3"]
        plan = plan_path(graph.network.bare, v0, v3, agent)
        assert plan_path(graph.dynamic_copy().network.bare, v0, v3, agent) is plan
        assert isinstance(plan[0], tuple)
        assert plan_ids(graph.network.bare, "v0", "v3", agent) == (["v0", "v1", "v2", "v3"],
                                                                    plan[1])
        table = graph.network.bare.node_costs[agent.width, agent.default_velocity]
        assert table.plans == {(v0, v3): plan}

    def test_plan_memo_is_exact(self, monkeypatch):
        # a belief plan is kept until a merge drops a cost its search read
        graph = line_scenario(8, capacity={"car": 9})
        belief, agent = ObservedGraph(graph), make_agent()
        calls, read = [], set()

        def counting(in_edges, positions, start, goal, speed, node_cost):
            calls.append((start, goal))

            def cost(i):
                read.add(graph.network.ids[i])
                return node_cost(i)
            return astar(in_edges, positions, start, goal, speed, cost)

        monkeypatch.setattr("scenesim.agents.astar", counting)

        def fresh_plan():
            with monkeypatch.context() as m:
                m.setattr("scenesim.agents.cost_table",
                          lambda layer, a: NodeCosts(layer, a.width, a.default_velocity))
                return plan_ids(belief, "v0", "v3", agent)

        first = plan_ids(belief, "v0", "v3", agent)
        assert len(calls) == 1 and "v2" in read and "v7" not in read
        add_object(graph, "far", "v7", area=1.5)
        assert belief.merge_observation(graph.network.visible("v7", 1.0))
        assert plan_ids(belief, "v0", "v3", agent) == first == fresh_plan()
        assert len(calls) == 2  # only the fresh table searched

        add_object(graph, "near", "v2", area=1.5)
        assert belief.merge_observation(graph.network.visible("v2", 1.0))
        again = plan_ids(belief, "v0", "v3", agent)
        assert len(calls) == 3
        assert again == fresh_plan() and again[1] > first[1]
