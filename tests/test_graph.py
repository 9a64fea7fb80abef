"""Scene graph ops: attach/remove, radius queries, merge, up_to_date."""

import functools
import inspect
import itertools
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import scenesim
from scenesim.agents import (
    Agent,
    cost_table,
    node_velocity,
    observe,
)
from scenesim.errors import (
    CapacityExceeded,
    DuplicateId,
    UnknownId,
    UnknownStaticNode,
    Unreachable,
)
from scenesim.graph import (
    Edge,
    ObjectLayer,
    ObjectNode,
    Observation,
    ObservedGraph,
    PathNode,
    PoiNode,
    SceneGraph,
    up_to_date,
)
from scenesim.synthetic import grid_scenario, line_scenario
from conftest import id_adjacency, plan_ids


def obj(oid, node, cls="car", area=1.0):
    return ObjectNode(id=oid, semantic_class=cls, t_spawn=0.0, t_lifetime=100.0,
                      footprint_area=area, attached_to=node)


def occupancy_at(graph, node, cls):
    """The occupancy count of ``cls`` at ``node``, read from the per-index array."""
    return graph.occupancy[cls][graph.network.index[node]]


class TestAttachRemove:
    def test_attach_increments_occupancy(self, tiny_graph):
        tiny_graph.attach_object(obj("o1", "v0"))
        assert tiny_graph.occupancy["car"] == [1, 0, 0]
        assert occupancy_at(tiny_graph, "v0", "car") == 1
        assert "o1" in tiny_graph.objects_at["v0"]

    def test_attach_at_capacity_raises(self, tiny_graph):
        tiny_graph.attach_object(obj("o1", "v0"))
        with pytest.raises(CapacityExceeded):
            tiny_graph.attach_object(obj("o2", "v0"))

    def test_attach_counts_per_class(self, tiny_graph):
        tiny_graph.attach_object(obj("b1", "v0", cls="bicycle"))
        tiny_graph.attach_object(obj("b2", "v0", cls="bicycle"))
        tiny_graph.attach_object(obj("b3", "v0", cls="bicycle"))
        assert tiny_graph.occupancy["bicycle"] == [3, 0, 0]
        assert tiny_graph.free_capacity("v0", "bicycle") == 0
        assert len(tiny_graph.objects) == 3

    def test_duplicate_id_rejected(self, tiny_graph):
        tiny_graph.attach_object(obj("o1", "v0"))
        with pytest.raises(DuplicateId):
            tiny_graph.attach_object(obj("o1", "v1"))

    def test_remove_is_inverse_of_attach(self, tiny_graph):
        before = (dict(tiny_graph.objects), object_sets(tiny_graph))
        tiny_graph.attach_object(obj("o1", "v1"))
        tiny_graph.remove_object("o1")
        after = (dict(tiny_graph.objects), object_sets(tiny_graph))
        assert before == after
        assert tiny_graph.occupancy["car"] == [0, 0, 0]

    def test_free_capacity_of_unknown_node_raises(self, tiny_graph):
        with pytest.raises(UnknownId, match="'nope' is not a path node"):
            tiny_graph.free_capacity("nope", "car")

    def test_remove_twice_raises(self, tiny_graph):
        tiny_graph.attach_object(obj("o1", "v1"))
        tiny_graph.remove_object("o1")
        with pytest.raises(UnknownId):
            tiny_graph.remove_object("o1")

    def test_remove_one_of_two(self, tiny_graph):
        tiny_graph.attach_object(obj("b1", "v1", cls="bicycle"))
        tiny_graph.attach_object(obj("b2", "v1", cls="bicycle"))
        tiny_graph.remove_object("b1")
        assert tiny_graph.occupancy["bicycle"] == [0, 1, 0]

    def test_static_immutable_after_freeze(self, tiny_graph):
        with pytest.raises(ValueError):
            tiny_graph.add_path_node(PathNode("x", 0, 0, "sidewalk", {}, 1.0, 2.0))

    @pytest.mark.parametrize("length", [0.0, -1.0, float("nan"), float("inf")])
    def test_edge_lengths_must_be_positive_and_finite(self, length):
        graph = SceneGraph()
        for nid in ("u", "v"):
            graph.add_path_node(PathNode(nid, 0, 0, "sidewalk", {}, 1.0, 2.0))
        graph.add_poi_node(PoiNode("p", 0, 0, "housing"))
        with pytest.raises(ValueError, match=r"^edge 'u'-'v' length: must be positive"):
            graph.add_adjacency_edge("u", "v", length)
        with pytest.raises(ValueError, match=r"^access edge 'p'-'u' length: must be positive"):
            graph.add_access_edge("p", "u", length)
        assert id_adjacency(graph) == {"u": [], "v": []} and not graph.access

    def test_static_hash_constant_under_object_churn(self, tiny_graph):
        h0 = tiny_graph.static_hash()
        tiny_graph.attach_object(obj("o1", "v0"))
        assert tiny_graph.static_hash() == h0
        tiny_graph.remove_object("o1")
        assert tiny_graph.static_hash() == h0


class TestRecords:
    @pytest.mark.parametrize("record, fields", [
        (PathNode, ["id", "x", "y", "semantic_class", "capacity", "segment_length",
                    "sidewalk_width"]),
        (PoiNode, ["id", "x", "y", "semantic_class", ("is_depot", False)]),
        (Edge, ["kind", "u", "v", ("directed", False), ("length", None)]),
    ])
    def test_fields_order_and_defaults(self, record, fields):
        # static_hash hashes the reprs, so the names and their order are part
        # of every digest; a bare name is a required field
        required = inspect.Parameter.empty
        assert [(p.name, p.default) for p in inspect.signature(record).parameters.values()] == [
            f if isinstance(f, tuple) else (f, required) for f in fields]

    @pytest.mark.parametrize("record, kwargs", [
        (PathNode, dict(id="n", x=1.0, y=2.0, semantic_class="sidewalk",
                        capacity={"car": 2}, segment_length=10.0, sidewalk_width=2.0)),
        (PoiNode, dict(id="p", x=1.0, y=2.0, semantic_class="housing")),
        (Edge, dict(kind="adjacency", u="a", v="b", length=5.0)),
    ])
    def test_built_by_keyword_and_immutable(self, record, kwargs):
        built = record(**kwargs)
        for name, value in kwargs.items():
            assert getattr(built, name) == value
        for name in inspect.signature(record).parameters:
            with pytest.raises(AttributeError):
                setattr(built, name, None)

    def test_reprs(self):
        assert repr(PoiNode("p", 1.0, 2.0, "housing")) == (
            "PoiNode(id='p', x=1.0, y=2.0, semantic_class='housing', is_depot=False)")
        assert repr(Edge("access", "p", "a", False, 3.0)) == (
            "Edge(kind='access', u='p', v='a', directed=False, length=3.0)")

    def test_static_hash_pinned(self):
        assert grid_scenario(10, 6).static_hash() == (
            "65bbd19a467bb72fa762bf4f74d2bf24f12d34521094f4ca8737f373f243e6e8")


class TestRadiusSubgraph:
    def test_zero_radius_is_empty(self, tiny_graph):
        obs = tiny_graph.radius_subgraph((0.0, 0.0), 0.0)
        assert not obs.path_nodes and not obs.poi_nodes

    def test_infinite_radius_is_whole_graph(self, tiny_graph):
        obs = tiny_graph.radius_subgraph((0.0, 0.0), math.inf)
        assert obs.path_nodes == frozenset(tiny_graph.path_nodes)
        assert obs.poi_nodes == frozenset(tiny_graph.poi_nodes)

    def test_strict_inequality_cut(self, tiny_graph):
        # nodes at x = 0, 10, 20; r = 15 selects the first two
        obs = tiny_graph.radius_subgraph((0.0, 0.0), 15.0)
        assert obs.path_nodes == frozenset({"v0", "v1"})

    def test_boundary_node_excluded(self, tiny_graph):
        obs = tiny_graph.radius_subgraph((0.0, 0.0), 10.0)
        assert obs.path_nodes == frozenset({"v0"})

    def test_object_position_is_attachment_node(self, tiny_graph):
        belief = ObservedGraph(tiny_graph)
        tiny_graph.attach_object(obj("o1", "v2"))
        far = tiny_graph.radius_subgraph((0.0, 0.0), 15.0)
        assert belief.merge_observation(far) == [] and not belief.objects
        near = tiny_graph.radius_subgraph((20.0, 0.0), 1.0)
        assert near.path_nodes == {"v2"}
        assert belief.merge_observation(near) == [("v2", 1)]
        assert belief.objects_at["v2"] == {"o1"}


class TestMerge:
    def test_replacement_clears_stale_object(self, tiny_graph):
        belief = ObservedGraph(tiny_graph)
        tiny_graph.attach_object(obj("o1", "v0"))
        belief.merge_observation(tiny_graph.radius_subgraph((0, 0), 5.0))
        tiny_graph.remove_object("o1")
        belief.merge_observation(tiny_graph.radius_subgraph((0, 0), 5.0))
        assert belief.objects_at["v0"] == set()
        assert "o1" not in belief.objects

    def test_new_object_inserted(self, tiny_graph):
        belief = ObservedGraph(tiny_graph)
        tiny_graph.attach_object(obj("b1", "v1", cls="bicycle"))
        belief.merge_observation(tiny_graph.radius_subgraph((10, 0), 5.0))
        assert belief.objects_at["v1"] == {"b1"}

    def test_locality_outside_observation(self, tiny_graph):
        belief = ObservedGraph(tiny_graph)
        tiny_graph.attach_object(obj("o1", "v2"))
        belief.merge_observation(tiny_graph.radius_subgraph((20, 0), 5.0))
        tiny_graph.remove_object("o1")
        # observation around v0 does not cover v2
        belief.merge_observation(tiny_graph.radius_subgraph((0, 0), 5.0))
        assert belief.objects_at["v2"] == {"o1"}

    def test_unknown_static_node_rejected(self, tiny_graph):
        belief = ObservedGraph(tiny_graph)
        bogus = Observation(path_nodes=frozenset({"ghost"}), poi_nodes=frozenset())
        with pytest.raises(UnknownStaticNode):
            belief.merge_observation(bogus)

    def test_version_only_bumps_on_content_change(self, tiny_graph):
        belief = ObservedGraph(tiny_graph)
        obs = tiny_graph.radius_subgraph((0, 0), 5.0)
        belief.merge_observation(obs)
        v = belief.version
        belief.merge_observation(tiny_graph.radius_subgraph((0, 0), 5.0))
        assert belief.version == v

    def test_sibling_view_merges_own_truth(self, tiny_graph):
        # a view names nodes only, so one taken on a sibling copy still
        # merges the objects of the belief's own (empty) truth
        belief = ObservedGraph(tiny_graph)
        other = tiny_graph.dynamic_copy()
        other.attach_object(obj("o1", "v0"))
        view = observe(other, Agent("a", "v0", 1.0, 0.5, 5.0))
        assert belief.merge_observation(view) == []
        assert belief.objects == {} and belief.version == 0

    def test_second_belief_rejected(self, tiny_graph):
        belief = ObservedGraph(tiny_graph)
        with pytest.raises(ValueError, match="already has a belief"):
            ObservedGraph(tiny_graph)
        assert tiny_graph.belief is belief

    def test_believed_id_cannot_be_reattached(self):
        # the three-source reuse, on one truth: o0 moves from v03 to v05
        # while the belief still holds it at v03
        graph = line_scenario(12, capacity={"car": 30})
        belief = ObservedGraph(graph)
        graph.attach_object(obj("o0", "v03"))
        belief.merge_observation(graph.radius_subgraph((50, 0), float("inf")))
        graph.remove_object("o0")
        with pytest.raises(DuplicateId, match="still believed"):
            graph.attach_object(obj("o0", "v05"))
        assert "o0" not in graph.objects and belief.objects_at["v03"] == {"o0"}

    def test_id_reused_by_another_source_survives_any_set_order(self):
        # o0 returns at v05 once the belief has dropped it, and the last
        # merge rewrites v03 and v05; which goes first follows PYTHONHASHSEED,
        # the result must not
        src = Path(scenesim.__file__).resolve().parent.parent
        for hash_seed in ("0", "2"):
            env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=hash_seed)
            proc = subprocess.run([sys.executable, "-c", REUSED_ID_MERGE],
                                  capture_output=True, text=True, env=env, timeout=60)
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.split() == ["['o0']", "['o0']", "1.0", "[]"], hash_seed


REUSED_ID_MERGE = """
from scenesim.graph import ObjectNode, ObservedGraph
from scenesim.synthetic import line_scenario

graph = line_scenario(12, capacity={"car": 30})
belief = ObservedGraph(graph)
for old, new, node in ((None, "o0", "v03"), ("o0", "s0", "v03"), ("s0", "o0", "v05")):
    if old is not None:
        graph.remove_object(old)
    graph.attach_object(ObjectNode(new, "car", 0.0, 100.0, 1.0, node))
    belief.merge_observation(graph.radius_subgraph((50, 0), float("inf")))
print(sorted(belief.objects_at["v05"]), sorted(belief.objects),
      belief.footprint_sum("v05"), sorted(belief.objects_at["v03"]))
"""


class TestUpToDate:
    def test_fresh_merge_is_up_to_date(self, tiny_graph):
        belief = ObservedGraph(tiny_graph)
        tiny_graph.attach_object(obj("o1", "v0"))
        belief.merge_observation(tiny_graph.radius_subgraph((0, 0), 5.0))
        assert up_to_date(belief, tiny_graph, "v0")

    def test_spawn_after_observation_is_stale(self, tiny_graph):
        belief = ObservedGraph(tiny_graph)
        belief.merge_observation(tiny_graph.radius_subgraph((0, 0), 5.0))
        tiny_graph.attach_object(obj("o1", "v0"))
        assert not up_to_date(belief, tiny_graph, "v0")

    def test_expiry_after_observation_is_stale(self, tiny_graph):
        belief = ObservedGraph(tiny_graph)
        tiny_graph.attach_object(obj("o1", "v0"))
        belief.merge_observation(tiny_graph.radius_subgraph((0, 0), 5.0))
        tiny_graph.remove_object("o1")
        assert not up_to_date(belief, tiny_graph, "v0")

    def test_unknown_node_raises(self, tiny_graph):
        belief = ObservedGraph(tiny_graph)
        with pytest.raises(UnknownId):
            up_to_date(belief, tiny_graph, "nope")


# -- randomized properties of the merge operator --------------------------------

object_placements = st.lists(
    st.tuples(st.integers(min_value=0, max_value=11),
              st.sampled_from(["car", "bicycle", "trashcan"])),
    max_size=20,
)


def object_sets(layer):
    """A copy of ``layer``'s object id set at every path node, empty ones included."""
    return {nid: set(layer.objects_at.get(nid, set())) for nid in layer.path_nodes}


def populated_line(placements, graph=None, prefix="o"):
    if graph is None:
        graph = line_scenario(12, capacity={"car": 30, "bicycle": 30, "trashcan": 30})
    nodes = sorted(graph.path_nodes)
    for i, (node_idx, cls) in enumerate(placements):
        graph.attach_object(obj(f"{prefix}{i}", nodes[node_idx], cls=cls))
    return graph


def relocated_line(stale, placements, *views):
    """A line whose belief has merged ``views`` of an earlier state of it.

    The line holds ``stale`` (ids s0, s1, ...) while the views, (x, radius)
    pairs, are merged; those objects are then removed and ``placements``
    (ids o0, o1, ...) attached.
    """
    graph = populated_line(stale, prefix="s")
    belief = ObservedGraph(graph)
    for cx, r in views:
        belief.merge_observation(graph.radius_subgraph((cx, 0.0), r))
    for oid in sorted(graph.objects):
        graph.remove_object(oid)
    return populated_line(placements, graph), belief


@settings(max_examples=250, deadline=None)
@given(placements=object_placements,
       cx=st.floats(min_value=-10, max_value=120),
       r=st.floats(min_value=0, max_value=150))
def test_merge_idempotent(placements, cx, r):
    graph = populated_line(placements)
    belief = ObservedGraph(graph)
    obs = graph.radius_subgraph((cx, 0.0), r)
    belief.merge_observation(obs)
    snapshot = object_sets(belief)
    belief.merge_observation(obs)
    assert object_sets(belief) == snapshot


@settings(max_examples=250, deadline=None)
@given(placements=object_placements,
       stale=object_placements,
       cx=st.floats(min_value=-10, max_value=120),
       r=st.floats(min_value=0, max_value=60))
def test_merge_locality(placements, stale, cx, r):
    # give the belief arbitrary prior content via a full-coverage merge of
    # an earlier, differently populated state of the line
    graph, belief = relocated_line(stale, placements, (50, float("inf")))
    before = object_sets(belief)
    obs = graph.radius_subgraph((cx, 0.0), r)
    belief.merge_observation(obs)
    for node in graph.path_nodes:
        if node not in obs.path_nodes:
            assert belief.objects_at.get(node, set()) == before[node]


@settings(max_examples=250, deadline=None)
@given(placements=object_placements,
       stale=object_placements,
       prior=st.sampled_from([None, 0.0, 25.0, float("inf")]),
       node=st.integers(min_value=0, max_value=11),
       r=st.floats(min_value=0, max_value=60))
def test_merge_returns_the_mismatched_nodes(placements, stale, prior, node, r):
    # from any prior belief: none, or a merge of part or all of an
    # earlier, differently populated state of the line
    graph, belief = relocated_line(stale, placements,
                                   *([] if prior is None else [(50, prior)]))
    before, truth = object_sets(belief), object_sets(graph)
    version, ids, log, forget = belief.version, graph.network.ids, [], belief._forget

    def recording(i, shrank):
        log.append((ids[i], shrank))
        forget(i, shrank)

    belief._forget = recording
    obs = graph.network.visible(sorted(graph.path_nodes)[node], r)
    changed = belief.merge_observation(obs)
    want = {nid: len(truth[nid] - before[nid])
            for nid in obs.path_nodes if before[nid] != truth[nid]}
    assert len(changed) == len(want)
    assert dict(changed) == want
    # the merge forgets each changed node once, telling whether its id set shrank
    assert len(log) == len(want)
    assert dict(log) == {nid: not before[nid] <= truth[nid] for nid in want}
    assert (belief.version != version) == bool(changed)
    assert belief.version - version in (0, 1)


@settings(max_examples=250, deadline=None)
@given(placements=object_placements,
       stale=object_placements,
       first=st.tuples(st.floats(min_value=-10, max_value=120),
                       st.sampled_from([0.0, 15.0, 40.0, float("inf")])),
       second=st.tuples(st.floats(min_value=-10, max_value=120),
                        st.sampled_from([0.0, 15.0, 40.0, float("inf")])))
def test_merged_ids_are_believed_objects(placements, stale, first, second):
    # the line's objects are replaced between the two merges
    graph, belief = relocated_line(stale, placements, first)
    for nid, ids in belief.objects_at.items():
        assert ids <= belief.objects.keys(), nid
    cx, r = second
    belief.merge_observation(graph.radius_subgraph((cx, 0.0), r))
    for nid, ids in belief.objects_at.items():
        assert ids <= belief.objects.keys(), nid


@settings(max_examples=250, deadline=None)
@given(placements=object_placements)
def test_full_coverage_convergence(placements):
    graph = populated_line(placements)
    belief = ObservedGraph(graph)
    belief.merge_observation(graph.radius_subgraph((0, 0), float("inf")))
    assert all(up_to_date(belief, graph, node) for node in graph.path_nodes)


@settings(max_examples=250, deadline=None)
@given(placements=object_placements,
       cx=st.floats(min_value=-10, max_value=120),
       r=st.floats(min_value=0, max_value=150))
def test_up_to_date_within_radius_after_merge(placements, cx, r):
    graph = populated_line(placements)
    belief = ObservedGraph(graph)
    obs = graph.radius_subgraph((cx, 0.0), r)
    belief.merge_observation(obs)
    for node in obs.path_nodes:
        assert up_to_date(belief, graph, node)


@settings(max_examples=250, deadline=None)
@given(placements=object_placements,
       stale=object_placements,
       node=st.integers(min_value=0, max_value=11),
       r=st.floats(min_value=0, max_value=60))
def test_any_merge_leaves_observed_nodes_up_to_date(placements, stale, node, r):
    # from arbitrary prior belief; the kernel records these nodes as correct
    # after a merge without testing them
    graph, belief = relocated_line(stale, placements, (50, float("inf")))
    obs = graph.network.visible(sorted(graph.path_nodes)[node], r)
    belief.merge_observation(obs)
    for nid in obs.path_nodes:
        assert up_to_date(belief, graph, nid)


footprint_ops = st.lists(st.one_of(
    st.tuples(st.just("attach"), st.integers(0, 5),
              st.sampled_from([0.1, 0.7, 1.3, 4.0, 2.2])),
    st.tuples(st.just("remove"), st.integers(0, 30), st.just(0.0)),
    st.tuples(st.just("merge"), st.integers(0, 5), st.sampled_from([0.0, 5.0, 15.0])),
    st.tuples(st.just("read"), st.integers(0, 5), st.just(0.0)),
), max_size=40)


READER = Agent("reader", "v0", 1.0, 0.5, 0.0)


def footprint_states(ops):
    """A line, its belief and what the op merged (None if it was no merge).

    Yielded before the ops and after each of them.
    """
    graph = line_scenario(6, capacity={"car": 50})
    belief = ObservedGraph(graph)
    nodes = sorted(graph.path_nodes)
    yield graph, belief, None
    for serial, (op, k, value) in enumerate(ops):
        changed = None
        if op == "attach":
            graph.attach_object(obj(f"o{serial}", nodes[k], area=value))
        elif op == "remove":
            if graph.objects:
                graph.remove_object(sorted(graph.objects)[k % len(graph.objects)])
        elif op == "merge":
            changed = belief.merge_observation(graph.network.visible(nodes[k], value))
        else:
            for layer in (graph, belief):
                cost_table(layer, READER)[k]  # network index k is nodes[k]
        yield graph, belief, changed


@settings(max_examples=200, deadline=None)
@given(ops=footprint_ops)
def test_unsynced_covers_every_mismatch(ops):
    # a merge compares only the unsynced nodes of its view, so every node
    # where belief and truth differ must be unsynced, and each merge must
    # return what comparing the id sets at every view node returns
    states = footprint_states(ops)
    graph, belief, _ = next(states)
    nodes = sorted(graph.path_nodes)
    before = object_sets(belief)
    for (op, k, value), (_, _, changed) in zip(ops, states):
        truth = object_sets(graph)
        if op == "merge":
            view = graph.network.visible(nodes[k], value).path_nodes
            want = {nid: len(truth[nid] - before[nid])
                    for nid in view if before[nid] != truth[nid]}
            assert len(changed) == len(want)
            assert dict(changed) == want
        else:
            assert changed is None
        before = object_sets(belief)
        assert belief.unsynced >= {nid for nid in nodes if before[nid] != truth[nid]}


def fresh_cost(layer, nid, agent):
    """The velocity model's node cost from a fresh footprint sum."""
    node = layer.path_nodes[nid]
    nu = node_velocity(node, layer.footprint_sum(nid), agent.width, agent.default_velocity)
    return math.inf if nu == 0.0 else node.segment_length / nu


@settings(max_examples=200, deadline=None)
@given(ops=footprint_ops)
def test_node_costs_match_fresh_costs(ops):
    # the planner's cost tables, filled in full after every change, must
    # never answer from before it; widths 0.5 and 1.5 leave 15 and 5 m^2 of
    # the 2 m sidewalk free (1.5 blocks easily), and 2.0 leaves none, so
    # every node of its table is blocked
    agents = [Agent("a", "v0", speed, width, 0.0)
              for speed, width in ((1.0, 0.5), (1.5, 1.5), (1.0, 2.0))]
    keys = {(a.width, a.default_velocity) for a in agents}
    for graph, belief, _ in footprint_states(ops):
        for layer in (graph, belief):
            for agent in agents:  # the planner creates and reads the tables
                try:
                    plan_ids(layer, "v0", "v5", agent)
                except Unreachable:
                    pass
            assert layer.node_costs.keys() == keys
            for agent in agents:
                table = layer.node_costs[(agent.width, agent.default_velocity)]
                for i, nid in enumerate(layer.network.ids):
                    if agent.width >= layer.path_nodes[nid].sidewalk_width:
                        assert table[i] == math.inf
                    else:
                        assert table[i] == fresh_cost(layer, nid, agent)


@settings(max_examples=100, deadline=None)
@given(placements=object_placements)
def test_occupancy_matches_attachments(placements):
    graph = populated_line(placements)
    for cls, counts in graph.occupancy.items():
        assert len(counts) == len(graph.path_nodes)
        for node in graph.path_nodes:
            count = occupancy_at(graph, node, cls)
            attached = sum(
                1 for oid in graph.objects_at.get(node, set())
                if graph.objects[oid].semantic_class == cls
            )
            assert count == attached
            assert count <= graph.path_nodes[node].capacity[cls]
    # every class that has an object has its array
    assert {o.semantic_class for o in graph.objects.values()} <= set(graph.occupancy)


# -- memoized sensor views against the full-scan reference -----------------------


@functools.lru_cache(maxsize=None)
def static_grid(cols, rows, spacing):
    """One frozen grid per shape, so its memoized sensor views outlive examples."""
    return grid_scenario(cols, rows, spacing=spacing, poi_every=2,
                         capacity={"car": 2, "bicycle": 3, "trashcan": 1})


@st.composite
def sensor_cases(draw):
    spacing = draw(st.sampled_from([5.0, 7.5, 10.0, 15.0]))
    base = static_grid(draw(st.integers(1, 5)), draw(st.integers(1, 5)), spacing)
    truth = base.dynamic_copy()
    node_ids = sorted(truth.path_nodes)
    placements = draw(st.lists(
        st.tuples(st.sampled_from(node_ids),
                  st.sampled_from(["car", "bicycle", "trashcan"])),
        max_size=15))
    for k, (nid, cls) in enumerate(placements):
        if truth.free_capacity(nid, cls) > 0:
            truth.attach_object(obj(f"o{k}", nid, cls=cls))
    radius = draw(st.one_of(
        st.sampled_from([0.0, 5e-324, 1e-300, 1e-20, math.inf]),
        st.sampled_from([spacing, 2 * spacing, math.hypot(spacing, spacing)]),
        st.floats(min_value=0.0, max_value=5 * spacing),
    ))
    return truth, draw(st.sampled_from(node_ids)), radius


@settings(max_examples=300, deadline=None)
@given(case=sensor_cases())
def test_sensor_view_matches_radius_subgraph(case):
    truth, node, radius = case
    agent = Agent(id="a", current_node=node, default_velocity=1.0, width=0.5,
                  sensor_radius=radius)
    got = observe(truth, agent)
    assert got == truth.radius_subgraph(truth.node_position(node), radius)
    # a second look is served from the memo: the same record
    assert observe(truth, agent) is got


class TestSensorView:
    def test_index_shared_by_dynamic_copies(self, tiny_graph):
        copy = tiny_graph.dynamic_copy()
        assert copy.network is tiny_graph.network
        copy.network.visible("v0", 15.0)
        assert tiny_graph.network.visible("v0", 15.0).path_nodes == {"v0", "v1"}

    def test_one_record_per_node_and_radius(self, tiny_graph):
        first, second = tiny_graph.dynamic_copy(), tiny_graph.dynamic_copy()
        agent = Agent("a", "v1", 1.0, 0.5, 15.0)
        view = observe(first, agent)
        assert observe(first, agent) is view and observe(second, agent) is view

    def test_objects_read_per_call(self, tiny_graph):
        # the view stays valid for the whole run; each merge reads the truth
        belief = ObservedGraph(tiny_graph)
        view = tiny_graph.network.visible("v1", 15.0)
        assert belief.merge_observation(view) == []
        tiny_graph.attach_object(obj("o1", "v2"))
        assert tiny_graph.network.visible("v1", 15.0) is view
        assert belief.merge_observation(view) == [("v2", 1)]

    def test_unfrozen_graph_rejected(self):
        graph = SceneGraph()
        graph.add_path_node(PathNode("x", 0, 0, "sidewalk", {}, 1.0, 2.0))
        with pytest.raises(ValueError):
            graph.network.visible("x", 5.0)

    def test_negative_radius_rejected(self, tiny_graph):
        with pytest.raises(ValueError, match="non-negative"):
            tiny_graph.network.visible("v0", -1.0)
        assert not tiny_graph.network._visible  # memoizes nothing

    def test_unknown_node_rejected(self, tiny_graph):
        with pytest.raises(UnknownId):
            tiny_graph.network.visible("nope", 5.0)


class TestStaticNetwork:
    def test_indices_follow_sorted_ids(self):
        graph = SceneGraph()
        for nid, x in (("b", 0.0), ("c", 10.0), ("a", 20.0)):
            graph.add_path_node(PathNode(nid, x, 0.0, "sidewalk", {}, 4.0, 2.0))
        graph.add_adjacency_edge("b", "c", 10.0)
        graph.add_adjacency_edge("c", "a", 12.0)
        graph.add_adjacency_edge("c", "a", 11.0, directed=True)
        graph.freeze_static()
        net = graph.network
        assert net.ids == ["a", "b", "c"]
        assert net.index == {"a": 0, "b": 1, "c": 2}
        assert net.positions == [(20.0, 0.0), (0.0, 0.0), (10.0, 0.0)]
        # neighbour lists keep edge order, parallel edges included
        assert net.neighbours == [[(2, 12.0)], [(2, 10.0)], [(1, 10.0), (0, 12.0), (0, 11.0)]]

    def test_neighbours_follow_the_edges(self):
        # undirected, directed, parallel and access edges interleaved, with
        # ids added out of sorted order, so edge order differs from id order
        graph = SceneGraph()
        for nid, x in (("d", 0.0), ("b", 10.0), ("a", 20.0), ("c", 30.0), ("e", 40.0)):
            graph.add_path_node(PathNode(nid, x, 0.0, "sidewalk", {}, 4.0, 2.0))
        for nid in ("p", "q"):
            graph.add_poi_node(PoiNode(nid, 5.0, 5.0, "housing"))
        graph.add_adjacency_edge("d", "b", 10.0)
        graph.add_access_edge("p", "b", 3.0)
        graph.add_adjacency_edge("a", "b", 10.0, directed=True)
        graph.add_adjacency_edge("b", "a", 12.0)
        graph.add_access_edge("q", "c", 4.0)
        graph.add_adjacency_edge("b", "a", 11.0)
        graph.add_adjacency_edge("c", "a", 10.0, directed=True)
        graph.add_adjacency_edge("e", "c", 10.0)
        graph.add_adjacency_edge("a", "c", 9.0)
        graph.add_adjacency_edge("d", "e", 40.0, directed=True)
        graph.freeze_static()
        net = graph.network
        reference = id_adjacency(graph)
        assert net.neighbours == [[(net.index[v], length) for v, length in reference[nid]]
                                  for nid in net.ids]
        assert net.neighbours[net.index["b"]] == [(3, 10.0), (0, 12.0), (0, 11.0)]
        assert not hasattr(graph, "adjacency")

    def test_kappa_is_the_least_cost_per_metre(self):
        graph = SceneGraph()
        for nid, x in (("b", 0.0), ("c", 10.0), ("a", 20.0), ("z", 20.0)):
            graph.add_path_node(PathNode(nid, x, 0.0, "sidewalk", {}, 4.0, 2.0))
        graph.add_adjacency_edge("b", "c", 10.0)
        graph.add_adjacency_edge("c", "a", 11.0, directed=True)
        graph.add_adjacency_edge("a", "z", 0.5)  # its ends coincide: no bound
        graph.freeze_static()
        net = graph.network
        # b - c: (10 m + the entered node's 4 m segment) / 10 m beats c -> a's 1.5
        k = 1.4 * (1 - 1e-9)
        assert net.kappa == k
        # scaled from node 0, a at x = 20
        assert net.bound_positions == [(0.0, 0.0), (k * -20.0, 0.0), (k * -10.0, 0.0),
                                       (0.0, 0.0)]

    def test_kappa_without_a_moving_edge_is_zero(self):
        graph = SceneGraph()
        for nid in ("u", "v"):
            graph.add_path_node(PathNode(nid, 5.0, 5.0, "sidewalk", {}, 4.0, 2.0))
        graph.add_adjacency_edge("u", "v", 1.0)
        graph.freeze_static()
        assert graph.network.kappa == 0.0
        assert graph.network.bound_positions == [(0.0, 0.0), (0.0, 0.0)]

    def test_static_costs_per_speed(self, tiny_graph):
        # kept per agent (width, speed) on the object-free layer, which the
        # scene's objects never reach: a sidewalk not wider than the agent
        # blocks, whatever the speed
        tiny_graph.attach_object(obj("o1", "v1", area=5.0))
        bare = tiny_graph.network.bare
        for width, speed in ((0.5, 2.0), (0.5, 1.5), (2.0, 2.0)):
            plan_ids(bare, "v0", "v0", Agent("a", "v0", speed, width, 0.0))
        assert {key: [table[i] for i in range(3)] for key, table in bare.node_costs.items()} == {
            (0.5, 2.0): [10.0 / 2.0] * 3,
            (0.5, 1.5): [10.0 / 1.5] * 3,
            (2.0, 2.0): [math.inf] * 3}

    def test_shared_by_copies_and_belief(self, tiny_graph):
        tiny_graph.attach_object(obj("o1", "v0"))
        plan_ids(tiny_graph, "v0", "v2", Agent("a", "v0", 1.0, 0.5, 0.0))
        bare = tiny_graph.network.bare
        copy = tiny_graph.dynamic_copy()
        for layer in (copy, ObservedGraph(copy), ObservedGraph(tiny_graph)):
            for store in ("registry", "path_nodes", "poi_nodes",
                          "access", "static_edges", "depot_id", "network"):
                assert getattr(layer, store) is getattr(tiny_graph, store), store
            assert layer.network.bare is bare
            assert layer.objects == {} and layer.objects is not tiny_graph.objects
            assert layer.objects_at == {}
            assert layer.node_costs == {} and tiny_graph.node_costs
        # the static planner's layer shares the stores and holds no objects
        assert type(bare) is ObjectLayer and bare.network is tiny_graph.network
        assert bare.path_nodes is tiny_graph.path_nodes and bare.access is tiny_graph.access
        assert tiny_graph.objects and bare.objects == {} and bare.objects_at == {}
        assert copy.occupancy == {}
        assert copy.occupancy is not tiny_graph.occupancy
        assert tiny_graph.occupancy["car"] == [1, 0, 0]
        # the copy counts on its own arrays over the shared slot counts
        copy.attach_object(obj("o2", "v0"))
        assert copy.objects_at == {"v0": {"o2"}} and tiny_graph.objects_at["v0"] == {"o1"}
        assert copy.occupancy["car"] == [1, 0, 0]
        assert copy.occupancy["car"] is not tiny_graph.occupancy["car"]
        assert copy.network.slots("car") is tiny_graph.network.slots("car")

    def test_compiled_on_first_read(self):
        graph = grid_scenario(3, 3)
        assert "neighbours" not in vars(graph.network)
        graph.network.neighbours
        assert "neighbours" in vars(graph.dynamic_copy().network)

    @pytest.mark.parametrize("field, value", [
        *itertools.product(["segment_length", "sidewalk_width"],
                           [0.0, -1.0, float("nan"), float("inf")]),
        *itertools.product(["x", "y", "poi.x", "poi.y"],
                           [float("nan"), float("inf"), -float("inf")]),
    ])
    def test_freeze_rejects_bad_node_geometry(self, field, value):
        # a graph built in code is checked too: a NaN segment would zero
        # kappa and surface as a misleading Unreachable, and a NaN position
        # breaks A*'s heap order into a wrong plan or the sensor grid
        kind, _, name = field.rpartition(".")
        graph = SceneGraph()
        for nid, x in (("a", 0.0), ("b", 10.0), ("c", 20.0)):
            bad = {name: value} if nid == "b" and not kind else {}
            graph.add_path_node(PathNode(**{
                "id": nid, "x": x, "y": 0.0, "semantic_class": "sidewalk", "capacity": {},
                "segment_length": 4.0, "sidewalk_width": 2.0, **bad}))
        graph.add_adjacency_edge("a", "b", 10.0)
        graph.add_adjacency_edge("b", "c", 10.0)
        graph.add_poi_node(PoiNode(**{"id": "p", "x": 10.0, "y": 3.0,
                                      "semantic_class": "housing",
                                      **({name: value} if kind else {})}))
        graph.add_access_edge("p", "b", 3.0)
        node = "PoI 'p'" if kind else "path node 'b'"
        if name in ("x", "y"):
            message = f"{node} position: not finite"
        else:
            message = f"{node} {name}: must be positive and finite"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            graph.freeze_static()
        with pytest.raises(ValueError, match="freeze the static subgraph first"):
            graph.network

    def test_freeze_rejects_a_poi_without_access_edge(self):
        # a drain and a plan resolve a PoI through its access edge: a graph
        # built in code without one used to freeze, then fail at its first
        # spawn inside a run
        graph = SceneGraph()
        for nid, x in (("a", 0.0), ("b", 10.0), ("c", 20.0)):
            graph.add_path_node(PathNode(nid, x, 0.0, "sidewalk", {"car": 1}, 4.0, 2.0))
        graph.add_adjacency_edge("a", "b", 10.0)
        graph.add_adjacency_edge("b", "c", 10.0)
        graph.add_poi_node(PoiNode("d", 0.0, 3.0, "work", is_depot=True))
        graph.add_access_edge("d", "a", 3.0)
        graph.add_poi_node(PoiNode("h", 20.0, 3.0, "housing"))
        with pytest.raises(ValueError, match="^poi 'h': missing access edge$"):
            graph.freeze_static()
        with pytest.raises(ValueError, match="freeze the static subgraph first"):
            graph.network
        graph.add_access_edge("h", "c", 3.0)
        graph.freeze_static()
        assert graph.access == {"d": "a", "h": "c"}

    def test_unfrozen_graph_has_no_network(self):
        graph = SceneGraph()
        graph.add_path_node(PathNode("x", 0, 0, "sidewalk", {}, 1.0, 2.0))
        with pytest.raises(ValueError):
            graph.network
