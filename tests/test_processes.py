"""Process instantiation, drain placement, and lifetime balancing."""

import heapq
import math
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import scenesim.processes
from scenesim.errors import CapacityExceeded, DuplicateId, InvalidRate, ValidationError
from scenesim.graph import ObjectNode, PathNode, PoiNode, SceneGraph
from scenesim.processes import (
    ATTACHED,
    DISCARDED_CAPACITY,
    DISCARDED_PRIVATE,
    ProcessInstance,
    ProcessSpec,
)
from scenesim.stochastic import RateProfile, RandomStream
from scenesim.synthetic import grid_scenario, line_scenario
from conftest import id_adjacency, seeded_processes
from test_routing import reference_nearest


def make_spec(**overrides):
    base = dict(
        name="parked-cars",
        source_classes=frozenset({"housing"}),
        object_classes=frozenset({"car"}),
        rate_profile=RateProfile.constant(1.0),
        footprint_area=8.0,
        lifetime_mean=3600.0,
    )
    base.update(overrides)
    return ProcessSpec(**base)


class Variates:
    """A stand-in stream serving scripted standard variates, scaled as ``RandomStream``'s."""

    def __init__(self, uniforms, exponentials):
        self.uniforms, self.exponentials = iter(uniforms), iter(exponentials)

    def uniform(self):
        return next(self.uniforms)

    def exponential(self, mean):
        return next(self.exponentials) * mean


class TestSpecValidation:
    def test_needs_exactly_one_duration_parameter(self):
        with pytest.raises(ValidationError):
            make_spec(lifetime_mean=None)
        with pytest.raises(ValidationError):
            make_spec(target_population=25.0)

    @pytest.mark.parametrize("field, value", [
        ("sidewalk_probability", 1.5), ("sidewalk_probability", -0.1),
        ("sidewalk_probability", math.nan),
        ("lifetime_mean", 0.0), ("lifetime_mean", -1.0), ("lifetime_mean", math.nan),
    ])
    def test_bad_probability_or_mean_rejected_at_construction(self, field, value):
        # a drain draws without checking either, so a spec built in code is
        # checked where it is built, not at its first spawn inside a run
        with pytest.raises(ValidationError) as exc:
            make_spec(**{field: value})
        (violation,) = exc.value.violations
        assert violation.startswith("process 'parked-cars': ") and field in violation

    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan])
    def test_bad_target_population_rejected_at_construction(self, value):
        with pytest.raises(ValidationError) as exc:
            make_spec(lifetime_mean=None, target_population=value)
        assert exc.value.violations == [
            "process 'parked-cars': target_population: must be positive"]

    @pytest.mark.parametrize("field, value", [
        ("sidewalk_probability", 0.0), ("sidewalk_probability", 1.0),
        ("lifetime_mean", math.inf), ("lifetime_mean", 1e-300),
    ])
    def test_edge_values_accepted(self, field, value):
        assert getattr(make_spec(**{field: value}), field) == value


class TestInstantiation:
    def test_cartesian_product_of_pois_and_classes(self):
        graph = line_scenario(6, pois=((1, "housing"), (4, "housing"), (5, "retail")))
        spec = make_spec(object_classes=frozenset({"car", "bicycle"}))
        instances = seeded_processes(graph, [spec], seed=1)
        assert len(instances) == 4  # 2 housing PoIs x 2 object classes
        keys = {(i.poi_id, i.object_class) for i in instances}
        assert keys == {("poi0", "car"), ("poi0", "bicycle"),
                        ("poi1", "car"), ("poi1", "bicycle")}

    def test_no_matching_poi_yields_nothing(self):
        graph = line_scenario(3, pois=((2, "retail"),))
        assert seeded_processes(graph, [make_spec()], seed=1) == []

    def test_instances_have_independent_streams(self):
        graph = line_scenario(6, pois=((1, "housing"), (4, "housing")))
        a, b = seeded_processes(graph, [make_spec()], seed=1)
        assert a.stream.uniform() != b.stream.uniform()

    def test_instance_is_built_with_its_lifetime_mean(self):
        # a drain redraws until a lifetime is positive, so an instance has no
        # default mean of 0 to draw from forever
        with pytest.raises(TypeError):
            ProcessInstance(make_spec(), "poi0", "car", RandomStream(1, "x"))

    def test_explicit_lifetime_mean_passes_through(self):
        graph = line_scenario(3, pois=((1, "housing"),))
        (inst,) = seeded_processes(graph, [make_spec(lifetime_mean=1234.0)], seed=1)
        assert inst.lifetime_mean == 1234.0

    def test_target_population_balances_over_all_spawners(self):
        # two housing PoIs spawn cars at 1/h each with sidewalk prob 0.5, so
        # the effective class rate is 1/h total and a standing population of
        # 30 cars needs a 30 h mean lifetime
        graph = line_scenario(8, pois=((2, "housing"), (6, "housing")))
        spec = make_spec(lifetime_mean=None, target_population=30.0,
                         sidewalk_probability=0.5)
        instances = seeded_processes(graph, [spec], seed=1)
        for inst in instances:
            assert inst.lifetime_mean == pytest.approx(30.0 * 3600.0)


    def test_balanced_mean_that_underflows_is_rejected_at_set_up(self):
        # 1e-320 cars over 1e10 arrivals an hour balance to a mean of 0 s,
        # from which a drain would redraw its lifetime forever
        graph = line_scenario(3, pois=((1, "housing"),))
        spec = make_spec(lifetime_mean=None, target_population=1e-320,
                         rate_profile=RateProfile.constant(1e10))
        with pytest.raises(InvalidRate, match="must be positive, got 0.0"):
            seeded_processes(graph, [spec], seed=1)


class TestDrain:
    def test_attaches_at_access_node_when_free(self):
        graph = line_scenario(5, pois=((2, "housing"),))
        (inst,) = seeded_processes(graph, [make_spec()], seed=1)
        out = inst.drain(0.0, graph, "obj0")
        assert out.status == ATTACHED
        assert out.obj.attached_to == "v2"
        assert graph.objects["obj0"].footprint_area == 8.0

    def test_object_is_attached_with_its_lifetime(self):
        # the stream serves the sidewalk uniform, then the lifetime
        graph = line_scenario(5, pois=((2, "housing"),))
        (inst,) = seeded_processes(graph, [make_spec()], seed=1)
        twin = RandomStream(1, inst.stream.stream_id)
        out = inst.drain(0.0, graph, "obj0")
        assert graph.objects["obj0"] is out.obj
        twin.uniform()
        assert out.obj.t_lifetime == twin.exponential(inst.lifetime_mean) > 0.0

    def test_skips_full_nodes_to_nearest_free(self):
        graph = line_scenario(5, capacity={"car": 1}, pois=((2, "housing"),))
        (inst,) = seeded_processes(graph, [make_spec()], seed=1)
        for k in range(3):  # fills v2 then the 10 m neighbours v1/v3
            inst.drain(0.0, graph, f"obj{k}")
        nodes = sorted(o.attached_to for o in graph.objects.values())
        assert nodes == ["v1", "v2", "v3"]

    def test_private_probability_zero_always_discards(self):
        graph = line_scenario(3, pois=((1, "housing"),))
        (inst,) = seeded_processes(
            graph, [make_spec(sidewalk_probability=0.0)], seed=1)
        out = inst.drain(0.0, graph, "obj0")
        assert out.status == DISCARDED_PRIVATE and out.obj is None
        assert not graph.objects

    @pytest.mark.parametrize("p, status", [(1.0, ATTACHED), (0.0, DISCARDED_PRIVATE)])
    def test_degenerate_probabilities(self, p, status):
        graph = line_scenario(3, capacity={"car": 100}, pois=((1, "housing"),))
        (inst,) = seeded_processes(graph, [make_spec(sidewalk_probability=p)], seed=1)
        assert {inst.drain(0.0, graph, f"o{k}").status for k in range(100)} == {status}

    def test_sidewalk_uniform_must_fall_below_p(self):
        # the object enters the graph iff the sidewalk uniform is below p
        graph = line_scenario(3, pois=((1, "housing"),))
        inst = ProcessInstance(make_spec(sidewalk_probability=0.25), "poi0", "car",
                               Variates([0.25, 0.2499999, 0.5, 0.0], [1.0] * 4),
                               lifetime_mean=60.0)
        statuses = [inst.drain(0.0, graph, f"o{k}").status for k in range(4)]
        assert statuses == [DISCARDED_PRIVATE, ATTACHED, DISCARDED_PRIVATE, ATTACHED]

    def test_sidewalk_frequency(self):
        graph = line_scenario(3, capacity={"car": 0}, pois=((1, "housing"),))
        (inst,) = seeded_processes(graph, [make_spec(sidewalk_probability=0.4)], seed=2)
        statuses = Counter(inst.drain(0.0, graph, f"o{k}").status for k in range(100_000))
        assert set(statuses) == {DISCARDED_PRIVATE, DISCARDED_CAPACITY}
        assert 0.39 <= statuses[DISCARDED_CAPACITY] / 100_000 <= 0.41

    @pytest.mark.parametrize("mean, lifetime", [(60.0, 120.0), (math.inf, math.inf)])
    def test_lifetime_draws_are_strictly_positive(self, mean, lifetime):
        # a zero draw is redrawn: it is 0 s, or NaN (0 * inf) under an infinite mean
        stream = Variates([0.0], [0.0, 0.0, 2.0])
        inst = ProcessInstance(make_spec(lifetime_mean=mean), "poi0", "car", stream,
                               lifetime_mean=mean)
        graph = line_scenario(3, pois=((1, "housing"),))
        assert inst.drain(0.0, graph, "o0").obj.t_lifetime == lifetime

    def test_exhausted_bound_discards(self):
        graph = line_scenario(3, capacity={"car": 0}, pois=((1, "housing"),))
        (inst,) = seeded_processes(graph, [make_spec()], seed=1)
        assert inst.drain(0.0, graph, "obj0").status == DISCARDED_CAPACITY

    def test_capacity_respects_other_classes(self):
        graph = line_scenario(3, capacity={"car": 1, "bicycle": 1},
                              pois=((1, "housing"),))
        graph.attach_object(ObjectNode("b0", "bicycle", 0.0, 1.0, 1.5, "v1"))
        (inst,) = seeded_processes(graph, [make_spec()], seed=1)
        out = inst.drain(0.0, graph, "obj0")
        assert out.obj.attached_to == "v1"  # bicycle slot does not consume car slot

    @pytest.mark.parametrize("seed", range(10))
    def test_placement_matches_brute_force_nearest(self, seed):
        # oracle: recompute the nearest free node with plain Dijkstra over the
        # full node set, breaking ties by node id
        rng = RandomStream(seed, "drain-oracle")
        graph = grid_scenario(5, 5, capacity={"car": 1}, poi_every=3)
        # pre-fill a random subset of nodes
        for nid in sorted(graph.path_nodes):
            if rng.uniform() < 0.4:
                graph.attach_object(ObjectNode(f"pre-{nid}", "car", 0.0, 1.0, 8.0, nid))
        spec = make_spec(source_classes=frozenset({"housing", "retail",
                                                   "work", "education"}))
        instances = seeded_processes(graph, [spec], seed=seed)
        inst = instances[int(rng.uniform() * len(instances))]

        start = graph.access[inst.poi_id]
        adjacency = id_adjacency(graph)
        dist = {start: 0.0}
        heap = [(0.0, start)]
        best = None
        while heap:
            d, nid = heapq.heappop(heap)
            if d > dist.get(nid, math.inf) or d > 300.0:
                continue
            if graph.free_capacity(nid, "car") > 0:
                cand = (d, nid)
                if best is None or cand < best:
                    best = cand
                continue
            for nbr, length in adjacency[nid]:
                nd = d + length
                if nd < dist.get(nbr, math.inf):
                    dist[nbr] = nd
                    heapq.heappush(heap, (nd, nbr))

        out = inst.drain(0.0, graph, "obj0")
        if best is None:
            assert out.status == DISCARDED_CAPACITY
        else:
            assert out.obj.attached_to == best[1]


class TestDrainBinding:
    def test_binding_follows_the_graph(self, scripted_stream):
        # one instance drains alternately into two copies whose occupancy
        # differs from the start; each copy must end as if drained alone.
        # Every draw is 60 s, so each instance's lifetimes are all equal.
        scenario = grid_scenario(4, 4, capacity={"car": 1}, poi_every=5)
        poi = sorted(scenario.poi_nodes)[0]
        access = scenario.access[poi]

        def copies():
            first, second = scenario.dynamic_copy(), scenario.dynamic_copy()
            for nid in (access, *(v for v, _ in id_adjacency(scenario)[access][:2])):
                second.attach_object(ObjectNode(f"pre-{nid}", "car", 0.0, 1.0, 8.0, nid))
            return first, second

        def drain(inst, graph, object_id):
            out = inst.drain(0.0, graph, object_id, 25.0)
            return out.status, out.obj and out.obj.attached_to

        spec = make_spec()
        shared = ProcessInstance(spec, poi, "car", scripted_stream([60.0] * 25, [60.0] * 24),
                                 lifetime_mean=60.0)
        mixed = copies()
        got = ([], [])
        for k in range(12):
            for graph, seen, prefix in zip(mixed, got, "ab"):
                seen.append(drain(shared, graph, f"{prefix}{k}"))
        alone = copies()
        for graph, seen, prefix in zip(alone, got, "ab"):
            inst = ProcessInstance(spec, poi, "car", scripted_stream([60.0] * 13, [60.0] * 12),
                                   lifetime_mean=60.0)
            assert seen == [drain(inst, graph, f"{prefix}{k}") for k in range(12)]
        for graph, twin in zip(mixed, alone):
            assert graph.occupancy == twin.occupancy
            assert graph.objects == twin.objects
        statuses = {status for seen in got for status, _ in seen}
        assert statuses == {ATTACHED, DISCARDED_CAPACITY}
        assert got[0] != got[1]


class TestLifetimes:
    def test_lifetime_mean_recovered(self):
        graph = line_scenario(3, capacity={"car": 20000}, pois=((1, "housing"),))
        (inst,) = seeded_processes(graph, [make_spec(lifetime_mean=500.0)], seed=3)
        draws = [inst.drain(0.0, graph, f"o{k}").obj.t_lifetime for k in range(20000)]
        assert all(d > 0 for d in draws)
        assert sum(draws) / len(draws) == pytest.approx(500.0, rel=0.03)


# -- slot arrays against a fresh recount and the string-keyed search ------------

SLOT_CLASSES = ("car", "bicycle")  # "trashcan" has no slot anywhere


@st.composite
def slot_cases(draw):
    """An unfrozen grid with per-node, per-class slot counts, and an op list."""
    cols, rows = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    # ids unrelated to grid position, so sorted-id order is not build order
    names = draw(st.permutations([f"n{k:02d}" for k in range(cols * rows)]))
    graph = SceneGraph()
    for k, nid in enumerate(names):
        capacity = {cls: draw(st.integers(0, 2)) for cls in SLOT_CLASSES}
        graph.add_path_node(PathNode(nid, (k % cols) * 10.0, (k // cols) * 10.0,
                                     "sidewalk", capacity, 5.0, 2.0))
    # equal lengths make distance ties, broken on the node id
    lengths = st.sampled_from([10.0, 10.0, 5.0, 0.1 + 0.2])
    for r in range(rows):
        for c in range(cols):
            for dc, dr in ((1, 0), (0, 1)):
                if c + dc < cols and r + dr < rows:
                    graph.add_adjacency_edge(names[r * cols + c],
                                             names[(r + dr) * cols + c + dc],
                                             draw(lengths),
                                             directed=not draw(st.integers(0, 4)))
    access = draw(st.lists(st.sampled_from(names), min_size=1, max_size=3))
    for k, nid in enumerate(access):
        graph.add_poi_node(PoiNode(f"poi{k}", 0.0, 0.0, "housing"))
        graph.add_access_edge(f"poi{k}", nid, 1.0)
    classes = st.sampled_from(SLOT_CLASSES + ("trashcan",))
    ops = draw(st.lists(st.one_of(
        st.tuples(st.just("drain"), st.integers(0, len(access) - 1), classes,
                  st.sampled_from([0.0, 10.0, 25.0, math.inf])),
        st.tuples(st.just("attach"), st.sampled_from(names), classes, st.booleans()),
        st.tuples(st.just("remove"), st.integers(0, 60), st.none(), st.none()),
    ), max_size=40))
    return graph, names, ops


def assert_slots_match_recount(graph, names):
    recount = Counter((o.attached_to, o.semantic_class) for o in graph.objects.values())
    assert graph.network.ids == sorted(names)
    assert {cls for _, cls in recount} <= set(graph.occupancy)
    for cls, counts in graph.occupancy.items():
        assert counts == [recount[(nid, cls)] for nid in sorted(names)], cls
    for nid in names:
        for cls in SLOT_CLASSES + ("trashcan",):
            slots = graph.path_nodes[nid].capacity.get(cls, 0)
            assert graph.free_capacity(nid, cls) == slots - recount[(nid, cls)]
    return recount


@settings(max_examples=300, deadline=None)
@given(case=slot_cases())
def test_slot_arrays_match_recount_and_reference_drain(case):
    graph, names, ops = case
    early = ObjectNode("early", "car", 0.0, 1.0, 1.0, names[0])
    with pytest.raises(ValueError):  # objects attach only to a frozen graph
        graph.attach_object(early)
    assert graph.objects == {} and graph.occupancy == {}
    graph.freeze_static()
    truth = graph.dynamic_copy()
    spec = make_spec(object_classes=frozenset(SLOT_CLASSES + ("trashcan",)))
    stream = RandomStream(1, "slot-arrays")

    tested = []
    search = scenesim.processes.nearest_matching_node

    def recorded_search(adjacency, start, predicate, bound):
        def test(i):
            tested.append(truth.network.ids[i])
            return predicate(i)
        return search(adjacency, start, test, bound)

    recount = assert_slots_match_recount(truth, names)
    adjacency = id_adjacency(truth)
    for serial, (op, arg, cls, extra) in enumerate(ops):
        if op == "drain":
            poi = f"poi{arg}"
            want_tested = []

            def has_room(nid):
                want_tested.append(nid)
                return recount[(nid, cls)] < truth.path_nodes[nid].capacity.get(cls, 0)

            want = reference_nearest(adjacency, truth.access[poi], has_room, extra)
            tested.clear()
            inst = ProcessInstance(spec, poi, cls, stream, lifetime_mean=60.0)
            with mock.patch.object(scenesim.processes, "nearest_matching_node",
                                   recorded_search):
                out = inst.drain(0.0, truth, f"o{serial}", extra)
            assert tested == want_tested
            if want is None:
                assert out.status == DISCARDED_CAPACITY and out.obj is None
            else:
                assert out.status == ATTACHED and out.obj.attached_to == want
                assert truth.objects[out.obj.id] is out.obj
        elif op == "attach":
            oid = min(truth.objects) if extra and truth.objects else f"o{serial}"
            before = dict(truth.objects)
            obj = ObjectNode(oid, cls, 0.0, 1.0, 1.0, arg)
            if oid in before:
                with pytest.raises(DuplicateId):
                    truth.attach_object(obj)
            elif recount[(arg, cls)] >= truth.path_nodes[arg].capacity.get(cls, 0):
                with pytest.raises(CapacityExceeded):
                    truth.attach_object(obj)
            else:
                truth.attach_object(obj)
                before[oid] = obj
            assert truth.objects == before
        elif truth.objects:
            gone = truth.remove_object(sorted(truth.objects)[arg % len(truth.objects)])
            assert gone.id not in truth.objects
        recount = assert_slots_match_recount(truth, names)
