"""Process instantiation, drain placement, and lifetime balancing."""

import heapq
import math

import pytest

from scenesim.errors import ValidationError
from scenesim.graph import ObjectNode
from scenesim.processes import (
    ATTACHED,
    DISCARDED_CAPACITY,
    DISCARDED_PRIVATE,
    ProcessSpec,
    instantiate_processes,
)
from scenesim.stochastic import RateProfile, RandomStream, sample_exponential
from scenesim.synthetic import grid_scenario, line_scenario


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


class TestSpecValidation:
    def test_needs_exactly_one_duration_parameter(self):
        with pytest.raises(ValidationError):
            make_spec(lifetime_mean=None)
        with pytest.raises(ValidationError):
            make_spec(target_population=25.0)


class TestInstantiation:
    def test_cartesian_product_of_pois_and_classes(self):
        graph = line_scenario(6, pois=((1, "housing"), (4, "housing"), (5, "retail")))
        spec = make_spec(object_classes=frozenset({"car", "bicycle"}))
        instances = instantiate_processes(graph, [spec], seed=1)
        assert len(instances) == 4  # 2 housing PoIs x 2 object classes
        keys = {(i.poi_id, i.object_class) for i in instances}
        assert keys == {("poi0", "car"), ("poi0", "bicycle"),
                        ("poi1", "car"), ("poi1", "bicycle")}

    def test_no_matching_poi_yields_nothing(self):
        graph = line_scenario(3, pois=((2, "retail"),))
        assert instantiate_processes(graph, [make_spec()], seed=1) == []

    def test_instances_have_independent_streams(self):
        graph = line_scenario(6, pois=((1, "housing"), (4, "housing")))
        a, b = instantiate_processes(graph, [make_spec()], seed=1)
        assert a.stream.uniform() != b.stream.uniform()

    def test_explicit_lifetime_mean_passes_through(self):
        graph = line_scenario(3, pois=((1, "housing"),))
        (inst,) = instantiate_processes(graph, [make_spec(lifetime_mean=1234.0)], seed=1)
        assert inst.lifetime_mean == 1234.0

    def test_target_population_balances_over_all_spawners(self):
        # two housing PoIs spawn cars at 1/h each with sidewalk prob 0.5, so
        # the effective class rate is 1/h total and a standing population of
        # 30 cars needs a 30 h mean lifetime
        graph = line_scenario(8, pois=((2, "housing"), (6, "housing")))
        spec = make_spec(lifetime_mean=None, target_population=30.0,
                         sidewalk_probability=0.5)
        instances = instantiate_processes(graph, [spec], seed=1)
        for inst in instances:
            assert inst.lifetime_mean == pytest.approx(30.0 * 3600.0)


class TestDrain:
    def test_attaches_at_access_node_when_free(self):
        graph = line_scenario(5, pois=((2, "housing"),))
        (inst,) = instantiate_processes(graph, [make_spec()], seed=1)
        out = inst.drain(0.0, graph, "obj0")
        assert out.status == ATTACHED
        assert out.obj.attached_to == "v2"
        assert graph.objects["obj0"].footprint_area == 8.0

    def test_object_is_attached_with_its_lifetime(self):
        # the stream serves the sidewalk uniform, then the lifetime
        graph = line_scenario(5, pois=((2, "housing"),))
        (inst,) = instantiate_processes(graph, [make_spec()], seed=1)
        twin = RandomStream(1, inst.stream.stream_id)
        out = inst.drain(0.0, graph, "obj0")
        assert graph.objects["obj0"] is out.obj
        twin.uniform()
        assert out.obj.t_lifetime == sample_exponential(inst.lifetime_mean, twin)

    def test_skips_full_nodes_to_nearest_free(self):
        graph = line_scenario(5, capacity={"car": 1}, pois=((2, "housing"),))
        (inst,) = instantiate_processes(graph, [make_spec()], seed=1)
        for k in range(3):  # fills v2 then the 10 m neighbours v1/v3
            inst.drain(0.0, graph, f"obj{k}")
        nodes = sorted(o.attached_to for o in graph.objects.values())
        assert nodes == ["v1", "v2", "v3"]

    def test_private_probability_zero_always_discards(self):
        graph = line_scenario(3, pois=((1, "housing"),))
        (inst,) = instantiate_processes(
            graph, [make_spec(sidewalk_probability=0.0)], seed=1)
        out = inst.drain(0.0, graph, "obj0")
        assert out.status == DISCARDED_PRIVATE and out.obj is None
        assert not graph.objects

    def test_exhausted_bound_discards(self):
        graph = line_scenario(3, capacity={"car": 0}, pois=((1, "housing"),))
        (inst,) = instantiate_processes(graph, [make_spec()], seed=1)
        assert inst.drain(0.0, graph, "obj0").status == DISCARDED_CAPACITY

    def test_capacity_respects_other_classes(self):
        graph = line_scenario(3, capacity={"car": 1, "bicycle": 1},
                              pois=((1, "housing"),))
        graph.attach_object(ObjectNode("b0", "bicycle", 0.0, 1.0, 1.5, "v1"))
        (inst,) = instantiate_processes(graph, [make_spec()], seed=1)
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
        instances = instantiate_processes(graph, [spec], seed=seed)
        inst = instances[int(rng.uniform() * len(instances))]

        start, _ = graph.access[inst.poi_id]
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
            for nbr, length in graph.adjacency[nid]:
                nd = d + length
                if nd < dist.get(nbr, math.inf):
                    dist[nbr] = nd
                    heapq.heappush(heap, (nd, nbr))

        out = inst.drain(0.0, graph, "obj0")
        if best is None:
            assert out.status == DISCARDED_CAPACITY
        else:
            assert out.obj.attached_to == best[1]


class TestLifetimes:
    def test_lifetime_mean_recovered(self):
        graph = line_scenario(3, capacity={"car": 20000}, pois=((1, "housing"),))
        (inst,) = instantiate_processes(graph, [make_spec(lifetime_mean=500.0)], seed=3)
        draws = [inst.drain(0.0, graph, f"o{k}").obj.t_lifetime for k in range(20000)]
        assert all(d > 0 for d in draws)
        assert sum(draws) / len(draws) == pytest.approx(500.0, rel=0.03)
