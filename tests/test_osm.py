"""OpenStreetMap import: golden micro-extracts with hand-computed geometry."""

import math
import random

import pytest

from scenesim.errors import EmptyNetwork, MalformedXml, NoDepotCandidate
from scenesim.graph import EDGE_ACCESS
from scenesim.osm import EARTH_RADIUS_M, _nearest, import_osm
from scenesim.scenario import load_scenario, save_scenario
from conftest import id_adjacency

DEG_PER_M = math.degrees(1.0 / EARTH_RADIUS_M)  # at the equator


def tag_xml(tags):
    return "".join(f'<tag k="{k}" v="{v}"/>' for k, v in tags.items())


def osm_xml(nodes, ways):
    """Build a tiny extract; node positions are meters from (lon=0, lat=0)."""
    parts = ['<?xml version="1.0"?><osm version="0.6">']
    for nid, (x, y, *rest) in nodes.items():
        tags = rest[0] if rest else {}
        parts.append(
            f'<node id="{nid}" lon="{x * DEG_PER_M:.12f}" '
            f'lat="{y * DEG_PER_M:.12f}">{tag_xml(tags)}</node>'
        )
    for wid, (refs, tags) in ways.items():
        nds = "".join(f'<nd ref="{r}"/>' for r in refs)
        parts.append(f'<way id="{wid}">{nds}{tag_xml(tags)}</way>')
    parts.append("</osm>")
    return "".join(parts)


def write(tmp_path, text, name="extract.osm"):
    path = tmp_path / name
    path.write_text(text)
    return path


def golden_extract():
    """A 50 m footway plus one house outline a few meters south of it."""
    nodes = {
        1: (0.0, 0.0),
        2: (50.0, 0.0),
        3: (18.0, -4.0),
        4: (28.0, -4.0),
        5: (28.0, -8.0),
        6: (18.0, -8.0),
    }
    ways = {
        10: ([1, 2], {"highway": "footway"}),
        20: ([3, 4, 5, 6, 3], {"building": "house"}),
    }
    return osm_xml(nodes, ways)


class TestGoldenFootway:
    @pytest.fixture()
    def graph(self, tmp_path):
        path = write(tmp_path, golden_extract())
        return import_osm(path, center=(0.0, 0.0), radius=200.0, max_segment=20.0)

    def test_segment_interpolation(self, graph):
        # 50 m at max 20 m per piece -> 3 pieces, 2 interpolated nodes
        assert sorted(graph.path_nodes) == ["n1", "n2", "w10s0i1", "w10s0i2"]
        lengths = sorted(l for nbrs in id_adjacency(graph).values()
                         for _, l in nbrs)
        assert len(lengths) == 6  # 3 undirected segments
        assert all(l == pytest.approx(50.0 / 3.0, rel=1e-6) for l in lengths)

    def test_interpolated_positions(self, graph):
        x, y = graph.node_position("w10s0i1")
        assert (x, y) == (pytest.approx(50.0 / 3.0, rel=1e-6),
                          pytest.approx(0.0, abs=1e-6))

    def test_poi_from_building_centroid(self, graph):
        assert sorted(graph.poi_nodes) == ["p20"]
        poi = graph.poi_nodes["p20"]
        assert poi.semantic_class == "housing"
        assert poi.x == pytest.approx(23.0, rel=1e-6)
        assert poi.y == pytest.approx(-6.0, rel=1e-6)

    def test_depot_is_only_candidate(self, graph):
        assert graph.depot_id == "p20"
        assert graph.poi_nodes["p20"].is_depot

    def test_access_edge_to_nearest_path_node(self, graph):
        assert graph.access["p20"] == "w10s0i1"
        (edge,) = [e for e in graph.static_edges if e.kind == EDGE_ACCESS]
        assert (edge.u, edge.v) == ("p20", "w10s0i1")
        expected = math.hypot(23.0 - 50.0 / 3.0, 6.0)
        assert edge.length == pytest.approx(expected, rel=1e-6)

    def test_sidewalk_geometry_and_capacity(self, graph):
        node = graph.path_nodes["n1"]
        assert node.semantic_class == "sidewalk"
        assert node.sidewalk_width == 2.0
        assert node.capacity == {"car": 2, "bicycle": 4, "trashcan": 1}
        # incident-mean segment length: n1 touches one 16.67 m segment
        assert node.segment_length == pytest.approx(50.0 / 3.0, rel=1e-6)


def lattice_case():
    """A footway grid symmetric about the centre, its node ids shuffled
    against position, and a PoI on every point of the half-step lattice: a
    PoI on an axis lies exactly as far from two or four path nodes, and the
    least (distance, id) must win."""
    n, s = 4, 10.0
    coords = [(k + 0.5) * s for k in range(-n, n)]
    ids = random.Random(1).sample(range(1, 1000), len(coords) ** 2)
    grid = {(c, r): ids[r * len(coords) + c]
            for c in range(len(coords)) for r in range(len(coords))}
    nodes = {nid: (coords[c], coords[r]) for (c, r), nid in grid.items()}
    ways = {}
    for k in range(len(coords)):
        ways[2000 + k] = ([grid[c, k] for c in range(len(coords))], {"highway": "footway"})
        ways[3000 + k] = ([grid[k, r] for r in range(len(coords))], {"highway": "footway"})
    lattice = [a * s / 2 for a in range(-2 * n, 2 * n + 1)]
    points = [(x, y) for x in lattice for y in lattice]
    return nodes, ways, points, {}, 2 * len(lattice) - 1  # every PoI on either axis


def outside_case():
    """PoIs all around a 30 m square network and up to 20 times its extent
    away, straight out from its sides and corners and off them."""
    nodes = {1 + c + 4 * r: (10.0 * c, 10.0 * r) for c in range(4) for r in range(4)}
    ways = {100 + r: ([1 + c + 4 * r for c in range(4)], {"highway": "footway"})
            for r in range(4)}
    ways.update({200 + c: ([1 + c + 4 * r for r in range(4)], {"highway": "footway"})
                 for c in range(4)})
    rng = random.Random(2)
    points = [(15.0 + d * math.cos(a), 15.0 + d * math.sin(a))
              for d in (40.0, 100.0, 600.0) for a in (k * math.pi / 8 for k in range(16))]
    points += [(rng.uniform(-300, 330), rng.uniform(-300, 330)) for _ in range(40)]
    return nodes, ways, points, {}, 0


def border_case():
    """PoIs exactly on cell borders.  Q degrees is 2**-12, so projecting a
    power-of-two multiple of it scales exactly; the square's larger extent
    over isqrt(4) puts cell borders at every multiple of 2Q, and every PoI
    lies on a cell corner, inside the square, on it and out to twice its size."""
    q = 2.0 ** -12 / DEG_PER_M  # metres, written back to exactly 2**-12 degrees
    nodes = {1: (0.0, 0.0), 2: (4 * q, 0.0), 3: (4 * q, 4 * q), 4: (0.0, 4 * q)}
    ways = {10: ([1, 2, 3, 4, 1], {"highway": "footway"})}
    steps = [k * q for k in (-8, -4, -2, 0, 2, 4, 8)]
    points = [(x, y) for x in steps for y in steps]
    # every PoI on the square's two mid-lines, inside it or out, is tied
    return nodes, ways, points, {"max_segment": math.inf}, 2 * len(steps) - 1


def collinear_case():
    """A straight footway symmetric about the y axis, so one extent is 0,
    with PoIs on it, beside it and beyond both ends; a PoI on the y axis is
    exactly as far from the two middle nodes."""
    nodes = {6 + k: (10.0 * k + 5.0, 0.0) for k in range(-5, 5)}
    ways = {100: (sorted(nodes), {"highway": "footway"})}
    offsets = (-40.0, -5.0, 0.0, 5.0, 40.0)
    points = [(2.5 * a, b) for a in range(-30, 31) for b in offsets]
    return nodes, ways, points, {}, len(offsets)


class TestNearestAccessNode:
    @pytest.mark.parametrize("case", [lattice_case, outside_case, border_case, collinear_case],
                             ids=["lattice", "outside", "borders", "collinear"])
    def test_every_access_edge_is_the_brute_force_nearest(self, tmp_path, case):
        nodes, ways, points, params, least_ties = case()
        pois = {5000 + k: (x, y, {"amenity": "cafe"}) for k, (x, y) in enumerate(points)}
        graph = import_osm(write(tmp_path, osm_xml({**nodes, **pois}, ways)),
                           center=(0.0, 0.0), radius=1000.0, **params)
        assert len(graph.path_nodes) == len(nodes) and len(graph.poi_nodes) == len(pois)
        lengths = {e.u: (e.v, e.length) for e in graph.static_edges if e.kind == EDGE_ACCESS}
        ties = 0
        for pid, poi in graph.poi_nodes.items():
            ranked = sorted((math.dist((poi.x, poi.y), (p.x, p.y)), nid)
                            for nid, p in graph.path_nodes.items())
            (d, nearest), (d2, _) = ranked[:2]
            assert graph.access[pid] == nearest, pid
            assert lengths[pid] == (nearest, max(d, 0.1))
            ties += d2 == d
        assert ties >= least_ties

    @pytest.mark.parametrize("nodes", [
        # both extents 0; no import keeps a one-node component, as every
        # segment it keeps has two ends apart
        [("n1", 3.0, -2.0)],
        # cells so small that a far point's quotient overflows
        [("n1", 0.0, 0.0), ("n2", 1e-316, 0.0)],
    ], ids=["one_node", "subnormal_extent"])
    def test_degenerate_extents(self, nodes):
        points = [(0.0, 0.0), (3.0, -2.0), (-7.5, 1e6), (1e-9, 0.0), (100.0, 0.0)]
        brute_force = [min((math.dist(p, (x, y)), nid) for nid, x, y in nodes) for p in points]
        assert list(_nearest(nodes, points)) == brute_force


class TestFiltersAndPruning:
    def test_building_outside_radius_leaves_no_depot(self, tmp_path):
        nodes = {
            1: (0.0, 0.0), 2: (30.0, 0.0),
            3: (400.0, 0.0, {"building": "house"}),
        }
        ways = {10: ([1, 2], {"highway": "footway"})}
        path = write(tmp_path, osm_xml(nodes, ways))
        with pytest.raises(NoDepotCandidate):
            import_osm(path, center=(0.0, 0.0), radius=100.0)

    def test_largest_component_kept(self, tmp_path):
        nodes = {i: (float(10 * i), 0.0) for i in range(1, 5)}
        nodes.update({8: (0.0, 50.0), 9: (10.0, 50.0)})
        nodes[100] = (5.0, 5.0, {"building": "house"})
        ways = {
            10: ([1, 2, 3, 4], {"highway": "footway"}),
            11: ([8, 9], {"highway": "footway"}),
        }
        path = write(tmp_path, osm_xml(nodes, ways))
        graph = import_osm(path, center=(0.0, 0.0), radius=200.0)
        assert sorted(graph.path_nodes) == ["n1", "n2", "n3", "n4"]

    def test_non_pedestrian_ways_excluded(self, tmp_path):
        nodes = {1: (0.0, 0.0), 2: (20.0, 0.0), 3: (0.0, 10.0), 4: (20.0, 10.0),
                 100: (5.0, 5.0, {"building": "house"})}
        ways = {
            10: ([1, 2], {"highway": "residential", "sidewalk": "both"}),
            11: ([3, 4], {"highway": "motorway"}),
        }
        path = write(tmp_path, osm_xml(nodes, ways))
        graph = import_osm(path, center=(0.0, 0.0), radius=200.0)
        assert sorted(graph.path_nodes) == ["n1", "n2"]

    def test_sidewalk_no_is_excluded(self, tmp_path):
        nodes = {1: (0.0, 0.0), 2: (20.0, 0.0)}
        ways = {10: ([1, 2], {"highway": "residential", "sidewalk": "no"})}
        path = write(tmp_path, osm_xml(nodes, ways))
        with pytest.raises(EmptyNetwork):
            import_osm(path, center=(0.0, 0.0), radius=200.0)

    def test_amenity_beats_building_tag(self, tmp_path):
        nodes = {1: (0.0, 0.0), 2: (20.0, 0.0),
                 100: (5.0, 5.0, {"amenity": "school", "building": "house"})}
        ways = {10: ([1, 2], {"highway": "footway"})}
        path = write(tmp_path, osm_xml(nodes, ways))
        graph = import_osm(path, center=(0.0, 0.0), radius=200.0)
        assert graph.poi_nodes["pn100"].semantic_class == "education"

    def test_node_and_way_sharing_an_id_are_two_pois(self, tmp_path):
        # OSM numbers nodes and ways separately: a tagged node 7 and a
        # building way 7 are two PoIs, pn7 and p7
        nodes = {1: (0.0, 0.0), 2: (40.0, 0.0),
                 3: (20.0, -4.0), 4: (30.0, -4.0), 5: (30.0, -8.0),
                 7: (5.0, 5.0, {"shop": "bakery"})}
        ways = {7: ([3, 4, 5, 3], {"building": "house"}),
                10: ([1, 2], {"highway": "footway"})}
        graph = import_osm(write(tmp_path, osm_xml(nodes, ways)), center=(0.0, 0.0),
                           radius=200.0)
        assert {pid: poi.semantic_class for pid, poi in graph.poi_nodes.items()} == {
            "pn7": "retail", "p7": "housing"}

    def test_closed_outline_missing_its_closing_node(self, tmp_path):
        # the extract lacks node 10, which opens and closes the outline: the
        # centroid is the mean of the three corners it has
        nodes = {1: (0.0, 0.0), 2: (50.0, 0.0),
                 11: (20.0, -4.0), 12: (30.0, -4.0), 13: (30.0, -10.0)}
        ways = {10: ([1, 2], {"highway": "footway"}),
                30: ([10, 11, 12, 13, 10], {"building": "house"})}
        graph = import_osm(write(tmp_path, osm_xml(nodes, ways)), center=(0.0, 0.0),
                           radius=200.0, max_segment=20.0)
        poi = graph.poi_nodes["p30"]
        assert (poi.x, poi.y) == (pytest.approx(80.0 / 3.0, rel=1e-6),
                                  pytest.approx(-6.0, rel=1e-6))


class TestStability:
    def test_import_is_deterministic(self, tmp_path):
        path = write(tmp_path, golden_extract())
        a = import_osm(path, center=(0.0, 0.0), radius=200.0)
        b = import_osm(path, center=(0.0, 0.0), radius=200.0)
        assert a.static_hash() == b.static_hash()

    def test_round_trip_through_scenario_file(self, tmp_path):
        src = write(tmp_path, golden_extract())
        graph = import_osm(src, center=(0.0, 0.0), radius=200.0)
        out = tmp_path / "scenario.json"
        save_scenario(graph, out)
        loaded = load_scenario(out)
        assert loaded.static_hash() == graph.static_hash()

    def test_malformed_xml(self, tmp_path):
        path = write(tmp_path, "<osm><node id=1></osm>")
        with pytest.raises(MalformedXml):
            import_osm(path, center=(0.0, 0.0), radius=100.0)
