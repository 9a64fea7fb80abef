"""Build a scenario from an OpenStreetMap XML extract.

Pipeline: extract the pedestrian way network, interpolate long segments,
prune to the L1 radius around the center, keep the largest connected
component, map tagged buildings/amenities to place classes, pick the
building nearest the center as depot, link every PoI to its nearest path
node via an access edge, and assign sidewalk geometry and capacities.

The tag-to-class mapping ships as data below; the capacities and sidewalk
geometry are synthetic placeholders.
"""

from __future__ import annotations

import bisect
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path

from .errors import EmptyNetwork, MalformedXml, NoDepotCandidate
from .graph import PathNode, PoiNode, SceneGraph
from .routing import components

EARTH_RADIUS_M = 6_371_000.0

PEDESTRIAN_HIGHWAYS = frozenset({"footway", "path", "pedestrian", "living_street"})

# (tag key, tag value or "*") -> place class; first match wins, in order
TAG_MAP = (
    ("amenity", "school", "education"),
    ("amenity", "university", "education"),
    ("amenity", "kindergarten", "education"),
    ("amenity", "college", "education"),
    ("amenity", "restaurant", "leisure"),
    ("amenity", "cafe", "leisure"),
    ("amenity", "bar", "leisure"),
    ("leisure", "*", "leisure"),
    ("tourism", "*", "leisure"),
    ("office", "*", "work"),
    ("building", "industrial", "work"),
    ("building", "retail", "retail"),
    ("shop", "*", "retail"),
    ("building", "house", "housing"),
    ("building", "apartments", "housing"),
    ("building", "residential", "housing"),
    ("building", "detached", "housing"),
)

# object class -> slot count, at every path node
CAPACITIES = {"car": 2, "bicycle": 4, "trashcan": 1}


@dataclass
class ImportParams:
    max_segment: float = 25.0
    sidewalk_width: float = 2.0


def import_osm(xml_path, center: tuple[float, float], radius: float,
               params: ImportParams | None = None) -> SceneGraph:
    """Construct a validated, frozen scene graph from an OSM XML extract."""
    params = params or ImportParams()
    try:
        tree = ET.parse(Path(xml_path))
    except ET.ParseError as exc:
        raise MalformedXml(f"{xml_path}: {exc}") from exc
    root = tree.getroot()

    lon0, lat0 = center
    cos_lat0 = math.cos(math.radians(lat0))

    def project(lon, lat):
        x = math.radians(lon - lon0) * cos_lat0 * EARTH_RADIUS_M
        y = math.radians(lat - lat0) * EARTH_RADIUS_M
        return x, y

    osm_nodes: dict[str, tuple[float, float]] = {}
    node_tags: dict[str, dict] = {}
    for el in root.iter("node"):
        nid = el.get("id")
        osm_nodes[nid] = project(float(el.get("lon")), float(el.get("lat")))
        tags = {t.get("k"): t.get("v") for t in el.iter("tag")}
        if tags:
            node_tags[nid] = tags

    ways = []
    for el in root.iter("way"):
        refs = [nd.get("ref") for nd in el.iter("nd")]
        tags = {t.get("k"): t.get("v") for t in el.iter("tag")}
        ways.append((el.get("id"), refs, tags))
    ways.sort(key=lambda w: w[0])

    # 1. pedestrian ways -> path segments, 2. interpolate long segments
    positions: dict[str, tuple[float, float]] = {}
    segments: list[tuple[str, str, float]] = []
    for way_id, refs, tags in ways:
        if not _is_pedestrian(tags):
            continue
        for k, (a, b) in enumerate(zip(refs, refs[1:])):
            if a not in osm_nodes or b not in osm_nodes:
                continue
            pa, pb = osm_nodes[a], osm_nodes[b]
            positions[f"n{a}"] = pa
            positions[f"n{b}"] = pb
            length = math.dist(pa, pb)
            if length <= 0:
                continue
            pieces = max(1, math.ceil(length / params.max_segment))
            prev = f"n{a}"
            for j in range(1, pieces):
                frac = j / pieces
                mid = (pa[0] + (pb[0] - pa[0]) * frac, pa[1] + (pb[1] - pa[1]) * frac)
                mid_id = f"w{way_id}s{k}i{j}"
                positions[mid_id] = mid
                segments.append((prev, mid_id, length / pieces))
                prev = mid_id
            segments.append((prev, f"n{b}", length / pieces))

    # 3. prune to the L1 radius
    def in_range(pos):
        return abs(pos[0]) + abs(pos[1]) <= radius

    segments = [
        (a, b, l) for a, b, l in segments
        if in_range(positions[a]) and in_range(positions[b])
    ]
    if not segments:
        raise EmptyNetwork("no pedestrian segments within range")

    # 4. largest connected component
    component = _largest_component(segments)
    segments = [(a, b, l) for a, b, l in segments if a in component]

    # 5. classify PoI candidates (tagged nodes and building ways)
    pois: list[tuple[str, tuple[float, float], str]] = []
    for nid in sorted(node_tags):
        cls = _classify(node_tags[nid])
        if cls is not None and nid in osm_nodes and in_range(osm_nodes[nid]):
            pois.append((f"p{nid}", osm_nodes[nid], cls))
    for way_id, refs, tags in ways:
        cls = _classify(tags)
        if cls is None:
            continue
        if len(refs) > 1 and refs[0] == refs[-1]:
            refs = refs[:-1]  # closed outline: drop the closing ref
        outline = [osm_nodes[r] for r in refs if r in osm_nodes]
        if not outline:
            continue
        centroid = (
            sum(p[0] for p in outline) / len(outline),
            sum(p[1] for p in outline) / len(outline),
        )
        if in_range(centroid):
            pois.append((f"p{way_id}", centroid, cls))
    pois.sort(key=lambda p: p[0])

    if not pois:
        raise NoDepotCandidate("no classified building/amenity within range")
    depot_id = min(pois, key=lambda p: (math.hypot(*p[1]), p[0]))[0]

    # 6. assemble: capacities, incident-mean segment length, access edges
    incident: dict[str, list[float]] = {}
    for a, b, l in segments:
        incident.setdefault(a, []).append(l)
        incident.setdefault(b, []).append(l)

    graph = SceneGraph()
    for nid in sorted(component):
        x, y = positions[nid]
        graph.add_path_node(PathNode(
            id=nid, x=x, y=y, semantic_class="sidewalk",
            capacity=dict(CAPACITIES),
            segment_length=sum(incident[nid]) / len(incident[nid]),
            sidewalk_width=params.sidewalk_width,
        ))
    added = set()
    for a, b, l in segments:
        key = (min(a, b), max(a, b))
        if key in added:
            continue
        added.add(key)
        graph.add_adjacency_edge(a, b, l)

    by_x = sorted((positions[nid][0], nid) for nid in component)
    for poi_id, pos, cls in pois:
        graph.add_poi_node(PoiNode(
            id=poi_id, x=pos[0], y=pos[1], semantic_class=cls,
            is_depot=(poi_id == depot_id),
        ))
        nearest = _nearest(by_x, positions, pos)
        length = max(math.dist(pos, positions[nearest]), 0.1)
        graph.add_access_edge(poi_id, nearest, length)

    graph.freeze_static()
    return graph


def _nearest(by_x: list, positions: dict, pos: tuple) -> str:
    """The node least in ``(math.dist(pos, node), id)``, from ``by_x``: (x, id) sorted.

    No distance is below its x offset, so the search walks out from ``pos``'s
    x both ways until every untested node lies farther along x than the best
    distance (by a margin against rounding): none of them can win or tie.
    """
    px, dist, inf = pos[0], math.dist, math.inf
    best = (inf, "")
    hi = bisect.bisect_left(by_x, (px,))
    lo = hi - 1
    while True:
        left = px - by_x[lo][0] if lo >= 0 else inf
        right = by_x[hi][0] - px if hi < len(by_x) else inf
        step = min(left, right)
        if step == inf or step > best[0] * (1 + 1e-9):
            return best[1]
        if left <= right:
            nid, lo = by_x[lo][1], lo - 1
        else:
            nid, hi = by_x[hi][1], hi + 1
        best = min(best, (dist(pos, positions[nid]), nid))


def _is_pedestrian(tags: dict) -> bool:
    if tags.get("highway") in PEDESTRIAN_HIGHWAYS:
        return True
    sidewalk = tags.get("sidewalk")
    return sidewalk is not None and sidewalk not in ("no", "none")


def _classify(tags: dict) -> str | None:
    for key, value, cls in TAG_MAP:
        if key in tags and (value == "*" or tags[key] == value):
            return cls
    return None


def _largest_component(segments) -> set:
    """The largest component of the segments' ends; of equal ones, the one with the least id."""
    by_root: dict[str, set] = {}
    ends = {n for a, b, _ in segments for n in (a, b)}
    for node, root in components(ends, ((a, b) for a, b, _ in segments)).items():
        by_root.setdefault(root, set()).add(node)
    return min(by_root.values(), key=lambda comp: (-len(comp), min(comp)))
