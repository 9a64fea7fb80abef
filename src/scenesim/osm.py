"""Build a scenario from an OpenStreetMap XML extract.

Pipeline: extract the pedestrian way network, interpolate long segments,
prune to the L1 radius around the center, keep the largest connected
component, map tagged buildings/amenities to place classes, pick the
building nearest the center as depot, link every PoI to its nearest path
node via an access edge, and assign sidewalk geometry and capacities.

The tag-to-class mapping ships as data below; the capacities (every
builder's ``DEFAULT_CAPACITY``) and sidewalk geometry are synthetic
placeholders.
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET
from pathlib import Path

from .errors import EmptyNetwork, MalformedXml, NoDepotCandidate, ValidationError
from .graph import DEFAULT_CAPACITY, PathNode, PoiNode, SceneGraph, build_scene, cells
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


def import_osm(xml_path, center: tuple[float, float], radius: float,
               max_segment: float = 25.0, sidewalk_width: float = 2.0) -> SceneGraph:
    """Construct a validated, frozen scene graph from an OSM XML extract.

    ``max_segment`` is the longest path segment kept before interpolation
    splits it (inf: none is split), and ``sidewalk_width`` every path
    node's width.  Every bad input is reported at once.
    """
    lon0, lat0 = center
    faults = []  # NaN fails every comparison; an infinite radius prunes nothing
    if not math.isfinite(lon0):
        faults.append(f"center: longitude must be finite, got {lon0!r}")
    if not -90 < lat0 < 90:
        faults.append(f"center: latitude must lie in (-90, 90), got {lat0!r}")
    if not radius >= 0:
        faults.append(f"radius: must not be negative, got {radius!r}")
    if not max_segment > 0:
        faults.append(f"max_segment: must be positive, got {max_segment!r}")
    if not 0 < sidewalk_width < math.inf:
        faults.append(f"sidewalk_width: must be positive and finite, got {sidewalk_width!r}")
    if faults:
        raise ValidationError(faults)
    try:
        tree = ET.parse(Path(xml_path))
    except ET.ParseError as exc:
        raise MalformedXml(f"{xml_path}: {exc}") from exc
    root = tree.getroot()

    cos_lat0 = math.cos(math.radians(lat0))

    def project(el):
        """The node's position in metres from the center; MalformedXml unless finite."""
        lon, lat = el.get("lon"), el.get("lat")
        try:
            x = math.radians(float(lon) - lon0) * cos_lat0 * EARTH_RADIUS_M
            y = math.radians(float(lat) - lat0) * EARTH_RADIUS_M
        except (TypeError, ValueError):  # missing, or not a number
            x = y = math.nan
        if not (math.isfinite(x) and math.isfinite(y)):
            raise MalformedXml(f"{xml_path}: node {el.get('id')!r} has no finite position "
                               f"(lon={lon!r}, lat={lat!r})")
        return x, y

    osm_nodes: dict[str, tuple[float, float]] = {}
    node_tags: dict[str, dict] = {}
    for el in root.iter("node"):
        nid = el.get("id")
        osm_nodes[nid] = project(el)
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
            pieces = max(1, math.ceil(length / max_segment))
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

    segments = [(a, b, l) for a, b, l in segments
                if in_range(positions[a]) and in_range(positions[b])]
    if not segments:
        raise EmptyNetwork("no pedestrian segments within range")

    # 4. largest connected component
    component = _largest_component(segments)
    segments = [(a, b, l) for a, b, l in segments if a in component]

    # 5. classify PoI candidates: tagged nodes pn<id>, building ways p<id>
    pois: list[tuple[str, tuple[float, float], str]] = []
    for nid in sorted(node_tags):
        cls = _classify(node_tags[nid])
        if cls is not None and nid in osm_nodes and in_range(osm_nodes[nid]):
            pois.append((f"pn{nid}", osm_nodes[nid], cls))
    for way_id, refs, tags in ways:
        cls = _classify(tags)
        if cls is None:
            continue
        if len(refs) > 1 and refs[0] == refs[-1]:
            refs = refs[:-1]  # closed outline: drop the closing ref
        outline = [osm_nodes[r] for r in refs if r in osm_nodes]
        if not outline:
            continue
        centroid = tuple(sum(axis) / len(outline) for axis in zip(*outline))
        if in_range(centroid):
            pois.append((f"p{way_id}", centroid, cls))
    pois.sort(key=lambda p: p[0])

    if not pois:
        raise NoDepotCandidate("no classified building/amenity within range")
    depot_id = min(pois, key=lambda p: (math.hypot(*p[1]), p[0]))[0]

    # 6. assemble: capacities, incident-mean segment length, access edges
    incident: dict[str, list[float]] = {}
    first: dict[tuple[str, str], tuple] = {}  # a segment two ways share is one edge
    for a, b, l in segments:
        incident.setdefault(a, []).append(l)
        incident.setdefault(b, []).append(l)
        first.setdefault((min(a, b), max(a, b)), (a, b, l))
    nodes = [(nid, *positions[nid]) for nid in sorted(component)]
    nearest = _nearest(nodes, [pos for _, pos, _ in pois])
    capacity = dict(DEFAULT_CAPACITY)  # one mapping, shared by every node
    return build_scene(
        (PathNode(id=nid, x=x, y=y, semantic_class="sidewalk", capacity=capacity,
                  segment_length=sum(incident[nid]) / len(incident[nid]),
                  sidewalk_width=sidewalk_width)
         for nid, x, y in nodes),
        first.values(),
        ((PoiNode(id=poi_id, x=pos[0], y=pos[1], semantic_class=cls,
                  is_depot=(poi_id == depot_id)), path_id, max(dist, 0.1))
         for (poi_id, pos, cls), (dist, path_id) in zip(pois, nearest)),
    )


def _nearest(nodes: list, points: list):
    """Yield per point the least ``(math.dist(point, node), id)`` over ``(id, x, y)`` nodes.

    Each search walks rings of :func:`cells`, about sqrt(N) to a side, out
    from the point's cell, clamped to one cell beyond the occupied ones: that
    weakens the bound but gives an overflowing quotient a cell.  A node in
    ring k is over k - 1 cells away on some axis: once k - 2 cells (one of
    slack for rounding) exceed the best distance, none from ring k on can win or tie.
    """
    xs, ys = [x for _, x, _ in nodes], [y for _, _, y in nodes]
    side = max(max(xs) - min(xs), max(ys) - min(ys)) / math.isqrt(len(nodes)) or 1.0
    grid = cells(nodes, side)
    x0, x1 = math.floor(min(xs) / side), math.floor(max(xs) / side)
    y0, y1 = math.floor(min(ys) / side), math.floor(max(ys) / side)
    for point in points:
        cx = math.floor(min(max(point[0] / side, x0 - 1), x1 + 1))
        cy = math.floor(min(max(point[1] / side, y0 - 1), y1 + 1))
        best = (math.inf, "")
        for k in range(max(cx - x0, x1 - cx, cy - y0, y1 - cy) + 1):
            if (k - 2) * side > best[0]:
                break
            for ix in range(max(cx - k, x0), min(cx + k, x1) + 1):
                # the ring's full side columns, or its top and bottom cells
                rows = range(cy - k, cy + k + 1) if abs(ix - cx) == k else (cy - k, cy + k)
                for iy in rows:
                    for nid, x, y in grid.get((ix, iy), ()):
                        best = min(best, (math.dist(point, (x, y)), nid))
        yield best


def _is_pedestrian(tags: dict) -> bool:
    return (tags.get("highway") in PEDESTRIAN_HIGHWAYS
            or tags.get("sidewalk") not in (None, "no", "none"))


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
