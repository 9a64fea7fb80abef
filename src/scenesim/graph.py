"""Dynamic scene graph: true world state, belief copy, and the merge operator.

The world is a typed graph with a static part (path network + points of
interest) that never changes after load, and a dynamic part (objects attached
to path nodes) that is mutated by spawn/expiry events.  The belief graph
shares the static part and tracks its own object population, updated only by
merging range-limited observations of the true graph.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from math import inf, isfinite
from typing import NamedTuple

from .errors import (
    CapacityExceeded,
    DuplicateId,
    UnknownId,
    UnknownStaticNode,
)
from .routing import components, least_cost_per_metre

EDGE_ADJACENCY = "adjacency"
EDGE_ACCESS = "access"

# what ``objects_at`` reads as at a node it has no entry for
EMPTY: frozenset[str] = frozenset()


@dataclass(frozen=True)
class ClassRegistry:
    """Declared semantic classes; place and object classes are disjoint."""

    places: frozenset[str]
    objects: frozenset[str]

    def __post_init__(self):
        overlap = self.places & self.objects
        if overlap:
            raise ValueError(f"place/object classes overlap: {sorted(overlap)}")


DEFAULT_REGISTRY = ClassRegistry(
    places=frozenset({"sidewalk", "work", "education", "leisure", "housing", "retail"}),
    objects=frozenset({"car", "bicycle", "trashcan"}),
)

# object class -> slot count, at every path node a builder makes by default
DEFAULT_CAPACITY = {"car": 2, "bicycle": 4, "trashcan": 1}


class PathNode(NamedTuple):
    """A sidewalk node.  Nodes may share one ``capacity`` map, so nothing mutates it."""

    id: str
    x: float
    y: float
    semantic_class: str
    capacity: dict  # object class -> slot count
    segment_length: float
    sidewalk_width: float


class PoiNode(NamedTuple):
    id: str
    x: float
    y: float
    semantic_class: str
    is_depot: bool = False


class ObjectNode(NamedTuple):
    """An object attached to a path node: an immutable record, cheap to build."""

    id: str
    semantic_class: str
    t_spawn: float
    t_lifetime: float
    footprint_area: float
    attached_to: str


class Edge(NamedTuple):
    kind: str
    u: str
    v: str
    directed: bool = False
    length: float | None = None


class Observation(NamedTuple):
    """The path ids and PoI ids strictly within a sensor radius of a point.

    A view names nodes and holds no objects.  It depends only on the frozen
    static graph, so one record serves every graph over it for the whole run.
    """

    path_nodes: frozenset[str]
    poi_nodes: frozenset[str]


def cells(points, side: float) -> dict[tuple[int, int], list]:
    """The ``(id, x, y)`` points by cell ``(floor(x / side), floor(y / side))``, in input order."""
    grid: dict[tuple[int, int], list] = {}
    for point in points:
        _, x, y = point
        grid.setdefault((math.floor(x / side), math.floor(y / side)), []).append(point)
    return grid


def _scan(path_nodes, poi_nodes, cx: float, cy: float, r: float) -> Observation:
    """The view strictly within distance r of (cx, cy), by full scan."""
    return Observation(
        frozenset(nid for nid, n in path_nodes.items() if math.hypot(n.x - cx, n.y - cy) < r),
        frozenset(nid for nid, n in poi_nodes.items() if math.hypot(n.x - cx, n.y - cy) < r),
    )


class StaticNetwork:
    """Compilation of a frozen static graph, for planning and sensing.

    Index ``i`` is the ``i``-th path node id in sorted order, so comparing
    indices orders nodes exactly as comparing their ids does: search ties
    that break on the node break the same way on either.  Each table is
    compiled on first read and then shared by every graph over the same
    static stores; constructing the network only keeps references.

    Sensor views are memoized the same way: :meth:`visible` maps (path node
    id, radius) to that node's :class:`Observation`, the one record every
    graph gets for the run.  A miss is answered from :func:`cells` of side r,
    one grid per node kind built on the first miss at that radius.  A zero
    or non-finite radius, or one too small for the coordinates' precision,
    falls back to the full scan.

    ``bare``, set by :meth:`SceneGraph.freeze_static`, is the object layer
    over the same static stores that holds no objects: the static planner's.
    """

    bare: ObjectLayer

    def __init__(self, path_nodes: dict, poi_nodes: dict, edges: list):
        self._path_nodes = path_nodes
        self._poi_nodes = poi_nodes
        self._edges = edges
        self._slots: dict[str, list[int]] = {}
        self._visible: dict[tuple[str, float], Observation] = {}
        # radius -> [path node cells, PoI cells]
        self._grids: dict[float, list[dict]] = {}

    @cached_property
    def ids(self) -> list[str]:
        return sorted(self._path_nodes)

    @cached_property
    def index(self) -> dict[str, int]:
        return {nid: i for i, nid in enumerate(self.ids)}

    @cached_property
    def neighbours(self) -> list[list[tuple[int, float]]]:
        """Per index: (neighbour index, length), in edge order (both ends unless directed)."""
        index = self.index
        nbrs = [[] for _ in index]
        for kind, u, v, directed, length in self._edges:
            if kind == EDGE_ADJACENCY:
                i, j = index[u], index[v]
                nbrs[i].append((j, length))
                if not directed:
                    nbrs[j].append((i, length))
        return nbrs

    @cached_property
    def predecessors(self) -> list[list[tuple[int, float]]]:
        """Per index: the in-edges (predecessor index, length), by predecessor."""
        preds = [[] for _ in self.ids]
        for u, nbrs in enumerate(self.neighbours):
            for v, length in nbrs:
                preds[v].append((u, length))
        return preds

    @cached_property
    def positions(self) -> list[tuple[float, float]]:
        nodes = self._path_nodes
        return [(nodes[nid].x, nodes[nid].y) for nid in self.ids]

    @cached_property
    def kappa(self) -> float:
        """:func:`routing.least_cost_per_metre` of the out-edges, over empty-segment dwells.

        Obstacles only slow an agent, so no node cost at speed v is below
        ``segment_length / v``, on the truth or on any belief.
        """
        nodes = self._path_nodes
        return least_cost_per_metre(
            ((u, s, length) for u, nbrs in enumerate(self.neighbours) for s, length in nbrs),
            self.positions, [nodes[nid].segment_length for nid in self.ids])

    @cached_property
    def bound_positions(self) -> list[tuple[float, float]]:
        """Per index: the position times ``kappa``, the planner's A* heuristic input."""
        # taken from node 0, so rounding scales with the network's extent
        k, (x0, y0) = self.kappa, self.positions[0]
        return [(k * (x - x0), k * (y - y0)) for x, y in self.positions]

    def slots(self, object_class: str) -> list[int]:
        """Per index: the node's slot count for ``object_class`` (0 if undeclared)."""
        if object_class not in self._slots:
            self._slots[object_class] = [self._path_nodes[nid].capacity.get(object_class, 0)
                                         for nid in self.ids]
        return self._slots[object_class]

    def visible(self, node_id: str, r: float) -> Observation:
        """The view strictly within ``r`` of path node ``node_id``, memoized."""
        key = (node_id, r)
        hit = self._visible.get(key)
        if hit is None:
            if r < 0:
                raise ValueError("radius must be non-negative")
            node = self._path_nodes.get(node_id)
            if node is None:
                raise UnknownId(f"{node_id!r} is not a path node")
            hit = self._grid_scan(node.x, node.y, r) if 0 < r < math.inf else None
            if hit is None:
                hit = _scan(self._path_nodes, self._poi_nodes, node.x, node.y, r)
            self._visible[key] = hit
        return hit

    def _grid_scan(self, cx: float, cy: float, r: float):
        """Grid answer for a finite r > 0, or None when r is too small for it."""
        # A node strictly inside the radius lies in [c - r, c + r] on each
        # axis, so its cell lies between the cells of those bounds: the 3x3
        # neighbourhood, with rounding at cell borders covered.  When c / r
        # overflows or loses the units digit, the span is not a few cells.
        try:
            if r not in self._grids:
                self._grids[r] = [cells([(n.id, n.x, n.y) for n in nodes.values()], r)
                                  for nodes in (self._path_nodes, self._poi_nodes)]
            x0, x1 = math.floor((cx - r) / r), math.floor((cx + r) / r)
            y0, y1 = math.floor((cy - r) / r), math.floor((cy + r) / r)
        except OverflowError:
            return None
        if x1 - x0 > 3 or y1 - y0 > 3:
            return None
        hypot, views = math.hypot, []
        for grid in self._grids[r]:  # path nodes, then PoIs
            near = [point for ix in range(x0, x1 + 1) for iy in range(y0, y1 + 1)
                    for point in grid.get((ix, iy), ())]
            views.append(frozenset(nid for nid, x, y in near if hypot(x - cx, y - cy) < r))
        return Observation(*views)


class ObjectLayer:
    """Objects attached to the path nodes of a shared static scene.

    Both the true graph and the belief graph are object layers over the same
    frozen static stores; :meth:`_share_static` is where a layer takes them
    from a source graph by reference.

    ``objects_at`` maps a path node id to the ids of its attached objects.
    A node gets its set when an object first attaches there (truth) or a
    merge writes it (belief); an absent node holds nothing, and readers use
    ``objects_at.get(node, EMPTY)``.

    ``node_costs`` maps an agent's (width, speed) to the layer's table of
    node costs by network index: the planner reads it on the belief or on
    ``network.bare``, and the kernel on the truth for an agent's dwell.
    Whatever changes a node's object set drops the node's entries, and the
    kept plans the change could alter (:meth:`_forget`); the next read
    computes them again from :meth:`footprint_sum`, which re-sums with
    ``math.fsum``: a cost never depends on the set's hash-seeded order, and
    never drifts the way running ``+=``/``-=`` totals would.
    """

    path_nodes: dict[str, PathNode]
    poi_nodes: dict[str, PoiNode]
    objects: dict[str, ObjectNode]
    objects_at: dict[str, set[str]]
    node_costs: dict[tuple[float, float], dict[int, float]]
    _network: StaticNetwork | None

    def _share_static(self, source: "ObjectLayer"):
        """Share frozen ``source``'s static stores and network; start with no objects.

        The static dicts are immutable after freeze, and the network only
        memoizes answers derived from them, so all are safe to share.
        """
        self.registry = source.registry
        self.path_nodes = source.path_nodes
        self.poi_nodes = source.poi_nodes
        self.access = source.access
        self.static_edges = source.static_edges
        self.depot_id = source.depot_id
        self._network = source.network
        self.objects = {}
        self.objects_at = {}
        self.node_costs = {}

    @property
    def network(self) -> StaticNetwork:
        """The compiled static network, shared with every copy and belief graph."""
        if self._network is None:
            raise ValueError("freeze the static subgraph first")
        return self._network

    def node_position(self, node_id: str) -> tuple[float, float]:
        """Position of a path or PoI node."""
        node = self.path_nodes.get(node_id) or self.poi_nodes.get(node_id)
        if node is None:
            raise UnknownId(node_id)
        return (node.x, node.y)

    def footprint_sum(self, path_id: str) -> float:
        return math.fsum(self.objects[oid].footprint_area
                         for oid in self.objects_at.get(path_id, EMPTY))

    def _forget(self, i: int, shrank: bool):
        """Drop node ``i``'s cost entries, and the plans its change could alter.

        ``shrank`` tells whether the node lost objects (see ``agents.NodeCosts.forget``).
        """
        for table in self.node_costs.values():
            table.pop(i, None)
            if table.plans:
                table.forget(i, shrank)


# -- static rules: each returns a record's faults as "<field>: <problem>", in field
# order; a class set of None (a rejected list's) judges no class undeclared


def _placed_faults(x: float, y: float, cls, places) -> list[str]:
    faults = [] if isfinite(x) and isfinite(y) else ["position: not finite"]
    if not isinstance(cls, str):
        faults.append("class: expected a string")
    elif places is not None and cls not in places:
        faults.append(f"class: undeclared {cls!r}")
    return faults


def path_node_faults(node: PathNode, places, objects, checked: set) -> list[str]:
    """Position, class, capacity, segment length, sidewalk width.  A capacity map found
    faultless joins ``checked`` by ``id`` (the caller keeps it alive): it is checked once."""
    _, x, y, cls, capacity, segment, width = node
    faults = _placed_faults(x, y, cls, places)
    if id(capacity) not in checked:
        count = len(faults)
        for k, v in capacity.items():
            if objects is not None and k not in objects:
                faults.append(f"capacity: undeclared class {k!r}")
            if not isinstance(v, int):
                faults.append(f"capacity[{k}]: expected an integer, got {v!r}")
            elif v < 0:
                faults.append(f"capacity[{k}]: negative")
        if len(faults) == count:
            checked.add(id(capacity))
    if not 0 < segment < inf:  # NaN fails too
        faults.append("segment_length: must be positive and finite")
    if not 0 < width < inf:
        faults.append("sidewalk_width: must be positive and finite")
    return faults


def poi_faults(node: PoiNode, places) -> list[str]:
    """Position and class; a declared class must not be a sidewalk."""
    _, x, y, cls, _ = node
    faults = _placed_faults(x, y, cls, places)
    if cls == "sidewalk" and (places is None or "sidewalk" in places):
        faults.append("class: PoI may not be a sidewalk")
    return faults


def scene_faults(graph: "SceneGraph") -> list[str]:
    """Each PoI without an access edge, then a path network that is not weakly connected."""
    faults = [f"poi {poi_id!r}: missing access edge"
              for poi_id in graph.poi_nodes if poi_id not in graph.access]
    roots = components(graph.path_nodes, ((u, v) for kind, u, v, _, _ in graph.static_edges
                                          if kind == EDGE_ADJACENCY))
    if len(set(roots.values())) > 1:
        faults.append("path network is not connected")
    return faults


class SceneGraph(ObjectLayer):
    """True world state: static infrastructure plus live objects.

    A graph has at most one ``belief``.  Its two object mutations,
    :meth:`_attach` and :meth:`remove_object`, add the node they change to
    the belief's ``unsynced`` set, and an id the belief still holds cannot
    be attached again, so each believed id names one object at one node.
    """

    def __init__(self, registry: ClassRegistry = DEFAULT_REGISTRY):
        self.registry = registry
        self.path_nodes: dict[str, PathNode] = {}
        self.poi_nodes: dict[str, PoiNode] = {}
        self.objects: dict[str, ObjectNode] = {}
        self.access: dict[str, str] = {}  # poi id -> its access edge's path node id
        self.static_edges: list[Edge] = []  # every edge, in the order added
        self.objects_at: dict[str, set[str]] = {}
        self.node_costs: dict[tuple[float, float], dict[int, float]] = {}
        self.occupancy: dict[str, list[int]] = {}  # class -> count per network index
        self.belief: ObservedGraph | None = None
        self.depot_id: str | None = None
        self._network: StaticNetwork | None = None  # created by freeze_static

    # -- static construction -------------------------------------------------

    def add_path_node(self, node: PathNode):
        self._check_mutable_static()
        self._check_fresh_id(node.id)
        self.path_nodes[node.id] = node

    def add_poi_node(self, node: PoiNode):
        self._check_mutable_static()
        self._check_fresh_id(node.id)
        self.poi_nodes[node.id] = node
        if node.is_depot:
            if self.depot_id is not None:
                raise DuplicateId(f"second depot {node.id!r} (have {self.depot_id!r})")
            self.depot_id = node.id

    def add_adjacency_edge(self, u: str, v: str, length: float, directed: bool = False):
        self._check_mutable_static()
        a, b = self.path_nodes.get(u), self.path_nodes.get(v)
        if a is None or b is None:
            raise UnknownId(f"adjacency edge {u!r}-{v!r} references unknown path node")
        if not 0 < length < math.inf:  # NaN fails too
            raise ValueError(f"edge {u!r}-{v!r} length: must be positive and finite, "
                             f"got {length!r}")
        # the nodes' own id strings, one per id; tuple.__new__ skips Edge.__new__
        edge = (EDGE_ADJACENCY, a.id, b.id, directed, length)
        self.static_edges.append(tuple.__new__(Edge, edge))

    def add_access_edge(self, poi_id: str, path_id: str, length: float):
        self._check_mutable_static()
        poi, node = self.poi_nodes.get(poi_id), self.path_nodes.get(path_id)
        if poi is None or node is None:
            raise UnknownId(f"access edge {poi_id!r}-{path_id!r} references unknown node")
        if poi_id in self.access:
            raise DuplicateId(f"poi {poi_id!r} already has an access edge")
        if not 0 < length < math.inf:
            raise ValueError(f"access edge {poi_id!r}-{path_id!r} length: must be positive "
                             f"and finite, got {length!r}")
        self.access[poi.id] = node.id
        edge = (EDGE_ACCESS, poi.id, node.id, False, length)
        self.static_edges.append(tuple.__new__(Edge, edge))

    def freeze_static(self):
        """Lock the static subgraph; ``ValueError`` names its first fault, by record, under
        the loader's rules: :func:`path_node_faults`, :func:`poi_faults`, :func:`scene_faults`."""
        if self._network is None:
            places, objects, checked = self.registry.places, self.registry.objects, set()
            fault = next(chain(
                (f"path node {node.id!r} {fault}" for node in self.path_nodes.values()
                 for fault in path_node_faults(node, places, objects, checked)),
                (f"PoI {node.id!r} {fault}" for node in self.poi_nodes.values()
                 for fault in poi_faults(node, places)),
                scene_faults(self)), None)
            if fault is not None:
                raise ValueError(fault)
            self._compile_static()

    def _compile_static(self):
        """Freeze without checking: for a caller that has reported every fault itself."""
        self._network = StaticNetwork(self.path_nodes, self.poi_nodes, self.static_edges)
        bare = self._network.bare = ObjectLayer()
        bare._share_static(self)
        bare.version = 0  # nothing merges into it, so a plan on it never ages

    def _check_mutable_static(self):
        if self._network is not None:
            raise ValueError("static subgraph is immutable after freeze")

    def _check_fresh_id(self, node_id: str):
        if node_id in self.path_nodes or node_id in self.poi_nodes or node_id in self.objects:
            raise DuplicateId(f"node id {node_id!r} already in use")
        if self.belief is not None and node_id in self.belief.objects:
            raise DuplicateId(f"object id {node_id!r} is still believed")

    def dynamic_copy(self) -> "SceneGraph":
        """Fresh object-free graph sharing this graph's static stores.

        Replications each mutate their own copy.
        """
        twin = SceneGraph.__new__(SceneGraph)
        twin._share_static(self)
        twin.occupancy = {}
        twin.belief = None
        return twin

    # -- queries --------------------------------------------------------------

    def occupied(self, object_class: str) -> list[int]:
        """Per network index: the number of attached ``object_class`` objects."""
        if object_class not in self.occupancy:
            self.occupancy[object_class] = [0] * len(self.path_nodes)
        return self.occupancy[object_class]

    def free_capacity(self, path_id: str, object_class: str) -> int:
        i = self.network.index.get(path_id)
        if i is None:
            raise UnknownId(f"{path_id!r} is not a path node")
        return self.network.slots(object_class)[i] - self.occupied(object_class)[i]

    def static_hash(self) -> str:
        """Stable digest of the static subgraph (nodes + edges, sorted)."""
        h = hashlib.sha256()
        for nid in sorted(self.path_nodes):
            node = self.path_nodes[nid]
            # canonicalize the capacity mapping: dict repr is insertion-ordered
            node = node._replace(capacity={k: node.capacity[k] for k in sorted(node.capacity)})
            h.update(repr(node).encode())
        for nid in sorted(self.poi_nodes):
            h.update(repr(self.poi_nodes[nid]).encode())
        for edge in sorted(self.static_edges, key=lambda e: (e.kind, e.u, e.v)):
            h.update(repr(edge).encode())
        return h.hexdigest()

    # -- dynamic mutation -----------------------------------------------------

    def attach_object(self, obj: ObjectNode):
        """Insert ``obj`` into the frozen graph, honoring per-class capacity."""
        cls = obj.semantic_class
        self._attach(obj, self.network.index.get(obj.attached_to),
                     self.network.slots(cls), self.occupied(cls))

    def _attach(self, obj: ObjectNode, i: int | None, slots: list, counts: list):
        """The one attach path: ``i`` indexes the target (None: not a path node)."""
        self._check_fresh_id(obj.id)
        if i is None:
            raise UnknownId(f"attachment target {obj.attached_to!r} is not a path node")
        if counts[i] >= slots[i]:
            raise CapacityExceeded(
                f"node {obj.attached_to!r} has no free {obj.semantic_class!r} slot"
            )
        self.objects[obj.id] = obj
        ids = self.objects_at.get(obj.attached_to)
        if ids is None:
            ids = self.objects_at[obj.attached_to] = set()
        ids.add(obj.id)
        self._forget(i, False)
        counts[i] += 1
        if self.belief is not None:
            self.belief.unsynced.add(obj.attached_to)

    def remove_object(self, object_id: str) -> ObjectNode:
        """Detach and return the object ``object_id``."""
        obj = self.objects.pop(object_id, None)
        if obj is None:
            raise UnknownId(f"object {object_id!r} not in graph")
        i = self._network.index[obj.attached_to]
        self.objects_at[obj.attached_to].discard(object_id)
        self._forget(i, True)
        self.occupancy[obj.semantic_class][i] -= 1
        if self.belief is not None:
            self.belief.unsynced.add(obj.attached_to)
        return obj

    # -- observation ----------------------------------------------------------

    def radius_subgraph(self, center: tuple[float, float], r: float) -> Observation:
        """The view of the nodes strictly within Euclidean distance r of ``center``.

        This is the full-scan reference for arbitrary centres;
        :meth:`StaticNetwork.visible` answers the same query for a path node
        from the network's memoized views.
        """
        if r < 0:
            raise ValueError("radius must be non-negative")
        return _scan(self.path_nodes, self.poi_nodes, center[0], center[1], r)


def build_scene(path_nodes, edges, pois,
                registry: ClassRegistry = DEFAULT_REGISTRY) -> SceneGraph:
    """Add the path nodes, adjacency ``(u, v, length)`` edges and ``(PoiNode, access
    node id, access length)`` triples, each in the order given; freeze the scene."""
    graph = SceneGraph(registry)
    for node in path_nodes:
        graph.add_path_node(node)
    for u, v, length in edges:
        graph.add_adjacency_edge(u, v, length)
    for poi, path_id, length in pois:
        graph.add_poi_node(poi)
        graph.add_access_edge(poi.id, path_id, length)
    graph.freeze_static()
    return graph


class ObservedGraph(ObjectLayer):
    """Belief graph: shared static subgraph plus independently tracked objects.

    A belief observes one ``truth`` and becomes its ``belief``.  Dynamic
    content changes only through :meth:`merge_observation`, which reads the
    objects from that truth; the ``version`` counter increments on every
    merge that changes it.  ``unsynced`` holds every node whose believed
    objects may differ from the truth's: the truth adds each node it
    mutates, and a merge removes the nodes it compares, so
    {n : belief != truth at n} is always a subset of it.
    """

    def __init__(self, truth: SceneGraph):
        if truth.belief is not None:
            raise ValueError("the graph already has a belief")
        self._share_static(truth)
        self.truth = truth
        self.version = 0
        self.unsynced = {nid for nid, ids in truth.objects_at.items() if ids}
        truth.belief = self

    def merge_observation(self, obs: Observation) -> list[tuple[str, int]]:
        """Replace believed object sets at every observed path node by the truth's.

        Replacement is wholesale: stale objects vanish, newly seen ones
        appear, nodes outside the observation are untouched.  The view names
        nodes only, so the objects come from the belief's own ``truth``, and
        only the observed unsynced nodes are compared.  Returns the nodes
        whose believed id set differed from the truth's, each with its count
        of newly believed objects; the version advances iff there are any.
        """
        path_nodes = obs.path_nodes
        if not self.path_nodes.keys() >= path_nodes:
            raise UnknownStaticNode(f"observation covers unknown node "
                                    f"{min(path_nodes - self.path_nodes.keys())!r}")
        compared = self.unsynced & path_nodes
        self.unsynced -= compared
        truth_objects, truth_at = self.truth.objects, self.truth.objects_at
        objects, objects_at = self.objects, self.objects_at
        changed = []
        for nid in compared:
            seen = truth_at.get(nid, EMPTY)
            believed = objects_at.get(nid, EMPTY)
            if seen != believed:
                changed.append((nid, len(seen - believed)))
                for oid in believed:
                    del objects[oid]
                for oid in seen:
                    objects[oid] = truth_objects[oid]
                objects_at[nid] = set(seen)
                self._forget(self._network.index[nid], not believed <= seen)
        if changed:
            self.version += 1
        return changed


def up_to_date(belief: ObservedGraph, truth: SceneGraph, node_id: str) -> bool:
    """True iff the believed object id set at ``node_id`` matches the truth."""
    if node_id not in truth.path_nodes:
        raise UnknownId(node_id)
    return belief.objects_at.get(node_id, EMPTY) == truth.objects_at.get(node_id, EMPTY)
