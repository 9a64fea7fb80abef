"""Programmatic scenario builders for experiments and tests."""

from __future__ import annotations

import itertools

from .graph import (ClassRegistry, DEFAULT_CAPACITY, DEFAULT_REGISTRY, PathNode, PoiNode,
                    SceneGraph, build_scene)


def grid_scenario(
    cols: int,
    rows: int,
    spacing: float = 20.0,
    capacity: dict | None = None,
    segment_length: float | None = None,
    sidewalk_width: float = 2.0,
    poi_every: int = 4,
    poi_classes: tuple = ("housing", "retail", "leisure"),
    registry: ClassRegistry = DEFAULT_REGISTRY,
) -> SceneGraph:
    """Rectangular sidewalk grid with PoIs sprinkled next to every k-th node.

    The depot PoI sits next to the node closest to the grid center.  Node ids
    are zero-padded so lexicographic order matches row-major grid order.
    """
    capacity = dict(capacity if capacity is not None else DEFAULT_CAPACITY)  # one per scene
    segment_length = segment_length if segment_length is not None else spacing / 2
    width = len(str(rows * cols - 1))
    grid = list(itertools.product(range(rows), range(cols)))  # row-major (r, c)
    depot = (rows // 2, cols // 2)

    def nid(r, c):
        return f"g{r * cols + c:0{width}d}"

    sites = ((r, c) for r, c in grid if (r * cols + c) % poi_every == 0 and (r, c) != depot)
    pois = itertools.chain([("depot", *depot, "work")], (
        (f"poi{serial:0{width}d}", r, c, cls)
        for serial, ((r, c), cls) in enumerate(zip(sites, itertools.cycle(poi_classes)))))
    return build_scene(
        (PathNode(id=nid(r, c), x=c * spacing, y=r * spacing,
                  semantic_class="sidewalk", capacity=capacity,
                  segment_length=segment_length, sidewalk_width=sidewalk_width)
         for r, c in grid),
        ((nid(r, c), nid(r2, c2), spacing) for r, c in grid
         for r2, c2 in ((r, c + 1), (r + 1, c)) if r2 < rows and c2 < cols),
        ((PoiNode(id=poi_id, x=c * spacing + 2.0, y=r * spacing + 2.0, semantic_class=cls,
                  is_depot=(poi_id == "depot")), nid(r, c), 3.0) for poi_id, r, c, cls in pois),
        registry,
    )


def line_scenario(
    n: int,
    spacing: float = 10.0,
    capacity: dict | None = None,
    segment_length: float = 10.0,
    sidewalk_width: float = 2.0,
    pois: tuple = (),
    depot_at: int = 0,
    registry: ClassRegistry = DEFAULT_REGISTRY,
) -> SceneGraph:
    """Straight path of n nodes; ``pois`` is a tuple of (index, class) pairs.

    The depot attaches next to node ``depot_at``.
    """
    capacity = dict(capacity if capacity is not None else DEFAULT_CAPACITY)  # one per scene
    width = len(str(max(n - 1, 1)))

    def nid(i):
        return f"v{i:0{width}d}"

    sites = itertools.chain([("depot", depot_at, "work")],
                            ((f"poi{serial}", i, cls) for serial, (i, cls) in enumerate(pois)))
    return build_scene(
        (PathNode(id=nid(i), x=i * spacing, y=0.0, semantic_class="sidewalk",
                  capacity=capacity, segment_length=segment_length,
                  sidewalk_width=sidewalk_width)
         for i in range(n)),
        ((nid(i), nid(i + 1), spacing) for i in range(n - 1)),
        ((PoiNode(id=poi_id, x=i * spacing, y=3.0, semantic_class=cls,
                  is_depot=(poi_id == "depot")), nid(i), 3.0) for poi_id, i, cls in sites),
        registry,
    )
