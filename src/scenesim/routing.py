"""Shortest-path primitives on the path network.

Two users: the drain step (nearest node with free capacity, plain distance)
and the agent planner (A* on travel time with believed obstacle penalties).
Ties at equal cost break on lowest node id so results are platform-stable.
"""

from __future__ import annotations

import heapq
import math

from .errors import Unreachable


def nearest_matching_node(adjacency, start, predicate, bound: float):
    """Dijkstra from ``start`` over edge lengths; first match wins.

    Returns the node with the smallest network distance <= ``bound`` that
    satisfies ``predicate`` (lowest node on distance ties), or None when the
    search exhausts the bound.  ``start`` is tested first, before any search
    state exists; when it does not match, the search continues from its
    neighbours and never tests it again.  Nodes are tested in the order of a
    plain Dijkstra.  Nodes are any ordered keys of ``adjacency``: ids or indices.
    """
    if bound < 0.0:  # the start itself lies beyond the bound
        return None
    if predicate(start):
        return start
    dist = {start: 0.0}
    heap = [(0.0, start)]
    visited = set()
    while heap:
        d, node = heapq.heappop(heap)
        if node in visited:
            continue
        visited.add(node)
        if d > bound:
            return None
        if node != start and predicate(node):
            return node
        for nbr, length in adjacency[node]:
            nd = d + length
            if nd <= bound and nd < dist.get(nbr, math.inf):
                dist[nbr] = nd
                heapq.heappush(heap, (nd, nbr))
    return None


def astar(adjacency, positions, start, goal, speed: float,
          node_cost) -> tuple[list, float]:
    """Minimum travel-time path from ``start`` to ``goal``.

    Edge cost is length/speed plus ``node_cost(target)``; targets with
    infinite node cost are excluded.  The heuristic (straight-line distance
    over default speed) is admissible because node costs are non-negative and
    edge lengths are at least the straight-line displacement.  Nodes may be
    any ordered hashable keys of ``adjacency``; ties at equal f and g break
    on the lowest node.
    """
    if start == goal:
        return [start], 0.0
    gx, gy = positions(goal)
    hypot, inf = math.hypot, math.inf
    push, pop = heapq.heappush, heapq.heappop
    x, y = positions(start)
    g_score = {start: 0.0}
    parent = {}
    heap = [(hypot(x - gx, y - gy) / speed, 0.0, start)]
    closed = set()
    while heap:
        _, g, node = pop(heap)
        if node == goal:
            path = [node]
            while node in parent:
                node = parent[node]
                path.append(node)
            path.reverse()
            return path, g
        if node in closed:
            continue
        closed.add(node)
        for nbr, length in adjacency[node]:
            if nbr in closed:
                continue
            step = node_cost(nbr)
            if step == inf:
                continue
            ng = g + length / speed + step
            if ng < g_score.get(nbr, inf):
                g_score[nbr] = ng
                parent[nbr] = node
                x, y = positions(nbr)
                push(heap, (ng + hypot(x - gx, y - gy) / speed, ng, nbr))
    raise Unreachable(f"no path from {start!r} to {goal!r}")
