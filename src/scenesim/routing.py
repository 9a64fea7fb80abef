"""Path and connectivity primitives on the path network.

Two users: the drain step (nearest node with free capacity, plain distance)
and the agent planner (A* on travel time with believed obstacle penalties).
The planner's answer is defined by cost-to-goal labels alone, so it does not
depend on the order in which the search visits nodes.
"""

from __future__ import annotations

import heapq
import math

from .errors import Unreachable


def components(nodes, pairs) -> dict:
    """Node -> the root of its component, each pair joining its two ends (union by size)."""
    parent, size = {n: n for n in nodes}, dict.fromkeys(nodes, 1)
    for u, v in pairs:
        while parent[u] != u:  # path halving
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u != v:
            if size[u] < size[v]:
                u, v = v, u
            parent[v], size[u] = u, size[u] + size[v]
    for n in parent:  # by size, no tree is deeper than log2 of its node count
        while parent[parent[n]] != parent[n]:
            parent[n] = parent[parent[n]]
    return parent


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
        if node != start and predicate(node):
            return node
        for nbr, length in adjacency[node]:
            nd = d + length
            if nd <= bound and nd < dist.get(nbr, math.inf):
                dist[nbr] = nd
                heapq.heappush(heap, (nd, nbr))
    return None


def least_cost_per_metre(edges, positions, dwell) -> float:
    """kappa: a lower bound on any path's cost per metre of straight line, times speed.

    ``edges`` yields ``(u, s, length)`` for every edge u -> s; ``positions``
    and ``dwell`` are indexed by node, and ``dwell[s] / speed`` is at most
    any cost of node s.  Entering s by that edge then costs at least
    ``(length + dwell[s]) / speed``, so by the triangle inequality a path
    costs at least kappa * its straight-line displacement / speed, where
    kappa is the least ``(length + dwell[s]) / |u - s|`` over the edges whose
    ends lie apart, shaved by a relative 1e-9 against float rounding.  It is
    0 when no edge's ends lie apart or the least ratio overflows, which
    leaves A* a plain Dijkstra.
    """
    ratios = [(length + dwell[s]) / d for u, s, length in edges
              if (d := math.dist(positions[u], positions[s])) > 0.0]
    kappa = min(ratios, default=0.0) * (1 - 1e-9)
    return kappa if kappa < math.inf else 0.0


def astar(in_edges, positions, start: int, goal: int, speed: float,
          node_cost) -> tuple[list[int], float]:
    """Minimum travel-time path from ``start`` to ``goal``, rooted at the goal.

    ``in_edges[s]`` lists the edges ``(u, length)`` into ``s``.  The labels
    are the float fixed point c(goal) = 0 and c(u) = min over edges u -> s of
    ``length / speed + node_cost(s) + c(s)``, evaluated left to right; a
    node of infinite cost is never entered.  The path walks from the start,
    taking at each node the lowest successor that achieves its label, and
    costs c(start).  So every suffix of a path is the path from its first
    node, whatever order the search visits nodes in.

    The search is A* from the goal over in-edges toward the start, with the
    straight-line distance between ``positions`` of a node and of the start,
    over ``speed``, as heuristic.  Positions are scaled by the graph's
    :func:`least_cost_per_metre` kappa, which makes the heuristic a lower
    bound on the cost from the start whatever the edge lengths (unscaled
    positions are the case kappa = 1: edges at least as long as the straight
    line).  The shave in kappa puts every successor that could tie for the
    label of a node on the path strictly below the start's key, so the start
    still pops after them.  A node reached again with a lower label is
    expanded again, so float rounding cannot leave a wrong label behind.  A
    node's cost is read when the search expands it, and the start's never.
    Nodes are the indices 0..n-1 of the lists ``in_edges`` and ``positions``.
    """
    if start == goal:
        return [start], 0.0
    sx, sy = positions[start]
    hypot, inf = math.hypot, math.inf
    push, pop = heapq.heappush, heapq.heappop
    x, y = positions[goal]
    n = len(in_edges)
    label, succ = [inf] * n, [n] * n
    label[goal] = 0.0
    # among equal f the start (h = 0, so the largest label) pops last, after
    # every successor that could tie for the label of a node on its path
    heap = [(hypot(x - sx, y - sy) / speed, 0.0, goal)]
    while heap:
        _, c, node = pop(heap)
        if node == start:
            path = [node]
            while node != goal:
                node = succ[node]
                path.append(node)
            return path, c
        if c != label[node]:
            continue  # superseded by a lower label
        step = node_cost(node)
        if step == inf:
            continue
        for u, length in in_edges[node]:
            cu = length / speed + step + c
            old = label[u]
            if cu < old:
                label[u] = cu
                succ[u] = node
                x, y = positions[u]
                push(heap, (cu + hypot(x - sx, y - sy) / speed, cu, u))
            elif cu == old and node < succ[u]:
                succ[u] = node
    raise Unreachable(f"no path from {start!r} to {goal!r}")
