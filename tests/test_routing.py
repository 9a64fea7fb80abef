"""Nearest-match search against a plain Dijkstra kept here as the reference."""

import heapq
import math

from hypothesis import given, settings, strategies as st

from scenesim.routing import nearest_matching_node


def reference_nearest(adjacency, start, predicate, bound):
    """Dijkstra from ``start`` that tests every node it settles, start included."""
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
        if predicate(node):
            return node
        for nbr, length in adjacency[node]:
            nd = d + length
            if nd <= bound and nd < dist.get(nbr, math.inf):
                dist[nbr] = nd
                heapq.heappush(heap, (nd, nbr))
    return None


def recorded(full):
    """Capacity predicate over the set of full nodes, and the nodes it tested."""
    tested = []

    def predicate(node):
        tested.append(node)
        return node not in full

    return predicate, tested


@st.composite
def search_cases(draw):
    cols, rows = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    ids = [f"n{k:02d}" for k in range(cols * rows)]
    # equal lengths make distance ties, broken on the node id
    lengths = st.sampled_from([5.0, 10.0, 10.0, 20.0, 0.1 + 0.2])
    adjacency = {nid: [] for nid in ids}
    for r in range(rows):
        for c in range(cols):
            u = ids[r * cols + c]
            for dc, dr in ((1, 0), (0, 1)):
                if c + dc < cols and r + dr < rows:
                    v = ids[(r + dr) * cols + c + dc]
                    length = draw(lengths)
                    adjacency[u].append((v, length))
                    if draw(st.integers(0, 4)):  # one edge in five is one-way
                        adjacency[v].append((u, length))
    full = draw(st.sets(st.sampled_from(ids)))
    bound = draw(st.one_of(
        st.sampled_from([-1.0, -0.0, 0.0, 5.0, 10.0, 30.0, math.inf]),
        st.floats(min_value=-10.0, max_value=200.0)))
    return adjacency, draw(st.sampled_from(ids)), full, bound


@settings(max_examples=400, deadline=None)
@given(case=search_cases())
def test_nearest_matches_reference_dijkstra(case):
    adjacency, start, full, bound = case
    predicate, tested = recorded(full)
    ref_predicate, ref_tested = recorded(full)
    found = nearest_matching_node(adjacency, start, predicate, bound)
    assert found == reference_nearest(adjacency, start, ref_predicate, bound)
    assert tested == ref_tested


class TestNearest:
    def test_free_start_is_the_only_node_tested(self):
        adjacency = {"a": [("b", 1.0)], "b": [("a", 1.0)]}
        predicate, tested = recorded(set())
        assert nearest_matching_node(adjacency, "a", predicate, 10.0) == "a"
        assert tested == ["a"]

    def test_full_start_is_tested_once(self):
        # a short cycle back to the start must not test it again
        adjacency = {"a": [("b", 1.0)], "b": [("a", 1.0), ("c", 5.0)], "c": []}
        predicate, tested = recorded({"a", "b"})
        assert nearest_matching_node(adjacency, "a", predicate, 10.0) == "c"
        assert tested == ["a", "b", "c"]

    def test_negative_bound_tests_nothing(self):
        predicate, tested = recorded(set())
        assert nearest_matching_node({"a": []}, "a", predicate, -1.0) is None
        assert tested == []

    def test_zero_bound_tests_only_the_start(self):
        adjacency = {"a": [("b", 1.0)], "b": [("a", 1.0)]}
        predicate, tested = recorded({"a"})
        assert nearest_matching_node(adjacency, "a", predicate, 0.0) is None
        assert tested == ["a"]
