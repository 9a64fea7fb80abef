"""Object lifecycle processes: spawning, capacity-based draining, expiry.

One process instance exists per (matching PoI, object class) pair.  Each
instance owns an independent random stream, from which the kernel samples its
spawn inter-arrivals; it drains new objects to the nearest path node with
free capacity, and draws exponential lifetimes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import ValidationError
from .graph import ObjectNode, SceneGraph
from .routing import nearest_matching_node
from .stochastic import RandomStream, RateProfile, balanced_mean_lifetime

DEFAULT_SEARCH_BOUND = 300.0

# drain statuses; a discard status doubles as its ledger counter's name
ATTACHED = "attached"
DISCARDED_PRIVATE = "discarded_private"
DISCARDED_CAPACITY = "discarded_capacity"


def positive_faults(key: str, value, finite: bool = False) -> list[str]:
    """``key``'s fault unless ``value`` is positive, and finite if ``finite``; NaN is neither."""
    if not value > 0:
        return [f"{key}: must be positive"]
    return [f"{key}: must be finite"] if finite and value == math.inf else []


def footprint_faults(footprint_area) -> list[str]:
    """An object footprint is positive and finite; the loader checks it before the means parse."""
    return positive_faults("footprint_area", footprint_area, finite=True)


def spec_violations(lifetime_mean, target_population, sidewalk_probability) -> list[str]:
    """A process's faulty durations and probability, each as ``"<field>: <problem>"``.

    An infinite mean or population is allowed; NaN fails every comparison.
    """
    faults = [f"{key}: must be positive"
              for key, mean in (("lifetime_mean", lifetime_mean),
                                ("target_population", target_population))
              if mean is not None and not mean > 0]
    if not 0.0 <= sidewalk_probability <= 1.0:
        faults.append("sidewalk_probability: outside [0, 1]")
    if (lifetime_mean is None) == (target_population is None):
        faults.append("lifetime_mean/target_population: exactly one must be set")
    return faults


@dataclass
class ProcessSpec:
    """Declares one object-spawning rule for a set of place classes.

    Its rule functions are checked here, so a drain draws without checking.
    """

    name: str
    source_classes: frozenset
    object_classes: frozenset
    rate_profile: RateProfile
    footprint_area: float
    sidewalk_probability: float = 1.0
    lifetime_mean: float | None = None
    target_population: float | None = None

    def __post_init__(self):
        if faults := footprint_faults(self.footprint_area) + spec_violations(
                self.lifetime_mean, self.target_population, self.sidewalk_probability):
            raise ValidationError([f"process {self.name!r}: {fault}" for fault in faults])


class DrainOutcome(NamedTuple):
    status: str
    obj: ObjectNode | None = None


_PRIVATE = DrainOutcome(DISCARDED_PRIVATE)
_FULL = DrainOutcome(DISCARDED_CAPACITY)


@dataclass
class ProcessInstance:
    """A spec bound to one PoI and one object class, with its own stream."""

    spec: ProcessSpec
    poi_id: str
    object_class: str
    stream: RandomStream
    lifetime_mean: float
    _bound = None  # (graph, *the drain's inputs from it); not a field

    def drain(self, t: float, graph: SceneGraph, object_id: str,
              search_bound: float = DEFAULT_SEARCH_BOUND) -> DrainOutcome:
        """Attach a fresh object at the nearest path node with a free slot.

        With probability 1 - sidewalk_probability the object stays on private
        ground and never enters the graph.  The capacity search runs Dijkstra
        over network indices (in id order) from the PoI's access node, testing
        the per-class slot arrays, and gives up beyond ``search_bound`` meters
        of network distance.  Once a node is found, the object's lifetime is
        drawn and the object is attached with it; the stream thus serves the
        sidewalk uniform, then the lifetime, then the caller's next inter-arrival.
        The search's inputs are bound to ``graph`` on the first drain into it.
        """
        stream = self.stream
        if not stream.uniform() < self.spec.sidewalk_probability:
            return _PRIVATE
        bound = self._bound
        if bound is None or bound[0] is not graph:
            network, cls = graph.network, self.object_class
            slots, counts = network.slots(cls), graph.occupied(cls)
            bound = self._bound = (graph, network.neighbours, network.ids, slots, counts,
                                   network.index[graph.access[self.poi_id]],
                                   lambda i: counts[i] < slots[i])
        _, neighbours, ids, slots, counts, start, has_room = bound
        target = nearest_matching_node(neighbours, start, has_room, search_bound)
        if target is None:
            return _FULL
        lifetime = stream.exponential(self.lifetime_mean)
        while not lifetime > 0.0:  # a lifetime is strictly positive
            lifetime = stream.exponential(self.lifetime_mean)
        # tuple.__new__ skips the named tuples' Python-level __new__
        obj = tuple.__new__(ObjectNode, (object_id, self.object_class, t, lifetime,
                                         self.spec.footprint_area, ids[target]))
        graph._attach(obj, target, slots, counts)
        return tuple.__new__(DrainOutcome, (ATTACHED, obj))


def process_keys(graph: SceneGraph, specs: list[ProcessSpec]) -> list[tuple]:
    """(spec, PoI id, object class) per (PoI with class in C_q) x (object class in C_d)."""
    return [(spec, poi_id, cls) for spec in specs
            for poi_id in sorted(pid for pid, poi in graph.poi_nodes.items()
                                 if poi.semantic_class in spec.source_classes)
            for cls in sorted(spec.object_classes)]


def instantiate_processes(keys: list[tuple], streams) -> list[ProcessInstance]:
    """One instance per :func:`process_keys` key, with its caller-seeded stream.

    Lifetime means declared via target_population are resolved here with the
    Little's-law balance: the aggregate effective arrival rate of a class is
    summed over every instance spawning it, weighted by sidewalk probability
    (privately discarded objects never enter the graph).
    """
    # aggregate effective arrival rate per object class, in 1/s
    class_rate: dict[str, float] = {}
    for spec, _, cls in keys:
        rate = spec.rate_profile.mean_rate_per_second * spec.sidewalk_probability
        class_rate[cls] = class_rate.get(cls, 0.0) + rate
    return [ProcessInstance(spec, poi_id, cls, stream, spec.lifetime_mean
                            if spec.lifetime_mean is not None
                            else balanced_mean_lifetime(class_rate[cls], spec.target_population))
            for (spec, poi_id, cls), stream in zip(keys, streams)]
