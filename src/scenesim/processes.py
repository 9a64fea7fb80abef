"""Object lifecycle processes: spawning, capacity-based draining, expiry.

One process instance exists per (matching PoI, object class) pair.  Each
instance owns an independent random stream, samples spawn inter-arrivals from
its rate profile, drains new objects to the nearest path node with free
capacity, and draws exponential lifetimes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from . import stochastic
from .errors import ValidationError
from .graph import ObjectNode, SceneGraph
from .routing import nearest_matching_node
from .stochastic import RandomStream, RateProfile, balanced_mean_lifetime

DEFAULT_SEARCH_BOUND = 300.0

# drain statuses; a discard status doubles as its ledger counter's name
ATTACHED = "attached"
DISCARDED_PRIVATE = "discarded_private"
DISCARDED_CAPACITY = "discarded_capacity"


@dataclass
class ProcessSpec:
    """Declares one object-spawning rule for a set of place classes."""

    name: str
    source_classes: frozenset
    object_classes: frozenset
    rate_profile: RateProfile
    footprint_area: float
    sidewalk_probability: float = 1.0
    lifetime_mean: float | None = None
    target_population: float | None = None

    def __post_init__(self):
        if (self.lifetime_mean is None) == (self.target_population is None):
            raise ValidationError(
                [f"process {self.name!r}: exactly one of lifetime_mean/"
                 f"target_population must be set"]
            )


class DrainOutcome(NamedTuple):
    status: str
    obj: ObjectNode | None = None


@dataclass
class ProcessInstance:
    """A spec bound to one PoI and one object class, with its own stream."""

    spec: ProcessSpec
    poi_id: str
    object_class: str
    stream: RandomStream
    lifetime_mean: float = 0.0

    def source(self, t: float) -> float:
        """Seconds until this instance's next spawn event."""
        return stochastic.next_nhpp_interarrival(self.spec.rate_profile, t, self.stream)

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
        """
        if not stochastic.bernoulli(self.spec.sidewalk_probability, self.stream):
            return DrainOutcome(DISCARDED_PRIVATE)
        network, cls = graph.network, self.object_class
        slots, counts = network.slots(cls), graph.occupied(cls)
        start = network.index[graph.access[self.poi_id][0]]
        target = nearest_matching_node(network.neighbours, start,
                                       lambda i: counts[i] < slots[i], search_bound)
        if target is None:
            return DrainOutcome(DISCARDED_CAPACITY)
        obj = ObjectNode(object_id, cls, t,
                         stochastic.sample_exponential(self.lifetime_mean, self.stream),
                         self.spec.footprint_area, network.ids[target])
        graph._attach(obj, target, slots, counts)
        return DrainOutcome(ATTACHED, obj)


def instantiate_processes(graph: SceneGraph, specs: list[ProcessSpec],
                          seed: int) -> list[ProcessInstance]:
    """One instance per (PoI with class in C_q) x (object class in C_d).

    Lifetime means declared via target_population are resolved here with the
    Little's-law balance: the aggregate effective arrival rate of a class is
    summed over every instance spawning it, weighted by sidewalk probability
    (privately discarded objects never enter the graph).
    """
    instances: list[ProcessInstance] = []
    for spec in specs:
        pois = sorted(
            pid for pid, poi in graph.poi_nodes.items()
            if poi.semantic_class in spec.source_classes
        )
        for poi_id in pois:
            for cls in sorted(spec.object_classes):
                instances.append(ProcessInstance(
                    spec=spec,
                    poi_id=poi_id,
                    object_class=cls,
                    stream=RandomStream(seed, ("process", spec.name, poi_id, cls)),
                ))

    # aggregate effective arrival rate per object class, in 1/s
    class_rate: dict[str, float] = {}
    for inst in instances:
        rate = inst.spec.rate_profile.mean_rate_per_second * inst.spec.sidewalk_probability
        class_rate[inst.object_class] = class_rate.get(inst.object_class, 0.0) + rate

    for inst in instances:
        if inst.spec.lifetime_mean is not None:
            inst.lifetime_mean = inst.spec.lifetime_mean
        else:
            inst.lifetime_mean = balanced_mean_lifetime(
                class_rate[inst.object_class], inst.spec.target_population
            )
    return instances
