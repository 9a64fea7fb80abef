"""Exception hierarchy shared across the simulator."""


class ScenesimError(Exception):
    """Base class for all simulator errors."""


class CapacityExceeded(ScenesimError):
    """Attaching an object would exceed per-class node capacity."""


class DuplicateId(ScenesimError):
    """A node id was reused."""


class UnknownId(ScenesimError):
    """Referenced node or object does not exist."""


class UnknownStaticNode(ScenesimError):
    """An observation references a static node the belief does not know."""


class ZeroRate(ScenesimError):
    """All rate bins are zero; the process can never fire."""


class InvalidRate(ScenesimError):
    """Non-positive rate passed to a steady-state balance computation."""


class Unreachable(ScenesimError):
    """No path exists between the requested endpoints."""


class TimeTravel(ScenesimError):
    """An event was scheduled before the current simulation clock."""


class EmptyMeasurement(ScenesimError):
    """Metric requested over a zero-length measurement window."""


class ParseError(ScenesimError):
    """Scenario/config file could not be parsed."""


class ValidationError(ScenesimError):
    """Scenario/config violates schema or graph invariants.

    Carries the full list of violations, not just the first.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class EmptyNetwork(ScenesimError):
    """OSM import produced no usable path network."""


class NoDepotCandidate(ScenesimError):
    """OSM import found no building to serve as the depot."""


class MalformedXml(ScenesimError):
    """OSM input is not well-formed XML."""
