"""Seeded random streams and the arrival/lifetime sampling primitives.

Each process/agent/task source owns an independent stream derived from
(replication seed, stream identity), so event interleaving never perturbs
another component's draws.  Streams use numpy's PCG64, seeded through
``SeedSequence`` for cross-platform reproducibility.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import InvalidMean, InvalidProbability, InvalidRate, ZeroRate

SECONDS_PER_HOUR = 3600.0
SECONDS_PER_DAY = 86400.0


def hour_of_day(t: float) -> int:
    """Daily-periodic hour bin (0-23) of simulation time ``t`` in seconds."""
    return int((t % SECONDS_PER_DAY) // SECONDS_PER_HOUR)


@dataclass(frozen=True)
class RateProfile:
    """Piecewise-constant daily rate: 24 hourly bins, arrivals per hour.

    The per-second rates and their peak are computed once, at construction:
    ``per_second[h]`` is ``hourly_rates[h] / 3600`` and
    ``max_rate_per_second`` is ``max(hourly_rates) / 3600``.
    """

    hourly_rates: tuple

    def __post_init__(self):
        rates = tuple(float(r) for r in self.hourly_rates)
        if len(rates) != 24:
            raise ValueError(f"expected 24 hourly rates, got {len(rates)}")
        if any(r < 0 or not np.isfinite(r) for r in rates):
            raise ValueError("rates must be finite and non-negative")
        object.__setattr__(self, "hourly_rates", rates)
        object.__setattr__(self, "per_second",
                           tuple(r / SECONDS_PER_HOUR for r in rates))
        object.__setattr__(self, "max_rate_per_second", max(rates) / SECONDS_PER_HOUR)

    @property
    def mean_rate_per_second(self) -> float:
        return sum(self.hourly_rates) / 24.0 / SECONDS_PER_HOUR

    def rate_per_second(self, t: float) -> float:
        """Rate in effect at simulation time t (seconds), daily periodic."""
        return self.per_second[hour_of_day(t)]

    @classmethod
    def constant(cls, per_hour: float) -> "RateProfile":
        return cls(tuple([per_hour] * 24))


def _stable_key(stream_id) -> int:
    digest = hashlib.sha256(repr(stream_id).encode()).digest()
    return int.from_bytes(digest[:8], "big")


class RandomStream:
    """Deterministic stream keyed by (seed, stream identity).

    Variates are drawn from the generator in fixed-size batches and served
    from per-kind buffers: per-call numpy overhead dominates the event loop
    otherwise.  The sequence served by each method depends only on this
    stream's own call history, never on other streams.
    """

    _BATCH = 16

    def __init__(self, seed: int, stream_id):
        self.stream_id = stream_id
        self._rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([seed & (2**63 - 1), _stable_key(stream_id)]))
        )
        self._uniforms = ()
        self._u_next = 0
        self._exponentials = ()
        self._e_next = 0

    def uniform(self) -> float:
        if self._u_next >= len(self._uniforms):
            self._uniforms = self._rng.random(self._BATCH).tolist()
            self._u_next = 0
        value = self._uniforms[self._u_next]
        self._u_next += 1
        return value

    def exponential(self, mean: float) -> float:
        if self._e_next >= len(self._exponentials):
            self._exponentials = self._rng.standard_exponential(self._BATCH).tolist()
            self._e_next = 0
        value = self._exponentials[self._e_next]
        self._e_next += 1
        return value * mean


def sample_exponential(mean: float, stream: RandomStream) -> float:
    """Strictly positive draw from Exp(mean)."""
    if mean <= 0:
        raise InvalidMean(f"mean must be positive, got {mean}")
    while True:
        x = stream.exponential(mean)
        if x > 0.0:
            return x


def next_nhpp_interarrival(profile: RateProfile, t_now: float, stream: RandomStream) -> float:
    """Next inter-arrival of the non-homogeneous Poisson process at ``t_now``.

    Thinning: propose candidates from a homogeneous process at the profile's
    peak rate and accept each with probability rate(t)/peak.  The profile is
    daily-periodic, so the peak is a true global bound and no horizon
    truncation is needed.
    """
    lam_max = profile.max_rate_per_second
    if lam_max <= 0:
        raise ZeroRate("all hourly rates are zero")
    mean, per_second = 1.0 / lam_max, profile.per_second
    t = t_now
    while True:
        t += stream.exponential(mean)
        if stream.uniform() * lam_max <= per_second[hour_of_day(t)]:
            dt = t - t_now
            if dt > 0.0:
                return dt


def balanced_mean_lifetime(total_arrival_rate: float, target_population: float) -> float:
    """Mean lifetime that holds the expected live population at the target.

    Little's law closure for the open system: W = L / lambda, with lambda the
    class's aggregate arrival rate per second summed over all processes.
    """
    if total_arrival_rate <= 0:
        raise InvalidRate(f"aggregate rate must be positive, got {total_arrival_rate}")
    if target_population <= 0:
        raise InvalidRate(f"target population must be positive, got {target_population}")
    return target_population / total_arrival_rate


def bernoulli(p: float, stream: RandomStream) -> bool:
    if not 0.0 <= p <= 1.0:
        raise InvalidProbability(f"p must be in [0, 1], got {p}")
    return stream.uniform() < p
