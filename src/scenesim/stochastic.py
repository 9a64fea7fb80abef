"""Seeded random streams, the arrival sampler and the lifetime balance.

Each process/agent/task source owns an independent stream derived from
(replication seed, stream identity), so event interleaving never perturbs
another component's draws.  Streams use numpy's PCG64, seeded as
``SeedSequence`` seeds it (NEP 19) for cross-platform reproducibility; the
seeding runs as one vectorized pass over all of a replication's streams.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import InvalidRate, ZeroRate

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

    @classmethod
    def constant(cls, per_hour: float) -> "RateProfile":
        return cls(tuple([per_hour] * 24))


def _stable_key(stream_id) -> int:
    digest = hashlib.sha256(repr(stream_id).encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _hash_consts(init: int, mult: int, n: int) -> np.ndarray:
    """SeedSequence's running hash constant: ``init`` and its next ``n`` values, as a column."""
    consts = [init]
    for _ in range(n):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    return np.array(consts, dtype=np.uint32).reshape(-1, 1)


# SeedSequence's hash constants (numpy/random/bit_generator.pyx): the pool
# hashes use 16 of the first sequence (4 fills, then 4 x 3 mixes) and the
# output hashes 8 of the second (4 uint64 words)
_POOL_CONSTS = _hash_consts(0x43B0D7E5, 0x931E8875, 16)
_STATE_CONSTS = _hash_consts(0x8B51F9DD, 0x58F38DED, 8)
_MIX_L, _MIX_R, _SHIFT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715), np.uint32(16)


def _hashmix(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """Row r of ``values`` hashed with constants ``consts[r]`` and ``consts[r + 1]``."""
    values = (values ^ consts[:-1]) * consts[1:]
    return values ^ (values >> _SHIFT)


def pcg64_seeds(seed: int, keys) -> np.ndarray:
    """Row i: ``SeedSequence([seed & (2**63 - 1), keys[i]]).generate_state(4, uint64)``.

    Every row is computed at once over uint32 arrays, one array row per pool
    word.  The masked seed and a key below 2**64 take 1 or 2 words each, so
    the entropy fits SeedSequence's 4-word pool, which hashes a slot past the
    entropy exactly as it hashes a zero word: a row's entropy is the seed's
    words, then the key's two words, zero-padded to 4.
    """
    seed &= 2**63 - 1
    keys = np.asarray(keys, dtype=np.uint64).reshape(-1)
    seed_words = (seed & 0xFFFFFFFF, seed >> 32) if seed >> 32 else (seed,)
    pool = np.zeros((4, len(keys)), dtype=np.uint32)
    pool[:len(seed_words)] = np.array(seed_words, dtype=np.uint32).reshape(-1, 1)
    pool[len(seed_words)] = keys & np.uint64(0xFFFFFFFF)
    pool[len(seed_words) + 1] = keys >> np.uint64(32)
    pool = _hashmix(pool, _POOL_CONSTS[:5])
    # each word mixes into the other three in turn; the three updates of one
    # source word read only that word, so they run as one step
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        k = 4 + 3 * src
        mixed = _MIX_L * pool[dst] - _MIX_R * _hashmix(pool[src], _POOL_CONSTS[k:k + 4])
        pool[dst] = mixed ^ (mixed >> _SHIFT)
    state = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _STATE_CONSTS)
    # word pairs read little-endian, as generate_state does
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64)


class _SeedWords:
    """The ISeedSequence a PCG64 reads its four precomputed seed words from."""

    __slots__ = ("words",)

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=None):
        return self.words


def random_streams(seed: int, stream_ids) -> list:
    """One :class:`RandomStream` per id, all seeded in one :func:`pcg64_seeds` pass."""
    stream_ids = list(stream_ids)
    seeds = pcg64_seeds(seed, [_stable_key(sid) for sid in stream_ids])
    # numpy.random is imported on first use, not when scenesim is imported
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence
    ISeedSequence.register(_SeedWords)
    streams = []
    for sid, words in zip(stream_ids, seeds):
        stream = RandomStream.__new__(RandomStream)
        stream._start(sid, Generator(PCG64(_SeedWords(words))))
        streams.append(stream)
    return streams


class RandomStream:
    """Deterministic stream keyed by (seed, stream identity).

    Variates are drawn from the generator in fixed-size batches and served
    from per-kind buffers: per-call numpy overhead dominates the event loop
    otherwise.  The sequence served by each method depends only on this
    stream's own call history, never on other streams.  A stream built on
    its own is a batch of one for :func:`random_streams`.
    """

    _BATCH = 16

    def __init__(self, seed: int, stream_id):
        (twin,) = random_streams(seed, [stream_id])
        self._start(stream_id, twin._rng)

    def _start(self, stream_id, rng):
        self.stream_id = stream_id
        self._rng = rng
        # each kind's batch, reversed: the next value is the last item
        self._uniforms = []
        self._exponentials = []

    def uniform(self) -> float:
        if not self._uniforms:
            self._uniforms = self._rng.random(self._BATCH)[::-1].tolist()
        return self._uniforms.pop()

    def exponential(self, mean: float) -> float:
        if not self._exponentials:
            self._exponentials = self._rng.standard_exponential(self._BATCH)[::-1].tolist()
        return self._exponentials.pop() * mean


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
    mean = target_population / total_arrival_rate
    if not mean > 0:  # a non-positive target, or a quotient that underflowed
        raise InvalidRate(f"mean lifetime {target_population} / {total_arrival_rate}"
                          f" must be positive, got {mean}")
    return mean

