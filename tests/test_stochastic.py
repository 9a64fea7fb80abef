"""Sampling primitives: thinning correctness, lifetimes, streams, balance."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

import scenesim
from scenesim.errors import InvalidRate, ZeroRate
from scenesim.stochastic import (
    RandomStream,
    RateProfile,
    SECONDS_PER_DAY,
    SECONDS_PER_HOUR,
    balanced_mean_lifetime,
    _stable_key,
    hour_of_day,
    next_nhpp_interarrival,
    pcg64_seeds,
    random_streams,
)


def arrivals(profile, stream, horizon, t0=0.0):
    t = t0
    out = []
    while True:
        t += next_nhpp_interarrival(profile, t, stream)
        if t > horizon:
            return out
        out.append(t)


class TestRateProfile:
    def test_needs_24_bins(self):
        with pytest.raises(ValueError):
            RateProfile((1.0,) * 23)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            RateProfile((-1.0,) + (1.0,) * 23)

    def test_rate_lookup_is_daily_periodic(self):
        profile = RateProfile(tuple(range(24)))
        assert profile.per_second[hour_of_day(5.5 * 3600)] == 5 / 3600
        assert profile.per_second[hour_of_day(5.5 * 3600 + SECONDS_PER_DAY)] == 5 / 3600


finite_rates = st.one_of(
    st.floats(min_value=0.0, max_value=1e300, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, 5e-324, 1.0 / 3.0, 3600.0, 7.2e3]))


@settings(max_examples=300, deadline=None)
@given(rates=st.lists(finite_rates, min_size=24, max_size=24),
       times=st.lists(st.floats(min_value=0.0, max_value=1e9), max_size=10))
def test_precomputed_rates_are_bit_equal(rates, times):
    profile = RateProfile(tuple(rates))
    for t in times + [0.0, 3599.999, 3600.0, SECONDS_PER_DAY - 1e-9, SECONDS_PER_DAY]:
        hour = int((t % SECONDS_PER_DAY) // SECONDS_PER_HOUR)
        assert profile.per_second[hour_of_day(t)].hex() == (rates[hour] / 3600).hex()
    assert profile.max_rate_per_second.hex() == (max(profile.hourly_rates) / 3600).hex()


def reference_interarrival(profile, t_now, stream):
    """Thinning with every rate divided out on each candidate."""
    lam_max = max(profile.hourly_rates) / SECONDS_PER_HOUR
    t = t_now
    while True:
        t += stream.exponential(1.0 / lam_max)
        hour = int((t % SECONDS_PER_DAY) // SECONDS_PER_HOUR)
        if stream.uniform() * lam_max <= profile.hourly_rates[hour] / SECONDS_PER_HOUR:
            dt = t - t_now
            if dt > 0.0:
                return dt


@settings(max_examples=100, deadline=None)
@given(rates=st.lists(st.floats(min_value=0.0, max_value=50.0), min_size=24,
                      max_size=24).filter(lambda r: max(r) >= 0.01),
       t0=st.floats(min_value=0.0, max_value=1e7), seed=st.integers(0, 2**32))
def test_interarrivals_match_reference_thinning(rates, t0, seed):
    profile = RateProfile(tuple(rates))
    ours, ref = RandomStream(seed, "nhpp"), RandomStream(seed, "nhpp")
    t_ours = t_ref = t0
    for _ in range(20):
        t_ours += next_nhpp_interarrival(profile, t_ours, ours)
        t_ref += reference_interarrival(profile, t_ref, ref)
        assert t_ours == t_ref


class CountingScript:
    """Serves scripted variates and counts them; 0.0 and 1.0 s once spent."""

    def __init__(self, exponentials, uniforms):
        self._exponentials, self._uniforms = iter(exponentials), iter(uniforms)
        self.drawn = [0, 0]

    def exponential(self, _mean):
        self.drawn[0] += 1
        return next(self._exponentials, 1.0)

    def uniform(self):
        self.drawn[1] += 1
        return next(self._uniforms, 0.0)


def rate_lookup_interarrival(profile, t_now, stream):
    """Thinning that asks the profile for the rate of every candidate."""
    lam_max = profile.max_rate_per_second
    t = t_now
    while True:
        t += stream.exponential(1.0 / lam_max)
        if stream.uniform() * lam_max <= profile.per_second[hour_of_day(t)]:
            dt = t - t_now
            if dt > 0.0:
                return dt


# t_now on hour and day edges, and one ulp either side of them
EDGES = [day + hour * SECONDS_PER_HOUR for day in (0.0, 7 * SECONDS_PER_DAY)
         for hour in (0, 1, 23, 24, 25)]
EDGE_TIMES = sorted({t for edge in EDGES
                     for t in (math.nextafter(edge, -math.inf), edge,
                               math.nextafter(edge, math.inf))
                     if t >= 0.0})


@settings(max_examples=300, deadline=None)
@given(rates=st.lists(st.sampled_from([0.0, 5e-324, 0.5, 1.0 / 3.0, 7.0, 3600.0]),
                      min_size=24, max_size=24).filter(
                          lambda r: max(r) / SECONDS_PER_HOUR > 0.0),
       t_now=st.sampled_from(EDGE_TIMES),
       exponentials=st.lists(st.one_of(
           st.sampled_from([0.0, 5e-324, 1e-9, 1.0, SECONDS_PER_HOUR]),
           st.floats(min_value=0.0, max_value=2 * SECONDS_PER_DAY)), max_size=8),
       uniforms=st.lists(st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
                         max_size=8))
def test_thinning_bin_lookup_is_unchanged(rates, t_now, exponentials, uniforms):
    profile = RateProfile(tuple(rates))
    ours = CountingScript(exponentials, uniforms)
    ref = CountingScript(exponentials, uniforms)
    got = next_nhpp_interarrival(profile, t_now, ours)
    assert got.hex() == rate_lookup_interarrival(profile, t_now, ref).hex()
    assert ours.drawn == ref.drawn


class TestNhpp:
    def test_constant_profile_mean_interarrival(self):
        # lambda = 6/h -> mean spacing 600 s, LLN within 2 %
        profile = RateProfile.constant(6.0)
        stream = RandomStream(1, "nhpp-const")
        draws = [next_nhpp_interarrival(profile, i * 600.0, stream)
                 for i in range(10_000)]
        assert np.mean(draws) == pytest.approx(600.0, rel=0.02)

    def test_zero_rate_hours_get_no_arrivals(self):
        profile = RateProfile(tuple([0.0] * 12 + [4.0] * 12))
        stream = RandomStream(2, "nhpp-gated")
        for t in arrivals(profile, stream, 40 * SECONDS_PER_DAY):
            assert (t % SECONDS_PER_DAY) >= 12 * SECONDS_PER_HOUR

    def test_same_seed_and_id_reproduces(self):
        profile = RateProfile.constant(3.0)
        seqs = []
        for _ in range(2):
            stream = RandomStream(7, ("proc", "a"))
            seqs.append([next_nhpp_interarrival(profile, 0.0, stream) for _ in range(50)])
        assert seqs[0] == seqs[1]

    def test_all_zero_profile_raises(self):
        with pytest.raises(ZeroRate):
            next_nhpp_interarrival(RateProfile.constant(0.0), 0.0, RandomStream(1, "z"))

    def test_hourly_rate_recovery(self):
        # 24-bin profile, 40,000 simulated hours: each nonzero bin within 3 %.
        # Nonzero rates >= 4/h keep the per-bin Poisson noise well under that.
        rates = (0, 0, 4, 5, 6, 8, 10, 12, 11, 9, 8, 7, 6, 6, 7, 8, 10, 12, 11, 8, 6, 5, 4, 4)
        profile = RateProfile(rates)
        stream = RandomStream(11, "recovery")
        horizon = 40_000 * SECONDS_PER_HOUR
        counts = np.zeros(24)
        for t in arrivals(profile, stream, horizon):
            counts[int((t % SECONDS_PER_DAY) // SECONDS_PER_HOUR)] += 1
        hours_per_bin = horizon / SECONDS_PER_DAY
        for h, rate in enumerate(rates):
            if rate == 0:
                assert counts[h] == 0
            else:
                assert counts[h] / hours_per_bin == pytest.approx(rate, rel=0.03)

    def test_matches_inverse_cdf_oracle(self):
        # two-bin profile; oracle: unit-rate exponentials mapped through the
        # inverse integrated rate (piecewise-linear, independent of thinning)
        low, high = 2.0, 10.0
        profile = RateProfile(tuple([low] * 12 + [high] * 12))
        horizon = 2_000 * SECONDS_PER_DAY
        thinned = np.array(arrivals(profile, RandomStream(3, "thinned"), horizon))

        rng = np.random.default_rng(1234)
        day_mass = (low + high) * 12.0  # expected arrivals per day
        breakpoints = [0.0, low * 12.0, day_mass]  # cumulative at 0 h, 12 h, 24 h

        def inverse_cumulative(m):
            day, rem = divmod(m, day_mass)
            if rem < breakpoints[1]:
                hours = rem / low
            else:
                hours = 12.0 + (rem - breakpoints[1]) / high
            return day * SECONDS_PER_DAY + hours * SECONDS_PER_HOUR

        oracle = []
        m = 0.0
        while True:
            m += rng.exponential(1.0)
            t = inverse_cumulative(m)
            if t > horizon:
                break
            oracle.append(t)

        # total counts compatible (Poisson), time-of-day laws indistinguishable
        n1, n2 = len(thinned), len(oracle)
        assert abs(n1 - n2) < 5 * math.sqrt(n1 + n2)
        ks = stats.ks_2samp(thinned % SECONDS_PER_DAY, np.array(oracle) % SECONDS_PER_DAY)
        assert ks.pvalue > 1e-3


class TestExponential:
    # a drain's lifetime is the first strictly positive of these draws, and a
    # spec rejects a mean that is not positive: see tests/test_processes.py
    def test_lln_mean(self):
        stream = RandomStream(5, "exp")
        draws = [stream.exponential(3600.0) for _ in range(100_000)]
        assert 3550.0 <= np.mean(draws) <= 3650.0
        assert min(draws) > 0.0

    def test_memorylessness(self):
        stream = RandomStream(9, "memoryless")
        mean = 100.0
        draws = np.array([stream.exponential(mean) for _ in range(200_000)])
        s, t = 50.0, 80.0
        survivors = draws[draws > s]
        p_cond = np.mean(survivors > s + t)
        p_plain = np.mean(draws > t)
        # binomial CI on the conditional estimate
        se = math.sqrt(p_cond * (1 - p_cond) / len(survivors))
        assert abs(p_cond - p_plain) < 5 * se + 0.005


class TestStreams:
    def test_distinct_ids_differ(self):
        a = RandomStream(1, "a")
        b = RandomStream(1, "b")
        assert [a.uniform() for _ in range(5)] != [b.uniform() for _ in range(5)]

    def test_interleaving_does_not_couple_streams(self):
        a1, b1 = RandomStream(1, "a"), RandomStream(1, "b")
        seq_a = [a1.uniform() for _ in range(10)]
        seq_b = [b1.uniform() for _ in range(10)]
        a2, b2 = RandomStream(1, "a"), RandomStream(1, "b")
        inter_a, inter_b = [], []
        for i in range(10):
            if i % 2:
                inter_a.append(a2.uniform())
                inter_b.append(b2.uniform())
            else:
                inter_b.append(b2.uniform())
                inter_a.append(a2.uniform())
        assert inter_a == seq_a and inter_b == seq_b


class TestSeeding:
    """The batched seeding pass against numpy's own SeedSequence."""

    SEEDS = [0, 1, 2**32, 2**63 - 1, 2**64 + 9, -5]

    @staticmethod
    def reference(seed, key):
        return np.random.PCG64(np.random.SeedSequence([seed & (2**63 - 1), key]))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_streams_match_seed_sequence(self, seed):
        ids = [("process", f"p{i % 7}", f"poi{i}", "car") for i in range(599)] + ["task"]
        streams = random_streams(seed, ids)
        assert [s.stream_id for s in streams] == ids
        for sid, stream in zip(ids, streams):
            ref = self.reference(seed, _stable_key(sid))
            assert stream._rng.bit_generator.state == ref.state, sid
            want = np.random.Generator(ref).random(40).tolist()
            assert [stream.uniform() for _ in range(40)] == want, sid

    @pytest.mark.parametrize("seed", SEEDS)
    def test_key_word_boundaries(self, seed):
        keys = [0, 2**32 - 1, 2**32, 2**64 - 1]
        for key, row in zip(keys, pcg64_seeds(seed, keys)):
            ref = np.random.SeedSequence([seed & (2**63 - 1), key])
            assert row.tolist() == ref.generate_state(4, np.uint64).tolist(), key
        assert pcg64_seeds(seed, []).shape == (0, 4)

    @pytest.mark.parametrize("seed", [1, 2**63 - 1])
    def test_mixed_draws_refill_each_kind_in_batches_of_16(self, seed):
        # each kind refills with its next 16 variates when a call finds its
        # batch spent, so a reference generator that draws 16 of a kind at
        # each such call serves the same sequence; 5 scripted runs of each
        # kind cross both kinds' batch boundaries several times
        sid = ("process", "cars", "poi0", "car")
        (stream,) = random_streams(seed, [sid])
        ref = np.random.Generator(self.reference(seed, _stable_key(sid)))
        uniforms, exponentials, got, want = [], [], [], []
        for k, (kind, run) in enumerate([("u", 3), ("e", 17), ("u", 20), ("e", 1), ("u", 9),
                                         ("e", 30), ("u", 16), ("e", 16), ("u", 1), ("e", 2)]):
            mean = 10.0 * (k + 1)
            for _ in range(run):
                if kind == "u":
                    got.append(stream.uniform())
                    if not uniforms:
                        uniforms = ref.random(16).tolist()
                    want.append(uniforms.pop(0))
                else:
                    got.append(stream.exponential(mean))
                    if not exponentials:
                        exponentials = ref.standard_exponential(16).tolist()
                    want.append(exponentials.pop(0) * mean)
        assert len(got) == 115 and got == want

    def test_a_lone_stream_is_a_batch_of_one(self):
        ids = ["a", ("task", "visits", "p1"), ("process", "cars", "p2", "car")]
        for sid, batched in zip(ids, random_streams(7, ids)):
            alone = RandomStream(7, sid)
            assert alone.stream_id == sid
            assert alone._rng.bit_generator.state == batched._rng.bit_generator.state

    def test_import_leaves_numpy_random_unloaded(self):
        # numpy.random costs time and memory on import; it is loaded when
        # the first stream is seeded, not when any scenesim module is imported
        src = Path(scenesim.__file__).resolve().parent
        code = ("import importlib, pkgutil, sys\n"
                "import numpy\n"
                "print('numpy.random' in sys.modules)\n"
                f"for m in pkgutil.iter_modules([{str(src)!r}]):\n"
                "    importlib.import_module('scenesim.' + m.name)\n"
                "print(sorted(n for n in sys.modules if n.startswith('scenesim.')))\n"
                "print('numpy.random' in sys.modules)\n")
        env = dict(os.environ, PYTHONPATH=str(src.parent))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        by_numpy, modules, loaded = proc.stdout.splitlines()
        if by_numpy == "True":
            pytest.skip("this numpy imports numpy.random with numpy itself")
        assert "'scenesim.stochastic'" in modules and "'scenesim.cli'" in modules
        assert loaded == "False"

    def test_import_leaves_yaml_unloaded(self):
        # only a run config is YAML, so yaml is loaded by load_config, not on import
        src = Path(scenesim.__file__).resolve().parent
        code = ("import importlib, pkgutil, sys\n"
                f"for m in pkgutil.iter_modules([{str(src)!r}]):\n"
                "    importlib.import_module('scenesim.' + m.name)\n"
                "print('yaml' in sys.modules)\n"
                "from scenesim.scenario import load_config\n"
                f"load_config({str(src / 'data' / 'micro_config.yaml')!r})\n"
                "print('yaml' in sys.modules)\n")
        env = dict(os.environ, PYTHONPATH=str(src.parent))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["False", "True"]


class TestBalance:
    def test_littles_law_algebra(self):
        assert balanced_mean_lifetime(0.01, 100) == 10_000.0

    def test_doubling_rate_halves_lifetime(self):
        assert balanced_mean_lifetime(0.02, 100) == balanced_mean_lifetime(0.01, 100) / 2

    def test_invalid_rate(self):
        with pytest.raises(InvalidRate):
            balanced_mean_lifetime(0.0, 100)
        with pytest.raises(InvalidRate):
            balanced_mean_lifetime(0.01, 0)

    @pytest.mark.parametrize("rate, target", [(1e10, 1e-320), (math.inf, 1.0),
                                              (math.inf, math.inf)])
    def test_mean_that_is_not_positive(self, rate, target):
        # an underflowed quotient, or an overflowed rate, is no mean lifetime
        with pytest.raises(InvalidRate):
            balanced_mean_lifetime(rate, target)

