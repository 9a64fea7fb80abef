"""Metric accumulation: stale intervals, live counts, delays, exports."""

import csv
import math
import pickle
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from scenesim.agents import Task
from scenesim.config import FleetConfig, SimConfig, TaskSpec
from scenesim.errors import EmptyMeasurement
from scenesim.graph import ObjectNode, Observation, ObservedGraph
from scenesim.kernel import SimState, run_replications
from scenesim.metrics import (
    MetricsLedger,
    fmt,
    signed_task_delay,
    summary_metrics,
    write_outputs,
)
from scenesim.processes import ProcessSpec
from scenesim.stochastic import RateProfile
from scenesim.synthetic import line_scenario
from conftest import mean_live

HOUR = 3600.0


def make_task(t_assigned=0.0, t_pred=100.0, t_completed=100.0):
    task = Task(id="t", target_poi="p", t_issued=t_assigned)
    task.t_assigned = t_assigned
    task.t_pred = t_pred
    task.t_completed = t_completed
    return task


def car(oid, node):
    return ObjectNode(id=oid, semantic_class="car", t_spawn=0.0, t_lifetime=HOUR,
                      footprint_area=1.0, attached_to=node)


def merge(led, truth, belief, t, nodes):
    """Merge ``truth``'s objects on ``nodes`` into ``belief`` at t, as the kernel does."""
    view = Observation(frozenset(nodes), frozenset())
    led.on_merge(t, view, belief.merge_observation(view))


def line_world(n=3):
    """(truth, belief) over an object-free line of path nodes v0, v1, ..."""
    truth = line_scenario(n, capacity={"car": 10})
    return truth, ObservedGraph(truth)


class TestTaskDelay:
    def test_exact_prediction_is_zero(self):
        assert abs(signed_task_delay(make_task())) == 0.0

    def test_ten_percent_underestimate(self):
        # predicted 100 s, took 110 s -> |100 - 110| / 110
        task = make_task(t_pred=100.0, t_completed=110.0)
        assert abs(signed_task_delay(task)) == pytest.approx(10.0 / 110.0)
        assert signed_task_delay(task) == pytest.approx(-10.0 / 110.0)

    def test_relative_to_assignment_not_issue_time(self):
        task = make_task(t_assigned=50.0, t_pred=150.0, t_completed=250.0)
        assert abs(signed_task_delay(task)) == pytest.approx(0.5)

    @pytest.mark.parametrize("t_assigned,t_pred,t_completed", [
        (0.0, 100.0, 110.0), (0.0, 150.0, 110.0), (0.1, 0.2, 0.3), (0.1, 0.7, 0.3),
        (3.0, 1e-300, 7.0), (1.5, 5e15, 3.0)])
    def test_delay_is_the_absolute_signed_delay_bit_for_bit(self, t_assigned, t_pred,
                                                           t_completed):
        task = make_task(t_assigned, t_pred, t_completed)
        true_duration = t_completed - t_assigned
        # the unsigned formula, and IEEE division is sign-symmetric
        want = abs((t_pred - t_assigned) - true_duration) / true_duration
        assert abs(signed_task_delay(task)).hex() == want.hex()

    def test_zero_duration_has_no_delay(self):
        assert signed_task_delay(make_task(t_completed=0.0)) is None


class TestCorrectnessIntervals:
    def ledger(self, warmup=0.0, end=1000.0):
        return MetricsLedger(warmup, end, ["car"])

    def test_untouched_node_is_fully_correct(self):
        led = self.ledger()
        led.finalize()
        assert led.up_to_date_share(["v0"]) == 100.0

    def test_midpoint_divergence_halves_share(self):
        led = self.ledger()
        led.set_correct(500.0, "v0", False)
        led.finalize()
        assert led.up_to_date_share(["v0"]) == pytest.approx(50.0)

    def test_recovery_interval_counts(self):
        led = self.ledger()
        led.set_correct(200.0, "v0", False)
        led.set_correct(700.0, "v0", True)
        led.finalize()
        assert led.up_to_date_share(["v0"]) == pytest.approx(50.0)

    def test_warmup_excluded(self):
        led = self.ledger(warmup=500.0)
        led.set_correct(250.0, "v0", False)  # wrong for the whole window
        led.finalize()
        assert led.up_to_date_share(["v0"]) == 0.0

    def test_share_averages_over_nodes(self):
        led = self.ledger()
        led.set_correct(0.0, "v0", False)
        led.finalize()
        assert led.up_to_date_share(["v0", "v1"]) == pytest.approx(50.0)

    def test_merge_closes_only_stale_observed_nodes(self):
        led = self.ledger()
        truth, belief = line_world()
        for node in ("v0", "v1"):
            truth.attach_object(car(f"o-{node}", node))
            led.set_correct(100.0, node, False)
        merge(led, truth, belief, 300.0, ["v0", "v2"])
        assert led._stale_since == {"v1": 100.0}
        led.finalize()
        assert led._stale_s == {"v0": 200.0, "v1": 900.0}
        assert led.up_to_date_share(["v0", "v1", "v2"]) == pytest.approx(
            100.0 * (800.0 + 100.0 + 1000.0) / 3000.0)

    def test_requires_finalize(self):
        led = self.ledger()
        with pytest.raises(RuntimeError):
            led.up_to_date_share(["v0"])

    @pytest.mark.parametrize("warmup, end", [(0.0, math.nan), (math.nan, 1000.0),
                                             (math.nan, math.nan), (1000.0, 1000.0)])
    def test_empty_or_nan_window_rejected(self, warmup, end):
        # a NaN window would give NaN shares, and a NaN warm-up no first sample hour
        with pytest.raises(ValueError, match="^t_end must exceed warmup_end$"):
            MetricsLedger(warmup, end, ["car"])

    def test_no_nodes_raises(self):
        led = self.ledger()
        led.finalize()
        with pytest.raises(EmptyMeasurement):
            led.up_to_date_share([])

    @given(st.lists(st.tuples(st.floats(0.0, 1000.0), st.booleans()),
                    max_size=30))
    def test_intervals_partition_the_window(self, transitions):
        # correct + incorrect time must always sum to the window length
        led = MetricsLedger(100.0, 1000.0, ["car"])
        inverse = MetricsLedger(100.0, 1000.0, ["car"])
        for t, state in sorted(transitions):
            led.set_correct(t, "v0", state)
            inverse.set_correct(t, "v0", not state)
        led.finalize()
        inverse.finalize()
        total = led.up_to_date_share(["v0"]) + inverse.up_to_date_share(["v0"])
        # the inverse ledger starts correct too, so before the first
        # transition both count the same span; cap the check there
        first = min((t for t, _ in transitions), default=1000.0)
        overlap = 100.0 * max(min(first, 1000.0) - 100.0, 0.0) / 900.0
        assert total == pytest.approx(100.0 + overlap, abs=1e-6)


class TestLiveCounts:
    def test_hourly_sampling_reflects_state_before_boundary_events(self):
        led = MetricsLedger(0.0, 2 * HOUR, ["car"])
        led.on_live_change(100.0, "car", +1)
        led.on_live_change(HOUR, "car", +1)  # boundary: sampled before applying
        led.finalize()
        counts = led.live_count_by_hour()
        assert counts[("car", 0)] == 0.0  # sampled at t=0
        assert counts[("car", 1)] == 1.0
        assert counts[("car", 2)] == 2.0
        assert mean_live(led, "car") == pytest.approx(1.0)

    def test_no_samples_past_the_end(self):
        # first on-the-hour sample after warmup would land past t_end
        led = MetricsLedger(100.0, HOUR / 2, ["car"])
        led.finalize()
        assert led.live_count_by_hour() == {}

    def test_hour_of_day_folding(self):
        led = MetricsLedger(0.0, 49 * HOUR, ["car"])
        led.on_live_change(10.0, "car", +1)
        led.finalize()
        counts = led.live_count_by_hour()
        # hour bin 0 sampled at t=0 s (count 0), t=24 h and t=48 h (count 1)
        assert counts[("car", 0)] == pytest.approx(2.0 / 3.0)
        assert counts[("car", 5)] == 1.0


def reference_stale_seconds(transitions, warmup, end, nodes):
    """node -> stale seconds in [warmup, end], by walking each node's states.

    Every node starts correct at t=0; a transition sets its state from then
    on.  A stale interval runs from the first stale transition after a
    correct state to the next correct one, or to ``end``; its length clamped
    to the window is added once, so any float times compare exactly.
    """
    seconds = {}
    for node in nodes:
        total, since = 0.0, None
        for t, n, correct in transitions + [(end, node, True)]:
            if n != node:
                continue
            if not correct and since is None:
                since = t
            elif correct and since is not None:
                lo, hi = max(since, warmup), min(t, end)
                if hi > lo:
                    total += hi - lo
                since = None
        seconds[node] = total
    return seconds


def reference_live_bins(changes, warmup, end, classes):
    """(class, hour of day) -> mean live count over the on-the-hour samples.

    A sample at s counts the changes strictly before s: a change at s itself
    is applied after the sample.
    """
    bins: dict[tuple, list] = {}
    s = math.ceil(warmup / HOUR) * HOUR
    while s <= end:
        for cls in classes:
            count = sum(delta for t, c, delta in changes if c == cls and t < s)
            bin_ = bins.setdefault((cls, int(s % 86400.0 // HOUR)), [0, 0])
            bin_[0] += count
            bin_[1] += 1
        s += HOUR
    return {key: total / n for key, (total, n) in sorted(bins.items())}


window_bounds = st.tuples(st.integers(0, 30), st.integers(1, 30)).map(
    lambda w: (w[0] * 900.0, w[0] * 900.0 + w[1] * 1800.0))


class TestLedgerReference:
    @settings(max_examples=200, deadline=None)
    @given(bounds=window_bounds,
           transitions=st.lists(st.tuples(st.one_of(st.integers(0, 70000).map(float),
                                                    st.floats(0.0, 70000.0)),
                                          st.sampled_from(["v0", "v1", "v2"]),
                                          st.booleans()), max_size=40))
    def test_correct_seconds(self, bounds, transitions):
        # transitions may fall before the warm-up, on its end, and after
        # t_end, and repeat a node's state; stale seconds must equal the
        # reference's exactly, also for times that are not integral
        warmup, end = bounds
        transitions = sorted(transitions)
        led = MetricsLedger(warmup, end, ["car"])
        for t, node, correct in transitions:
            led.set_correct(t, node, correct)
        led.finalize()
        nodes = ["v0", "v1", "v2"]
        got = {node: led._stale_s.get(node, 0.0) for node in nodes}
        assert got == reference_stale_seconds(transitions, warmup, end, nodes)
        window = end - warmup
        for node in nodes:
            assert led.up_to_date_share([node]) == (
                100.0 * ((window - got[node]) / window))

    @settings(max_examples=200, deadline=None)
    @given(bounds=window_bounds,
           steps=st.lists(st.tuples(st.integers(0, 70000),
                                    st.sampled_from(["car", "bicycle"]),
                                    st.sampled_from([+1, -1])), max_size=40))
    def test_hourly_live_samples(self, bounds, steps):
        # changes on the hour, before the warm-up and after t_end included
        warmup, end = bounds
        changes = sorted((float(t - t % 1800 if t % 3 == 0 else t), c, d)
                         for t, c, d in steps)
        led = MetricsLedger(warmup, end, ["bicycle", "car"])
        for t, cls, delta in changes:
            led.on_live_change(t, cls, delta)
        led.finalize()
        assert led.live_count_by_hour() == reference_live_bins(
            changes, warmup, end, ["bicycle", "car"])


class TestObservations:
    def test_heatmap_counts_every_merge(self):
        led = MetricsLedger(0.0, 1000.0, ["car"])
        truth, belief = line_world()
        merge(led, truth, belief, 10.0, ["v0", "v1"])
        merge(led, truth, belief, 20.0, ["v1"])
        assert led.heatmap == {"v0": 1, "v1": 2}

    def test_inter_observation_mean(self):
        led = MetricsLedger(0.0, 1000.0, ["car"])
        truth, belief = line_world()
        for t in (0.0, 100.0, 300.0):  # gaps 100 and 200
            merge(led, truth, belief, t, ["v0"])
        assert led.inter_observation_stats() == {"v0": pytest.approx(150.0)}

    def test_single_observation_has_no_gap(self):
        led = MetricsLedger(0.0, 1000.0, ["car"])
        truth, belief = line_world()
        merge(led, truth, belief, 10.0, ["v0"])
        assert led.inter_observation_stats() == {}

    def test_observed_arrival_counted_once_per_object(self):
        led = MetricsLedger(0.0, 1000.0, ["car"])
        truth, belief = line_world()
        truth.attach_object(car("a", "v0"))
        merge(led, truth, belief, 10.0, ["v0"])
        truth.attach_object(car("b", "v0"))
        merge(led, truth, belief, 20.0, ["v0"])
        merge(led, truth, belief, 30.0, ["v0", "v1"])
        assert led.observed_arrivals == {("v0", 0): 2}

    def test_out_of_window_ignored(self):
        led = MetricsLedger(100.0, 1000.0, ["car"])
        truth, belief = line_world()
        truth.attach_object(car("a", "v0"))
        merge(led, truth, belief, 50.0, ["v0"])
        led.on_true_arrival(50.0, "v0")
        assert not led.heatmap and not led.true_arrivals
        assert not led.observed_arrivals


class CoverageReference:
    """Per-node merge counts and running gap sums, updated at every merge."""

    def __init__(self, warmup, end):
        self.warmup, self.end = warmup, end
        self.coverage = {}  # node -> [observations, last t, gap sum]

    def on_merge(self, t, nodes):
        if self.warmup <= t <= self.end:
            for node in nodes:
                cover = self.coverage.get(node)
                if cover is None:
                    self.coverage[node] = [1, t, 0.0]
                else:
                    cover[0] += 1
                    cover[2] += t - cover[1]
                    cover[1] = t

    def heatmap(self):
        return {node: cover[0] for node, cover in self.coverage.items()}

    def inter_observation_stats(self):
        return {node: gaps / (count - 1)
                for node, (count, _, gaps) in sorted(self.coverage.items()) if count > 1}


COVERAGE_VIEWS = [frozenset(v) for v in (["v0"], ["v0", "v1"], ["v1", "v2", "v3"],
                                         ["v0", "v1", "v2", "v3", "v4"], ["v4"])]


@settings(max_examples=300, deadline=None)
@given(bounds=window_bounds,
       merges=st.lists(st.tuples(st.one_of(st.just(0.0), st.floats(0.0, 5000.0),
                                           st.sampled_from([0.1, 0.7, 1e-3, 1337.25])),
                                 st.integers(0, len(COVERAGE_VIEWS) - 1),
                                 st.booleans()), max_size=60))
def test_coverage_log_matches_running_sums(bounds, merges):
    # times rise as the kernel's clock does, by steps that are often zero
    # (several merges at one t) and rarely exact in binary; views repeat,
    # also as equal sets built afresh, and merges fall before, in and after
    # the window; both readers, read twice, must equal the reference's
    # running sums bit for bit
    warmup, end = bounds
    led, ref = MetricsLedger(warmup, end, ["car"]), CoverageReference(warmup, end)
    t = 0.0
    for j, (step, k, fresh) in enumerate(merges):
        if j == len(merges) // 2:  # a read as the run goes sees the later merges too
            assert dict(led.heatmap) == ref.heatmap()
        t += step
        nodes = frozenset(COVERAGE_VIEWS[k]) if fresh else COVERAGE_VIEWS[k]
        led.on_merge(t, Observation(nodes, frozenset()), [])
        ref.on_merge(t, nodes)
    want = ref.inter_observation_stats()
    # read twice as the run goes, then twice once finalized
    for finalized in (False, False, True, True):
        if finalized:
            led.finalize()
        assert dict(led.heatmap) == ref.heatmap()
        got = led.inter_observation_stats()
        assert list(got) == list(want)
        assert [g.hex() for g in got.values()] == [w.hex() for w in want.values()]


merge_ops = st.lists(st.one_of(
    st.tuples(st.just("attach"), st.integers(0, 3)),
    st.tuples(st.just("remove"), st.integers(0, 30)),
    st.tuples(st.just("merge"), st.integers(0, 3), st.sampled_from([0.0, 5.0, 15.0, 35.0])),
), max_size=50)


class SeenSetReference:
    """Observed arrivals counted at each object id's first sighting in a view."""

    def __init__(self, warmup, end):
        self.warmup, self.end = warmup, end
        self.seen = set()
        self.observed_arrivals = Counter()

    def observe(self, t, view, truth):
        for node in view.path_nodes:
            for oid in truth.objects_at.get(node, set()):
                if oid not in self.seen:
                    self.seen.add(oid)
                    if self.warmup <= t <= self.end:
                        self.observed_arrivals[(node, int(t % 86400.0 // HOUR))] += 1


@settings(max_examples=300, deadline=None)
@given(warmup=st.sampled_from([0.0, 1000.0, 5000.0]),
       length=st.sampled_from([2000.0, 20000.0, 1e6]),
       ops=merge_ops, step=st.sampled_from([300.0, 1337.5, HOUR]))
@example(warmup=0.0, length=1e6, step=300.0,  # a node re-seen with one more object
         ops=[("attach", 0), ("merge", 0, 5.0), ("attach", 0), ("merge", 0, 5.0)])
def test_newly_believed_objects_are_first_sightings(warmup, length, ops, step):
    # attaches, removals (expiries) and merges on a line; arrivals counted
    # from what each merge newly believes equal the seen-set reference's
    end = warmup + length
    truth, belief = line_world(4)
    nodes = sorted(truth.path_nodes)
    led, ref = MetricsLedger(warmup, end, ["car"]), SeenSetReference(warmup, end)
    for k, op in enumerate(ops):
        t = k * step
        if op[0] == "attach":
            if truth.free_capacity(nodes[op[1]], "car"):
                truth.attach_object(car(f"o{k}", nodes[op[1]]))
        elif op[0] == "remove":
            if truth.objects:
                truth.remove_object(sorted(truth.objects)[op[1] % len(truth.objects)])
        else:
            view = truth.network.visible(nodes[op[1]], op[2])
            ref.observe(t, view, truth)  # reads the truth before the merge
            led.on_merge(t, view, belief.merge_observation(view))
    assert led.observed_arrivals == ref.observed_arrivals


class TestDelayIdentity:
    def test_zero_processes_give_exactly_zero_delay(self):
        scenario = line_scenario(6, pois=((5, "housing"),))
        for mode in ("observed", "static"):
            config = SimConfig(
                processes=[],
                tasks=[TaskSpec("visits", frozenset({"housing"}),
                                RateProfile.constant(1.0))],
                fleet=FleetConfig(count=1, planner_mode=mode),
                duration=12 * HOUR, warmup=0.0)
            state = SimState(scenario, config, seed=2)
            state.run()
            assert state.ledger.tasks
            assert state.ledger.mean_task_delay_pct() == pytest.approx(0.0, abs=1e-9)


class TestRepeatedReads:
    def test_summary_read_twice_gives_same_counters(self):
        led = MetricsLedger(0.0, 10 * HOUR, ["car"])
        led.record_task(make_task(t_assigned=HOUR, t_pred=HOUR + 100.0,
                                  t_completed=HOUR + 110.0))
        led.record_task(make_task(t_assigned=2 * HOUR, t_completed=2 * HOUR))
        led.finalize()
        first = summary_metrics(led, ["v0"])
        counters = dict(led.counters)
        second = summary_metrics(led, ["v0"])
        assert second == first
        assert dict(led.counters) == counters
        assert counters["degenerate_tasks"] == 1
        assert first["mean_task_delay_pct"] == pytest.approx(100.0 * 10.0 / 110.0)


class TestExports:
    def run_ledgers(self):
        scenario = line_scenario(5, pois=((2, "housing"), (4, "retail")))
        config = SimConfig(
            processes=[ProcessSpec(
                name="cars", source_classes=frozenset({"housing"}),
                object_classes=frozenset({"car"}),
                rate_profile=RateProfile.constant(2.0),
                footprint_area=2.0, lifetime_mean=HOUR)],
            tasks=[TaskSpec("visits", frozenset({"retail"}),
                            RateProfile.constant(0.5))],
            fleet=FleetConfig(count=1),
            duration=24 * HOUR, warmup=2 * HOUR)
        return scenario, run_replications(scenario, config, 2, base_seed=4)

    def test_csvs_written_and_well_formed(self, tmp_path):
        scenario, ledgers = self.run_ledgers()
        write_outputs(ledgers, scenario, tmp_path)
        names = {p.name for p in tmp_path.iterdir()}
        assert names == {"summary.csv", "daily_trends.csv",
                         "arrivals_by_node_hour.csv", "heatmap.csv", "tasks.csv",
                         "node_gaps.csv"}

        with open(tmp_path / "summary.csv") as f:
            rows = list(csv.DictReader(f))
        reps = {r["replication"] for r in rows}
        assert reps == {"0", "1", "mean", "std"}
        spawned = {r["replication"]: r["value"] for r in rows
                   if r["metric"] == "objects_spawned"}
        expected_mean = (int(spawned["0"]) + int(spawned["1"])) / 2
        assert float(spawned["mean"]) == pytest.approx(expected_mean, rel=1e-4)

        with open(tmp_path / "daily_trends.csv") as f:
            trend_rows = list(csv.DictReader(f))
        # reps x registry object classes (car, bicycle, trashcan) x hours
        assert len(trend_rows) == 2 * 3 * 24

        with open(tmp_path / "heatmap.csv") as f:
            heat_rows = list(csv.DictReader(f))
        assert len(heat_rows) == 2 * len(scenario.path_nodes)
        assert sum(int(r["observations"]) for r in heat_rows) > 0

        with open(tmp_path / "node_gaps.csv") as f:
            gap_rows = list(csv.DictReader(f))
        assert gap_rows and list(gap_rows[0]) == ["replication", "node", "mean_gap_s"]
        assert gap_rows == [
            {"replication": str(i), "node": node, "mean_gap_s": fmt(gap)}
            for i, ledger in enumerate(ledgers)
            for node, gap in ledger.inter_observation_stats().items()
        ]

    def test_export_expands_each_merge_log_once(self, tmp_path):
        # heatmap.csv and node_gaps.csv read one expansion of a ledger's
        # per-view merge times; a second read after export expands nothing
        scenario, ledgers = self.run_ledgers()

        class CountingViews(dict):
            expansions = 0

            def items(self):
                CountingViews.expansions += 1
                return super().items()

        for ledger in ledgers:
            ledger._views = CountingViews(ledger._views)
        write_outputs(ledgers, scenario, tmp_path)
        assert CountingViews.expansions == len(ledgers)
        heatmaps = [ledger.heatmap for ledger in ledgers]
        write_outputs(ledgers, scenario, tmp_path / "again")
        assert CountingViews.expansions == len(ledgers)
        assert [ledger.heatmap for ledger in ledgers] == heatmaps
        for name in ("heatmap.csv", "node_gaps.csv"):
            assert (tmp_path / name).read_bytes() == (tmp_path / "again" / name).read_bytes()

    def test_finished_ledgers_survive_a_pickle_round_trip(self, tmp_path):
        # a ledger can cross a process boundary: its copy writes the same CSVs
        scenario, ledgers = self.run_ledgers()
        copies = pickle.loads(pickle.dumps(ledgers))
        assert [c.live_count_by_hour() for c in copies] == [
            led.live_count_by_hour() for led in ledgers]
        write_outputs(ledgers, scenario, tmp_path / "original")
        write_outputs(copies, scenario, tmp_path / "copy")
        names = sorted(p.name for p in (tmp_path / "original").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "copy").iterdir())
        for name in names:
            assert ((tmp_path / "original" / name).read_bytes()
                    == (tmp_path / "copy" / name).read_bytes()), name

    def test_float_format_is_six_significant_digits(self):
        assert fmt(1234567.891) == "1.23457e+06"
        assert fmt(0.1) == "0.1"
        assert fmt(3) == "3"
        assert fmt(math.pi) == "3.14159"
