"""Event-driven metric accumulation and CSV export.

One ledger per replication.  A node is stale while its believed objects
differ from the true ones; stale time is tracked as exact intervals from
transition timestamps (never sampled).  Live-object counts are sampled on the
hour from the running counters; arrival histograms fold to hour-of-day.
Everything before the warm-up end and after the run end is excluded.
"""

from __future__ import annotations

import csv
import math
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from functools import reduce
from itertools import chain
from operator import add, sub
from pathlib import Path

from .errors import EmptyMeasurement
from .stochastic import SECONDS_PER_HOUR, hour_of_day


def fmt(value) -> str:
    """Floats at 6 significant digits; everything else as-is."""
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def signed_task_delay(task) -> float | None:
    """Normalized prediction error (t_pred - t_true) / t_true (durations).

    None for a task completed in zero time, whose delay is undefined.
    """
    true_duration = task.t_completed - task.t_assigned
    if true_duration <= 0:
        return None
    return (task.t_pred - task.t_assigned - true_duration) / true_duration


class MetricsLedger:
    """Accumulators for one replication; mutated only by its kernel."""

    def __init__(self, warmup_end: float, t_end: float, object_classes):
        if not t_end > warmup_end:  # NaN fails too
            raise ValueError("t_end must exceed warmup_end")
        self.warmup_end = warmup_end
        self.t_end = t_end
        self.object_classes = sorted(object_classes)
        self._stale_since: dict[str, float] = {}  # stale node -> t it went stale
        self._stale_s: dict[str, float] = {}  # node -> stale seconds in the window
        self._live = Counter()  # class -> current live count
        # (class, hour-of-day) -> [sum of sampled counts, number of samples]
        self._live_bins: dict[tuple[str, int], list[int]] = {}
        first_hour = math.ceil(warmup_end / SECONDS_PER_HOUR) * SECONDS_PER_HOUR
        self._next_sample_t = first_hour
        self.true_arrivals = Counter()      # (node, hour-of-day) -> count
        self.observed_arrivals = Counter()  # (node, hour-of-day) -> count
        self._views: dict[frozenset, array] = {}  # view's path nodes -> merge times
        self._by_node: dict | None = None  # _times_by_node(), kept once finalized
        self.tasks: list = []
        self.counters = Counter()
        self.rtf: float | None = None
        self._finalized = False

    # -- stale intervals ------------------------------------------------------

    def set_correct(self, t: float, node: str, correct: bool):
        """Record whether ``node``'s belief matches the truth from ``t`` on.

        Nodes start correct at t=0 (both graphs are seeded empty).  Only a
        change of state opens (correct -> stale) or closes (stale -> correct)
        a stale interval; a call that repeats the current state does nothing.
        """
        if correct:
            since = self._stale_since.pop(node, None)
            if since is not None:
                self._add_stale(node, since, t)
        elif node not in self._stale_since:
            self._stale_since[node] = t

    def _add_stale(self, node: str, since: float, t: float):
        """Add the stale span [since, t], clamped to the window, to ``node``."""
        lo = self.warmup_end if self.warmup_end > since else since
        hi = self.t_end if self.t_end < t else t
        if hi > lo:
            self._stale_s[node] = self._stale_s.get(node, 0.0) + (hi - lo)

    def up_to_date_share(self, path_node_ids) -> float:
        """Mean over path nodes of the correct-time fraction, in percent."""
        window = self.t_end - self.warmup_end  # positive: the constructor checks it
        if not self._finalized:
            raise RuntimeError("finalize() must run before reading shares")
        total = 0.0
        n = 0
        for node in path_node_ids:
            total += (window - self._stale_s.get(node, 0.0)) / window
            n += 1
        if n == 0:
            raise EmptyMeasurement("no path nodes")
        return 100.0 * total / n

    # -- live counts ----------------------------------------------------------

    def on_live_change(self, t: float, object_class: str, delta: int):
        if self._next_sample_t <= t:  # an hour boundary has passed
            self._sample_live_up_to(t)
        self._live[object_class] += delta

    def _sample_live_up_to(self, t: float):
        limit = min(t, self.t_end)
        while self._next_sample_t <= limit:
            hour = hour_of_day(self._next_sample_t)
            for cls in self.object_classes:
                bin_ = self._live_bins.setdefault((cls, hour), [0, 0])
                bin_[0] += self._live[cls]
                bin_[1] += 1
            self._next_sample_t += SECONDS_PER_HOUR

    def live_count_by_hour(self) -> dict:
        """(class, hour-of-day) -> mean sampled live count."""
        return {
            key: (s / n if n else 0.0)
            for key, (s, n) in sorted(self._live_bins.items())
        }

    # -- arrivals and observations ---------------------------------------------

    def on_true_arrival(self, t: float, node: str):
        if self.warmup_end <= t <= self.t_end:
            self.true_arrivals[(node, hour_of_day(t))] += 1

    def on_merge(self, t: float, observation, changed):
        """Account a merge; ``changed`` is what ``merge_observation`` returned.

        Its nodes are exactly the stale observed ones, and turn correct.
        Belief drops an object only after it expired, so every newly
        believed object is a first sighting: an observed arrival.  Coverage
        is logged per view: ``t`` joins the times of the view's (memoized)
        path-node set, and the readers expand them per node.
        """
        stale = self._stale_since
        in_window = self.warmup_end <= t <= self.t_end
        for node, new in changed:
            since = stale.pop(node, None)
            if since is not None:
                self._add_stale(node, since, t)
            if new and in_window:
                self.observed_arrivals[(node, hour_of_day(t))] += new
        if in_window:
            times = self._views.get(observation.path_nodes)
            if times is None:
                times = self._views[observation.path_nodes] = array("d")
            times.append(t)

    def _times_by_node(self) -> dict:
        """node -> the merge-time arrays of the logged views that cover it.

        Once the ledger is finalized the log is complete, so the expansion
        is kept: the heatmap and the gap readers share one.
        """
        if self._by_node is not None:
            return self._by_node
        by_node = defaultdict(list)
        for view, times in self._views.items():
            for node in view:
                by_node[node].append(times)
        if self._finalized:
            self._by_node = by_node
        return by_node

    @property
    def heatmap(self) -> Counter:
        """node -> number of merges that covered it inside the window."""
        return Counter({node: sum(map(len, lists))
                        for node, lists in self._times_by_node().items()})

    def inter_observation_stats(self) -> dict:
        """node -> mean gap between consecutive observations; needs >= 2 obs.

        The gaps are summed in time order from the first, as a running sum
        over the merges would have summed them.
        """
        stats = {}
        for node, lists in sorted(self._times_by_node().items()):
            ts = sorted(chain.from_iterable(lists))
            if len(ts) > 1:
                stats[node] = reduce(add, map(sub, ts[1:], ts)) / (len(ts) - 1)
        return stats

    # -- tasks ------------------------------------------------------------------

    def record_task(self, task):
        """Keep tasks assigned inside the measurement window."""
        if task.t_assigned >= self.warmup_end:
            self.tasks.append(task)
            if signed_task_delay(task) is None:
                self.counters["degenerate_tasks"] += 1
        else:
            self.counters["tasks_warmup"] += 1

    def mean_task_delay_pct(self) -> float | None:
        """Mean normalized delay over non-degenerate tasks; reading has no side effects."""
        delays = [abs(d) for d in map(signed_task_delay, self.tasks) if d is not None]
        if not delays:
            return None
        return 100.0 * sum(delays) / len(delays)

    # -- lifecycle ---------------------------------------------------------------

    def finalize(self):
        """Close all open intervals and sampling at t_end."""
        if self._finalized:
            return
        self._sample_live_up_to(self.t_end)
        for node, since in self._stale_since.items():
            self._add_stale(node, since, self.t_end)
        self._finalized = True


# -- aggregation and CSV export -------------------------------------------------


def summary_metrics(ledger: MetricsLedger, path_node_ids) -> dict:
    return {
        "rtf": ledger.rtf,
        "up_to_date_share_pct": ledger.up_to_date_share(path_node_ids),
        "mean_task_delay_pct": ledger.mean_task_delay_pct(),
        "tasks_completed": len(ledger.tasks),
        "objects_spawned": ledger.counters["spawned"],
        "objects_expired": ledger.counters["expired"],
        "discarded_private": ledger.counters["discarded_private"],
        "discarded_capacity": ledger.counters["discarded_capacity"],
    }


def _mean_std(values):
    vals = [v for v in values if v is not None]
    if not vals:
        return None, None
    mean = sum(vals) / len(vals)
    if len(vals) < 2:
        return mean, None
    var = sum((v - mean) ** 2 for v in vals) / (len(vals) - 1)
    return mean, math.sqrt(var)


@contextmanager
def _csv_writer(path, header):
    """A ``csv.writer`` on a new file at ``path`` whose first row is ``header``."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        yield writer


def write_outputs(ledgers, graph, outdir):
    """Write all metric CSVs for a list of replication ledgers."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    path_nodes = sorted(graph.path_nodes)

    per_rep = [summary_metrics(ledger, path_nodes) for ledger in ledgers]
    with _csv_writer(outdir / "summary.csv", ["replication", "metric", "value"]) as writer:
        for i, metrics in enumerate(per_rep):
            writer.writerows((i, name, "" if value is None else fmt(value))
                             for name, value in metrics.items())
        for name in per_rep[0]:
            mean, std = _mean_std([m[name] for m in per_rep])
            writer.writerow(("mean", name, "" if mean is None else fmt(mean)))
            writer.writerow(("std", name, "" if std is None else fmt(std)))

    with _csv_writer(outdir / "daily_trends.csv",
                     ["replication", "object_class", "hour", "mean_live_count"]) as writer:
        for i, ledger in enumerate(ledgers):
            counts = ledger.live_count_by_hour()
            writer.writerows((i, cls, hour, fmt(counts.get((cls, hour), 0.0)))
                             for cls in ledger.object_classes for hour in range(24))

    with _csv_writer(outdir / "arrivals_by_node_hour.csv",
                     ["replication", "node", "hour", "true_count", "observed_count"]) as writer:
        for i, ledger in enumerate(ledgers):
            true, observed = ledger.true_arrivals, ledger.observed_arrivals
            # one sorted list of the keys, and no union set beside it
            keys = sorted(chain(true, (key for key in observed if key not in true)))
            writer.writerows((i, node, hour, true[(node, hour)], observed[(node, hour)])
                             for node, hour in keys)

    with _csv_writer(outdir / "heatmap.csv",
                     ["replication", "node", "x", "y", "observations"]) as writer:
        for i, ledger in enumerate(ledgers):
            heatmap = ledger.heatmap
            for node in path_nodes:
                x, y = graph.node_position(node)
                writer.writerow([i, node, fmt(x), fmt(y), heatmap[node]])

    with _csv_writer(outdir / "node_gaps.csv", ["replication", "node", "mean_gap_s"]) as writer:
        for i, ledger in enumerate(ledgers):
            writer.writerows((i, node, fmt(gap))
                             for node, gap in ledger.inter_observation_stats().items())

    with _csv_writer(outdir / "tasks.csv", ["replication", "task", "t_issued", "t_assigned",
                                            "t_pred", "t_completed", "signed_delay"]) as writer:
        for i, ledger in enumerate(ledgers):
            for task in ledger.tasks:
                delay = signed_task_delay(task)
                writer.writerow([
                    i, task.id, fmt(task.t_issued), fmt(task.t_assigned),
                    fmt(task.t_pred), fmt(task.t_completed),
                    "" if delay is None else fmt(delay),
                ])
