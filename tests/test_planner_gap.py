"""scripts/planner_gap.py: the paired comparison of the two planner modes."""

import re
import sys

import pytest
from scipy import stats

from conftest import load_script

gap = load_script("planner_gap")


def run_main(monkeypatch, capsys, *args):
    monkeypatch.setattr(sys, "argv", ["planner_gap.py", *args])
    gap.main()
    return capsys.readouterr().out


def test_t_quantile_matches_scipy():
    # tabled to 30 degrees of freedom, and by its expansion beyond
    for df in [*range(1, 41), 60, 120, 1000]:
        assert gap.t975(df) == pytest.approx(stats.t.ppf(0.975, df), abs=5e-4), df


def test_paired_differences_and_their_interval(monkeypatch, capsys):
    out = run_main(monkeypatch, capsys, "--cols", "10", "--rows", "6", "--days", "0.25",
                   "--warmup-hours", "1", "--replications", "3")
    diffs = [float(d) for d in re.findall(r"rep +\d+: observed - static = (\S+) pp", out)]
    assert len(diffs) == 3
    (paired,) = [line for line in out.splitlines() if line.startswith("  paired: ")]
    mean, width = map(float, re.search(r"= (\S+) \+/- (\S+) pp", paired).groups())
    interval = stats.t.interval(0.95, len(diffs) - 1, loc=sum(diffs) / 3, scale=stats.sem(diffs))
    assert mean == pytest.approx(sum(diffs) / 3, abs=2e-3)
    assert width == pytest.approx((interval[1] - interval[0]) / 2, abs=2e-3)
    assert "over 3 pair(s), 0 skipped" in paired


def test_replication_without_tasks_is_skipped_and_counted(monkeypatch, capsys):
    # no task lands in the window, so neither mode has a delay to pair
    out = run_main(monkeypatch, capsys, "--days", "0.1", "--warmup-hours", "1",
                   "--task-rate", "0.0001")
    assert "mean |d| = n/a over 0 tasks" in out
    assert "  paired: observed - static = n/a +/- n/a pp (95% t) over 0 pair(s), 1 skipped" in out
