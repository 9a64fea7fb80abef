"""Command-line interface: exit codes, outputs, reproducibility."""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import scenesim
from scenesim.agents import PLANNER_MODES
from scenesim.cli import build_parser, main
from scenesim.errors import ValidationError, ZeroRate
from scenesim.kernel import SimState, run_replications
from scenesim.scenario import config_from_dict, load_config, load_scenario, save_scenario
from scenesim.synthetic import grid_scenario

CONFIG_YAML = """\
processes:
  - name: cars
    source_classes: [housing, retail]
    object_classes: [car]
    hourly_rates: [2, 2, 2, 2, 2, 2, 1, 1, 1, 1, 1, 1,
                   1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2]
    footprint_area: 2.0
    lifetime_mean: 3600.0

tasks:
  - name: visits
    place_classes: [housing]
    hourly_rates: [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
                   1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1]

fleet:
  count: 1

sim:
  duration_days: 0.5
  warmup_hours: 1
  replications: 1
  seed: 3
"""


@pytest.fixture()
def workspace(tmp_path):
    scenario = tmp_path / "scenario.json"
    save_scenario(grid_scenario(4, 4), scenario)
    config = tmp_path / "config.yaml"
    config.write_text(CONFIG_YAML)
    return tmp_path, scenario, config


def read_outputs(outdir, skip_rtf=True):
    """All CSV bytes, with the wall-clock-dependent rtf rows removed."""
    blobs = {}
    for path in sorted(outdir.glob("*.csv")):
        lines = path.read_text().splitlines()
        if skip_rtf:
            lines = [l for l in lines if ",rtf," not in l]
        blobs[path.name] = "\n".join(lines)
    return blobs


class TestValidate:
    def test_valid_pair_exits_zero(self, workspace, capsys):
        _, scenario, config = workspace
        assert main(["validate", str(scenario), str(config)]) == 0
        out = capsys.readouterr().out
        assert "ok" in out

    def test_invalid_scenario_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"classes": {}, "path_nodes": [],
                                   "poi_nodes": [], "edges": []}))
        assert main(["validate", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["segment_length", "sidewalk_width"])
    def test_non_finite_geometry_exits_two(self, workspace, capsys, field):
        _, scenario, _ = workspace
        data = json.loads(scenario.read_text())
        data["path_nodes"][0][field] = float("nan")
        scenario.write_text(json.dumps(data))  # written as the NaN token
        assert main(["validate", str(scenario)]) == 2
        assert (f"error: path_nodes[0].{field}: must be positive and finite\n"
                in capsys.readouterr().err)

    def test_unparseable_scenario_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert main(["validate", str(bad)]) == 1

    @pytest.mark.parametrize("which", ["scenario", "config"])
    def test_missing_file_exits_one(self, workspace, capsys, which):
        tmp, scenario, config = workspace
        missing = tmp / "nope"
        args = [str(missing)] if which == "scenario" else [str(scenario), str(missing)]
        assert main(["validate"] + args) == 1
        assert capsys.readouterr().err == f"error: {missing}: No such file or directory\n"

    def test_scenario_not_a_mapping_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2]")
        assert main(["validate", str(bad)]) == 1
        assert capsys.readouterr().err == f"error: {bad}: expected a mapping at top level\n"

    def test_process_not_a_mapping_exits_two(self, workspace, capsys):
        tmp, scenario, _ = workspace
        bad = tmp / "bad.yaml"
        bad.write_text("processes: [5]\n")
        assert main(["validate", str(scenario), str(bad)]) == 2
        assert capsys.readouterr().err == "error: processes[0]: expected a mapping\n"


class TestRun:
    def test_writes_all_csvs(self, workspace):
        tmp, scenario, config = workspace
        out = tmp / "out"
        assert main(["run", str(scenario), str(config), "--out", str(out)]) == 0
        names = {p.name for p in out.iterdir()}
        assert {"summary.csv", "daily_trends.csv", "arrivals_by_node_hour.csv",
                "heatmap.csv", "node_gaps.csv", "tasks.csv"} <= names

    def test_same_seed_byte_identical_outputs(self, workspace):
        tmp, scenario, config = workspace
        outs = []
        for name in ("a", "b"):
            out = tmp / name
            assert main(["run", str(scenario), str(config), "--out", str(out),
                         "--seed", "7"]) == 0
            outs.append(read_outputs(out))
        assert outs[0] == outs[1]

    def test_seed_override_changes_results(self, workspace):
        tmp, scenario, config = workspace
        blobs = {}
        for seed in ("7", "8"):
            out = tmp / f"s{seed}"
            main(["run", str(scenario), str(config), "--out", str(out),
                  "--seed", seed])
            blobs[seed] = read_outputs(out)
        assert blobs["7"] != blobs["8"]

    def test_trace_files_written(self, workspace):
        tmp, scenario, config = workspace
        out = tmp / "out"
        assert main(["run", str(scenario), str(config), "--out", str(out),
                     "--trace", "--replications", "2"]) == 0
        for i in range(2):
            lines = (out / f"trace_{i}.ndjson").read_text().splitlines()
            assert lines
            first = json.loads(lines[0])
            assert {"t", "kind", "payload"} <= set(first)

    def test_trace_files_closed_and_complete(self, workspace):
        tmp, scenario, config = workspace
        out = tmp / "out"
        src = Path(scenesim.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-W", "error::ResourceWarning", "-m", "scenesim.cli",
             "run", str(scenario), str(config), "--out", str(out), "--trace",
             "--replications", "2"],
            capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert "ResourceWarning" not in proc.stderr

        graph = load_scenario(scenario)
        cfg = load_config(config, graph)
        expected = {}

        def counter(i):
            expected[i] = 0

            def trace(t, kind, payload):
                expected[i] += 1
            return trace

        run_replications(graph, cfg, 2, cfg.seed, trace_factory=counter)
        for i in range(2):
            text = (out / f"trace_{i}.ndjson").read_text()
            assert text.endswith("\n")
            records = [json.loads(line) for line in text.splitlines()]
            assert len(records) == expected[i] > 0
            assert all(set(r) == {"t", "kind", "payload"} for r in records)

    def test_trace_writes_a_yaml_date_name_as_text(self, workspace):
        # YAML reads an unquoted 2024-01-01 as a date, which json cannot encode
        tmp, scenario, config = workspace
        config.write_text(CONFIG_YAML.replace("name: cars", "name: 2024-01-01"))
        assert main(["validate", str(scenario), str(config)]) == 0
        out = tmp / "out"
        assert main(["run", str(scenario), str(config), "--out", str(out), "--trace"]) == 0
        records = [json.loads(line)
                   for line in (out / "trace_0.ndjson").read_text().splitlines()]
        spawns = [r["payload"] for r in records if r["kind"] == "spawn"]
        assert spawns and all(p[0] == "2024-01-01" for p in spawns)

    def test_failed_event_exits_one(self, workspace, capsys, monkeypatch):
        # an event handler's simulator error ends the run, naming the event
        def fail(state, t, payload):
            raise ZeroRate("no arrivals left")

        monkeypatch.setattr(SimState, "_handle_task_arrival", fail)
        tmp, scenario, config = workspace
        assert main(["run", str(scenario), str(config), "--out", str(tmp / "o")]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert re.fullmatch(r"error: event #\d+ \(task_arrival at t=.*\) failed: "
                            r"no arrivals left", line)

    def test_unreachable_tasks_are_dropped_with_a_warning(self, workspace, capsys):
        # a 3 m agent cannot use the grid's 2 m sidewalks: every node is
        # blocked to it, so every task is dropped and the run completes
        tmp, scenario, config = workspace
        config.write_text(CONFIG_YAML.replace("  count: 1\n",
                                              "  count: 1\n  agent_width: 3.0\n"))
        out = tmp / "o"
        assert main(["run", str(scenario), str(config), "--out", str(out),
                     "--replications", "2"]) == 0
        err = capsys.readouterr().err.splitlines()
        assert [re.sub(r"\d+ task", "N task", line) for line in err] == [
            f"warning: replication {i}: dropped N task(s) the fleet cannot reach"
            for i in range(2)]
        rows = (out / "summary.csv").read_text().splitlines()
        assert "0,tasks_completed,0" in rows and "1,tasks_completed,0" in rows

    def test_unwritable_output_exits_one(self, workspace, capsys):
        tmp, scenario, config = workspace
        assert main(["run", str(scenario), str(config), "--out", str(config)]) == 1
        assert capsys.readouterr().err == f"error: [Errno 17] File exists: '{config}'\n"

    def test_bad_warmup_override_exits_two(self, workspace, capsys):
        tmp, scenario, config = workspace
        code = main(["run", str(scenario), str(config), "--out",
                     str(tmp / "o"), "--days", "0.1", "--warmup-hours", "5"])
        assert code == 2

    DURATION = "error: sim.duration_days: must be positive and finite"
    WARMUP = "error: sim.warmup_hours: must lie inside the run duration"

    # a bad duration is reported once, not again as the warm-up's bound
    @pytest.mark.parametrize("overrides, sim, expected", [
        (["--warmup-hours", "-2"], {"warmup_hours": "-2"}, [WARMUP]),
        (["--days", "nan"], {"duration_days": ".nan"}, [DURATION]),
        (["--days", "inf"], {"duration_days": ".inf"}, [DURATION]),
        (["--days", "-1"], {"duration_days": "-1"}, [DURATION]),
        (["--days", "-1", "--warmup-hours", "-30"],
         {"duration_days": "-1", "warmup_hours": "-30"}, [DURATION, WARMUP]),
        (["--replications", "0"], {"replications": "0"},
         ["error: sim.replications: must be >= 1"]),
    ], ids=["negative-warmup", "nan-days", "inf-days", "negative-days",
            "negative-both", "zero-replications"])
    def test_invalid_override_rejected_like_config(self, workspace, capsys,
                                                   overrides, sim, expected):
        tmp, scenario, config = workspace
        out = tmp / "o"
        assert main(["run", str(scenario), str(config), "--out", str(out)]
                    + overrides) == 2
        errors = capsys.readouterr().err.splitlines()
        assert errors == expected
        assert not out.exists()

        # the same values in a config file give the same messages
        text = config.read_text()
        for key, value in sim.items():
            text = "\n".join(f"  {key}: {value}" if line.startswith(f"  {key}:")
                             else line for line in text.splitlines())
        bad = tmp / "bad.yaml"
        bad.write_text(text + "\n")
        assert main(["validate", str(scenario), str(bad)]) == 2
        assert capsys.readouterr().err.splitlines() == errors


class TestSample:
    def test_truth_only_run(self, workspace):
        tmp, scenario, config = workspace
        out = tmp / "sample"
        assert main(["sample", str(scenario), str(config), "--out", str(out),
                     "--days", "1"]) == 0
        summary = (out / "summary.csv").read_text()
        assert "tasks_completed,0" in summary
        trends = (out / "daily_trends.csv").read_text()
        assert "car" in trends

    @pytest.mark.parametrize("days", ["-1", "nan", "0"])
    def test_invalid_days_exits_two(self, workspace, capsys, days):
        tmp, scenario, config = workspace
        out = tmp / "sample"
        assert main(["sample", str(scenario), str(config), "--out", str(out),
                     "--days", days]) == 2
        assert "error: sim.duration_days" in capsys.readouterr().err
        assert not out.exists()


class TestScaffolding:
    def test_planner_choices_are_the_modes_the_loader_accepts(self):
        (sub,) = (a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction))
        (planner,) = (a for a in sub.choices["run"]._actions if "--planner" in a.option_strings)
        assert tuple(planner.choices) == PLANNER_MODES == ("static", "observed")
        for mode in planner.choices:
            assert config_from_dict({"fleet": {"planner_mode": mode}}).fleet.planner_mode == mode
        with pytest.raises(ValidationError, match="fleet.planner_mode: unknown 'psychic'"):
            config_from_dict({"fleet": {"planner_mode": "psychic"}})

    def test_init_config_then_validate(self, workspace, capsys):
        tmp, scenario, _ = workspace
        cfg = tmp / "fresh.yaml"
        assert main(["init-config", str(cfg)]) == 0
        assert main(["validate", str(scenario), str(cfg)]) == 0

    def test_import_command(self, tmp_path, capsys):
        from test_osm import golden_extract

        src = tmp_path / "extract.osm"
        src.write_text(golden_extract())
        out = tmp_path / "scenario.json"
        code = main(["import", str(src), str(out), "--center", "0", "0",
                     "--radius", "200", "--max-segment", "20"])
        assert code == 0
        graph = load_scenario(out)
        assert len(graph.path_nodes) == 4
        assert graph.depot_id == "p20"

    @pytest.mark.parametrize("options, faults", [
        (["--max-segment", "0"], ["max_segment: must be positive, got 0.0"]),
        (["--max-segment", "nan"], ["max_segment: must be positive, got nan"]),
        (["--max-segment", "-5"], ["max_segment: must be positive, got -5.0"]),
        (["--sidewalk-width", "0"], ["sidewalk_width: must be positive and finite, got 0.0"]),
        (["--sidewalk-width", "-1"], ["sidewalk_width: must be positive and finite, got -1.0"]),
        (["--sidewalk-width", "nan"], ["sidewalk_width: must be positive and finite, got nan"]),
        (["--sidewalk-width", "inf"], ["sidewalk_width: must be positive and finite, got inf"]),
        (["--max-segment=-inf", "--sidewalk-width", "0"],
         ["max_segment: must be positive, got -inf",
          "sidewalk_width: must be positive and finite, got 0.0"]),
        (["--center", "nan", "0"], ["center: longitude must be finite, got nan"]),
        (["--center", "inf", "0"], ["center: longitude must be finite, got inf"]),
        (["--center", "0", "91"], ["center: latitude must lie in (-90, 90), got 91.0"]),
        (["--center", "0", "-90"], ["center: latitude must lie in (-90, 90), got -90.0"]),
        (["--center", "0", "nan"], ["center: latitude must lie in (-90, 90), got nan"]),
        (["--radius", "nan"], ["radius: must not be negative, got nan"]),
        (["--radius", "-1"], ["radius: must not be negative, got -1.0"]),
        (["--center", "inf", "91", "--radius=-inf"],
         ["center: longitude must be finite, got inf",
          "center: latitude must lie in (-90, 90), got 91.0",
          "radius: must not be negative, got -inf"]),
        (["--center", "nan", "0", "--radius", "-1", "--max-segment", "0"],
         ["center: longitude must be finite, got nan",
          "radius: must not be negative, got -1.0",
          "max_segment: must be positive, got 0.0"]),
    ])
    def test_bad_import_parameter_exits_two(self, tmp_path, capsys, options, faults):
        # the extract does not exist: the parameters are checked before it is read
        out = tmp_path / "s.json"
        assert main(["import", str(tmp_path / "nope.osm"), str(out), "--center", "0", "0",
                     "--radius", "200", *options]) == 2
        assert capsys.readouterr().err == "".join(f"error: {fault}\n" for fault in faults)
        assert not out.exists()

    @pytest.mark.parametrize("attribute", [
        'lon="1e308"', 'lon="abc"', 'lon="nan"', 'lon="-inf"', "",  # "": no lon at all
    ])
    def test_node_without_a_finite_position_exits_one(self, tmp_path, capsys, attribute):
        # 1e308 degrees projects to an infinite x; each is one error naming the node
        from test_osm import golden_extract

        src = tmp_path / "extract.osm"
        src.write_text(re.sub(r'(<node id="3") lon="[^"]*"', rf"\1 {attribute}",
                              golden_extract()))
        out = tmp_path / "scenario.json"
        assert main(["import", str(src), str(out), "--center", "0", "0",
                     "--radius", "inf"]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: {src}: node '3' has no finite position (lon=")
        assert not out.exists()

    def test_infinite_max_segment_interpolates_nothing(self, tmp_path):
        from test_osm import golden_extract

        src = tmp_path / "extract.osm"
        src.write_text(golden_extract())
        out = tmp_path / "scenario.json"
        assert main(["import", str(src), str(out), "--center", "0", "0",
                     "--radius", "200", "--max-segment", "inf"]) == 0
        assert sorted(load_scenario(out).path_nodes) == ["n1", "n2"]

    def test_missing_extract_exits_one(self, tmp_path, capsys):
        missing = tmp_path / "nope.osm"
        assert main(["import", str(missing), str(tmp_path / "s.json"), "--center",
                     "0", "0", "--radius", "200"]) == 1
        assert (capsys.readouterr().err
                == f"error: [Errno 2] No such file or directory: '{missing}'\n")
