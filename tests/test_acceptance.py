"""Acceptance gate: twelve end-to-end criteria with pinned tolerances.

Each test prints one PASS/FAIL line directly to the terminal (bypassing
capture) so the gate's status is readable from any pytest run.
"""

import importlib.resources
import itertools
import math
import time

import networkx as nx
import numpy as np
import pytest
from scipy import stats

from scenesim.agents import node_velocity
from scenesim.cli import main as cli_main
from scenesim.config import FleetConfig, SimConfig, TaskSpec
from scenesim.graph import ObjectNode, ObservedGraph, PathNode, PoiNode, SceneGraph, up_to_date
from scenesim.kernel import EXPIRY, SPAWN, SimState, run_replications
from scenesim.processes import ProcessSpec
from scenesim.routing import astar
from scenesim.stochastic import RandomStream, RateProfile, next_nhpp_interarrival
from scenesim.synthetic import grid_scenario, line_scenario
from conftest import id_adjacency, indexed_graph, mean_live, node_penalty

HOUR = 3600.0
DAY = 86400.0
ALL_PLACES = frozenset({"housing", "retail", "work", "education"})
DATA = importlib.resources.files("scenesim") / "data"


def report(capsys, number, description, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    with capsys.disabled():
        print(f"\n[{tag}] criterion {number:02d}: {description}{suffix}")
    assert ok, f"criterion {number}: {description}{suffix}"


# -- 1: determinism ----------------------------------------------------------------


def test_01_determinism(tmp_path, capsys):
    scenario = str(DATA / "micro_scenario.json")
    config = str(DATA / "micro_config.yaml")
    started = time.perf_counter()
    for name in ("a", "b"):
        code = cli_main(["run", scenario, config, "--out", str(tmp_path / name),
                         "--seed", "7", "--trace"])
        assert code == 0
    elapsed = time.perf_counter() - started

    def digest(out):
        blobs = [p.read_bytes() for p in sorted(out.glob("trace_*.ndjson"))]
        csvs = [[line for line in p.read_text().splitlines() if ",rtf," not in line]
                for p in sorted(out.glob("*.csv"))]
        return blobs, csvs

    same = digest(tmp_path / "a") == digest(tmp_path / "b")
    report(capsys, 1, "same seed gives byte-identical traces and summary",
           same and elapsed < 10.0, f"{elapsed:.1f}s")


# -- 2: event kernel vs fixed-step oracle ----------------------------------------------


def test_02_tick_oracle(capsys, scripted_stream):
    horizon = 2000.0
    interarrivals = [7.0, 13.0, 5.0, 41.0, 3.0, 97.0, 11.0, 251.0, 2.0,
                     173.0, 19.0, 307.0, 23.0, 89.0, 131.0]
    lifetimes = [50.0, 200.0, 12.0, 500.0, 75.0, 30.0, 999.0, 40.0, 8.0,
                 120.0, 61.0, 340.0, 17.0, 260.0, 90.0]
    scenario = line_scenario(5, capacity={"car": 100}, pois=((2, "housing"),))
    config = SimConfig(
        processes=[ProcessSpec("cars", frozenset({"housing"}), frozenset({"car"}),
                               RateProfile.constant(1.0), footprint_area=1.0,
                               lifetime_mean=HOUR)],
        tasks=[], fleet=FleetConfig(count=0), duration=horizon, warmup=0.0)
    state = SimState(scenario, config, seed=1)
    (inst,) = state.instances
    inst.stream = scripted_stream(interarrivals, lifetimes)
    events = []
    state.trace = lambda t, k, p: events.append((t, k))
    state.run()

    spawn_times = list(itertools.accumulate(interarrivals))
    windows = list(zip(spawn_times, (s + l for s, l in zip(spawn_times, lifetimes))))
    mismatches = 0
    for tick in range(int(horizon) + 1):
        t = float(tick)
        oracle = sum(1 for s, e in windows if s <= t < e)
        des = (sum(1 for et, k in events if k == SPAWN and et <= t)
               - sum(1 for et, k in events if k == EXPIRY and et <= t))
        mismatches += des != oracle
    report(capsys, 2, "event-driven live counts match 1 s fixed-step oracle exactly",
           mismatches == 0, f"{mismatches} mismatched ticks")


# -- 3: thinning recovers the rate profile -------------------------------------------


def test_03_rate_recovery(capsys):
    rates = (0, 0, 4, 5, 6, 8, 10, 12, 11, 9, 8, 7,
             6, 6, 7, 8, 10, 12, 11, 8, 6, 5, 4, 4)
    profile = RateProfile(rates)
    stream = RandomStream(20240, "recovery")
    days = 1667  # 40,008 simulated hours, 1,667 occurrences of each bin
    horizon = days * DAY
    counts = [0] * 24
    started = time.perf_counter()
    t = 0.0
    while True:
        t += next_nhpp_interarrival(profile, t, stream)
        if t >= horizon:
            break
        counts[int((t % DAY) // HOUR)] += 1
    elapsed = time.perf_counter() - started

    worst = 0.0
    zeros_ok = True
    for hour, rate in enumerate(rates):
        if rate == 0:
            zeros_ok &= counts[hour] == 0
        else:
            worst = max(worst, abs(counts[hour] / (rate * days) - 1.0))
    report(capsys, 3, "40k-hour arrival counts recover every nonzero hourly rate",
           zeros_ok and worst <= 0.03 and elapsed < 60.0,
           f"worst {100 * worst:.2f}% rel err, {elapsed:.1f}s")


# -- 4: population balance ---------------------------------------------------------


def test_04_population_balance(capsys):
    # lambda = 0.01/s aggregate, mean lifetime 10,000 s -> 100 expected live
    scenario = line_scenario(5, capacity={"car": 10_000}, pois=((2, "housing"),))
    config = SimConfig(
        processes=[ProcessSpec("cars", frozenset({"housing"}), frozenset({"car"}),
                               RateProfile.constant(36.0), footprint_area=1.0,
                               lifetime_mean=10_000.0)],
        tasks=[], fleet=FleetConfig(count=0),
        duration=50 * DAY, warmup=2 * DAY, seed=6)
    state = SimState(scenario, config, seed=6)
    state.run()
    mean = mean_live(state.ledger, "car")
    report(capsys, 4, "long-run live population within 5% of the balance target",
           abs(mean / 100.0 - 1.0) <= 0.05, f"mean {mean:.2f} vs 100")


# -- 5: observation merge properties ------------------------------------------------


def test_05_merge_properties(capsys):
    rng = RandomStream(99, "merge-acceptance")
    cases = failures = 0
    grids = [grid_scenario(3 + g % 3, 3 + g // 3, spacing=15.0,
                           capacity={"car": 3}) for g in range(6)]
    for case in range(1000):
        base = grids[case % len(grids)]
        truth = base.dynamic_copy()
        node_ids = sorted(truth.path_nodes)
        for k in range(int(rng.uniform() * 8)):
            nid = node_ids[int(rng.uniform() * len(node_ids))]
            try:
                truth.attach_object(ObjectNode(f"o{k}", "car", 0.0, 1.0, 1.0, nid))
            except Exception:
                pass  # node at capacity; density is incidental here
        belief = ObservedGraph(truth)
        center = truth.node_position(node_ids[int(rng.uniform() * len(node_ids))])
        radius = rng.uniform() * 40.0
        obs = truth.radius_subgraph(center, radius)

        belief.merge_observation(obs)
        snapshot = {n: frozenset(belief.objects_at.get(n, set())) for n in node_ids}
        belief.merge_observation(obs)
        after = {n: frozenset(belief.objects_at.get(n, set())) for n in node_ids}
        idempotent = snapshot == after
        local = all(not snapshot[n] for n in node_ids if n not in obs.path_nodes)
        seen_ok = all(up_to_date(belief, truth, n) for n in obs.path_nodes)

        full = truth.radius_subgraph(center, math.inf)
        belief.merge_observation(full)
        converged = all(up_to_date(belief, truth, n) for n in node_ids)

        cases += 1
        failures += not (idempotent and local and seen_ok and converged)
    report(capsys, 5, "merge idempotence/locality/convergence on 1000 random cases",
           cases >= 1000 and failures == 0, f"{failures} failures")


# -- 6: planner against reference shortest paths ------------------------------------


def make_random_routing_case(seed):
    rng = RandomStream(seed, "astar-acceptance")
    n = 5 + int(rng.uniform() * 45)
    positions = {f"q{i:02d}": (rng.uniform() * 200, rng.uniform() * 200)
                 for i in range(n)}
    nodes = sorted(positions)
    adjacency = {nid: [] for nid in nodes}
    G = nx.DiGraph()
    penalties = {nid: (math.inf if rng.uniform() < 0.05 else rng.uniform() * 30)
                 for nid in nodes}
    edges = [(nodes[i], nodes[i + 1]) for i in range(n - 1)]
    edges += [(nodes[int(rng.uniform() * n)], nodes[int(rng.uniform() * n)])
              for _ in range(2 * n)]
    for u, v in edges:
        if u == v:
            continue
        length = math.dist(positions[u], positions[v]) * (1.0 + rng.uniform())
        adjacency[u].append((v, length))
        adjacency[v].append((u, length))
        for a, b in ((u, v), (v, u)):
            w = length + penalties[b]
            if not math.isinf(w) and (not G.has_edge(a, b) or G[a][b]["weight"] > w):
                G.add_edge(a, b, weight=w)
    return adjacency, positions, penalties, G, nodes


def test_06_planner_oracle(capsys):
    mismatches = 0
    for seed in range(500):
        adjacency, positions, penalties, G, nodes = make_random_routing_case(seed)
        src, dst = nodes[0], nodes[-1]
        try:
            expected = nx.dijkstra_path_length(G, src, dst)
        except (nx.NetworkXNoPath, nx.NodeNotFound):
            expected = None
        # names in sorted order are the indices 0..n-1 that astar reads
        in_edges, positions, costs = indexed_graph(adjacency, positions, penalties)
        try:
            _, cost = astar(in_edges, positions, 0, len(nodes) - 1, 1.0, costs.__getitem__)
        except Exception:
            cost = None
        if expected is None:
            mismatches += cost is not None
        else:
            mismatches += cost is None or abs(cost - expected) > 1e-9
    report(capsys, 6, "A* cost equals reference Dijkstra on 500 random graphs",
           mismatches == 0, f"{mismatches} mismatches")


# -- 7: slowdown arithmetic ---------------------------------------------------------


def test_07_slowdown_arithmetic(capsys):
    node = PathNode("n", 0, 0, "sidewalk", {}, segment_length=10.0,
                    sidewalk_width=2.0)
    ok = (node_velocity(node, 7.5, 0.5, 1.0) == 0.5
          and node_penalty(node, 7.5, 0.5, 1.0) == 10.0
          and node_velocity(node, 15.0, 0.5, 1.0) == 0.0
          and node_penalty(node, 15.0, 0.5, 1.0) == math.inf)
    report(capsys, 7, "worked slowdown example (10 s penalty) and blocked clamp", ok)


# -- 8: planner gap -----------------------------------------------------------------


def test_08_planner_gap(capsys):
    scenario = grid_scenario(20, 10, spacing=20.0)  # 200 path nodes
    started = time.perf_counter()
    delays = {}
    for mode in ("static", "observed"):
        config = SimConfig(
            processes=[ProcessSpec("cars", ALL_PLACES, frozenset({"car"}),
                                   RateProfile.constant(1.0), footprint_area=4.0,
                                   lifetime_mean=8 * HOUR)],
            tasks=[TaskSpec("deliveries", ALL_PLACES, RateProfile.constant(0.1))],
            fleet=FleetConfig(count=3, sensor_radius=45.0, planner_mode=mode),
            duration=4 * DAY, warmup=24 * HOUR, seed=1)
        (ledger,) = run_replications(scenario, config, 1, config.seed)
        delays[mode] = ledger.mean_task_delay_pct()
    elapsed = time.perf_counter() - started
    ratio = delays["static"] / delays["observed"]
    report(capsys, 8, "static planner error >= 5x observed, observed < 2%",
           ratio >= 5.0 and delays["observed"] < 2.0 and elapsed < 300.0,
           f"static {delays['static']:.2f}%, observed {delays['observed']:.2f}%, "
           f"{ratio:.1f}x, {elapsed:.0f}s")


# -- 9: daily trend -----------------------------------------------------------------


def test_09_daily_trend(capsys):
    # hourly samples reflect the interval before the sample instant, so the
    # night plateau (rates 6 at hours 22-05) extends through the hour-6 bin
    night_bins = {21, 22, 23, 0, 1, 2, 3, 4, 5, 6}
    midday_bins = {12, 13, 14, 15}
    rates = (6, 6, 6, 6, 6, 6, 5, 4, 3, 2, 1, 0.5,
             0.5, 0.5, 0.5, 1, 2, 3, 4, 5, 6, 6, 6, 6)
    config = SimConfig(
        processes=[ProcessSpec("cars", ALL_PLACES, frozenset({"car"}),
                               RateProfile(rates), footprint_area=1.0,
                               lifetime_mean=900.0)],
        tasks=[], fleet=FleetConfig(count=0),
        duration=15 * DAY, warmup=1 * DAY, seed=11)
    ledgers = run_replications(grid_scenario(8, 8), config, 5, 11)
    shape_ok = []
    for ledger in ledgers:
        counts = ledger.live_count_by_hour()
        curve = {h: counts.get(("car", h), 0.0) for h in range(24)}
        peak = max(curve, key=curve.get)
        trough = min(curve, key=curve.get)
        shape_ok.append(peak in night_bins and trough in midday_bins)
    report(capsys, 9, "live-count curve peaks at night, bottoms at midday (5 reps)",
           all(shape_ok), f"{sum(shape_ok)}/5 replications")


# -- 10: partial observability -------------------------------------------------------


def corridor_scenario():
    g = SceneGraph()
    cap = {"car": 50, "bicycle": 50, "trashcan": 50}
    for i in range(11):
        g.add_path_node(PathNode(f"v{i:02d}", 10.0 * i, 0.0, "sidewalk",
                                 dict(cap), 10.0, 2.0))
    for j in range(1, 4):
        g.add_path_node(PathNode(f"s{j}", 50.0, -10.0 * j, "sidewalk",
                                 dict(cap), 10.0, 2.0))
    for i in range(10):
        g.add_adjacency_edge(f"v{i:02d}", f"v{i + 1:02d}", 10.0)
    g.add_adjacency_edge("v05", "s1", 10.0)
    g.add_adjacency_edge("s1", "s2", 10.0)
    g.add_adjacency_edge("s2", "s3", 10.0)
    g.add_poi_node(PoiNode("depot", 0.0, 5.0, "work", is_depot=True))
    g.add_poi_node(PoiNode("dest", 100.0, 5.0, "retail"))
    g.add_poi_node(PoiNode("srcA", 50.0, 5.0, "housing"))
    g.add_poi_node(PoiNode("srcB", 55.0, -30.0, "housing"))
    g.add_access_edge("depot", "v00", 5.0)
    g.add_access_edge("dest", "v10", 5.0)
    g.add_access_edge("srcA", "v05", 5.0)
    g.add_access_edge("srcB", "s3", 5.0)
    g.freeze_static()
    return g


def test_10_partial_observability(capsys):
    # identical spawn profiles at a corridor node (v05, on the depot->dest
    # route) and a peripheral node (s3, on a spur agents never traverse)
    config = SimConfig(
        processes=[ProcessSpec("cars", frozenset({"housing"}), frozenset({"car"}),
                               RateProfile.constant(2.0), footprint_area=0.5,
                               lifetime_mean=1800.0)],
        tasks=[TaskSpec("deliveries", frozenset({"retail"}),
                        RateProfile.constant(2.0))],
        fleet=FleetConfig(count=1, sensor_radius=15.0),
        duration=20 * DAY, warmup=1 * DAY, seed=5)
    state = SimState(corridor_scenario(), config, 5)
    state.run()
    ledger = state.ledger
    true_a = np.array([ledger.true_arrivals[("v05", h)] for h in range(24)])
    true_b = np.array([ledger.true_arrivals[("s3", h)] for h in range(24)])
    obs_a = sum(v for (n, _), v in ledger.observed_arrivals.items() if n == "v05")
    obs_b = sum(v for (n, _), v in ledger.observed_arrivals.items() if n == "s3")
    _, p, _, _ = stats.chi2_contingency(np.vstack([true_a, true_b]))
    mass_ratio = obs_a / max(obs_b, 1)
    report(capsys, 10, "corridor node captures >= 3x observed arrival mass",
           p > 0.01 and mass_ratio >= 3.0,
           f"true {true_a.sum()} vs {true_b.sum()} (p={p:.2f}), "
           f"observed {obs_a} vs {obs_b}")


# -- 11: importer golden structure ----------------------------------------------------


def test_11_importer_golden(tmp_path, capsys):
    from test_osm import golden_extract, osm_xml
    from scenesim.osm import import_osm

    src = tmp_path / "golden.osm"
    src.write_text(golden_extract())
    graph = import_osm(src, center=(0.0, 0.0), radius=200.0, max_segment=20.0)
    golden_ok = (
        sorted(graph.path_nodes) == ["n1", "n2", "w10s0i1", "w10s0i2"]
        and sorted(graph.poi_nodes) == ["p20"]
        and graph.depot_id == "p20"
        and graph.poi_nodes["p20"].semantic_class == "housing"
        and graph.access["p20"] == "w10s0i1"
        and sum(len(v) for v in id_adjacency(graph).values()) == 6
    )

    nodes = {i: (float(10 * i), 0.0) for i in range(1, 5)}
    nodes.update({8: (0.0, 50.0), 9: (10.0, 50.0), 100: (5.0, 5.0, {"building": "house"})})
    ways = {10: ([1, 2, 3, 4], {"highway": "footway"}),
            11: ([8, 9], {"highway": "footway"})}
    two = tmp_path / "components.osm"
    two.write_text(osm_xml(nodes, ways))
    pruned = import_osm(two, center=(0.0, 0.0), radius=200.0)
    pruning_ok = sorted(pruned.path_nodes) == ["n1", "n2", "n3", "n4"]

    report(capsys, 11, "golden extracts yield exact node/PoI/depot/component structure",
           golden_ok and pruning_ok)


# -- 12: performance ------------------------------------------------------------------


def perf_case(cols, rows, total_rate_per_hour):
    scenario = grid_scenario(cols, rows)
    pois = len(scenario.poi_nodes) - 1
    config = SimConfig(
        processes=[ProcessSpec("cars", ALL_PLACES, frozenset({"car"}),
                               RateProfile.constant(total_rate_per_hour / pois),
                               footprint_area=1.0, lifetime_mean=600.0)],
        tasks=[], fleet=FleetConfig(count=0),
        duration=2 * HOUR, warmup=0.0, seed=1)
    return scenario, config


def test_12_performance(capsys):
    # ~5,000 nodes at an aggregate 3 spawns/h/node must sustain RTF >= 50;
    # doubling the graph under the same total workload must cost less than a
    # 2x RTF drop (wall clock here is noisy, hence best-of-3 interleaved)
    total_rate = 3.0 * 5041
    cases = {"small": perf_case(71, 71, total_rate),
             "large": perf_case(100, 100, total_rate)}
    best = {"small": 0.0, "large": 0.0}
    for _ in range(3):
        for name, (scenario, config) in cases.items():
            state = SimState(scenario, config, 1)
            state.run()
            best[name] = max(best[name], state.rtf)
    ratio = best["small"] / best["large"]
    report(capsys, 12, "RTF >= 50 at ~5k nodes; sub-2x drop at 2x nodes",
           best["small"] >= 50.0 and ratio < 2.0,
           f"rtf {best['small']:.0f} -> {best['large']:.0f}, ratio {ratio:.2f}")
