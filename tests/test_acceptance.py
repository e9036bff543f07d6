"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import math
import random
import statistics
import time
from pathlib import Path

from tsgn import (
    ForestConfig,
    build_directed_tsgn,
    build_multiple_tsgn,
    build_temporal_tsgn,
    build_tsgn,
    concat_features,
    evaluate,
    f1_score,
    feature_matrix,
    generate_synthetic_dataset,
    handcrafted_features,
    map_weight,
    percent_increase,
)
from tsgn.cli import main

import numpy as np

from oracles import (
    edge_pairs,
    generate_dense_star_graphs,
    TIME_VIOLATING_PAIRS,
    feature_oracle,
    star_with_neighbor_trades_pairs,
    star_with_neighbor_trades,
    time_filtered_flow_graph,
    two_transaction_chains,
    head_to_tail_pairs,
    is_dag,
    random_digraph,
    random_multigraph,
    random_undirected_graph,
    rows_of,
    shared_endpoint_pairs,
    time_ordered_pairs,
)


def _criterion(name: str, ok: bool, detail: str = ""):
    line = f"{'PASS' if ok else 'FAIL'}: {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, f"{name}: {detail}"


def test_mapping_oracle_suite():
    started = time.perf_counter()
    rnd = random.Random(2024)
    mismatches = 0
    for _ in range(1000):
        g = random_undirected_graph(rnd)
        if edge_pairs(build_tsgn(g)) != frozenset(shared_endpoint_pairs(rows_of(g))):
            mismatches += 1
    for _ in range(1000):
        g = random_digraph(rnd)
        if edge_pairs(build_directed_tsgn(g)) != frozenset(head_to_tail_pairs(rows_of(g))):
            mismatches += 1
    for _ in range(1000):
        g = random_digraph(rnd, temporal=True)
        if edge_pairs(build_temporal_tsgn(g)) != frozenset(time_ordered_pairs(rows_of(g))):
            mismatches += 1
    for _ in range(1000):
        g = random_multigraph(rnd)
        if edge_pairs(build_multiple_tsgn(g)) != frozenset(time_ordered_pairs(rows_of(g))):
            mismatches += 1
    elapsed = time.perf_counter() - started
    _criterion(
        "mapping oracle suite (4 x 1000 random graphs, exact set equality)",
        mismatches == 0 and elapsed < 60.0,
        f"mismatches={mismatches}, {elapsed:.1f}s",
    )


def test_worked_examples():
    tsgn_ok = edge_pairs(build_tsgn(star_with_neighbor_trades())) == frozenset(star_with_neighbor_trades_pairs())

    flows = time_filtered_flow_graph()
    directed = edge_pairs(build_directed_tsgn(flows))
    temporal = edge_pairs(build_temporal_tsgn(flows))
    filter_ok = TIME_VIOLATING_PAIRS <= directed and directed - temporal == TIME_VIOLATING_PAIRS

    chains = two_transaction_chains()
    counts = {k: build_temporal_tsgn(g).edge_count for k, g in chains.items()}
    chains_ok = counts == {"a": 1, "b": 0, "c": 0, "d": 0}

    _criterion(
        "worked examples (star adjacency, 3 dropped flow pairs, 4 orientation chains)",
        tsgn_ok and filter_ok and chains_ok,
        f"star={tsgn_ok}, exclusions={filter_ok}, chains={counts}",
    )


def test_structural_invariants():
    rnd = random.Random(77)
    violations = 0
    for _ in range(10_000):
        g = random_digraph(rnd, max_nodes=7, temporal=True)
        directed = build_directed_tsgn(g)
        temporal = build_temporal_tsgn(g)
        if not edge_pairs(temporal) <= edge_pairs(directed):
            violations += 1
        if not is_dag(range(temporal.node_count), edge_pairs(temporal)):
            violations += 1
        multi = build_multiple_tsgn(g)  # simple input is the degenerate multi case
        if not is_dag(range(multi.node_count), edge_pairs(multi)):
            violations += 1
    for _ in range(2_000):
        g = random_multigraph(rnd, max_nodes=7)
        multi = build_multiple_tsgn(g)
        if not is_dag(range(multi.node_count), edge_pairs(multi)):
            violations += 1
    _criterion(
        "structural invariants (DAG + containment on 10,000 temporal graphs)",
        violations == 0,
        f"violations={violations}",
    )


def test_weight_mapping_properties():
    exact_zero = map_weight(0.0, 0.0) == 0.0
    log_value = abs(map_weight(2 * math.e, 0.0) - 1.0) <= 1e-12

    rnd = random.Random(5)
    pairs = [(rnd.uniform(0, 100), rnd.uniform(0, 100)) for _ in range(10_000)]
    symmetric = all(map_weight(a, b) == map_weight(b, a) for a, b in pairs)
    by_sum = sorted(pairs, key=lambda p: p[0] + p[1])
    values = [map_weight(a, b) for a, b in by_sum if a + b > 0]
    monotone = all(x <= y for x, y in zip(values, values[1:]))

    _criterion(
        "weight mapping properties (zero pair, symmetry, monotonicity, ln value)",
        exact_zero and log_value and symmetric and monotone,
        f"zero={exact_zero}, ln={log_value}, sym={symmetric}, mono={monotone}",
    )


def test_metric_checks():
    pct_ok = (
        abs(percent_increase(85.88, 80.36) - 6.87) <= 0.01
        and abs(percent_increase(94.90, 90.47) - 4.90) <= 0.01
    )
    f1_ok = (
        f1_score(["p", "n"], ["p", "n"], "p") == 1.0
        and f1_score([1, 0, 1, 0], [1, 1, 0, 0], 1) == 0.5
        and f1_score([0, 0], [1, 1], 1) == 0.0
    )
    _criterion(
        "metric checks (percent increase within 0.01, F1 unit cases exact)",
        pct_ok and f1_ok,
        f"pct={pct_ok}, f1={f1_ok}",
    )


def test_feature_oracle():
    rnd = random.Random(31415)
    worst = 0.0
    for _ in range(500):
        g = random_undirected_graph(rnd)
        diff = np.abs(handcrafted_features(g) - feature_oracle(g)).max()
        worst = max(worst, float(diff))
    _criterion(
        "feature oracle (10 features vs exhaustive BFS/dense eigensolve, 500 graphs)",
        worst <= 1e-6,
        f"max abs diff={worst:.2e}",
    )


def test_end_to_end_classification():
    started = time.perf_counter()
    seed = 20250808
    manifest = generate_synthetic_dataset(
        "etherg1", n_per_class=350, seed=seed, tier="directed"
    )
    labels = manifest.labels
    tn = feature_matrix(manifest.graphs, labels, variant="tn")
    mapped = [build_temporal_tsgn(g) for g in manifest.graphs]
    ttsgn = feature_matrix(mapped, labels, variant="ttsgn")
    config = ForestConfig(n_trees=100, seed=seed)
    tn_report = evaluate(tn, config, n_repeats=100, dataset_name="etherg1", variant="tn")
    fused_report = evaluate(
        concat_features(tn, ttsgn),
        config,
        n_repeats=100,
        pca_dim=len(tn.columns),
        dataset_name="etherg1",
        variant="tn+ttsgn",
    ).with_baseline(tn_report)
    elapsed = time.perf_counter() - started
    _criterion(
        "end-to-end (700 graphs, 100 repeats: TN F1 >= 0.95, fusion increase >= 0)",
        tn_report.mean_f1 >= 0.95
        and fused_report.pct_increase >= 0.0
        and elapsed < 300.0,
        f"tn={tn_report.mean_f1:.4f}, fused={fused_report.mean_f1:.4f}, "
        f"pct={fused_report.pct_increase:+.2f}%, {elapsed:.0f}s",
    )


def test_construction_cost_ordering():
    graphs = generate_dense_star_graphs(n_graphs=3, n_nodes=520, seed=11)

    def trial(builder):
        t0 = time.perf_counter()
        for g in graphs:
            builder(g)
        return time.perf_counter() - t0

    builders = {"tsgn": build_tsgn, "dtsgn": build_directed_tsgn, "ttsgn": build_temporal_tsgn}
    # each trial times all three builders, so a burst of outside load lands
    # on all of them rather than on the trials of one
    times = {name: [] for name in builders}
    for _ in range(5):
        for name, builder in builders.items():
            times[name].append(trial(builder))
    medians = {name: statistics.median(t) for name, t in times.items()}
    ok = (
        medians["ttsgn"] <= 0.9 * medians["dtsgn"]
        and medians["dtsgn"] <= 0.9 * medians["tsgn"]
    )
    _criterion(
        "construction cost ordering (temporal <= directed <= plain, 10% margins)",
        ok,
        "medians " + ", ".join(f"{k}={v:.4f}s" for k, v in medians.items()),
    )


def _tree_bytes(path: Path) -> dict:
    return {
        str(f.relative_to(path)): f.read_bytes()
        for f in sorted(path.rglob("*"))
        if f.is_file()
    }


def test_cli_determinism(tmp_path):
    ds_a, ds_b = tmp_path / "ds_a", tmp_path / "ds_b"
    for out in (ds_a, ds_b):
        assert main(["synth", "--per-class", "10", "--seed", "13", "--out", str(out)]) == 0
    synth_ok = _tree_bytes(ds_a) == _tree_bytes(ds_b)

    transform_runs = []
    for name, threads in (("m1", "1"), ("m4", "4"), ("m1b", "1")):
        out = tmp_path / name
        assert main([
            "transform", "--dataset", str(ds_a), "--variant", "tsgn",
            "--variant", "mtsgn", "--tier", "multiedge",
            "--threads", threads, "--out", str(out),
        ]) == 0
        transform_runs.append(_tree_bytes(out))
    transform_ok = transform_runs[0] == transform_runs[1] == transform_runs[2]

    eval_runs = []
    for name, threads in (("e1", "1"), ("e4", "4"), ("e1b", "1")):
        out = tmp_path / name
        assert main([
            "evaluate", "--dataset", str(ds_a), "--variant", "ttsgn",
            "--tier", "directed", "--repeats", "4", "--seed", "9",
            "--trees", "15", "--threads", threads, "--out", str(out),
        ]) == 0
        eval_runs.append(_tree_bytes(out))
    eval_ok = eval_runs[0] == eval_runs[1] == eval_runs[2]

    _criterion(
        "CLI determinism (byte-identical outputs across reruns and --threads)",
        synth_ok and transform_ok and eval_ok,
        f"synth={synth_ok}, transform={transform_ok}, evaluate={eval_ok}",
    )
