import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsgn import (
    TransactionGraph,
    TsgnGraph,
    at_tier,
    build_directed_tsgn,
    build_multiple_tsgn,
    build_temporal_tsgn,
    build_tsgn,
    map_weight,
    undirected_projection,
)
from tsgn.graphs import runs_within
from tsgn.ingest import generate_synthetic_dataset
from tsgn.transforms import BUILDERS, PAIR_CAP, VARIANTS, map_graphs, pair_counts

from oracles import (
    edge_pairs,
    TIME_VIOLATING_PAIRS,
    edge_tuples,
    same_mapping,
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


# ------------------------------------------------------------- weight mapping

def test_map_weight_zero_pair_is_exactly_zero():
    assert map_weight(0.0, 0.0) == 0.0


def test_map_weight_unit_pair():
    assert map_weight(1.0, 1.0) == pytest.approx(0.0, abs=1e-15)


def test_map_weight_known_log_value():
    assert map_weight(2 * math.e, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_map_weight_is_symmetric_and_monotone():
    rnd = random.Random(42)
    prev = None
    for _ in range(2000):
        a, b = rnd.uniform(0, 50), rnd.uniform(0, 50)
        assert map_weight(a, b) == map_weight(b, a)
    # non-decreasing in a + b over the positive branch
    sums = sorted(rnd.uniform(1e-9, 100) for _ in range(500))
    values = [map_weight(s / 2, s / 2) for s in sums]
    assert all(x <= y for x, y in zip(values, values[1:]))


def test_map_weight_allows_negative_results():
    assert map_weight(0.5, 0.5) < 0
    assert map_weight(0.0, 2.0) == pytest.approx(0.0)  # log branch, not the zero case


# ------------------------------------------------------------------ plain map

def test_star_with_neighbor_trades_adjacency():
    t = build_tsgn(star_with_neighbor_trades())
    assert t.node_count == 7
    assert edge_pairs(t) == frozenset(star_with_neighbor_trades_pairs())


def test_single_edge_maps_to_single_isolated_node():
    g = TransactionGraph.build([("a", "b", 1)], "a", tier="plain")
    t = build_tsgn(g)
    assert t.node_count == 1
    assert t.edge_count == 0


def test_triangle_maps_to_triangle():
    g = TransactionGraph.build(
        [("a", "b", 1), ("b", "c", 1), ("a", "c", 1)], "a", tier="plain"
    )
    t = build_tsgn(g)
    assert edge_pairs(t) == frozenset(shared_endpoint_pairs(rows_of(g)))
    assert t.edge_count == 3


def test_edgeless_graph_maps_to_empty_tsgn():
    g = TransactionGraph.build([], "a", tier="plain")
    t = build_tsgn(g)
    assert t.node_count == 0 and t.edge_count == 0


def test_plain_mapping_matches_brute_force_on_random_graphs():
    rnd = random.Random(7)
    for _ in range(300):
        g = random_undirected_graph(rnd)
        t = build_tsgn(g)
        assert edge_pairs(t) == frozenset(shared_endpoint_pairs(rows_of(g)))
        assert t.node_count == g.edge_count


def test_plain_mapping_projects_directed_input_first():
    rnd = random.Random(8)
    for _ in range(100):
        g = random_multigraph(rnd)
        t = build_tsgn(g)
        plain = undirected_projection(g)
        assert t.node_count == plain.edge_count
        assert edge_pairs(t) == frozenset(shared_endpoint_pairs(rows_of(plain)))


def test_plain_edge_weights_use_map_weight():
    g = TransactionGraph.build(
        [("a", "b", 2), ("b", "c", 6)], "b", tier="plain"
    )
    t = build_tsgn(g)
    assert t.edge_count == 1
    assert edge_tuples(t)[0][2] == pytest.approx(math.log(4.0))


def _check_weights(t, source):
    """Every mapped weight equals map_weight of its pair's amounts, bit for bit;
    ``source`` is the graph whose records are the nodes of ``t``."""
    edges = edge_tuples(t)
    amounts = {r.edge_id: float(r.amount) for r in rows_of(source)}
    assert [w for _, _, w in edges] == [map_weight(amounts[a], amounts[b]) for a, b, _ in edges]


def test_weights_are_bit_equal_to_map_weight_where_np_log_is_not():
    # numpy's vectorized log can differ from math.log in the last bit; chain
    # records so that each mapped edge's mean amount is such an input here
    # (there are none where numpy falls back to the C library's log)
    means = np.random.default_rng(5).uniform(0.5, 10.0, 20000)
    differ = means[np.log(means) != np.array([math.log(x) for x in means])][:20]
    records = []
    for i, x in enumerate(differ.tolist()):
        records += [(f"u{i}", f"w{i}", x), (f"w{i}", f"z{i}", x)]
    g = TransactionGraph.build(records, "u0")
    for t, source in ((build_tsgn(g), undirected_projection(g)), (build_directed_tsgn(g), g)):
        assert sorted(t.weights.tolist()) == sorted(math.log(x) for x in differ.tolist())
        _check_weights(t, source)


# --------------------------------------------------------------- directed map

def test_directed_chain_yields_single_edge():
    g = TransactionGraph.build([("a", "b", 1), ("b", "c", 1)], "b")
    t = build_directed_tsgn(g)
    assert edge_pairs(t) == frozenset({(0, 1)})


def test_shared_source_yields_no_edge():
    g = TransactionGraph.build([("a", "b", 1), ("a", "c", 1)], "a")
    assert build_directed_tsgn(g).edge_count == 0


def test_antiparallel_pair_yields_two_cycle():
    g = TransactionGraph.build([("a", "b", 1), ("b", "a", 1)], "a")
    t = build_directed_tsgn(g)
    assert edge_pairs(t) == frozenset({(0, 1), (1, 0)})


def test_directed_mapping_rejects_undirected_input():
    g = TransactionGraph.build([("a", "b", 1)], "a", tier="plain")
    with pytest.raises(ValueError, match="direction attribute required"):
        build_directed_tsgn(g)


def test_directed_mapping_rejects_multiedge_input():
    g = TransactionGraph.build(
        [("a", "b", 1, 1), ("a", "b", 1, 2)], "a", tier="multiedge"
    )
    with pytest.raises(ValueError, match="simple graph required"):
        build_directed_tsgn(g)


def test_directed_mapping_matches_brute_force_on_random_graphs():
    rnd = random.Random(11)
    for _ in range(300):
        g = random_digraph(rnd)
        t = build_directed_tsgn(g)
        assert edge_pairs(t) == frozenset(head_to_tail_pairs(rows_of(g)))
        assert t.node_count == g.edge_count


# --------------------------------------------------------------- temporal map

def test_time_ordered_chain_is_kept():
    g = TransactionGraph.build(
        [("v1", "v2", 1, 4), ("v2", "v3", 1, 7)], "v2"
    )
    assert edge_pairs(build_temporal_tsgn(g)) == frozenset({(0, 1)})


def test_time_reversed_chain_is_dropped():
    g = TransactionGraph.build(
        [("v1", "v2", 1, 7), ("v2", "v3", 1, 4)], "v2"
    )
    assert build_temporal_tsgn(g).edge_count == 0


def test_equal_timestamps_yield_no_edge():
    g = TransactionGraph.build(
        [("v1", "v2", 1, 4), ("v2", "v3", 1, 4)], "v2"
    )
    assert build_temporal_tsgn(g).edge_count == 0


def test_time_filter_drops_exactly_the_late_pairs():
    g = time_filtered_flow_graph()
    directed = edge_pairs(build_directed_tsgn(g))
    temporal = edge_pairs(build_temporal_tsgn(g))
    assert TIME_VIOLATING_PAIRS <= directed
    assert directed - temporal == TIME_VIOLATING_PAIRS
    assert {(0, 1), (2, 4)} <= temporal  # the (t1,t2) and (t3,t5) flows survive


def test_two_transaction_chains():
    chains = two_transaction_chains()
    results = {key: build_temporal_tsgn(g).edge_count for key, g in chains.items()}
    assert results == {"a": 1, "b": 0, "c": 0, "d": 0}


def test_temporal_mapping_requires_timestamps():
    # one untimed record, so the graph is not temporal
    g = TransactionGraph.build([("a", "b", 1, 4), ("b", "c", 1)], "a")
    with pytest.raises(ValueError, match="ttsgn: temporal attribute required"):
        build_temporal_tsgn(g)


def test_temporal_mapping_requires_temporal_flag():
    g = TransactionGraph.build([("a", "b", 1)], "a")
    with pytest.raises(ValueError, match="temporal attribute required"):
        build_temporal_tsgn(g)


def test_temporal_subset_of_directed_and_acyclic():
    rnd = random.Random(13)
    for _ in range(300):
        g = random_digraph(rnd, temporal=True)
        directed = build_directed_tsgn(g)
        temporal = build_temporal_tsgn(g)
        assert edge_pairs(temporal) <= edge_pairs(directed)
        assert temporal.edge_count <= directed.edge_count
        assert is_dag(range(temporal.node_count), edge_pairs(temporal))
        assert edge_pairs(temporal) == frozenset(time_ordered_pairs(rows_of(g)))


# --------------------------------------------------------------- multiple map

def test_parallel_edges_each_get_a_node():
    g = TransactionGraph.build(
        [("a", "b", 1, 1), ("a", "b", 1, 5), ("b", "c", 1, 9)],
        "a",
        tier="multiedge",
    )
    t = build_multiple_tsgn(g)
    assert t.node_count == 3
    assert edge_pairs(t) == frozenset({(0, 2), (1, 2)})


def test_antiparallel_loop_is_broken_by_timestamps():
    g = TransactionGraph.build(
        [("a", "b", 1, 1), ("b", "a", 1, 3)], "a", tier="multiedge"
    )
    t = build_multiple_tsgn(g)
    assert edge_pairs(t) == frozenset({(0, 1)})


def test_multiple_reduces_to_temporal_on_simple_graphs():
    rnd = random.Random(17)
    for _ in range(100):
        g = random_digraph(rnd, temporal=True)
        assert edge_tuples(build_multiple_tsgn(g)) == edge_tuples(build_temporal_tsgn(g))


def test_multiple_mapping_matches_brute_force_and_is_acyclic():
    rnd = random.Random(19)
    for _ in range(300):
        g = random_multigraph(rnd)
        t = build_multiple_tsgn(g)
        assert t.node_count == g.edge_count
        assert edge_pairs(t) == frozenset(time_ordered_pairs(rows_of(g)))
        assert is_dag(range(t.node_count), edge_pairs(t))


def test_mapped_outputs_are_deterministically_ordered():
    rnd = random.Random(23)
    for _ in range(50):
        g = random_multigraph(rnd)
        t1 = build_multiple_tsgn(g)
        t2 = build_multiple_tsgn(g)
        assert same_mapping(t1, t2)
        assert list(edge_tuples(t1)) == sorted(edge_tuples(t1))


# ------------------------------------------------------------------ data model

def test_mapped_edges_are_read_only_position_arrays():
    g = TransactionGraph.build(
        [("a", "b", 2, 1), ("b", "c", 6, 2), ("c", "a", 0, 3)], "a"
    )
    for build in (build_tsgn, build_directed_tsgn, build_temporal_tsgn, build_multiple_tsgn):
        t = build(g)
        assert t.edges.dtype == np.int32 and t.edges.shape == (t.edge_count, 2)
        assert t.weights.dtype == np.float64 and t.weights.shape == (t.edge_count,)
        with pytest.raises(ValueError, match="read-only"):
            t.edges[0, 0] = 1
        with pytest.raises(ValueError, match="read-only"):
            t.weights[0] = 1.0


def test_mapped_graph_refuses_edge_ids_outside_its_nodes():
    # 2**32 would wrap to a valid 0 if the ids were cast to int32 unchecked
    for edges in ([(0, -1)], [(0, 3)], [(5, 1), (0, -2)], np.array([[0, 2**32]])):
        with pytest.raises(ValueError, match=r"outside \[0, 3\)"):
            TsgnGraph("tsgn", 3, edges, [0.0] * len(edges))
    with pytest.raises(ValueError, match="node count of -1"):
        TsgnGraph("tsgn", -1, (), ())
    assert TsgnGraph("tsgn", 3, [(0, 2)], [0.0]).edges.tolist() == [[0, 2]]


# ------------------------------------------------------------------ properties

AMOUNTS = st.one_of(
    st.just(0),
    st.integers(0, 6),
    st.floats(0, 1e9, allow_nan=False, allow_infinity=False, allow_subnormal=False),
)


@st.composite
def temporal_multigraphs(draw):
    """Directed temporal multigraphs over at most six addresses: parallel and
    anti-parallel records, zero amounts, equal timestamps, records that touch
    no other record, and graphs with no records at all."""
    k = draw(st.integers(2, 6))
    records = []
    for _ in range(draw(st.integers(0, 14))):
        src = draw(st.integers(0, k - 1))
        dst = (src + draw(st.integers(1, k - 1))) % k
        records.append((f"v{src}", f"v{dst}", draw(AMOUNTS), draw(st.integers(0, 5))))
    return TransactionGraph.build(records, "v0", tier="multiedge")


def _check_edges(t, source, expected_pairs):
    """The mapped edges are exactly ``expected_pairs``, sorted, each once, and
    every weight equals map_weight of its pair bit for bit."""
    edges = edge_tuples(t)
    assert edge_pairs(t) == frozenset(expected_pairs)
    assert t.edge_count == len(expected_pairs)
    assert list(edges) == sorted(edges)
    _check_weights(t, source)


@settings(max_examples=200, deadline=None)
@given(g=temporal_multigraphs())
def test_multigraph_mappings_match_brute_force(g):
    plain = undirected_projection(g)
    t = build_tsgn(g)
    assert t.node_count == plain.edge_count
    _check_edges(t, plain, shared_endpoint_pairs(rows_of(plain)))
    multi = build_multiple_tsgn(g)
    assert multi.node_count == g.edge_count
    _check_edges(multi, g, time_ordered_pairs(rows_of(g)))
    assert is_dag(range(multi.node_count), edge_pairs(multi))


@settings(max_examples=200, deadline=None)
@given(g=temporal_multigraphs())
def test_simple_graph_mappings_match_brute_force(g):
    simple = at_tier(g, "directed")
    directed = build_directed_tsgn(simple)
    temporal = build_temporal_tsgn(simple)
    _check_edges(directed, simple, head_to_tail_pairs(rows_of(simple)))
    _check_edges(temporal, simple, time_ordered_pairs(rows_of(simple)))
    assert edge_pairs(temporal) <= edge_pairs(directed)
    assert is_dag(range(temporal.node_count), edge_pairs(temporal))
    assert edge_tuples(build_multiple_tsgn(simple)) == edge_tuples(temporal)


@settings(max_examples=100, deadline=None)
@given(graphs=st.lists(temporal_multigraphs(), max_size=5), plain=st.booleans())
def test_mapping_a_batch_equals_mapping_each_graph(graphs, plain):
    # the batch shares one set of columns, so a pair must never join records
    # of two graphs, and each graph's edge ids must start again at 0
    for variant in VARIANTS:
        tier = "multiedge" if variant == "mtsgn" else "directed"
        if variant == "tsgn" and plain:
            tier = "plain"
        tiered = [at_tier(g, tier) for g in graphs]
        batch = map_graphs(variant, tiered)
        assert len(batch) == len(tiered)
        for t, g in zip(batch, tiered):
            alone = BUILDERS[variant](g)
            assert (t.variant, t.node_count) == (alone.variant, alone.node_count)
            assert t.edges.tolist() == alone.edges.tolist()
            assert t.weights.tobytes() == alone.weights.tobytes()  # bit for bit


def test_map_graphs_memory_does_not_grow_with_the_dataset():
    """map_graphs joins one run of graphs at a time: its traced peak, less
    the edges and weights it returns, stays within 10% on a dataset that
    holds each graph twice."""
    original = generate_synthetic_dataset("etherg3", n_per_class=4, seed=3, tier="directed").graphs
    assert len(runs_within(pair_counts("tsgn", original).tolist(), PAIR_CAP)) > 1
    transients = []
    # the first call makes anything made once
    for graphs in (original, original, original * 2):
        tracemalloc.start()
        try:
            mapped = map_graphs("tsgn", graphs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        transients.append(peak - sum(t.edges.nbytes + t.weights.nbytes for t in mapped))
        del mapped
    assert transients[2] <= 1.1 * transients[1], transients
