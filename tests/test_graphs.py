import random
from decimal import Decimal

import pytest

from tsgn import EdgeRecord, TransactionGraph, at_tier, undirected_projection

from oracles import random_digraph, random_multigraph, star_with_neighbor_trades, validate


def test_projection_collapses_antiparallel_to_max_amount():
    g = TransactionGraph.build([("a", "b", 2), ("b", "a", 5)], "a")
    p = undirected_projection(g)
    assert p.edge_count == 1
    edge = p.edges[0]
    assert (edge.src, edge.dst) == ("a", "b")
    assert edge.amount == Decimal(5)


def test_projection_collapse_is_order_independent():
    forward = TransactionGraph.build([("a", "b", 2), ("b", "a", 5)], "a")
    reverse = TransactionGraph.build([("b", "a", 5), ("a", "b", 2)], "a")
    assert undirected_projection(forward) == undirected_projection(reverse)


def test_projection_of_undirected_graph_is_identical():
    g = TransactionGraph.build([("a", "b", 1), ("b", "c", 2)], "a", directed=False)
    assert undirected_projection(g) == g


def test_projection_of_star_keeps_all_edges():
    g = TransactionGraph.build([("a", "b", 1), ("a", "c", 1), ("a", "d", 1)], "a")
    p = undirected_projection(g)
    assert p.edge_count == 3
    assert not p.directed


def test_projection_properties_on_random_graphs():
    rnd = random.Random(1234)
    for _ in range(200):
        g = random_multigraph(rnd)
        p = undirected_projection(g)
        assert p.nodes == g.nodes
        assert p.edge_count <= g.edge_count
        assert undirected_projection(p) == p  # idempotent
        seen = set()
        for r in p.edges:
            assert r.src <= r.dst
            assert (r.src, r.dst) not in seen
            seen.add((r.src, r.dst))


def test_projection_keeps_max_amount_per_pair():
    rnd = random.Random(77)
    for _ in range(50):
        g = random_multigraph(rnd)
        p = undirected_projection(g)
        best = {}
        for r in g.edges:
            key = tuple(sorted((r.src, r.dst)))
            best[key] = max(best.get(key, Decimal(-1)), r.amount)
        for r in p.edges:
            assert r.amount == best[(r.src, r.dst)]


def test_validate_flags_negative_amount():
    g = TransactionGraph.build([("a", "b", -1)], "a")
    problems = validate(g)
    assert len(problems) == 1
    assert "negative amount" in problems[0]


def test_validate_flags_missing_timestamp_on_temporal_graph():
    g = TransactionGraph.build([("a", "b", 1, 5), ("b", "c", 1)], "a", temporal=True)
    problems = validate(g)
    assert len(problems) == 1
    assert "timestamp missing" in problems[0]


def test_validate_accepts_wellformed_star():
    assert validate(star_with_neighbor_trades()) == []


def test_validate_flags_structural_problems():
    bad_center = TransactionGraph(("a", "b"), (EdgeRecord("a", "b", 1),), "z")
    assert any("center" in p for p in validate(bad_center))

    loose_endpoint = TransactionGraph(("a",), (EdgeRecord("a", "b", 1),), "a")
    assert any("dst not in node set" in p for p in validate(loose_endpoint))

    self_loop = TransactionGraph(("a",), (EdgeRecord("a", "a", 1),), "a")
    assert any("self-loop" in p for p in validate(self_loop))

    dup_ids = TransactionGraph(
        ("a", "b", "c"),
        (EdgeRecord("a", "b", 1, None, 0), EdgeRecord("b", "c", 1, None, 0)),
        "a",
    )
    assert any("duplicate edge_id" in p for p in validate(dup_ids))

    parallel = TransactionGraph(
        ("a", "b"),
        (EdgeRecord("a", "b", 1, None, 0), EdgeRecord("a", "b", 2, None, 1)),
        "a",
    )
    assert any("parallel edge" in p for p in validate(parallel))


def test_at_tier_plain_drops_direction_and_time():
    g = random_multigraph(random.Random(5))
    plain = at_tier(g, "plain")
    assert not plain.directed and not plain.multiedge and not plain.temporal
    assert validate(plain) == []


def test_at_tier_directed_collapses_parallel_records():
    g = TransactionGraph.build(
        [("a", "b", 1, 1), ("a", "b", 4, 2), ("b", "a", 2, 3)],
        "a",
        temporal=True,
        multiedge=True,
    )
    d = at_tier(g, "directed")
    assert d.edge_count == 2  # one per ordered pair
    amounts = {(r.src, r.dst): r.amount for r in d.edges}
    assert amounts[("a", "b")] == Decimal(4)
    assert d.temporal


def test_at_tier_rejects_direction_recovery():
    g = TransactionGraph.build([("a", "b", 1)], "a", directed=False)
    with pytest.raises(ValueError, match="undirected"):
        at_tier(g, "directed")
    with pytest.raises(ValueError, match="unknown tier"):
        at_tier(g, "bogus")


def test_edge_record_amounts_are_decimal():
    r = EdgeRecord("a", "b", 0.05)
    assert r.amount == Decimal("0.05")
    assert EdgeRecord("a", "b", "1.23").amount == Decimal("1.23")


def test_build_assigns_sequential_edge_ids():
    rnd = random.Random(9)
    g = random_digraph(rnd)
    assert [r.edge_id for r in g.edges] == list(range(g.edge_count))
    assert g.nodes == tuple(sorted(set(g.nodes)))


def test_collapse_keeps_each_tiers_temporal_flag():
    # every record carries a timestamp, but the graph does not claim them
    g = TransactionGraph.build(
        [("a", "b", 3, 5), ("a", "b", 3, 2), ("b", "a", 1, 9), ("a", "b", 2, 7)],
        "a",
        temporal=False,
        multiedge=True,
    )
    plain = undirected_projection(g)
    directed = at_tier(g, "directed")
    assert not plain.temporal
    assert directed.temporal
    # heaviest record per pair; the tie at amount 3 goes to edge 0, not edge 1
    fields = lambda graph: [(r.src, r.dst, r.amount, r.timestamp, r.edge_id) for r in graph.edges]
    assert fields(plain) == [("a", "b", Decimal(3), 5, 0)]
    assert fields(directed) == [("a", "b", Decimal(3), 5, 0), ("b", "a", Decimal(1), 9, 1)]
