import random
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsgn import EdgeRecord, TransactionGraph, at_tier, extract_ego_network, undirected_projection
from tsgn.ingest import FORMS, DatasetManifest

from oracles import (
    collapse_reference,
    random_digraph,
    random_multigraph,
    star_with_neighbor_trades,
    validate,
)


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
    # edge ids are rows, so a repeated edge id cannot be built
    edge = TransactionGraph.build([("a", "b", 1)], "a")
    bad_center = edge.replace(center="z")
    assert any("center" in p for p in validate(bad_center))

    for loose in (-1, 2):
        problems = validate(edge.replace(dst=np.array([loose])))
        assert problems == [f"edge 0: dst position {loose} not in node set"]

    short = validate(edge.replace(stamps=np.array([], dtype=np.int64)))
    assert len(short) == 1 and "unequal length" in short[0]

    self_loop = TransactionGraph.build([("a", "a", 1)], "a")
    assert any("self-loop" in p for p in validate(self_loop))

    parallel = TransactionGraph.build([("a", "b", 1), ("a", "b", 2)], "a")
    assert any("parallel edge" in p for p in validate(parallel))


def test_graphs_are_immutable_and_hash_as_they_compare():
    g = TransactionGraph.build([("a", "b", 1, 5)], "a", temporal=True)
    with pytest.raises(TypeError, match="multi_edge"):
        TransactionGraph.build([("a", "b", 1)], "a", multi_edge=True)
    with pytest.raises(TypeError, match="multi_edge"):
        g.replace(multi_edge=True)
    with pytest.raises(AttributeError):
        g.temporal = False
    with pytest.raises(ValueError, match="read-only"):
        g.replace(dst=np.array([0])).dst[0] = 1
    same = TransactionGraph.build([("a", "b", Decimal("1.0"), 5)], "a", temporal=True)
    assert same == g and hash(same) == hash(g)
    hash(DatasetManifest((g.with_label("x"),), "net", "directed"))  # TypeError if unhashable


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


# equal as floats but not as decimals, and one decimal spelled two ways
_TIE_AMOUNTS = ["0", "0.1", "0.1000000000000000000001", "1.5", "1.50", "2"]


@st.composite
def _ego_networks(draw):
    """Ego-nets of v0 cut from a file's records: parallel and anti-parallel
    records, amount ties, zero amounts, missing and tied timestamps, and
    records outside the cut, so amount ranks come from the whole file."""
    k = draw(st.integers(2, 5))
    rows = []
    for i in range(draw(st.integers(1, 12))):
        src = 0 if i == 0 else draw(st.integers(0, k - 1))
        dst = (src + draw(st.integers(1, k - 1))) % k
        amount = draw(st.one_of(st.sampled_from(_TIE_AMOUNTS), st.decimals(0, 10, places=3)))
        stamp = draw(st.one_of(st.none(), st.integers(0, 4)))
        rows.append((f"v{src}", f"v{dst}", amount, stamp))
    records = TransactionGraph.build(rows, None, multiedge=True)
    return extract_ego_network(records, "v0", draw(st.sampled_from(FORMS)), "multiedge")


def _fields(g):
    """Flags, nodes and records, with amounts as their text."""
    records = [(r.src, r.dst, str(r.amount), r.timestamp, r.edge_id) for r in g.edges]
    return (g.directed, g.temporal, g.multiedge, g.nodes, records)


@settings(max_examples=200, deadline=None)
@given(g=_ego_networks())
def test_tiers_and_projection_equal_the_record_level_collapse(g):
    directed = collapse_reference(g, directed=True)
    plain = collapse_reference(g, directed=False)
    assert _fields(at_tier(g, "directed")) == _fields(directed)
    assert _fields(at_tier(g, "plain")) == _fields(plain.replace(temporal=False))
    assert _fields(undirected_projection(g)) == _fields(
        plain.replace(temporal=plain.temporal and g.temporal)
    )
    timed = all(r.timestamp is not None for r in g.edges)
    assert _fields(at_tier(g, "multiedge")) == _fields(g.replace(temporal=timed))
