import random
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsgn import TransactionGraph, at_tier, extract_ego_network, undirected_projection
from tsgn.graphs import TIERS, runs_within
from tsgn.ingest import FORMS, DatasetManifest

from oracles import (
    collapse_reference,
    greedy_runs,
    random_digraph,
    random_multigraph,
    rows_of,
    star_with_neighbor_trades,
    validate,
)


def test_projection_collapses_antiparallel_to_max_amount():
    g = TransactionGraph.build([("a", "b", 2), ("b", "a", 5)], "a")
    p = undirected_projection(g)
    assert p.edge_count == 1
    edge = rows_of(p)[0]
    assert (edge.src, edge.dst) == ("a", "b")
    assert edge.amount == Decimal(5)


def test_projection_collapse_is_order_independent():
    forward = TransactionGraph.build([("a", "b", 2), ("b", "a", 5)], "a")
    reverse = TransactionGraph.build([("b", "a", 5), ("a", "b", 2)], "a")
    assert undirected_projection(forward) == undirected_projection(reverse)


def test_projection_of_undirected_graph_is_identical():
    g = TransactionGraph.build([("a", "b", 1), ("b", "c", 2)], "a", tier="plain")
    assert undirected_projection(g) == g


def test_projection_of_star_keeps_all_edges():
    g = TransactionGraph.build([("a", "b", 1), ("a", "c", 1), ("a", "d", 1)], "a")
    p = undirected_projection(g)
    assert p.edge_count == 3
    assert p.tier == "plain"


def test_projection_properties_on_random_graphs():
    rnd = random.Random(1234)
    for _ in range(200):
        g = random_multigraph(rnd)
        p = undirected_projection(g)
        assert p.nodes == g.nodes
        assert p.edge_count <= g.edge_count
        assert undirected_projection(p) == p  # idempotent
        seen = set()
        for r in rows_of(p):
            assert r.src <= r.dst
            assert (r.src, r.dst) not in seen
            seen.add((r.src, r.dst))


def test_projection_keeps_max_amount_per_pair():
    rnd = random.Random(77)
    for _ in range(50):
        g = random_multigraph(rnd)
        p = undirected_projection(g)
        best = {}
        for r in rows_of(g):
            key = tuple(sorted((r.src, r.dst)))
            best[key] = max(best.get(key, Decimal(-1)), r.amount)
        for r in rows_of(p):
            assert r.amount == best[(r.src, r.dst)]


def test_validate_flags_negative_amount():
    g = TransactionGraph.build([("a", "b", -1)], "a")
    problems = validate(g)
    assert len(problems) == 1
    assert "negative amount" in problems[0]


def test_an_untimed_record_leaves_a_graph_without_time():
    g = TransactionGraph.build([("a", "b", 1, 5), ("b", "c", 1)], "a", tier="multiedge")
    assert validate(g) == [] and not g.temporal
    assert g.take([0]).temporal and not g.take([0], tier="plain").temporal


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

    parallel = TransactionGraph.build([("a", "b", 1), ("a", "b", 2)], "a", tier="multiedge")
    parallel = parallel.replace(tier="directed")
    assert any("parallel edge" in p for p in validate(parallel))


def test_graphs_are_immutable_and_hash_as_they_compare():
    g = TransactionGraph.build([("a", "b", 1, 5)], "a")
    with pytest.raises(TypeError, match="multi_edge"):
        TransactionGraph.build([("a", "b", 1)], "a", multi_edge=True)
    with pytest.raises(TypeError, match="multi_edge"):
        g.replace(multi_edge=True)
    with pytest.raises(AttributeError):
        g.temporal = False
    with pytest.raises(ValueError, match="read-only"):
        g.replace(dst=np.array([0])).dst[0] = 1
    same = TransactionGraph.build([("a", "b", Decimal("1.0"), 5)], "a")
    assert same == g and hash(same) == hash(g)
    assert g.replace(tier="multiedge") != g
    hash(DatasetManifest((g.with_label("x"),)))  # TypeError if unhashable
    # amounts compare as decimals, so one amount spelled two ways is one graph
    spelled = [TransactionGraph.build([("a", "b", amount)], "a") for amount in (1.5, "1.50")]
    assert spelled[0] == spelled[1] and hash(spelled[0]) == hash(spelled[1])
    # one amount, one timestamp or the label alone tells graphs apart
    assert TransactionGraph.build([("a", "b", 2, 5)], "a") != g
    assert TransactionGraph.build([("a", "b", 1, 6)], "a") != g
    assert g.with_label("x") != g
    # an untimed row's stored stamp is not part of the graph
    untimed = TransactionGraph.build([("a", "b", 1, 5), ("b", "a", 1)], "a")
    restamped = untimed.replace(stamps=np.array([5, 7]))
    assert restamped == untimed and hash(restamped) == hash(untimed)
    assert untimed.replace(stamps=np.array([6, 0])) != untimed


def test_at_tier_plain_drops_direction_and_time():
    g = random_multigraph(random.Random(5))
    plain = at_tier(g, "plain")
    assert plain.tier == "plain" and not plain.temporal
    assert validate(plain) == []


def test_at_tier_directed_collapses_parallel_records():
    g = TransactionGraph.build(
        [("a", "b", 1, 1), ("a", "b", 4, 2), ("b", "a", 2, 3)],
        "a",
        tier="multiedge",
    )
    d = at_tier(g, "directed")
    assert d.edge_count == 2  # one per ordered pair
    amounts = {(r.src, r.dst): r.amount for r in rows_of(d)}
    assert amounts[("a", "b")] == Decimal(4)
    assert d.temporal


def test_at_tier_rejects_direction_recovery():
    g = TransactionGraph.build([("a", "b", 1)], "a", tier="plain")
    with pytest.raises(ValueError, match="undirected"):
        at_tier(g, "directed")
    with pytest.raises(ValueError, match="unknown tier"):
        at_tier(g, "bogus")
    with pytest.raises(ValueError, match="unknown tier 'bogus'"):
        TransactionGraph.build([("a", "b", 1)], "a", tier="bogus")


def test_build_takes_amounts_as_decimals():
    g = TransactionGraph.build([("a", "b", 0.05), ("a", "c", "1.23"), ("b", "c", 2)], "a")
    assert g.decimals.tolist() == [Decimal("0.05"), Decimal("1.23"), Decimal(2)]


def test_build_refuses_records_its_tier_would_merge_and_non_finite_amounts():
    parallel = [("a", "b", 1), ("a", "b", 2), ("b", "c", 3)]
    antiparallel = [("a", "b", 1), ("b", "a", 2)]
    for tier, rows in (("directed", parallel), ("plain", parallel), ("plain", antiparallel)):
        with pytest.raises(ValueError, match="build at multiedge"):
            TransactionGraph.build(rows, "a", tier=tier)
    assert TransactionGraph.build(antiparallel, "a", tier="directed").edge_count == 2
    multi = TransactionGraph.build(parallel, "a", tier="multiedge")
    assert at_tier(multi, "directed").edge_count == 2
    for amount in ("NaN", "Infinity", "-Infinity", float("nan"), float("inf")):
        for tier in TIERS:
            with pytest.raises(ValueError, match="non-finite amount"):
                TransactionGraph.build([("a", "b", 1), ("b", "c", amount)], "a", tier=tier)


def test_build_assigns_sequential_edge_ids():
    rnd = random.Random(9)
    g = random_digraph(rnd)
    assert [r.edge_id for r in rows_of(g)] == list(range(g.edge_count))
    assert g.nodes == tuple(sorted(set(g.nodes)))


def test_collapse_keeps_each_tiers_temporal_flag():
    # every record carries a timestamp; the plain tier has no time
    g = TransactionGraph.build(
        [("a", "b", 3, 5), ("a", "b", 3, 2), ("b", "a", 1, 9), ("a", "b", 2, 7)],
        "a",
        tier="multiedge",
    )
    plain = undirected_projection(g)
    directed = at_tier(g, "directed")
    assert g.temporal and not plain.temporal
    assert directed.temporal
    # heaviest record per pair; the tie at amount 3 goes to edge 0, not edge 1
    fields = lambda graph: [tuple(r) for r in rows_of(graph)]
    assert fields(plain) == [("a", "b", Decimal(3), 5, 0)]
    assert fields(directed) == [("a", "b", Decimal(3), 5, 0), ("b", "a", Decimal(1), 9, 1)]


# equal as floats but not as decimals, and one decimal spelled two ways
_TIE_AMOUNTS = ["0", "0.1", "0.1000000000000000000001", "1.5", "1.50", "2"]


@st.composite
def _ego_networks(draw):
    """Ego-nets of v0 cut from a file's records: parallel and anti-parallel
    records, amount ties, zero amounts, missing and tied timestamps, and
    records outside the cut, whose amounts the cut's collapse does not rank."""
    k = draw(st.integers(2, 5))
    rows = []
    for i in range(draw(st.integers(1, 12))):
        src = 0 if i == 0 else draw(st.integers(0, k - 1))
        dst = (src + draw(st.integers(1, k - 1))) % k
        amount = draw(st.one_of(st.sampled_from(_TIE_AMOUNTS), st.decimals(0, 10, places=3)))
        stamp = draw(st.one_of(st.none(), st.integers(0, 4)))
        rows.append((f"v{src}", f"v{dst}", amount, stamp))
    records = TransactionGraph.build(rows, None, tier="multiedge")
    return extract_ego_network(records, "v0", draw(st.sampled_from(FORMS)), "multiedge")


def _fields(g):
    """Tier, time, nodes and records, with amounts as their text."""
    records = [(r.src, r.dst, str(r.amount), r.timestamp, r.edge_id) for r in rows_of(g)]
    return (g.tier, g.temporal, g.nodes, records)


@settings(max_examples=200, deadline=None)
@given(g=_ego_networks())
def test_tiers_and_projection_equal_the_record_level_collapse(g):
    plain = _fields(collapse_reference(g, directed=False))
    assert _fields(at_tier(g, "directed")) == _fields(collapse_reference(g, directed=True))
    assert _fields(at_tier(g, "plain")) == plain == _fields(undirected_projection(g))
    assert _fields(at_tier(g, "multiedge")) == _fields(g)
    for tier in TIERS:
        t = at_tier(g, tier)
        timed = all(r.timestamp is not None for r in rows_of(t))
        assert t.tier == tier and t.temporal == (tier != "plain" and timed)


@settings(max_examples=300, deadline=None)
@given(
    cap=st.one_of(st.sampled_from([1, 2, 2**62]), st.integers(1, 40)),
    sizes=st.lists(st.one_of(st.integers(0, 50), st.sampled_from([2**62, 2**62 + 1, 2**63])),
                   max_size=30),
)
def test_runs_within_makes_the_greedy_runs(sizes, cap):
    """runs_within's binary search over running sums gives the ranges of the
    item-at-a-time greedy loop, with sizes of 0 and above the cap, and one
    range less (the empty one) for no items."""
    assert runs_within(sizes, cap) == (list(greedy_runs(sizes, cap)) if sizes else [])
