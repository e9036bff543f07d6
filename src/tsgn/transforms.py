"""The four subgraph-network mappings and the amount-mapping function.

Each mapping lifts a transaction graph into transaction space: every
transaction of the source graph becomes a node, and two nodes are linked when
the underlying transactions interact. What counts as interaction depends on
the variant:

  tsgn   shared address, undirected
  dtsgn  head-to-tail flow (the first transaction's destination is the second
         one's source), directed
  ttsgn  head-to-tail flow whose timestamps strictly increase, directed and
         always acyclic
  mtsgn  the ttsgn rule applied per individual record, so parallel
         transactions each get their own node

Every builder is a pure function of an immutable input graph, safe to run
concurrently across graphs.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass

from .graphs import EdgeRecord, TransactionGraph, undirected_projection

VARIANTS = ("tsgn", "dtsgn", "ttsgn", "mtsgn")

# Attributes each variant needs on its input graph, and whether the input
# must be simple (no parallel records).
VARIANT_REQUIREMENTS = {
    "tsgn": (set(), False),
    "dtsgn": ({"direction"}, True),
    "ttsgn": ({"direction", "temporal"}, True),
    "mtsgn": ({"direction", "temporal"}, False),
}


@dataclass(frozen=True)
class TsgnGraph:
    """A mapped subgraph network.

    ``variant`` is the VARIANTS key of the mapping that built it. ``nodes``
    are the source graph's transactions ordered by edge_id; each edge is
    ``(from_edge_id, to_edge_id, mapped_weight)``. For ``tsgn`` edges are
    undirected and stored with from < to; the other variants are directed.
    Edges are sorted lexicographically so repeated builds emit identical
    structures.
    """

    variant: str
    nodes: tuple[EdgeRecord, ...]
    edges: tuple[tuple[int, int, float], ...]

    @property
    def directed(self) -> bool:
        return self.variant != "tsgn"

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def edge_pairs(self) -> frozenset[tuple[int, int]]:
        """Edge set with weights projected away, for set-level comparisons."""
        return frozenset((a, b) for a, b, _ in self.edges)


def map_weight(w_a: float, w_b: float) -> float:
    """Combine two transaction amounts into one mapped edge weight.

    Returns 0 when both amounts are 0 (a pair of contract invocations),
    otherwise the natural log of the mean amount. The result is negative
    whenever the mean is below 1 and is passed through unclamped. Symmetric
    in its arguments. Note map_weight(0, 2) == 0 as well — that is the log
    branch evaluating to ln(1), not the zero branch.
    """
    if w_a == 0 and w_b == 0:
        return 0.0
    return math.log((w_a + w_b) / 2.0)


def require_attributes(g: TransactionGraph, variant: str) -> None:
    """Raise ValueError when ``g`` lacks an attribute the variant depends on."""
    needed, simple = VARIANT_REQUIREMENTS[variant]
    missing = []
    if "direction" in needed and not g.directed:
        missing.append("direction")
    if "temporal" in needed and not g.temporal:
        missing.append("temporal")
    if missing:
        raise ValueError(f"{variant}: {' and '.join(missing)} attribute required")
    if simple and g.multiedge:
        raise ValueError(
            f"{variant}: simple graph required (parallel records present); "
            "use the mtsgn variant or the directed tier"
        )


def _sorted_nodes(g: TransactionGraph) -> tuple[EdgeRecord, ...]:
    return tuple(sorted(g.edges, key=lambda r: r.edge_id))


def build_tsgn(g: TransactionGraph) -> TsgnGraph:
    """Map a transaction graph to its plain subgraph network.

    The input is projected to an undirected simple weighted graph first (a
    no-op if it already is one). Each projected transaction becomes a node and
    two nodes are joined when their transactions share an address; the edge
    weight is map_weight of the two amounts. An edgeless input yields an
    empty TsgnGraph.
    """
    plain = undirected_projection(g)
    recs = _sorted_nodes(plain)
    amounts = {r.edge_id: float(r.amount) for r in recs}
    incident: dict[str, list[EdgeRecord]] = defaultdict(list)
    for r in recs:
        incident[r.src].append(r)
        incident[r.dst].append(r)
    edges = []
    # Two distinct simple edges share at most one address, so emitting the
    # pairs per address never produces duplicates.
    for addr in plain.nodes:
        bucket = incident.get(addr)
        if not bucket or len(bucket) < 2:
            continue
        for i in range(len(bucket)):
            a = bucket[i]
            w_a = amounts[a.edge_id]
            for j in range(i + 1, len(bucket)):
                b = bucket[j]
                edges.append((a.edge_id, b.edge_id, map_weight(w_a, amounts[b.edge_id])))
    edges.sort()
    return TsgnGraph("tsgn", recs, tuple(edges))


def build_directed_tsgn(g: TransactionGraph) -> TsgnGraph:
    """Map a simple directed transaction graph to its directed subgraph network.

    There is an edge a -> b exactly when dst(a) = src(b), i.e. the two
    transactions form a 2-hop path flowing in the same direction. (Sharing an
    address is implied by that condition, so it is the only check.) An
    anti-parallel pair of transactions yields edges both ways — a 2-cycle.
    """
    return _build_flow(g, "dtsgn")


def build_temporal_tsgn(g: TransactionGraph) -> TsgnGraph:
    """Map a simple directed temporal graph to its temporal subgraph network.

    Keeps exactly the directed-variant edges whose upstream timestamp is
    strictly smaller than the downstream one, so every kept pair is a
    sequential flow of funds and the result is a DAG. Equal timestamps on a
    head-to-tail pair yield no edge.
    """
    return _build_flow(g, "ttsgn")


def build_multiple_tsgn(g: TransactionGraph) -> TsgnGraph:
    """Temporal mapping applied per individual record on a multi-edge graph.

    No deduplication: every parallel transaction is its own node. Timestamps
    break anti-parallel and parallel loops, so the result is a DAG. On a
    simple temporal graph this reduces exactly to build_temporal_tsgn.
    """
    return _build_flow(g, "mtsgn")


def _build_flow(g: TransactionGraph, variant: str) -> TsgnGraph:
    """Head-to-tail mapping of ``g``; a variant that needs time keeps only the
    pairs whose timestamps strictly increase."""
    require_attributes(g, variant)
    time_ordered = "temporal" in VARIANT_REQUIREMENTS[variant][0]
    if time_ordered:
        for r in g.edges:
            if r.timestamp is None:
                raise ValueError(f"edge {r.edge_id} ({r.src}->{r.dst}) has no timestamp")
    recs = _sorted_nodes(g)
    return TsgnGraph(variant, recs, _flow_edges(recs, time_ordered=time_ordered))


def _flow_edges(
    records: tuple[EdgeRecord, ...], *, time_ordered: bool
) -> tuple[tuple[int, int, float], ...]:
    """Head-to-tail pairs over ``records``, optionally timestamp-filtered."""
    by_src: dict[str, list[EdgeRecord]] = defaultdict(list)
    for r in records:
        by_src[r.src].append(r)
    amounts = {r.edge_id: float(r.amount) for r in records}
    edges = []
    for a in records:
        t_a = a.timestamp
        w_a = amounts[a.edge_id]
        for b in by_src.get(a.dst, ()):
            if b is a or (time_ordered and b.timestamp <= t_a):
                continue
            edges.append((a.edge_id, b.edge_id, map_weight(w_a, amounts[b.edge_id])))
    edges.sort()
    return tuple(edges)


BUILDERS = {
    "tsgn": build_tsgn,
    "dtsgn": build_directed_tsgn,
    "ttsgn": build_temporal_tsgn,
    "mtsgn": build_multiple_tsgn,
}
