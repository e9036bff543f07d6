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

Every builder is a pure function of an immutable input graph. A mapped
graph's nodes are the edge ids of the records it read, so it keeps their
count and its edges as numpy arrays of edge ids. map_graphs maps many graphs
at once over their concatenated columns (a GraphBatch): the shared-address
and head-to-tail joins run once over the batch, with at most one sort on
one int64 key, and one pass takes the logs. Each builder is
map_graphs on a batch of one graph. Only the float of each amount and the
log of each mapped weight run per value, through float and math.log, so
every weight equals map_weight of its pair bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graphs import GraphBatch, TransactionGraph, batch_at_tier

VARIANTS = ("tsgn", "dtsgn", "ttsgn", "mtsgn")

# Attributes each variant needs on its input graph, and whether the input
# must be simple (no parallel records).
VARIANT_REQUIREMENTS = {
    "tsgn": (set(), False),
    "dtsgn": ({"direction"}, True),
    "ttsgn": ({"direction", "temporal"}, True),
    "mtsgn": ({"direction", "temporal"}, False),
}


@dataclass(frozen=True, eq=False)
class TsgnGraph:
    """A mapped subgraph network.

    ``variant`` is the VARIANTS key of the mapping that built it. Node ``i``
    of the ``node_count`` nodes is record ``i`` of the graph the mapping
    read: the input graph, or for ``tsgn`` its undirected projection.
    ``edges`` is an ``(m, 2)`` int32 array of (from, to) node ids, that is
    edge ids of those records, and ``weights`` the ``m`` float64 mapped
    weights; both are read-only. For ``tsgn`` edges are undirected and
    stored with from < to; the other variants are directed. Edges are sorted
    by (from, to) so repeated builds emit identical arrays.
    """

    variant: str
    node_count: int
    edges: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        n = self.node_count
        edges = np.asarray(self.edges).reshape(-1, 2)
        if n < 0 or (edges.size and not 0 <= edges.min() <= edges.max() < n):
            raise ValueError(f"a node count of {n} or an edge id outside [0, {n})")
        edges = edges.astype(np.int32, copy=False)
        weights = np.asarray(self.weights, dtype=np.float64).reshape(-1)
        if len(edges) != len(weights):
            raise ValueError(f"{len(edges)} edges but {len(weights)} weights")
        for name, column in (("edges", edges), ("weights", weights)):
            column.setflags(write=False)
            object.__setattr__(self, name, column)

    @property
    def edge_count(self) -> int:
        return len(self.edges)


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
    if "direction" in needed and g.tier == "plain":
        missing.append("direction")
    if "temporal" in needed and not g.temporal:
        missing.append("temporal")
    if missing:
        raise ValueError(f"{variant}: {' and '.join(missing)} attribute required")
    if simple and g.tier == "multiedge":
        raise ValueError(
            f"{variant}: simple graph required (parallel records present); "
            "use the mtsgn variant or the directed tier"
        )


def _expand(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For runs of the given lengths, each slot's run index and its offset
    within the run: counts [2, 0, 3] give runs [0, 0, 2, 2, 2] and offsets
    [0, 1, 0, 1, 2]."""
    runs = np.repeat(np.arange(len(counts)), counts)
    starts = np.cumsum(counts) - counts
    return runs, np.arange(len(runs)) - starts[runs]


def _mapped(variant: str, b: GraphBatch, heads: np.ndarray, tails: np.ndarray) -> list[TsgnGraph]:
    """The TsgnGraph of each graph of ``b`` over its records, with edges
    heads -> tails (record positions in the batch, each pair within one
    graph, sorted by (head, tail)) weighted by map_weight of the two
    amounts. Positions order by graph first, so the edges come grouped by
    graph."""
    amounts = b.decimals.astype(np.float64)  # float() of each decimal
    w_heads, w_tails = amounts[heads], amounts[tails]
    means = (w_heads + w_tails) / 2.0
    # math.log(1.0) is exactly 0.0, map_weight's value for two zero amounts;
    # np.log is not bit-equal to math.log, so the log runs per value
    means[(w_heads == 0) & (w_tails == 0)] = 1.0
    weights = np.fromiter(map(math.log, means.tolist()), dtype=np.float64, count=len(means))
    # each graph's edges, with its records numbered from 0
    ends = np.searchsorted(heads, b.offsets)
    shift = np.repeat(b.offsets[:-1], ends[1:] - ends[:-1])
    edges = np.empty((len(heads), 2), dtype=np.intp)
    edges[:, 0], edges[:, 1] = heads - shift, tails - shift
    ends, records = ends.tolist(), b.offsets.tolist()
    return [
        TsgnGraph(variant, records[i + 1] - records[i], edges[e0:e1], weights[e0:e1])
        for i, (e0, e1) in enumerate(zip(ends, ends[1:]))
    ]


def map_graphs(variant: str, graphs: Sequence[TransactionGraph]) -> list[TsgnGraph]:
    """Map graphs of one tier with one variant, as its builder maps each.

    Every graph is checked first (require_attributes). The mapping then runs
    once over the graphs' concatenated columns: the builders are this
    function on one graph, so a batch of any size maps the same way.
    """
    for g in graphs:
        require_attributes(g, variant)
    b = GraphBatch.of(graphs)
    if variant == "tsgn":
        b = batch_at_tier(b, "plain")
        heads, tails = _shared_address_pairs(b)
    else:
        heads, tails = _flow_pairs(b, "temporal" in VARIANT_REQUIREMENTS[variant][0])
    return _mapped(variant, b, heads, tails)


def build_tsgn(g: TransactionGraph) -> TsgnGraph:
    """Map a transaction graph to its plain subgraph network.

    The input is projected to an undirected simple weighted graph first (a
    no-op if it already is one). Each projected transaction becomes a node and
    two nodes are joined when their transactions share an address; the edge
    weight is map_weight of the two amounts. An edgeless input yields an
    empty TsgnGraph.
    """
    return map_graphs("tsgn", [g])[0]


def _shared_address_pairs(b: GraphBatch) -> tuple[np.ndarray, np.ndarray]:
    """The (earlier, later) record pairs of a plain batch that share an
    address, sorted."""
    # every (address, record) incidence, grouped by address and then by
    # record; each incidence pairs with the ones after it in its group. Two
    # distinct simple edges share at most one address, so no pair repeats.
    m = len(b.src)
    addresses = np.concatenate([b.src, b.dst])
    positions = np.tile(np.arange(m), 2)
    order = np.argsort(addresses * m + positions)
    addresses, positions = addresses[order], positions[order]
    group_end = np.searchsorted(addresses, addresses, side="right")
    firsts, offsets = _expand(group_end - np.arange(len(addresses)) - 1)
    heads, tails = positions[firsts], positions[firsts + 1 + offsets]
    order = np.argsort(heads * m + tails)  # by (head, tail), which repeat no pair
    return heads[order], tails[order]


def build_directed_tsgn(g: TransactionGraph) -> TsgnGraph:
    """Map a simple directed transaction graph to its directed subgraph network.

    There is an edge a -> b exactly when dst(a) = src(b), i.e. the two
    transactions form a 2-hop path flowing in the same direction. (Sharing an
    address is implied by that condition, so it is the only check.) An
    anti-parallel pair of transactions yields edges both ways — a 2-cycle.
    """
    return map_graphs("dtsgn", [g])[0]


def build_temporal_tsgn(g: TransactionGraph) -> TsgnGraph:
    """Map a simple directed temporal graph to its temporal subgraph network.

    Keeps exactly the directed-variant edges whose upstream timestamp is
    strictly smaller than the downstream one, so every kept pair is a
    sequential flow of funds and the result is a DAG. Equal timestamps on a
    head-to-tail pair yield no edge.
    """
    return map_graphs("ttsgn", [g])[0]


def build_multiple_tsgn(g: TransactionGraph) -> TsgnGraph:
    """Temporal mapping applied per individual record on a multi-edge graph.

    No deduplication: every parallel transaction is its own node. Timestamps
    break anti-parallel and parallel loops, so the result is a DAG. On a
    simple temporal graph this reduces exactly to build_temporal_tsgn.
    """
    return map_graphs("mtsgn", [g])[0]


def _flow_pairs(b: GraphBatch, temporal: bool) -> tuple[np.ndarray, np.ndarray]:
    """The head-to-tail record pairs of a batch, sorted; with ``temporal``
    only the pairs whose timestamps strictly increase."""
    src, dst = b.src, b.dst
    # join each record's destination to the records grouped by source, in
    # record order: heads and then tails come out sorted
    by_src = np.argsort(src, kind="stable")
    counts = np.bincount(src, minlength=len(b.names))
    starts = np.cumsum(counts) - counts
    heads, offsets = _expand(counts[dst])
    tails = by_src[starts[dst[heads]] + offsets]
    keep = tails != heads
    if temporal:
        keep &= b.stamps[tails] > b.stamps[heads]
    return heads[keep], tails[keep]


BUILDERS = {
    "tsgn": build_tsgn,
    "dtsgn": build_directed_tsgn,
    "ttsgn": build_temporal_tsgn,
    "mtsgn": build_multiple_tsgn,
}
