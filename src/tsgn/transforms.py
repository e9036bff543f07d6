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
concurrently across graphs. A mapped graph's nodes are the edge ids of the
records it read, so it keeps their count and its edges as numpy arrays of
edge ids, built by a few vectorized passes per graph; only the log of each
mapped weight runs per value, through math.log, so every weight equals
map_weight of its pair bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import TransactionGraph, undirected_projection

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
        edges = np.asarray(self.edges, dtype=np.int32).reshape(-1, 2)
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


def _expand(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For runs of the given lengths, each slot's run index and its offset
    within the run: counts [2, 0, 3] give runs [0, 0, 2, 2, 2] and offsets
    [0, 1, 0, 1, 2]."""
    runs = np.repeat(np.arange(len(counts)), counts)
    starts = np.cumsum(counts) - counts
    return runs, np.arange(len(runs)) - starts[runs]


def _mapped(variant: str, g: TransactionGraph, heads: np.ndarray, tails: np.ndarray) -> TsgnGraph:
    """The TsgnGraph over the records of ``g`` with edges heads -> tails,
    sorted by (head, tail) and weighted by map_weight of the two amounts."""
    order = np.argsort(heads * g.edge_count + tails, kind="stable")
    heads, tails = heads[order], tails[order]
    w_heads, w_tails = g.amounts[heads], g.amounts[tails]
    means = (w_heads + w_tails) / 2.0
    # math.log(1.0) is exactly 0.0, map_weight's value for two zero amounts;
    # np.log is not bit-equal to math.log, so the log runs per value
    means[(w_heads == 0) & (w_tails == 0)] = 1.0
    weights = np.fromiter(map(math.log, means.tolist()), dtype=np.float64, count=len(means))
    return TsgnGraph(variant, g.edge_count, np.stack([heads, tails], axis=1), weights)


def build_tsgn(g: TransactionGraph) -> TsgnGraph:
    """Map a transaction graph to its plain subgraph network.

    The input is projected to an undirected simple weighted graph first (a
    no-op if it already is one). Each projected transaction becomes a node and
    two nodes are joined when their transactions share an address; the edge
    weight is map_weight of the two amounts. An edgeless input yields an
    empty TsgnGraph.
    """
    plain = undirected_projection(g)
    # every (address, record) incidence, grouped by address and then by
    # record; each incidence pairs with the ones after it in its group. Two
    # distinct simple edges share at most one address, so no pair repeats.
    addresses = np.concatenate([plain.src, plain.dst])
    positions = np.tile(np.arange(plain.edge_count), 2)
    order = np.lexsort((positions, addresses))
    addresses, positions = addresses[order], positions[order]
    group_end = np.searchsorted(addresses, addresses, side="right")
    firsts, offsets = _expand(group_end - np.arange(len(addresses)) - 1)
    heads = positions[firsts]
    tails = positions[firsts + 1 + offsets]
    return _mapped("tsgn", plain, heads, tails)


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
    if time_ordered and not g.timed.all():
        i = int(np.argmin(g.timed))
        src, dst = g.nodes[g.src[i]], g.nodes[g.dst[i]]
        raise ValueError(f"edge {i} ({src}->{dst}) has no timestamp")
    src, dst = g.src, g.dst
    # join each record's destination to the records grouped by source
    by_src = np.argsort(src, kind="stable")
    counts = np.bincount(src, minlength=len(g.nodes))
    starts = np.cumsum(counts) - counts
    heads, offsets = _expand(counts[dst])
    tails = by_src[starts[dst[heads]] + offsets]
    keep = tails != heads
    if time_ordered:
        keep &= g.stamps[tails] > g.stamps[heads]
    return _mapped(variant, g, heads[keep], tails[keep])


BUILDERS = {
    "tsgn": build_tsgn,
    "dtsgn": build_directed_tsgn,
    "ttsgn": build_temporal_tsgn,
    "mtsgn": build_multiple_tsgn,
}
