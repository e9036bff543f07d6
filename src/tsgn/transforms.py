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
count and its edges as numpy arrays of edge ids. map_batch maps many graphs
at once over their concatenated columns (a GraphBatch) into one MappedBatch:
the shared-address and head-to-tail joins run once over the batch, each
sorting packed int64 keys with np.sort and decoding them with shifts and
masks, and one pass takes the logs. A dtsgn batch of timed records carries
the mask of its time-ordered pairs, so ttsgn's and mtsgn's edges follow
from one flow join. map_runs batches a sequence of graphs once and maps
the batch in runs of consecutive graphs whose joins hold at most PAIR_CAP
pairs together, counted per graph by pair_counts before any join, so the
memory of its joins does not grow with the number of graphs. map_graphs is
every TsgnGraph of those runs, and each builder is map_graphs on one graph.
Only the float of each amount and the log of each mapped weight run per
value, through float and math.log, so every weight equals map_weight of its
pair bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .graphs import GraphBatch, TransactionGraph, batch_at_tier, runs_within

VARIANTS = ("tsgn", "dtsgn", "ttsgn", "mtsgn")

# map_runs maps graphs in runs of consecutive graphs whose joins hold at most
# this many pairs together (pair_counts); a graph with more goes alone. A
# run's join, logs and rows take about 110 bytes per pair at their peak, so
# memory stays flat in the number of graphs. On the benchmark's seed-41
# etherg3 dataset the traced peak of its two transforms reads 2.0 MB at
# budgets up to 2**14, where its largest graphs (17,580 tsgn pairs) set it,
# 3.8 MB at 2**15, 7.5 MB at 2**16 and 60 MB unbounded, against 5.4 MB when
# each graph was mapped alone; larger budgets gained no time.
PAIR_CAP = 1 << 15

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


@dataclass(frozen=True, eq=False)
class MappedBatch:
    """The mapped graphs of a GraphBatch as one set of columns.

    Mapped graph ``i`` has ``records[i + 1] - records[i]`` nodes and the
    edges ``offsets[i]:offsets[i + 1]``: rows of ``edges``, an ``(m, 2)``
    int32 array of node ids numbered from 0 in each graph, with the float64
    ``weights``, sorted by (from, to) within each graph as in TsgnGraph. A
    dtsgn batch of timed records also holds ``increasing``, the mask of its
    edges whose timestamps strictly increase: ttsgn's and mtsgn's edges.
    """

    variant: str
    records: np.ndarray
    offsets: np.ndarray
    edges: np.ndarray
    weights: np.ndarray
    increasing: np.ndarray | None = None

    def graphs(self) -> list[TsgnGraph]:
        """Each mapped graph, its columns slices of the batch's."""
        records, ends = self.records.tolist(), self.offsets.tolist()
        return [
            TsgnGraph(self.variant, records[i + 1] - records[i], self.edges[e0:e1],
                      self.weights[e0:e1])
            for i, (e0, e1) in enumerate(zip(ends, ends[1:]))
        ]


def _bits(n: int) -> int:
    """The bits that hold every integer in [0, n)."""
    return max(n - 1, 1).bit_length()


def _mapped(
    variant: str, b: GraphBatch, heads: np.ndarray, tails: np.ndarray,
    increasing: np.ndarray | None = None,
) -> MappedBatch:
    """The mapped batch of ``b`` over its records, with edges heads -> tails
    (record positions in the batch, each pair within one graph, sorted by
    (head, tail)) weighted by map_weight of the two amounts. Positions order
    by graph first, so the edges come grouped by graph."""
    amounts = b.decimals.astype(np.float64)  # float() of each decimal
    means = amounts[heads] + amounts[tails]
    means /= 2.0
    # math.log(1.0) is exactly 0.0, map_weight's value for two zero amounts;
    # np.log is not bit-equal to math.log, so the log runs per value
    zero = amounts == 0
    means[zero[heads] & zero[tails]] = 1.0
    weights = np.fromiter(map(math.log, means.tolist()), dtype=np.float64, count=len(means))
    del means
    # each graph's edges, with its records numbered from 0
    local = np.arange(len(amounts)) - np.repeat(b.offsets[:-1], np.diff(b.offsets))
    edges = np.empty((len(heads), 2), dtype=np.int32)
    edges[:, 0], edges[:, 1] = local[heads], local[tails]
    ends = np.searchsorted(heads, b.offsets)
    return MappedBatch(variant, b.offsets, ends, edges, weights, increasing)


def map_batch(variant: str, b: GraphBatch) -> MappedBatch:
    """Map every graph of a batch with one variant, unchecked: map_graphs
    without require_attributes, returning the mapped batch."""
    if variant == "tsgn":
        b = batch_at_tier(b, "plain")
        return _mapped(variant, b, *_shared_address_pairs(b))
    heads, tails = _flow_pairs(b)
    increasing = None
    if b.timed.all():
        increasing = b.stamps[tails] > b.stamps[heads]
        if "temporal" in VARIANT_REQUIREMENTS[variant][0]:
            heads, tails, increasing = heads[increasing], tails[increasing], None
    return _mapped(variant, b, heads, tails, increasing)


def map_runs(
    variant: str, graphs: Sequence[TransactionGraph]
) -> Iterator[tuple[int, int, int, MappedBatch]]:
    """Map graphs of one tier with one variant a run at a time.

    Every graph is checked first (require_attributes), and all go into one
    GraphBatch. The graphs then go into runs of consecutive graphs whose
    pair_counts sum to at most PAIR_CAP, a graph with more alone
    (runs_within), and each run, a slice of the batch, is mapped once
    (map_batch). Yields each run's (start, stop) positions in ``graphs``,
    its pairs and its mapped batch; a caller that drops the batch before
    taking the next holds one run's mapping at a time.
    """
    for g in graphs:
        require_attributes(g, variant)
    b = GraphBatch.of(graphs)
    counts = pair_counts(variant, b).tolist()
    for start, stop in runs_within(counts, PAIR_CAP):
        pairs = sum(counts[start:stop])
        yield start, stop, pairs, map_batch(variant, b.run(start, stop))


def map_graphs(variant: str, graphs: Sequence[TransactionGraph]) -> list[TsgnGraph]:
    """Map graphs of one tier with one variant, as its builder maps each:
    every mapped graph of map_runs, in order. The builders are this function
    on one graph, so graphs map the same way in runs of any size."""
    return [t for *_, mapped in map_runs(variant, graphs) for t in mapped.graphs()]


def pair_counts(variant: str, b: GraphBatch) -> np.ndarray:
    """The pairs map_batch joins for each graph of a batch, counted without
    the join: the address-sharing pairs of its plain records for tsgn, every
    head-to-tail candidate before the time and self-pair masks for the
    flow variants. map_runs bounds its runs with them."""
    n = len(b.names)
    if variant == "tsgn":
        # the plain tier keeps one record per address pair, and each address
        # pairs each of its records with every later one
        low, high = np.minimum(b.src, b.dst), np.maximum(b.src, b.dst)
        bits = _bits(n)
        pairs = np.sort(low << bits | high)
        pairs = pairs[np.diff(pairs, prepend=-1) != 0]
        records = np.bincount(pairs >> bits, minlength=n)
        records += np.bincount(pairs & ((1 << bits) - 1), minlength=n)
        per_node, bounds = records * (records - 1) // 2, b.node_offsets
    else:
        per_node, bounds = np.bincount(b.src, minlength=n)[b.dst], b.offsets
    total = np.concatenate([[0], np.cumsum(per_node)])[bounds]
    return total[1:] - total[:-1]


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
    # every (address, record) incidence, packed in one key and sorted by
    # address and then by record; each incidence pairs with the ones after
    # it in its group. Two distinct simple edges share at most one address,
    # so no pair repeats.
    m = len(b.src)
    bits = _bits(m)
    low = (1 << bits) - 1
    keys = np.concatenate([b.src, b.dst]) << bits
    keys[:m] |= np.arange(m)
    keys[m:] |= np.arange(m)
    keys.sort()
    positions = keys & low
    ends = np.cumsum(np.bincount(keys >> bits, minlength=len(b.names)))[keys >> bits]
    later = ends - np.arange(1, 2 * m + 1)
    heads = np.repeat(positions, later)
    # the incidence after each head's, then the ones after that
    tails = np.repeat(np.arange(1, 2 * m + 1) - np.cumsum(later) + later, later)
    tails += np.arange(len(tails))
    keys = heads << bits | positions[tails]
    del heads, tails
    keys.sort()  # by (head, tail), which repeat no pair
    return keys >> bits, keys & low


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


def _flow_pairs(b: GraphBatch) -> tuple[np.ndarray, np.ndarray]:
    """The head-to-tail record pairs of a batch, sorted by (head, tail)."""
    src, dst = b.src, b.dst
    m = len(src)
    # join each record's destination to the records grouped by source, in
    # record order (one sort of source and position packed in one key):
    # heads and then tails come out sorted
    bits = _bits(m)
    by_src = np.sort(src << bits | np.arange(m)) & ((1 << bits) - 1)
    counts = np.bincount(src, minlength=len(b.names))
    starts = np.cumsum(counts) - counts
    tails_of = counts[dst]
    heads = np.repeat(np.arange(m), tails_of)
    # each head's first tail, then the ones after it
    tails = np.repeat(starts[dst] - np.cumsum(tails_of) + tails_of, tails_of)
    tails += np.arange(len(tails))
    tails = by_src[tails]
    if (src == dst).any():  # a self-loop is its own tail
        keep = tails != heads
        heads, tails = heads[keep], tails[keep]
    return heads, tails


BUILDERS = {
    "tsgn": build_tsgn,
    "dtsgn": build_directed_tsgn,
    "ttsgn": build_temporal_tsgn,
    "mtsgn": build_multiple_tsgn,
}
