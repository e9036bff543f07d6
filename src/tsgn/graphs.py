"""Immutable transaction-graph data model shared by every other module.

A transaction graph is an ego-network around a target account: nodes are
addresses, edges are individual transfers carrying an amount and an optional
integer timestamp. Its records are read-only numpy columns, one row per
record, whose row is its edge id: ``src`` and ``dst`` as positions into the
sorted ``nodes``, the exact ``decimals`` read and int64 ``stamps`` with a
``timed`` mask. The columns are the only form of a record: no per-record
object is built, and the library reads, compares and writes records a column
at a time. A graph's ``tier`` says which attributes its records have: weight
only (``plain``: undirected, one record per pair), direction (``directed``:
one record per ordered pair) or direction and parallel records
(``multiedge``); a graph has time when it has direction and every record is
timed. Graphs are immutable, and every operation in this module is a pure
function of its input graph.

A GraphBatch holds the records of many graphs as one set of columns, so a
step such as the tier's collapse runs once over a whole dataset; the
functions on one graph run the same code on a batch of one. runs_within
splits items, such as graphs by their join sizes, into runs of bounded size
as their sizes come, so such a step can also run a bounded batch at a time.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass, replace
from decimal import Decimal
from itertools import accumulate, chain, repeat
from operator import is_not
from typing import Iterable, Iterator, Sequence

import numpy as np

TIERS = ("plain", "directed", "multiedge")


def check_choice(kind: str, value: str, choices: tuple[str, ...]) -> None:
    """Raise ValueError unless ``value`` is one of ``choices``."""
    if value not in choices:
        raise ValueError(f"unknown {kind} {value!r}; expected one of {choices}")


def _as_amount(value) -> Decimal:
    """An amount as a finite Decimal; floats go through str() so 0.05 stays 0.05."""
    if not isinstance(value, Decimal):
        value = Decimal(str(value) if isinstance(value, float) else value)
    if not value.is_finite():
        raise ValueError(f"non-finite amount {value}")
    return value


_COLUMNS = ("src", "dst", "stamps", "timed", "decimals")


def runs_within(sizes: Iterable[int], cap: int) -> Iterator[tuple[int, int]]:
    """(first, stop) ranges of consecutive items whose sizes sum to at most
    ``cap`` each, each run as long as it can be; an item above the cap goes
    alone, and no items make no runs.

    Sizes are taken one at a time and a run is yielded once the next size
    would take it past the cap, so the sizes may be drawn while the runs
    before are used. A last size past every cap closes the last run.
    """
    first = total = 0
    for stop, size in enumerate(chain(sizes, [float("inf")])):
        if stop > first and total + size > cap:
            yield first, stop
            first, total = stop, 0
        total += size


class TransactionGraph:
    """Ego-network of one target account, or with ``center`` None the records
    of one file.

    ``nodes`` is sorted and duplicate-free, and every column has one row per
    record in edge-id order; both orderings exist to make downstream output
    deterministic. ``tier``, one of TIERS, says which edge attributes are
    meaningful, and ``temporal`` follows from it and the records. The
    constructor takes the columns as they are and marks them read-only;
    ``build`` makes them from records. Graphs are immutable, and equal (with
    equal hashes) when their nodes, ``src``, ``dst``, ``decimals``, ``timed``
    mask, the stamps of their timed rows, center, tier and label are. An
    untimed row's stored stamp is ignored.
    """

    def __init__(
        self, nodes: tuple[str, ...], src: np.ndarray, dst: np.ndarray,
        stamps: np.ndarray, timed: np.ndarray, decimals: np.ndarray,
        center: str | None, *, tier: str = "directed", label: str | None = None,
    ):
        check_choice("tier", tier, TIERS)
        columns = (src, dst, stamps, timed, decimals)
        for column in columns:
            if column.flags.writeable:  # a replace passes on read-only columns
                column.setflags(write=False)
        vars(self).update(
            zip(_COLUMNS, columns), nodes=nodes, center=center, tier=tier, label=label
        )

    def _immutable(self, name, *value):
        raise FrozenInstanceError(f"cannot change {name!r} of an immutable TransactionGraph")

    __setattr__ = __delattr__ = _immutable

    @classmethod
    def build(
        cls, records: Iterable[tuple], center: str | None, *,
        tier: str = "directed", label: str | None = None,
    ) -> "TransactionGraph":
        """Assemble a graph from (src, dst, amount[, timestamp]) records.

        Edge ids number the records in input order and the node set is
        collected from the record endpoints plus the center. Raises
        ValueError on a non-finite amount and, at the directed and plain
        tiers, on two records that the tier holds once: build those at
        multiedge and then call at_tier.
        """
        rows = [r if len(r) == 4 else (*r, None) for r in records]
        m = len(rows)
        srcs, dsts, amounts, stamps = zip(*rows) if rows else ((), (), (), ())
        decimals = list(map(_as_amount, amounts))
        nodes = tuple(sorted({*srcs, *dsts} if center is None else {*srcs, *dsts, center}))
        index = dict(zip(nodes, range(len(nodes))))
        ends = np.fromiter(map(index.__getitem__, chain(srcs, dsts)), np.intp, 2 * m)
        timed = np.fromiter(map(is_not, stamps, repeat(None)), bool, m)
        if None in stamps:
            stamps = [0 if t is None else t for t in stamps]
        g = cls(
            nodes, ends[:m], ends[m:], np.fromiter(stamps, np.int64, m), timed,
            np.fromiter(decimals, object, m), center, tier=tier, label=label,
        )
        if tier != "multiedge" and len(_collapse(GraphBatch.of([g]), tier).src) < m:
            raise ValueError(f"the {tier} tier holds one record per pair: build at multiedge")
        return g

    @property
    def temporal(self) -> bool:
        """Whether the records carry time: the graph has direction and every
        record is timed."""
        return self.tier != "plain" and bool(self.timed.all())

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return len(self.src)

    def _key(self) -> tuple:
        columns = (self.src, self.dst, self.decimals, self.stamps[self.timed], self.timed)
        return (self.nodes, *(tuple(c.tolist()) for c in columns), self.center,
                self.tier, self.label)

    def __eq__(self, other):
        if not isinstance(other, TransactionGraph):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"TransactionGraph{self._key()!r}"

    def replace(self, **changes) -> "TransactionGraph":
        """A copy with ``changes`` to its constructor's arguments."""
        return TransactionGraph(**{**vars(self), **changes})

    def take(self, rows, **changes) -> "TransactionGraph":
        """The graph of the records at ``rows`` (a mask or positions), renumbered
        in that order, with ``changes`` as in replace."""
        columns = {name: getattr(self, name)[rows] for name in _COLUMNS}
        return TransactionGraph(**{**vars(self), **columns, **changes})

    def with_label(self, label: str | None) -> "TransactionGraph":
        return self.replace(label=label)


@dataclass(frozen=True, eq=False)
class GraphBatch:
    """The records of a sequence of graphs of one tier as one set of columns.

    Graph ``i`` holds the nodes ``names[node_offsets[i]:node_offsets[i + 1]]``,
    sorted, and the records ``offsets[i]:offsets[i + 1]``. ``src`` and
    ``dst`` are positions into ``names``, so a record's endpoints lie in its
    own graph's range, and node and record positions both order by graph
    first: an operation over the whole batch that sorts on them keeps every
    graph apart. ``graphs`` slices the batch back into TransactionGraphs.
    """

    names: list
    node_offsets: np.ndarray
    offsets: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    stamps: np.ndarray
    timed: np.ndarray
    decimals: np.ndarray
    tier: str
    centers: tuple
    labels: tuple

    @classmethod
    def of(cls, graphs: Sequence[TransactionGraph]) -> "GraphBatch":
        """The batch of ``graphs``, which must share one tier."""
        tiers = {g.tier for g in graphs}
        if len(tiers) > 1:
            raise ValueError(f"a batch holds graphs of one tier, not {sorted(tiers)}")
        counts = [g.edge_count for g in graphs]
        node_offsets = np.array([0, *accumulate(len(g.nodes) for g in graphs)])
        shift = np.repeat(node_offsets[:-1], counts)
        src, dst, stamps, timed, decimals = (
            np.concatenate([getattr(g, name) for g in graphs]) if graphs else np.empty(0, dtype)
            for name, dtype in zip(_COLUMNS, (np.intp, np.intp, np.int64, bool, object))
        )
        return cls(
            list(chain.from_iterable(g.nodes for g in graphs)), node_offsets,
            np.array([0, *accumulate(counts)]), src + shift, dst + shift, stamps, timed,
            decimals, tiers.pop() if tiers else "multiedge",
            tuple(g.center for g in graphs), tuple(g.label for g in graphs),
        )

    @property
    def graph_of_record(self) -> np.ndarray:
        return np.repeat(np.arange(len(self.offsets) - 1), self.offsets[1:] - self.offsets[:-1])

    def run(self, start: int, stop: int) -> "GraphBatch":
        """The batch of graphs ``start`` to ``stop - 1``, as GraphBatch.of
        would make it, its columns slices of this one's."""
        if start == 0 and stop == len(self.centers):
            return self
        (n0, n1), (r0, r1) = self.node_offsets[[start, stop]], self.offsets[[start, stop]]
        columns = {name: getattr(self, name)[r0:r1] for name in _COLUMNS}
        return replace(
            self, **{**columns, "src": columns["src"] - n0, "dst": columns["dst"] - n0},
            names=self.names[n0:n1], node_offsets=self.node_offsets[start : stop + 1] - n0,
            offsets=self.offsets[start : stop + 1] - r0, centers=self.centers[start:stop],
            labels=self.labels[start:stop],
        )

    def take(self, rows, **changes) -> "GraphBatch":
        """The batch of the records at ``rows`` (a mask or positions in graph
        order), renumbered in that order, with ``changes`` to its fields."""
        graph = self.graph_of_record[rows]
        offsets = np.searchsorted(graph, np.arange(len(self.offsets)))
        columns = {name: getattr(self, name)[rows] for name in _COLUMNS}
        return replace(self, **{**columns, "offsets": offsets, **changes})

    def graphs(self) -> list[TransactionGraph]:
        """Each graph of the batch, its columns slices of the batch's."""
        shift = self.node_offsets[self.graph_of_record]
        src, dst = self.src - shift, self.dst - shift
        names, tier = self.names, self.tier
        nodes, rows = self.node_offsets.tolist(), self.offsets.tolist()
        return [
            TransactionGraph(
                tuple(names[nodes[i] : nodes[i + 1]]),
                *(c[a:b] for c in (src, dst, self.stamps, self.timed, self.decimals)),
                center, tier=tier, label=label,
            )
            for i, (a, b, center, label) in enumerate(
                zip(rows, rows[1:], self.centers, self.labels)
            )
        ]


def _collapse(b: GraphBatch, tier: str) -> GraphBatch:
    """The batch at ``tier``, directed or plain: one record per address pair,
    the heaviest of the pair's records.

    Pairs are ordered at the directed tier and sorted at the plain one, so
    anti-parallel records share a plain pair. Records are ordered by pair, then
    by exact decimal, heaviest first, then by edge id, and the first record of
    each pair wins: equal decimals spelled apart (1.5 and 1.50) go to the
    earliest record, while decimals that round to one float (0.1 and
    0.1000000000000000000001) stay apart. One sort over the batch orders by
    pair, float and edge id; only where a pair's heaviest floats tie does
    ``Decimal`` order them. Edge ids are renumbered in pair order and the
    node set is kept.
    """
    a, c = b.src, b.dst
    if tier == "plain":
        a, c = np.minimum(a, c), np.maximum(a, c)
    pair = a * len(b.names) + c
    heavy = -b.decimals.astype(np.float64)  # float() of each decimal, negated
    order = np.lexsort((heavy, pair))  # a stable sort: ties by edge id
    pair, heavy = pair[order], heavy[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = pair[1:] != pair[:-1]
    # tie[i]: sorted record i has the float of record i - 1 in the same pair
    tie = np.zeros(len(order) + 1, dtype=bool)
    tie[1:-1] = ~first[1:] & (heavy[1:] == heavy[:-1])
    starts = np.flatnonzero(first)
    won = order[starts]
    for k in np.flatnonzero(tie[starts + 1]).tolist():
        end = starts[k] + 1
        while tie[end]:
            end += 1
        run = order[starts[k] : end].tolist()
        won[k] = max(run, key=lambda i: (b.decimals[i], -i))
    return b.take(won, src=a[won], dst=c[won], tier=tier)


def undirected_projection(g: TransactionGraph) -> TransactionGraph:
    """Drop the direction attribute, keeping one weighted edge per address pair.

    Parallel and anti-parallel records collapse to the record with the largest
    amount. Endpoints are stored in sorted order, edge ids are renumbered in
    sorted-pair order, and the node set is preserved. Projecting an already
    plain graph returns it unchanged, so the operation is idempotent.
    """
    return g if g.tier == "plain" else _collapse(GraphBatch.of([g]), "plain").graphs()[0]


def batch_at_tier(b: GraphBatch, tier: str) -> GraphBatch:
    """at_tier over every graph of a batch."""
    check_choice("tier", tier, TIERS)
    if tier == "plain":
        return b if b.tier == "plain" else _collapse(b, "plain")
    if b.tier == "plain":
        raise ValueError(f"tier {tier!r} needs directed data but the graph is undirected")
    if tier == "directed":
        return _collapse(b, "directed") if b.tier == "multiedge" else b
    return replace(b, tier="multiedge")


def at_tier(g: TransactionGraph, tier: str) -> TransactionGraph:
    """Re-express a graph at an attribute tier.

    plain     -> weight only (undirected simple projection, never temporal)
    directed  -> weight + direction (parallel same-direction records collapsed)
    multiedge -> weight + direction + timestamp, parallel records kept

    Direction cannot be recovered once dropped, so plain input only supports
    the plain tier.
    """
    return batch_at_tier(GraphBatch.of([g]), tier).graphs()[0]
