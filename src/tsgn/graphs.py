"""Immutable transaction-graph data model shared by every other module.

A transaction graph is an ego-network around a target account: nodes are
addresses, edges are individual transfers carrying an amount and an optional
integer timestamp. Its records are read-only numpy columns, one row per
record, whose row is its edge id: ``src`` and ``dst`` as positions into the
sorted ``nodes``, float64 ``amounts``, the exact ``decimals`` read, their
``ranks`` (each amount's place among the sorted distinct decimals of the
records the graph was built from, a whole file for a loaded one) and int64
``stamps`` with a ``timed`` mask. The columns are the only form of a record:
no per-record object is built, and the library reads, compares and writes
records a column at a time. Graphs are immutable so they can be shared
across worker threads; every operation in this module is a pure function of
its input graph.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from decimal import Decimal
from itertools import chain, repeat
from operator import is_not
from typing import Iterable

import numpy as np

TIERS = ("plain", "directed", "multiedge")


def _as_amount(value) -> Decimal:
    """Normalize an amount to Decimal; floats go through str() so 0.05 stays 0.05."""
    if isinstance(value, Decimal):
        return value
    if isinstance(value, float):
        return Decimal(str(value))
    return Decimal(value)


_COLUMNS = ("src", "dst", "amounts", "ranks", "stamps", "timed", "decimals")


class TransactionGraph:
    """Ego-network of one target account, or with ``center`` None the records
    of one file.

    ``nodes`` is sorted and duplicate-free, and every column has one row per
    record in edge-id order; both orderings exist to make downstream output
    deterministic. The three attribute flags say which edge attributes are
    meaningful: direction, timestamps, and whether parallel records are
    allowed. The constructor takes the columns as they are and marks them
    read-only; ``build`` makes them from records. Graphs are immutable, and
    equal (with equal hashes) when their nodes, ``src``, ``dst``,
    ``decimals``, ``timed`` mask, the stamps of their timed rows, center,
    flags and label are. An untimed row's stored stamp is ignored, as are the
    floats, which follow from the decimals, and the ranks, which depend on the
    records a graph was cut from.
    """

    def __init__(
        self, nodes: tuple[str, ...], src: np.ndarray, dst: np.ndarray,
        amounts: np.ndarray, ranks: np.ndarray, stamps: np.ndarray, timed: np.ndarray,
        decimals: np.ndarray, center: str | None, *, directed: bool = True,
        temporal: bool = False, multiedge: bool = False, label: str | None = None,
    ):
        columns = (src, dst, amounts, ranks, stamps, timed, decimals)
        for column in columns:
            if column.flags.writeable:  # a replace passes on read-only columns
                column.setflags(write=False)
        vars(self).update(
            zip(_COLUMNS, columns), nodes=nodes, center=center, directed=directed,
            temporal=temporal, multiedge=multiedge, label=label,
        )

    def _immutable(self, name, *value):
        raise FrozenInstanceError(f"cannot change {name!r} of an immutable TransactionGraph")

    __setattr__ = __delattr__ = _immutable

    @classmethod
    def build(
        cls, records: Iterable[tuple], center: str | None, *,
        directed: bool = True, temporal: bool = False, multiedge: bool = False,
        label: str | None = None,
    ) -> "TransactionGraph":
        """Assemble a graph from (src, dst, amount[, timestamp]) records.

        Edge ids number the records in input order and the node set is
        collected from the record endpoints plus the center. An amount's rank
        is its place among the sorted distinct decimals of these records, so
        equal decimals spelled apart (1.5 and 1.50) share one and decimals
        that round to one float (0.1 and 0.1000000000000000000001) do not;
        its float is that of its distinct decimal.
        """
        rows = [r if len(r) == 4 else (*r, None) for r in records]
        m = len(rows)
        srcs, dsts, amounts, stamps = zip(*rows) if rows else ((), (), (), ())
        decimals = list(map(_as_amount, amounts))
        ranks, values, last = [0] * m, [], None
        for i in sorted(range(m), key=decimals.__getitem__):
            if decimals[i] != last:  # a new distinct decimal and its float
                last = decimals[i]
                values.append(float(last))
            ranks[i] = len(values) - 1
        ranks = np.array(ranks, dtype=np.intp)
        nodes = tuple(sorted({*srcs, *dsts} if center is None else {*srcs, *dsts, center}))
        index = dict(zip(nodes, range(len(nodes))))
        ends = np.fromiter(map(index.__getitem__, chain(srcs, dsts)), np.intp, 2 * m)
        timed = np.fromiter(map(is_not, stamps, repeat(None)), bool, m)
        if None in stamps:
            stamps = [0 if t is None else t for t in stamps]
        return cls(
            nodes, ends[:m], ends[m:],
            np.array(values, dtype=np.float64)[ranks],
            ranks, np.fromiter(stamps, np.int64, m), timed, np.fromiter(decimals, object, m),
            center, directed=directed, temporal=temporal, multiedge=multiedge, label=label,
        )

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return len(self.src)

    def _key(self) -> tuple:
        columns = (self.src, self.dst, self.decimals, self.stamps[self.timed], self.timed)
        return (self.nodes, *(tuple(c.tolist()) for c in columns), self.center,
                self.directed, self.temporal, self.multiedge, self.label)

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


def _collapse(g: TransactionGraph, *, directed: bool) -> TransactionGraph:
    """One record per address pair, the heaviest of the pair's records.

    Pairs are ordered when ``directed`` and sorted otherwise, so anti-parallel
    records share an undirected pair. Records are ordered by pair, then by
    exact amount rank, heaviest first, then by edge id (lexsort is stable), and
    the first record of each pair wins: equal decimals go to the earliest
    record. Edge ids are renumbered in pair order, the node set is kept, and
    the result is temporal when every kept record has a timestamp.
    """
    a, b = g.src, g.dst
    if not directed:
        a, b = np.minimum(a, b), np.maximum(a, b)
    pair = a * len(g.nodes) + b
    order = np.lexsort((-g.ranks, pair))
    pair = pair[order]
    first = np.ones(len(pair), dtype=bool)
    first[1:] = pair[1:] != pair[:-1]
    won = order[first]
    return g.take(
        won,
        src=a[won],
        dst=b[won],
        directed=directed,
        temporal=bool(g.timed[won].all()),
        multiedge=False,
    )


def undirected_projection(g: TransactionGraph) -> TransactionGraph:
    """Drop the direction attribute, keeping one weighted edge per address pair.

    Parallel and anti-parallel records collapse to the record with the largest
    amount. Endpoints are stored in sorted order, edge ids are renumbered in
    sorted-pair order, and the node set is preserved. The result is temporal
    only if the input was. Projecting an already plain graph returns it
    unchanged, so the operation is idempotent.
    """
    if not g.directed and not g.multiedge:
        return g
    plain = _collapse(g, directed=False)
    return plain if g.temporal else plain.replace(temporal=False)


def at_tier(g: TransactionGraph, tier: str) -> TransactionGraph:
    """Re-express a graph at an attribute tier.

    plain     -> weight only (undirected simple projection, temporal flag off)
    directed  -> weight + direction (parallel same-direction records collapsed)
    multiedge -> weight + direction + timestamp, parallel records kept

    Direction cannot be recovered once dropped, so plain input only supports
    the plain tier.
    """
    if tier not in TIERS:
        raise ValueError(f"unknown tier {tier!r}; expected one of {TIERS}")
    if tier == "plain":
        return undirected_projection(g).replace(temporal=False)
    if not g.directed:
        raise ValueError(f"tier {tier!r} needs directed data but the graph is undirected")
    if tier == "directed":
        return _collapse(g, directed=True) if g.multiedge else g
    return g.replace(multiedge=True, temporal=bool(g.timed.all()))
