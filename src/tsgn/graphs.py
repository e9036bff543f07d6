"""Immutable transaction-graph data model shared by every other module.

A transaction graph is an ego-network around a target account: nodes are
addresses, edges are individual transfers carrying an amount and an optional
integer timestamp. Instances are frozen after construction so they can be
shared read-only across worker threads; every operation in this module is a
pure function of its input graph.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from decimal import Decimal
from typing import Iterable

TIERS = ("plain", "directed", "multiedge")


def _as_amount(value) -> Decimal:
    """Normalize an amount to Decimal; floats go through str() so 0.05 stays 0.05."""
    if isinstance(value, Decimal):
        return value
    if isinstance(value, float):
        return Decimal(str(value))
    return Decimal(value)


@dataclass(frozen=True)
class EdgeRecord:
    """One raw transaction: ``src`` transfers ``amount`` to ``dst``.

    Amounts are kept as Decimal (bit-exact w.r.t. the source export) until the
    transform/feature layer converts them to float. ``amount`` may be 0 for a
    contract invocation. ``edge_id`` is the ordinal of the record within its
    graph and is what the subgraph mappings use as node identity.
    """

    src: str
    dst: str
    amount: Decimal
    timestamp: int | None = None
    edge_id: int = 0

    def __post_init__(self):
        object.__setattr__(self, "amount", _as_amount(self.amount))


@dataclass(frozen=True)
class TransactionGraph:
    """Ego-network of one target account.

    ``nodes`` is sorted and duplicate-free and ``edges`` is ordered by
    edge_id; both orderings exist to make downstream output deterministic.
    The three attribute flags say which edge attributes are meaningful:
    direction, timestamps, and whether parallel records are allowed.
    """

    nodes: tuple[str, ...]
    edges: tuple[EdgeRecord, ...]
    center: str
    directed: bool = True
    temporal: bool = False
    multiedge: bool = False
    label: str | None = None

    @classmethod
    def build(
        cls,
        edges: Iterable[EdgeRecord | tuple],
        center: str,
        *,
        directed: bool = True,
        temporal: bool = False,
        multiedge: bool = False,
        label: str | None = None,
    ) -> "TransactionGraph":
        """Assemble a graph from records or (src, dst, amount[, timestamp]) tuples.

        Edge ids are (re)assigned sequentially in input order and the node set
        is collected from the edge endpoints plus the center.
        """
        records = []
        for i, e in enumerate(edges):
            if isinstance(e, EdgeRecord):
                records.append(replace(e, edge_id=i))
            else:
                src, dst, amount = e[0], e[1], e[2]
                ts = e[3] if len(e) > 3 else None
                records.append(EdgeRecord(src, dst, amount, ts, i))
        nodes = {center}
        for r in records:
            nodes.add(r.src)
            nodes.add(r.dst)
        return cls(
            nodes=tuple(sorted(nodes)),
            edges=tuple(records),
            center=center,
            directed=directed,
            temporal=temporal,
            multiedge=multiedge,
            label=label,
        )

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def with_label(self, label: str | None) -> "TransactionGraph":
        return replace(self, label=label)


def _collapse(g: TransactionGraph, *, directed: bool) -> TransactionGraph:
    """One record per address pair, the heaviest of the pair's records.

    Pairs are ordered when ``directed`` and sorted otherwise, so anti-parallel
    records share an undirected pair. Edge ids are renumbered in pair order,
    the node set is kept, and the result is temporal when every kept record
    has a timestamp.
    """
    groups: dict[tuple[str, str], list[EdgeRecord]] = {}
    for r in g.edges:
        key = (r.src, r.dst) if directed or r.src <= r.dst else (r.dst, r.src)
        groups.setdefault(key, []).append(r)
    records = []
    for i, key in enumerate(sorted(groups)):
        # largest amount; ties go to the earliest edge_id
        winner = max(groups[key], key=lambda r: (r.amount, -r.edge_id))
        records.append(EdgeRecord(key[0], key[1], winner.amount, winner.timestamp, i))
    return replace(
        g,
        edges=tuple(records),
        directed=directed,
        temporal=all(r.timestamp is not None for r in records),
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
    return plain if g.temporal else replace(plain, temporal=False)


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
        return replace(undirected_projection(g), temporal=False)
    if not g.directed:
        raise ValueError(f"tier {tier!r} needs directed data but the graph is undirected")
    if tier == "directed":
        return _collapse(g, directed=True) if g.multiedge else g
    return replace(g, multiedge=True, temporal=all(r.timestamp is not None for r in g.edges))

