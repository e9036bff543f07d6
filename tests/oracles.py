"""Brute-force reference implementations and random-graph builders.

Everything here is deliberately naive (pairwise scans, all-pairs BFS, dense
eigensolves) and independent of the library code paths it is used to check.
"""

from __future__ import annotations

import csv
import math
import random
from collections import deque
from decimal import Decimal
from pathlib import Path
from typing import NamedTuple

import numpy as np

from tsgn import RandomForest, TransactionGraph, TsgnGraph
from tsgn.ingest import _amt, _with_timestamps


# ----------------------------------------------------------------- records

class Row(NamedTuple):
    """One record of a TransactionGraph, read back from its columns."""

    src: str
    dst: str
    amount: Decimal
    timestamp: int | None
    edge_id: int


def rows_of(g: TransactionGraph) -> tuple[Row, ...]:
    """The records of ``g`` in edge-id order, an untimed one with timestamp None."""
    nodes = g.nodes
    columns = zip(
        g.src.tolist(), g.dst.tolist(), g.decimals.tolist(), g.stamps.tolist(), g.timed.tolist()
    )
    return tuple(
        Row(nodes[s], nodes[d], amount, stamp if timed else None, i)
        for i, (s, d, amount, stamp, timed) in enumerate(columns)
    )


# ---------------------------------------------------------------- mappings

def shared_endpoint_pairs(records):
    """All unordered pairs of undirected edges sharing at least one endpoint."""
    pairs = set()
    for i in range(len(records)):
        for j in range(i + 1, len(records)):
            a, b = records[i], records[j]
            if {a.src, a.dst} & {b.src, b.dst}:
                lo, hi = sorted((a.edge_id, b.edge_id))
                pairs.add((lo, hi))
    return pairs


def head_to_tail_pairs(records):
    """All ordered pairs (a, b) with dst(a) = src(b), a != b."""
    pairs = set()
    for a in records:
        for b in records:
            if a.edge_id != b.edge_id and a.dst == b.src:
                pairs.add((a.edge_id, b.edge_id))
    return pairs


def time_ordered_pairs(records):
    """head_to_tail_pairs restricted to strictly increasing timestamps."""
    pairs = set()
    for a in records:
        for b in records:
            if (
                a.edge_id != b.edge_id
                and a.dst == b.src
                and a.timestamp < b.timestamp
            ):
                pairs.add((a.edge_id, b.edge_id))
    return pairs


def edge_pairs(t: TsgnGraph) -> frozenset[tuple[int, int]]:
    """A mapped graph's (from_edge_id, to_edge_id) set, weights projected away."""
    return frozenset(map(tuple, t.edges.tolist()))


def edge_tuples(t: TsgnGraph) -> tuple[tuple[int, int, float], ...]:
    """A mapped graph's edges as (from_edge_id, to_edge_id, weight), in stored order."""
    return tuple((a, b, w) for (a, b), w in zip(t.edges.tolist(), t.weights.tolist()))


def same_mapping(t1: TsgnGraph, t2: TsgnGraph) -> bool:
    """Whether two mapped graphs hold the same variant, node count and weighted edges."""
    return (t1.variant, t1.node_count, edge_tuples(t1)) == (
        t2.variant, t2.node_count, edge_tuples(t2)
    )


def is_dag(node_ids, pairs):
    """Kahn's algorithm over explicit node ids and (from, to) pairs."""
    node_ids = list(node_ids)
    succ = {v: [] for v in node_ids}
    indeg = {v: 0 for v in node_ids}
    for a, b in pairs:
        succ[a].append(b)
        indeg[b] += 1
    queue = deque(v for v in node_ids if indeg[v] == 0)
    done = 0
    while queue:
        v = queue.popleft()
        done += 1
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    return done == len(node_ids)


# ------------------------------------------------------------------ graphs

def validate(g: TransactionGraph) -> list[str]:
    """Check every structural invariant; returns one message per violation.

    Diagnostic only — an empty list means the graph is well formed.
    """
    problems: list[str] = []
    node_set = set(g.nodes)
    for node in g.nodes:
        if not node:
            problems.append("empty address in node set")
    if g.center not in node_set:
        problems.append(f"center {g.center!r} not in node set")
    columns = ("src", "dst", "stamps", "timed", "decimals")
    rows = {name: len(getattr(g, name)) for name in columns}
    if len(set(rows.values())) > 1:
        return problems + [f"columns of unequal length: {rows}"]
    # an endpoint is a position into the node set; -1 would name the last node
    loose = [
        f"edge {i}: {name} position {p} not in node set"
        for name in ("src", "dst")
        for i, p in enumerate(getattr(g, name).tolist())
        if not 0 <= p < len(g.nodes)
    ]
    if loose:
        return problems + loose
    seen_pairs: set[tuple[str, str]] = set()
    for r in rows_of(g):
        tag = f"edge {r.edge_id} ({r.src}->{r.dst})"
        if r.amount < 0:
            problems.append(f"{tag}: negative amount {r.amount}")
        if r.src == r.dst:
            problems.append(f"{tag}: self-loop")
        if g.tier != "multiedge":
            key = (r.src, r.dst)
            if g.tier == "plain" and r.dst < r.src:
                key = (r.dst, r.src)
            if key in seen_pairs:
                problems.append(f"{tag}: parallel edge in a simple graph")
            seen_pairs.add(key)
    return problems


def collapse_reference(g: TransactionGraph, *, directed: bool) -> TransactionGraph:
    """One record per address pair, record by record: the heaviest by Decimal,
    ties to the earliest edge id.

    Pairs are ordered when ``directed`` and sorted otherwise; the kept records
    are renumbered in sorted-pair order, at the directed or the plain tier.
    """
    groups: dict[tuple[str, str], list] = {}
    for r in rows_of(g):
        key = (r.src, r.dst) if directed or r.src <= r.dst else (r.dst, r.src)
        groups.setdefault(key, []).append(r)
    records = []
    for key in sorted(groups):
        winner = max(groups[key], key=lambda r: (r.amount, -r.edge_id))
        records.append((key[0], key[1], winner.amount, winner.timestamp))
    tier = "directed" if directed else "plain"
    return TransactionGraph.build(records, g.center, tier=tier, label=g.label)


def load_reference(
    root, tier: str, form: str
) -> tuple[tuple[str, ...], tuple[TransactionGraph, ...]]:
    """load_dataset record by record: csv rows read file by file, self-loops
    dropped, a set-membership ego cut and collapse_reference for the tier.
    Returns the graph ids, sorted, and their graphs."""
    root = Path(root)
    with open(root / "labels.csv", newline="", encoding="utf-8-sig") as fh:
        entries = sorted(
            (row["graph_id"], row["center_address"], row["label"]) for row in csv.DictReader(fh)
        )
    graphs = []
    for graph_id, center, label in entries:
        with open(root / f"{graph_id}.csv", newline="", encoding="utf-8-sig") as fh:
            records = []
            for row in csv.DictReader(fh):
                src, dst = row["src"].strip().lower(), row["dst"].strip().lower()
                stamp = (row.get("timestamp") or "").strip()
                if src != dst:
                    records.append(
                        (src, dst, Decimal(row["amount"].strip()), int(stamp) if stamp else None)
                    )
        target = center.strip().lower()
        incident = [r for r in records if target in (r[0], r[1])]
        near = {target} | {r[0] for r in incident} | {r[1] for r in incident}
        kept = incident if form == "star" else [r for r in records if {r[0], r[1]} <= near]
        g = TransactionGraph.build(kept, target, tier="multiedge", label=label)
        if tier != "multiedge":
            g = collapse_reference(g, directed=tier == "directed")
        graphs.append(g)
    return tuple(e[0] for e in entries), tuple(graphs)


# ---------------------------------------------------------------- features

def oracle_adjacency(graph):
    """Simple undirected adjacency, built independently of tsgn.features."""
    if isinstance(graph, TsgnGraph):
        names = range(graph.node_count)
        raw = edge_pairs(graph)
    else:
        names = graph.nodes
        raw = [(r.src, r.dst) for r in rows_of(graph)]
    pos = {name: i for i, name in enumerate(names)}
    adj = [set() for _ in names]
    for u, v in raw:
        if u == v:
            continue
        adj[pos[u]].add(pos[v])
        adj[pos[v]].add(pos[u])
    return adj


def bfs_distances(adj, source):
    dist = {source: 0}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def closeness_oracle(adj):
    n = len(adj)
    out = [0.0] * n
    if n <= 1:
        return out
    for s in range(n):
        dist = bfs_distances(adj, s)
        total = sum(dist.values())
        r = len(dist)
        if total > 0:
            out[s] = ((r - 1) / total) * ((r - 1) / (n - 1))
    return out


def betweenness_oracle(adj):
    """Pair-enumeration betweenness from per-source distances and path counts."""
    n = len(adj)
    dist = [[-1] * n for _ in range(n)]
    sigma = [[0.0] * n for _ in range(n)]
    for s in range(n):
        dist[s][s] = 0
        sigma[s][s] = 1.0
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if dist[s][w] < 0:
                    dist[s][w] = dist[s][v] + 1
                    queue.append(w)
                if dist[s][w] == dist[s][v] + 1:
                    sigma[s][w] += sigma[s][v]
    bc = [0.0] * n
    for s in range(n):
        for t in range(s + 1, n):
            if dist[s][t] < 0:
                continue
            for v in range(n):
                if v in (s, t) or dist[s][v] < 0 or dist[v][t] < 0:
                    continue
                if dist[s][v] + dist[v][t] == dist[s][t]:
                    bc[v] += sigma[s][v] * sigma[v][t] / sigma[s][t]
    if n > 2:
        scale = 2.0 / ((n - 1) * (n - 2))
        bc = [v * scale for v in bc]
    else:
        bc = [0.0] * n
    return bc


def clustering_oracle(adj):
    n = len(adj)
    if n == 0:
        return 0.0
    total = 0.0
    for v in range(n):
        nbrs = sorted(adj[v])
        k = len(nbrs)
        if k < 2:
            continue
        links = 0
        for i in range(k):
            for j in range(i + 1, k):
                if nbrs[j] in adj[nbrs[i]]:
                    links += 1
        total += 2.0 * links / (k * (k - 1))
    return total / n


def neighbor_degree_oracle(adj):
    n = len(adj)
    if n == 0:
        return 0.0
    total = 0.0
    for v in range(n):
        if adj[v]:
            total += sum(len(adj[u]) for u in adj[v]) / len(adj[v])
    return total / n


def eigenvalue_oracle(adj):
    n = len(adj)
    if n == 0:
        return 0.0
    a = np.zeros((n, n))
    for v in range(n):
        for w in adj[v]:
            a[v, w] = 1.0
    return float(np.linalg.eigvalsh(a).max())


def feature_oracle(graph):
    """All ten handcrafted features from the naive building blocks."""
    adj = oracle_adjacency(graph)
    n = len(adj)
    deg = [len(a) for a in adj]
    m = sum(deg) / 2.0
    return np.array(
        [
            float(n),
            m,
            2.0 * m / n,
            sum(1 for d in deg if d == 1) / n,
            0.0 if n <= 1 else 2.0 * m / (n * (n - 1)),
            neighbor_degree_oracle(adj),
            clustering_oracle(adj),
            eigenvalue_oracle(adj),
            float(np.mean(betweenness_oracle(adj))),
            float(np.mean(closeness_oracle(adj))),
        ]
    )


def svd_pca_components(x: np.ndarray, n_components: int) -> np.ndarray:
    """PCA components from an SVD of the centered rows, with PCA's sign rule
    (largest-magnitude entry positive)."""
    _, _, vt = np.linalg.svd(x - x.mean(axis=0), full_matrices=False)
    comps = vt[:n_components]
    flip = np.sign(comps[np.arange(len(comps)), np.argmax(np.abs(comps), axis=1)])
    flip[flip == 0] = 1.0
    return comps * flip[:, None]


# ------------------------------------------------------------------ forest

class _Node:
    __slots__ = ("feature", "threshold", "left", "right", "probs")

    def __init__(self):
        self.feature = None
        self.threshold = 0.0
        self.left = None
        self.right = None
        self.probs = None


_MASK = (1 << 64) - 1


def splitmix64(key: int, i: int) -> int:
    """Draw ``i`` of the SplitMix64 stream of ``key``, in Python integers."""
    z = (key + i * 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


class ReferenceForest(RandomForest):
    """The per-feature CART search: every drawn feature is stable-sorted and
    scored at every position, and trees are linked ``_Node`` objects grown
    recursively, one tree after another, and walked one row at a time. The
    same keyed draws as RandomForest, computed one at a time: tree ``t``
    bootstraps row ``draw % n`` for draws ``t * n + 1`` to ``t * n + n`` of
    the fit's bootstrap stream, its root's key is draw ``t + 1`` of the root
    stream, and a node draws the ``k`` features of least draw among draws 1
    to ``p`` of its key's stream, its children's keys being draws ``p + 1``
    and ``p + 2``."""

    def fit(self, x: np.ndarray, labels) -> "ReferenceForest":
        x = np.asarray(x, dtype=float)
        self.classes_ = tuple(sorted(set(labels)))
        code = {c: i for i, c in enumerate(self.classes_)}
        y = np.array([code[v] for v in labels], dtype=np.int64)
        n = len(y)
        boot_key, root_key = (
            int(v) for v in np.random.SeedSequence(self.config.seed).generate_state(2, np.uint64)
        )
        self._trees = []
        for t in range(self.config.n_trees):
            boot = [splitmix64(boot_key, t * n + i + 1) % n for i in range(n)]
            self._trees.append(
                self._grow(x[boot], y[boot], np.arange(n), splitmix64(root_key, t + 1))
            )
        return self

    def predict(self, x: np.ndarray) -> list:
        if self.classes_ is None:
            raise ValueError("predict called before fit")
        x = np.asarray(x, dtype=float)
        votes = np.zeros((x.shape[0], len(self.classes_)))
        for root in self._trees:
            for i in range(x.shape[0]):
                node = root
                row = x[i]
                while node.feature is not None:
                    node = node.left if row[node.feature] <= node.threshold else node.right
                votes[i] += node.probs
        return [self.classes_[int(np.argmax(v))] for v in votes]

    def _grow(self, x: np.ndarray, y: np.ndarray, idx: np.ndarray, key: int) -> _Node:
        node = _Node()
        counts = np.bincount(y[idx], minlength=len(self.classes_))
        m = len(idx)
        node.probs = counts / m  # read only at a leaf
        if counts.max() == m:
            return node
        p = x.shape[1]
        k = max(1, int(math.sqrt(p)))
        draws = [splitmix64(key, j + 1) for j in range(p)]
        features = sorted(range(p), key=lambda f: (draws[f], f))[:k]
        parent_gini = 1.0 - float(((counts / m) ** 2).sum())
        best = self._best_split(x, y, idx, features)
        if best is None or parent_gini - best[0] <= 1e-12:
            return node
        _, node.feature, node.threshold = best
        mask = x[idx, node.feature] <= node.threshold
        node.left = self._grow(x, y, idx[mask], splitmix64(key, p + 1))
        node.right = self._grow(x, y, idx[~mask], splitmix64(key, p + 2))
        return node

    def _best_split(self, x, y, idx, features):
        n_classes = len(self.classes_)
        m = len(idx)
        onehot = np.zeros((m, n_classes))
        onehot[np.arange(m), y[idx]] = 1.0
        sizes_left = np.arange(1, m, dtype=float)
        sizes_right = m - sizes_left
        best = None
        for feature in features:
            vals = x[idx, feature]
            order = np.argsort(vals, kind="stable")
            sv = vals[order]
            valid = sv[1:] > sv[:-1]
            if not valid.any():
                continue
            cum = np.cumsum(onehot[order], axis=0)
            left = cum[:-1]
            right = cum[-1] - left
            gini_left = 1.0 - ((left / sizes_left[:, None]) ** 2).sum(axis=1)
            gini_right = 1.0 - ((right / sizes_right[:, None]) ** 2).sum(axis=1)
            score = (sizes_left * gini_left + sizes_right * gini_right) / m
            score[~valid] = np.inf
            pos = int(np.argmin(score))
            if best is None or score[pos] < best[0]:
                threshold = (sv[pos] + sv[pos + 1]) / 2.0
                if threshold >= sv[pos + 1]:  # fp rounding collapsed the midpoint
                    threshold = sv[pos]
                best = (float(score[pos]), int(feature), float(threshold))
        return best


# ------------------------------------------------------------ random graphs

def random_undirected_graph(rnd: random.Random, max_nodes: int = 8) -> TransactionGraph:
    n = rnd.randint(1, max_nodes)
    names = [f"v{i}" for i in range(n)]
    p = rnd.uniform(0.15, 0.7)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rnd.random() < p:
                edges.append((names[i], names[j], rnd.randint(0, 6)))
    return TransactionGraph.build(edges, names[0], tier="plain")


def random_digraph(rnd: random.Random, max_nodes: int = 8, temporal: bool = False) -> TransactionGraph:
    n = rnd.randint(1, max_nodes)
    names = [f"v{i}" for i in range(n)]
    p = rnd.uniform(0.1, 0.5)
    edges = []
    for i in range(n):
        for j in range(n):
            if i != j and rnd.random() < p:
                ts = rnd.randint(0, 20) if temporal else None  # ties on purpose
                edges.append((names[i], names[j], rnd.randint(0, 6), ts))
    return TransactionGraph.build(edges, names[0])


def random_multigraph(rnd: random.Random, max_nodes: int = 8) -> TransactionGraph:
    base = random_digraph(rnd, max_nodes, temporal=True)
    edges = [(r.src, r.dst, r.amount, r.timestamp) for r in rows_of(base)]
    for r in rows_of(base):
        if rnd.random() < 0.4:  # parallel duplicate with its own timestamp
            edges.append((r.src, r.dst, rnd.randint(0, 6), rnd.randint(0, 20)))
    return TransactionGraph.build(edges, base.center, tier="multiedge")


def generate_dense_star_graphs(
    n_graphs: int = 3, n_nodes: int = 520, seed: int = 0
) -> list[TransactionGraph]:
    """Dense mixed-direction star ego-nets for construction-cost comparisons.

    Half the neighbors send to the center and half receive from it, with
    timestamps interleaved at random, so each mapping variant prunes a
    substantial share of the candidate transaction pairs.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
    graphs = []
    for gid in range(n_graphs):
        center = f"d{gid}c"
        rows = []
        for k in range(n_nodes - 1):
            v = f"d{gid}n{k}"
            amount = _amt(rng, 0.05, 5.0)
            if k % 2 == 0:
                rows.append((v, center, amount))
            else:
                rows.append((center, v, amount))
        order = rng.permutation(len(rows))
        stamped = _with_timestamps(rng, [rows[i] for i in order])
        graphs.append(TransactionGraph.build(stamped, center))
    return graphs



# ------------------------------------------------------------ fixed examples

def star_with_neighbor_trades() -> TransactionGraph:
    """Star of five center transactions plus two neighbor transactions.

    After projection the edge ids are 0..4 for the center edges (sorted pair
    order), 5 for {v1, v2}, and 6 for {v4, v5}.
    """
    edges = [
        ("v1", "c", 2),
        ("v2", "c", 3),
        ("c", "v3", 1),
        ("c", "v4", 4),
        ("v5", "c", 2),
        ("v1", "v2", 1),
        ("v4", "v5", 5),
    ]
    return TransactionGraph.build(edges, "c")


def star_with_neighbor_trades_pairs():
    clique = {(i, j) for i in range(5) for j in range(i + 1, 5)}
    return clique | {(0, 5), (1, 5), (3, 6), (4, 6)}


def time_filtered_flow_graph() -> TransactionGraph:
    """Seven temporal transactions t1..t7 (edge ids 0..6, timestamps 1..7).

    The directed mapping contains (t1,t2) and (t3,t5) plus, among others,
    (t3,t2), (t7,t3), (t6,t1); the temporal filter must drop exactly those
    last three.
    """
    edges = [
        ("a", "c", 1, 1),  # t1
        ("c", "b", 1, 2),  # t2
        ("b", "c", 1, 3),  # t3
        ("c", "f", 1, 4),  # t4
        ("c", "d", 1, 5),  # t5
        ("f", "a", 1, 6),  # t6
        ("g", "b", 1, 7),  # t7
    ]
    return TransactionGraph.build(edges, "c")


TIME_VIOLATING_PAIRS = {(2, 1), (6, 2), (5, 0)}  # (t3,t2), (t7,t3), (t6,t1)


def two_transaction_chains():
    """The four 2-transaction temporal chains: only (a) maps to an edge."""
    cases = {
        "a": [("v1", "v2", 1, 4), ("v2", "v3", 1, 7)],
        "b": [("v1", "v2", 1, 4), ("v3", "v2", 1, 7)],
        "c": [("v2", "v1", 1, 4), ("v3", "v2", 1, 7)],
        "d": [("v2", "v1", 1, 4), ("v2", "v3", 1, 7)],
    }
    return {
        key: TransactionGraph.build(edges, "v2")
        for key, edges in cases.items()
    }
