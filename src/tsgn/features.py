"""Handcrafted topological features and the concatenate-then-project fusion.

The ten features are always computed on the unweighted, undirected, simple
view of the input graph, whether that input is an original transaction graph
or a mapped TsgnGraph of any variant. That keeps one feature definition valid
across every variant; mapped edge weights are exposed only through the
transform exports.
"""

from __future__ import annotations

import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graphs import TransactionGraph
from .ingest import write_csv
from .transforms import TsgnGraph

FEATURE_NAMES = (
    "node_count",
    "edge_count",
    "average_degree",
    "leaf_fraction",
    "density",
    "average_neighbor_degree",
    "average_clustering",
    "largest_eigenvalue",
    "average_betweenness",
    "average_closeness",
)

POWER_ITERATION_TOL = 1e-9
POWER_ITERATION_MAX_STEPS = 1000


def simple_adjacency(graph: TransactionGraph | TsgnGraph) -> list[set[int]]:
    """Unweighted undirected simple adjacency over contiguous indices 0..n-1.

    Transaction graphs index their sorted address list; TsgnGraphs index their
    nodes in edge_id order. Parallel, anti-parallel, and self edges collapse
    away here, so multi-edge inputs featurize exactly like their simple view.
    """
    if isinstance(graph, TransactionGraph):
        index = {addr: i for i, addr in enumerate(graph.nodes)}
        n = len(graph.nodes)
        pairs = {
            (min(index[r.src], index[r.dst]), max(index[r.src], index[r.dst]))
            for r in graph.edges
            if r.src != r.dst
        }
    else:
        index = {r.edge_id: i for i, r in enumerate(graph.nodes)}
        n = len(graph.nodes)
        pairs = {
            (min(index[a], index[b]), max(index[a], index[b]))
            for a, b, _ in graph.edges
            if a != b
        }
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in pairs:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def handcrafted_features(graph: TransactionGraph | TsgnGraph) -> np.ndarray:
    """The ten topological attributes of a graph, in FEATURE_NAMES order.

    Raises ValueError on an empty (zero-node) graph.
    """
    adj = simple_adjacency(graph)
    n = len(adj)
    if n == 0:
        raise ValueError("cannot featurize an empty graph")
    deg = np.array([len(a) for a in adj], dtype=float)
    m = float(deg.sum()) / 2.0
    density = 0.0 if n <= 1 else 2.0 * m / (n * (n - 1))
    values = np.array(
        [
            float(n),
            m,
            2.0 * m / n,
            float((deg == 1).mean()),
            density,
            average_neighbor_degree(adj),
            average_clustering(adj),
            largest_eigenvalue(adj),
            float(betweenness_centrality(adj).mean()),
            float(closeness_centrality(adj).mean()),
        ]
    )
    return values


def average_neighbor_degree(adj: list[set[int]]) -> float:
    """Mean over nodes of the mean degree of their neighbors; isolated nodes count 0."""
    if not adj:
        return 0.0
    total = 0.0
    for nbrs in adj:
        if nbrs:
            total += sum(len(adj[u]) for u in nbrs) / len(nbrs)
    return total / len(adj)


def average_clustering(adj: list[set[int]]) -> float:
    """Mean local clustering coefficient; nodes of degree < 2 contribute 0."""
    if not adj:
        return 0.0
    total = 0.0
    for nbrs in adj:
        k = len(nbrs)
        if k < 2:
            continue
        links = 0
        for u in nbrs:
            links += len(adj[u] & nbrs)
        total += links / (k * (k - 1))  # each neighbor link counted twice
    return total / len(adj)


def largest_eigenvalue(adj: list[set[int]]) -> float:
    """Largest adjacency eigenvalue by power iteration.

    Deterministic all-ones start, Rayleigh-quotient tolerance 1e-9, at most
    1000 steps. The iteration runs on A + I: the +1 shift keeps bipartite
    spectra (where +lambda/-lambda pairs tie in magnitude) from stalling the
    plain iteration, and leaves the reported Rayleigh quotient of A unchanged.
    """
    n = len(adj)
    deg = np.array([len(a) for a in adj], dtype=np.int64)
    if n == 0 or deg.sum() == 0:
        return 0.0
    nbrs = np.fromiter((u for a in adj for u in sorted(a)), dtype=np.int64, count=int(deg.sum()))
    starts = np.zeros(n, dtype=np.int64)
    np.cumsum(deg[:-1], out=starts[1:])
    has_nbrs = deg > 0
    seg_starts = starts[has_nbrs]
    x = np.full(n, 1.0 / math.sqrt(n))
    rayleigh = 0.0
    prev = None
    for _ in range(POWER_ITERATION_MAX_STEPS):
        ax = np.zeros(n)
        ax[has_nbrs] = np.add.reduceat(x[nbrs], seg_starts)
        rayleigh = float(x @ ax)
        if prev is not None and abs(rayleigh - prev) <= POWER_ITERATION_TOL:
            break
        prev = rayleigh
        y = ax + x
        x = y / np.linalg.norm(y)  # y > 0 entrywise, A + I is nonnegative
    return rayleigh


def betweenness_centrality(adj: list[set[int]]) -> np.ndarray:
    """Normalized undirected betweenness for every node (Brandes accumulation).

    Only connected pairs contribute; with fewer than 3 nodes everything is 0.
    """
    n = len(adj)
    bc = np.zeros(n)
    for s in range(n):
        stack: list[int] = []
        preds: list[list[int]] = [[] for _ in range(n)]
        sigma = np.zeros(n)
        sigma[s] = 1.0
        dist = np.full(n, -1, dtype=np.int64)
        dist[s] = 0
        queue = deque([s])
        while queue:
            v = queue.popleft()
            stack.append(v)
            for w in adj[v]:
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    queue.append(w)
                if dist[w] == dist[v] + 1:
                    sigma[w] += sigma[v]
                    preds[w].append(v)
        delta = np.zeros(n)
        while stack:
            w = stack.pop()
            coeff = (1.0 + delta[w]) / sigma[w]
            for v in preds[w]:
                delta[v] += sigma[v] * coeff
            if w != s:
                bc[w] += delta[w]
    if n > 2:
        # accumulation counts each unordered pair twice; fold that into the scale
        bc /= (n - 1) * (n - 2)
    else:
        bc[:] = 0.0
    return bc


def closeness_centrality(adj: list[set[int]]) -> np.ndarray:
    """Closeness with reachable-set scaling: (r-1)/sum(d) * (r-1)/(n-1).

    r counts the node itself plus everything it reaches; isolated nodes get 0.
    """
    n = len(adj)
    out = np.zeros(n)
    if n <= 1:
        return out
    for s in range(n):
        dist = {s: 0}
        total = 0
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    total += dist[w]
                    queue.append(w)
        r = len(dist)
        if total > 0:
            out[s] = ((r - 1) / total) * ((r - 1) / (n - 1))
    return out


@dataclass(frozen=True)
class FeatureMatrix:
    """Per-graph feature rows plus aligned labels and column provenance."""

    values: np.ndarray
    labels: tuple[str, ...]
    columns: tuple[str, ...]

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "columns", tuple(self.columns))
        if values.ndim != 2:
            raise ValueError("feature values must be a 2-D matrix")
        if values.shape[0] != len(self.labels):
            raise ValueError(
                f"{values.shape[0]} rows but {len(self.labels)} labels"
            )
        if values.shape[1] != len(self.columns):
            raise ValueError(
                f"{values.shape[1]} columns but {len(self.columns)} column names"
            )
        if values.size and not np.isfinite(values).all():
            raise ValueError("non-finite feature values")

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_columns(self) -> int:
        return self.values.shape[1]

    def to_csv(self, path) -> None:
        """Write header = column provenance, one row per graph, label last."""
        rows = (
            [*(format(v, ".12g") for v in row), label]
            for row, label in zip(self.values, self.labels)
        )
        write_csv(path, (*self.columns, "label"), rows)


def ordered_map(fn, items: Sequence, threads: int = 1) -> list:
    """``[fn(x) for x in items]``, spread over ``threads`` threads when more
    than one is asked for; results keep input order for any thread count."""
    if threads > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
    return [fn(x) for x in items]


def feature_matrix(
    graphs: Sequence[TransactionGraph | TsgnGraph],
    labels: Sequence[str],
    variant: str = "tn",
    threads: int = 1,
) -> FeatureMatrix:
    """Extract handcrafted features for a batch of graphs.

    Rows follow the input order regardless of thread count, so the result is
    deterministic for a fixed input.
    """
    if len(graphs) != len(labels):
        raise ValueError("graphs and labels differ in length")
    columns = tuple(f"{variant}:{name}" for name in FEATURE_NAMES)
    rows = ordered_map(handcrafted_features, graphs, threads)
    values = np.vstack(rows) if rows else np.zeros((0, len(columns)))
    return FeatureMatrix(values, tuple(labels), columns)


def concat_features(a: FeatureMatrix, b: FeatureMatrix) -> FeatureMatrix:
    """Column-wise concatenation of two row- and label-aligned matrices."""
    if a.n_rows != b.n_rows:
        raise ValueError(f"row count mismatch: {a.n_rows} vs {b.n_rows}")
    if a.labels != b.labels:
        raise ValueError("label sequences differ between the two matrices")
    return FeatureMatrix(
        np.hstack([a.values, b.values]), a.labels, a.columns + b.columns
    )


class PCA:
    """Principal-component projection: fit on one matrix, apply to others.

    Mean-centers with the fitted mean and projects onto the top k right
    singular vectors. Component signs are fixed (largest-magnitude entry
    positive) so repeated fits are bit-identical.
    """

    def __init__(self, n_components: int):
        self.n_components = int(n_components)
        self.mean_: np.ndarray | None = None
        self.components_: np.ndarray | None = None

    def fit(self, x: np.ndarray) -> "PCA":
        x = np.asarray(x, dtype=float)
        if x.ndim != 2:
            raise ValueError("PCA input must be a 2-D matrix")
        if not 1 <= self.n_components <= x.shape[1]:
            raise ValueError(
                f"n_components={self.n_components} out of range for width {x.shape[1]}"
            )
        self.require_rows(x.shape[0])
        self.mean_ = x.mean(axis=0)
        _, _, vt = np.linalg.svd(x - self.mean_, full_matrices=False)
        comps = vt[: self.n_components]
        flip = np.sign(comps[np.arange(len(comps)), np.argmax(np.abs(comps), axis=1)])
        flip[flip == 0] = 1.0
        self.components_ = comps * flip[:, None]
        return self

    def require_rows(self, n_rows: int) -> None:
        """Raise ValueError unless a fit on ``n_rows`` rows can keep every component."""
        if self.n_components > n_rows:
            raise ValueError(
                f"n_components={self.n_components} exceeds the {n_rows} fitted rows"
            )

    def transform(self, x: np.ndarray) -> np.ndarray:
        if self.components_ is None:
            raise ValueError("PCA.transform called before fit")
        return (np.asarray(x, dtype=float) - self.mean_) @ self.components_.T


def fuse_and_project(
    tn: FeatureMatrix, mapped: FeatureMatrix, target_dim: int | None = None
) -> FeatureMatrix:
    """Concatenate original and mapped feature rows, then PCA-project.

    target_dim defaults to the original matrix's width so the fused vectors
    come out the same size as the unfused ones. This standalone form fits the
    projection on all rows; the evaluation harness instead fits per split on
    training rows only.
    """
    fused = concat_features(tn, mapped)
    k = target_dim if target_dim is not None else tn.n_columns
    if k > fused.n_columns:
        raise ValueError(
            f"target_dim={k} exceeds the concatenated width {fused.n_columns}"
        )
    projected = PCA(k).fit(fused.values).transform(fused.values)
    return FeatureMatrix(
        projected, fused.labels, tuple(f"pc{i + 1}" for i in range(k))
    )
