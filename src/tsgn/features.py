"""Handcrafted topological features and the pieces of the fusion.

The ten features are always computed on the unweighted, undirected, simple
view of the input graph, whether that input is an original transaction graph
or a mapped TsgnGraph of any variant. That keeps one feature definition valid
across every variant; mapped edge weights are exposed only through the
transform exports.

That view is one dense 0/1 adjacency matrix, and every feature is matrix code
on it. The largest eigenvalue comes from one dense symmetric eigensolve
(eigvalsh). Betweenness and closeness share one level-synchronous BFS that runs
from a block of sources at once (Brandes, J. Math. Sociol. 2001; Kepner and
Gilbert, Graph Algorithms in the Language of Linear Algebra, 2011).
feature_matrix rounds each value to the digits FeatureMatrix.to_csv writes.
Fusion is concat_features followed by a PCA that ml.evaluate fits on the
training rows of each split.
"""

from __future__ import annotations

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

# How FeatureMatrix.to_csv writes a value; feature_matrix rounds to it, so the
# forest trains on exactly the numbers that a written matrix loads back as.
VALUE_FORMAT = ".12g"

# Sources per all-sources BFS pass: its working matrices are SOURCE_BLOCK x n.
SOURCE_BLOCK = 256


def simple_adjacency(graph: TransactionGraph | TsgnGraph) -> np.ndarray:
    """Dense unweighted undirected simple adjacency over indices 0..n-1.

    A symmetric 0/1 float64 matrix with a zero diagonal. Transaction graphs
    index their sorted address list; TsgnGraphs index their nodes in edge_id
    order. Parallel, anti-parallel, and self edges collapse away here, so
    multi-edge inputs featurize exactly like their simple view.
    """
    if isinstance(graph, TransactionGraph):
        index = {addr: i for i, addr in enumerate(graph.nodes)}
        pairs = np.array([(index[r.src], index[r.dst]) for r in graph.edges], dtype=np.intp)
    else:
        pairs = graph.edges
    n = len(graph.nodes)
    a = np.zeros((n, n))
    u, v = pairs.reshape(-1, 2).T
    a[u, v] = a[v, u] = 1.0
    np.fill_diagonal(a, 0.0)
    return a


def handcrafted_features(graph: TransactionGraph | TsgnGraph) -> np.ndarray:
    """The ten topological attributes of a graph, in FEATURE_NAMES order.

    Raises ValueError on an empty (zero-node) graph.
    """
    a = simple_adjacency(graph)
    n = len(a)
    if n == 0:
        raise ValueError("cannot featurize an empty graph")
    deg = a.sum(axis=1)
    m = float(deg.sum()) / 2.0
    density = 0.0 if n <= 1 else 2.0 * m / (n * (n - 1))
    betweenness, closeness = _path_centralities(a)
    return np.array(
        [
            float(n),
            m,
            2.0 * m / n,
            float((deg == 1).mean()),
            density,
            average_neighbor_degree(a),
            average_clustering(a),
            largest_eigenvalue(a),
            float(betweenness.mean()),
            float(closeness.mean()),
        ]
    )


def average_neighbor_degree(a: np.ndarray) -> float:
    """Mean over nodes of the mean degree of their neighbors; isolated nodes count 0."""
    deg = a.sum(axis=1)
    per_node = np.divide(a @ deg, deg, out=np.zeros_like(deg), where=deg > 0)
    return float(per_node.mean())


def average_clustering(a: np.ndarray) -> float:
    """Mean local clustering coefficient; nodes of degree < 2 contribute 0."""
    deg = a.sum(axis=1)
    links = ((a @ a) * a).sum(axis=1)  # each neighbor link counted twice
    pairs = deg * (deg - 1)
    return float(np.divide(links, pairs, out=np.zeros_like(deg), where=pairs > 0).mean())


def largest_eigenvalue(a: np.ndarray) -> float:
    """Largest adjacency eigenvalue; exactly 0.0 for an empty or edgeless graph."""
    if not a.any():
        return 0.0
    return float(np.linalg.eigvalsh(a)[-1])


def _source_blocks(n: int):
    """Consecutive blocks of at most SOURCE_BLOCK source indices."""
    for start in range(0, n, SOURCE_BLOCK):
        yield np.arange(start, min(start + SOURCE_BLOCK, n))


def _shortest_paths(a: np.ndarray, sources: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hop distances (-1 if unreachable) and shortest-path counts from each source.

    Row i is for sources[i]. One level-synchronous BFS serves all the sources:
    the path counts of each level, times the adjacency, give the counts of the
    next level on the nodes that no earlier level reached.
    """
    rows = np.arange(len(sources))
    dist = np.full((len(sources), len(a)), -1)
    dist[rows, sources] = 0
    sigma = np.zeros(dist.shape)
    sigma[rows, sources] = 1.0
    frontier = sigma.copy()
    for level in range(1, len(a)):
        frontier = frontier @ a
        frontier[dist >= 0] = 0.0
        reached = frontier > 0
        if not reached.any():
            break
        dist[reached] = level
        sigma += frontier
    return dist, sigma


def _path_centralities(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Betweenness and closeness from one BFS per block of sources.

    Betweenness is normalized and undirected; only connected pairs count.
    Closeness is (r-1)/sum(d) * (r-1)/(n-1), where r counts the node and all
    it reaches; isolated nodes get 0.
    """
    n = len(a)
    bc = np.zeros(n)
    closeness = np.zeros(n)
    if n <= 1:
        return bc, closeness
    for sources in _source_blocks(n):
        dist, sigma = _shortest_paths(a, sources)
        reached = (dist > 0).sum(axis=1)  # r - 1
        total = dist.clip(min=0).sum(axis=1)
        scale = np.divide(reached, total, out=np.zeros(len(sources)), where=total > 0)
        closeness[sources] = scale * (reached / (n - 1))
        # dependencies flow back one level at a time, deepest first; a
        # source's own dependency (level 0) is never counted
        delta = np.zeros_like(sigma)
        for level in range(dist.max(), 1, -1):
            coeff = np.divide(1.0 + delta, sigma, out=np.zeros_like(sigma), where=dist == level)
            delta += (coeff @ a) * np.where(dist == level - 1, sigma, 0.0)
        bc += delta.sum(axis=0)
    if n > 2:
        # accumulation counts each unordered pair twice; fold that into the scale
        bc /= (n - 1) * (n - 2)
    return bc, closeness


@dataclass(frozen=True)
class FeatureMatrix:
    """Per-graph feature rows plus aligned labels and column names."""

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
        """Write header = column names, one row per graph, label last."""
        rows = (
            [*(format(v, VALUE_FORMAT) for v in row), label]
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
    deterministic for a fixed input. Every value is rounded to VALUE_FORMAT,
    so to_csv writes the matrix exactly and last-bit summation noise cannot
    decide a split.
    """
    if len(graphs) != len(labels):
        raise ValueError("graphs and labels differ in length")
    columns = tuple(f"{variant}:{name}" for name in FEATURE_NAMES)
    rows = ordered_map(handcrafted_features, graphs, threads)
    values = np.vstack(rows) if rows else np.zeros((0, len(columns)))
    values = np.array(
        [float(format(v, VALUE_FORMAT)) for v in values.flat]
    ).reshape(values.shape)
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
    singular vectors of the centered matrix. Component signs are fixed
    (largest-magnitude entry positive) so repeated fits are bit-identical.
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
        centered = x - self.mean_
        # The right singular vectors are the eigenvectors of the p x p Gram
        # matrix, largest eigenvalue first. eigh on it runs on one thread,
        # where an SVD of the rows wakes the BLAS thread pool, whose workers
        # then spin on idle cores after every call.
        _, vectors = np.linalg.eigh(centered.T @ centered)
        comps = vectors[:, ::-1][:, : self.n_components].T
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

