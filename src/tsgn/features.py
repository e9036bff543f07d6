"""Handcrafted topological features and the pieces of the fusion.

The ten features are always computed on the unweighted, undirected, simple
view of the input graph, whether that input is an original transaction graph
or a mapped TsgnGraph of any variant. That keeps one feature definition valid
across every variant; mapped edge weights are exposed only through the
transform exports.

That view is one dense 0/1 adjacency matrix, and every feature is matrix code
on it. feature_matrix groups its graphs by node count and stacks each group's
adjacencies into (G, n, n) arrays of at most CELL_CAP cells; the kernels work
on the last two axes, so one pass computes a feature for a whole stack, and a
single matrix is a stack of one. The largest eigenvalue comes from one dense
symmetric eigensolve per matrix (eigvalsh). Betweenness and closeness share
one level-synchronous BFS over every (graph, source) row of a stack, in
blocks of sources that keep its working arrays within CELL_CAP cells
(Brandes, J. Math. Sociol. 2001; Kepner and Gilbert, Graph Algorithms in the
Language of Linear Algebra, 2011). feature_matrix rounds each value to the
digits FeatureMatrix.to_csv writes.
Fusion is concat_features followed by a PCA that ml.evaluate fits on the
training rows of each split.
"""

from __future__ import annotations

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

# Cells of a stack's working arrays (256 KB of float64): a stack holds at most
# CELL_CAP // (n * n) graphs of n nodes, and its BFS runs at most
# CELL_CAP // (graphs * n) sources per pass, so a graph with n * n > CELL_CAP
# runs alone, in blocks of CELL_CAP // n sources.
CELL_CAP = 1 << 15


def simple_adjacency(graphs: Sequence[TransactionGraph | TsgnGraph]) -> np.ndarray:
    """Dense unweighted undirected simple adjacencies of same-size graphs.

    A (G, n, n) stack of symmetric 0/1 float64 matrices with zero diagonals,
    one per graph, over indices 0..n-1. Transaction graphs index their sorted
    address list; a TsgnGraph's node ids are edge ids already. Parallel,
    anti-parallel, and self edges collapse away here, so multi-edge inputs
    featurize exactly like their simple view.
    """
    heads = [g.src if isinstance(g, TransactionGraph) else g.edges[:, 0] for g in graphs]
    tails = [g.dst if isinstance(g, TransactionGraph) else g.edges[:, 1] for g in graphs]
    n = graphs[0].node_count
    a = np.zeros((len(graphs), n, n))
    which = np.repeat(np.arange(len(graphs)), [len(h) for h in heads])
    u, v = np.concatenate(heads), np.concatenate(tails)
    a[which, u, v] = a[which, v, u] = 1.0
    a[:, np.arange(n), np.arange(n)] = 0.0
    return a


def handcrafted_features(graph: TransactionGraph | TsgnGraph) -> np.ndarray:
    """The ten topological attributes of a graph, in FEATURE_NAMES order.

    Unrounded; the graph runs as a stack of one through the code that
    feature_matrix runs on every stack. Raises ValueError on an empty
    (zero-node) graph.
    """
    if graph.node_count == 0:
        raise ValueError("cannot featurize an empty graph")
    return _stack_features(simple_adjacency([graph]))[0]


def _stack_features(a: np.ndarray) -> np.ndarray:
    """One row of the ten features per graph of a (G, n, n) adjacency stack, n >= 1."""
    n = a.shape[-1]
    deg = a.sum(axis=-1)
    m = deg.sum(axis=-1) / 2.0
    density = 2.0 * m / (n * (n - 1)) if n > 1 else np.zeros_like(m)
    betweenness, closeness = _path_centralities(a)
    return np.stack(
        [
            np.full_like(m, n),
            m,
            2.0 * m / n,
            (deg == 1).mean(axis=-1),
            density,
            average_neighbor_degree(a),
            average_clustering(a),
            largest_eigenvalue(a),
            betweenness.mean(axis=-1),
            closeness.mean(axis=-1),
        ],
        axis=-1,
    )


# The kernels below take one adjacency matrix or a stack of them: they work
# on the last two axes and return one value (or one row) per matrix.


def average_neighbor_degree(a: np.ndarray) -> np.ndarray:
    """Mean over nodes of the mean degree of their neighbors; isolated nodes count 0."""
    deg = a.sum(axis=-1)
    per_node = np.divide((a @ deg[..., None])[..., 0], deg, out=np.zeros_like(deg), where=deg > 0)
    return per_node.mean(axis=-1)


def average_clustering(a: np.ndarray) -> np.ndarray:
    """Mean local clustering coefficient; nodes of degree < 2 contribute 0."""
    deg = a.sum(axis=-1)
    links = ((a @ a) * a).sum(axis=-1)  # each neighbor link counted twice
    pairs = deg * (deg - 1)
    return np.divide(links, pairs, out=np.zeros_like(deg), where=pairs > 0).mean(axis=-1)


def largest_eigenvalue(a: np.ndarray) -> np.ndarray:
    """Largest adjacency eigenvalue; exactly +0.0 for an empty or edgeless graph."""
    if a.shape[-1] == 0:
        return np.zeros(a.shape[:-2])
    return np.where(a.any(axis=(-2, -1)), np.linalg.eigvalsh(a)[..., -1], 0.0)


def _shortest_paths(a: np.ndarray, sources: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hop distances (-1 if unreachable) and shortest-path counts from each source.

    Row i of each graph is for sources[i]. One level-synchronous BFS serves
    every (graph, source) row: the path counts of each level, times the
    adjacency, give the counts of the next level on the nodes that no earlier
    level reached. It runs until no row of the stack reaches a new node.
    """
    rows = np.arange(len(sources))
    dist = np.full((*a.shape[:-2], len(sources), a.shape[-1]), -1)
    dist[..., rows, sources] = 0
    sigma = np.zeros(dist.shape)
    sigma[..., rows, sources] = 1.0
    frontier = sigma.copy()
    for level in range(1, a.shape[-1]):
        frontier = frontier @ a
        frontier[dist >= 0] = 0.0
        reached = frontier > 0
        if not reached.any():
            break
        dist[reached] = level
        sigma += frontier
    return dist, sigma


def _path_centralities(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-node betweenness and closeness from one BFS per block of sources.

    Betweenness is normalized and undirected; only connected pairs count.
    Closeness is (r-1)/sum(d) * (r-1)/(n-1), where r counts the node and all
    it reaches; isolated nodes get 0. A block holds as many sources as keep
    its (graphs, sources, n) working arrays within CELL_CAP cells.
    """
    n = a.shape[-1]
    bc = np.zeros(a.shape[:-1])
    closeness = np.zeros(a.shape[:-1])
    if n <= 1:
        return bc, closeness
    block = max(1, CELL_CAP // bc.size)
    for start in range(0, n, block):
        sources = np.arange(start, min(start + block, n))
        dist, sigma = _shortest_paths(a, sources)
        reached = (dist > 0).sum(axis=-1)  # r - 1
        total = dist.clip(min=0).sum(axis=-1)
        scale = np.divide(reached, total, out=np.zeros(reached.shape), where=total > 0)
        closeness[..., sources] = scale * (reached / (n - 1))
        # dependencies flow back one level at a time, deepest first; a
        # source's own dependency (level 0) is never counted
        delta = np.zeros_like(sigma)
        for level in range(dist.max(), 1, -1):
            coeff = np.divide(1.0 + delta, sigma, out=np.zeros_like(sigma), where=dist == level)
            delta += (coeff @ a) * np.where(dist == level - 1, sigma, 0.0)
        bc += delta.sum(axis=-2)
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

    def to_csv(self, path) -> None:
        """Write header = column names, one row per graph, label last."""
        rows = (
            [*(format(v, VALUE_FORMAT) for v in row), label]
            for row, label in zip(self.values, self.labels)
        )
        write_csv(path, (*self.columns, "label"), rows)


def _stacks(graphs: Sequence[TransactionGraph | TsgnGraph]):
    """Yield (positions, adjacency stack) over the graphs, grouped by node count.

    A stack holds the (G, n, n) adjacencies of the graphs at those positions:
    at most CELL_CAP // (n * n) graphs, and at least one. Raises ValueError
    naming the position of every empty (zero-node) graph before yielding.
    """
    by_size: dict[int, list[int]] = {}
    for i, graph in enumerate(graphs):
        by_size.setdefault(graph.node_count, []).append(i)
    if 0 in by_size:
        raise ValueError(f"cannot featurize empty graphs at positions {by_size[0]}")
    for n, members in sorted(by_size.items()):
        per_stack = max(1, CELL_CAP // (n * n))
        for start in range(0, len(members), per_stack):
            positions = members[start : start + per_stack]
            yield positions, simple_adjacency([graphs[i] for i in positions])


def feature_matrix(
    graphs: Sequence[TransactionGraph | TsgnGraph],
    labels: Sequence[str],
    variant: str = "tn",
) -> FeatureMatrix:
    """Extract handcrafted features for a batch of graphs.

    Graphs of the same node count go through _stack_features together, in
    the stacks of _stacks; rows come back in input order. Every value is
    rounded to VALUE_FORMAT, so to_csv writes the matrix exactly and last-bit
    summation noise cannot decide a split. Raises one ValueError naming the
    position of every empty (zero-node) graph.
    """
    if len(graphs) != len(labels):
        raise ValueError("graphs and labels differ in length")
    columns = tuple(f"{variant}:{name}" for name in FEATURE_NAMES)
    values = np.zeros((len(graphs), len(columns)))
    for positions, a in _stacks(graphs):
        values[positions] = _stack_features(a)
    # one %-format of every value, then one float per field
    text = f"%{VALUE_FORMAT} " * values.size % tuple(values.ravel().tolist())
    values = np.fromiter(map(float, text.split()), np.float64, values.size).reshape(values.shape)
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

