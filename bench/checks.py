"""Output checks, computed apart from the program.

Nothing here imports ``tsgn``. The checks read the dataset CSVs and the CLI's
output files, rebuild what they need from the rules the README states, and
return one message per disagreement (an empty list means the output passed):

- mapped edge sets by enumerating every pair of transactions, with weights
  ``ln((w_a + w_b) / 2)``, or 0 when both amounts are 0;
- ``ttsgn`` within ``dtsgn``, ``ttsgn`` and ``mtsgn`` acyclic, and
  ``summary.csv`` against the edge files;
- the ten features of a seeded sample of graphs, recomputed with networkx and
  a dense ``eigvalsh``, within 1e-6;
- ``report.csv``: one row for ``tn`` and one per variant, the requested
  repeats, ``pct_increase`` from the mean F1 values, and an optional floor on
  the tn mean F1, allowing for its sampling error.
"""

from __future__ import annotations

import csv
import math
import random
from collections import deque
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path

import networkx as nx
import numpy as np

FEATURES = (
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
FEATURE_TOLERANCE = 1e-6
WEIGHT_TOLERANCE = 1e-9
ACYCLIC = ("ttsgn", "mtsgn")


@dataclass(frozen=True)
class Record:
    src: str
    dst: str
    amount: Decimal
    timestamp: int | None


@dataclass(frozen=True)
class Graph:
    graph_id: str
    center: str
    label: str
    records: tuple[Record, ...]  # the net-form ego network, in file order


def read_dataset(root: Path) -> list[Graph]:
    """Dataset graphs in graph_id order, self-loops dropped, net form."""
    with open(root / "labels.csv", newline="", encoding="utf-8") as fh:
        entries = sorted(
            (row["graph_id"], row["center_address"].strip().lower(), row["label"])
            for row in csv.DictReader(fh)
        )
    graphs = []
    for graph_id, center, label in entries:
        with open(root / f"{graph_id}.csv", newline="", encoding="utf-8") as fh:
            rows = [
                Record(
                    row["src"].strip().lower(),
                    row["dst"].strip().lower(),
                    Decimal(row["amount"]),
                    int(row["timestamp"]) if row["timestamp"].strip() else None,
                )
                for row in csv.DictReader(fh)
            ]
        rows = [r for r in rows if r.src != r.dst]
        neighbors = {a for r in rows if center in (r.src, r.dst) for a in (r.src, r.dst)}
        neighbors.discard(center)
        kept = tuple(
            r for r in rows
            if center in (r.src, r.dst) or (r.src in neighbors and r.dst in neighbors)
        )
        graphs.append(Graph(graph_id, center, label, kept))
    return graphs


def _collapse(records, key) -> list[Record]:
    """One record per key, the largest amount winning and ties going to the
    earlier record, ordered by key: the tier rule of the README."""
    winners: dict[tuple[str, str], Record] = {}
    for r in records:
        k = key(r)
        if k not in winners or r.amount > winners[k].amount:
            winners[k] = r
    return [Record(*k, r.amount, r.timestamp) for k, r in sorted(winners.items())]


def at_tier(records, tier: str) -> list[Record]:
    if tier == "multiedge":
        return list(records)
    if tier == "directed":
        return _collapse(records, lambda r: (r.src, r.dst))
    raise ValueError(f"the checks do not cover tier {tier!r}")


def plain_projection(records) -> list[Record]:
    return _collapse(records, lambda r: tuple(sorted((r.src, r.dst))))


def mapped_nodes(records, variant: str) -> list[Record]:
    """The transactions that become nodes of the variant's mapped graph."""
    return plain_projection(records) if variant == "tsgn" else list(records)


def mapped_edges(nodes: list[Record], variant: str) -> tuple[np.ndarray, np.ndarray]:
    """Every mapped edge, by testing every pair of transactions: a (k, 2) array
    of node pairs in lexicographic order and their weights."""
    codes: dict[str, int] = {}
    src = np.array([codes.setdefault(r.src, len(codes)) for r in nodes], dtype=np.int64)
    dst = np.array([codes.setdefault(r.dst, len(codes)) for r in nodes], dtype=np.int64)
    if variant == "tsgn":
        link = (
            (src[:, None] == src[None, :]) | (src[:, None] == dst[None, :])
            | (dst[:, None] == src[None, :]) | (dst[:, None] == dst[None, :])
        )
        link &= np.triu(np.ones_like(link), k=1)
    else:
        link = dst[:, None] == src[None, :]
        np.fill_diagonal(link, False)
        if variant in ACYCLIC:
            ts = np.array([r.timestamp for r in nodes], dtype=np.int64)
            link &= ts[:, None] < ts[None, :]
    pairs = np.argwhere(link)
    amounts = np.array([float(r.amount) for r in nodes])
    w_a, w_b = amounts[pairs[:, 0]], amounts[pairs[:, 1]]
    with np.errstate(divide="ignore"):
        weights = np.where((w_a == 0) & (w_b == 0), 0.0, np.log((w_a + w_b) / 2))
    return pairs, weights


def _read_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        return [], []
    return rows[0], rows[1:]


def _read_edges(path: Path) -> tuple[str, np.ndarray, np.ndarray]:
    """Header line, (k, 2) node pairs and weights of a mapped edge file."""
    header, _, body = path.read_text(encoding="utf-8").partition("\n")
    table = np.array(body.replace(",", " ").split(), dtype=float).reshape(-1, 3)
    return header, table[:, :2].astype(np.int64), table[:, 2]


def _is_acyclic(n: int, pairs: np.ndarray) -> bool:
    succ = [[] for _ in range(n)]
    indeg = [0] * n
    for a, b in pairs.tolist():
        succ[a].append(b)
        indeg[b] += 1
    queue = deque(v for v in range(n) if indeg[v] == 0)
    seen = 0
    while queue:
        v = queue.popleft()
        seen += 1
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    return seen == n


def check_transform(dataset: Path, out: Path, tier: str, variants) -> list[str]:
    """Mapped edge files and summaries of one ``tsgn transform`` output."""
    graphs = read_dataset(dataset)
    problems = []
    # per variant and graph, the written edges encoded as from * n_nodes + to
    written: dict[str, list[np.ndarray]] = {}
    for variant in variants:
        header, summary = _read_rows(out / variant / "summary.csv")
        if header != ["graph_id", "nodes", "edges"] or len(summary) != len(graphs):
            problems.append(f"{variant}: summary.csv has {len(summary)} rows "
                            f"for {len(graphs)} graphs (header {header})")
            continue
        written[variant] = []
        for g, (graph_id, n_nodes, n_edges) in zip(graphs, summary):
            nodes = mapped_nodes(at_tier(g.records, tier), variant)
            pairs, weights = mapped_edges(nodes, variant)
            header, got, got_weights = _read_edges(out / variant / f"{graph_id}.csv")
            tag = f"{variant}/{graph_id}"
            if header != "from_tx,to_tx,weight":
                problems.append(f"{tag}: header {header!r}")
                continue
            keys = got[:, 0] * len(nodes) + got[:, 1]
            order = np.argsort(keys, kind="stable")
            keys, got_weights = keys[order], got_weights[order]
            written[variant].append(keys)
            expected = pairs[:, 0] * len(nodes) + pairs[:, 1]
            if keys.shape != expected.shape or (keys != expected).any():
                problems.append(f"{tag}: {np.isin(expected, keys, invert=True).sum()} edges "
                                f"missing, {np.isin(keys, expected, invert=True).sum()} edges "
                                f"not in the mapping, {len(keys) - len(np.unique(keys))} "
                                "duplicates")
            elif (np.abs(got_weights - weights)
                  > WEIGHT_TOLERANCE * np.maximum(1.0, np.abs(weights))).any():
                problems.append(f"{tag}: weights differ from ln((w_a + w_b) / 2)")
            if (n_nodes, n_edges) != (str(len(nodes)), str(len(got))):
                problems.append(f"{tag}: summary says {n_nodes} nodes, {n_edges} edges; "
                                f"expected {len(nodes)} nodes, {len(got)} edges")
            if variant in ACYCLIC and not _is_acyclic(len(nodes), got):
                problems.append(f"{tag}: mapped graph has a cycle")
    if "ttsgn" in written and "dtsgn" in written:
        for g, t, d in zip(graphs, written["ttsgn"], written["dtsgn"]):
            outside = np.isin(t, d, invert=True).sum()
            if outside:
                problems.append(f"ttsgn/{g.graph_id}: {outside} edges not in dtsgn")
    return problems


def graph_features(nodes: int, edges) -> list[float]:
    """The ten features of the unweighted, undirected, simple view of a graph."""
    g = nx.Graph()
    g.add_nodes_from(range(nodes))
    g.add_edges_from((a, b) for a, b in edges if a != b)
    n, m = g.number_of_nodes(), g.number_of_edges()
    degrees = [d for _, d in g.degree()]
    eigen = float(np.linalg.eigvalsh(nx.to_numpy_array(g)).max()) if m else 0.0
    return [
        n,
        m,
        2 * m / n,
        sum(d == 1 for d in degrees) / n,
        nx.density(g),
        sum(nx.average_neighbor_degree(g).values()) / n,
        nx.average_clustering(g),
        eigen,
        sum(nx.betweenness_centrality(g).values()) / n,
        sum(nx.closeness_centrality(g).values()) / n,
    ]


def feature_sample(n_rows: int, seed: int, size: int) -> list[int]:
    """The rows whose features are recomputed, fixed by the workload seed."""
    return sorted(random.Random(seed).sample(range(n_rows), min(size, n_rows)))


def check_features(dataset: Path, out: Path, tier: str, variants, seed: int,
                   sample: int) -> list[str]:
    """``features_*.csv`` of one ``tsgn evaluate`` output."""
    graphs = read_dataset(dataset)
    problems = []
    for name in ("tn", *variants):
        header, rows = _read_rows(out / f"features_{name}.csv")
        expected_header = [f"{name}:{f}" for f in FEATURES] + ["label"]
        if header != expected_header:
            problems.append(f"features_{name}.csv: header {header}")
            continue
        labels = [row[-1] for row in rows]
        if labels != [g.label for g in graphs]:
            problems.append(f"features_{name}.csv: rows and labels do not line up with "
                            f"labels.csv ({len(rows)} rows for {len(graphs)} graphs)")
            continue
        for i in feature_sample(len(graphs), seed, sample):
            records = at_tier(graphs[i].records, tier)
            if name == "tn":
                index = {a: k for k, a in enumerate(
                    sorted({graphs[i].center} | {a for r in records for a in (r.src, r.dst)}))}
                n_nodes = len(index)
                edges = [(index[r.src], index[r.dst]) for r in records]
            else:
                nodes = mapped_nodes(records, name)
                n_nodes = len(nodes)
                edges = mapped_edges(nodes, name)[0].tolist()
            expected = graph_features(n_nodes, edges)
            got = [float(v) for v in rows[i][:-1]]
            for feature, e, v in zip(FEATURES, expected, got):
                if abs(e - v) > FEATURE_TOLERANCE:
                    problems.append(f"features_{name}.csv {graphs[i].graph_id} {feature}: "
                                    f"{v!r}, recomputed {e!r}")
    return problems


def check_report(out: Path, dataset_name: str, variants, repeats: int, seed: int,
                 tn_f1_floor: float | None) -> list[str]:
    """``report.csv`` of one ``tsgn evaluate`` output."""
    header, rows = _read_rows(out / "report.csv")
    if header != ["dataset", "variant", "mean_f1", "std_f1", "n_repeats",
                  "pct_increase_vs_tn", "seed"]:
        return [f"report.csv: header {header}"]
    expected_variants = ["tn"] + [f"tn+{v}" for v in variants]
    if [row[1] for row in rows] != expected_variants:
        return [f"report.csv: variants {[row[1] for row in rows]}, "
                f"expected {expected_variants}"]
    problems = []
    tn_f1 = float(rows[0][2])
    for dataset, variant, mean_f1, std_f1, n_repeats, pct, row_seed in rows:
        if (dataset, n_repeats, row_seed) != (dataset_name, str(repeats), str(seed)):
            problems.append(f"report.csv {variant}: dataset, repeats, seed = "
                            f"{dataset}, {n_repeats}, {row_seed}")
        if not (0 <= float(mean_f1) <= 1 and float(std_f1) >= 0):
            problems.append(f"report.csv {variant}: mean F1 {mean_f1}, std {std_f1}")
        if variant == "tn":
            if pct != "":
                problems.append(f"report.csv tn: pct_increase {pct!r} on the baseline")
            continue
        # mean F1 is written to 6 decimals and pct to 4, so allow 1e-3 points
        recomputed = (float(mean_f1) - tn_f1) / tn_f1 * 100
        if pct == "" or abs(float(pct) - recomputed) > 1e-3:
            problems.append(f"report.csv {variant}: pct_increase {pct!r}, "
                            f"recomputed {recomputed:.4f}")
    if tn_f1_floor is not None:
        # The floor holds for the expected F1; a mean of a few repeats may fall
        # short of it only by its sampling error (3 standard errors).
        tn_std = float(rows[0][3])
        allowance = 3 * tn_std / math.sqrt(repeats - 1) if repeats > 1 else 0.0
        if tn_f1 + allowance < tn_f1_floor:
            problems.append(f"report.csv: tn mean F1 {tn_f1} (std {tn_std}, {repeats} "
                            f"repeats) is below the floor {tn_f1_floor}")
    return problems
