"""Random-forest classifier, F1 / percent-increase metrics, and the repeated
stratified-split evaluation harness.

The forest is a standard bagging ensemble of CART trees: every tree trains on
a bootstrap sample and grows until its leaves are pure or cannot be split,
splits minimize Gini impurity, and each node considers a random subset of
about sqrt(p) of the p features. Everything is seeded through numpy
SeedSequence streams, so a fixed master seed reproduces identical reports
regardless of how the work is scheduled.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

from .features import PCA, FeatureMatrix
from .ingest import PHISHING_LABEL

# share of every class that stratified_split puts in the training rows (9:1)
TRAIN_FRACTION = 0.9


def f1_score(predictions: Sequence, truth: Sequence, positive_class) -> float:
    """Harmonic mean of precision and recall for the positive class.

    Returns 0 when precision + recall is 0. Raises on length mismatch or
    empty input.
    """
    if len(predictions) != len(truth):
        raise ValueError(
            f"got {len(predictions)} predictions for {len(truth)} truth labels"
        )
    if not truth:
        raise ValueError("f1_score needs at least one sample")
    tp = fp = fn = 0
    for p, t in zip(predictions, truth):
        if p == positive_class and t == positive_class:
            tp += 1
        elif p == positive_class:
            fp += 1
        elif t == positive_class:
            fn += 1
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    if precision + recall == 0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def percent_increase(f1_model: float, f1_baseline: float) -> float:
    """Relative F1 improvement over a baseline, in percent."""
    if f1_baseline <= 0:
        raise ValueError("percent_increase needs a positive baseline F1")
    return (f1_model - f1_baseline) / f1_baseline * 100.0


@dataclass(frozen=True)
class ForestConfig:
    """Random-forest size and seed.

    Every tree grows until its leaves are pure or cannot be split and draws
    ``max(1, int(sqrt(p)))`` of the ``p`` features at each node, as in
    Breiman's forest.
    """

    n_trees: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


class _Tree(NamedTuple):
    """One fitted tree as flat node arrays; ``feature == -1`` marks a leaf.

    Internal node ``i`` sends a row to ``left[i]`` when
    ``row[feature[i]] <= threshold[i]`` and to ``right[i]`` otherwise; a leaf
    holds its class distribution in ``probs[i]``.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    probs: np.ndarray


class RandomForest:
    """Gini-split CART bagging ensemble, deterministic for a fixed seed."""

    def __init__(self, config: ForestConfig):
        self.config = config
        self.classes_: tuple | None = None
        self._trees: list[_Tree] = []

    def fit(self, x: np.ndarray, labels: Sequence) -> "RandomForest":
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[0] != len(labels):
            raise ValueError("x must be (n_samples, n_features) aligned with labels")
        if x.size and not np.isfinite(x).all():
            raise ValueError("training features contain non-finite values")
        classes = tuple(sorted(set(labels)))
        if len(classes) < 2:
            raise ValueError("training data contains a single class")
        self.classes_ = classes
        code = {c: i for i, c in enumerate(classes)}
        y = np.fromiter((code[v] for v in labels), dtype=np.int64, count=len(labels))
        n = len(y)
        self._trees = []
        for t in range(self.config.n_trees):
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=self.config.seed, spawn_key=(t,))
            )
            boot = rng.integers(0, n, size=n)
            self._trees.append(self._grow(x[boot], y[boot], rng))
        return self

    def predict(self, x: np.ndarray) -> list:
        """Soft-vote prediction; argmax ties go to the smallest class label."""
        if self.classes_ is None:
            raise ValueError("predict called before fit")
        x = np.asarray(x, dtype=float)
        votes = np.zeros((x.shape[0], len(self.classes_)))
        # trees vote one after another, in fit order, so the float sums (and
        # hence argmax ties) do not depend on how the rows are routed
        for tree in self._trees:
            votes += tree.probs[self._route(tree, x)]
        return [self.classes_[i] for i in votes.argmax(axis=1)]

    @staticmethod
    def _route(tree: _Tree, x: np.ndarray) -> np.ndarray:
        """Leaf index of every row of ``x``, all rows moving down together."""
        leaf = np.zeros(x.shape[0], dtype=np.intp)
        rows = np.arange(x.shape[0])
        while rows.size:
            node = leaf[rows]
            feature = tree.feature[node]
            inner = feature >= 0
            rows, node, feature = rows[inner], node[inner], feature[inner]
            go_left = x[rows, feature] <= tree.threshold[node]
            leaf[rows] = np.where(go_left, tree.left[node], tree.right[node])
        return leaf

    def _grow(self, x: np.ndarray, y: np.ndarray, rng: np.random.Generator) -> _Tree:
        n_classes = len(self.classes_)
        k = max(1, int(math.sqrt(x.shape[1])))
        columns = np.ascontiguousarray(x.T)  # one row per feature
        onehot = np.eye(n_classes)[y]

        feature = [-1]
        threshold = [0.0]
        left = [-1]
        right = [-1]
        probs = {}
        # explicit depth-first stack instead of recursion: depth can approach
        # n_samples. The pop order fixes the order of the per-node feature
        # draws from rng, so it must not change.
        work = [(np.arange(len(y)), 0)]
        while work:
            idx, node = work.pop()
            counts = np.bincount(y[idx], minlength=n_classes)
            m = len(idx)
            if counts.max() == m:
                probs[node] = counts / m
                continue
            parent_gini = 1.0 - float(((counts / m) ** 2).sum())
            best = self._best_split(columns, onehot, counts, idx, k, rng)
            if best is None or parent_gini - best[0] <= 1e-12:
                probs[node] = counts / m
                continue
            _, split_feature, split_threshold = best
            mask = columns[split_feature, idx] <= split_threshold
            feature[node] = split_feature
            threshold[node] = split_threshold
            left[node] = len(feature)
            right[node] = len(feature) + 1
            feature += [-1, -1]
            threshold += [0.0, 0.0]
            left += [-1, -1]
            right += [-1, -1]
            work.append((idx[mask], left[node]))
            work.append((idx[~mask], right[node]))
        leaf_probs = np.zeros((len(feature), n_classes))
        for node, p in probs.items():
            leaf_probs[node] = p
        return _Tree(
            np.array(feature, dtype=np.intp),
            np.array(threshold),
            np.array(left, dtype=np.intp),
            np.array(right, dtype=np.intp),
            leaf_probs,
        )

    @staticmethod
    def _best_split(columns, onehot, counts, idx, k, rng):
        """Lowest weighted Gini over the drawn features, or None.

        Only positions where the sorted values strictly increase can split, so
        only those are scored, and the tie order inside a run of equal values
        (hence the sort's stability) cannot change any score. Ties between
        scores go to the earliest drawn feature, then to the lowest value: the
        row-major order of the candidates.
        """
        features = rng.choice(columns.shape[0], size=k, replace=False)
        m = len(idx)
        # take() rather than fancy indexing: same arrays, far less overhead
        block = columns.take(features, axis=0).take(idx, axis=1)
        order = block.argsort(axis=1)
        rows = idx.take(order)  # sample ids in value order
        sv = np.take_along_axis(block, order, axis=1)  # block's values, sorted
        # a split after position p leaves p + 1 rows on the left
        row, pos = np.nonzero(sv[:, 1:] > sv[:, :-1])
        if not pos.size:
            return None
        # the float expressions below repeat the per-position formulas term
        # by term, so the scores are bit-identical to scoring every position
        left = np.cumsum(onehot.take(rows, axis=0), axis=1)[row, pos]
        right = counts - left
        sizes_left = pos + 1.0
        sizes_right = m - sizes_left
        gini_left = 1.0 - ((left / sizes_left[:, None]) ** 2).sum(axis=1)
        gini_right = 1.0 - ((right / sizes_right[:, None]) ** 2).sum(axis=1)
        score = (sizes_left * gini_left + sizes_right * gini_right) / m
        best = int(np.argmin(score))
        r, p = row[best], pos[best]
        threshold = (sv[r, p] + sv[r, p + 1]) / 2.0
        if threshold >= sv[r, p + 1]:  # fp rounding collapsed the midpoint
            threshold = sv[r, p]
        return float(score[best]), int(features[r]), float(threshold)


@dataclass(frozen=True)
class EvalReport:
    """Mean/std F1 over repeated splits for one (dataset, variant) pair."""

    dataset: str
    variant: str
    mean_f1: float
    std_f1: float
    n_repeats: int
    seed: int
    baseline_variant: str | None = None
    pct_increase: float | None = None

    def with_baseline(self, baseline: "EvalReport") -> "EvalReport":
        """Tag with the baseline and the percent increase over it; that is
        None when the baseline's mean F1 is 0, where no ratio exists."""
        return replace(
            self,
            baseline_variant=baseline.variant,
            pct_increase=(
                percent_increase(self.mean_f1, baseline.mean_f1)
                if baseline.mean_f1 > 0
                else None
            ),
        )


def _class_train_sizes(labels: Sequence) -> dict:
    """Training rows per class (in sorted class order) that every split
    draws; raises ValueError naming each class that would then be absent from
    the training or the test rows.

    The sizes do not depend on the draw, so a class that is too small for one
    split is too small for all of them.
    """
    counts = sorted(Counter(labels).items())
    sizes = {c: int(round(TRAIN_FRACTION * n)) for c, n in counts}
    small = [f"{c} ({n} members)" for c, n in counts if not 0 < sizes[c] < n]
    if small:
        raise ValueError(
            "every split would leave these classes absent from the training "
            f"or the test rows: {', '.join(small)}"
        )
    return sizes


def train_rows(labels: Sequence) -> int:
    """Training rows every ``stratified_split`` of ``labels`` draws; raises
    like ``stratified_split`` when a class cannot be split."""
    return sum(_class_train_sizes(labels).values())


def stratified_split(
    labels: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Per-class random ``TRAIN_FRACTION`` split keeping every class on both
    sides; raises ValueError when some class is too small for that."""
    train: list[np.ndarray] = []
    test: list[np.ndarray] = []
    for c, k in _class_train_sizes(labels).items():
        perm = rng.permutation(np.flatnonzero(labels == c))
        train.append(perm[:k])
        test.append(perm[k:])
    return np.sort(np.concatenate(train)), np.sort(np.concatenate(test))


def evaluate(
    dataset: FeatureMatrix,
    config: ForestConfig,
    n_repeats: int = 300,
    *,
    pca_dim: int | None = None,
    dataset_name: str = "",
    variant: str = "tn",
) -> EvalReport:
    """Repeated stratified-split evaluation of a feature matrix.

    Each repeat draws its own seeded split (stream derived from the master
    seed by repeat index, so repeats are order-independent), optionally fits a
    PCA projection on the training rows only, trains a forest, and scores the
    F1 of the phishing class on the held-out rows. Reports the mean and the population (ddof=0)
    standard deviation over repeats.
    """
    if n_repeats < 1:
        raise ValueError("n_repeats must be >= 1")
    labels = np.array(dataset.labels)
    scores = np.zeros(n_repeats)
    for i in range(n_repeats):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=config.seed, spawn_key=(i,))
        )
        train_idx, test_idx = stratified_split(labels, rng)
        x_train = dataset.values[train_idx]
        x_test = dataset.values[test_idx]
        if pca_dim is not None:
            projector = PCA(pca_dim).fit(x_train)
            x_train = projector.transform(x_train)
            x_test = projector.transform(x_test)
        forest_seed = int(rng.integers(2**62))
        forest = RandomForest(replace(config, seed=forest_seed))
        forest.fit(x_train, list(labels[train_idx]))
        predictions = forest.predict(x_test)
        scores[i] = f1_score(predictions, list(labels[test_idx]), PHISHING_LABEL)
    return EvalReport(
        dataset=dataset_name,
        variant=variant,
        mean_f1=float(scores.mean()),
        std_f1=float(scores.std()),
        n_repeats=n_repeats,
        seed=config.seed,
    )
