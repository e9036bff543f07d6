"""Random-forest classifier, F1 / percent-increase metrics, and the repeated
stratified-split evaluation harness.

The forest is a standard bagging ensemble of CART trees: every tree trains on
a bootstrap sample and grows until its leaves are pure or cannot be split,
splits minimize Gini impurity, and each node considers a random subset of
about sqrt(p) of the p features. The trees of a fit grow in lockstep, in
blocks of TREE_BLOCK, with the nodes of each step scored together. Everything
is seeded through numpy SeedSequence streams, one per tree, so a fixed master
seed reproduces identical reports regardless of how the work is scheduled.
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

# Trees that RandomForest.fit grows in lockstep. A step of a block sorts one
# key per (node, drawn feature, distinct bootstrap row) for up to TREE_BLOCK
# nodes, so the block bounds the working memory of a fit.
TREE_BLOCK = 25


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
        data = _RankedRows(x, y, len(classes))
        self._trees = []
        for start in range(0, self.config.n_trees, TREE_BLOCK):
            block = range(start, min(start + TREE_BLOCK, self.config.n_trees))
            self._trees += _grow_block(block, self.config.seed, data)
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


class _RankedRows:
    """The training rows of one fit, ranked and keyed for the split search.

    Every feature's distinct values are ranked once. Ranks order like the
    values, so nodes are searched and split on ranks. ``best_splits`` scores
    the impure nodes of a lockstep step together: one int64 key per (node,
    drawn feature, distinct bootstrap row) packs, from the high bits down, the
    segment ``node * k + draw``, the row's value rank, its class and its
    bootstrap count, and one sort orders every segment by value.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray, n_classes: int):
        n, self.n_features = x.shape
        self.k = max(1, int(math.sqrt(self.n_features)))
        self.y = y
        self.n_classes = n_classes
        self.ranks = np.empty((self.n_features, n), dtype=np.int64)
        values = []
        for f, column in enumerate(x.T):
            distinct, self.ranks[f] = np.unique(column, return_inverse=True)
            values.append(distinct)
        # feature f's distinct values, ascending, from value_start[f] on
        self.values = np.concatenate(values)
        self.value_start = np.cumsum([0] + [len(v) for v in values[:-1]], dtype=np.int64)
        self.count_bits = n.bit_length()  # a bootstrap count is at most n
        self.class_bits = max(1, (n_classes - 1).bit_length())
        self.rank_bits = max(1, (n - 1).bit_length())
        self.segment_shift = self.rank_bits + self.class_bits + self.count_bits
        # every (feature, row) key without its segment and count
        self.cell_keys = (((self.ranks << self.class_bits) | y) << self.count_bits).ravel()

    def best_splits(
        self,
        features: np.ndarray,
        rows: np.ndarray,
        weight: np.ndarray,
        node_of: np.ndarray,
        counts: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The best split of each node, for the nodes whose Gini it lowers.

        Node ``i`` holds the distinct rows ``rows[node_of == i]``, drawn
        ``weight`` times each, has class counts ``counts[i]`` and has drawn
        ``features[i]``. Only rank breaks inside a segment can split, so only
        those are scored. The class counts left of a break come from one
        cumulative sum; they are whole numbers, and the Gini expressions
        repeat the per-position formulas term by term, so the scores are
        bit-identical to scoring every sorted position. Ties between scores
        go to the earliest drawn feature, then to the lowest value: the order
        of the sorted keys. Returns the split nodes and, for each, its
        feature, its rank (rows ranked at most this go left) and threshold.
        """
        n_nodes, k = features.shape
        if (n_nodes * k - 1).bit_length() + self.segment_shift > 63:
            raise OverflowError("split search keys do not fit in 63 bits")
        # packed in place, with each temporary dropped as soon as it is used:
        # a step's working arrays are the peak memory of a fit
        key = features.T.take(node_of, axis=1)
        key *= self.ranks.shape[1]
        key += rows
        key = self.cell_keys.take(key)
        segment = np.arange(k)[:, None] + node_of * k
        segment <<= self.segment_shift
        key |= segment
        key |= weight
        key = key.ravel()
        key.sort()

        segment = key >> self.segment_shift
        value = key >> (self.class_bits + self.count_bits)  # segment and rank
        # a split after key q leaves the keys start .. q of q's segment on the left
        q = np.flatnonzero((segment[1:] == segment[:-1]) & (value[1:] != value[:-1]))
        if not q.size:
            nothing = np.zeros(0, dtype=np.int64)
            return nothing, nothing, nothing, np.zeros(0)
        seg = segment[q]
        start = _run_starts(segment)[seg]
        del segment
        # running class counts (one row per class) after each key, from 0
        running = np.zeros((self.n_classes, len(key) + 1))
        cls = (key >> self.count_bits) & ((1 << self.class_bits) - 1)
        running[cls, np.arange(1, len(key) + 1)] = key & ((1 << self.count_bits) - 1)
        del key, cls
        np.cumsum(running, axis=1, out=running)
        left = running.take(q + 1, axis=1)
        left -= running.take(start, axis=1)
        del running, start

        node = seg // k
        right = counts.T.take(node, axis=1)
        right -= left
        total = counts.sum(axis=1)
        m = total.take(node)
        sizes_left = left.sum(axis=0)
        sizes_right = m - sizes_left
        # the terms of the Gini sums, one array reused for both sides
        terms = np.divide(left, sizes_left, out=left)
        gini_left = 1.0 - _sum_classes(np.square(terms, out=terms))
        terms = np.divide(right, sizes_right, out=right)
        gini_right = 1.0 - _sum_classes(np.square(terms, out=terms))
        del left, right, terms
        score = (sizes_left * gini_left + sizes_right * gini_right) / m

        # the first lowest score of every node, kept when it lowers the Gini
        runs = _run_starts(node)
        lowest = np.minimum.reduceat(score, runs)
        hits = np.flatnonzero(score == np.repeat(lowest, np.diff(runs, append=len(node))))
        best = hits[_run_starts(node[hits])]
        nodes = node[best]
        parent_gini = 1.0 - _sum_classes((counts.T[:, nodes] / total[nodes]) ** 2)
        best = best[parent_gini - score[best] > 1e-12]
        nodes = node[best]
        split_feature = features[nodes, seg[best] % k]
        rank = value & ((1 << self.rank_bits) - 1)
        low_rank = rank[q[best]]
        low = self.values[self.value_start[split_feature] + low_rank]
        high = self.values[self.value_start[split_feature] + rank[q[best] + 1]]
        threshold = (low + high) / 2.0
        collapsed = threshold >= high  # fp rounding collapsed the midpoint
        threshold[collapsed] = low[collapsed]
        return nodes, split_feature, low_rank, threshold


def _run_starts(a: np.ndarray) -> np.ndarray:
    """Positions where a run of equal values of ``a`` begins."""
    starts = np.ones(len(a), dtype=bool)
    np.not_equal(a[1:], a[:-1], out=starts[1:])
    return np.flatnonzero(starts)


def _sum_classes(terms: np.ndarray) -> np.ndarray:
    """Column sums of a (classes, n) array, bit-identical to numpy's row sums
    of its (n, classes) transpose, which add in order below 8 classes and
    pairwise from 8."""
    if len(terms) < 8:
        return terms.sum(axis=0)
    return np.ascontiguousarray(terms.T).sum(axis=1)


def _grow_block(block: range, seed: int, data: _RankedRows) -> list[_Tree]:
    """Grow the trees numbered ``block`` in lockstep.

    Each tree keeps its own generator, bootstrap draw and depth-first stack,
    so its draws come in the same order as when it grows alone: at every step
    each unfinished tree pops its next node, and the impure nodes among them
    draw their features and are scored together. A node is its distinct
    bootstrap rows plus how often each was drawn.
    """
    n_classes = data.n_classes
    n = data.ranks.shape[1]
    rngs, stacks, shapes = [], [], []
    for t in block:
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(t,)))
        drawn = np.bincount(rng.integers(0, n, size=n), minlength=n)
        rows = np.flatnonzero(drawn)
        rngs.append(rng)
        # the pop order fixes the order of each tree's feature draws, so it
        # must not change: depth first, right child first
        stacks.append([(rows, drawn[rows], 0)])
        # feature, threshold, left, right and leaf class shares of each node
        shapes.append(([-1], [0.0], [-1], [-1], {}))
    growing = list(range(len(rngs)))
    while growing:
        nodes = [stacks[t].pop() for t in growing]
        rows = np.concatenate([r for r, _, _ in nodes])
        weight = np.concatenate([w for _, w, _ in nodes])
        owner = np.repeat(np.arange(len(nodes)), [len(r) for r, _, _ in nodes])
        counts = np.bincount(
            owner * n_classes + data.y[rows], weights=weight, minlength=len(nodes) * n_classes
        ).reshape(len(nodes), n_classes)
        m = counts.sum(axis=1)
        impure = np.flatnonzero(counts.max(axis=1) < m)
        features = np.array(
            [rngs[growing[i]].choice(data.n_features, size=data.k, replace=False) for i in impure],
            dtype=np.int64,
        ).reshape(len(impure), data.k)
        slot = np.full(len(nodes), -1)
        slot[impure] = np.arange(len(impure))
        keep = slot[owner] >= 0
        at, split_feature, split_rank, split_threshold = data.best_splits(
            features, rows[keep], weight[keep], slot[owner[keep]], counts[impure]
        )
        at = impure[at]
        # send every row of a split node to its side; rows of other nodes
        # have cut -1 and go to neither
        cut = np.full(len(nodes), -1)
        cut[at] = split_rank
        on_feature = np.zeros(len(nodes), dtype=np.int64)
        on_feature[at] = split_feature
        rank = data.ranks[on_feature[owner], rows]
        cut = cut[owner]
        sides = []
        for side in (rank <= cut, (rank > cut) & (cut >= 0)):
            ends = np.cumsum(np.bincount(owner[side], minlength=len(nodes))).tolist()
            sides.append((rows[side], weight[side], [0] + ends))
        (left_rows, left_weight, left_ends), (right_rows, right_weight, right_ends) = sides
        split_of = dict(zip(at.tolist(), zip(split_feature.tolist(), split_threshold.tolist())))
        shares = counts / m[:, None]
        for i, (t, (_, _, node)) in enumerate(zip(growing, nodes)):
            feature, threshold, left, right, probs = shapes[t]
            if i not in split_of:
                probs[node] = shares[i]
                continue
            feature[node], threshold[node] = split_of[i]
            left[node] = len(feature)
            right[node] = len(feature) + 1
            feature += [-1, -1]
            threshold += [0.0, 0.0]
            left += [-1, -1]
            right += [-1, -1]
            a, b = left_ends[i], left_ends[i + 1]
            stacks[t].append((left_rows[a:b], left_weight[a:b], left[node]))
            a, b = right_ends[i], right_ends[i + 1]
            stacks[t].append((right_rows[a:b], right_weight[a:b], right[node]))
        growing = [t for t in growing if stacks[t]]
    trees = []
    for feature, threshold, left, right, probs in shapes:
        table = np.zeros((len(feature), n_classes))
        for node, p in probs.items():
            table[node] = p
        trees.append(
            _Tree(
                np.array(feature, dtype=np.intp),
                np.array(threshold),
                np.array(left, dtype=np.intp),
                np.array(right, dtype=np.intp),
                table,
            )
        )
    return trees


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
