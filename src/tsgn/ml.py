"""Random-forest classifier, F1 / percent-increase metrics, and the repeated
stratified-split evaluation harness.

The forest is a standard bagging ensemble of CART trees: every tree trains on
a bootstrap sample and grows until its leaves are pure or cannot be split,
splits minimize Gini impurity, and each node considers a random subset of
about sqrt(p) of the p features. Copies of a training row and class are
grown as one row drawn as often as all of them, which gives the same trees.
Every random number of a fit is a keyed draw, a hash of the fit seed and a
counter (bootstrap rows) or of a node's key (its features and its children's
keys), so no tree depends on the order in which nodes grow. The whole forest
therefore grows one depth level per step, with the nodes of a level scored
together in split searches of at most KEY_CAP keys, and a fixed master seed
reproduces identical reports.
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

# Most keys one split search sorts and scores. A level sorts one key per
# (node, drawn feature, distinct row drawn into the node); a level with more is
# scored in runs of whole nodes, so the cap, not the number of trees, bounds
# the working memory of a search. predict routes as many (tree, row) cells at
# once.
KEY_CAP = 1 << 14


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
    hits = Counter((p == positive_class, t == positive_class) for p, t in zip(predictions, truth))
    tp, fp, fn = hits[True, True], hits[True, False], hits[False, True]
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
    """The nodes of fitted trees as flat arrays; ``feature == -1`` marks a leaf.

    Internal node ``i`` sends a row to ``left[i]`` when
    ``row[feature[i]] <= threshold[i]`` and to ``left[i] + 1`` otherwise; a
    leaf holds its class distribution in ``probs[i]``.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    probs: np.ndarray


class RandomForest:
    """Gini-split CART bagging ensemble, deterministic for a fixed seed."""

    def __init__(self, config: ForestConfig):
        self.config = config
        self.classes_: tuple | None = None
        # every tree's nodes in one table; tree t starts at node t
        self._forest: _Tree | None = None

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
        # one row per (row, class) pair, compared by bytes: -0.0 is not 0.0
        bits = np.column_stack((x.view(np.int64), y))
        _, first, group = np.unique(bits, axis=0, return_index=True, return_inverse=True)
        data = _RankedRows(x[first], y[first], len(classes), group)
        self._forest = _grow_forest(self.config.n_trees, self.config.seed, data)
        return self

    def predict(self, x: np.ndarray) -> list:
        """Soft-vote prediction; argmax ties go to the smallest class label."""
        if self.classes_ is None:
            raise ValueError("predict called before fit")
        x = np.asarray(x, dtype=float)
        forest, n_trees = self._forest, self.config.n_trees
        votes = np.zeros((x.shape[0], len(self.classes_)))
        # at most KEY_CAP (tree, row) cells are routed at once; trees vote one
        # after another, in fit order, so the float sums (and hence argmax
        # ties) do not depend on how the rows are routed
        block = max(1, KEY_CAP // n_trees)
        for start in range(0, x.shape[0], block):
            rows = slice(start, start + block)
            for leaf in self._route(forest, n_trees, x[rows]):
                votes[rows] += forest.probs[leaf]
        return [self.classes_[i] for i in votes.argmax(axis=1)]

    @staticmethod
    def _route(tree: _Tree, n_trees: int, x: np.ndarray) -> np.ndarray:
        """Leaf index of every (tree t, row of ``x``), all moving down from node t."""
        n_rows, n_features = x.shape
        leaf = np.repeat(np.arange(n_trees), n_rows)
        cells = np.arange(len(leaf))
        row_at = np.tile(np.arange(n_rows) * n_features, n_trees)  # in x.flat
        values = x.ravel()
        while cells.size:
            node = leaf[cells]
            feature = tree.feature[node]
            inner = feature >= 0
            cells, node, row_at = cells[inner], node[inner], row_at[inner]
            go_left = values[row_at + feature[inner]] <= tree.threshold[node]
            leaf[cells] = tree.left[node] + ~go_left
        return leaf.reshape(n_trees, n_rows)


class _RankedRows:
    """The distinct (row, class) pairs of one fit's training rows, ranked and
    keyed for the split search; ``group`` maps every training row to its pair.

    Copies share every rank and class, so no split separates them, and their
    class counts stay whole numbers: scores and ties are those of the copies
    apart. Every feature's distinct values are ranked once. Ranks order like
    the values, so nodes are searched and split on ranks. ``best_splits``
    scores the impure nodes of a level together: one int64 key per (node,
    drawn feature, distinct row drawn) packs, from the high bits down, the
    segment ``node * k + draw``, the row's value rank, its class and its
    bootstrap count, and one sort orders every segment by value.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray, n_classes: int, group: np.ndarray):
        n, self.n_features = x.shape
        self.group = group
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
        self.count_bits = len(group).bit_length()  # a count is at most every draw
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
        integer running sum; they are whole numbers, and the Gini expressions
        repeat the per-position formulas term by term, so the scores are
        bit-identical to scoring every sorted position. Ties between scores
        go to the earliest drawn feature, then to the lowest value: the order
        of the sorted keys. Returns the split nodes and, for each, its
        feature, its rank (rows ranked at most this go left) and threshold.
        """
        n_nodes, k = features.shape
        shift = self.segment_shift
        if (n_nodes * k - 1).bit_length() + shift > 63:
            raise OverflowError("split search keys do not fit in 63 bits")
        # packed in place, with each temporary dropped as soon as it is used:
        # a search's working arrays are the peak memory of a fit
        key = features.T.take(node_of, axis=1)
        key *= self.ranks.shape[1]
        key += rows
        key = self.cell_keys.take(key)
        key += np.add.outer(np.arange(k) << shift, ((node_of * k) << shift) | weight)
        key = key.ravel()
        key.sort()

        value = key >> (self.class_bits + self.count_bits)  # segment and rank
        change = value[1:] ^ value[:-1]
        # a split after key q leaves the keys start .. q of q's segment on the
        # left: the next key has another rank in the same segment
        q = np.flatnonzero((change != 0) & (change < (1 << self.rank_bits)))
        if not q.size:
            nothing = np.zeros(0, dtype=np.int64)
            return nothing, nothing, nothing, np.zeros(0)
        seg = value.take(q) >> self.rank_bits
        # every segment holds keys, so segment s is the s-th run
        start = np.flatnonzero(change >= (1 << self.rank_bits))
        start += 1
        start = np.concatenate(([0], start)).take(seg)
        del change

        # the class counts left of every break, from one running sum of the
        # bootstrap counts packed into bit fields of count_bits, per_word
        # classes to an int64. A segment's count of a class is at most n, so
        # no field carries into the next, and the difference of two running
        # sums is exact even where a sum wraps around.
        width = self.count_bits
        per_word = 63 // width
        packed = key & ((1 << width) - 1)
        field = key >> width
        del key
        field &= (1 << self.class_bits) - 1
        if per_word < self.n_classes:
            word = field // per_word
            field -= word * per_word
        field *= width
        packed <<= field
        del field
        left = np.empty((self.n_classes, len(q)))
        running = np.zeros(len(packed) + 1, dtype=np.int64)
        for first in range(0, self.n_classes, per_word):
            if per_word < self.n_classes:
                np.cumsum(np.where(word == first // per_word, packed, 0), out=running[1:])
            else:
                np.cumsum(packed, out=running[1:])
            sums = running.take(q + 1)
            sums -= running.take(start)
            for c in range(first, min(first + per_word, self.n_classes)):
                left[c] = (sums >> ((c - first) * width)) & ((1 << width) - 1)
        del packed, running, start

        node = seg // k
        right = counts.T.take(node, axis=1) - left
        total = counts.sum(axis=1)
        m = total.take(node)
        sizes_left = left.sum(axis=0)
        sizes_right = m - sizes_left
        # the terms of the Gini sums, in the arrays of the counts
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
        rank_mask = (1 << self.rank_bits) - 1
        low_rank = value[q[best]] & rank_mask
        offset = self.value_start[split_feature]
        low = self.values[offset + low_rank]
        high = self.values[offset + (value[q[best] + 1] & rank_mask)]
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


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64's output function (Steele, Lea & Flood, OOPSLA 2014),
    applied in place to a uint64 array, whose products wrap silently."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def _draws(keys: np.ndarray, count: int, first: int = 1) -> np.ndarray:
    """Draws ``first`` to ``first + count - 1`` of the SplitMix64 stream of
    every key: a (len(keys), count) uint64 array."""
    step = np.arange(first, first + count, dtype=np.uint64)
    step *= np.uint64(0x9E3779B97F4A7C15)
    return _mix(keys[:, None] + step)


def _grow_forest(n_trees: int, seed: int, data: _RankedRows) -> _Tree:
    """Grow the ``n_trees`` trees of a fit one depth level at a time.

    Every random number is a keyed draw, so no tree depends on the order in
    which nodes grow. Tree ``t`` bootstraps the ``n`` training rows from
    draws ``t * n + 1`` to ``t * n + n`` of the fit's bootstrap stream, each
    draw counted for its row's pair in ``data.group``, and its root's key is
    draw ``t + 1`` of the fit's root stream. A node with ``p`` features
    draws the ``k`` smallest of draws 1 to ``p`` of its key's stream, in
    ascending order, and its children's keys are draws ``p + 1`` and ``p + 2``.

    Nodes are numbered across the forest in the order they are made, so node
    ``t`` is the root of tree ``t`` and each level is one range of numbers.
    The rows of a level's nodes are held as int32 cells sorted by node:
    ``node``, the distinct ``rows`` drawn and their ``weight``, the times
    drawn. Returns the forest's node table.
    """
    n_classes, n, p = data.n_classes, len(data.group), data.n_features
    d = data.ranks.shape[1]  # distinct rows
    boot_key, root_key = np.random.SeedSequence(seed).generate_state(2, np.uint64)[:, None]
    boot = (_draws(boot_key, n_trees * n)[0] % np.uint64(n)).astype(np.intp)
    boot = data.group.take(boot)
    boot += np.arange(n_trees * n) // n * d  # the (tree, distinct row) cell of each draw
    drawn = np.bincount(boot, minlength=n_trees * d)
    del boot
    cell = np.flatnonzero(drawn)
    weight = drawn[cell].astype(np.int32)
    del drawn
    node, rows = (a.astype(np.int32) for a in np.divmod(cell, d))
    del cell
    keys = _draws(root_key, n_trees)[0]
    first = 0  # number of the level's first node
    levels = []  # per level: feature, threshold, left child, class shares
    while len(keys):
        width = len(keys)
        owner = node - first
        counts = np.bincount(
            owner * n_classes + data.y[rows], weights=weight, minlength=width * n_classes
        ).astype(np.int64).reshape(width, n_classes)
        m = counts.sum(axis=1)
        impure = np.flatnonzero(counts.max(axis=1) < m)
        features = np.argsort(_draws(keys[impure], p), axis=1, kind="stable")[:, : data.k]
        at, split_feature, split_rank, split_threshold = _search_in_chunks(
            data, impure, features, owner, rows, weight, counts
        )
        feature = np.full(width, -1, dtype=np.intp)
        feature[at] = split_feature
        threshold = np.zeros(width)
        threshold[at] = split_threshold
        left = np.full(width, -1, dtype=np.int32)
        left[at] = first + width + 2 * np.arange(len(at))
        levels.append((feature, threshold, left, counts / m[:, None]))
        # the rows of a split node move to its left or right child, kept
        # sorted by node; the rows of a leaf are done
        cut = np.full(width, -1)
        cut[at] = split_rank
        moving = cut[owner] >= 0
        owner, rows, weight = owner[moving], rows[moving], weight[moving]
        node = left[owner] + (data.ranks.take(feature[owner] * d + rows) > cut[owner])
        # a split that keeps every row on one side would repeat at every
        # level without end
        if not np.bincount(node - first - width, minlength=2 * len(at)).all():
            level = len(levels) - 1
            raise RuntimeError(f"forest level {level}: a split sends all its rows one way")
        order = np.argsort(node, kind="stable")
        node, rows, weight = node[order], rows[order], weight[order]
        del owner, order
        keys = _draws(keys[at], 2, first=p + 1).ravel()
        first += width
    return _Tree(*map(np.concatenate, zip(*levels)))


def _search_in_chunks(
    data: _RankedRows,
    impure: np.ndarray,
    features: np.ndarray,
    owner: np.ndarray,
    rows: np.ndarray,
    weight: np.ndarray,
    counts: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``data.best_splits`` of the impure nodes of a level, called on runs of
    whole nodes of at most KEY_CAP keys each; a node with more goes alone.

    ``owner`` is the node of every row, ascending, and ``impure`` the nodes
    to search, in the order of ``features``. Returns the split nodes and,
    for each, its feature, rank and threshold.
    """
    row_start = np.searchsorted(owner, impure)
    row_end = np.searchsorted(owner, impure, "right")
    key_end = np.cumsum(row_end - row_start) * data.k
    parts = []
    first = 0
    while first < len(impure):
        limit = (key_end[first - 1] if first else 0) + KEY_CAP
        stop = max(first + 1, int(np.searchsorted(key_end, limit, "right")))
        a, b = row_start[first], row_end[stop - 1]
        slot = np.full(len(counts), -1)
        slot[impure[first:stop]] = np.arange(stop - first)
        node_of = slot[owner[a:b]]
        keep = node_of >= 0
        at, *split = data.best_splits(
            features[first:stop], rows[a:b][keep], weight[a:b][keep], node_of[keep],
            counts[impure[first:stop]],
        )
        parts.append((impure[first:stop][at], *split))
        first = stop
    if not parts:
        nothing = np.zeros(0, dtype=np.intp)
        return nothing, nothing, nothing, np.zeros(0)
    return tuple(np.concatenate(a) for a in zip(*parts))


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
