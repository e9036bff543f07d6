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

A search scores only the rank breaks that can win: it skips a break between
two values held by a single row each, both of one class, since for Gini a
cut inside a same-class run never scores lowest. Such a break scores at
least 2 / n**4 above a kept one for n training rows, and a score of C
classes rounds by at most (C + 6) * 2**-53, so the skip applies only while
2 * (C + 6) * 2**-53 * n**4 < 1 (up to n = 4096 with 8 classes); above
that every break is scored. The trees are the same either way.

One RandomForest can hold a stack of independent forests, one per seed,
each on its own rows. The forests of a stack grow in passes of at most
PASS_CELLS (8 * KEY_CAP) root cells, counted as trees times distinct
training rows, each pass one level loop and one node table over all its
forests; every forest's trees are those it would grow alone. ``evaluate``
cuts its repeats into the same passes as it draws them and runs one stacked
``fit`` and ``predict`` per pass, dropping each pass before the next, so its
memory does not grow with the repeats.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Sequence

import numpy as np

from .features import PCA, FeatureMatrix
from .graphs import runs_within
from .ingest import PHISHING_LABEL

# share of every class that stratified_split puts in the training rows (9:1)
TRAIN_FRACTION = 0.9

# Most keys one split search sorts and scores. A level sorts one key per
# (node, drawn feature, distinct row drawn into the node); a level with more is
# scored in runs of whole nodes, so the cap, not the number of trees, bounds
# the working memory of a search. predict routes as many (tree, row) cells at
# once.
KEY_CAP = 1 << 14

# Most (tree, distinct training row) cells the roots of one pass of a stacked
# fit hold. Forests go into passes in stack order, so the working memory of a
# fit does not grow with the number of forests it stacks; evaluate cuts its
# repeats into the same passes.
PASS_CELLS = 8 * KEY_CAP


def f1_score(predictions: Sequence, truth: Sequence, positive_class) -> float:
    """Harmonic mean of precision and recall for the positive class.

    Returns 0 when precision + recall is 0. Raises on length mismatch or
    empty input.
    """
    if len(predictions) != len(truth):
        raise ValueError(
            f"got {len(predictions)} predictions for {len(truth)} truth labels"
        )
    if len(truth) == 0:
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
    """Gini-split CART bagging ensemble, deterministic for a fixed seed.

    One instance holds a stack of independent forests: ``fit`` on a
    ``(forests, rows, features)`` array grows one forest per seed, in passes
    of one node table each, and ``predict`` on a ``(forests, rows,
    features)`` array returns one prediction list per forest. A 2-D ``x`` is
    a stack of one, fitted with ``config.seed``.
    """

    def __init__(self, config: ForestConfig):
        self.config = config
        self.classes_: tuple | None = None
        self.n_features_: int | None = None
        # (first forest, stop, node table) of every pass, as _grow_forest made it
        self._tables: list[tuple[int, int, _Tree]] = []
        # rank breaks the split searches of the last fit found and scored
        self.breaks_ = self.scored_ = 0

    def fit(
        self, x: np.ndarray, labels: Sequence, seeds: Sequence[int] | None = None
    ) -> "RandomForest":
        """Grow one forest per seed, each on its own rows and labels.

        The forests go into passes in stack order, each pass holding at most
        PASS_CELLS (tree, distinct training row) cells at its roots; a
        forest with more goes alone. Each pass keeps its node table as
        grown. Every forest of a stack must see the same classes.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim == 2:
            x, labels = x[None], [labels]
        if x.ndim != 3 or not len(x) or len(labels) != len(x) or any(
            len(row) != x.shape[1] for row in labels
        ):
            raise ValueError(
                "x must be (n_samples, n_features) aligned with labels, or a "
                "(forests, n_samples, n_features) stack aligned with a stack of labels"
            )
        if not x.shape[2]:
            raise ValueError("x has no feature columns")
        seeds = [self.config.seed] * len(x) if seeds is None else list(seeds)
        if len(seeds) != len(x):
            raise ValueError(f"got {len(seeds)} seeds for {len(x)} forests")
        if x.size and not np.isfinite(x).all():
            raise ValueError("training features contain non-finite values")
        n_forests, n = x.shape[:2]
        classes, y = np.unique(np.asarray(labels), return_inverse=True)
        y = y.reshape(n_forests, n)
        seen = np.zeros((n_forests, len(classes)), dtype=bool)
        seen[np.arange(n_forests)[:, None], y] = True
        if seen.sum(axis=1).min() < 2:
            raise ValueError("training data contains a single class")
        if not seen.all():
            raise ValueError("the forests of a stack see different classes")
        self.classes_ = tuple(classes.tolist())
        self.n_features_ = x.shape[2]
        # first[f] holds a row of each of forest f's (row, class) pairs,
        # group[f] the pair of each row
        first, group = zip(*map(_distinct_pairs, x, y))
        n_trees = self.config.n_trees
        tables = []
        self.breaks_ = self.scored_ = 0
        for a, b in runs_within([n_trees * len(rows) for rows in first], PASS_CELLS):
            start = np.cumsum([0] + [len(rows) for rows in first[a:b]])
            forest = np.repeat(np.arange(a, b), np.diff(start))
            rows = np.concatenate(first[a:b])
            data = _RankedRows(
                x[forest, rows], y[forest, rows], len(self.classes_),
                np.stack(group[a:b]) + start[:-1, None], start,
            )
            tables.append((a, b, _grow_forest(n_trees, seeds[a:b], data)))
            self.breaks_ += data.breaks
            self.scored_ += data.scored
        self._tables = tables
        return self

    def predict(self, x: np.ndarray) -> list:
        """Soft-vote prediction; argmax ties go to the smallest class label.

        A 3-D ``x`` holds one ``(rows, features)`` array per forest of the
        stack, and the result one prediction list per forest.
        """
        if self.classes_ is None:
            raise ValueError("predict called before fit")
        x = np.asarray(x, dtype=float)
        stacked = x.ndim == 3
        if not stacked:
            x = x[None]
        n_forests, m, p = x.shape
        if p != self.n_features_:
            raise ValueError(f"got rows of {p} features, fitted on {self.n_features_}")
        if n_forests != self._tables[-1][1]:
            raise ValueError(f"got rows for {n_forests} forests, fitted {self._tables[-1][1]}")
        x = x.reshape(n_forests * m, p)
        n_trees = self.config.n_trees
        votes = np.empty((len(x), len(self.classes_)))
        # at most KEY_CAP (tree, row) cells are routed at once; numpy sums a
        # block's votes along its outer, tree axis one tree after another, in
        # fit order, so the float sums (and hence argmax ties) do not depend
        # on how the rows are routed
        block = max(1, KEY_CAP // n_trees)
        for a, b, table in self._tables:
            for start in range(a * m, b * m, block):
                rows = slice(start, min(start + block, b * m))
                first_root = (np.arange(rows.start, rows.stop) // m - a) * n_trees
                leaves = self._route(table, n_trees, first_root, x[rows])
                votes[rows] = table.probs[leaves].sum(axis=0)
        predicted = [self.classes_[i] for i in votes.argmax(axis=1)]
        per_forest = [predicted[f * m : (f + 1) * m] for f in range(n_forests)]
        return per_forest if stacked else per_forest[0]

    @staticmethod
    def _route(tree: _Tree, n_trees: int, first_root: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Leaf index of every (tree t, row i of ``x``), all moving down from
        node ``first_root[i] + t``."""
        n_rows, n_features = x.shape
        leaf = (np.arange(n_trees)[:, None] + first_root).ravel()
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


def _distinct_pairs(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first row of each distinct (row, class) pair of the float rows
    ``x`` and int classes ``y``, and the pair of every row, comparing rows
    as bytes, so -0.0 is not 0.0."""
    a = np.column_stack((x.view(np.int64), y))
    rows = a.view(np.dtype((np.void, a.itemsize * a.shape[1]))).ravel()
    return np.unique(rows, return_index=True, return_inverse=True)[1:]


class _RankedRows:
    """The distinct (row, class) pairs of the training rows of a stack of
    forests, ranked and keyed for the split search.

    The pairs of forest ``f`` are ``start[f]`` to ``start[f + 1] - 1``, and
    ``group[f]`` maps each of its training rows to its pair. Copies share
    every rank and class, so no split separates them, and their class
    counts stay whole numbers: scores and ties are those of the copies
    apart. Every feature's distinct values are ranked once per forest, the
    ranks of forest ``f`` following those of the forests before it, so one
    value table and one key layout serve the stack and a node, which holds
    rows of one forest, is searched and split on ranks that order like its
    values. ``best_splits`` scores the impure nodes of a level together: one
    int64 key per (node, drawn feature, distinct row drawn) packs, from the
    high bits down, the segment ``node * k + draw``, the row's value rank,
    its class and its bootstrap count, and one sort orders every segment by
    value.
    """

    def __init__(
        self, x: np.ndarray, y: np.ndarray, n_classes: int, group: np.ndarray, start: np.ndarray
    ):
        d, self.n_features = x.shape
        self.group = group
        self.start = start
        self.k = max(1, int(math.sqrt(self.n_features)))
        self.y = y
        self.n_classes = n_classes
        self.ranks = np.empty((self.n_features, d), dtype=np.int64)
        forest = np.repeat(np.arange(len(start) - 1), np.diff(start))
        values = []
        for f, column in enumerate(x.T):
            order = np.lexsort((column, forest))
            value = column[order]
            new = np.ones(d, dtype=bool)
            new[1:] = (value[1:] != value[:-1]) | (forest[order[1:]] != forest[order[:-1]])
            self.ranks[f, order] = np.cumsum(new) - 1
            values.append(value[new])
        # feature f's distinct values, per forest and ascending, from
        # value_start[f] on
        self.values = np.concatenate(values)
        self.value_start = np.cumsum([0] + [len(v) for v in values[:-1]], dtype=np.int64)
        # a count is at most every draw of one forest's tree
        self.count_bits = group.shape[1].bit_length()
        self.class_bits = max(1, (n_classes - 1).bit_length())
        self.rank_bits = max(1, (d - 1).bit_length())
        self.segment_shift = self.rank_bits + self.class_bits + self.count_bits
        # every (feature, row) key without its segment and count
        self.cell_keys = (((self.ranks << self.class_bits) | y) << self.count_bits).ravel()
        self.skip_runs = _skipping_is_exact(group.shape[1], n_classes)
        # rank breaks found and scored by every search so far
        self.breaks = self.scored = 0

    def best_splits(
        self,
        features: np.ndarray,
        rows: np.ndarray,
        weight: np.ndarray,
        node_of: np.ndarray,
        counts: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The best split of each node, for the nodes whose Gini it lowers.

        Node ``i`` holds the distinct rows ``rows[node_of == i]``, if any,
        drawn ``weight`` times each, has class counts ``counts[i]`` and has
        drawn ``features[i]``. Only rank breaks inside a segment can split, so only
        those are scored. The class counts left of a break come from one
        integer running sum; they are whole numbers, and the Gini expressions
        repeat the per-position formulas term by term, so the scores are
        bit-identical to scoring every sorted position. Ties between scores
        go to the earliest drawn feature, then to the lowest value: the order
        of the sorted keys. Returns the split nodes and, for each, its
        feature, its rank (rows ranked at most this go left), threshold and
        the class counts of its left child, a (splits, classes) int64 array.

        A break whose rank groups on both sides are single keys of one class
        is never the first lowest score (Fayyad & Irani, Machine Learning 8,
        1992), so where ``_skipping_is_exact`` holds it is found but not
        scored; the ``breaks`` and ``scored`` counters add up both. Why the
        pick stays the same, for C classes, n training rows per forest and
        an impure node of m <= n drawn rows:

        - A run of skipped breaks in a segment moves rows of one class c
          only, and each of its two ends is a kept break (the keys there
          differ in class or share a rank) or a segment end.
        - Along the run a side of s rows holds o = sum_{j != c} x_j rows of
          other classes, fixed, with Q = sum_{j != c} x_j**2. Its term of
          the weighted Gini sum F is s - sum_j x_j**2 / s = 2o - (o**2 + Q) / s,
          and s moves by one per row moved, so F'' = -sum_sides 2(o**2 + Q)
          / s**3. The node is impure, so some side has o >= 1, hence
          o**2 + Q >= 2, and s <= n: F'' <= -4 / n**3.
        - So at an interior break, u >= 1 rows from one end and v >= 1 rows
          from the other, F lies at least 2uv / n**3 above the chord between
          the ends, and the score F / m at least 2 / n**4 above the lower
          end. A segment end scores the parent's Gini, which no break
          exceeds, so that lower end is a kept break.
        - Rounding, in units u = 2**-53 and to first order: counts and sizes
          are exact. Each term (x / s)**2 rounds twice, 3u relative; the sum
          of C terms, at most 1, adds (C - 1)u; 1 - sum adds u, so a side's
          Gini is off by (C + 3)u. The product with s adds s * u, the sum of
          the two sides m * u, and the division by m one more u: a score is
          off by at most (C + 6)u.
        - Two scores 2 / n**4 apart stay ordered when each is off by less
          than 1 / n**4: (C + 6) * 2**-53 * n**4 < 1, required here with a
          factor of 2 to spare for the terms of second order. Then every
          skipped break's score lies above a kept break's, and the first
          lowest score of a node is the kept break that scoring every break
          picks. That holds up to n = 4096 with 8 classes.
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
        key += np.add.outer(
            np.arange(k) << shift, ((node_of.astype(np.int64) * k) << shift) | weight
        )
        key = key.ravel()
        key.sort()

        class_bits = self.class_bits
        value = key >> self.count_bits  # segment, rank and class
        label = value & ((1 << class_bits) - 1)
        change = value[1:] ^ value[:-1]
        # moved[i + 1]: key i + 1 has another segment or rank than key i
        moved = np.ones(len(key) + 1, dtype=bool)
        np.greater_equal(change, 1 << class_bits, out=moved[1:-1])
        new_segment = change >= (1 << (self.rank_bits + class_bits))
        del change
        # the keys after which another segment's keys begin
        start = np.flatnonzero(new_segment)
        # a split after key q leaves the keys start .. q of q's segment on the
        # left: the next key has another rank in the same segment
        breaks = np.greater(moved[1:-1], new_segment, out=new_segment)
        found = np.count_nonzero(breaks)
        if self.skip_runs:
            # skip a break whose rank groups on both sides are single keys
            # of one class
            lone = moved[:-2] & moved[2:]
            lone &= label[1:] == label[:-1]
            np.greater(breaks, lone, out=breaks)
            del lone
        del moved
        q = np.flatnonzero(breaks)
        del breaks
        self.breaks += found
        self.scored += len(q)
        if not q.size:
            nothing = np.zeros(0, dtype=np.int64)
            return nothing, nothing, nothing, np.zeros(0), np.zeros((0, self.n_classes), np.int64)
        seg = value.take(q) >> (self.rank_bits + class_bits)
        # the first key of each break's run; a node without rows has no run
        run = np.searchsorted(start, q)
        start += 1
        start = np.concatenate(([0], start)).take(run)

        # the class counts left of every break, from one running sum of the
        # bootstrap counts packed into bit fields of count_bits, per_word
        # classes to an int64. A segment's count of a class is at most n, so
        # no field carries into the next, and the difference of two running
        # sums is exact even where a sum wraps around.
        width = self.count_bits
        per_word = 63 // width
        packed = key & ((1 << width) - 1)
        del key
        if per_word < self.n_classes:
            word = label // per_word
            label -= word * per_word
        label *= width  # now the shift of each key's count field
        packed <<= label
        del label
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
        right = np.subtract(counts.take(node, axis=0).T, left, order="C")
        total = counts.sum(axis=1)
        m = total.take(node)
        sizes_left = left.sum(axis=0)
        sizes_right = m - sizes_left
        # the terms of the Gini sums, in the array of the right counts, so
        # the left counts stay for the children of the chosen splits
        terms = np.divide(right, sizes_right, out=right)
        gini_right = 1.0 - _sum_classes(np.square(terms, out=terms))
        terms = np.divide(left, sizes_left, out=terms)
        gini_left = 1.0 - _sum_classes(np.square(terms, out=terms))
        del right, terms
        score = (sizes_left * gini_left + sizes_right * gini_right) / m

        # the first lowest score of every node, kept when it lowers the Gini
        runs = _run_starts(node)
        lowest = np.empty(n_nodes)
        lowest[node[runs]] = np.minimum.reduceat(score, runs)
        hits = np.flatnonzero(score == lowest.take(node))
        best = hits[_run_starts(node[hits])]
        nodes = node[best]
        parent_gini = 1.0 - _sum_classes((counts.T[:, nodes] / total[nodes]) ** 2)
        best = best[parent_gini - score[best] > 1e-12]
        nodes = node[best]
        split_feature = features[nodes, seg[best] % k]
        rank_mask = (1 << self.rank_bits) - 1
        low_rank = (value[q[best]] >> class_bits) & rank_mask
        offset = self.value_start[split_feature]
        low = self.values[offset + low_rank]
        high = self.values[offset + ((value[q[best] + 1] >> class_bits) & rank_mask)]
        threshold = (low + high) / 2.0
        collapsed = threshold >= high  # fp rounding collapsed the midpoint
        threshold[collapsed] = low[collapsed]
        return nodes, split_feature, low_rank, threshold, left.T[best].astype(np.int64)


def _skipping_is_exact(n: int, n_classes: int) -> bool:
    """Whether a split search of trees on ``n`` training rows of
    ``n_classes`` classes may skip the breaks inside same-class runs and
    still pick the break it would pick scoring every one: a score's
    rounding, at most (n_classes + 6) * 2**-53, stays below a quarter of
    2 / n**4, the least gap between a skipped break's score and a kept one's
    (derived in ``_RankedRows.best_splits``)."""
    return 2 * (n_classes + 6) * n**4 < 2**53


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


def _grow_forest(n_trees: int, seeds: Sequence[int], data: _RankedRows) -> _Tree:
    """Grow the ``n_trees`` trees of every forest of a stack, one forest per
    seed, one depth level at a time.

    Every random number is a keyed draw, so no tree depends on the order in
    which nodes grow or on the other forests of the stack. Tree ``t`` of a
    forest bootstraps its ``n`` training rows from draws ``t * n + 1`` to
    ``t * n + n`` of its seed's bootstrap stream, each draw counted for its
    row's pair in ``data.group``, and its root's key is draw ``t + 1`` of
    the seed's root stream. A node with ``p`` features draws the ``k``
    smallest of draws 1 to ``p`` of its key's stream, in ascending order,
    and its children's keys are draws ``p + 1`` and ``p + 2``.

    Nodes are numbered across the stack in the order they are made, so node
    ``f * n_trees + t`` is the root of tree ``t`` of forest ``f`` and each
    level is one range of numbers. The rows of a level's nodes are held as
    int32 cells sorted by node: ``node``, the distinct ``rows`` drawn and
    their ``weight``, the times drawn; a node that is pure or not split
    drops its rows. The roots' class counts come from their rows, the
    others' from the split that made them. Returns the stack's node table.
    """
    n_classes, p, n = data.n_classes, data.n_features, data.group.shape[1]
    d = data.ranks.shape[1]  # distinct rows
    # one forest at a time, so the bootstrap's draws take the memory of one
    # forest's: its (tree, distinct row) cells, then the forest's node numbers
    tree_start = np.arange(n_trees)[:, None]
    node, rows, weight, keys = [], [], [], []
    for f, seed in enumerate(seeds):
        start, distinct = data.start[f], data.start[f + 1] - data.start[f]
        boot_key, root_key = np.random.SeedSequence(seed).generate_state(2, np.uint64)[:, None]
        boot = _draws(boot_key, n_trees * n)[0]
        boot %= np.uint64(n)  # row numbers, below n: the same as int64
        boot = (data.group[f] - start).take(boot.view(np.int64))
        boot.reshape(n_trees, n)[:] += tree_start * distinct
        drawn = np.bincount(boot, minlength=n_trees * distinct)
        del boot
        cell = np.flatnonzero(drawn)
        weight.append(drawn[cell].astype(np.int32))
        del drawn
        tree, row = np.divmod(cell, distinct)
        node.append((tree + f * n_trees).astype(np.int32))
        rows.append((row + start).astype(np.int32))
        keys.append(_draws(root_key, n_trees)[0])
    node, rows, weight, keys = map(np.concatenate, (node, rows, weight, keys))
    del cell, tree, row
    counts = np.bincount(
        node * n_classes + data.y[rows], weights=weight, minlength=len(keys) * n_classes
    ).astype(np.int64).reshape(-1, n_classes)
    first = 0  # number of the level's first node
    levels = []  # per level: feature, threshold, left child, class shares
    while len(keys):
        width = len(keys)
        m = counts.sum(axis=1)
        # the rows of a pure node are done; the others are sorted by node
        keep = np.flatnonzero((counts.max(axis=1) < m)[node])
        keep = keep[np.argsort(node[keep], kind="stable")]
        node, rows, weight = node[keep], rows[keep], weight[keep]
        del keep
        features = np.argsort(_draws(keys, p), axis=1, kind="stable")[:, : data.k]
        at, split_feature, split_rank, split_threshold, split_left = _search_in_chunks(
            data, features, node, rows, weight, counts
        )
        feature = np.full(width, -1, dtype=np.intp)
        feature[at] = split_feature
        threshold = np.zeros(width)
        threshold[at] = split_threshold
        left = np.full(width, -1, dtype=np.int32)
        left[at] = first + width + 2 * np.arange(len(at))
        levels.append((feature, threshold, left, counts / m[:, None]))
        # the rows of a split node move to its left or right child, numbered
        # within the next level; the rows of an unsplit node are done
        cut = np.full(width, -1)
        cut[at] = split_rank
        moving = cut[node] >= 0
        node, rows, weight = node[moving], rows[moving], weight[moving]
        right = data.ranks.take(feature[node] * d + rows) > cut[node]
        node = left[node] - (first + width) + right
        # a split that keeps every row on one side would repeat at every
        # level without end
        if not np.bincount(node, minlength=2 * len(at)).all():
            level = len(levels) - 1
            raise RuntimeError(f"forest level {level}: a split sends all its rows one way")
        del moving, right
        counts = np.stack((split_left, counts[at] - split_left), axis=1).reshape(-1, n_classes)
        keys = _draws(keys[at], 2, first=p + 1).ravel()
        first += width
    return _Tree(*map(np.concatenate, zip(*levels)))


def _search_in_chunks(
    data: _RankedRows,
    features: np.ndarray,
    node_of: np.ndarray,
    rows: np.ndarray,
    weight: np.ndarray,
    counts: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``data.best_splits`` of the nodes of a level, called on runs of whole
    nodes of at most KEY_CAP keys each; a node with more goes alone.

    Node ``i`` has drawn ``features[i]``, has class counts ``counts[i]`` and
    holds the rows ``rows[node_of == i]``, ``node_of`` ascending; a node
    without rows is not split. Returns what ``best_splits`` returns.
    """
    node_rows = np.bincount(node_of, minlength=len(features))
    row_end = np.concatenate([[0], np.cumsum(node_rows)]).tolist()
    nothing = np.zeros(0, dtype=np.intp)  # the splits of a level without rows
    parts = [(nothing, nothing, nothing, np.zeros(0), np.zeros((0, data.n_classes), np.int64))]
    for first, stop in runs_within((node_rows * data.k).tolist(), KEY_CAP):
        a, b = row_end[first], row_end[stop]
        if a == b:
            continue
        at, *split = data.best_splits(
            features[first:stop], rows[a:b], weight[a:b], node_of[a:b] - first,
            counts[first:stop],
        )
        parts.append((at + first, *split))
    return tuple(np.concatenate(a) for a in zip(*parts))


class ForestStats(NamedTuple):
    """What the forests of one ``evaluate`` did, and their seconds, summed
    over its passes."""

    forests: int
    passes: int
    nodes: int
    leaves: int
    # rank breaks the split searches found, and those they scored
    breaks: int
    scored: int
    fit_seconds: float
    predict_seconds: float


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
    # counts and timings, left out of comparisons: a rerun's differ
    forest: ForestStats | None = field(default=None, compare=False, repr=False)

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


def require_phishing_label(labels: Sequence) -> None:
    """Raise ValueError unless some label is PHISHING_LABEL, the class whose
    F1 ``evaluate`` scores."""
    if PHISHING_LABEL not in labels:
        raise ValueError(
            f"evaluate scores the F1 of the {PHISHING_LABEL!r} label, which no graph "
            f"has (labels: {', '.join(sorted(set(labels)))})"
        )


def _class_train_sizes(labels: Sequence) -> dict:
    """Training rows per class (in sorted class order) that every split
    draws; raises ValueError naming each class that would then be absent from
    the training or the test rows.

    The sizes do not depend on the draw, so a class that is too small for one
    split is too small for all of them.
    """
    classes, members = np.unique(np.asarray(labels), return_counts=True)
    counts = list(zip(classes.tolist(), members.tolist()))
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
    labels: Sequence, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Per-class random ``TRAIN_FRACTION`` split keeping every class on both
    sides; raises ValueError when some class is too small for that."""
    labels = np.asarray(labels)
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
    PCA projection on the training rows only, and draws its forest's seed.
    The repeats go into passes as RandomForest.fit would cut their stack,
    runs of at most PASS_CELLS root cells (runs_within, taking each repeat's
    cells as it is drawn). Each pass is one stacked ``fit`` and ``predict``
    whose rows and forest are dropped before the next pass is drawn, so
    memory does not grow with the repeats; each repeat's trees are those of
    a forest fitted alone. Scores the F1 of the phishing class on each
    repeat's held-out rows and reports the mean and the population (ddof=0)
    standard deviation over repeats, with the ``ForestStats`` summed over
    passes. Raises ValueError when no label is phishing or some class is
    too small for a split. The labels are split, fitted, predicted and
    scored as integer codes, one per class in sorted order.
    """
    if n_repeats < 1:
        raise ValueError("n_repeats must be >= 1")
    labels = np.asarray(dataset.labels)
    require_phishing_label(labels)
    _class_train_sizes(labels)  # names a class too small to split by its label
    classes, codes = np.unique(labels, return_inverse=True)
    positive = int(np.searchsorted(classes, PHISHING_LABEL))
    # per repeat drawn and not yet fitted: training rows and codes, test rows
    # and codes, forest seed
    drawn = []

    def root_cells():
        for i in range(n_repeats):
            rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(i,)))
            train, test = stratified_split(codes, rng)
            x_train, x_test = dataset.values[train], dataset.values[test]
            if pca_dim is not None:
                projector = PCA(pca_dim).fit(x_train)
                x_train, x_test = projector.transform(x_train), projector.transform(x_test)
            drawn.append((x_train, codes[train], x_test, codes[test], int(rng.integers(2**62))))
            yield config.n_trees * len(_distinct_pairs(x_train, codes[train])[0])

    scores, stats = [], []
    for a, b in runs_within(root_cells(), PASS_CELLS):
        x_train, y_train, x_test, y_test, seeds = zip(*drawn[: b - a])
        del drawn[: b - a]
        started = time.perf_counter()
        forest = RandomForest(config).fit(np.stack(x_train), y_train, seeds)
        fitted = time.perf_counter()
        predictions = forest.predict(np.stack(x_test))
        predicted = time.perf_counter()
        scores += [f1_score(p, t, positive) for p, t in zip(predictions, y_test)]
        features = [table.feature for *_, table in forest._tables]
        stats.append(ForestStats(
            b - a, len(features), sum(map(len, features)),
            sum(int(np.count_nonzero(f < 0)) for f in features), forest.breaks_, forest.scored_,
            fitted - started, predicted - fitted,
        ))
        # the pass's rows and forest go before the next pass is drawn
        del x_train, x_test, forest, features
    return EvalReport(
        dataset_name, variant, float(np.mean(scores)), float(np.std(scores)), n_repeats,
        config.seed, forest=ForestStats(*map(sum, zip(*stats))),
    )
