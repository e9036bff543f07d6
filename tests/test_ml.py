import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsgn import (
    EvalReport,
    FeatureMatrix,
    ForestConfig,
    RandomForest,
    evaluate,
    f1_score,
    percent_increase,
    stratified_split,
)
from tsgn import ml
from tsgn.ml import _Tree, train_rows

from oracles import ReferenceForest


# -------------------------------------------------------------------- metrics

def test_f1_perfect_predictions():
    assert f1_score(["p", "n", "p"], ["p", "n", "p"], "p") == 1.0


def test_f1_half_precision_half_recall():
    # truth [1,1,0,0], pred [1,0,1,0]: P = R = 0.5
    assert f1_score([1, 0, 1, 0], [1, 1, 0, 0], 1) == pytest.approx(0.5)


def test_f1_zero_when_no_positive_overlap():
    assert f1_score([0, 0], [1, 1], 1) == 0.0


def test_f1_rejects_bad_input():
    with pytest.raises(ValueError, match="predictions"):
        f1_score([1], [1, 0], 1)
    with pytest.raises(ValueError, match="at least one"):
        f1_score([], [], 1)


def test_percent_increase_reference_values():
    assert percent_increase(85.88, 80.36) == pytest.approx(6.87, abs=0.01)
    assert percent_increase(94.90, 90.47) == pytest.approx(4.90, abs=0.01)


def test_percent_increase_zero_for_equal_inputs():
    assert percent_increase(0.5, 0.5) == 0.0


def test_percent_increase_sign_antisymmetry():
    up = percent_increase(0.9, 0.8)
    down = percent_increase(0.7, 0.8)
    assert up > 0 > down


def test_percent_increase_rejects_zero_baseline():
    with pytest.raises(ValueError, match="positive baseline"):
        percent_increase(0.5, 0.0)


# --------------------------------------------------------------------- forest

def _separable(n_per_class=50, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(loc=-2.0, scale=0.3, size=(n_per_class, 1))
    b = rng.normal(loc=2.0, scale=0.3, size=(n_per_class, 1))
    x = np.vstack([a, b])
    y = ["benign"] * n_per_class + ["phishing"] * n_per_class
    return x, y


def test_forest_separates_two_clusters_on_training_data():
    x, y = _separable()
    forest = RandomForest(ForestConfig(n_trees=20, seed=1)).fit(x, y)
    assert f1_score(forest.predict(x), y, "phishing") == 1.0


def test_forest_is_deterministic_for_fixed_seed():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(80, 5))
    y = ["a" if v < 0 else "b" for v in x[:, 0] + 0.3 * rng.normal(size=80)]
    p1 = RandomForest(ForestConfig(n_trees=30, seed=5)).fit(x, y).predict(x)
    p2 = RandomForest(ForestConfig(n_trees=30, seed=5)).fit(x, y).predict(x)
    assert p1 == p2


def test_forest_accepts_seeds_beyond_64_bits():
    x, y = _separable(20, seed=3)
    config = ForestConfig(n_trees=5, seed=2**70 + 9)
    first = RandomForest(config).fit(x, y)
    second = RandomForest(config).fit(x, y)
    assert _tree_shapes(first) == _tree_shapes(second)
    other = RandomForest(ForestConfig(n_trees=5, seed=9)).fit(x, y)
    assert _tree_shapes(first) != _tree_shapes(other)


def test_forest_rejects_degenerate_input():
    x = np.zeros((4, 2))
    with pytest.raises(ValueError, match="single class"):
        RandomForest(ForestConfig()).fit(x, ["a"] * 4)
    bad = np.array([[0.0, np.inf], [1.0, 2.0]])
    with pytest.raises(ValueError, match="non-finite"):
        RandomForest(ForestConfig()).fit(bad, ["a", "b"])
    with pytest.raises(ValueError, match="before fit"):
        RandomForest(ForestConfig()).predict(x)


def test_forest_refuses_rows_of_another_width():
    # narrower rows would read past their own row into the next one's values
    rng = np.random.default_rng(2)
    x = rng.normal(size=(40, 4))
    y = ["a" if v > 0 else "b" for v in x[:, 0]]
    forest = RandomForest(ForestConfig(n_trees=10, seed=2)).fit(x, y)
    stack = RandomForest(ForestConfig(n_trees=10)).fit(np.stack([x, x]), [y, y], [1, 2])
    for width in (2, 3, 8):
        message = f"got rows of {width} features, fitted on 4"
        with pytest.raises(ValueError, match=message):
            forest.predict(rng.normal(size=(5, width)))
        with pytest.raises(ValueError, match=message):
            stack.predict(rng.normal(size=(2, 5, width)))


def test_forest_refuses_rows_without_features():
    with pytest.raises(ValueError, match="no feature columns"):
        RandomForest(ForestConfig()).fit(np.zeros((4, 0)), list("aabb"))
    with pytest.raises(ValueError, match="no feature columns"):
        RandomForest(ForestConfig()).fit(np.zeros((2, 4, 0)), [list("aabb")] * 2, [1, 2])


def test_forest_config_validation():
    with pytest.raises(ValueError):
        ForestConfig(n_trees=0)
    with pytest.raises(ValueError):
        ForestConfig(seed=-1)


def test_forest_invariant_under_monotone_feature_transform():
    rng = np.random.default_rng(11)
    x = rng.uniform(0.1, 4.0, size=(60, 3))
    y = ["a" if r else "b" for r in (x[:, 0] + x[:, 1] > 4.0)]
    config = ForestConfig(n_trees=25, seed=3)
    base = RandomForest(config).fit(x, y).predict(x)
    warped = x.copy()
    warped[:, 1] = np.exp(warped[:, 1])  # strictly monotone on one column
    transformed = RandomForest(config).fit(warped, y).predict(warped)
    assert base == transformed


def _tree_shapes(forest):
    (_, _, table), = forest._tables
    return [_tree_shape(table, root) for root in range(forest.config.n_trees)]


def _tree_shape(tree, node):
    if tree.feature[node] < 0:
        return tuple(tree.probs[node])
    return (
        int(tree.feature[node]),
        float(tree.threshold[node]),
        _tree_shape(tree, tree.left[node]),
        _tree_shape(tree, tree.left[node] + 1),
    )


def _reference_shape(node):
    if node.feature is None:
        return tuple(node.probs)
    return (
        node.feature,
        node.threshold,
        _reference_shape(node.left),
        _reference_shape(node.right),
    )


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_rows=st.integers(4, 60),
    kinds=st.lists(
        st.sampled_from(["ties", "constant", "continuous"]), min_size=1, max_size=9
    ),
    n_classes=st.integers(2, 4),
)
def test_forest_matches_reference_forest(seed, n_rows, kinds, n_classes):
    rng = np.random.default_rng(seed)
    columns = []
    for kind in kinds:
        if kind == "ties":  # few distinct values, long runs of equal ones
            columns.append(np.round(rng.normal(scale=2.0, size=n_rows)))
        elif kind == "constant":
            columns.append(np.full(n_rows, rng.normal()))
        else:
            columns.append(rng.normal(size=n_rows))
    x = np.column_stack(columns)
    y = [f"c{v}" for v in rng.integers(0, n_classes, size=n_rows)]
    y[:2] = ["c0", "c1"]
    config = ForestConfig(n_trees=4, seed=seed % 1000)
    forest = RandomForest(config).fit(x, y)
    reference = ReferenceForest(config).fit(x, y)
    assert _tree_shapes(forest) == [_reference_shape(root) for root in reference._trees]
    probe = np.vstack([x, np.round(rng.normal(scale=2.0, size=(20, x.shape[1])))])
    assert forest.predict(probe) == reference.predict(probe)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_rows=st.integers(4, 100),
    n_features=st.integers(1, 9),
    n_classes=st.integers(2, 10),
    decimals=st.integers(0, 3),
)
@pytest.mark.parametrize("n_trees", [1, 7])
def test_forest_grown_in_blocks_matches_reference_forest(
    seed, n_rows, n_features, n_classes, decimals, n_trees
):
    # a key cap of 1 scores every node of every level in a search of its own.
    # From 8 classes numpy sums the Gini terms pairwise instead of in order.
    rng = np.random.default_rng(seed)
    x = np.round(rng.normal(scale=2.0, size=(n_rows, n_features)), decimals)
    y = [f"c{v}" for v in rng.integers(0, n_classes, size=n_rows)]
    y[:2] = ["c0", "c1"]
    config = ForestConfig(n_trees=n_trees, seed=seed % 1000)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ml, "KEY_CAP", 1)
        forest = RandomForest(config).fit(x, y)
        predicted = forest.predict(x)  # one row at a time through all trees
    reference = ReferenceForest(config).fit(x, y)
    assert _tree_shapes(forest) == [_reference_shape(root) for root in reference._trees]
    assert predicted == reference.predict(x)


@pytest.mark.parametrize("n_classes", [2, 12])
def test_thirty_trees_grown_in_one_pass_match_reference_forest(n_classes):
    # 30 trees on a few hundred rows with the default key cap, so the first
    # levels are searched in chunks; 12 classes of 300 rows take two int64
    # words of class-count fields
    rng = np.random.default_rng(23)
    x = np.round(rng.normal(scale=2.0, size=(300, 6)), 2)
    noisy = x[:, 0] + x[:, 1] + rng.normal(size=300)
    y = [f"c{v}" for v in np.digitize(noisy, np.linspace(-4, 4, n_classes - 1))]
    config = ForestConfig(n_trees=30, seed=4)
    forest = RandomForest(config).fit(x, y)
    reference = ReferenceForest(config).fit(x, y)
    assert len(forest.classes_) == n_classes
    assert _tree_shapes(forest) == [_reference_shape(root) for root in reference._trees]
    probe = np.round(rng.normal(scale=2.0, size=(50, 6)), 2)
    assert forest.predict(probe) == reference.predict(probe)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_vectors=st.integers(1, 8),
    n_rows=st.integers(20, 200),
    n_features=st.integers(1, 6),
    case=st.sampled_from(["conflicting labels", "signed zeros", "all but one"]),
)
@pytest.mark.parametrize("key_cap", [ml.KEY_CAP, 1])
def test_forest_on_repeated_rows_matches_reference_forest(
    seed, n_vectors, n_rows, n_features, case, key_cap
):
    # rows drawn from a few vectors, plus one more vector in a single row,
    # whose class differs from that of vector 0 in row 0. The forest searches
    # each distinct (row, class) pair once, weighted by its copies.
    rng = np.random.default_rng(seed)
    vectors = np.round(rng.normal(scale=2.0, size=(n_vectors + 1, n_features)))
    if case == "signed zeros":  # the extra vector is vector 0 with -0.0 for 0.0
        vectors[0, 0] = 0.0
        vectors[-1] = vectors[0]
        vectors[-1, 0] = -0.0
    pick = np.zeros(n_rows, dtype=int)
    if case != "all but one":
        pick[1:] = rng.integers(0, n_vectors, size=n_rows - 1)
    pick[rng.integers(1, n_rows)] = n_vectors
    classes = rng.integers(0, 3, size=n_vectors + 1)
    classes[-1] = (classes[0] + 1) % 3
    y = classes[pick]
    if case == "conflicting labels":  # some copies of a vector change class
        flip = rng.random(n_rows) < 0.3
        flip[0] = False
        y[flip] = (y[flip] + rng.integers(1, 3, size=flip.sum())) % 3
    x = vectors[pick]
    y = [f"c{v}" for v in y]
    config = ForestConfig(n_trees=4, seed=seed % 1000)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ml, "KEY_CAP", key_cap)
        forest = RandomForest(config).fit(x, y)
        probe = np.vstack([vectors, -vectors, x])
        predicted = forest.predict(probe)
    reference = ReferenceForest(config).fit(x, y)
    assert _tree_shapes(forest) == [_reference_shape(root) for root in reference._trees]
    assert predicted == reference.predict(probe)


def test_split_search_scores_each_distinct_row_once(monkeypatch):
    # 630 rows that are 63 distinct rows of one class each, repeated 10
    # times: every search sees row numbers of the 63 only
    rng = np.random.default_rng(8)
    vectors = rng.normal(size=(63, 10))
    x = vectors[rng.permutation(np.repeat(np.arange(63), 10))]
    y = ["phishing" if v > 0 else "benign" for v in x[:, 0] + x[:, 1]]
    searched = []
    search = ml._RankedRows.best_splits

    def spy(self, features, rows, *args):
        searched.append(rows)
        return search(self, features, rows, *args)

    monkeypatch.setattr(ml._RankedRows, "best_splits", spy)
    RandomForest(ForestConfig(n_trees=20, seed=2)).fit(x, y)
    assert searched
    assert max(rows.max() for rows in searched) < 63


def test_a_one_sided_split_raises_instead_of_growing_forever(monkeypatch):
    search = ml._RankedRows.best_splits

    def one_sided(self, *args):
        at, feature, rank, threshold = search(self, *args)
        return at, feature, np.full_like(rank, np.iinfo(np.int32).max), threshold

    monkeypatch.setattr(ml._RankedRows, "best_splits", one_sided)
    x, y = _separable(20, seed=4)
    with pytest.raises(RuntimeError, match="forest level 0: a split sends all its rows one way"):
        RandomForest(ForestConfig(n_trees=3, seed=1)).fit(x, y)


def test_forest_memory_is_bounded_by_the_key_cap():
    # 630 rows of about 315 distinct ones, like the fused etherg1 training
    # rows. A pass holds all its trees' rows at once, but each split search
    # sorts at most KEY_CAP keys: here the fit peaks near 2.7 MB, and one
    # search over all 100 roots at once would peak near 9.3 MB. predict routes
    # at most KEY_CAP (tree, row) cells at once: all 10,080 rows through all
    # trees at once would take near 67 MB.
    rng = np.random.default_rng(5)
    x = rng.normal(size=(315, 10))[rng.integers(0, 315, size=630)]
    y = ["phishing" if v else "benign" for v in (x[:, 0] > 0) ^ (rng.random(630) < 0.02)]
    forest = RandomForest(ForestConfig(n_trees=100, seed=5))
    forest.fit(x, y)  # leave numpy's one-time allocations out of the count
    many = np.tile(x, (16, 1))
    for run in (lambda: forest.fit(x, y), lambda: forest.predict(many)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4_000_000


def test_a_stack_of_eight_forests_stays_within_its_pass_budget():
    # eight forests on the data above, 291 distinct rows each: 232,800 root
    # cells, grown in two passes of four. The pass budget, not the stack,
    # bounds the rows a pass holds: the fit peaks near 5.2 MB, with the node
    # table of all 800 trees.
    rng = np.random.default_rng(5)
    x = rng.normal(size=(315, 10))[rng.integers(0, 315, size=630)]
    y = ["phishing" if v else "benign" for v in (x[:, 0] > 0) ^ (rng.random(630) < 0.02)]
    xs, ys, seeds = np.stack([x] * 8), [y] * 8, list(range(8))
    forest = RandomForest(ForestConfig(n_trees=100, seed=5))
    forest.fit(xs, ys, seeds)  # leave numpy's one-time allocations out of the count
    assert len(forest._tables) == 2
    for run in (lambda: forest.fit(xs, ys, seeds), lambda: forest.predict(xs)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8_000_000


def test_a_stacked_fit_does_not_copy_its_node_tables():
    # 64 forests on the data above, in 16 passes, keep 11.9 MB of node
    # tables. The fit peaks near 17.6 MB: what it keeps plus one pass's
    # working memory, not a second copy of every table (near 25 MB).
    rng = np.random.default_rng(5)
    x = rng.normal(size=(315, 10))[rng.integers(0, 315, size=630)]
    y = ["phishing" if v else "benign" for v in (x[:, 0] > 0) ^ (rng.random(630) < 0.02)]
    xs, ys, seeds = np.stack([x] * 64), [y] * 64, list(range(64))
    config = ForestConfig(n_trees=100, seed=5)
    RandomForest(config).fit(xs[:1], ys[:1], seeds[:1])  # numpy's one-time allocations
    tracemalloc.start()
    try:
        forest = RandomForest(config).fit(xs, ys, seeds)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= kept + 8_000_000
    assert len(forest._tables) == 16


@pytest.mark.parametrize("n_classes", range(2, 13))
def test_class_sums_add_like_row_sums(n_classes):
    # the per-node search sums the Gini terms of an (n, classes) array by row
    terms = np.random.default_rng(n_classes).random((n_classes, 500))
    expected = np.ascontiguousarray(terms.T).sum(axis=1)
    assert ml._sum_classes(terms).tobytes() == expected.tobytes()


def test_forest_vote_tie_goes_to_smallest_class_label():
    forest = RandomForest(ForestConfig(n_trees=2))
    forest.classes_ = ("neg", "pos")
    leaves = np.array([-1, -1])
    # two trees of one leaf each, one full vote each way
    forest.n_features_ = 1
    forest._tables = [(0, 1, _Tree(leaves, np.zeros(2), leaves, np.eye(2)))]
    assert forest.predict(np.zeros((3, 1))) == ["neg", "neg", "neg"]


def _stack_trees(forest, f):
    """Every tree of forest ``f`` of a stack as the node arrays reachable from
    its root, renumbered in preorder: feature, threshold and class-share
    bytes, and each split node's two children."""
    a, _, table = next(entry for entry in forest._tables if entry[0] <= f < entry[1])
    trees = []
    for t in range(forest.config.n_trees):
        order, todo = [], [(f - a) * forest.config.n_trees + t]
        while todo:
            node = todo.pop()
            order.append(node)
            if table.feature[node] >= 0:
                todo += [int(table.left[node]) + 1, int(table.left[node])]
        number = {node: i for i, node in enumerate(order)}
        children = [
            (number[table.left[v]], number[table.left[v] + 1]) if table.feature[v] >= 0 else None
            for v in order
        ]
        trees.append((
            table.feature[order].tobytes(),
            table.threshold[order].tobytes(),
            table.probs[order].tobytes(),
            children,
        ))
    return trees


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_forests=st.integers(1, 6),
    n_rows=st.integers(4, 40),
    n_features=st.integers(1, 5),
    n_classes=st.integers(2, 4),
    budget=st.sampled_from(["default", "key cap 1", "one forest per pass"]),
)
def test_a_stacked_fit_equals_fitting_each_forest_alone(
    seed, n_forests, n_rows, n_features, n_classes, budget
):
    # each forest's rows are drawn from a few vectors, and its rows 0 and 1
    # differ only in a 0.0 against a -0.0; the last forest's seed needs more
    # than 64 bits
    rng = np.random.default_rng(seed)
    x = np.round(rng.normal(scale=2.0, size=(n_forests, 6, n_features)))
    x = np.take_along_axis(x, rng.integers(0, 6, size=(n_forests, n_rows, 1)), axis=1)
    x[:, 0, 0] = 0.0
    x[:, 1] = x[:, 0]
    x[:, 1, 0] = -0.0
    codes = rng.integers(0, n_classes, size=(n_forests, n_rows))
    codes[:, -n_classes:] = np.arange(n_classes)
    labels = [[f"c{v}" for v in row] for row in codes]
    seeds = [int(v) for v in rng.integers(0, 2**62, size=n_forests)]
    seeds[-1] += 2**70
    config = ForestConfig(n_trees=3, seed=1)
    probe = np.concatenate([x, -x, np.round(rng.normal(size=x.shape))], axis=1)
    with pytest.MonkeyPatch.context() as patch:
        if budget == "key cap 1":
            patch.setattr(ml, "KEY_CAP", 1)
        elif budget == "one forest per pass":
            patch.setattr(ml, "PASS_CELLS", 1)
        stack = RandomForest(config).fit(x, labels, seeds)
        predicted = stack.predict(probe)
        alone = [
            RandomForest(replace(config, seed=s)).fit(x[f], labels[f])
            for f, s in enumerate(seeds)
        ]
        alone_predicted = [forest.predict(probe[f]) for f, forest in enumerate(alone)]
    if budget == "one forest per pass":
        assert len(stack._tables) == n_forests
    assert stack.classes_ == alone[0].classes_
    for f, forest in enumerate(alone):
        assert _stack_trees(stack, f) == _stack_trees(forest, 0)
        assert predicted[f] == alone_predicted[f]


def test_a_stack_needs_the_same_classes_in_every_forest():
    x = np.arange(24, dtype=float).reshape(2, 6, 2)
    with pytest.raises(ValueError, match="different classes"):
        RandomForest(ForestConfig()).fit(x, [list("aabbaa"), list("aaccaa")], [1, 2])
    single = list("aaaaaa")
    with pytest.raises(ValueError, match="single class"):
        RandomForest(ForestConfig()).fit(x, [list("aabbaa"), single], [1, 2])
    with pytest.raises(ValueError, match="single class"):
        RandomForest(ForestConfig(seed=2)).fit(x[1], single)
    with pytest.raises(ValueError, match="seeds"):
        RandomForest(ForestConfig()).fit(x, [list("aabbaa")] * 2, [1])


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_forests=st.integers(1, 3),
    n_rows=st.integers(4, 40),
    n_features=st.integers(1, 5),
    n_values=st.integers(2, 6),
    n_classes=st.integers(2, 4),
)
def test_skipping_same_class_breaks_keeps_every_tree(
    seed, n_forests, n_rows, n_features, n_values, n_classes
):
    # few distinct values per feature, so values shared by several rows and
    # runs of one class are common, and rows repeat; the class mostly follows
    # feature 0
    rng = np.random.default_rng(seed)
    x = rng.integers(0, n_values, size=(n_forests, n_rows, n_features)).astype(float)
    codes = np.where(
        rng.random((n_forests, n_rows)) < 0.7,
        x[:, :, 0].astype(int) % n_classes,
        rng.integers(0, n_classes, size=(n_forests, n_rows)),
    )
    codes[:, -n_classes:] = np.arange(n_classes)
    labels = [[f"c{v}" for v in row] for row in codes]
    seeds = [int(v) for v in rng.integers(0, 2**62, size=n_forests)]
    config = ForestConfig(n_trees=3, seed=1)
    probe = np.concatenate([x, rng.integers(-1, n_values + 1, size=x.shape)], axis=1)
    stack = RandomForest(config).fit(x, labels, seeds)
    predicted = stack.predict(probe)
    for f, s in enumerate(seeds):
        reference = ReferenceForest(replace(config, seed=s)).fit(x[f], labels[f])
        a, _, table = next(entry for entry in stack._tables if entry[0] <= f < entry[1])
        roots = (f - a) * config.n_trees + np.arange(config.n_trees)
        assert [_tree_shape(table, r) for r in roots] == [
            _reference_shape(root) for root in reference._trees
        ]
        assert predicted[f] == reference.predict(probe[f])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ml, "_skipping_is_exact", lambda n, n_classes: False)
        every = RandomForest(config).fit(x, labels, seeds)
    assert len(every._tables) == len(stack._tables)
    for (a, b, table), (a2, b2, table2) in zip(stack._tables, every._tables):
        assert (a, b) == (a2, b2)
        assert all(u.tobytes() == v.tobytes() for u, v in zip(table, table2))
    assert every.scored_ == every.breaks_ == stack.breaks_ >= stack.scored_


def test_the_skipping_bound_at_its_edge():
    # 2 * (8 + 6) * n**4 < 2**53 holds up to n = 4235: 28 * 4235**4 is
    # 9.00682e15, below 2**53 = 9.00720e15, and 28 * 4236**4 is 9.01533e15
    assert ml._skipping_is_exact(4096, 8)
    assert ml._skipping_is_exact(4235, 8)
    assert not ml._skipping_is_exact(4236, 8)
    # fewer classes leave more room; the benchmark's 630 training rows of
    # two classes are far inside
    assert ml._skipping_is_exact(4236, 2)
    assert ml._skipping_is_exact(630, 2)


def test_a_fit_above_the_bound_scores_every_break(monkeypatch):
    x, y = _separable(40, seed=2)  # 80 rows of two classes, one feature
    config = ForestConfig(n_trees=5, seed=1)
    below = RandomForest(config).fit(x, y)
    monkeypatch.setattr(ml, "_skipping_is_exact", lambda n, n_classes: n < 80)
    above = RandomForest(config).fit(x, y)
    assert above.scored_ == above.breaks_ == below.breaks_ > below.scored_
    assert above._tables[0][2].threshold.tobytes() == below._tables[0][2].threshold.tobytes()


# ---------------------------------------------------------------------- splits

def test_stratified_split_keeps_both_classes():
    labels = np.array(["a"] * 30 + ["b"] * 10)
    rng = np.random.default_rng(0)
    train, test = stratified_split(labels, rng)
    assert set(labels[train]) == {"a", "b"}
    assert set(labels[test]) == {"a", "b"}
    assert len(train) + len(test) == 40
    assert not set(train) & set(test)


@pytest.mark.parametrize("sizes", [(30, 10), (5, 5), (15, 7, 6), (350, 350)])
def test_train_rows_counts_what_stratified_split_draws(sizes):
    labels = np.array([c for c, n in zip("abc", sizes) for _ in range(n)])
    train, _ = stratified_split(labels, np.random.default_rng(1))
    assert train_rows(labels) == len(train)


def test_stratified_split_errors_on_singleton_class():
    labels = np.array(["a"] * 10 + ["b"])
    with pytest.raises(ValueError, match="absent"):
        stratified_split(labels, np.random.default_rng(0))


# -------------------------------------------------------------------- evaluate

def _matrix(x, y):
    return FeatureMatrix(x, tuple(y), tuple(f"f{i}" for i in range(x.shape[1])))


def test_evaluate_single_repeat_on_separable_data():
    x, y = _separable(30, seed=4)
    report = evaluate(
        _matrix(x, y),
        ForestConfig(n_trees=15, seed=9),
        n_repeats=1,
    )
    assert report.mean_f1 == 1.0
    assert report.std_f1 == 0.0


def test_evaluate_is_reproducible():
    x, y = _separable(25, seed=5)
    kwargs = dict(n_repeats=8, dataset_name="d", variant="tn")
    r1 = evaluate(_matrix(x, y), ForestConfig(n_trees=10, seed=2), **kwargs)
    r2 = evaluate(_matrix(x, y), ForestConfig(n_trees=10, seed=2), **kwargs)
    assert r1 == r2


def test_evaluate_noise_scores_at_chance_level():
    rng = np.random.default_rng(6)
    x = rng.uniform(size=(120, 10))
    y = ["phishing"] * 60 + ["benign"] * 60
    report = evaluate(
        _matrix(x, y),
        ForestConfig(n_trees=30, seed=8),
        n_repeats=10,
    )
    assert 0.35 <= report.mean_f1 <= 0.65


def test_evaluate_with_pca_runs_leakage_free():
    x, y = _separable(25, seed=7)
    wide = np.hstack([x, x * 2.0 + 1.0, np.zeros((50, 1))])
    report = evaluate(
        _matrix(wide, y),
        ForestConfig(n_trees=10, seed=4),
        n_repeats=5,
        pca_dim=2,
    )
    assert report.mean_f1 == 1.0


def _noisy_matrix(n_rows, n_features, seed):
    """Rows of n_features normal features, some repeated, whose class
    follows the first feature with 5% of the labels flipped."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n_rows // 2, n_features))[rng.integers(0, n_rows // 2, size=n_rows)]
    flip = rng.random(n_rows) < 0.05
    return _matrix(x, ["phishing" if v else "benign" for v in (x[:, 0] > 0) ^ flip])


def test_passes_never_change_an_evaluation(monkeypatch):
    # a fused-width matrix projected by a PCA per split, evaluated one
    # repeat per pass, about three repeats per pass, in passes of the
    # default size (one here) and in one pass
    matrix = _noisy_matrix(80, 20, seed=3)
    reports = []
    for cap in (1, 3 * 12 * 60, ml.PASS_CELLS, 2**62):
        monkeypatch.setattr(ml, "PASS_CELLS", cap)
        reports.append(evaluate(matrix, ForestConfig(n_trees=12, seed=6), n_repeats=7, pca_dim=4))
    passes = [r.forest.passes for r in reports]
    assert passes[0] == 7 and 1 < passes[1] < 7 and passes[2:] == [1, 1], passes
    for r in reports:
        assert (r.mean_f1, r.std_f1) == (reports[0].mean_f1, reports[0].std_f1)
        assert r.forest.forests == 7
        assert r.forest[2:6] == reports[0].forest[2:6]  # nodes, leaves, breaks, scored
    assert 0 < reports[0].std_f1


def test_evaluate_memory_does_not_grow_with_its_passes():
    # 630 rows of about 315 distinct ones, as in the forest memory tests:
    # four repeats of 100 trees to a pass. Four times the passes peak
    # within 10%: one pass's rows and forest at a time, not every repeat's.
    matrix = _noisy_matrix(630, 10, seed=5)
    config = ForestConfig(n_trees=100, seed=5)
    evaluate(matrix, config, n_repeats=1)  # leave numpy's one-time allocations out of the count
    peaks, passes = [], []
    for n_repeats in (8, 32):
        tracemalloc.start()
        try:
            passes.append(evaluate(matrix, config, n_repeats=n_repeats).forest.passes)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert passes[1] >= 4 * passes[0] >= 8, passes
    assert peaks[1] <= 1.1 * peaks[0], peaks


def test_evaluate_validates_parameters():
    x, y = _separable(10)
    with pytest.raises(ValueError, match="n_repeats"):
        evaluate(_matrix(x, y), ForestConfig(), n_repeats=0)


def test_report_baseline_comparison():
    base = EvalReport("d", "tn", 0.8, 0.01, 10, 0)
    fused = EvalReport("d", "tn+ttsgn", 0.9, 0.01, 10, 0)
    tagged = fused.with_baseline(base)
    assert tagged.baseline_variant == "tn"
    assert tagged.pct_increase == pytest.approx(12.5)


def test_report_baseline_of_zero_f1_has_no_percent_increase():
    base = EvalReport("d", "tn", 0.0, 0.0, 10, 0)
    fused = EvalReport("d", "tn+ttsgn", 0.5, 0.1, 10, 0)
    tagged = fused.with_baseline(base)
    assert tagged.baseline_variant == "tn"
    assert tagged.pct_increase is None
