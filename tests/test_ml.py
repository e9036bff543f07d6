import tracemalloc

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
    return [_tree_shape(forest._forest, root) for root in range(forest.config.n_trees)]


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
    # rows. A fit holds every tree's rows at once, but each split search
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
    forest._forest = _Tree(leaves, np.zeros(2), leaves, np.eye(2))
    assert forest.predict(np.zeros((3, 1))) == ["neg", "neg", "neg"]


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
