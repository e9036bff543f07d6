import math
import random
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsgn import (
    FEATURE_NAMES,
    PCA,
    FeatureMatrix,
    TransactionGraph,
    TsgnGraph,
    build_multiple_tsgn,
    concat_features,
    feature_matrix,
    handcrafted_features,
)
from tsgn import features
from tsgn.ingest import write_csv
from tsgn.transforms import BUILDERS, VARIANTS
from tsgn.features import _path_centralities, largest_eigenvalue, simple_adjacency

from oracles import (
    betweenness_oracle,
    bfs_distances,
    closeness_oracle,
    eigenvalue_oracle,
    feature_oracle,
    oracle_adjacency,
    random_digraph,
    random_multigraph,
    random_undirected_graph,
    rows_of,
    svd_pca_components,
)


def _star(n_leaves):
    edges = [("c", f"v{i}", 1) for i in range(n_leaves)]
    return TransactionGraph.build(edges, "c", tier="plain")


def _complete(n):
    names = [f"v{i}" for i in range(n)]
    edges = [
        (names[i], names[j], 1) for i in range(n) for j in range(i + 1, n)
    ]
    return TransactionGraph.build(edges, names[0], tier="plain")


# Frozen by direct evaluation of all ten definitions on K_{1,4}: betweenness
# is 1.0 at the center and 0 at leaves (mean 0.2); closeness is 1 at the
# center and 4/7 per leaf (mean 23/35).
K14_EXPECTED = np.array([5, 4, 1.6, 0.8, 0.4, 3.4, 0.0, 2.0, 0.2, 23 / 35])

# Direct evaluation on a single edge: both endpoints are leaves at distance 1.
K2_EXPECTED = np.array([2, 1, 1, 1, 1, 1, 0, 1, 0, 1])


def test_star_k14_features():
    np.testing.assert_allclose(handcrafted_features(_star(4)), K14_EXPECTED, atol=1e-9)


def test_single_edge_features():
    np.testing.assert_allclose(handcrafted_features(_star(1)), K2_EXPECTED, atol=1e-9)


def test_counts_match_stored_graph_counts():
    rnd = random.Random(3)
    for _ in range(50):
        g = random_undirected_graph(rnd)
        values = handcrafted_features(g)
        assert values[0] == g.node_count
        assert values[1] == g.edge_count


def test_eigenvalue_on_stars_and_completes():
    for n in (2, 3, 5, 9, 16):
        star = handcrafted_features(_star(n))[7]
        assert star == pytest.approx(math.sqrt(n), abs=1e-6)
    for n in (2, 3, 5, 8):
        complete = handcrafted_features(_complete(n))[7]
        assert complete == pytest.approx(n - 1, abs=1e-6)


def test_eigenvalue_handles_bipartite_paths():
    # 3-node path: spectrum is {sqrt(2), 0, -sqrt(2)} — the hard case for a
    # plain unshifted iteration.
    path = TransactionGraph.build([("a", "b", 1), ("b", "c", 1)], "b", tier="plain")
    assert handcrafted_features(path)[7] == pytest.approx(math.sqrt(2), abs=1e-6)


def test_eigenvalue_of_edgeless_graphs_is_positive_zero():
    for n in (0, 1, 4):
        value = largest_eigenvalue(np.zeros((n, n)))
        assert value == 0.0 and math.copysign(1.0, value) == 1.0
    lone = TransactionGraph.build([], "a", tier="plain")
    assert format(handcrafted_features(lone)[7], ".12g") == "0"
    # in a stack, too: one edgeless graph next to a single edge
    stack = np.zeros((2, 3, 3))
    stack[1, 0, 1] = stack[1, 1, 0] = 1.0
    edgeless, edge = largest_eigenvalue(stack)
    assert edgeless == 0.0 and math.copysign(1.0, edgeless) == 1.0
    assert edge == pytest.approx(1.0, abs=1e-12)


def test_centralities_match_exhaustive_oracle():
    rnd = random.Random(21)
    for _ in range(150):
        g = random_undirected_graph(rnd)
        a, adj = simple_adjacency([g])[0], oracle_adjacency(g)
        betweenness, closeness = _path_centralities(a)
        np.testing.assert_allclose(betweenness, betweenness_oracle(adj), atol=1e-9)
        np.testing.assert_allclose(closeness, closeness_oracle(adj), atol=1e-9)


def _path(n):
    names = [f"v{i:02d}" for i in range(n)]
    edges = [(names[i], names[i + 1], 1) for i in range(n - 1)]
    return TransactionGraph.build(edges, names[0], tier="plain")


def test_centralities_match_oracle_across_source_blocks(monkeypatch):
    # 64 cells: graphs of 3 to 5 nodes share stacks (seven of 3 nodes, four
    # of 4, two of 5); graphs of more than 8 run alone in blocks of 64 // n
    # sources
    monkeypatch.setattr(features, "CELL_CAP", 64)
    rnd = random.Random(59)
    graphs = []
    for i in range(120):
        if i % 2:
            graphs.append(random_undirected_graph(rnd, max_nodes=12))
        else:
            g = build_multiple_tsgn(random_multigraph(rnd, max_nodes=5))
            if g.node_count:
                graphs.append(g)
    # a diameter of 59: its 60 one-source blocks each run up to 59 BFS levels
    graphs.append(_path(60))
    isolated = disconnected = shared = blocked = 0
    for positions, a in features._stacks(graphs):
        n = a.shape[-1]
        shared += len(positions) if len(positions) > 1 else 0
        blocked += n * n > features.CELL_CAP
        betweenness, closeness = _path_centralities(a)
        for i, bc, cl in zip(positions, betweenness, closeness):
            adj = oracle_adjacency(graphs[i])
            isolated += not all(adj)
            disconnected += len(bfs_distances(adj, 0)) < len(adj)
            np.testing.assert_allclose(bc, betweenness_oracle(adj), atol=1e-9)
            np.testing.assert_allclose(cl, closeness_oracle(adj), atol=1e-9)
    assert isolated > 10 and disconnected > 20
    assert shared > 20 and blocked > 20


def test_all_features_match_oracle_on_random_graphs():
    rnd = random.Random(31)
    for _ in range(120):
        g = random_undirected_graph(rnd)
        values, expected = handcrafted_features(g), feature_oracle(g)
        np.testing.assert_allclose(values, expected, atol=1e-6)
        # the eigenvalue is exact, not an iteration's estimate
        assert abs(values[7] - expected[7]) <= 1e-12


def test_features_work_on_mapped_graphs():
    rnd = random.Random(37)
    for _ in range(40):
        g = random_multigraph(rnd)
        if g.edge_count == 0:
            continue
        t = build_multiple_tsgn(g)
        np.testing.assert_allclose(
            handcrafted_features(t), feature_oracle(t), atol=1e-6
        )


def test_permutation_invariance():
    rnd = random.Random(41)
    for _ in range(30):
        g = random_undirected_graph(rnd)
        names = list(g.nodes)
        shuffled = names[:]
        rnd.shuffle(shuffled)
        relabel = dict(zip(names, shuffled))
        permuted = TransactionGraph.build(
            [(relabel[r.src], relabel[r.dst], r.amount) for r in rows_of(g)],
            relabel[g.center],
            tier="plain",
        )
        np.testing.assert_allclose(
            handcrafted_features(g), handcrafted_features(permuted), atol=1e-6
        )


def test_multiedge_input_is_collapsed_for_features():
    g = TransactionGraph.build(
        [("a", "b", 1, 1), ("a", "b", 2, 5), ("b", "a", 3, 7)],
        "a",
        tier="multiedge",
    )
    values = handcrafted_features(g)
    assert values[1] == 1  # one simple edge
    np.testing.assert_allclose(values, K2_EXPECTED, atol=1e-9)


def test_empty_graph_raises():
    with pytest.raises(ValueError, match="empty"):
        handcrafted_features(TsgnGraph("tsgn", 0, (), ()))


def test_oracle_adjacency_agrees_with_simple_adjacency():
    rnd = random.Random(43)
    for _ in range(50):
        g = random_multigraph(rnd)
        a = simple_adjacency([g])[0]
        assert a.dtype == np.float64
        np.testing.assert_array_equal(a, a.T)
        assert set(np.unique(a).tolist()) <= {0.0, 1.0}
        assert not a.diagonal().any()
        assert [set(np.flatnonzero(row).tolist()) for row in a] == oracle_adjacency(g)


# ----------------------------------------------------------------------- PCA

def test_pca_full_rank_preserves_gram_matrix():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(20, 20))
    projected = PCA(20).fit(x).transform(x)
    centered = x - x.mean(axis=0)
    np.testing.assert_allclose(
        projected @ projected.T, centered @ centered.T, atol=1e-8
    )


@pytest.mark.parametrize("shape", [(630, 20), (40, 10), (12, 20), (25, 3)])
def test_pca_components_match_svd_of_centered_rows(shape):
    rng = np.random.default_rng(shape[0])
    # distinct column scales keep the singular values apart
    x = rng.normal(size=shape) * np.geomspace(1.0, 20.0, shape[1])
    n_components = min(10, shape[1])
    expected = svd_pca_components(x, n_components)
    np.testing.assert_allclose(PCA(n_components).fit(x).components_, expected, rtol=0, atol=1e-9)


def test_pca_duplicated_block_reconstructs_exactly():
    rng = np.random.default_rng(1)
    base = rng.normal(size=(30, 10))
    labels = tuple("x" * 30)
    tn = FeatureMatrix(base, labels, tuple(f"tn:{n}" for n in FEATURE_NAMES))
    dup = FeatureMatrix(base, labels, tuple(f"dup:{n}" for n in FEATURE_NAMES))
    fused = concat_features(tn, dup)
    pca = PCA(10).fit(fused.values)
    projected = pca.transform(fused.values)
    reconstructed = projected @ pca.components_ + pca.mean_
    np.testing.assert_allclose(reconstructed, fused.values, atol=1e-8)


def test_pca_one_dim_keeps_separated_clusters_separable():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(25, 6)) * 0.05
    b = rng.normal(size=(25, 6)) * 0.05 + 10.0
    x = np.vstack([a, b])
    z = PCA(1).fit(x).transform(x).ravel()
    lo, hi = (z[:25], z[25:]) if z[:25].mean() < z[25:].mean() else (z[25:], z[:25])
    assert lo.max() < hi.min()


def test_pca_validates_dimensions():
    x = np.zeros((5, 3))
    with pytest.raises(ValueError, match="out of range"):
        PCA(4).fit(x)
    with pytest.raises(ValueError, match="exceeds"):
        PCA(3).fit(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="before fit"):
        PCA(1).transform(x)


def test_pca_is_deterministic():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(15, 8))
    a = PCA(4).fit(x)
    b = PCA(4).fit(x)
    np.testing.assert_array_equal(a.components_, b.components_)


# -------------------------------------------------------------- FeatureMatrix

def test_feature_matrix_validation():
    with pytest.raises(ValueError, match="labels"):
        FeatureMatrix(np.zeros((2, 3)), ("a",), ("c1", "c2", "c3"))
    with pytest.raises(ValueError, match="column names"):
        FeatureMatrix(np.zeros((2, 3)), ("a", "b"), ("c1",))
    with pytest.raises(ValueError, match="non-finite"):
        FeatureMatrix(np.array([[np.nan]]), ("a",), ("c1",))


def test_concat_features_checks_alignment():
    a = FeatureMatrix(np.zeros((2, 1)), ("x", "y"), ("c1",))
    b = FeatureMatrix(np.zeros((2, 1)), ("x", "z"), ("c2",))
    with pytest.raises(ValueError, match="label sequences differ"):
        concat_features(a, b)
    c = FeatureMatrix(np.zeros((3, 1)), ("x", "y", "z"), ("c2",))
    with pytest.raises(ValueError, match="row count mismatch"):
        concat_features(a, c)


def test_feature_matrix_csv_roundtrip(tmp_path):
    g1 = _star(3)
    g2 = _complete(4)
    fm = feature_matrix([g1, g2], ["phishing", "benign"])
    out = tmp_path / "features.csv"
    fm.to_csv(out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == ",".join(fm.columns) + ",label"
    assert len(lines) == 3
    assert lines[1].endswith(",phishing")
    first = [float(v) for v in lines[1].split(",")[:-1]]
    np.testing.assert_allclose(first, fm.values[0], rtol=1e-10)


def test_written_feature_matrix_loads_back_bit_for_bit(tmp_path):
    # evaluate trains on fm.values and writes features_*.csv; the two must agree
    rnd = random.Random(53)
    graphs = [random_undirected_graph(rnd) for _ in range(40)]
    fm = feature_matrix(graphs, ["a", "b"] * 20)
    out = tmp_path / "features.csv"
    fm.to_csv(out)
    rows = out.read_text().splitlines()[1:]
    loaded = np.array([[float(v) for v in row.split(",")[:-1]] for row in rows])
    np.testing.assert_array_equal(loaded, fm.values)


_LABELS = st.text(alphabet='ab,"\n\r% é', max_size=4)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 3).flatmap(lambda width: st.tuples(
        st.just(width),
        st.lists(st.tuples(
            st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=width,
                     max_size=width),
            _LABELS,
        ), max_size=5),
    )),
    st.lists(_LABELS, min_size=3, max_size=3),
)
def test_feature_csv_equals_write_csv_of_each_formatted_value(shape, names):
    # to_csv formats every value in one %-format; the bytes must be those of
    # write_csv over the values formatted one at a time
    width, rows = shape
    values = np.array([v for v, _ in rows], dtype=float).reshape(len(rows), width)
    fm = FeatureMatrix(values, [label for _, label in rows], tuple(names[:width]))
    with tempfile.TemporaryDirectory() as tmp:
        fm.to_csv(f"{tmp}/fast.csv")
        write_csv(
            f"{tmp}/slow.csv", (*fm.columns, "label"),
            ([*(format(v, features.VALUE_FORMAT) for v in row), label]
             for row, label in zip(fm.values, fm.labels)),
        )
        assert Path(f"{tmp}/fast.csv").read_bytes() == Path(f"{tmp}/slow.csv").read_bytes()


def _mixed_graphs(rnd, count):
    """Transaction graphs and mapped graphs of every variant, 1-node and
    edgeless ones among them, in shuffled order."""
    graphs = [TransactionGraph.build([], "lone", tier="plain")]
    while len(graphs) < count:
        kind = rnd.randrange(3)
        if kind == 0:
            graphs.append(random_undirected_graph(rnd, max_nodes=10))
        elif kind == 1:
            graphs.append(random_digraph(rnd, max_nodes=10, temporal=True))
        else:
            variant = rnd.choice(VARIANTS)
            if variant == "mtsgn":
                source = random_multigraph(rnd, max_nodes=6)
            else:
                source = random_digraph(rnd, max_nodes=6, temporal=True)
            mapped = BUILDERS[variant](source)
            if mapped.node_count:
                graphs.append(mapped)
    rnd.shuffle(graphs)
    return graphs


def _rounded(values):
    return np.array([float(format(v, features.VALUE_FORMAT)) for v in values])


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.sampled_from([None, 1, 30, 100]))
def test_feature_matrix_rows_equal_per_graph_features(seed, count, cap):
    graphs = _mixed_graphs(random.Random(seed), count)
    with pytest.MonkeyPatch.context() as mp:
        if cap is not None:
            mp.setattr(features, "CELL_CAP", cap)
        fm = feature_matrix(graphs, ["x"] * len(graphs))
        for row, g in zip(fm.values, graphs):
            np.testing.assert_array_equal(row, _rounded(handcrafted_features(g)))
            np.testing.assert_allclose(row, feature_oracle(g), rtol=0, atol=1e-9)


@pytest.mark.parametrize("cap", [None, 30])
def test_permuting_the_graphs_permutes_the_rows(monkeypatch, cap):
    if cap is not None:
        monkeypatch.setattr(features, "CELL_CAP", cap)
    rnd = random.Random(47)
    graphs = _mixed_graphs(rnd, 60)
    order = list(range(len(graphs)))
    rnd.shuffle(order)
    labels = [f"g{i}" for i in range(len(graphs))]
    fm = feature_matrix(graphs, labels)
    permuted = feature_matrix([graphs[i] for i in order], [labels[i] for i in order])
    np.testing.assert_array_equal(permuted.values, fm.values[order])
    assert permuted.labels == tuple(labels[i] for i in order)


def test_feature_matrix_names_every_empty_graph():
    empty = TsgnGraph("tsgn", 0, (), ())
    with pytest.raises(ValueError, match=r"empty graphs at positions \[1, 3\]"):
        feature_matrix([_star(2), empty, _star(3), empty], ["a"] * 4)
