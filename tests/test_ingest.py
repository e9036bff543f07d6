import logging
import random
import re
import tempfile
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsgn import (
    DatasetManifest,
    dataset_stats,
    extract_ego_network,
    generate_synthetic_dataset,
    load_dataset,
    load_edge_list,
    save_dataset,
    TransactionGraph,
)
from tsgn.ingest import stats_table

from oracles import generate_dense_star_graphs, rows_of, validate


def _write(tmp_path, text, name="records.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


# -------------------------------------------------------------------- loaders

def test_load_wellformed_csv(tmp_path):
    path = _write(
        tmp_path,
        "src,dst,amount,timestamp\n"
        "0xA,0xB,1.5,10\n"
        "0xB,0xC,0,11\n"
        "0xC,0xA,2.25,12\n",
    )
    records = rows_of(load_edge_list(path))
    assert len(records) == 3
    assert records[0].src == "0xa"  # lowercased
    assert records[0].amount == Decimal("1.5")
    assert records[1].amount == Decimal("0")
    assert [r.edge_id for r in records] == [0, 1, 2]


def test_load_rejects_negative_amount_with_line_number(tmp_path):
    path = _write(
        tmp_path,
        "src,dst,amount,timestamp\na,b,1,1\nb,c,-1,2\n",
    )
    with pytest.raises(ValueError, match="line 3: negative amount"):
        load_edge_list(path)


@pytest.mark.parametrize(
    "amount, reason",
    [
        ("NaN", "non-finite amount 'NaN'"),
        ("sNaN", "non-finite amount 'sNaN'"),
        ("Infinity", "non-finite amount 'Infinity'"),
        ("-Infinity", "non-finite amount '-Infinity'"),
        ("1e400", "amount 1e400 above"),
        ("1.7976931348623157e308", "amount 1.7976931348623157e308 above"),
        ("5e-324", "nonzero amount 5e-324 below"),
        ("1e-400", "nonzero amount 1e-400 below"),
    ],
)
def test_load_rejects_amounts_whose_mean_has_no_log(tmp_path, amount, reason):
    path = _write(tmp_path, f"src,dst,amount,timestamp\na,b,1,1\nb,c,{amount},2\n")
    with pytest.raises(ValueError, match=f"line 3: {reason}"):
        load_edge_list(path)


@pytest.mark.parametrize(
    "amount", ["0", "-0", "2.2250738585072014e-308", "8.988465674311579e307", "1e-300"]
)
def test_load_accepts_amounts_at_the_bounds(tmp_path, amount):
    path = _write(tmp_path, f"src,dst,amount,timestamp\na,b,{amount},1\n")
    assert rows_of(load_edge_list(path))[0].amount == Decimal(amount)


@pytest.mark.parametrize(
    "stamp, accepted",
    [(str(2**63 - 1), True), (str(-(2**63)), True), (str(2**63), False), (str(-(2**63) - 1), False)],
)
def test_load_keeps_timestamps_to_int64(tmp_path, stamp, accepted):
    path = _write(tmp_path, f"src,dst,amount,timestamp\na,b,1,1\nb,c,1,{stamp}\n")
    if accepted:
        assert rows_of(load_edge_list(path))[1].timestamp == int(stamp)
    else:
        with pytest.raises(ValueError, match=f"line 3: timestamp {stamp} outside int64$"):
            load_edge_list(path)


def test_load_drops_self_loops_with_warning(tmp_path, caplog):
    path = _write(
        tmp_path,
        "src,dst,amount,timestamp\na,a,1,1\na,b,2,2\n",
    )
    with caplog.at_level(logging.WARNING, logger="tsgn.ingest"):
        records = rows_of(load_edge_list(path))
    assert len(records) == 1
    assert "dropped 1 self-loop" in caplog.text


def test_load_reports_every_malformed_line(tmp_path):
    path = _write(
        tmp_path,
        "src,dst,amount,timestamp\na,b,xyz,1\n,b,1,2\na,b,1,notatime\n",
    )
    with pytest.raises(ValueError) as err:
        load_edge_list(path)
    message = str(err.value)
    assert "line 2" in message and "line 3" in message and "line 4" in message


def test_load_requires_mandatory_columns(tmp_path):
    path = _write(tmp_path, "src,amount\na,1\n")
    with pytest.raises(ValueError, match="missing mandatory column"):
        load_edge_list(path)
    with pytest.raises(ValueError, match="empty file"):
        load_edge_list(_write(tmp_path, "", name="empty.csv"))


def test_load_without_timestamp_column(tmp_path):
    path = _write(tmp_path, "src,dst,amount\na,b,3\n")
    records = rows_of(load_edge_list(path))
    assert records[0].timestamp is None
    assert records[0].amount == Decimal(3)


def test_load_keeps_amounts_bit_exact(tmp_path):
    path = _write(tmp_path, "src,dst,amount,timestamp\na,b,0.1,\n")
    records = rows_of(load_edge_list(path))
    assert str(records[0].amount) == "0.1"
    assert records[0].timestamp is None


@pytest.mark.parametrize(
    "text, line",
    [
        # blank lines 2, 4 and 5 are skipped but still counted
        ("src,dst,amount,timestamp\n\na,b,1,1\n\n\nb,c,-1,2\n", 6),
        # the quoted address spans lines 2 and 3
        ('src,dst,amount,timestamp\n"a\nb",c,1,1\nb,c,-1,2\n', 4),
    ],
    ids=["blank-lines", "multiline-field"],
)
def test_load_numbers_rows_by_file_line(tmp_path, text, line):
    with pytest.raises(ValueError, match=f"line {line}: negative amount -1$"):
        load_edge_list(_write(tmp_path, text))


def test_load_reports_rows_shorter_than_the_header(tmp_path):
    path = _write(tmp_path, "src,dst,amount,timestamp\na,b\nb,c,1,1\nc,d,2\n")
    with pytest.raises(ValueError) as err:
        load_edge_list(path)
    message = str(err.value)
    assert "line 2: 2 field(s) for 4 columns" in message
    assert "line 4: 3 field(s) for 4 columns" in message
    assert "line 3" not in message


# ------------------------------------------------------------- ego extraction

TRIANGLE = [
    ("a", "b", 1, 1),
    ("a", "c", 2, 2),
    ("b", "c", 3, 3),
]


def _file(records):
    """Records as load_edge_list returns a file's: one multiedge graph, no center."""
    return TransactionGraph.build(records, None, tier="multiedge")


def test_star_extraction_keeps_incident_edges_only():
    g = extract_ego_network(_file(TRIANGLE), "a", form="star", tier="directed")
    assert g.edge_count == 2
    assert {(r.src, r.dst) for r in rows_of(g)} == {("a", "b"), ("a", "c")}


def test_net_extraction_adds_neighbor_edges():
    g = extract_ego_network(_file(TRIANGLE), "a", form="net", tier="directed")
    assert g.edge_count == 3


def test_multiedge_tier_keeps_parallel_records():
    records = [
        ("a", "b", 1, 1),
        ("a", "b", 2, 5),
    ]
    g = extract_ego_network(_file(records), "a", form="net", tier="multiedge")
    assert g.edge_count == 2
    assert g.tier == "multiedge" and g.temporal


def test_extract_errors_on_absent_target():
    with pytest.raises(ValueError, match="does not appear"):
        extract_ego_network(_file(TRIANGLE), "zz", form="star", tier="plain")
    with pytest.raises(ValueError, match="unknown form"):
        extract_ego_network(_file(TRIANGLE), "a", form="ring", tier="plain")


def test_ego_cut_keeps_the_tier_of_its_records():
    undirected = TransactionGraph.build([("a", "b", 1), ("b", "c", 2)], None, tier="plain")
    with pytest.raises(ValueError, match="needs directed data"):
        extract_ego_network(undirected, "a", "net", "directed")
    assert extract_ego_network(undirected, "a", "net", "plain").tier == "plain"


def test_star_edges_subset_of_net_edges():
    rnd = random.Random(3)
    names = [f"v{i}" for i in range(10)]
    records = [(rnd.choice(names), rnd.choice(names), rnd.randint(0, 5), t) for t in range(60)]
    records = [r for r in records if r[0] != r[1]]
    for tier in ("plain", "directed", "multiedge"):
        star = extract_ego_network(_file(records), "v0", form="star", tier=tier)
        net = extract_ego_network(_file(records), "v0", form="net", tier=tier)
        star_pairs = {(r.src, r.dst) for r in rows_of(star)}
        net_pairs = {(r.src, r.dst) for r in rows_of(net)}
        assert star_pairs <= net_pairs
        # every node is the target or one of its 1-hop neighbors
        neighbors = {r.src for r in rows_of(star)} | {r.dst for r in rows_of(star)}
        assert set(net.nodes) <= neighbors | {"v0"}


# ---------------------------------------------------------- synthetic datasets

def test_generator_is_deterministic():
    a = generate_synthetic_dataset("etherg1", n_per_class=20, seed=99)
    b = generate_synthetic_dataset("etherg1", n_per_class=20, seed=99)
    assert a == b
    c = generate_synthetic_dataset("etherg1", n_per_class=20, seed=100)
    assert a != c


def test_generator_counts_and_labels():
    manifest = generate_synthetic_dataset("etherg1", n_per_class=30, seed=1)
    assert manifest.n_graphs == 60
    assert sorted(set(manifest.labels)) == ["benign", "phishing"]
    assert sum(1 for g in manifest.graphs if g.label == "phishing") == 30

    tiny = generate_synthetic_dataset("etherg1", n_per_class=1, seed=1)
    assert tiny.n_graphs == 2
    assert sorted(set(tiny.labels)) == ["benign", "phishing"]


def test_generator_profile_shapes_sizes():
    manifest = generate_synthetic_dataset("etherg1", n_per_class=150, seed=2)
    stats = dataset_stats(manifest)
    assert abs(float(stats.mean_nodes) - 7) <= 1.5
    assert stats.max_nodes <= 13
    with pytest.raises(ValueError, match="unknown profile"):
        generate_synthetic_dataset("etherg9", n_per_class=1, seed=0)
    with pytest.raises(ValueError, match="n_per_class"):
        generate_synthetic_dataset("etherg1", n_per_class=0, seed=0)


def test_generated_graphs_are_wellformed_and_exercise_all_attributes():
    manifest = generate_synthetic_dataset("etherg1", n_per_class=60, seed=3)
    saw_parallel = False
    for g in manifest.graphs:
        assert validate(g) == []
        assert g.tier == "multiedge" and g.temporal
        stamps = [r.timestamp for r in rows_of(g)]
        assert stamps == sorted(stamps) and len(set(stamps)) == len(stamps)
        if len({(r.src, r.dst) for r in rows_of(g)}) < g.edge_count:
            saw_parallel = True
    assert saw_parallel  # parallel records occur, so every variant is exercised


def test_dense_star_generator_shapes():
    graphs = generate_dense_star_graphs(n_graphs=2, n_nodes=60, seed=4)
    assert len(graphs) == 2
    for g in graphs:
        assert g.node_count == 60
        assert g.edge_count == 59
        assert g.tier == "directed" and g.temporal
        inbound = sum(1 for r in rows_of(g) if r.dst == g.center)
        assert 25 <= inbound <= 35  # roughly half in, half out


# ------------------------------------------------------------------ statistics

def test_dataset_stats_means_and_maxima():
    g1 = extract_ego_network(_file(TRIANGLE), "a", form="star", tier="directed")
    wider = _file(TRIANGLE + [("a", "d", 1, 4), ("a", "e", 1, 5)])
    g2 = extract_ego_network(wider, "a", form="net", tier="directed")
    manifest = DatasetManifest(
        (g1.with_label("x"), g2.with_label("y"))
    )
    stats = dataset_stats(manifest)
    assert stats.mean_nodes == Fraction(3 + 5, 2)
    assert stats.max_nodes == 5
    assert stats.max_edges >= stats.mean_edges
    assert stats.n_largest_class == 1

    with pytest.raises(ValueError, match="empty manifest"):
        dataset_stats(DatasetManifest(()))


def test_manifest_names_every_unlabeled_graph():
    g = TransactionGraph.build([("a", "b", 1)], "a")
    with pytest.raises(ValueError, match=r"must be labeled: x, z$"):
        DatasetManifest((g, g.with_label("phishing"), g), ("x", "y", "z"))
    with pytest.raises(ValueError, match=r"must be labeled: graph_0001$"):
        DatasetManifest((g.with_label("phishing"), g))


def test_stats_table_layout():
    per_tier = {
        tier: dataset_stats(generate_synthetic_dataset("etherg1", 10, 5, tier=tier))
        for tier in ("plain", "directed", "multiedge")
    }
    table = stats_table("etherg1-synth", "net", per_tier)
    head, row = table.splitlines()
    assert "#C_max" in head and "#E(multiedge)" in head
    assert row.split()[2] == "20"  # N_G sits in the third column


# ------------------------------------------------------------------ dataset IO

def test_save_load_roundtrip(tmp_path):
    manifest = generate_synthetic_dataset("etherg1", n_per_class=8, seed=6)
    out = save_dataset(manifest, tmp_path / "ds")
    loaded = load_dataset(out, tier="multiedge", form="net")
    assert loaded.n_graphs == manifest.n_graphs
    for original, reloaded in zip(manifest.graphs, loaded.graphs):
        assert reloaded.label == original.label
        assert reloaded.center == original.center
        assert reloaded.nodes == original.nodes
        assert [
            (r.src, r.dst, r.amount, r.timestamp) for r in rows_of(reloaded)
        ] == [(r.src, r.dst, r.amount, r.timestamp) for r in rows_of(original)]


def test_untimed_records_save_with_empty_timestamps_and_load_back_untimed(tmp_path):
    g = TransactionGraph.build(
        [("a", "b", 1, 5), ("b", "a", "2.50"), ("a", "c", 3, 7)], "a", tier="multiedge",
        label="phishing",
    )
    out = save_dataset(DatasetManifest((g,)), tmp_path / "ds")
    assert (out / "graph_0000.csv").read_text().splitlines() == [
        "src,dst,amount,timestamp", "a,b,1,5", "b,a,2.50,", "a,c,3,7",
    ]
    loaded = load_dataset(out, tier="multiedge", form="net").graphs[0]
    assert loaded == g
    assert loaded.timed.tolist() == [True, False, True] and not loaded.temporal


def test_saved_address_with_comma_is_quoted_and_loads_back(tmp_path):
    path = _write(tmp_path, 'src,dst,amount,timestamp\n"a,b",c,1.5,1\n')
    g = extract_ego_network(load_edge_list(path), "c", tier="multiedge")
    manifest = DatasetManifest((g.with_label("phishing"),))
    out = save_dataset(manifest, tmp_path / "ds")
    assert (out / "graph_0000.csv").read_text().splitlines()[1] == '"a,b",c,1.5,1'
    assert load_dataset(out).graphs == manifest.graphs


# lowercase, no outer whitespace: the loaders lowercase and strip addresses
_ADDRESSES = st.text(alphabet='ab0x ,"\r\n', min_size=1, max_size=6).filter(
    lambda s: s == s.strip()
)
_AMOUNTS = st.decimals(min_value=0, max_value=10**9, allow_nan=False, allow_infinity=False)
_TIMESTAMPS = st.one_of(st.none(), st.integers(0, 2**40))


@st.composite
def _star_egonets(draw):
    center = draw(_ADDRESSES)
    leaf = _ADDRESSES.filter(lambda a: a != center)
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        other, inbound = draw(leaf), draw(st.booleans())
        src, dst = (other, center) if inbound else (center, other)
        rows.append((src, dst, draw(_AMOUNTS), draw(_TIMESTAMPS)))
    return TransactionGraph.build(
        rows,
        center,
        tier="multiedge",
        label=draw(st.sampled_from(["phishing", "benign"])),
    )


@settings(max_examples=150, deadline=None)
@given(st.lists(_star_egonets(), min_size=1, max_size=4))
def test_load_of_save_gives_back_the_records(graphs):
    manifest = DatasetManifest(tuple(graphs))
    with tempfile.TemporaryDirectory() as tmp:
        loaded = load_dataset(save_dataset(manifest, tmp), tier="multiedge", form="net")
    assert loaded.graphs == manifest.graphs
    # Decimal equality ignores trailing zeros; the text must survive too
    amounts = lambda m: [str(r.amount) for g in m.graphs for r in rows_of(g)]
    assert amounts(loaded) == amounts(manifest)


# bare file names: no path separator, not "." or "..", no NUL, and not the
# "labels" of labels.csv
_GRAPH_IDS = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="/\x00"),
    min_size=1,
    max_size=8,
).filter(lambda s: s not in (".", "..", "labels"))


@settings(max_examples=100, deadline=None)
@given(st.lists(_star_egonets(), min_size=1, max_size=4), st.data())
def test_load_of_save_keeps_the_graph_ids(graphs, data):
    ids = data.draw(st.lists(_GRAPH_IDS, min_size=len(graphs), max_size=len(graphs), unique=True))
    manifest = DatasetManifest(tuple(graphs), tuple(ids))
    with tempfile.TemporaryDirectory() as tmp:
        loaded = load_dataset(save_dataset(manifest, tmp), tier="multiedge", form="net")
    # load_dataset sorts by id, so compare id -> graph
    assert dict(zip(loaded.graph_ids, loaded.graphs)) == dict(zip(ids, graphs))


def test_save_refuses_ids_that_are_not_file_names_before_writing(tmp_path):
    g = generate_synthetic_dataset("etherg1", n_per_class=1, seed=9).graphs
    for ids in (("../x", "y"), ("x", "x"), ("labels", "y"), ("", "y")):
        manifest = DatasetManifest(g, ids)
        with pytest.raises(ValueError, match="unique file names"):
            save_dataset(manifest, tmp_path / "ds")
        assert not (tmp_path / "ds").exists()
    assert list(tmp_path.iterdir()) == []


def test_save_refuses_graphs_that_would_not_load_back_before_writing(tmp_path):
    def graph(rows, center="a", tier="multiedge"):
        return TransactionGraph.build(rows, center, tier=tier, label="phishing")

    # graph id -> the graph and what the refusal says
    bad = {
        "upper": (graph([("A", "b", 1)], "A"), "addresses 'A' do not load back"),
        "spaced": (graph([(" a", "b", 1)]), "addresses ' a' do not load back"),
        "loop": (graph([("a", "b", 1), ("a", "a", 2)]), "loads back with 1 of 2 records"),
        "negative": (graph([("a", "b", "-1.5")]), "negative amount -1.5"),
        "huge": (graph([("a", "b", "1e400")]), "amount 1E+400 above"),
        "tiny": (graph([("a", "b", "1e-400")]), "nonzero amount 1E-400 below"),
        "centerless": (graph([("a", "b", 1)], None), "no center"),
        "absent": (graph([("a", "b", 1)], "z"), "target 'z' does not appear"),
        "chain": (
            graph([("a", "b", 1), ("b", "c", 2), ("c", "d", 3)], tier="directed"),
            "loads back with 1 of 3 records and 2 of 4 addresses",
        ),
        "parallel": (
            graph([("a", "b", 1), ("a", "b", 2)]).replace(tier="directed"),
            "loads back with 1 of 2 records and 2 of 2 addresses",
        ),
    }
    good = graph([("a", "b", 1), ("b", "a", 2)])
    for graph_id, (g, reason) in bad.items():
        expected = re.escape(f"would not load back: {graph_id}: {reason}")
        with pytest.raises(ValueError, match=expected):
            save_dataset(DatasetManifest((good, g), ("good", graph_id)), tmp_path / "ds")
        assert not (tmp_path / "ds").exists()
    manifest = DatasetManifest((good, *(g for g, _ in bad.values())), ("good", *bad))
    with pytest.raises(ValueError, match=f"{len(bad)} graph\\(s\\)") as err:
        save_dataset(manifest, tmp_path / "ds")
    assert all(f"{graph_id}: " in str(err.value) for graph_id in bad)
    assert "good: " not in str(err.value)
    assert list(tmp_path.iterdir()) == []


def test_save_is_byte_identical_on_rerun(tmp_path):
    manifest = generate_synthetic_dataset("etherg1", n_per_class=5, seed=7)
    first = save_dataset(manifest, tmp_path / "a")
    second = save_dataset(manifest, tmp_path / "b")
    for f1 in sorted(first.iterdir()):
        assert (second / f1.name).read_bytes() == f1.read_bytes()


def test_load_dataset_names_a_bad_tier_or_form_once_before_reading(tmp_path):
    out = save_dataset(generate_synthetic_dataset("etherg1", n_per_class=5, seed=8), tmp_path)
    for kind, bad in (("tier", "bogus"), ("form", "ring")):
        for path in (out, tmp_path / "absent"):  # refused before labels.csv is read
            with pytest.raises(ValueError, match=f"^unknown {kind} '{bad}'") as err:
                load_dataset(path, **{kind: bad})
            assert str(err.value).count(bad) == 1


def test_load_dataset_rejects_non_dataset_dirs(tmp_path):
    with pytest.raises(ValueError, match="labels.csv missing"):
        load_dataset(tmp_path)
    (tmp_path / "labels.csv").write_text("graph_id,center_address,label\n")
    with pytest.raises(ValueError, match="lists no graphs"):
        load_dataset(tmp_path)


def test_load_dataset_at_lower_tiers(tmp_path):
    manifest = generate_synthetic_dataset("etherg1", n_per_class=5, seed=8)
    out = save_dataset(manifest, tmp_path / "ds")
    directed = load_dataset(out, tier="directed")
    plain = load_dataset(out, tier="plain")
    for g in directed.graphs:
        assert g.tier == "directed" and g.temporal
    for g in plain.graphs:
        assert g.tier == "plain" and not g.temporal


def test_load_dataset_rejects_ids_that_are_not_unique_file_names(tmp_path):
    (tmp_path / "g.csv").write_text("src,dst,amount,timestamp\na,b,1,1\n")
    (tmp_path / "labels.csv").write_text(
        "graph_id,center_address,label\n"
        "g,a,phishing\ng,b,benign\n../g,a,benign\n"
    )
    with pytest.raises(ValueError, match=r"unique file names: \.\./g, g$"):
        load_dataset(tmp_path)
    # an empty id would name the hidden file .csv
    (tmp_path / ".csv").write_text("src,dst,amount,timestamp\na,b,1,1\n")
    (tmp_path / "labels.csv").write_text(
        "graph_id,center_address,label\ng,a,phishing\n,a,benign\n"
    )
    with pytest.raises(ValueError, match='unique file names: ""$'):
        load_dataset(tmp_path)


def test_load_dataset_reads_files_with_a_byte_order_mark(tmp_path):
    files = {
        "g.csv": "src,dst,amount,timestamp\na,b,1.5,1\nb,c,2,2\n",
        "labels.csv": "graph_id,center_address,label\ng,b,phishing\n",
    }
    for name, marked in (("plain", b""), ("marked", b"\xef\xbb\xbf")):
        (tmp_path / name).mkdir()
        for file, text in files.items():
            (tmp_path / name / file).write_bytes(marked + text.encode("utf-8"))
    assert (tmp_path / "marked" / "g.csv").read_bytes()[:3] == b"\xef\xbb\xbf"
    plain = load_dataset(tmp_path / "plain")
    assert plain.graph_ids == ("g",) and plain.graphs[0].edge_count == 2
    assert load_dataset(tmp_path / "marked") == plain
