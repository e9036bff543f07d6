import ast
import builtins
import hashlib
import os
import random
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tsgn
from tsgn import DatasetManifest, TransactionGraph, save_dataset
from tsgn import cli, features, graphs, ingest, ml, transforms
from tsgn.graphs import TIERS
from tsgn.ingest import FORMS, dataset_stats, load_dataset, stats_table
from tsgn.transforms import VARIANTS
from tsgn.cli import main

from oracles import greedy_runs, star_with_neighbor_trades


def _dir_bytes(path: Path) -> dict:
    out = {}
    for f in sorted(path.rglob("*")):
        if f.is_file():
            out[str(f.relative_to(path))] = f.read_bytes()
    return out


def _star_dataset(tmp_path) -> Path:
    g = star_with_neighbor_trades().replace(tier="multiedge", label="phishing")
    # a second labeled graph so the directory is a valid two-class dataset
    other = TransactionGraph.build([("x", "y", 1, 1), ("y", "z", 2, 2)], "y").with_label("benign")
    manifest = DatasetManifest((g, other))
    return save_dataset(manifest, tmp_path / "stards")


def test_synth_then_stats(tmp_path, capsys):
    out = tmp_path / "ds"
    assert main(["synth", "--profile", "etherg1", "--per-class", "12",
                 "--seed", "3", "--out", str(out)]) == 0
    assert (out / "labels.csv").is_file()
    capsys.readouterr()
    assert main(["stats", "--dataset", str(out)]) == 0
    table = capsys.readouterr().out
    lines = table.strip().splitlines()
    assert "#E(multiedge)" in lines[0]
    assert lines[1].split()[2] == "24"  # N_G

    assert main(["stats", "--dataset", str(out), "--form", "star"]) == 0
    star_row = capsys.readouterr().out.strip().splitlines()[1].split()
    assert int(star_row[7]) <= int(lines[1].split()[7])  # star drops neighbor edges


def test_synth_is_byte_identical_on_rerun(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["synth", "--per-class", "6", "--seed", "5", "--out", str(out)]) == 0
    assert _dir_bytes(a) == _dir_bytes(b)


@pytest.mark.parametrize("form", ["net", "star"])
def test_stats_parses_each_record_file_once(tmp_path, capsys, monkeypatch, form):
    out = tmp_path / "ds"
    assert main(["synth", "--per-class", "6", "--seed", "13", "--out", str(out)]) == 0
    expected = stats_table(
        "ds",
        form,
        {t: dataset_stats(load_dataset(out, tier=t, form=form)) for t in TIERS},
    )
    capsys.readouterr()
    opened = []

    def counting(path, *args, **kwargs):
        opened.append(Path(path).name)
        return builtins.open(path, *args, **kwargs)

    monkeypatch.setattr(ingest, "open", counting, raising=False)
    assert main(["stats", "--dataset", str(out), "--form", form]) == 0
    assert capsys.readouterr().out == expected + "\n"
    assert sorted(opened) == sorted(["labels.csv", *(f.name for f in out.glob("graph_*.csv"))])


def test_stats_on_missing_dataset_fails(tmp_path, capsys):
    assert main(["stats", "--dataset", str(tmp_path / "nope")]) == 1
    assert "error:" in capsys.readouterr().err


def test_transform_star_fixture_yields_seven_nodes(tmp_path, capsys):
    ds = _star_dataset(tmp_path)
    out = tmp_path / "mapped"
    assert main(["transform", "--dataset", str(ds), "--variant", "tsgn",
                 "--tier", "plain", "--out", str(out)]) == 0
    summary = (out / "tsgn" / "summary.csv").read_text().splitlines()
    assert summary[0] == "graph_id,nodes,edges"
    assert summary[1] == "graph_0000,7,14"
    stdout = capsys.readouterr().out
    assert "tsgn: graphs=2" in stdout and "seconds=" in stdout


def test_transform_with_no_variants_is_a_noop(tmp_path):
    ds = _star_dataset(tmp_path)
    assert main(["transform", "--dataset", str(ds), "--out", str(tmp_path / "x")]) == 0
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("labels, problem", [
    (None, "labels.csv missing"),
    ("graph_id,label\ng,phishing\n", "missing column(s) center_address"),
    ("graph_id,center_address,label\nsummary,a,phishing\n", "graph id summary"),
], ids=["missing", "malformed", "summary"])
def test_transform_with_no_variants_checks_the_dataset(tmp_path, capsys, labels, problem):
    ds = tmp_path / "ds"
    ds.mkdir()
    (ds / "g.csv").write_text("src,dst,amount,timestamp\na,b,1,1\n")
    (ds / "summary.csv").write_text("src,dst,amount,timestamp\na,b,1,1\n")
    if labels is not None:
        (ds / "labels.csv").write_text(labels)
    assert main(["transform", "--dataset", str(ds), "--out", str(tmp_path / "x")]) == 1
    assert problem in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_transform_rejects_incompatible_variant(tmp_path, capsys):
    ds = _star_dataset(tmp_path)
    code = main(["transform", "--dataset", str(ds), "--variant", "ttsgn",
                 "--tier", "plain", "--out", str(tmp_path / "x")])
    assert code == 1
    assert "temporal attribute required" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()  # fails before writing anything


def test_transform_outputs_are_deterministic_across_threads(tmp_path):
    ds = tmp_path / "ds"
    assert main(["synth", "--per-class", "8", "--seed", "11", "--out", str(ds)]) == 0
    runs = []
    for name, threads in (("t1", "1"), ("t4", "4"), ("t1b", "1")):
        out = tmp_path / name
        assert main(["transform", "--dataset", str(ds), "--variant", "tsgn",
                     "--variant", "ttsgn", "--tier", "directed",
                     "--threads", threads, "--out", str(out)]) == 0
        runs.append(_dir_bytes(out))
    assert runs[0] == runs[1] == runs[2]


def _chunks(stdout: str) -> dict:
    """The ``chunks:`` lines of a transform's stdout, by family."""
    lines = re.findall(r"^chunks: family=(\w+) runs=(\d+) max_graphs=(\d+) max_pairs=(\d+) "
                       r"pairs=(\d+)((?: \w+=\d+)+)$", stdout, re.MULTILINE)
    return {
        family: (*map(int, counts), dict((k, int(v)) for k, v in re.findall(r"(\w+)=(\d+)", kept)))
        for family, *counts, kept in lines
    }


def test_transform_streams_one_mapped_graph_at_a_time(tmp_path, capsys, monkeypatch):
    """Each run of graphs is mapped, written and dropped before the next is
    mapped: with a budget of one pair every run holds one graph, so at most
    one mapped graph is alive, and at the default budget at most one run's."""
    ds = tmp_path / "ds"
    assert main(["synth", "--per-class", "6", "--seed", "7", "--out", str(ds)]) == 0
    mapped = []  # a weak reference to every mapped batch so far, with its graph count
    alive_at_call = []
    map_batch = transforms.map_batch

    def tracked(variant, b):
        alive_at_call.append(sum(n for ref, n in mapped if ref() is not None))
        t = map_batch(variant, b)
        mapped.append((weakref.ref(t), len(t.records) - 1))
        return t

    monkeypatch.setattr(transforms, "map_batch", tracked)
    for cap in (1, transforms.PAIR_CAP):
        monkeypatch.setattr(transforms, "PAIR_CAP", cap)
        mapped.clear()
        alive_at_call.clear()
        capsys.readouterr()
        out = tmp_path / f"out{cap}"
        assert main(["transform", "--dataset", str(ds), "--variant", "tsgn",
                     "--variant", "ttsgn", "--threads", "1", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        chunks = _chunks(stdout)
        assert list(chunks) == ["tsgn", "flow"]
        assert len(alive_at_call) == sum(runs for runs, *_ in chunks.values())
        largest_run = max(graphs for _, graphs, *_ in chunks.values())
        assert max(alive_at_call) <= largest_run
        if cap == 1:
            assert len(alive_at_call) == 24
            assert max(alive_at_call) <= 1
        printed = re.findall(r"^(\w+): graphs=(\d+) nodes=(\d+) edges=(\d+) seconds=",
                             stdout, re.MULTILINE)
        assert [p[0] for p in printed] == ["tsgn", "ttsgn"]
        written = re.findall(r" seconds=(\d+\.\d{3}) write_seconds=(\d+\.\d{3})$",
                             stdout, re.MULTILINE)
        assert len(written) == 2 and all(float(w) >= 0 for _, w in written)
        for variant, graphs, nodes, edges in printed:
            summary = (out / variant / "summary.csv").read_text().splitlines()[1:]
            rows = [r.split(",") for r in summary]
            assert (int(graphs), int(nodes), int(edges)) == (
                len(rows), sum(int(r[1]) for r in rows), sum(int(r[2]) for r in rows)
            )


def test_transform_prints_each_familys_runs_and_kept_pairs(tmp_path, capsys, monkeypatch):
    ds = tmp_path / "ds"
    assert main(["synth", "--profile", "etherg3", "--per-class", "3", "--seed", "5",
                 "--out", str(ds)]) == 0
    graphs = load_dataset(ds, tier="directed").graphs
    expected = {
        v: [transforms.BUILDERS[v](g).edge_count for g in graphs]
        for v in ("tsgn", "dtsgn", "ttsgn")
    }
    for cap in (transforms.PAIR_CAP, 40_000, 1):
        monkeypatch.setattr(transforms, "PAIR_CAP", cap)
        capsys.readouterr()
        assert main(["transform", "--dataset", str(ds), "--variant", "ttsgn", "--variant", "tsgn",
                     "--variant", "dtsgn", "--out", str(tmp_path / f"out{cap}")]) == 0
        chunks = _chunks(capsys.readouterr().out)
        assert list(chunks) == ["tsgn", "flow"]
        for family, members in (("tsgn", ("tsgn",)), ("flow", ("dtsgn", "ttsgn"))):
            runs, max_graphs, max_pairs, pairs, kept = chunks[family]
            counts = transforms.pair_counts(members[0], graphs).tolist()
            # consecutive runs of at most cap pairs each, or of one graph alone
            bounds = list(greedy_runs(counts, cap))
            assert runs == len(bounds) and max_graphs == max(b - a for a, b in bounds)
            assert max_pairs == max(sum(counts[a:b]) for a, b in bounds)
            assert all(b - a == 1 or sum(counts[a:b]) <= cap for a, b in bounds)
            assert pairs == sum(counts)
            assert kept == {v: sum(expected[v]) for v in members}
        # tsgn's pairs are counted exactly; ttsgn keeps a subset of dtsgn's candidates
        assert chunks["tsgn"][3] == sum(expected["tsgn"])
        assert 0 < sum(expected["ttsgn"]) < sum(expected["dtsgn"]) <= chunks["flow"][3]
        if cap == 1:
            assert chunks["tsgn"][0] == chunks["flow"][0] == len(graphs)


@st.composite
def _timed_datasets(draw):
    """One to five labeled ego-nets of timed records over at most six
    addresses around v0: parallel, anti-parallel and repeated records, zero
    amounts and tied timestamps."""
    amounts = st.sampled_from(["0", "0.5", "1", "2.25", "7", "1e-3"])
    graphs = []
    for i in range(draw(st.integers(1, 5))):
        k = draw(st.integers(2, 6))
        records = []  # v0 trades with every other address, so the cut keeps all
        for v in range(1, k):
            ends = ("v0", f"v{v}") if draw(st.booleans()) else (f"v{v}", "v0")
            records.append((*ends, draw(amounts), draw(st.integers(0, 5))))
        for _ in range(draw(st.integers(0, 12))):
            src = draw(st.integers(0, k - 1))
            dst = (src + draw(st.integers(1, k - 1))) % k
            records.append((f"v{src}", f"v{dst}", draw(amounts), draw(st.integers(0, 5))))
        label = ("phishing", "benign")[i % 2]
        graphs.append(TransactionGraph.build(records, "v0", tier="multiedge", label=label))
    return DatasetManifest(tuple(graphs))


@settings(max_examples=30, deadline=None)
@given(manifest=_timed_datasets(), budget=st.integers(2, 80))
def test_transform_writes_each_graph_as_its_builder_maps_it_at_any_budget(manifest, budget):
    """Whatever runs the pair budget makes, and whichever variants share a
    join, every file transform writes equals the per-graph builder's mapping
    through _write_mapped, byte for byte, and so does every graph
    map_graphs returns."""
    cases = (("directed", ("dtsgn", "ttsgn")), ("directed", ("ttsgn",)),
             ("multiedge", ("tsgn", "mtsgn")))
    default = transforms.PAIR_CAP
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        ds = save_dataset(manifest, root / "ds")
        for tier, variants in cases:
            loaded = load_dataset(ds, tier=tier)
            expected = root / f"expected-{tier}-{'-'.join(variants)}"
            built = {}
            for variant in variants:
                (expected / variant).mkdir(parents=True)
                summary = []
                built[variant] = [transforms.BUILDERS[variant](g) for g in loaded.graphs]
                for graph_id, t in zip(loaded.graph_ids, built[variant]):
                    cli._write_mapped(expected / variant / f"{graph_id}.csv", t)
                    summary.append((graph_id, t.node_count, t.edge_count))
                ingest.write_csv(expected / variant / "summary.csv",
                                 ("graph_id", "nodes", "edges"), summary)
            for cap in (1, default, 2**62, budget):
                out = root / f"{tier}-{'-'.join(variants)}-{cap}"
                args = ["transform", "--dataset", str(ds), "--tier", tier, "--out", str(out)]
                for variant in variants:
                    args += ["--variant", variant]
                transforms.PAIR_CAP = cap
                try:
                    assert main(args) == 0
                    mapped = {v: transforms.map_graphs(v, loaded.graphs) for v in variants}
                finally:
                    transforms.PAIR_CAP = default
                assert _dir_bytes(out) == _dir_bytes(expected)
                for variant in variants:
                    assert [_mapped_bytes(t) for t in mapped[variant]] == [
                        _mapped_bytes(t) for t in built[variant]
                    ]


def _mapped_bytes(t: transforms.TsgnGraph) -> tuple:
    return t.variant, t.node_count, t.edges.tobytes(), t.weights.tobytes()


def test_transform_memory_does_not_grow_with_the_dataset(tmp_path, monkeypatch):
    """The traced peak of a transform is one run's: on a dataset that holds
    each graph twice it stays within 10% of the peak on the original. The
    load is left out (the manifest is loaded beforehand), since its columns
    hold the whole dataset."""
    ds = tmp_path / "ds"
    assert main(["synth", "--profile", "etherg3", "--per-class", "4", "--seed", "3",
                 "--out", str(ds)]) == 0
    original = load_dataset(ds, tier="directed")
    doubled = DatasetManifest(original.graphs * 2)
    peaks = []
    # the first run builds the writer's tables and anything else made once
    for manifest in (original, original, doubled):
        monkeypatch.setattr(cli, "load_dataset", lambda *args, **kwargs: manifest)
        out = tmp_path / f"out{len(peaks)}"
        tracemalloc.start()
        try:
            assert main(["transform", "--dataset", str(ds), "--variant", "tsgn", "--variant",
                         "dtsgn", "--variant", "ttsgn", "--out", str(out)]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    counts = [transforms.pair_counts(v, original.graphs).tolist() for v in ("tsgn", "dtsgn")]
    runs = [len(graphs.runs_within(c, transforms.PAIR_CAP)) for c in counts]
    assert max(runs) > 1  # the original already takes more than one run
    assert peaks[2] <= 1.1 * peaks[1], peaks


# SHA-256 of every file transform writes for the synth fixture below, taken
# with the tuple-based mappings and per-line writer that preceded the
# array-backed, streamed ones, before any source change to them. A change to
# the synth generator changes it too; a change to the mappings or the writer
# must not.
TRANSFORM_DIGEST = "1fe27d9798496d1fd93480a7c26d5a362d5aa7a8ea6c4437d57cf8b9ebab84a4"


def test_transform_output_matches_golden_digest(tmp_path):
    ds = tmp_path / "ds"
    assert main(["synth", "--profile", "etherg3", "--per-class", "2", "--seed", "19",
                 "--out", str(ds)]) == 0
    digest = hashlib.sha256()
    for tier, variants in (("directed", ("tsgn", "dtsgn", "ttsgn", "mtsgn")),
                           ("multiedge", ("tsgn", "mtsgn"))):
        out = tmp_path / tier
        args = ["transform", "--dataset", str(ds), "--tier", tier, "--out", str(out)]
        for variant in variants:
            args += ["--variant", variant]
        assert main(args) == 0
        for f in sorted(out.rglob("*.csv")):
            digest.update(f"{tier}/{f.relative_to(out).as_posix()}\n".encode())
            digest.update(f.read_bytes())
    assert digest.hexdigest() == TRANSFORM_DIGEST


def _edge_case_dataset(root: Path) -> Path:
    """Fourteen graphs whose records hold the cases a collapse or a loader can
    get wrong: zero amounts, amounts equal as floats but not as decimals,
    one decimal spelled two ways, anti-parallel and repeated pairs, upper-case
    and space-padded addresses, self-loops, tied timestamps, and one graph
    whose only untimed record is a lighter parallel neighbour trade (the
    directed tier drops it; the multiedge tier keeps it, unless form=star)."""
    graphs = {
        "ties": ("C", "phishing", [
            " 0xA ,c,0.1,5", "0xa,C,0.1000000000000000000001,2", "C,0xB,1.5,7",
            "c,0xb,1.50,3", "0xb,c,0,4", "0xB,c,0,9", "c, c ,3,1", "0xa,0xb,2,6",
            "0xb,0xa,2,8", "c,0xd,0.25,3", "0xd,0xe,1,10",
        ]),
        "untimed": ("c", "benign", [
            "a,c,5,1", "c,b,2,4", "a,b,3,6", "a,b,1,", "b,a,0,2", "c,a,0,3",
        ]),
    }
    rnd = random.Random(29)
    amounts = ["0", "0.1", "0.1000000000000000000001", "1.5", "1.50", "2", "0.30", "7e-3"]
    for k in range(12):
        names = [f"v{i}" for i in range(rnd.randint(3, 7))]
        rows = []
        for _ in range(rnd.randint(4, 14)):
            src, dst = rnd.sample(names, 2)
            if rnd.random() < 0.1:
                dst = src  # a self-loop, dropped at load
            if rnd.random() < 0.2:
                src = f" {src.upper()} "
            rows.append(f"{src},{dst},{rnd.choice(amounts)},{rnd.randint(0, 6)}")
        rows.append(f"v0,v1,{rnd.choice(amounts)},{rnd.randint(0, 6)}")  # v0 is in a record
        graphs[f"g{k:02d}"] = ("V0" if k % 3 else "v0", ("phishing", "benign")[k % 2], rows)
    root.mkdir()
    labels = ["graph_id,center_address,label"]
    for graph_id, (center, label, rows) in graphs.items():
        (root / f"{graph_id}.csv").write_text("\n".join(["src,dst,amount,timestamp", *rows]) + "\n")
        labels.append(f"{graph_id},{center},{label}")
    (root / "labels.csv").write_text("\n".join(labels) + "\n")
    return root


# SHA-256 of stats, transform at every tier and form with each variant the
# tier accepts, and the feature files of one evaluate, on _edge_case_dataset;
# taken with the record-object ingest and collapse that preceded the columnar
# ones, before any source change to them.
EDGE_CASE_DIGEST = "cda757ebb66e056e4002d1292910dfcbbe72d9f57e7a27541152829f1e2688ea"


def test_edge_case_outputs_match_golden_digest(tmp_path, capsys):
    ds = _edge_case_dataset(tmp_path / "ds")
    digest = hashlib.sha256()
    capsys.readouterr()
    for form in FORMS:
        assert main(["stats", "--dataset", str(ds), "--form", form]) == 0
        digest.update(capsys.readouterr().out.encode())
        for tier, variants in (("plain", ("tsgn",)), ("directed", VARIANTS),
                               ("multiedge", ("tsgn", "mtsgn"))):
            if (form, tier) == ("net", "multiedge"):
                code = main(["transform", "--dataset", str(ds), "--tier", tier, "--form", form,
                             "--variant", "mtsgn", "--out", str(tmp_path / "refused")])
                assert code == 1 and not (tmp_path / "refused").exists()
                # the error line only: self-loop warnings name the temporary path
                error = capsys.readouterr().err.splitlines()[-1]
                assert error.startswith("error:")
                digest.update(error.encode())
                variants = ("tsgn",)
            out = tmp_path / f"{form}-{tier}"
            args = ["transform", "--dataset", str(ds), "--tier", tier, "--form", form,
                    "--out", str(out)]
            for variant in variants:
                args += ["--variant", variant]
            assert main(args) == 0
            capsys.readouterr()  # timings
            for f in sorted(out.rglob("*.csv")):
                digest.update(f"{form}/{tier}/{f.relative_to(out).as_posix()}\n".encode())
                digest.update(f.read_bytes())
    out = tmp_path / "evaluate"
    args = ["evaluate", "--dataset", str(ds), "--repeats", "2", "--trees", "5", "--out", str(out)]
    for variant in VARIANTS:
        args += ["--variant", variant]
    assert main(args) == 0
    for f in sorted(out.glob("features_*.csv")):
        digest.update(f"evaluate/{f.name}\n".encode())
        digest.update(f.read_bytes())
    assert digest.hexdigest() == EDGE_CASE_DIGEST


_NEAR_POWERS_OF_TEN = [
    float(np.nextafter(10.0**e, to)) for e in range(-6, 14) for to in (0, np.inf)
]
_WEIGHTS = st.one_of(
    st.floats(),
    st.integers(-(10**6), 10**6).map(float),  # integral
    st.sampled_from([5e-324, -2.5e-310, 2.2250738585072014e-308, 1.7976931348623157e308,
                     -1e300, 0.0, -0.0, 1e16, 123456789012.5]),  # subnormal and huge
    # exact ties (half-even), 12-digit rounding and fixed/exponent boundaries
    st.sampled_from([1234567890.125, 999999999999.5, 999999999999.4, 9.99999999999949e-05,
                     9.9999999999995e-05, 1e-4, 1e-5, 1e11, 1e12, 0.5, 2.5]),
    st.sampled_from(_NEAR_POWERS_OF_TEN),  # one ulp either side
)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 10**4),
    edges=st.lists(st.tuples(st.integers(0, 10**4), st.integers(0, 10**4), _WEIGHTS), max_size=40),
)
def test_edge_writer_text_equals_per_row_format(n, edges):
    edges = [(a % n, b % n, w) for a, b, w in edges]
    t = transforms.TsgnGraph("dtsgn", n, [(a, b) for a, b, _ in edges], [w for _, _, w in edges])
    expected = "from_tx,to_tx,weight\n" + "".join(f"{a},{b},{w:.12g}\n" for a, b, w in edges)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "edges.csv"
        cli._write_mapped(path, t)
        assert path.read_text(encoding="utf-8") == expected


def _per_row_text(edges, weights):
    rows = zip(edges.tolist(), weights.tolist())
    return "from_tx,to_tx,weight\n" + "".join(f"{a},{b},{w:.12g}\n" for (a, b), w in rows)


def test_edge_writer_matches_per_row_format_on_a_hundred_thousand_rows(tmp_path):
    rng = np.random.default_rng(19)
    bits = rng.integers(0, 2**64, 40_000, dtype=np.uint64).view(np.float64)  # 1 in 2048 is nan
    amounts = np.log(np.round(rng.exponential(5.0, 40_000), 6) + 1e-6)
    # 13 digits ending in 5: ties or near-ties at the 12th, which only Python's % rounds right
    halfway = (rng.integers(10**11, 10**12, 20_000) * 10 + 5) / 10.0 ** rng.integers(1, 17, 20_000)
    weights = np.concatenate([bits, amounts, halfway, [np.nan, np.inf, -np.inf]])
    edges = rng.integers(0, 5000, (len(weights), 2))
    t = transforms.TsgnGraph("dtsgn", 5000, edges, weights)
    cli._write_mapped(tmp_path / "edges.csv", t)
    assert (tmp_path / "edges.csv").read_text(encoding="utf-8") == _per_row_text(edges, weights)


def test_edge_writer_formats_ten_digit_ids_without_a_table_over_the_nodes(tmp_path):
    n = 2**31 - 1
    edges = np.array([[n - 1, 0], [1234567890, 999999999], [10**9, 10**8], [9999, 10**4]])
    weights = np.array([1.5, -0.25, 1e-7, 3.0])
    t = transforms.TsgnGraph("dtsgn", n, edges, weights)
    started = time.perf_counter()
    cli._write_mapped(tmp_path / "edges.csv", t)
    assert time.perf_counter() - started < 1.0
    assert (tmp_path / "edges.csv").read_text(encoding="utf-8") == _per_row_text(edges, weights)


def test_evaluate_writes_reports_and_is_deterministic(tmp_path, capsys):
    ds = tmp_path / "ds"
    assert main(["synth", "--per-class", "15", "--seed", "21", "--out", str(ds)]) == 0
    outputs = []
    for name, threads in (("r1", "1"), ("r4", "4"), ("r1b", "1")):
        out = tmp_path / name
        code = main(["evaluate", "--dataset", str(ds), "--variant", "ttsgn",
                     "--tier", "directed", "--repeats", "5", "--seed", "2",
                     "--trees", "20", "--threads", threads, "--out", str(out)])
        assert code == 0
        outputs.append(_dir_bytes(out))
    assert outputs[0] == outputs[1] == outputs[2]
    report = (tmp_path / "r1" / "report.csv").read_text().splitlines()
    assert report[0] == "dataset,variant,mean_f1,std_f1,n_repeats,pct_increase_vs_tn,seed"
    assert len(report) == 3  # tn row + one fusion row
    assert report[1].startswith("ds,tn,")
    assert report[2].startswith("ds,tn+ttsgn,")
    table = capsys.readouterr().out
    assert "tn+ttsgn" in table
    features = (tmp_path / "r1" / "features_ttsgn.csv").read_text().splitlines()
    assert features[0].startswith("ttsgn:node_count,") and features[0].endswith(",label")
    assert len(features) == 31  # one row per graph


# SHA-256 of every file evaluate writes for the synth fixture below, taken
# with the split search that scored every rank break, before the search
# skipped the breaks inside same-class runs. A change to the synth generator,
# the features or the forest's draws changes it too; a faster search must
# not.
EVALUATE_DIGEST = "69eadcbce7ca2a260f542d0f2b6a0a5b138eca8fbfe5cabe4d5cf328d02875b2"


def test_evaluate_output_matches_golden_digest(tmp_path, capsys):
    ds = tmp_path / "ds"
    assert main(["synth", "--per-class", "40", "--seed", "13", "--out", str(ds)]) == 0
    out = tmp_path / "out"
    assert main(["evaluate", "--dataset", str(ds), "--variant", "ttsgn", "--repeats", "12",
                 "--trees", "30", "--seed", "5", "--out", str(out)]) == 0
    digest = hashlib.sha256()
    for f in sorted(out.rglob("*")):
        digest.update(f"{f.relative_to(out).as_posix()}\n".encode())
        digest.update(f.read_bytes())
    assert digest.hexdigest() == EVALUATE_DIGEST


def test_evaluate_prints_each_variants_forest_counts(tmp_path, capsys):
    ds = tmp_path / "ds"
    assert main(["synth", "--per-class", "10", "--seed", "3", "--out", str(ds)]) == 0
    capsys.readouterr()
    repeats, trees = 3, 7
    assert main(["evaluate", "--dataset", str(ds), "--variant", "ttsgn", "--repeats",
                 str(repeats), "--trees", str(trees), "--out", str(tmp_path / "out")]) == 0
    printed = re.findall(
        r"^(\S+): forests=(\d+) passes=(\d+) nodes=(\d+) leaves=(\d+) "
        r"fit_seconds=\d+\.\d{3} predict_seconds=\d+\.\d{3}$",
        capsys.readouterr().out, re.M,
    )
    assert [variant for variant, *_ in printed] == ["tn", "tn+ttsgn"]
    for _, forests, passes, nodes, leaves in printed:
        forests, passes, nodes, leaves = map(int, (forests, passes, nodes, leaves))
        assert forests == repeats
        assert passes >= 1
        assert nodes >= forests * trees
        if nodes > forests * trees:  # some root split
            assert leaves < nodes


def test_evaluate_prints_what_each_variants_split_search_skipped(tmp_path, capsys):
    ds = tmp_path / "ds"
    assert main(["synth", "--per-class", "10", "--seed", "3", "--out", str(ds)]) == 0
    capsys.readouterr()
    assert main(["evaluate", "--dataset", str(ds), "--variant", "ttsgn", "--repeats", "3",
                 "--trees", "7", "--out", str(tmp_path / "out")]) == 0
    printed = re.findall(r"^search: variant=(\S+) breaks=(\d+) scored=(\d+)$",
                         capsys.readouterr().out, re.M)
    assert [variant for variant, *_ in printed] == ["tn", "tn+ttsgn"]
    counts = {variant: (int(breaks), int(scored)) for variant, breaks, scored in printed}
    for breaks, scored in counts.values():
        assert 0 < scored <= breaks
    assert counts["tn"][1] < counts["tn"][0]


def test_transform_and_evaluate_print_what_the_load_and_the_mappings_did(tmp_path, capsys):
    ds = tmp_path / "ds"
    ds.mkdir()
    # four rows, one a self-loop; the net cut of b keeps two, the directed
    # tier collapses the parallel pair
    (ds / "g.csv").write_text("src,dst,amount,timestamp\na,b,1,1\na,b,2,2\nb,b,3,3\nb,c,1,4\n")
    (ds / "h.csv").write_text("src,dst,amount,timestamp\nx,y,1,1\ny,z,2,2\n")
    (ds / "labels.csv").write_text("graph_id,center_address,label\ng,b,phishing\nh,y,benign\n")
    load = r"^load: graphs=2 records=6 self_loops=1 kept=4 seconds=\d+\.\d{3}$"
    capsys.readouterr()
    assert main(["transform", "--dataset", str(ds), "--variant", "ttsgn",
                 "--out", str(tmp_path / "mapped")]) == 0
    assert len(re.findall(load, capsys.readouterr().out, re.M)) == 1
    args = ["evaluate", "--dataset", str(ds), "--variant", "ttsgn", "--variant", "dtsgn",
            "--repeats", "1", "--trees", "3", "--out", str(tmp_path / "report")]
    assert main(args) == 1  # two graphs cannot be split, which is found after the load
    out = capsys.readouterr().out
    assert len(re.findall(load, out, re.M)) == 1
    assert main(["stats", "--dataset", str(ds)]) == 0
    assert "load:" not in capsys.readouterr().out  # stats prints its table alone


def test_evaluate_prints_each_mapping(tmp_path, capsys):
    ds = tmp_path / "ds"
    assert main(["synth", "--per-class", "6", "--seed", "3", "--out", str(ds)]) == 0
    capsys.readouterr()
    assert main(["evaluate", "--dataset", str(ds), "--variant", "ttsgn", "--variant", "tsgn",
                 "--repeats", "1", "--trees", "3", "--out", str(tmp_path / "out")]) == 0
    printed = re.findall(r"^map: variant=(\w+) graphs=(\d+) edges=(\d+) seconds=\d+\.\d{3}$",
                         capsys.readouterr().out, re.M)
    graphs = load_dataset(ds, tier="directed").graphs
    assert printed == [
        (variant, "12", str(sum(transforms.BUILDERS[variant](g).edge_count for g in graphs)))
        for variant in ("ttsgn", "tsgn")
    ]


def test_evaluate_report_shape_with_multiple_variants(tmp_path):
    ds = tmp_path / "ds"
    assert main(["synth", "--per-class", "10", "--seed", "31", "--out", str(ds)]) == 0
    out = tmp_path / "rep"
    code = main(["evaluate", "--dataset", str(ds), "--variant", "tsgn",
                 "--variant", "dtsgn", "--variant", "ttsgn", "--variant", "ttsgn",
                 "--tier", "directed", "--repeats", "3", "--seed", "2",
                 "--trees", "10", "--out", str(out)])
    assert code == 0
    rows = (out / "report.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 1 + 3  # header, tn, three deduplicated fusions
    means = [float(r.split(",")[2]) for r in rows[1:]]
    assert all(0.0 <= m <= 1.0 for m in means)


def test_evaluate_rejects_incompatible_variant(tmp_path, capsys):
    ds = tmp_path / "ds"
    assert main(["synth", "--per-class", "5", "--seed", "41", "--out", str(ds)]) == 0
    code = main(["evaluate", "--dataset", str(ds), "--variant", "mtsgn",
                 "--tier", "plain", "--repeats", "2", "--out", str(tmp_path / "x")])
    assert code == 1
    err = capsys.readouterr().err
    assert "attribute required" in err


def test_cli_rejects_unknown_variant(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["transform", "--dataset", "x", "--variant", "bogus", "--out", "y"])


def _dataset_missing_timestamps(tmp_path, untimed) -> Path:
    graphs = []
    for i in range(5):
        label = "phishing" if i % 2 else "benign"
        records = [("a", "b", 1, 1), ("b", "c", 2, 2), ("c", "a", 3, 3)]
        if i in untimed:
            records = [(src, dst, amount) for src, dst, amount, _ in records]
        graphs.append(
            TransactionGraph.build(records, "b").with_label(label)
        )
    manifest = DatasetManifest(tuple(graphs))
    return save_dataset(manifest, tmp_path / "untimed")


@pytest.mark.parametrize("command", ["transform", "evaluate"])
def test_untimed_graphs_are_all_named_before_any_output(tmp_path, capsys, command):
    ds = _dataset_missing_timestamps(tmp_path, untimed={2, 4})
    out = tmp_path / "out"
    code = main([command, "--dataset", str(ds), "--variant", "tsgn",
                 "--variant", "ttsgn", "--tier", "directed", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "ttsgn: temporal attribute required (graphs: graph_0002, graph_0004)" in err
    assert "graph_0000" not in err
    assert not out.exists()


def test_evaluate_rejects_too_few_training_rows_before_featurizing(
    tmp_path, capsys, monkeypatch
):
    ds = tmp_path / "ds"
    assert main(["synth", "--per-class", "5", "--seed", "3", "--out", str(ds)]) == 0

    def no_features(*args, **kwargs):
        raise AssertionError("features computed for a dataset evaluate must reject")

    monkeypatch.setattr(cli, "feature_matrix", no_features)
    out = tmp_path / "x"
    code = main(["evaluate", "--dataset", str(ds), "--variant", "ttsgn",
                 "--repeats", "2", "--out", str(out)])
    assert code == 1
    # 5 graphs per class put round(4.5) = 4 of each into every training split
    assert "n_components=10 exceeds the 8 fitted rows" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("variants", [[], ["--variant", "ttsgn"]])
def test_evaluate_rejects_unsplittable_classes_before_any_output(
    tmp_path, capsys, monkeypatch, variants
):
    ds = tmp_path / "ds"
    assert main(["synth", "--per-class", "4", "--seed", "3", "--out", str(ds)]) == 0

    def no_features(*args, **kwargs):
        raise AssertionError("features computed for a dataset evaluate must reject")

    monkeypatch.setattr(cli, "feature_matrix", no_features)
    out = tmp_path / "x"
    code = main(["evaluate", "--dataset", str(ds), *variants, "--repeats", "2",
                 "--out", str(out)])
    assert code == 1
    # round(0.9 * 4) = 4: every split would put all four of a class in training
    err = capsys.readouterr().err
    assert "absent" in err and "benign (4 members)" in err and "phishing (4 members)" in err
    assert not out.exists()


def test_evaluate_rejects_zero_repeats_before_any_output(tmp_path, capsys, monkeypatch):
    ds = tmp_path / "ds"
    assert main(["synth", "--per-class", "6", "--seed", "3", "--out", str(ds)]) == 0

    def no_features(*args, **kwargs):
        raise AssertionError("features computed for a run evaluate must reject")

    monkeypatch.setattr(cli, "feature_matrix", no_features)
    out = tmp_path / "x"
    assert main(["evaluate", "--dataset", str(ds), "--repeats", "0", "--out", str(out)]) == 1
    assert "--repeats must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_labels_without_required_columns_fail_with_their_names(tmp_path, capsys):
    ds = tmp_path / "ds"
    ds.mkdir()
    (ds / "g.csv").write_text("src,dst,amount,timestamp\na,b,1,1\n")
    (ds / "labels.csv").write_text("id,center_address,class\ng,a,phishing\n")
    assert main(["stats", "--dataset", str(ds)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "missing column(s) graph_id, label" in err


def test_short_labels_rows_are_all_named_before_any_record_file_is_read(
    tmp_path, capsys, monkeypatch
):
    ds = tmp_path / "ds"
    ds.mkdir()
    (ds / "g.csv").write_text("src,dst,amount,timestamp\na,b,1,1\n")
    (ds / "labels.csv").write_text(
        "graph_id,center_address,label\ng\n\nh,a\ng,a,phishing\n"
    )
    def record_files_unread(path, *args, **kwargs):
        assert Path(path).name == "labels.csv", f"read {path}"
        return builtins.open(path, *args, **kwargs)

    monkeypatch.setattr(ingest, "open", record_files_unread, raising=False)
    assert main(["stats", "--dataset", str(ds)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert "line 2: 1 field(s) for 3 columns" in err
    assert "line 4: 2 field(s) for 3 columns" in err


def test_transform_names_outputs_by_dataset_id(tmp_path):
    ds = tmp_path / "ds"
    ds.mkdir()
    # acct_z has three transfers, acct_a one; loading sorts acct_a first
    (ds / "acct_z.csv").write_text("src,dst,amount,timestamp\nz,a,1,1\nz,b,2,2\nz,c,3,3\n")
    (ds / "acct_a.csv").write_text("src,dst,amount,timestamp\na,b,1,1\n")
    (ds / "labels.csv").write_text(
        "graph_id,center_address,label\nacct_z,z,phishing\nacct_a,a,benign\n"
    )
    out = tmp_path / "mapped"
    assert main(["transform", "--dataset", str(ds), "--variant", "tsgn",
                 "--tier", "plain", "--out", str(out)]) == 0
    assert (out / "tsgn" / "summary.csv").read_text().splitlines() == [
        "graph_id,nodes,edges", "acct_a,1,0", "acct_z,3,3",
    ]
    assert len((out / "tsgn" / "acct_a.csv").read_text().splitlines()) == 1
    assert len((out / "tsgn" / "acct_z.csv").read_text().splitlines()) == 4
    assert sorted(p.name for p in (out / "tsgn").iterdir()) == [
        "acct_a.csv", "acct_z.csv", "summary.csv",
    ]


def test_transform_refuses_the_graph_id_summary_before_any_output(tmp_path, capsys):
    # the mapped edges of graph summary would be overwritten by summary.csv
    ds = tmp_path / "ds"
    ds.mkdir()
    (ds / "summary.csv").write_text("src,dst,amount,timestamp\na,b,1,1\nb,c,2,2\n")
    (ds / "g1.csv").write_text("src,dst,amount,timestamp\nx,y,1,1\n")
    (ds / "labels.csv").write_text(
        "graph_id,center_address,label\nsummary,b,phishing\ng1,x,benign\n"
    )
    out = tmp_path / "mapped"
    assert main(["transform", "--dataset", str(ds), "--variant", "dtsgn",
                 "--out", str(out)]) == 1
    assert "graph id summary" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("variants", [[], ["--variant", "ttsgn"]])
def test_evaluate_rejects_dataset_without_phishing_label_before_any_output(
    tmp_path, capsys, monkeypatch, variants
):
    ds = tmp_path / "ds"
    assert main(["synth", "--per-class", "10", "--seed", "3", "--out", str(ds)]) == 0
    labels = ds / "labels.csv"
    labels.write_text(labels.read_text().replace(",phishing\n", ",scam\n"))

    def no_features(*args, **kwargs):
        raise AssertionError("features computed for a dataset evaluate must reject")

    monkeypatch.setattr(cli, "feature_matrix", no_features)
    out = tmp_path / "x"
    code = main(["evaluate", "--dataset", str(ds), *variants, "--repeats", "2",
                 "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "'phishing' label, which no graph has (labels: benign, scam)" in err
    assert not out.exists()


def test_evaluate_with_zero_baseline_f1_reports_no_percent_increase(tmp_path):
    # identical stars leave the forest nothing to split on, so it predicts the
    # majority class, benign, and the phishing F1 is 0 for tn and the fusion
    records = [("v1", "c", 1, 1), ("v2", "c", 2, 2), ("v3", "c", 1, 3), ("c", "w", 3, 4)]
    graphs = tuple(
        TransactionGraph.build(records, "c", tier="multiedge").with_label(label)
        for label in ["phishing"] * 5 + ["benign"] * 20
    )
    ds = save_dataset(DatasetManifest(graphs), tmp_path / "ds")
    out = tmp_path / "out"
    assert main(["evaluate", "--dataset", str(ds), "--variant", "ttsgn",
                 "--repeats", "3", "--trees", "5", "--out", str(out)]) == 0
    rows = [line.split(",") for line in (out / "report.csv").read_text().splitlines()]
    assert [(r[1], r[2], r[5]) for r in rows[1:]] == [
        ("tn", "0.000000", ""), ("tn+ttsgn", "0.000000", ""),
    ]
    fused_line = (out / "report.txt").read_text().splitlines()[2].split()
    assert fused_line[1] == "tn+ttsgn" and fused_line[5] == "-"


def test_load_failures_name_every_bad_graph(tmp_path, capsys):
    ds = tmp_path / "ds"
    ds.mkdir()
    (ds / "good.csv").write_text("src,dst,amount,timestamp\na,b,1,1\n")
    (ds / "malformed.csv").write_text("src,dst,amount,timestamp\na,b,lots,1\n")
    (ds / "nocenter.csv").write_text("src,dst,amount,timestamp\na,b,1,1\n")
    (ds / "labels.csv").write_text(
        "graph_id,center_address,label\n"
        "good,a,phishing\nmissing,a,benign\nmalformed,a,benign\nnocenter,nobody,benign\n"
    )
    assert main(["stats", "--dataset", str(ds)]) == 1
    err = capsys.readouterr().err
    assert "3 graph(s) failed to load" in err
    assert "missing: " in err
    assert "malformed: " in err and "unparseable amount 'lots'" in err
    assert "nocenter: target 'nobody' does not appear in any record" in err
    assert "good:" not in err


@pytest.mark.parametrize("command", ["stats", "evaluate"])
def test_a_field_over_the_csv_limit_fails_its_graph_by_line(tmp_path, capsys, command):
    ds = tmp_path / "ds"
    ds.mkdir()
    rows = "src,dst,amount,timestamp\na,b,1,1\nb,c,2,2\n"
    for i in range(6):
        (ds / f"good{i}.csv").write_text(rows)
    (ds / "long.csv").write_text(rows + f"a,{'d' * 200_000},1,3\n")
    (ds / "bad.csv").write_text(rows.replace(",1,1", ",lots,1"))
    labels = [f"good{i},b,{('phishing', 'benign')[i % 2]}" for i in range(6)]
    (ds / "labels.csv").write_text(
        "\n".join(["graph_id,center_address,label", *labels, "long,b,phishing", "bad,b,benign"])
        + "\n"
    )
    out = tmp_path / "out"
    args = [command, "--dataset", str(ds)] + (["--out", str(out)] if command == "evaluate" else [])
    capsys.readouterr()
    assert main(args) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "2 graph(s) failed to load" in err[0]
    assert f"long: {ds / 'long.csv'}: line 4: field larger than field limit" in err[0]
    assert "bad: " in err[0] and "unparseable amount 'lots'" in err[0]
    assert not out.exists()


def test_a_labels_field_over_the_csv_limit_fails_the_load_by_line(tmp_path, capsys):
    ds = tmp_path / "ds"
    ds.mkdir()
    (ds / "labels.csv").write_text(f"graph_id,center_address,label\ng,{'a' * 200_000},benign\n")
    assert main(["stats", "--dataset", str(ds)]) == 1
    assert f"{ds / 'labels.csv'}: line 2: field larger than field limit" in capsys.readouterr().err


@pytest.mark.parametrize("amount", ["NaN", "sNaN", "Infinity", "1e400", "5e-324"])
@pytest.mark.parametrize("command", ["transform", "evaluate"])
def test_amounts_without_a_mapped_weight_fail_before_any_output(
    tmp_path, capsys, amount, command
):
    # 5e-324 flowing into an amount of 0 has a mean that underflows to 0
    ds = tmp_path / "ds"
    ds.mkdir()
    rows = "src,dst,amount,timestamp\na,b,{},1\nb,c,0,2\n"
    (ds / "good.csv").write_text(rows.format(1))
    (ds / "bad1.csv").write_text(rows.format(amount))
    (ds / "bad2.csv").write_text(rows.format(amount))
    (ds / "labels.csv").write_text(
        "graph_id,center_address,label\ngood,b,phishing\nbad1,b,benign\nbad2,b,benign\n"
    )
    out = tmp_path / "out"
    assert main([command, "--dataset", str(ds), "--variant", "dtsgn", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "2 graph(s) failed to load" in err
    assert "bad1: " in err and "bad2: " in err and "good:" not in err
    assert not out.exists()


@pytest.mark.parametrize("stamp", ["99999999999999999999", "-99999999999999999999"])
def test_timestamps_outside_int64_fail_at_load_by_line(tmp_path, capsys, stamp):
    ds = tmp_path / "ds"
    ds.mkdir()
    rows = "src,dst,amount,timestamp\na,b,1,1\nb,c,2,{}\n"
    (ds / "good.csv").write_text(rows.format(2))
    (ds / "late.csv").write_text(rows.format(stamp))
    (ds / "labels.csv").write_text("graph_id,center_address,label\ngood,b,phishing\nlate,b,benign\n")
    out = tmp_path / "out"
    assert main(["transform", "--dataset", str(ds), "--variant", "ttsgn", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert "1 graph(s) failed to load" in err
    assert f"late: {ds / 'late.csv'}: malformed rows: line 3: timestamp {stamp} outside int64" in err
    assert not out.exists()


# the entry points the benchmark's tracer wraps by name (bench/tracing.py)
TRACED = {
    ingest: ("load_edge_list", "extract_ego_network"),
    graphs: ("at_tier", "undirected_projection"),
    transforms: ("build_tsgn", "build_directed_tsgn", "build_temporal_tsgn", "build_multiple_tsgn"),
}

# the ones evaluate calls. betweenness_centrality and closeness_centrality are
# left out: tsgn.features has not defined them since the two centralities
# became one matrix pass, so the tracer finds nothing to wrap and their spans
# read 0 (ROADMAP item 1).
TRACED_EVALUATE = {
    ingest: ("load_dataset", "load_edge_list", "extract_ego_network"),
    graphs: ("at_tier",),
    transforms: ("build_temporal_tsgn",),
    features: ("feature_matrix", "simple_adjacency", "average_neighbor_degree",
               "average_clustering", "largest_eigenvalue", "FeatureMatrix.to_csv",
               "PCA.fit", "PCA.transform"),
    ml: ("evaluate", "stratified_split", "RandomForest.fit", "RandomForest.predict"),
}


def _count_calls(monkeypatch, traced: dict) -> Counter:
    """Rebind each traced name as the tracer does, wherever the package holds
    it (module globals and module-level dicts) or, for ``Class.method``, on its
    class; returns the counter of calls through the rebound names."""
    calls = Counter()

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    modules = [m for n, m in sys.modules.items() if n == "tsgn" or n.startswith("tsgn.")]
    for module, names in traced.items():
        for name in names:
            owner_name, _, attr = name.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                monkeypatch.setattr(owner, attr, counted(name, getattr(owner, attr)))
                continue
            original = getattr(module, name)
            wrapped = counted(name, original)
            for loaded in modules:
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        monkeypatch.setattr(loaded, key, wrapped)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                monkeypatch.setitem(value, k, wrapped)
    return calls


def test_transform_calls_every_traced_entry_point_by_name(tmp_path, monkeypatch):
    """Rebind each traced name wherever the package holds it, in module globals
    and module-level dicts, as the tracer does, and count the calls: a span
    goes dark when the package stops calling through the name."""
    ds = tmp_path / "ds"
    assert main(["synth", "--per-class", "3", "--seed", "5", "--out", str(ds)]) == 0
    calls = _count_calls(monkeypatch, TRACED)
    out = tmp_path / "out"
    assert main(["transform", "--dataset", str(ds), "--tier", "directed", "--variant", "tsgn",
                 "--variant", "dtsgn", "--variant", "ttsgn", "--out", str(out)]) == 0
    assert main(["transform", "--dataset", str(ds), "--tier", "multiedge", "--variant", "mtsgn",
                 "--out", str(out)]) == 0
    # each command loads, cuts and collapses its dataset as one batch, and
    # maps each variant family in runs of graphs through map_batch, so no
    # traced name is called: load_edge_list, extract_ego_network, at_tier,
    # undirected_projection and the four per-graph builders all read 0
    assert calls == {}


def test_evaluate_calls_every_traced_entry_point_by_name(tmp_path, monkeypatch):
    ds = tmp_path / "ds"
    assert main(["synth", "--per-class", "6", "--seed", "5", "--out", str(ds)]) == 0
    calls = _count_calls(monkeypatch, TRACED_EVALUATE)
    repeats = 2
    assert main(["evaluate", "--dataset", str(ds), "--variant", "ttsgn", "--repeats",
                 str(repeats), "--trees", "5", "--out", str(tmp_path / "out")]) == 0
    # twelve graphs loaded and mapped as one batch each, so no per-file or
    # per-graph entry point is called; tn and tn+ttsgn each evaluated over
    # every repeat, with one stacked forest fit and predict per evaluate,
    # and only the fusion projected by a PCA
    per_stack = ("simple_adjacency", "average_neighbor_degree", "average_clustering",
                 "largest_eigenvalue")
    assert all(calls.pop(name, 0) >= 1 for name in per_stack), calls
    assert calls == {
        "load_dataset": 1, "feature_matrix": 2, "FeatureMatrix.to_csv": 2,
        "evaluate": 2, "stratified_split": 2 * repeats, "RandomForest.fit": 2,
        "RandomForest.predict": 2, "PCA.fit": repeats, "PCA.transform": 2 * repeats,
    }


def test_cli_imports_only_numpy_and_the_standard_library():
    # run in a fresh interpreter: the test session has imported far more
    probe = (
        "import sys\n"
        "import numpy\n"
        "before = set(sys.modules)\n"
        "import tsgn.cli\n"
        "print('\\n'.join(sorted({m.split('.')[0] for m in set(sys.modules) - before})))\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    added = result.stdout.split()
    assert "tsgn" in added
    assert [m for m in added if m != "tsgn" and m not in sys.stdlib_module_names] == []


def test_readme_sketch_uses_only_exported_names():
    missing = [name for name in tsgn.__all__ if not hasattr(tsgn, name)]
    assert missing == []
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library sketch", 1)[1]
    sketch = section.split("```python\n", 1)[1].split("```", 1)[0]
    imported = {
        alias.name
        for node in ast.walk(ast.parse(sketch))
        if isinstance(node, ast.ImportFrom) and node.module == "tsgn"
        for alias in node.names
    }
    assert imported and sorted(imported - set(tsgn.__all__)) == []
    # class names, in code or comments, that are not tsgn's are stale
    classes = set(re.findall(r"\b[A-Z][a-z]+[A-Z]\w*", sketch)) - set(dir(builtins))
    assert sorted(classes - set(tsgn.__all__)) == []
