"""Command-line front end: synth -> stats -> transform -> evaluate.

All configuration comes from explicit flags (no environment variables), and
every command overwrites its outputs with identical bytes when rerun with an
identical config and seed. Timings are printed to stdout only, never
written into output files.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from pathlib import Path

import numpy as np

from .features import FEATURE_NAMES, PCA, concat_features, feature_matrix
from .graphs import TIERS, GraphBatch, batch_at_tier
from .ingest import (
    FORMS,
    PHISHING_LABEL,
    SIZE_PROFILES,
    DatasetManifest,
    dataset_stats,
    generate_synthetic_dataset,
    load_dataset,
    save_dataset,
    stats_table,
    write_csv,
)
from .ml import EvalReport, ForestConfig, evaluate, train_rows
from .transforms import VARIANTS, TsgnGraph, map_graphs, map_runs, require_attributes


def _require_variants(manifest: DatasetManifest, variants) -> None:
    """Raise one ValueError naming every graph a requested variant cannot map.

    Commands call this before writing anything, so a bad graph anywhere in the
    dataset leaves no partial output behind.
    """
    failures: dict[str, list[str]] = {}
    for variant in variants:
        for graph_id, g in zip(manifest.graph_ids, manifest.graphs):
            try:
                require_attributes(g, variant)
            except ValueError as exc:
                failures.setdefault(str(exc), []).append(graph_id)
    if failures:
        raise ValueError(
            "; ".join(f"{reason} (graphs: {', '.join(ids)})" for reason, ids in failures.items())
        )


def cmd_synth(args) -> int:
    manifest = generate_synthetic_dataset(
        profile=args.profile, n_per_class=args.per_class, seed=args.seed
    )
    out = save_dataset(manifest, args.out)
    print(f"wrote {manifest.n_graphs} graphs to {out}")
    return 0


def cmd_stats(args) -> int:
    name = Path(args.dataset).name
    # parse every record file once, at the tier that keeps every record, and
    # derive the other tiers from it as load_dataset would
    loaded = load_dataset(args.dataset, tier="multiedge", form=args.form)
    records = GraphBatch.of(loaded.graphs)
    per_tier = {}
    for tier in TIERS:
        graphs = tuple(batch_at_tier(records, tier).graphs())
        per_tier[tier] = dataset_stats(DatasetManifest(graphs, loaded.graph_ids))
    print(stats_table(name, args.form, per_tier))
    return 0


def _load(args) -> DatasetManifest:
    """load_dataset with the command's dataset, tier and form, printing what
    the load did."""
    started = time.perf_counter()
    manifest = load_dataset(args.dataset, tier=args.tier, form=args.form)
    kept = sum(g.edge_count for g in manifest.graphs)
    print(
        f"load: graphs={manifest.n_graphs} records={manifest.records} "
        f"self_loops={manifest.self_loops} kept={kept} "
        f"seconds={time.perf_counter() - started:.3f}"
    )
    return manifest


# The variants that share a join: tsgn's shared addresses, and the
# head-to-tail flows, where ttsgn's and mtsgn's edges are dtsgn's under its
# ``increasing`` mask.
_FAMILIES = {"tsgn": ("tsgn",), "flow": ("dtsgn", "ttsgn", "mtsgn")}


def cmd_transform(args) -> int:
    variants = list(dict.fromkeys(args.variant))  # drop repeats, keep order
    manifest = _load(args)
    if "summary" in manifest.graph_ids:
        raise ValueError(f"{args.dataset}: graph id summary would name summary.csv")
    _require_variants(manifest, variants)
    out = Path(args.out)
    done = {}
    for family, members in _FAMILIES.items():
        wanted = [v for v in members if v in variants]
        if wanted:
            done.update(_transform_family(family, wanted, manifest, out))
    for variant in variants:
        elapsed, written, summary = done[variant]
        write_csv(out / variant / "summary.csv", ("graph_id", "nodes", "edges"), summary)
        total_nodes = sum(nodes for _, nodes, _ in summary)
        total_edges = sum(edges for _, _, edges in summary)
        print(
            f"{variant}: graphs={len(summary)} nodes={total_nodes} "
            f"edges={total_edges} seconds={elapsed:.3f} write_seconds={written:.3f}"
        )
    return 0


def _transform_family(family: str, wanted: list[str], manifest: DatasetManifest, out: Path):
    """Map and write the variants of one family run by run (map_runs of the
    first); returns each variant's mapping and writing seconds and its
    summary rows.

    A run's graphs are joined, logged and formatted once: the first variant
    is mapped (so the join's time, and pair_counts' before the first run,
    count under it), and each other one keeps its edges, weights and rows
    under the first's ``increasing`` mask. Each graph's file is a slice of
    the run's rows, and a run is dropped before the next is mapped, so
    memory does not grow with the dataset.
    """
    done = {v: [0.0, 0.0, []] for v in wanted}  # map and write seconds, summary rows
    for variant in wanted:
        (out / variant).mkdir(parents=True, exist_ok=True)
    runs = []  # the graphs and pairs of each run
    started = time.perf_counter()
    for start, stop, pairs, shared in map_runs(wanted[0], manifest.graphs):
        ids, keep = manifest.graph_ids[start:stop], shared.increasing
        for variant in wanted:
            # ttsgn or mtsgn after the first: the first's time-ordered edges
            t = shared if variant == wanted[0] else shared.where(keep, variant)
            done[variant][0] += time.perf_counter() - started
            started = time.perf_counter()
            if t is shared:
                rows = shared_rows = _rows(t.edges, t.weights)
            else:
                rows = shared_rows if keep is None else shared_rows[keep]
            ends = t.offsets.tolist()
            for graph_id, e0, e1 in zip(ids, ends, ends[1:]):
                _write_rows(out / variant / f"{graph_id}.csv", rows[e0:e1])
            done[variant][1] += time.perf_counter() - started
            done[variant][2].extend(
                zip(ids, np.diff(t.records).tolist(), np.diff(t.offsets).tolist())
            )
            started = time.perf_counter()
        runs.append((stop - start, pairs))
        del t, shared, keep, rows, shared_rows
    kept = " ".join(f"{v}={sum(edges for _, _, edges in done[v][2])}" for v in wanted)
    graphs, pairs = zip(*runs)
    print(
        f"chunks: family={family} runs={len(runs)} max_graphs={max(graphs)} "
        f"max_pairs={max(pairs)} pairs={sum(pairs)} {kept}"
    )
    return done


_POW10 = 10.0 ** np.arange(16)


@functools.cache
def _ascii_words():
    """_rows' lookup tables, built on its first call (a few ms).

    A word is a little-endian uint64 whose bytes are text padded with NULs.
    For n in 0..9999: ``digits[n]`` holds n in four digits, ``stripped[n]``
    the same with leading zeros as NULs (0 is all NUL) and ``trailing[n]``
    the count of trailing zeros in the four. ``id_low[n]`` holds n and a
    comma, and ``id_low[10**4 + n]`` the four digits and a comma. Column
    ``192 * sign + 16 * z + k`` of ``masks`` serves a weight whose 12 digits
    end in ``z`` zeros and whose text has ``k`` digits after the point: its
    sign and ``0.000`` prefix, then masks over the 16-byte digit text for
    the digits left of the point, those right of it (moved up one byte past
    the point), and the point and newline themselves.
    """
    places = np.indices((10,) * 4).reshape(4, -1)  # digits of 0..9999, most significant first
    leading = np.logical_and.accumulate(places == 0)
    shifts = np.arange(0, 32, 8)[:, None]
    digits = ((places + 48) << shifts).sum(axis=0).astype("<u8")
    stripped = digits & ((~leading * 0xFF) << shifts).sum(axis=0).astype("<u8")
    leading[3] = False
    shown = digits & ((~leading * 0xFF) << shifts).sum(axis=0).astype("<u8")
    id_low = np.concatenate([shown, digits]) | ord(",") << 32
    trailing = np.logical_and.accumulate(places[::-1] == 0).sum(axis=0)
    _, zeros, k = np.indices((2, 12, 16))[..., None]
    at = np.arange(16)
    before = np.maximum(12 - k, 0)  # digits left of the point
    kept = 12 - np.minimum(zeros, k)  # digits left once trailing zeros go
    point = (at == before) & (k < 12) & (kept > before)
    planes = np.concatenate(
        [255 * (at < np.minimum(before, kept)), 255 * ((at > before) & (at <= kept)),
         46 * point + 10 * (at == 15)], axis=-1
    ).astype("<u1").view("<u8")
    prefixes = [sign + (b"0." + b"0" * (d - 12)) * (d >= 12)
                for sign in (b"", b"-") for d in range(16)]
    prefix = np.frombuffer(b"".join(p.ljust(8, b"\0") for p in prefixes), "<u8")
    prefix = np.broadcast_to(prefix.reshape(2, 1, 16, 1), planes.shape[:3] + (1,))
    masks = np.concatenate([prefix, planes], axis=-1)
    return digits, stripped, trailing, id_low, np.ascontiguousarray(masks.reshape(384, 7).T)


def _write_mapped(path: Path, t: TsgnGraph) -> None:
    """One mapped edge list, ``from_tx,to_tx,weight`` by edge id, in one write."""
    _write_rows(path, _rows(t.edges, t.weights))


def _write_rows(path: Path, rows: np.ndarray) -> None:
    """Write the edge list of rows formatted by _rows, dropping their NULs."""
    with open(path, "wb") as fh:
        fh.write(b"from_tx,to_tx,weight\n" + rows.tobytes().translate(None, b"\0"))


def _rows(edges: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The text ``f"{a},{b},{w:.12g}\\n"`` of each edge as a row of NUL-padded
    words: both ids with their commas, then the weight and its newline.

    It is formatted in numpy without a Python call per edge, and _write_rows
    drops the NULs with one ``translate``. A weight whose ``%.12g`` is
    fixed-point is scaled by an exact power of ten to ``s`` in [1e11, 1e12),
    one rounding that is off by at most 6.1e-5 there, so ``rint(s)`` gives
    its 12 digits unless ``s`` is within 1e-4 of a tie. Python's ``%``
    formats the other rows: zero, nan and inf, exponent notation, near-ties
    (exact ties round half-even) and ``s`` within 0.5 of either end.
    """
    digits, stripped, trailing, id_low, masks = _ascii_words()
    m = len(weights)
    top = edges.max() if m else 0
    # each step works in place or drops its inputs, so the temporaries stay
    # within a few words per edge beside the rows
    if top < 1000:  # both ids in one word: below 1000, id_low's first byte is NUL
        rows = np.empty((m, 4), "<u8")
        x = id_low.take(edges[:, 0].astype(np.intp))
        x >>= 8
        x |= id_low.take(edges[:, 1].astype(np.intp)) << 24
        rows[:, 0] = x
    else:
        width = 2 if top >= 10**4 else 1  # words per id
        rows = np.empty((m, 2 * width + 3), "<u8")
        for end in range(2):
            x = edges[:, end].astype(np.intp)
            if width == 2:  # the digits above the last four, then those four padded
                h, x = np.divmod(x, 10**4)
                mid = np.where(h >= 10**4, digits[h % 10**4], stripped[h % 10**4])
                rows[:, 2 * end] = stripped[h // 10**4] | mid << 32
                x += 10**4 * (h > 0)
                del h, mid
            rows[:, width * end + width - 1] = id_low[x]
    del x
    w = weights
    s = np.abs(w)
    with np.errstate(all="ignore"):  # nan, inf, 0 and a clipped k all fail ok
        k = np.log10(s)
        np.floor(k, out=k)
        k = np.clip((11 - k).astype(np.intp), 0, 15)  # digits after the point
        s *= _POW10[k]
        n = np.rint(s)
        ok = np.abs(s - 5.5e11) < 4.5e11 - 0.5
        ok &= np.abs(s - n) < 0.4999
    del s
    n[~ok] = 1e11
    n = n.astype(np.int64)
    low = n % 10**4
    hi = digits[low]
    key = trailing[low]  # trailing zeros, then the key of the weight's masks
    z = np.flatnonzero(low == 0)
    n //= 10**4
    low = n % 10**4
    n //= 10**4
    lo = digits[n]
    lo |= digits[low] << 32
    key[z] += trailing[low[z]] + (low[z] == 0) * trailing[n[z]]
    del n, low, z
    key *= 16
    key += k
    key[np.signbit(w)] += 192
    del k
    prefix, left_lo, left_hi, right_lo, right_hi, marks_lo, marks_hi = masks
    rows[:, -3] = prefix[key]
    text = lo << 8
    text &= right_lo[key]
    text |= lo & left_lo[key]
    text |= marks_lo[key]
    rows[:, -2] = text
    lo >>= 56
    lo |= hi << 8
    lo &= right_hi[key]
    lo |= hi & left_hi[key]
    lo |= marks_hi[key]
    rows[:, -1] = lo
    bad = np.flatnonzero(~ok)
    if len(bad):
        text = "".join([("%.12g\n" % v).ljust(24, "\0") for v in w[bad].tolist()])
        rows[bad, -3:] = np.frombuffer(text.encode(), "<u8").reshape(-1, 3)
    return rows


def cmd_evaluate(args) -> int:
    if args.repeats < 1:
        raise ValueError(f"--repeats must be >= 1, got {args.repeats}")
    config = ForestConfig(n_trees=args.trees, seed=args.seed)
    variants = list(dict.fromkeys(args.variant))
    manifest = _load(args)
    name = Path(args.dataset).name
    _require_variants(manifest, variants)
    labels = manifest.labels
    if PHISHING_LABEL not in labels:
        raise ValueError(
            f"evaluate scores the F1 of the {PHISHING_LABEL!r} label, which no graph "
            f"has (labels: {', '.join(sorted(set(labels)))})"
        )
    # every split must keep each class on both sides (train_rows raises
    # otherwise), and each fusion is projected back to the tn width by a PCA
    # fitted on the training rows of every split; check both before any work
    n_train = train_rows(labels)
    pca_dim = len(FEATURE_NAMES)
    if variants:
        PCA(pca_dim).require_rows(n_train)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    tn = feature_matrix(manifest.graphs, labels, variant="tn")
    tn.to_csv(out / "features_tn.csv")
    tn_report = evaluate(
        tn, config, n_repeats=args.repeats, dataset_name=name, variant="tn"
    )
    _print_forest(tn_report)
    reports = [tn_report]
    for variant in variants:
        started = time.perf_counter()
        mapped = map_graphs(variant, manifest.graphs)
        print(
            f"map: variant={variant} graphs={len(mapped)} "
            f"edges={sum(t.edge_count for t in mapped)} "
            f"seconds={time.perf_counter() - started:.3f}"
        )
        mapped_matrix = feature_matrix(mapped, labels, variant=variant)
        mapped_matrix.to_csv(out / f"features_{variant}.csv")
        fused = concat_features(tn, mapped_matrix)
        report = evaluate(
            fused,
            config,
            n_repeats=args.repeats,
            pca_dim=pca_dim,
            dataset_name=name,
            variant=f"tn+{variant}",
        ).with_baseline(tn_report)
        _print_forest(report)
        reports.append(report)
    write_csv(
        out / "report.csv",
        ("dataset", "variant", "mean_f1", "std_f1", "n_repeats", "pct_increase_vs_tn", "seed"),
        (
            (r.dataset, r.variant, f"{r.mean_f1:.6f}", f"{r.std_f1:.6f}", r.n_repeats,
             None if r.pct_increase is None else f"{r.pct_increase:.4f}", r.seed)
            for r in reports
        ),
    )
    text = _render_report(reports)
    (out / "report.txt").write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0


def _print_forest(report: EvalReport) -> None:
    stats = report.forest
    print(
        f"{report.variant}: forests={stats.forests} passes={stats.passes} "
        f"nodes={stats.nodes} leaves={stats.leaves} fit_seconds={stats.fit_seconds:.3f} "
        f"predict_seconds={stats.predict_seconds:.3f}"
    )
    print(f"search: variant={report.variant} breaks={stats.breaks} scored={stats.scored}")


def _render_report(reports: list[EvalReport]) -> str:
    headers = ["dataset", "variant", "mean_f1", "std_f1", "repeats", "%increase", "seed"]
    table = [headers]
    for r in reports:
        table.append(
            [
                r.dataset,
                r.variant,
                f"{r.mean_f1:.4f}",
                f"{r.std_f1:.4f}",
                str(r.n_repeats),
                "-" if r.pct_increase is None else f"{r.pct_increase:+.2f}%",
                str(r.seed),
            ]
        )
    widths = [max(len(row[i]) for row in table) for i in range(len(headers))]
    return "\n".join("  ".join(v.ljust(w) for v, w in zip(row, widths)) for row in table)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tsgn",
        description="Transaction subgraph networks: synthesize, inspect, map, evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="write a synthetic labeled dataset directory")
    synth.add_argument("--profile", default="etherg1", choices=sorted(SIZE_PROFILES))
    synth.add_argument("--per-class", type=int, default=350)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--out", required=True)
    synth.set_defaults(func=cmd_synth)

    stats = sub.add_parser("stats", help="print dataset statistics for all tiers")
    stats.add_argument("--dataset", required=True)
    stats.add_argument("--form", default="net", choices=FORMS)
    stats.set_defaults(func=cmd_stats)

    transform = sub.add_parser("transform", help="write mapped subgraph networks")
    transform.add_argument("--dataset", required=True)
    transform.add_argument(
        "--variant", action="append", default=[], choices=VARIANTS,
        help="repeatable; one output directory per variant",
    )
    transform.add_argument("--tier", default="directed", choices=TIERS)
    transform.add_argument("--form", default="net", choices=FORMS)
    transform.add_argument("--out", required=True)
    # the benchmark's command lines still pass --threads; ROADMAP item 1 drops
    # it from them, then from here
    transform.add_argument("--threads", type=int, default=1, help=argparse.SUPPRESS)
    transform.set_defaults(func=cmd_transform)

    ev = sub.add_parser("evaluate", help="run the classification protocol")
    ev.add_argument("--dataset", required=True)
    ev.add_argument(
        "--variant", action="append", default=[], choices=VARIANTS,
        help="repeatable; each is fused with the original features",
    )
    ev.add_argument("--tier", default="directed", choices=TIERS)
    ev.add_argument("--form", default="net", choices=FORMS)
    ev.add_argument("--repeats", type=int, default=300)
    ev.add_argument("--seed", type=int, default=0)
    ev.add_argument("--trees", type=int, default=100)
    ev.add_argument("--out", required=True)
    # the benchmark's command lines still pass --threads; ROADMAP item 1 drops
    # it from them, then from here
    ev.add_argument("--threads", type=int, default=1, help=argparse.SUPPRESS)
    ev.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
