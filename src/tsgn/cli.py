"""Command-line front end: synth -> stats -> transform -> evaluate.

All configuration comes from explicit flags (no environment variables), and
every command overwrites its outputs with identical bytes when rerun with an
identical config and seed, regardless of --threads. Timings are printed to
stdout only, never written into output files.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from .features import FEATURE_NAMES, PCA, concat_features, feature_matrix, ordered_map
from .graphs import TIERS, at_tier
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
from .transforms import BUILDERS, VARIANTS, TsgnGraph, require_attributes


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
    per_tier = {}
    for tier in TIERS:
        graphs = tuple(at_tier(g, tier) for g in loaded.graphs)
        manifest = DatasetManifest(graphs, loaded.form, tier, loaded.graph_ids)
        per_tier[tier] = dataset_stats(manifest)
    print(stats_table(name, args.form, per_tier))
    return 0


def cmd_transform(args) -> int:
    variants = list(dict.fromkeys(args.variant))  # drop repeats, keep order
    if not variants:
        return 0
    manifest = load_dataset(args.dataset, tier=args.tier, form=args.form)
    if "summary" in manifest.graph_ids:
        raise ValueError(f"{args.dataset}: graph id summary would name summary.csv")
    _require_variants(manifest, variants)
    out = Path(args.out)
    # map, write and drop a window of --threads graphs at a time, so memory
    # does not grow with the dataset
    window = max(1, args.threads)
    for variant in variants:
        builder = BUILDERS[variant]
        variant_dir = out / variant
        variant_dir.mkdir(parents=True, exist_ok=True)
        elapsed = 0.0
        summary = []
        for start in range(0, manifest.n_graphs, window):
            started = time.perf_counter()
            mapped = ordered_map(builder, manifest.graphs[start : start + window], args.threads)
            elapsed += time.perf_counter() - started
            for graph_id, t in zip(manifest.graph_ids[start : start + window], mapped):
                _write_mapped(variant_dir / f"{graph_id}.csv", t)
                summary.append((graph_id, t.node_count, t.edge_count))
        write_csv(variant_dir / "summary.csv", ("graph_id", "nodes", "edges"), summary)
        total_nodes = sum(nodes for _, nodes, _ in summary)
        total_edges = sum(edges for _, _, edges in summary)
        print(
            f"{variant}: graphs={len(summary)} nodes={total_nodes} "
            f"edges={total_edges} seconds={elapsed:.3f}"
        )
    return 0


def _write_mapped(path: Path, t: TsgnGraph) -> None:
    """One mapped edge list, ``from_tx,to_tx,weight`` by edge id, in one write.

    Plain lines, not write_csv: every field is a number, so none ever needs
    quoting, and these files are most of transform's output, where csv.writer
    costs about twice as much per row. The lines come from one ``%`` over the
    line template repeated once per edge, fed the fields edge by edge.
    """
    fields = np.empty((t.edge_count, 3), dtype=object)
    fields[:, :2] = np.array(list(map(str, range(t.node_count))), dtype=object)[t.edges]
    fields[:, 2] = t.weights.tolist()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("from_tx,to_tx,weight\n" + "%s,%s,%.12g\n" * t.edge_count % tuple(fields.flat))


def cmd_evaluate(args) -> int:
    if args.repeats < 1:
        raise ValueError(f"--repeats must be >= 1, got {args.repeats}")
    variants = list(dict.fromkeys(args.variant))
    manifest = load_dataset(args.dataset, tier=args.tier, form=args.form)
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
    config = ForestConfig(n_trees=args.trees, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    tn = feature_matrix(manifest.graphs, labels, variant="tn")
    tn.to_csv(out / "features_tn.csv")
    tn_report = evaluate(
        tn, config, n_repeats=args.repeats, dataset_name=name, variant="tn"
    )
    reports = [tn_report]
    for variant in variants:
        mapped = ordered_map(BUILDERS[variant], manifest.graphs, args.threads)
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
    transform.add_argument("--threads", type=int, default=1)
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
    ev.add_argument("--threads", type=int, default=1)
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
