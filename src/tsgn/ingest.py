"""Loading exported transaction records, ego-network extraction, synthetic
dataset generation, and dataset statistics.

On-disk dataset layout: one directory per dataset holding one edge-list CSV
per graph plus a ``labels.csv`` (graph_id, center_address, label). Record
files carry the columns src, dst, amount (decimal string: 0, or from
MIN_AMOUNT to MAX_AMOUNT) and timestamp (integer seconds within int64; the
field may be empty and the column absent).

Both kinds of file go through one CSV reader, _read_csv, under the same
rules: UTF-8 with or without a leading byte-order mark, the header checked
before any other row is read, blank lines skipped, and each row shorter
than the header, or a field over the csv module's limit, named by the file
line it ends on. Only the column checks and their messages differ.

load_dataset reads every record file of a dataset into one set of columns,
a GraphBatch, and runs each step once over all of it: the field checks and
the self-loop drop, each file's node numbering as one sort on (file,
address), the ego cut as masks, and the tier's collapse as one sort. Each
graph is then a slice of those columns. load_edge_list and
extract_ego_network run the same code on a dataset of one file and a batch
of one graph. No record object is built on the way to the mappings, and
edge ids are record positions.
"""

from __future__ import annotations

import csv
import logging
import re
import sys
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field, replace
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from itertools import chain, compress
from operator import itemgetter
from pathlib import Path
from typing import Sequence

import numpy as np

from .graphs import TIERS, GraphBatch, TransactionGraph, batch_at_tier, check_choice

logger = logging.getLogger(__name__)

FORMS = ("star", "net")
PHISHING_LABEL = "phishing"
BENIGN_LABEL = "benign"

# Amounts are mapped as floats. An amount must be 0 or lie between these
# bounds, so the mean of any two is a finite float, positive unless both are
# 0, and its log exists.
MIN_AMOUNT = sys.float_info.min  # the least normal float
MAX_AMOUNT = sys.float_info.max / 2


def _parse_amount(raw: str) -> Decimal | str:
    """A stripped amount field -> its Decimal, or the reason it is malformed.

    The grammar is Decimal's in ASCII without underscores: an optional sign,
    digits with at most one point, and an optional exponent (``7e-3``).
    NaN and infinities parse but are refused, as are amounts outside the
    bounds, which hold for float(raw), the float(Decimal(raw)) mapped."""
    try:
        if not raw.isascii() or "_" in raw:
            raise InvalidOperation
        amount = Decimal(raw)
    except InvalidOperation:
        return f"unparseable amount {raw!r}"
    if not amount.is_finite():
        return f"non-finite amount {raw!r}"
    if amount < 0:
        return f"negative amount {raw}"
    value = float(raw)
    if value > MAX_AMOUNT:
        return f"amount {raw} above {MAX_AMOUNT!r}"
    if value < MIN_AMOUNT and amount:
        return f"nonzero amount {raw} below {MIN_AMOUNT!r}"
    return amount


_STAMP = re.compile(r"[+-]?[0-9]+")


def _parse_stamp(raw: str) -> int | None | str:
    """A stripped timestamp field -> its int, None when empty, or the reason
    it is malformed. The grammar is an optional sign and ASCII digits."""
    if not raw:
        return None
    if not _STAMP.fullmatch(raw):
        return f"unparseable timestamp {raw!r}"
    stamp = int(raw)
    return stamp if -(2**63) <= stamp < 2**63 else f"timestamp {raw} outside int64"


RECORD_COLUMNS = ("src", "dst", "amount", "timestamp")


def _refuse_repeats(header: list[str], names: Sequence[str], where) -> None:
    """Raise ValueError naming every one of ``names`` that ``header`` repeats:
    its field would be read from one copy and the other ignored."""
    repeated = [c for c in names if header.count(c) > 1]
    if repeated:
        raise ValueError(f"{where}: repeated column(s) {', '.join(repeated)}")


def _read_csv(
    path: Path, check
) -> tuple[list[str], list[list[str]], list[int], list[tuple[int, str]]]:
    """A CSV file's header, its rows as long as the header or longer with the
    file line each ends on, and a (line, reason) for each shorter row. Blank
    lines are skipped.

    ``check(header)`` runs on the first row (None for an empty file) before
    any other row is read, and raises to refuse it. A leading byte-order
    mark, as spreadsheet programs write, is not part of the first column
    name. A file the csv module cannot read, such as one with a field over
    ``csv.field_size_limit()``, raises a ValueError naming the line it was on.
    """
    rows, lines, short = [], [], []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            check(header)
            for row in reader:
                if len(row) >= len(header):
                    lines.append(reader.line_num)
                    rows.append(row)
                elif row:
                    reason = f"{len(row)} field(s) for {len(header)} columns"
                    short.append((reader.line_num, reason))
        except csv.Error as exc:
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    return header, rows, lines, short


def _read_file(path: Path) -> tuple[list[list[str]], list[int], list[tuple[int, str]]]:
    """One record CSV's stripped fields by column (src and dst lowercased,
    amount, and timestamp: "" where the file has no timestamp column), the
    file line each row ends on, and a (line, reason) for each row shorter
    than the header, as _read_csv reads them."""
    def check(header):
        if header is None:
            raise ValueError(f"{path}: empty file")
        missing = [c for c in RECORD_COLUMNS[:3] if c not in header]
        if missing:
            raise ValueError(f"{path}: missing mandatory column(s) {missing}")
        _refuse_repeats(header, RECORD_COLUMNS, path)

    header, rows, lines, short = _read_csv(path, check)
    fields = [
        list(map(str.strip, map(itemgetter(header.index(name)), rows)))
        if name in header else [""] * len(rows)
        for name in RECORD_COLUMNS
    ]
    # one object per distinct address, not one per field
    fields[0], fields[1] = (list(map(sys.intern, map(str.lower, f))) for f in fields[:2])
    return fields, lines, short


def _read_records(paths: Sequence[Path]) -> tuple[GraphBatch, dict[int, Exception], int, int]:
    """Parse record files into one multiedge batch of graphs with no center,
    graph ``i`` holding the records of ``paths[i]``.

    Returns the batch, the exception that fails each bad file by its
    position, the count of rows read and the count of self-loops dropped. A
    bad file's graph has no records. Fields are checked over every file at
    once: addresses are stripped and lowercased, each distinct amount is
    parsed once, and timestamps must fit int64; every malformed row of a file
    is named by the line it ends on. Each file's self-loops are dropped with
    a logged warning. Nodes are numbered per file in one sort on (file,
    address), and edge ids number a file's kept records in file order.
    """
    failures: dict[int, Exception] = {}
    columns: list[list[str]] = [[], [], [], []]
    lines: list[int] = []
    counts: list[int] = []
    short: list[list[tuple[int, str]]] = []
    for i, path in enumerate(paths):
        try:
            fields, numbers, problems = _read_file(path)
        except (ValueError, OSError) as exc:
            failures[i] = exc
            fields, numbers, problems = [[]] * 4, [], []
        for column, values in zip(columns, fields):
            column.extend(values)
        lines.extend(numbers)
        counts.append(len(numbers))
        short.append(problems)
    graph = np.repeat(np.arange(len(paths)), counts)
    srcs, dsts, raw_amounts, raw_stamps = columns
    parsed = {raw: _parse_amount(raw) for raw in set(raw_amounts)}
    amounts = list(map(parsed.__getitem__, raw_amounts))
    stamps = list(map(_parse_stamp, raw_stamps))
    malformed = str in set(map(type, parsed.values())) or str in set(map(type, stamps))
    del columns, raw_amounts, raw_stamps, parsed  # free the raw fields before numbering
    if malformed or any(short) or "" in srcs or "" in dsts:
        for i, line, src, dst, amount, stamp in zip(
            graph.tolist(), lines, srcs, dsts, amounts, stamps
        ):
            if not src or not dst:
                short[i].append((line, "missing src or dst address"))
            elif isinstance(amount, str) or isinstance(stamp, str):
                short[i].append((line, amount if isinstance(amount, str) else stamp))
        for i, problems in enumerate(short):
            if problems:
                listed = "; ".join(f"line {n}: {p}" for n, p in sorted(problems))
                failures[i] = ValueError(f"{paths[i]}: malformed rows: {listed}")
    names = sorted({*srcs, *dsts})
    width = max(len(names), 1)
    code = dict(zip(names, range(len(names))))
    m = len(srcs)
    ends = np.fromiter(map(code.__getitem__, chain(srcs, dsts)), np.intp, 2 * m).reshape(2, m)
    good = ~np.isin(graph, list(failures))
    loops = good & (ends[0] == ends[1])
    dropped = np.bincount(graph[loops], minlength=len(paths))
    for i in np.flatnonzero(dropped).tolist():
        logger.warning("%s: dropped %d self-loop transaction(s)", paths[i], dropped[i])
    keep = good & ~loops
    # one sort on (file, address) numbers each file's addresses in order
    graph = graph[keep]
    key, position = np.unique((graph * width + ends[:, keep]).ravel(), return_inverse=True)
    src, dst = position.reshape(2, -1)
    kept = keep.tolist()
    stamps = list(compress(stamps, kept))
    batch = GraphBatch(
        names=list(map(names.__getitem__, (key % width).tolist())),
        node_offsets=np.searchsorted(key // width, np.arange(len(paths) + 1)),
        offsets=np.searchsorted(graph, np.arange(len(paths) + 1)),
        src=src,
        dst=dst,
        stamps=np.array([t or 0 for t in stamps], dtype=np.int64),
        timed=np.array([t is not None for t in stamps], dtype=bool),
        decimals=np.fromiter(compress(amounts, kept), object, len(stamps)),
        tier="multiedge",
        centers=(None,) * len(paths),
        labels=(None,) * len(paths),
    )
    return batch, failures, m, int(loops.sum())


def load_edge_list(path) -> TransactionGraph:
    """Parse a CSV export into the columns of one multiedge graph with no center.

    Addresses are lowercased, self-loops are dropped with a logged warning,
    and malformed rows raise a ValueError listing every offending row by the
    file line it ends on. Blank lines are skipped. A file of a dataset runs
    the same code as the whole dataset: see _read_records. Edge ids number
    the kept records in file order.
    """
    batch, failures, _, _ = _read_records([Path(path)])
    if failures:
        raise failures[0]
    return batch.graphs()[0]


def _cut(
    b: GraphBatch, targets: Sequence[str], form: str, tier: str
) -> tuple[GraphBatch, dict[int, str]]:
    """The ego-net of ``targets[i]`` cut from graph ``i`` of a batch, each at
    ``tier``, with the reason each graph whose target is in none of its
    records fails; such a graph keeps no records. See extract_ego_network."""
    check_choice("form", form, FORMS)
    targets = tuple(t.strip().lower() for t in targets)
    names, nodes = b.names, b.node_offsets.tolist()
    at = np.array([
        bisect_left(names, t, nodes[i], nodes[i + 1]) for i, t in enumerate(targets)
    ], dtype=np.intp)
    found = np.array([
        j < nodes[i + 1] and names[j] == t for i, (j, t) in enumerate(zip(at.tolist(), targets))
    ], dtype=bool)
    target = np.where(found, at, -1)[b.graph_of_record]
    incident = (b.src == target) | (b.dst == target)
    # each target and its neighbours: the endpoints of its records
    near = np.zeros(len(names), dtype=bool)
    near[b.src[incident]] = near[b.dst[incident]] = True
    found[found] = near[at[found]]
    failures = {
        i: f"target {targets[i]!r} does not appear in any record"
        for i in np.flatnonzero(~found).tolist()
    }
    keep = near[b.src] & near[b.dst] if form == "net" else incident
    position = np.cumsum(near) - 1
    cut = b.take(
        keep,
        names=list(compress(names, near.tolist())),
        node_offsets=np.cumsum(np.concatenate([[0], near]))[b.node_offsets],
        src=position[b.src[keep]],
        dst=position[b.dst[keep]],
        centers=targets,
    )
    return batch_at_tier(cut, tier), failures


def extract_ego_network(
    records: TransactionGraph,
    target: str,
    form: str = "star",
    tier: str = "directed",
) -> TransactionGraph:
    """Cut the 1-hop ego-network of ``target`` out of a graph's records.

    Star form keeps only transactions incident to the target; net form also
    keeps transactions between the target's 1-hop neighbors. Both cuts are
    masks over the record columns, and the kept records keep their order and
    the tier of ``records``. The tier then decides how much edge structure
    survives, as in at_tier: plain collapses to an undirected simple graph,
    directed keeps one record per ordered pair, multiedge keeps every
    parallel record with its timestamp. A graph runs the same code as a
    whole dataset: see _cut.
    """
    cut, failures = _cut(GraphBatch.of([records]), [target], form, tier)
    if failures:
        raise ValueError(failures[0])
    return cut.graphs()[0]


@dataclass(frozen=True)
class DatasetManifest:
    """A collection of labeled transaction graphs, each carrying its tier,
    and their ids."""

    graphs: tuple[TransactionGraph, ...]
    # one id per graph, as in labels.csv; empty means numbered_graph_ids
    graph_ids: tuple[str, ...] = ()
    # what load_dataset read: the rows of the record files and the self-loops
    # it dropped among them; 0 for a manifest built in memory
    records: int = field(default=0, compare=False)
    self_loops: int = field(default=0, compare=False)

    def __post_init__(self):
        if not self.graph_ids:
            object.__setattr__(self, "graph_ids", numbered_graph_ids(len(self.graphs)))
        if len(self.graph_ids) != len(self.graphs):
            raise ValueError(
                f"got {len(self.graph_ids)} graph ids for {len(self.graphs)} graphs"
            )
        unlabeled = [i for i, g in zip(self.graph_ids, self.graphs) if g.label is None]
        if unlabeled:
            raise ValueError(f"every graph in a manifest must be labeled: {', '.join(unlabeled)}")

    @property
    def labels(self) -> list[str]:
        return [g.label for g in self.graphs]

    @property
    def n_graphs(self) -> int:
        return len(self.graphs)


def numbered_graph_ids(n: int) -> tuple[str, ...]:
    """``graph_0000``, ``graph_0001``, ...: the ids of a manifest built without
    ids, zero-padded to at least four digits."""
    width = max(4, len(str(max(n - 1, 0))))
    return tuple(f"graph_{i:0{width}d}" for i in range(n))


@dataclass(frozen=True)
class SizeProfile:
    mean_nodes: int
    spread: float
    min_nodes: int
    max_nodes: int


# Node-count profiles shaped to the published dataset statistics. etherg3's
# max is capped so desk-scale runs stay tractable.
SIZE_PROFILES = {
    "etherg1": SizeProfile(mean_nodes=7, spread=2.0, min_nodes=4, max_nodes=13),
    "etherg2": SizeProfile(mean_nodes=14, spread=4.5, min_nodes=5, max_nodes=33),
    "etherg3": SizeProfile(mean_nodes=96, spread=40.0, min_nodes=10, max_nodes=400),
}


def _draw_size(rng: np.random.Generator, profile: SizeProfile) -> int:
    n = int(round(rng.normal(profile.mean_nodes, profile.spread)))
    return max(profile.min_nodes, min(profile.max_nodes, n))


def _with_timestamps(rng: np.random.Generator, rows):
    """Attach strictly increasing timestamps in row order (no ties by construction)."""
    t = int(rng.integers(1, 1000))
    out = []
    for src, dst, amount in rows:
        t += int(rng.integers(1, 50))
        out.append((src, dst, amount, t))
    return out


def _amt(rng: np.random.Generator, lo: float, hi: float) -> Decimal:
    return Decimal(str(round(float(rng.uniform(lo, hi)), 6)))


def _phishing_rows(rng: np.random.Generator, n: int, prefix: str):
    """Inbound-star archetype: many small transfers in, one large sweep out.

    A small minority of graphs get one transfer between victims, so the plain
    topology overlaps with sparse benign nets and direction/time information
    stays genuinely useful.
    """
    center = f"{prefix}c"
    neighbors = [f"{prefix}n{k}" for k in range(n - 1)]
    cashout = neighbors[0]
    rows = []
    total = Decimal(0)
    for v in neighbors[1:]:
        amount = _amt(rng, 0.01, 0.6)
        rows.append((v, center, amount))
        total += amount
        if rng.random() < 0.3:
            extra = _amt(rng, 0.005, 0.2)
            rows.append((v, center, extra))
            total += extra
    if n >= 5 and rng.random() < 0.06:
        u, v = rng.choice(len(neighbors), size=2, replace=False)
        rows.append((neighbors[int(u)], neighbors[int(v)], _amt(rng, 0.01, 0.3)))
    rows.append((center, cashout, (total * Decimal("0.95")).quantize(Decimal("0.000001"))))
    return center, rows


def _benign_rows(rng: np.random.Generator, n: int, prefix: str):
    """Net archetype: bidirectional, time-interleaved transfers plus neighbor trade."""
    center = f"{prefix}c"
    neighbors = [f"{prefix}n{k}" for k in range(n - 1)]
    rows = []
    for v in neighbors:
        amount = _amt(rng, 0.05, 3.0)
        if rng.random() < 0.5:
            rows.append((v, center, amount))
        else:
            rows.append((center, v, amount))
        if rng.random() < 0.25:
            src, dst, _ = rows[-1]
            rows.append((dst, src, _amt(rng, 0.05, 3.0)))
        if rng.random() < 0.15:
            src, dst, _ = rows[-1]
            rows.append((src, dst, _amt(rng, 0.05, 3.0)))
    if rng.random() < 0.1:
        extra = 1  # sparse minority, nearly star-shaped
    else:
        extra = 1 + (n - 1) // 3
    if len(neighbors) >= 2:
        for _ in range(extra):
            u, v = rng.choice(len(neighbors), size=2, replace=False)
            rows.append((neighbors[int(u)], neighbors[int(v)], _amt(rng, 0.05, 1.5)))
    order = rng.permutation(len(rows))
    return center, [rows[i] for i in order]


def generate_synthetic_dataset(
    profile: str = "etherg1",
    n_per_class: int = 350,
    seed: int = 0,
    tier: str = "multiedge",
) -> DatasetManifest:
    """Two-class labeled dataset standing in for the unreleased labeled data.

    Phishing-like graphs are star-dominant with many small inbound transfers
    followed by one large outbound sweep; benign-like graphs are net-form
    with bidirectional, time-interleaved transfers. Sizes follow the chosen
    profile. Deterministic: identical (profile, n_per_class, seed, tier)
    yields an identical manifest.
    """
    if n_per_class < 1:
        raise ValueError("n_per_class must be >= 1")
    if profile not in SIZE_PROFILES:
        raise ValueError(f"unknown profile {profile!r}; expected one of {sorted(SIZE_PROFILES)}")
    size = SIZE_PROFILES[profile]
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
    graphs = []
    for label, archetype, prefix in ((PHISHING_LABEL, _phishing_rows, "p"),
                                     (BENIGN_LABEL, _benign_rows, "b")):
        for gid in range(n_per_class):
            center, rows = archetype(rng, _draw_size(rng, size), f"{prefix}{gid}")
            stamped = _with_timestamps(rng, rows)
            graphs.append(TransactionGraph.build(stamped, center, tier="multiedge", label=label))
    return DatasetManifest(tuple(batch_at_tier(GraphBatch.of(graphs), tier).graphs()))


@dataclass(frozen=True)
class DatasetStats:
    """Table-row statistics for one manifest at one tier; means are exact."""

    n_graphs: int
    n_largest_class: int
    n_classes: int
    mean_nodes: Fraction
    max_nodes: int
    mean_edges: Fraction
    max_edges: int


def dataset_stats(manifest: DatasetManifest) -> DatasetStats:
    """Per-manifest statistics; edge counts are for the graphs' tiers."""
    if not manifest.graphs:
        raise ValueError("empty manifest")
    node_counts = [g.node_count for g in manifest.graphs]
    edge_counts = [g.edge_count for g in manifest.graphs]
    class_sizes = Counter(manifest.labels)
    return DatasetStats(
        n_graphs=len(manifest.graphs),
        n_largest_class=max(class_sizes.values()),
        n_classes=len(class_sizes),
        mean_nodes=Fraction(sum(node_counts), len(node_counts)),
        max_nodes=max(node_counts),
        mean_edges=Fraction(sum(edge_counts), len(edge_counts)),
        max_edges=max(edge_counts),
    )


def stats_table(name: str, form: str, per_tier: dict[str, DatasetStats]) -> str:
    """Aligned text table, one row per dataset with per-tier edge columns in
    ``per_tier`` order; means are rounded to the nearest integer."""
    headers = ["Dataset", "Form", "N_G", "#C_max", "N_C", "#N", "max#N"]
    base = next(iter(per_tier.values()))
    row = [
        name,
        form,
        str(base.n_graphs),
        str(base.n_largest_class),
        str(base.n_classes),
        str(round(base.mean_nodes)),
        str(base.max_nodes),
    ]
    for tier, stats in per_tier.items():
        headers += [f"#E({tier})", f"max#E({tier})"]
        row += [str(round(stats.mean_edges)), str(stats.max_edges)]
    widths = [max(len(h), len(v)) for h, v in zip(headers, row)]
    head = "  ".join(h.rjust(w) for h, w in zip(headers, widths))
    body = "  ".join(v.rjust(w) for v, w in zip(row, widths))
    return head + "\n" + body


def write_csv(path, header: Sequence, rows) -> None:
    """Write ``header`` then ``rows`` as CSV with "\n" line ends.

    Fields holding a comma, a quote or a line break are quoted, so every file
    reads back field for field; None is written as an empty field.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        # csv.writer may quote only the line-end characters of its own
        # lineterminator, so a row holding a "\r" has every field quoted
        quote_all = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
        writer.writerow(header)
        for row in rows:
            has_cr = any(isinstance(f, str) and "\r" in f for f in row)
            (quote_all if has_cr else writer).writerow(row)


LABELS_HEADER = ("graph_id", "center_address", "label")


def _check_graph_ids(graph_ids: Sequence[str], where) -> None:
    """Raise ValueError naming every id that is repeated or is not a bare file
    name: ids name the files that save_dataset and transform write, the empty
    id would name the hidden file ``.csv``, and ``labels`` would name
    labels.csv."""
    counts = Counter(graph_ids)
    bad = [i for i, n in counts.items() if n > 1 or not i or Path(i).name != i or i == "labels"]
    if bad:
        names = ", ".join(i or '""' for i in bad)
        raise ValueError(f"{where}: graph ids must be unique file names: {names}")


def _reload_problem(g: TransactionGraph) -> str | None:
    """Why the files save_dataset writes for ``g`` would not load back into
    it, by load_dataset's own rules, or None when they would."""
    if g.center is None:
        return "no center address"
    changed = sorted({a for a in (*g.nodes, g.center) if not a or a != a.strip().lower()})
    if changed:
        return f"addresses {', '.join(map(repr, changed))} do not load back as written"
    parsed = map(_parse_amount, set(map(str, g.decimals)))
    malformed = sorted(reason for reason in parsed if isinstance(reason, str))
    if malformed:
        return ", ".join(malformed)
    records = g.take(g.src != g.dst, tier="multiedge")  # load drops self-loops
    try:
        cut = extract_ego_network(records, g.center, "net", g.tier)
    except ValueError as exc:
        return str(exc)
    if (cut.nodes, cut.edge_count) != (g.nodes, g.edge_count):
        kept = f"{cut.edge_count} of {g.edge_count} records"
        return f"loads back with {kept} and {cut.node_count} of {g.node_count} addresses"
    if not (np.array_equal(cut.src, g.src) and np.array_equal(cut.dst, g.dst)):
        return "loads back with its records in another order or direction"
    return None


def save_dataset(manifest: DatasetManifest, out_dir) -> Path:
    """Write a manifest as a dataset directory (graph CSVs + labels.csv), each
    graph's file named by its id. Bad ids, and graphs that load_dataset at
    their tier and the net form would refuse or change, fail before anything
    is written, with one ValueError naming every such graph and its reason."""
    out = Path(out_dir)
    _check_graph_ids(manifest.graph_ids, out)
    named = list(zip(manifest.graph_ids, manifest.graphs))
    bad = [f"{graph_id}: {reason}" for graph_id, g in named if (reason := _reload_problem(g))]
    if bad:
        raise ValueError(f"{out}: {len(bad)} graph(s) would not load back: " + "; ".join(bad))
    out.mkdir(parents=True, exist_ok=True)
    for graph_id, g in named:
        name = g.nodes.__getitem__
        stamps = [t if timed else None for t, timed in zip(g.stamps.tolist(), g.timed.tolist())]
        write_csv(
            out / f"{graph_id}.csv",
            ("src", "dst", "amount", "timestamp"),
            zip(map(name, g.src.tolist()), map(name, g.dst.tolist()), g.decimals.tolist(), stamps),
        )
    write_csv(out / "labels.csv", LABELS_HEADER, ((i, g.center, g.label) for i, g in named))
    return out


def load_dataset(path, tier: str = "multiedge", form: str = "net") -> DatasetManifest:
    """Load a dataset directory at the requested attribute tier and form.

    An unknown tier or form fails before labels.csv is read. A labels.csv
    row shorter than its header fails before any record file is read, with
    one ValueError naming every such row by its file line. A graph whose
    record file is missing or malformed, or whose center is in none of its
    records, does not stop the load: one ValueError then names every such
    graph with its reason.
    """
    check_choice("tier", tier, TIERS)
    check_choice("form", form, FORMS)
    root = Path(path)
    labels_path = root / "labels.csv"
    if not labels_path.is_file():
        raise ValueError(f"{root}: not a dataset directory (labels.csv missing)")

    def check(header):
        missing = [c for c in LABELS_HEADER if c not in (header or ())]
        if missing:
            raise ValueError(f"{labels_path}: missing column(s) {', '.join(missing)}")
        _refuse_repeats(header, LABELS_HEADER, labels_path)

    header, rows, _, short = _read_csv(labels_path, check)
    if short:
        listed = "; ".join(f"line {n}: {p}" for n, p in short)
        raise ValueError(f"{labels_path}: malformed rows: {listed}")
    entries = sorted(map(itemgetter(*map(header.index, LABELS_HEADER)), rows), key=itemgetter(0))
    if not entries:
        raise ValueError(f"{root}: labels.csv lists no graphs")
    graph_ids = tuple(graph_id for graph_id, _, _ in entries)
    _check_graph_ids(graph_ids, labels_path)
    records, failures, n_records, n_loops = _read_records([root / f"{i}.csv" for i in graph_ids])
    cut, absent = _cut(records, [center for _, center, _ in entries], form, tier)
    for i, reason in absent.items():
        failures.setdefault(i, reason)
    if failures:
        listed = "; ".join(f"{graph_ids[i]}: {failures[i]}" for i in sorted(failures))
        raise ValueError(f"{root}: {len(failures)} graph(s) failed to load: {listed}")
    graphs = replace(cut, labels=tuple(label for _, _, label in entries)).graphs()
    return DatasetManifest(tuple(graphs), graph_ids, records=n_records, self_loops=n_loops)
