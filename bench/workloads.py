"""Benchmark workloads and the seeded dataset generator they share.

The generator is the benchmark's own and writes the documented dataset
directory format (``labels.csv`` plus one ``src,dst,amount,timestamp`` CSV per
graph), so the inputs do not change when the program's synthetic generator
does. It mirrors that generator's two archetypes: phishing-like inbound stars
with one outbound sweep, and benign-like nets with bidirectional,
time-interleaved transfers and neighbour trade.

Graph sizes do not come from the seed. Each class takes the same fixed
schedule of node counts, the evenly spaced quantiles of the size profile's
clipped normal. Feature cost grows roughly with the cube of the node count,
so on a few dozen etherg3 graphs a seeded size draw alone moves the run time
by a factor of two or more between seeds. Likewise the two rare shapes that
make the classes overlap (a phishing graph with one victim-to-victim
transfer, a benign graph with a single neighbour trade) go to a fixed number
of graphs per class, chosen by the seed, instead of to a seeded coin flip
per graph; with a binomial count the tn F1 of etherg1 moves by about one
point between seeds. The seed drives everything else: which graphs get the
rare shapes, directions, amounts, timestamps, repeat transfers, neighbour
trade and record order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist


@dataclass(frozen=True)
class SizeProfile:
    mean_nodes: float
    spread: float
    min_nodes: int
    max_nodes: int


# The same node-count profiles as the program's etherg1 and etherg3.
PROFILES = {
    "etherg1": SizeProfile(7, 2.0, 4, 13),
    "etherg3": SizeProfile(96, 40.0, 10, 400),
}


@dataclass(frozen=True)
class Workload:
    profile: str
    per_class: int
    # CLI argument lists; "{data}", "{out}" and "{seed}" are filled in per round.
    commands: tuple[tuple[str, ...], ...]
    # evaluate only: graphs per features_*.csv whose features are recomputed
    feature_sample: int = 0
    # evaluate only: floor on the expected tn F1, or None for no floor
    tn_f1_floor: float | None = None


WORKLOADS = {
    "etherg1-evaluate": Workload(
        profile="etherg1",
        per_class=350,
        commands=(
            ("evaluate", "--dataset", "{data}", "--tier", "directed", "--variant", "ttsgn",
             "--repeats", "8", "--trees", "100", "--seed", "{seed}", "--threads", "1",
             "--out", "{out}"),
        ),
        feature_sample=50,
        tn_f1_floor=0.95,
    ),
    "etherg3-multiedge-evaluate": Workload(
        profile="etherg3",
        per_class=6,
        commands=(
            ("evaluate", "--dataset", "{data}", "--tier", "multiedge", "--variant", "tsgn",
             "--variant", "mtsgn", "--repeats", "4", "--trees", "100", "--seed", "{seed}",
             "--threads", "1", "--out", "{out}"),
        ),
        feature_sample=4,
    ),
    "etherg3-transform": Workload(
        profile="etherg3",
        per_class=50,
        commands=(
            ("transform", "--dataset", "{data}", "--tier", "directed", "--variant", "tsgn",
             "--variant", "dtsgn", "--variant", "ttsgn", "--threads", "1", "--out", "{out}"),
            ("transform", "--dataset", "{data}", "--tier", "multiedge", "--variant", "mtsgn",
             "--threads", "1", "--out", "{out}"),
        ),
    ),
}


def size_schedule(profile: SizeProfile, count: int) -> list[int]:
    """Node counts at the evenly spaced quantiles of the clipped normal profile."""
    dist = NormalDist(profile.mean_nodes, profile.spread)
    sizes = [round(dist.inv_cdf((i + 0.5) / count)) for i in range(count)]
    return [max(profile.min_nodes, min(profile.max_nodes, n)) for n in sizes]


def _amount(rng: random.Random, lo: float, hi: float) -> int:
    """A transfer amount in millionths of a coin."""
    return round(rng.uniform(lo, hi) * 1_000_000)


def _phishing_rows(rng: random.Random, n: int, prefix: str, rare: bool):
    center = f"{prefix}c"
    neighbors = [f"{prefix}n{k}" for k in range(n - 1)]
    rows = []
    total = 0
    for v in neighbors[1:]:
        amount = _amount(rng, 0.01, 0.6)
        rows.append((v, center, amount))
        total += amount
        if rng.random() < 0.3:
            extra = _amount(rng, 0.005, 0.2)
            rows.append((v, center, extra))
            total += extra
    if rare:
        u, v = rng.sample(neighbors, 2)
        rows.append((u, v, _amount(rng, 0.01, 0.3)))
    rows.append((center, neighbors[0], total * 95 // 100))
    return center, rows


def _benign_rows(rng: random.Random, n: int, prefix: str, rare: bool):
    center = f"{prefix}c"
    neighbors = [f"{prefix}n{k}" for k in range(n - 1)]
    rows = []
    for v in neighbors:
        amount = _amount(rng, 0.05, 3.0)
        rows.append((v, center, amount) if rng.random() < 0.5 else (center, v, amount))
        if rng.random() < 0.25:
            src, dst, _ = rows[-1]
            rows.append((dst, src, _amount(rng, 0.05, 3.0)))
        if rng.random() < 0.15:
            src, dst, _ = rows[-1]
            rows.append((src, dst, _amount(rng, 0.05, 3.0)))
    for _ in range(1 if rare else 1 + (n - 1) // 3):
        u, v = rng.sample(neighbors, 2)
        # one trade in five is a zero-amount contract call
        amount = 0 if rng.random() < 0.2 else _amount(rng, 0.05, 1.5)
        rows.append((u, v, amount))
    rng.shuffle(rows)
    return center, rows


def write_dataset(workload: Workload, seed: int, out_dir: Path) -> None:
    """Write the workload's seeded dataset; the same seed gives the same bytes."""
    rng = random.Random(seed)
    sizes = size_schedule(PROFILES[workload.profile], workload.per_class)
    out_dir.mkdir(parents=True)
    # (label, address prefix, row maker, graphs eligible for the rare shape, its rate)
    classes = [
        ("phishing", "p", _phishing_rows, [k for k, n in enumerate(sizes) if n >= 5], 0.06),
        ("benign", "b", _benign_rows, list(range(len(sizes))), 0.10),
    ]
    labels = ["graph_id,center_address,label\n"]
    index = 0
    for label, tag, make_rows, eligible, rate in classes:
        rare = set(rng.sample(eligible, round(rate * len(eligible))))
        for k, n in enumerate(sizes):
            center, rows = make_rows(rng, n, f"{tag}{k}", k in rare)
            graph_id = f"graph_{index:04d}"
            lines = ["src,dst,amount,timestamp\n"]
            t = rng.randrange(1, 1000)
            for src, dst, amount in rows:
                t += rng.randrange(1, 50)
                lines.append(f"{src},{dst},{amount // 1_000_000}.{amount % 1_000_000:06d},{t}\n")
            (out_dir / f"{graph_id}.csv").write_text("".join(lines), encoding="utf-8")
            labels.append(f"{graph_id},{center},{label}\n")
            index += 1
    (out_dir / "labels.csv").write_text("".join(labels), encoding="utf-8")
