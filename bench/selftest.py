"""Test of the output checks: each must pass a real output and reject a
corrupted copy of it, so a check that can never fail shows up.

    python3 bench/selftest.py

Runs one round of every workload on seed 1, checks the real outputs, then
checks copies with one mapped edge dropped, one recomputed feature value
perturbed by 1e-3, or one mean F1 altered. Exits non-zero when a real output
is rejected or a corrupted copy passes. Takes about half a minute.
"""

from __future__ import annotations

import csv
import os
import shutil
import sys
import time
from pathlib import Path

from checks import FEATURES, feature_sample
from run import TIME_LIMIT_S, WORK, check_command, run_round
from workloads import WORKLOADS

SEED = 1


def _rewrite_csv(path: Path, edit) -> None:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def drop_edge(out: Path, workload) -> None:
    """Delete the last edge of the first dtsgn edge file that has one."""
    path = next(p for p in sorted((out / "dtsgn").glob("graph_*.csv"))
                if len(p.read_text().splitlines()) > 1)
    _rewrite_csv(path, lambda rows: rows.pop())


def perturb_feature(name: str, column: str):
    """Add 1e-3 to one feature of the first row the feature check samples."""
    def corrupt(out: Path, workload) -> None:
        def edit(rows):
            row = feature_sample(len(rows) - 1, SEED, workload.feature_sample)[0] + 1
            col = FEATURES.index(column)
            rows[row][col] = repr(float(rows[row][col]) + 1e-3)
        _rewrite_csv(out / f"features_{name}.csv", edit)
    return corrupt


def alter_f1(out: Path, workload) -> None:
    """Add 0.001 to the mean F1 of the first fused variant."""
    def edit(rows):
        rows[2][2] = f"{float(rows[2][2]) + 0.001:.6f}"
    _rewrite_csv(out / "report.csv", edit)


CORRUPTIONS = {
    "etherg3-transform": [("one mapped edge dropped", drop_edge)],
    "etherg1-evaluate": [
        ("one tn feature perturbed by 1e-3", perturb_feature("tn", "average_clustering")),
        ("one ttsgn feature perturbed by 1e-3",
         perturb_feature("ttsgn", "average_betweenness")),
        ("one F1 value altered", alter_f1),
    ],
    "etherg3-multiedge-evaluate": [
        ("one tsgn feature perturbed by 1e-3", perturb_feature("tsgn", "largest_eigenvalue")),
    ],
}


def main() -> int:
    work = WORK / f"selftest-{os.getpid()}"
    failures = []
    try:
        for name, corruptions in CORRUPTIONS.items():
            workload = WORKLOADS[name]
            round_dir = work / name
            result = run_round(name, SEED, round_dir, time.monotonic() + TIME_LIMIT_S, None, 0)
            data = round_dir / workload.profile
            for i, code in enumerate(result["codes"]):
                problems = check_command(workload, i, data, round_dir / f"out{i}", SEED)
                if code or problems:
                    failures.append(f"{name} command {i}: exit code {code}, {problems[:3]}")
            for label, corrupt in corruptions:
                copy = round_dir / "corrupted"
                shutil.rmtree(copy, ignore_errors=True)
                shutil.copytree(round_dir / "out0", copy)
                corrupt(copy, workload)
                problems = check_command(workload, 0, data, copy, SEED)
                print(f"{name}: {label}: {'rejected' if problems else 'PASSED'}"
                      f"{': ' + problems[0] if problems else ''}")
                if not problems:
                    failures.append(f"{name}: {label} passed the checks")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
