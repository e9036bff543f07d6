"""Benchmark entry point: one workload, seeded, for a fixed number of seconds.

    python3 bench/run.py --workload etherg1-evaluate --seed 1 --seconds 30 --trace 0

Run from the root of a checkout that holds ``src/tsgn``. The run repeats whole
rounds for about ``--seconds``. Each round is a fresh worker process
(``worker.py``) that writes the seeded dataset and runs the workload's CLI
commands. Every command is one operation. The first output of each command is
checked against computations made apart from the program (``checks.py``);
later rounds must reproduce it byte for byte, or are checked again. A command
that exits non-zero or fails a check counts as failed.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:
``wall_s`` and ``cpu_s`` as the mean over the rounds, ``setup_s`` and
``peak_rss_mb`` as the median. Where the CPU's speed drifts over tens of
seconds, round times cluster in a fast and a slow mode; the median of a few
rounds jumps between the modes, while the mean over the whole run follows the
run's average speed and spread less between runs (README.md). With ``--trace 1`` rounds alternate untraced and
traced, and it reports the per-layer metrics of the traced rounds plus
``trace.overhead_s``; the spans go to ``.bench_work/traces/``. Exits non-zero
without a result when the sources are missing or a worker crashes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import mean, median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
# Start no round that could push the run past this; a run must end within 180 s.
TIME_LIMIT_S = 150

from checks import check_features, check_report, check_transform  # noqa: E402
from tracing import SPAN_NAMES  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    **{f"{name}_s": "s" for name in SPAN_NAMES},
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_s": "s",
}


def run_round(workload: str, seed: int, round_dir: Path, deadline: float,
              trace_file: Path | None, round_index: int) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--dir", str(round_dir), "--round", str(round_index)]
    if trace_file is not None:
        cmd += ["--trace-file", str(trace_file)]
    launched = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - launched))
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"worker exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["started"] - launched
    return result


def _options(template) -> dict[str, list[str]]:
    opts: dict[str, list[str]] = {}
    for flag, value in zip(template, template[1:]):
        if flag.startswith("--"):
            opts.setdefault(flag[2:], []).append(value)
    return opts


def check_command(workload, index: int, data: Path, out: Path, seed: int) -> list[str]:
    template = workload.commands[index]
    opts = _options(template)
    tier, variants = opts["tier"][0], opts.get("variant", [])
    if template[0] == "transform":
        return check_transform(data, out, tier, variants)
    return check_features(data, out, tier, variants, seed, workload.feature_sample) + \
        check_report(out, data.name, variants, int(opts["repeats"][0]), seed,
                     workload.tn_f1_floor)


def digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out.rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(out)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "tsgn" / "cli.py").is_file():
        print(f"error: no tsgn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    begun = time.monotonic()
    work = WORK / f"{args.workload}-{os.getpid()}"
    trace_file = None
    if args.trace:
        trace_file = WORK / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
        trace_file.parent.mkdir(parents=True, exist_ok=True)
        trace_file.unlink(missing_ok=True)
    attempted = failed = 0
    correct = True
    reference: list[str | None] = [None] * len(workload.commands)
    rounds: dict[bool, list[dict]] = {False: [], True: []}  # keyed by traced
    try:
        index = 0
        while True:
            traced = bool(args.trace) and index % 2 == 1
            round_dir = work / f"round{index}"
            round_begun = time.monotonic()
            result = run_round(args.workload, args.seed, round_dir, begun + TIME_LIMIT_S + 20,
                               trace_file if traced else None, index)
            passed = True
            for i, code in enumerate(result["codes"]):
                attempted += 1
                out = round_dir / f"out{i}"
                if code != 0:
                    print(f"round {index} command {i}: exit code {code}", file=sys.stderr)
                    failed += 1
                    passed = False
                    continue
                output_digest = digest(out)
                if output_digest == reference[i]:
                    continue
                try:
                    problems = check_command(workload, i, round_dir / workload.profile, out,
                                             args.seed)
                except (OSError, ValueError, IndexError, KeyError, ZeroDivisionError) as exc:
                    problems = [f"unreadable output: {exc!r}"]
                for problem in problems[:20]:
                    print(f"round {index} command {i}: {problem}", file=sys.stderr)
                if problems:
                    failed += 1
                    correct = False
                    passed = False
                elif reference[i] is None:
                    reference[i] = output_digest
                else:
                    print(f"round {index} command {i}: output differs from the first "
                          "round but passes the checks", file=sys.stderr)
            if passed:
                rounds[traced].append(result)
            shutil.rmtree(round_dir)
            index += 1
            # Start another round only while it would end nearer to --seconds
            # than stopping now, and never one that could pass the time limit.
            now = time.monotonic()
            last = now - round_begun
            enough = now - begun + last / 2 >= args.seconds and (
                rounds[False] and (rounds[True] or not args.trace))
            if enough or now - begun + last > TIME_LIMIT_S:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = rounds[False]
    if not plain or (args.trace and not rounds[True]):
        print("error: no round passed, nothing to report", file=sys.stderr)
        return 1
    print(f"{args.workload} seed {args.seed}: {len(plain)} untraced, {len(rounds[True])} traced "
          f"rounds; wall_s {[round(r['wall_s'], 3) for r in plain]}", file=sys.stderr)
    if args.trace:
        traced_rounds = rounds[True]
        values = {name: median(r["layers"][name] for r in traced_rounds)
                  for name in PER_LAYER if name != "trace.overhead_s"}
        values["trace.overhead_s"] = (mean(r["wall_s"] for r in traced_rounds)
                                      - mean(r["wall_s"] for r in plain))
        units = PER_LAYER
    else:
        values = {name: aggregate(r[name] for r in plain)
                  for name, aggregate in (("wall_s", mean), ("cpu_s", mean),
                                          ("setup_s", median), ("peak_rss_mb", median))}
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
