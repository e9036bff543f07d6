"""One benchmark round in a fresh process.

Writes the workload's seeded dataset, then runs the workload's ``tsgn`` CLI
commands in this process through ``tsgn.cli.main`` and prints one JSON line:
the monotonic time the timed section started (the parent takes set-up time
from it), the section's wall and CPU seconds, this process's peak resident
memory at the end of the section, each command's exit code and, when traced,
the per-layer metrics. Run by ``run.py``, not by hand.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tsgn.cli  # noqa: E402  (after the path set-up above)

from tracing import MAIN, Tracer  # noqa: E402
from workloads import WORKLOADS, write_dataset  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--trace-file", type=Path)
    parser.add_argument("--round", type=int, default=0)
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]
    data = args.dir / workload.profile
    write_dataset(workload, args.seed, data)
    commands = [
        [arg.format(data=data, out=args.dir / f"out{i}", seed=args.seed) for arg in template]
        for i, template in enumerate(workload.commands)
    ]
    cli_main = tsgn.cli.main
    tracer = None
    if args.trace_file:
        tracer = Tracer()
        missing = tracer.install()
        if missing:
            print(f"not traced, absent from this tsgn: {', '.join(missing)}", file=sys.stderr)
        cli_main = tracer.wrap(MAIN, cli_main)

    codes = []
    started = time.monotonic()
    cpu_started = time.process_time()
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in commands:
            try:
                codes.append(cli_main(argv))
            except Exception:  # noqa: BLE001  (a crash is a failed operation)
                traceback.print_exc()
                codes.append(-1)
    wall = time.monotonic() - started
    cpu = time.process_time() - cpu_started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {"started": started, "wall_s": wall, "cpu_s": cpu,
              "peak_rss_mb": peak_rss_mb, "codes": codes}
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["layers"]["cli.output_bytes"] = sum(
            p.stat().st_size
            for i in range(len(commands)) for p in (args.dir / f"out{i}").rglob("*")
            if p.is_file()
        )
        tracer.dump(args.trace_file, args.round)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
