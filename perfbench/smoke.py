"""Smoke run of the benchmark at tiny sizes, in a few seconds.

    python3 perfbench/smoke.py

Runs run.py's full path (set-up, checks, oracle replay, digest) on a 48-row
relation: once embedded with the end-to-end metrics, once over TCP with the
traced per-layer metrics. Fails unless both runs are correct and print every
metric BENCHMARK.json names.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import run

TINY = {
    "smoke-embedded": run.Workload(n=48, support=10, tcp=False, pool=2, verdicts=1),
    "smoke-tcp": run.Workload(n=48, support=10, tcp=True, pool=2, verdicts=1),
}


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    run.WORKLOADS.update(TINY)
    run.SETUP_REPEATS = 2
    for workload, trace, names in (
        ("smoke-embedded", 0, [m["name"] for m in spec["end_to_end"]]),
        ("smoke-tcp", 1, [m["name"] for m in spec["per_layer"]]),
    ):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", workload, "--seed", "1", "--seconds", "0.1",
                             "--trace", str(trace)])
        result = json.loads(out.getvalue().splitlines()[-1])
        missing = sorted(set(names) - set(result["metrics"]))
        if code != 0 or not result["correct"] or missing:
            print(out.getvalue(), file=sys.stderr)
            print(f"smoke {workload}: exit {code}, missing {missing}", file=sys.stderr)
            return 1
        print(f"smoke {workload} trace {trace}: ok, {result['attempted']} attempted")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    sys.exit(main())
