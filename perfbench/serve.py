"""Run `pacas serve` in its own process for the benchmark.

    python3 perfbench/serve.py --stats STATS.json [--trace] -- <pacas serve args>

The provider prints its ready line as usual. With --trace, the span wrappers
are installed before the server starts and each connection's spans carry the
connection's ordinal. When the server stops (SIGTERM), the launcher writes its
peak resident memory and, when traced, its spans and counters to STATS.json.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pacas import cli  # noqa: E402

from spans import Recorder  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--stats", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = args.serve_args[1:] if args.serve_args[:1] == ["--"] else args.serve_args
    recorder = Recorder()
    if args.trace:
        recorder.install()
        recorder.label_connections()
    code = cli.main(serve_args)
    recorder.uninstall()
    stats = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if args.trace:
        stats.update(recorder.dump())
    Path(args.stats).write_text(json.dumps(stats))
    return code


if __name__ == "__main__":
    sys.exit(main())
