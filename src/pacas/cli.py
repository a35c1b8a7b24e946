"""Command-line entry point: serve, clean, price, check-anon, inject, eval.

Exit codes: 0 success, 2 validation error, 3 protocol error. The PACAS_LOG
environment variable sets the logging level.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import signal
import sys
import threading
from fractions import Fraction
from pathlib import Path

from . import metrics
from .anonymity import AnonymitySpec, group_sizes
from .cleaner import safe_clean
from .errors import PacasError, ProtocolError
from .harness import AXES, InjectionPlan, SweepConfig, inject_errors, run_sweep
from .hierarchy import load_hierarchy_set
from .pricing import SupportSet, build_support_set
from .protocol import EmbeddedProvider, ProviderServer, RemoteProvider, handle_message
from .provider import ProviderSession
from .relation import DependencyConfig, load_relation

log = logging.getLogger("pacas")


def _setup_logging() -> None:
    level = os.environ.get("PACAS_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(asctime)s %(name)s %(levelname)s %(message)s")


def _load_inputs(args):
    hierarchies = load_hierarchy_set(args.hierarchies)
    config = DependencyConfig.from_json(args.config)
    return hierarchies, config


def _session_factory(args, hierarchies, config):
    """Session builder over the file master, and the loaded master. The gate
    counts ground Y-candidates, so the spec's levels are all 0."""
    master = load_relation(args.master, hierarchies)
    spec = AnonymitySpec(x=config.qi, y=config.sensitive,
                         levels=(0,) * len(config.sensitive), k=args.k)
    if args.support:
        built = SupportSet.load(args.support, master)
    else:
        built = build_support_set(master, args.support_size, args.seed)

    def factory() -> ProviderSession:
        support = SupportSet(master, built.members, built.seed)
        return ProviderSession(master=master, support=support, spec=spec, mds=config.mds)

    return factory, master


def _parse_levels(raw: str | None, width: int) -> tuple[int, ...]:
    if not raw:
        return tuple(0 for _ in range(width))
    parts = [int(p) for p in str(raw).split(",")]
    if len(parts) == 1 and width > 1:
        parts = parts * width
    return tuple(parts)


def _parse_lmax(raw: str):
    """Either one global cap ("2") or per-attribute caps ("MED=1,DIAG=0")."""
    if "=" not in raw:
        return int(raw)
    caps = {}
    for part in raw.split(","):
        attr, _, level = part.partition("=")
        caps[attr.strip()] = int(level)
    return caps


# ---------------------------------------------------------------------------
# subcommands

def cmd_serve(args) -> int:
    factory, _ = _session_factory(args, *_load_inputs(args))
    factory()  # a master, config or snapshot no session accepts exits here, not per connection
    fingerprint = hashlib.sha256(Path(args.master).read_bytes()).hexdigest()[:12]
    server = ProviderServer((args.host, args.port), factory)
    port = server.server_address[1]

    def shutdown(signum, frame):
        # shutdown() blocks until serve_forever exits, so it must not run on
        # the serving thread itself
        threading.Thread(target=server.shutdown, daemon=True).start()

    # a client may signal as soon as it reads the ready line
    signal.signal(signal.SIGINT, shutdown)
    signal.signal(signal.SIGTERM, shutdown)
    print(json.dumps({"ready": True, "dataset_fingerprint": fingerprint, "port": port}),
          flush=True)
    log.info("serving on %s:%s", args.host, port)
    server.serve_forever()
    server.server_close()
    return 0


def cmd_clean(args) -> int:
    hierarchies, config = _load_inputs(args)
    dirty = load_relation(args.input, hierarchies)
    if ":" in args.master and not Path(args.master).exists():
        host, _, port = args.master.rpartition(":")
        provider, master = RemoteProvider(host, int(port)), None
    else:
        factory, master = _session_factory(args, hierarchies, config)
        provider = EmbeddedProvider(factory())
    try:
        budget = Fraction(args.budget) * provider.total_weight()
        truth = None
        metric_ctx = None
        if args.truth:
            truth = load_relation(args.truth, hierarchies)
            reference = master if master is not None else truth
            metric_ctx = metrics.MetricContext(reference)
        repaired, report = safe_clean(
            dirty, provider, config.fds, budget,
            l_max=_parse_lmax(args.lmax), truth=truth, metric_ctx=metric_ctx,
        )
    finally:
        provider.close()
    Path(args.out).write_text(repaired.to_csv())
    report_doc = report.to_json()
    if args.report:
        Path(args.report).write_text(json.dumps(report_doc, indent=2, sort_keys=True) + "\n")
    print(json.dumps({
        "violations_before": report.violations_before,
        "violations_after": report.violations_after,
        "budget_spent": float(report.budget_spent),
        "repair_error": report.repair_error,
    }))
    return 0


def cmd_price(args) -> int:
    """Drive one pricing session from an NDJSON request file."""
    factory, _ = _session_factory(args, *_load_inputs(args))
    session = factory()
    for line in Path(args.requests).read_text().splitlines():
        if line.strip():
            print(json.dumps(handle_message(session, json.loads(line))))
    return 0


def cmd_check_anon(args) -> int:
    hierarchies, config = _load_inputs(args)
    relation = load_relation(args.relation, hierarchies)
    x = tuple(args.x.split(",")) if args.x else config.qi
    y = tuple(args.y.split(",")) if args.y else config.sensitive
    levels = _parse_levels(args.levels, len(y))
    spec = AnonymitySpec(x=x, y=y, levels=levels, k=args.k)
    sizes = group_sizes(relation, x, y, levels)
    print(json.dumps({
        "k": args.k,
        "x": list(x),
        "y": list(y),
        "levels": list(levels),
        "per_tuple": [{"tuple_id": tid, "group_size": n} for tid, n in sizes],
        "min_group_size": min((n for _, n in sizes), default=0),
        "anonymous": all(n >= spec.k for _, n in sizes),
    }, indent=2))
    return 0


def cmd_inject(args) -> int:
    hierarchies, config = _load_inputs(args)
    truth = load_relation(args.truth, hierarchies)
    plan = InjectionPlan(rate=args.rate, mix=(args.constraint_frac, 1 - args.constraint_frac),
                         seed=args.seed)
    dirty, manifest = inject_errors(truth, plan, config.fds)
    Path(args.out).write_text(dirty.to_csv())
    Path(args.manifest).write_text(json.dumps(manifest, indent=2) + "\n")
    print(json.dumps({"errors": len(manifest["entries"]), "out": args.out}))
    return 0


def cmd_eval(args) -> int:
    config = SweepConfig.from_json(args.config) if args.config else SweepConfig()
    axes = tuple(a.strip() for a in args.axes.split(",")) if args.axes else AXES
    for axis in axes:
        if axis not in AXES:
            raise ValueError(f"unknown sweep axis {axis!r}; choose from {', '.join(AXES)}")
    summary = run_sweep(config, args.outdir, axes=axes)
    print(json.dumps({"axes": list(summary), "outdir": str(args.outdir)}))
    return 0


# ---------------------------------------------------------------------------
# argument wiring

def _add_provider_args(p, master_help):
    p.add_argument("--master", required=True, help=master_help)
    p.add_argument("--hierarchies", required=True, help="hierarchy JSON file or directory")
    p.add_argument("--config", required=True, help="schema/FD/MD JSON")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--support-size", type=int, default=10)
    p.add_argument("--support", default=None, help="support-set snapshot JSON")
    p.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pacas",
                                     description="privacy-aware data cleaning service")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("serve", help="run the provider endpoint")
    _add_provider_args(p, "curated relation CSV")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("clean", help="repair a dirty relation against a provider")
    _add_provider_args(p, "master CSV path or host:port")
    p.add_argument("--input", required=True, help="dirty relation CSV")
    p.add_argument("--budget", required=True, help="fraction of the total disclosure price")
    p.add_argument("--lmax", default="0",
                   help="level cap: global int or per-attribute like MED=1,DIAG=0")
    p.add_argument("--truth", default=None, help="ground-truth CSV for repair-error reporting")
    p.add_argument("--out", required=True, help="repaired CSV path")
    p.add_argument("--report", default=None, help="JSON report path")
    p.set_defaults(func=cmd_clean)

    p = sub.add_parser("price", help="quote and purchase requests from an NDJSON file")
    _add_provider_args(p, "curated relation CSV")
    p.add_argument("--requests", required=True, help="NDJSON request file")
    p.set_defaults(func=cmd_price)

    p = sub.add_parser("check-anon", help="validate (X,Y,L)-anonymity of a relation")
    p.add_argument("--relation", required=True)
    p.add_argument("--hierarchies", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--x", default=None, help="comma-separated X attributes")
    p.add_argument("--y", default=None, help="comma-separated Y attributes")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--levels", default=None)
    p.set_defaults(func=cmd_check_anon)

    p = sub.add_parser("inject", help="corrupt a clean relation with seeded errors")
    p.add_argument("--truth", required=True)
    p.add_argument("--hierarchies", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--rate", type=float, required=True)
    p.add_argument("--constraint-frac", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--manifest", required=True)
    p.set_defaults(func=cmd_inject)

    p = sub.add_parser("eval", help="run the parameter sweeps")
    p.add_argument("--config", default=None, help="sweep config JSON")
    p.add_argument("--axes", default=None, help="comma-separated axes subset")
    p.add_argument("--outdir", required=True)
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ProtocolError as exc:
        print(json.dumps({"ok": False, "error": "protocol", "detail": str(exc)}),
              file=sys.stderr)
        return 3
    except (PacasError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(json.dumps({"ok": False, "error": type(exc).__name__, "detail": str(exc)}),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
