"""pacas benchmark: closed-loop inject -> clean cycles against a provider.

    python3 perfbench/run.py --workload clean-repair --seed 1 --seconds 25 --trace 0

Each cycle repairs one seeded dirty relation with `cleaner.safe_clean`
against a `provider.ProviderSession`, embedded or over the NDJSON/TCP
protocol with the provider in its own process (see WORKLOADS). Cycles run one
after another, one client and one connection at a time, for --seconds, and
at least once over the workload's pool of dirty relations.

Every cycle's output is checked; a failed check or operation makes the run
exit 1. The last line of stdout is one JSON object: with --trace 0 it holds
the end-to-end metrics, measured untraced; with --trace 1 it holds the
per-layer metrics of a traced run (half the time untraced, half traced, so
the trace overhead is measured too). The lines above it are a readable
summary with a digest of the reports, which should not change for a fixed
seed (perfbench/METRICS.md notes where it still does).
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if not (ROOT / "src" / "pacas" / "__init__.py").is_file():
    sys.exit(f"perfbench: no pacas sources under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))

from pacas import cleaner, harness, metrics, pricing  # noqa: E402
from pacas.anonymity import AnonymitySpec, is_safe_query  # noqa: E402
from pacas.errors import NoApplicableMD, NoMatch  # noqa: E402
from pacas.harness import InjectionPlan  # noqa: E402
from pacas.pricing import baseline_price, is_infinite  # noqa: E402
from pacas.protocol import EmbeddedProvider, RemoteProvider  # noqa: E402
from pacas.provider import ProviderSession  # noqa: E402
from pacas.relation import violations  # noqa: E402
from pacas.rng import child_rng  # noqa: E402

import gen  # noqa: E402
from spans import Recorder, aggregate, count_totals  # noqa: E402

K = gen.K  # the generated relation is (X,Y)-anonymous at this k
L_MAX = 2
BUDGET_SHARE = Fraction(4, 5)  # of the support set's total weight
ERROR_RATE = 0.1
ERROR_MIX = (0.8, 0.2)  # (constraint-induced, random)
SETUP_REPEATS = 5
HARD_STOP_S = 120.0  # start no cycle after this, whatever the pool


@dataclass(frozen=True)
class Workload:
    n: int  # rows of the curated relation
    support: int  # support-set size |S|
    tcp: bool  # provider in its own process, reached over TCP
    pool: int  # distinct dirty relations, cycled round-robin
    verdicts: int | None  # sales whose safety verdict the oracle re-derives (None: all)


WORKLOADS = {
    "clean-pricing": Workload(n=288, support=60, tcp=False, pool=10, verdicts=1),
    "clean-repair": Workload(n=384, support=6, tcp=True, pool=12, verdicts=2),
    "clean-wire": Workload(n=48, support=10, tcp=True, pool=128, verdicts=None),
}


# ---------------------------------------------------------------------------
# provider handles


@dataclass
class Tally:
    """Operation outcomes and latencies, as the cleaner's handle sees them."""

    quote_ms: list[float] = field(default_factory=list)
    pay_ms: list[float] = field(default_factory=list)
    infinite: int = 0
    no_match: int = 0
    errors: list[str] = field(default_factory=list)  # one per failed call

    @property
    def ops(self) -> int:
        return len(self.quote_ms) + len(self.pay_ms) + len(self.errors)


class Meter:
    """Proxy over a provider handle: times ask_price and pay, sorts their
    outcomes, and optionally logs each call for the oracle replay. NoMatch
    and NoApplicableMD are answers; any other exception is a failed call."""

    def __init__(self, handle, tally: Tally, log: list | None = None):
        self.handle, self.tally, self.log = handle, tally, log

    def _call(self, op, samples, args, request, client_tuple):
        start = time.perf_counter()
        try:
            result = getattr(self.handle, op)(*args, request, client_tuple)
        except (NoMatch, NoApplicableMD) as exc:
            samples.append((time.perf_counter() - start) * 1e3)
            self.tally.no_match += isinstance(exc, NoMatch)
            self._log(op, args, request, client_tuple, type(exc).__name__)
            raise
        except Exception as exc:
            self.tally.errors.append(f"{op}: {type(exc).__name__}: {exc}")
            raise
        samples.append((time.perf_counter() - start) * 1e3)
        self._log(op, args, request, client_tuple, result)
        return result

    def _log(self, op, args, request, client_tuple, result) -> None:
        if self.log is not None:
            self.log.append((op, args, request, dict(client_tuple), result))

    def ask_price(self, request, client_tuple):
        price = self._call("ask_price", self.tally.quote_ms, (), request, client_tuple)
        if is_infinite(price):
            self.tally.infinite += 1
        return price

    def pay(self, price, request, client_tuple):
        return self._call("pay", self.tally.pay_ms, (price,), request, client_tuple)


class Server:
    """`pacas serve` in its own process, started through perfbench/serve.py."""

    def __init__(self, workdir: Path, bundle: gen.Bundle, wl: Workload, seed: int, traced: bool):
        workdir.mkdir(parents=True, exist_ok=True)
        (workdir / "master.csv").write_text(bundle.master.to_csv())
        (workdir / "hierarchies.json").write_text(json.dumps(bundle.hierarchy_docs))
        (workdir / "config.json").write_text(json.dumps(bundle.config_doc))
        self.stats_path = workdir / "server-stats.json"
        command = [sys.executable, str(HERE / "serve.py"), "--stats", str(self.stats_path)]
        if traced:
            command.append("--trace")
        command += ["--", "serve", "--master", str(workdir / "master.csv"),
                    "--hierarchies", str(workdir / "hierarchies.json"),
                    "--config", str(workdir / "config.json"), "--k", str(K),
                    "--support-size", str(wl.support), "--seed", str(seed), "--port", "0"]
        self.proc = subprocess.Popen(command, stdout=subprocess.PIPE, cwd=ROOT, text=True)
        line = self.proc.stdout.readline()
        try:
            self.port = int(json.loads(line)["port"])
        except (ValueError, KeyError, TypeError):
            self.proc.kill()
            self.proc.wait()
            self.proc.stdout.close()
            raise RuntimeError(f"provider did not start: {line!r}") from None

    def stop(self) -> dict:
        """Stop the server, wait for it, and return what its launcher wrote."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        if self.proc.returncode != 0 or not self.stats_path.exists():
            raise RuntimeError(f"provider exited with code {self.proc.returncode}")
        return json.loads(self.stats_path.read_text())


# ---------------------------------------------------------------------------
# set-up and cycles


@dataclass
class Setup:
    wl: Workload
    bundle: gen.Bundle
    spec: AnonymitySpec
    ctx: metrics.MetricContext
    cycle_seeds: list[int]
    dirty: list
    support_seed: int
    server: Server | None
    seconds: float


def set_up(wl: Workload, seed: int, workdir: Path, traced_server: bool = False) -> Setup:
    """Generate the relation, inject the pool of dirty relations, build the
    metric tables and, over TCP, start the provider to its ready line."""
    start = time.perf_counter()
    bundle = gen.generate(seed, wl.n)
    cycle_seeds = [child_rng(seed, f"cycle:{i}").getrandbits(31) for i in range(wl.pool)]
    dirty = [
        harness.inject_errors(bundle.truth, InjectionPlan(ERROR_RATE, ERROR_MIX, s),
                              bundle.config.fds)[0]
        for s in cycle_seeds
    ]
    ctx = metrics.MetricContext(bundle.master)
    support_seed = child_rng(seed, "support").getrandbits(31)
    server = Server(workdir, bundle, wl, support_seed, traced_server) if wl.tcp else None
    spec = AnonymitySpec(x=bundle.x, y=bundle.y, levels=(0,), k=K)
    return Setup(wl, bundle, spec, ctx, cycle_seeds, dirty, support_seed, server,
                 time.perf_counter() - start)


def embedded_session(setup: Setup, support_seed: int) -> ProviderSession:
    master = setup.bundle.master
    support = pricing.build_support_set(master.copy(), setup.wl.support, support_seed)
    return ProviderSession(master=master, support=support, spec=setup.spec,
                           mds=setup.bundle.config.mds)


def report_digest(report) -> str:
    doc = report.to_json()
    doc.pop("wall_time_s")
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def check_cycle(setup: Setup, repaired, report) -> list[str]:
    problems = []
    after = len(violations(repaired, setup.bundle.config.fds))
    if after != report.violations_after:
        problems.append(f"violations_after {report.violations_after} != recount {after}")
    if report.violations_after > report.violations_before:
        problems.append("repair added violations")
    if report.budget_spent > report.budget_total:
        problems.append(f"spent {report.budget_spent} > budget {report.budget_total}")
    for it in report.iterations:
        if "purchase" in it and it["purchase"]["level"] > L_MAX:
            problems.append(f"purchase above level cap: {it['purchase']}")
    return problems


@dataclass
class Cycle:
    entry: int
    clean_s: float
    digest: str
    report: object
    problems: list[str]


def run_cycle(setup: Setup, entry: int, tally: Tally, log=None, embedded=None) -> Cycle:
    wl = setup.wl
    if embedded is None:
        embedded = not wl.tcp
    if embedded:
        seed = setup.support_seed if wl.tcp else setup.cycle_seeds[entry]
        handle = EmbeddedProvider(embedded_session(setup, seed))
    else:
        handle = RemoteProvider("127.0.0.1", setup.server.port)
    try:
        meter = Meter(handle, tally, log)
        start = time.perf_counter()
        repaired, report = cleaner.safe_clean(
            setup.dirty[entry], meter, setup.bundle.config.fds,
            BUDGET_SHARE * wl.support, l_max=L_MAX,
            truth=setup.bundle.truth, metric_ctx=setup.ctx,
        )
        clean_s = time.perf_counter() - start
    finally:
        handle.close()
    return Cycle(entry, clean_s, report_digest(report), report,
                 check_cycle(setup, repaired, report))


@dataclass
class Loop:
    cycles: list[Cycle] = field(default_factory=list)
    escaped: list[str] = field(default_factory=list)
    tally: Tally = field(default_factory=Tally)
    log: list = field(default_factory=list)  # calls of the first cycle

    @property
    def problems(self) -> list[str]:
        out = [p for c in self.cycles for p in c.problems] + self.escaped
        first = {}
        for c in self.cycles:
            if first.setdefault(c.entry, c.digest) != c.digest:
                out.append(f"pool entry {c.entry} repaired differently on a later pass")
        return out

    def digest(self, pool: int) -> str:
        firsts = {}
        for c in self.cycles:
            firsts.setdefault(c.entry, c.digest)
        body = "".join(firsts[e] for e in range(pool) if e in firsts)
        return hashlib.sha256(body.encode()).hexdigest()


def timed_loop(setup: Setup, seconds: float, deadline: float, recorder=None) -> Loop:
    """Run cycles round-robin over the pool until `seconds` have passed and the
    pool was covered once; `deadline` (perf_counter) caps it regardless."""
    loop = Loop()
    end = time.perf_counter() + seconds
    i = 0
    while (i < setup.wl.pool or time.perf_counter() < end) and time.perf_counter() < deadline:
        if recorder is not None:
            recorder.cycle = i
        try:
            loop.cycles.append(
                run_cycle(setup, i % setup.wl.pool, loop.tally, loop.log if i == 0 else None))
        except Exception as exc:  # counted, reported, and the loop goes on
            loop.escaped.append(f"cycle {i}: {type(exc).__name__}: {exc}")
        i += 1
    if recorder is not None:
        recorder.cycle = None
    return loop


# ---------------------------------------------------------------------------
# oracle replay


def oracle_replay(setup: Setup, log: list, support_seed: int, rng: random.Random):
    """Replay one cycle's calls on a fresh embedded session. Every recorded
    price must match the materialising `baseline_price`; before each sale the
    session's own quote must match it too, and at `verdicts` sales chosen by
    the run seed the safety verdict must match `anonymity.is_safe_query`.
    Returns (oracle checks made, list of mismatches)."""
    session = embedded_session(setup, support_seed)
    master, support = session.master, session.support
    sales = [i for i, call in enumerate(log) if call[0] == "pay"]
    verdicts = len(sales) if setup.wl.verdicts is None else min(setup.wl.verdicts, len(sales))
    verdict_at = set(rng.sample(sales, verdicts))
    checks, mismatches = 0, []
    for i, (op, args, request, client_tuple, recorded) in enumerate(log):
        if op == "ask_price":
            if isinstance(recorded, str):  # NoApplicableMD
                continue
            q, (quote, _) = session.quote(request, client_tuple)
            if quote.amount != recorded:
                mismatches.append(f"call {i}: replayed quote {quote.amount} != {recorded}")
            if not quote.infinite:
                checks += 1
                if baseline_price(q, master, support) != quote.amount:
                    mismatches.append(f"call {i}: quote {quote.amount} != baseline_price")
            continue
        q, (quote, _) = session.quote(request, client_tuple)
        checks += 1
        if quote.infinite or baseline_price(q, master, support) != quote.amount:
            mismatches.append(f"call {i}: sale quote {quote.amount} != baseline_price")
        if i in verdict_at:
            checks += 1
            instances = [support.materialize(m) for m in support.members]
            if not is_safe_query(q, master, instances, session.spec):
                mismatches.append(f"call {i}: sold a query is_safe_query rejects")
        try:
            outcome = session.pay(*args, request, client_tuple)
        except NoMatch:
            outcome = "NoMatch"
        if outcome != recorded:
            mismatches.append(f"call {i}: replayed sale {outcome} != recorded {recorded}")
    return checks, mismatches


# ---------------------------------------------------------------------------
# statistics and output


def tail(samples: list[float]):
    """Highest of p50..p99.9 with at least ten samples beyond it."""
    ordered = sorted(samples)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if len(ordered) * (1 - pct / 100) >= 10:
            return pct, ordered[min(len(ordered) - 1, int(len(ordered) * pct / 100))]
    return None, None


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(setup_times, loop: Loop, rss_mb: float) -> dict:
    return {
        "clean_s": metric(statistics.median(c.clean_s for c in loop.cycles), "s"),
        "quote_p50_ms": metric(statistics.median(loop.tally.quote_ms), "ms"),
        "pay_p50_ms": metric(statistics.median(loop.tally.pay_ms), "ms"),
        "setup_s": metric(statistics.median(setup_times), "s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }


def per_layer(loop: Loop, untraced: Loop, client: Recorder, server_stats: dict | None,
              setup_trace: dict, oracle_checks: int, oracle_mismatches: int):
    """Per-layer metrics per traced cycle, and the layers ranked by self
    time, where the client's protocol span counts only its transport part
    (client time minus the server's handle_message time)."""
    cycles = len(loop.cycles)
    timed = set(range(cycles + len(loop.escaped)))
    in_cycle = timed.__contains__
    spans = aggregate(client.spans, in_cycle)
    counts = count_totals(client.dump()["counts"], in_cycle)
    if server_stats is not None:
        # the server labels spans with the connection ordinal; cycle i opened connection i
        for name, agg in aggregate(server_stats["spans"], in_cycle).items():
            spans[name] = agg
        for name, (n, secs) in count_totals(server_stats["counts"], in_cycle).items():
            total = counts.setdefault(name, [0, 0.0])
            total[0] += n
            total[1] += secs

    def per_cycle(value):
        return value / cycles

    def sp(name, key):
        return spans.get(name, {}).get(key, 0)

    out = {}

    def put(name, value, unit):
        out[name] = metric(value, unit)

    for name, kinds in (
        ("pricing.safe_price", ("calls", "s")),
        ("pricing.commit_sale", ("calls", "s")),
        ("relation.refresh_error_counts", ("calls", "s")),
        ("relation.generate_eqs", ("s",)),
        ("provider.ask_price", ("calls", "s", "self_s")),
        ("provider.pay", ("calls", "s", "self_s")),
        ("metrics.relation_distance", ("s",)),
        ("metrics.buckets", ("s",)),
        ("pricing.build_support_set", ("s",)),
    ):
        for kind in kinds:
            unit = "count" if kind == "calls" else "s"
            put(f"{name}.{kind}", per_cycle(sp(name, kind)), unit)
    for name in ("gquery.eval_gq", "relation.violations"):
        calls, secs = counts.get(name, (0, 0.0))
        put(f"{name}.calls", per_cycle(calls), "count")
        put(f"{name}.s", per_cycle(secs), "s")
    for name in ("pricing.materialize", "hierarchy.generalize_to", "hierarchy.generalizes"):
        put(f"{name}.calls", per_cycle(counts.get(name, (0,))[0]), "count")
    evals = counts.get("gquery.eval_gq", (0,))[0]
    put("gquery.evals_per_quote", evals / max(sp("pricing.safe_price", "calls"), 1), "ratio")
    put("pricing.infinite_share", loop.tally.infinite / max(len(loop.tally.quote_ms), 1), "share")
    put("cleaner.self_s", per_cycle(sp("cleaner.safe_clean", "self_s")), "s")
    clean_total = sp("cleaner.safe_clean", "s")
    client_s, server_s = sp("protocol.client", "s"), sp("protocol.server", "s")
    put("protocol.roundtrips", per_cycle(sp("protocol.client", "calls")), "count")
    connections = len({c for *_, c in server_stats["spans"] if in_cycle(c)}) if server_stats else 0
    put("protocol.connections", per_cycle(connections), "count")
    put("protocol.client_share", client_s / clean_total, "share")
    put("protocol.server_share", server_s / clean_total, "share")
    put("protocol.transport_share", (client_s - server_s) / clean_total, "share")
    iterations = sum(len(c.report.iterations) for c in loop.cycles)
    purchases = sum(1 for c in loop.cycles for it in c.report.iterations if "purchase" in it)
    put("cleaner.iterations", per_cycle(iterations), "count")
    put("cleaner.purchases", per_cycle(purchases), "count")
    put("cleaner.unrepaired", per_cycle(iterations - purchases), "count")
    put("cleaner.no_match", per_cycle(loop.tally.no_match), "count")
    put("cleaner.quotes_per_purchase", len(loop.tally.quote_ms) / max(purchases, 1), "ratio")
    for name in ("harness.inject_errors", "metrics.context"):
        put(f"{name}.s", setup_trace.get(name, {}).get("s", 0.0), "s")
    for kind, samples in (("quote", untraced.tally.quote_ms), ("pay", untraced.tally.pay_ms)):
        pct, value = tail(samples)
        put(f"cleaner.{kind}_tail_ms", value if value is not None else max(samples, default=0.0),
            "ms")
        put(f"cleaner.{kind}_tail_pct", pct if pct is not None else 100.0, "%")
        put(f"cleaner.{kind}_samples", len(samples), "count")
    put("anonymity.oracle_checks", oracle_checks, "count")
    put("anonymity.oracle_mismatches", oracle_mismatches, "count")
    traced_clean = statistics.median(c.clean_s for c in loop.cycles)
    untraced_clean = statistics.median(c.clean_s for c in untraced.cycles)
    put("trace.clean_s", traced_clean, "s")
    put("trace.overhead_share", traced_clean / untraced_clean - 1, "share")
    ranking = {name: agg["self_s"] / clean_total for name, agg in spans.items()}
    if "protocol.client" in ranking:
        ranking["protocol.transport"] = (client_s - server_s) / clean_total
        del ranking["protocol.client"]
    return out, sorted(ranking.items(), key=lambda r: -r[1])


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]
    deadline = time.perf_counter() + HARD_STOP_S
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    servers: list[Server] = []
    setups = itertools.count()
    # a terminated run still stops its servers and removes its files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    def start(traced_server=False) -> Setup:
        setup = set_up(wl, args.seed, workdir / f"setup{next(setups)}", traced_server)
        if setup.server is not None:
            servers.append(setup.server)
        return setup

    def stop(setup: Setup) -> dict | None:
        if setup.server is None:
            return None
        servers.remove(setup.server)
        return setup.server.stop()

    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            if setup_times:
                stop(setup)
            setup = start()
            setup_times.append(setup.seconds)
        seconds = args.seconds / 2 if args.trace else args.seconds
        loops = [timed_loop(setup, seconds, deadline)]
        if wl.tcp:
            rss_mb = stop(setup)["peak_rss_mb"]
        else:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if args.trace:
            recorder = Recorder()
            recorder.install()
            recorder.cycle = "setup"
            setup = start(traced_server=True)
            setup_trace = aggregate(recorder.spans, lambda c: c == "setup")
            loops.append(timed_loop(setup, seconds, deadline, recorder))
            server_stats = stop(setup)
            recorder.uninstall()
        loop = loops[-1]
        if not all(lp.cycles for lp in loops):
            escaped = [e for lp in loops for e in lp.escaped][:5]
            sys.exit(f"perfbench: a timed loop completed no cycle: {escaped}")

        # checks outside the timed region
        problems = [p for lp in loops for p in lp.problems]
        checks = 0
        if wl.tcp:
            replay_log: list = []
            rerun = run_cycle(setup, 0, Tally(), replay_log, embedded=True)
            checks += 1
            problems += rerun.problems
            remote = next((c for c in loop.cycles if c.entry == 0), None)
            if remote is None or remote.digest != rerun.digest:
                problems.append("embedded rerun of cycle 0 differs from the TCP report")
            replay_seed = setup.support_seed
        else:
            replay_log, replay_seed = loop.log, setup.cycle_seeds[0]
        oracle_checks, mismatches = oracle_replay(
            setup, replay_log, replay_seed, child_rng(args.seed, "oracle"))
        checks += oracle_checks
        problems += mismatches
    finally:
        for server in servers:
            try:
                server.stop()
            except RuntimeError:
                pass
        shutil.rmtree(workdir, ignore_errors=True)
        if workdir.parent.exists() and not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()

    ops_failed = [e for lp in loops for e in lp.tally.errors]
    attempted = checks + sum(lp.tally.ops + len(lp.cycles) + len(lp.escaped) for lp in loops)
    failed = len(ops_failed) + len(problems)
    correct = failed == 0

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"cycles {'+'.join(str(len(lp.cycles)) for lp in loops)}  "
          f"pool {len({c.entry for c in loop.cycles})}/{wl.pool}")
    print(f"report digest {loop.digest(wl.pool)}")
    for problem in (problems + ops_failed)[:20]:
        print(f"FAILED {problem}")
    if args.trace:
        result, ranking = per_layer(loop, loops[0], recorder, server_stats, setup_trace,
                                    oracle_checks, len(mismatches))
        for name, share in ranking:
            print(f"  self time {name:32s} {share:7.2%} of clean_s")
    else:
        result = end_to_end(setup_times, loop, rss_mb)
        for kind, samples in (("quote", loop.tally.quote_ms), ("pay", loop.tally.pay_ms)):
            pct, value = tail(samples)
            if pct is not None:
                print(f"  {kind} tail p{pct:g} {value:.4f} ms over {len(samples)} samples")
    shown = dict(result, failed_share=metric(failed / attempted, "share"))
    for name, m in shown.items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
